"""Names carry no order: a solve depends on the index order of agents and items alone.

Renaming agents, items, coverage elements and matroid classes so that their
string order reverses while their index order stays must change nothing once
the result is mapped back: the report JSON bytes, the swap trace (gains
compared as ``float.hex``), the 1/2-EFX allocation and the optimum with its
argmax. Renaming also changes every string hash, so the suite runs under
several ``PYTHONHASHSEED`` values in CI. Reordering the agents may move ties,
which go to the smaller index, so a permuted instance must only pass every
certificate its solve carries.
"""

import dataclasses
from typing import Dict, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from nswfair import Instance, brute_force_opt, guarantee_half_efx, solve_nsw
from nswfair.cli import _checks, _solve
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.instance import canonical_json, instance_from_json, instance_to_json

EPS = 0.1
SIZES = ((3, 7), (6, 40), (12, 120))
EXACT_CELLS = 3**7  # n^m up to which the optimum is enumerated

cases = st.tuples(
    st.sampled_from(FAMILIES), st.sampled_from(WEIGHT_MODES), st.sampled_from(SIZES), st.integers(1, 10**6)
)


def reversed_names(names: Sequence[str], prefix: str) -> Dict[str, str]:
    """Each of ``names``, in index order, to ``prefix`` and its index counted from the end,
    zero-padded: the new names' string order is the reverse of their index order."""
    width = len(str(len(names)))
    return {x: f"{prefix}{len(names) - 1 - k:0{width}d}" for k, x in enumerate(names)}


def rename(obj, names: Dict[str, str]):
    """``obj`` with every string that ``names`` maps replaced by its image, through dicts (keys
    too), lists, tuples, frozensets and dataclasses such as a report or an allocation."""
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: rename(getattr(obj, f.name), names) for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return {names.get(k, k): rename(v, names) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, frozenset)):
        return type(obj)(rename(x, names) for x in obj)
    return names.get(obj, obj) if isinstance(obj, str) else obj


def relabeled(inst: Instance):
    """``inst`` under reversed names, and the map from the new names back to the old. Elements
    and classes, named ``u<t>`` and ``c<t>`` by the generator, keep their order by t."""
    doc = instance_to_json(inst)
    params = [v["params"] for v in doc["valuations"]]
    elements = {e for p in params for e in p.get("element_weights", ())}
    classes = {c for p in params for c in p.get("capacities", ())}
    names = {
        **reversed_names(inst.agents, "A"),
        **reversed_names(inst.items, "I"),
        **reversed_names(sorted(elements, key=lambda e: int(e[1:])), "E"),
        **reversed_names(sorted(classes, key=lambda c: int(c[1:])), "C"),
    }
    return instance_from_json(rename(doc, names)), {new: old for old, new in names.items()}


def solved(inst: Instance):
    """The solve's report, the 1/2-EFX output on equal weights and the optimum at n^m <= 3^7."""
    report = solve_nsw(inst, EPS)
    fair = guarantee_half_efx(inst, report.allocation) if inst.is_symmetric() else None
    return report, fair, brute_force_opt(inst) if inst.n**inst.m <= EXACT_CELLS else None


def shown(report, fair, opt):
    """What :func:`solved` shows: the report JSON bytes, the swap trace with exact gains, the
    1/2-EFX allocation and the optimum's log NSW, exact, with its argmax."""
    trace = report.search.trace if report.search is not None else ()
    best = None if opt is None else (opt.opt_log.hex(), opt.argmax, opt.enumerated)
    return canonical_json(report.to_json()), [(r.giver, r.item, r.taker, r.log_gain.hex()) for r in trace], fair, best


def test_relabeled_instance_reverses_string_order_and_keeps_every_value():
    inst = random_instance("coverage", 3, 12, 1)
    other, back = relabeled(inst)
    assert list(other.items) == sorted(other.items, reverse=True) and other.items[0] == "I11"
    assert tuple(back[a] for a in other.agents) == inst.agents and tuple(back[j] for j in other.items) == inst.items
    assert other.singleton_array.tolist() == inst.singleton_array.tolist()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases)
def test_relabeled_solve_maps_back_to_the_same_outputs(case):
    family, mode, (n, m), seed = case
    inst = random_instance(family, n, m, seed, mode)
    other, back = relabeled(inst)
    assert shown(*rename(solved(other), back)) == shown(*solved(inst))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=cases, data=st.data())
def test_permuted_agents_pass_every_certificate(case, data):
    family, mode, (n, m), seed = case
    inst = random_instance(family, n, m, seed, mode)
    order = data.draw(st.permutations(range(n)), label="order")
    permuted = Instance(
        agents=tuple(inst.agents[i] for i in order),
        weights=tuple(inst.weights[i] for i in order),
        items=inst.items,
        valuations=tuple(inst.valuations[i] for i in order),
    )
    exact, efx = n**m <= EXACT_CELLS, permuted.is_symmetric()
    run = _solve(permuted, EPS, exact=exact, efx=efx)
    checks = _checks(run)
    assert len(checks) == 4 + exact + 3 * efx
    assert all(ok is not False for _, ok in checks), checks

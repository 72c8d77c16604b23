"""Instance model: welfare objective, validation, completion, serialization."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from nswfair import (
    Additive,
    Allocation,
    AllocationError,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroidRank,
    UnknownItem,
    brute_force_opt,
    complete_with_leftovers,
    load_instance,
    nsw_log,
    save_instance,
    validate,
)
from nswfair.instance import (
    allocation_from_json,
    allocation_to_json,
    canonical_json,
    instance_from_json,
    instance_to_json,
)
from nswfair.generate import FAMILIES, WEIGHT_MODES, random_instance
from nswfair.valuations import Valuation

from conftest import make_instance


def test_nsw_log_matches_direct_product(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    got = nsw_log(e1, alloc)
    direct = math.sqrt(5 * 4)  # v1({a,d}) = 5, v2({b,c}) = 4, equal weights
    assert math.exp(got) == pytest.approx(direct, rel=1e-12)


def test_nsw_log_zero_bundle_is_minus_infinity(e1):
    alloc = Allocation.of({"1": ["a", "b", "c", "d"]})
    assert nsw_log(e1, alloc) == float("-inf")


def test_nsw_log_rejects_overlap(e1):
    with pytest.raises(AllocationError):
        nsw_log(e1, Allocation.of({"1": ["a"], "2": ["a"]}))


def test_nsw_log_rejects_unknown_ids(e1):
    with pytest.raises(AllocationError):
        nsw_log(e1, Allocation.of({"1": ["zz"]}))
    with pytest.raises(AllocationError):
        nsw_log(e1, Allocation.of({"nobody": ["a"]}))


def test_nsw_log_respects_weights():
    inst = make_instance(
        {"1": {"a": 4, "b": 2}, "2": {"a": 9, "b": 3}},
        weights=[(1, 4), (3, 4)],
    )
    alloc = Allocation.of({"1": ["a"], "2": ["b"]})
    assert nsw_log(inst, alloc) == pytest.approx(0.25 * math.log(4) + 0.75 * math.log(3), rel=1e-12)


def test_validate_catches_structural_problems():
    good = make_instance({"1": {"a": 1}, "2": {"a": 2}})
    assert validate(good) == []
    bad_weights = Instance(
        agents=("1", "2"),
        weights=(Fraction(1, 2), Fraction(1, 3)),
        items=("a",),
        valuations=(Additive({"a": 1}), Additive({"a": 1})),
    )
    assert any("sum" in problem for problem in validate(bad_weights))
    bad_domain = Instance(
        agents=("1",),
        weights=(Fraction(1),),
        items=("a", "b"),
        valuations=(Additive({"a": 1}),),
    )
    assert any("domain" in problem for problem in validate(bad_domain))
    v = Additive({"a": 1})
    for weights, valuations in (((Fraction(1),), (v, v)), ((Fraction(1, 2),) * 2, (v,))):
        misaligned = Instance(agents=("1", "2"), weights=weights, items=("a",), valuations=valuations)
        assert validate(misaligned) == ["weights and valuations must align with the agent list"]


def test_validate_bounds_every_shifted_value():
    # vbar(S) <= 2 * v(all items) must be finite: 8e307 passes, 1e308 does not,
    # and neither does a sum that overflows only when the items are added up.
    assert validate(make_instance({"1": {"a": 8e307}})) == []
    for values in ({"a": 1e308}, {"a": 1e308, "b": 1e308}):
        assert validate(make_instance({"1": values})) == [
            "values of agent '1' overflow: 2 * v(all items) is not finite"
        ]


class NanOnOneItem(Valuation):
    """A user valuation worth nan on one item alone, otherwise an additive valuation's value."""

    kind = "test_nan_item"

    def __init__(self, base, item):
        self.base, self.item = base, item

    @property
    def items(self):
        return self.base.items

    def value(self, bundle):
        bundle = frozenset(bundle)
        return math.nan if bundle == {self.item} else self.base.value(bundle)


def test_validate_reports_a_nan_singleton_value(monkeypatch):
    # A file cannot hold nan, but a user valuation can return it for one item: the search would
    # take its shift from it, so validate names it, and solve_nsw and the CLI refuse the instance.
    from nswfair import cli, solve_nsw

    base = make_instance({"1": {"a": 1, "b": 2, "c": 3}, "2": {"a": 1, "b": 1, "c": 1}})
    valuations = (base.valuations[0], NanOnOneItem(base.valuations[1], "b"))
    inst = Instance(base.agents, base.weights, base.items, valuations)
    assert validate(inst) == ["value of agent '2' for item 'b' is nan"]
    with pytest.raises(ValueError, match="for item 'b' is nan"):
        solve_nsw(inst, 0.1)
    monkeypatch.setattr(cli, "load_instance", lambda path: inst)
    assert cli.main(["solve", "instance.json"]) == 1
    assert validate(base) == []


def test_complete_with_leftovers_dumps_to_best_earliest(e1):
    alloc = Allocation.of({"1": ["a"], "2": ["b"]})
    done = complete_with_leftovers(e1, alloc)
    # c and d are worth 1 to both agents, so the earlier agent takes them.
    assert done.bundle("1") == frozenset({"a", "c", "d"})
    assert done.bundle("2") == frozenset({"b"})
    assert done.is_complete(e1)
    assert nsw_log(e1, done) >= nsw_log(e1, alloc)


def test_complete_with_leftovers_prefers_higher_value():
    inst = make_instance({"1": {"a": 1, "b": 0}, "2": {"a": 1, "b": 5}})
    done = complete_with_leftovers(inst, Allocation.of({"1": ["a"]}))
    assert done.bundle("2") == frozenset({"b"})


def test_instance_round_trip(tmp_path, e1):
    path = tmp_path / "inst.json"
    save_instance(e1, path)
    back = load_instance(path)
    assert back.agents == e1.agents
    assert back.weights == e1.weights
    assert back.items == e1.items
    for agent in e1.agents:
        for bundle in ([], ["a"], ["a", "b"], ["a", "b", "c", "d"]):
            assert back.valuation_of(agent).value(bundle) == e1.valuation_of(agent).value(bundle)
    # canonical serialization is stable byte for byte
    assert canonical_json(instance_to_json(back)) == canonical_json(instance_to_json(e1))


def _instance_digest(inst: Instance) -> str:
    return hashlib.sha256(canonical_json(instance_to_json(inst)).encode()).hexdigest()


# SHA-256 of canonical_json(instance_to_json(random_instance(family, 6, 40, 1, mode))), frozen
# before the coverage and matroid tables were keyed by element and class ids: an instance file
# holds names only, so it must not change with how a valuation stores them.
INSTANCE_GOLDEN = {
    ("additive", "symmetric"): "c116effcefedab85de5ca78d3018eaccddf9c5099f15c158784e934c9006985b",
    ("additive", "random_rational"): "32a7847d15234d15f71f2d2157eaf5f08b094e7659ba45a75e9cab62265d10d8",
    ("budget_additive", "symmetric"): "875d267bf7863622e130584fc2b76df3935de67dff8dd30582799b8773e1e837",
    ("budget_additive", "random_rational"): "f0243aaf9b209daf04990ead3935e9f2b780c854c8d4541a1c2572c85ffaba99",
    ("coverage", "symmetric"): "a5a40033dc2cfbd24b90807b5f70b7dcf1d42c13a04c8d255f7977625618c79f",
    ("coverage", "random_rational"): "7a5a3d63d8f122f71b6ce117a0b5e9dc64278dd438199906373252302dbbdf8c",
    ("partition_matroid_rank", "symmetric"): "f810269099bf421a8d94604d290a22418cef499eaddff0d4f82866f47346f7bb",
    ("partition_matroid_rank", "random_rational"): "a8ef466bbfb294bc45f004ee3c9b19ad0bb72783d3bbd88c1f21dec14122f1d1",
}


@pytest.mark.parametrize("family, mode", sorted(INSTANCE_GOLDEN))
def test_generated_instance_bytes_match_the_frozen_digest(family, mode):
    inst = random_instance(family, 6, 40, 1, mode)
    assert _instance_digest(inst) == INSTANCE_GOLDEN[family, mode]
    assert _instance_digest(instance_from_json(instance_to_json(inst))) == INSTANCE_GOLDEN[family, mode]


def test_hand_built_coverage_and_matroid_bytes_match_the_frozen_digest():
    # An empty cover, a repeated element, an element no item holds, an unused class, and element
    # and class names whose string order differs from the order they are listed in.
    items = ("g0", "g1", "g2", "g3", "g4")
    coverage = Coverage(
        {"g0": [], "g1": ["e10", "e2", "e10"], "g2": ["e2", "b"], "g3": ["z", "a", "e10"], "g4": ("b",)},
        {"z": 3, "e10": 1.5, "e2": 2, "a": 0, "b": 5, "unused": 7},
    )
    matroid = PartitionMatroidRank(
        {"g0": "k2", "g1": "k10", "g2": "k2", "g3": "k10", "g4": "a"},
        {"k2": 1, "k10": 2, "unused": 3, "a": 1},
        scale=2.5,
    )
    inst = Instance(("b", "a"), (Fraction(1, 3), Fraction(2, 3)), items, (coverage, matroid))
    golden = "423ac31e3e0c892461c4bde51fac6e6dffa7fe7e8bce4574edd6cc7cdf262c89"
    assert _instance_digest(inst) == golden
    back = instance_from_json(json.loads(canonical_json(instance_to_json(inst))))
    assert _instance_digest(back) == golden
    for v in (coverage, back.valuations[0]):
        assert [v.value(s) for s in ([], ["g0"], ["g1"], ["g1", "g2"], items)] == [0.0, 0.0, 3.5, 8.5, 11.5]
    for v in (matroid, back.valuations[1]):
        assert [v.value(s) for s in ([], ["g1"], ["g1", "g3"], ["g0", "g2"], items)] == [0.0, 2.5, 5.0, 2.5, 10.0]


def test_instance_format_version_enforced(e1):
    doc = instance_to_json(e1)
    doc["format_version"] = 99
    with pytest.raises(ValueError):
        instance_from_json(doc)


def test_allocation_round_trip(e1):
    alloc = Allocation.of({"1": ["a", "d"], "2": ["b", "c"]})
    doc = allocation_to_json(e1, alloc)
    assert json.loads(canonical_json(doc)) == doc
    assert allocation_from_json(doc) == alloc


def test_allocation_missing_agents_hold_empty(e1):
    alloc = Allocation.of({"1": ["a"]})
    assert alloc.bundle("2") == frozenset()
    assert alloc == Allocation.of({"1": ["a"], "2": []})


def test_equal_allocations_hash_alike():
    # An empty bundle listed or left out makes no difference to equality, so none to the hash.
    alloc, listed = Allocation.of({"1": ["a"]}), Allocation.of({"2": [], "1": ["a"]})
    assert hash(alloc) == hash(listed)
    assert len({alloc, listed}) == 1
    assert len({alloc, Allocation.of({"1": ["b"]}), Allocation.of({"2": ["a"]})}) == 3


def test_argmax_invariant_under_scaling():
    # Scaling one agent's valuation shifts every complete allocation's score
    # equally, so the brute-force argmax cannot move.
    base = make_instance(
        {"1": {"a": 4, "b": 1, "c": 2}, "2": {"a": 2, "b": 5, "c": 1}}
    )
    scaled = make_instance(
        {"1": {"a": 4, "b": 1, "c": 2}, "2": {"a": 6, "b": 15, "c": 3}}
    )
    assert brute_force_opt(base).argmax == brute_force_opt(scaled).argmax


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_singleton_table_equals_value_bit_for_bit(family, mode):
    # The table is read from bundle states; every cell is the float value([j]) gives.
    for n, m, seed in [(3, 9, 0), (12, 120, 11), (20, 200, 1)]:
        inst = random_instance(family, n, m, seed, mode)
        assert [[x.hex() for x in row] for row in inst.singleton_array] == [
            [v.value([j]).hex() for j in inst.items] for v in inst.valuations
        ]


def test_singleton_table_is_read_only():
    # Phase 1, the search, the recheck, the prices and the 1/2-EFX stage share the one table.
    inst = random_instance("coverage", 3, 9, 0)
    with pytest.raises(ValueError):
        inst.singleton_array[0, 0] = 1.0


@pytest.mark.parametrize(
    "v",
    [
        Additive({"a": 1, "b": 2}),
        BudgetAdditive({"a": 1, "b": 2}, 2),
        Coverage({"a": ["x"], "b": ["y"]}, {"x": 1, "y": 1}),
        PartitionMatroidRank({"a": "c", "b": "c"}, {"c": 1}),
        ExplicitTable(["a", "b"], [0, 1, 2, 3]),
    ],
    ids=lambda v: v.kind,
)
def test_singleton_table_rejects_an_item_outside_a_domain(v):
    # The 1/2-EFX stage reads the table of an instance it does not validate.
    inst = Instance(("x",), (Fraction(1),), ("a", "b", "z"), (v,))
    with pytest.raises(UnknownItem):
        inst.singleton_array

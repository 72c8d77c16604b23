"""Reference swap search: a full restart after every swap, on fresh value() calls.

``full_restart_search`` starts where the solver does, with J dealt greedily, or, with
``start="cold"``, where it used to: the first participant holds all of J. The greedy
deal here reads fresh ``value()`` calls, not bundle states. ``cold_start`` patches the
solver's start rule back to the cold start, so a test can run today's search from it.

``full_scan`` is the reference recheck: every triple of an allocation scored from fresh
``value()`` calls, saturated takers included. ``scan`` scores every triple of a gain
table, saturated takers included, where the solver's own passes skip them.
"""

import math
from contextlib import contextmanager, nullcontext

import pytest

from nswfair.instance import NEG_INF
from nswfair.search import SwapRecord, _Gains

STARTS = ("greedy", "cold")


def cold_deal(table):
    """The cold start: the first participant holds all of J."""
    for item in table.universe if table.abar else ():
        table.states[table.abar[0]].add(item)


@contextmanager
def cold_start():
    """Run the solver's search from the cold start: the one patch of its start rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Gains, "_deal", cold_deal)
        yield


def scan(table):
    """(giver, item, taker, log-gain) of every triple of ``table``, saturated takers included, in scan order."""
    for giver in table.abar:
        for item in table.row(giver):
            give = table.give(giver, item)
            for taker in (t for t in table.abar if t != giver):
                yield giver, item, taker, give + table.take(taker, item)


def search_start(start):
    """A context in which the solver's search starts as ``start``, one of :data:`STARTS`, names."""
    return cold_start() if start == "cold" else nullcontext()


def full_scan(inst, bundles, eps_bar):
    """(violations as (giver, taker, item) in scan order, triples scored, largest gain) of every
    triple of ``bundles``, each term from fresh value() calls, on the universe they hold."""
    held = {a: set(bundles.get(a, ())) for a in inst.agents}
    universe = inst.sort_items(set().union(*held.values()))
    shift = {a: max((v.value([j]) for j in universe), default=0.0) for a, v in zip(inst.agents, inst.valuations)}
    abar = [a for a in inst.agents if shift[a] > 0.0]
    w = {a: inst.weight_floats[inst.agent_index[a]] for a in abar}

    def log_vbar(a, bundle):
        return math.log(shift[a] + inst.valuation_of(a).value(bundle))

    threshold, violations, gains = math.log1p(eps_bar), [], []
    for g in abar:
        for j in inst.sort_items(held[g]):
            give = w[g] * (log_vbar(g, held[g] - {j}) - log_vbar(g, held[g]))
            for t in abar:
                if t != g:
                    gains.append(give + w[t] * (log_vbar(t, held[t] | {j}) - log_vbar(t, held[t])))
                    if gains[-1] > threshold:
                        violations.append((g, t, j))
    return tuple(violations), len(gains), max(gains, default=NEG_INF)


def full_restart_search(inst, universe, eps_bar, start="greedy"):
    """Reference search: restart the scan from the top after every swap, with
    logs of fresh value() calls memoised per bundle version."""
    universe = inst.sort_items(universe)
    abar = [a for a, v in zip(inst.agents, inst.valuations) if universe and v.value(universe) > 0.0]
    valuations = {a: inst.valuation_of(a) for a in abar}
    shift = {a: max(v.value([j]) for j in universe) for a, v in valuations.items()}
    w = {a: inst.weight_floats[inst.agent_index[a]] for a in abar}
    held = {a: set() for a in inst.agents}
    version, logs = dict.fromkeys(abar, 0), {}

    def log_vbar(a, plus=(), minus=()):
        key = (a, version[a], plus, minus)
        if key not in logs:
            logs[key] = math.log(shift[a] + valuations[a].value(held[a] - set(minus) | set(plus)))
        return logs[key]

    def take(t, j):
        return w[t] * (log_vbar(t, plus=(j,)) - log_vbar(t))

    for j in universe if abar else ():
        if start == "cold":
            taker = abar[0]
        else:
            terms = [take(a, j) for a in abar]
            taker = abar[terms.index(max(terms))]
        held[taker].add(j)
        version[taker] += 1

    def triples():
        for g in abar:
            for j in inst.sort_items(held[g]):
                give = w[g] * (log_vbar(g, minus=(j,)) - log_vbar(g))
                for t in abar:
                    if t != g:
                        yield g, j, t, give + take(t, j)

    threshold, trace = math.log1p(eps_bar), []
    while (hit := next((triple for triple in triples() if triple[3] > threshold), None)) is not None:
        g, j, t, gain = hit
        held[g].remove(j)
        held[t].add(j)
        version[g] += 1
        version[t] += 1
        trace.append(SwapRecord(len(trace) + 1, g, j, t, gain))
    gains = [triple[3] for triple in triples()]
    bundles = {a: frozenset(b) for a, b in held.items()}
    return tuple(trace), bundles, (len(gains), max(gains, default=NEG_INF))

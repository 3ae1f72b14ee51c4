"""A rejected update leaves engine state and ledger untouched.

Every method rejects a duplicate insert id, an unknown delete id and, where
its input domain is restricted, one out-of-domain insert.  After each
rejection the ledger records, live intervals, colors and the set of colors
ever used are unchanged, and a valid insert of the same id goes through.
"""

from __future__ import annotations

import pytest

from cfcolor.core import EngineError, Interval
from cfcolor.methods import METHOD_NAMES, build_engine

SPECS = {
    "fixed-distinct": "fixed-distinct:U=64",
    "fixed-chain": "fixed-chain:U=64",
    "dynamic": "dynamic:t=2",
    "eps": "eps:eps=0.5",
    "grid": "grid:L=4",
    "greedy-nested": "greedy-nested",
    "trivial": "trivial",
    "unique": "unique",
}

# an insert outside the method's domain; the others accept any interval
OUT_OF_DOMAIN = {
    "fixed-distinct": Interval(7, 0, 64),  # right endpoint outside the universe
    "fixed-chain": Interval(7, 0.5, 3),  # not a universe point
    "grid": Interval(7, 0, 10),  # length not below L
    "greedy-nested": Interval(7, 2, 6),  # partially overlaps [0, 3]
}

# pairwise nested or disjoint, integral, lengths in [1, 4)
SETUP = [Interval(0, 0, 3), Interval(1, 1, 2), Interval(2, 5, 7)]


def snapshot(state):
    return (
        [(r.seq, r.recolors, r.rebuild_recolors) for r in state.ledger.records],
        dict(state.intervals),
        dict(state.assignment),
        set(state.seen),
    )


def test_every_method_is_covered():
    assert set(SPECS) == set(METHOD_NAMES)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_rejection_leaves_state_untouched(method):
    engine = build_engine(SPECS[method])
    for iv in SETUP:
        engine.insert(iv)
    applied = len(SETUP)
    rejected = [
        (lambda: engine.insert(Interval(1, 10, 12)), Interval(8, 30, 32)),
        (lambda: engine.delete(99), Interval(99, 20, 22)),
    ]
    if method in OUT_OF_DOMAIN:
        rejected.append((lambda: engine.insert(OUT_OF_DOMAIN[method]), Interval(7, 40, 42)))
    for bad, retry in rejected:
        before = snapshot(engine.state)
        with pytest.raises(EngineError):
            bad()
        assert snapshot(engine.state) == before
        engine.insert(retry)
        applied += 1
        assert retry.id in engine.state.intervals
    assert len(engine.state.ledger.records) == applied
    assert engine.state.verdict()
    if hasattr(engine, "audit"):
        engine.audit()

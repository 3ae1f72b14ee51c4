"""Stateful lockstep fuzzing: one op stream drives every engine.

A hypothesis state machine feeds the same inserts, deletes and rejected
ops to the dynamic, epsilon, fixed-universe, grid and baseline engines;
`greedy-nested` is left out, as it needs a laminar op stream.  Intervals
are integral with lengths in [1, 8) inside [0, U-1], so every engine
accepts every insert.  After each step every engine must pass its own
audit (where it has one) and both oracles, keep its color bound and
recoloring cap, and a rejected op must leave its ledger and coloring as
they were.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cfcolor.core import EngineError, Interval, is_conflict_free, is_conflict_free_fast
from cfcolor.methods import build_engine

U = 64
L = 8
SPECS = (
    "dynamic:t=2",
    "dynamic:t=3",
    "eps:eps=0.5",
    f"fixed-chain:U={U}",
    f"fixed-distinct:U={U}",
    f"grid:L={L},inner=dynamic",
    f"grid:L={L},inner=trivial",
    "trivial",
    "unique",
)
# most recolorings one update may cost
RECOLOR_CAP = {f"fixed-chain:U={U}": 4 * 2, f"fixed-distinct:U={U}": 2}


class Lockstep(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.engines = {spec: build_engine(spec) for spec in SPECS}
        self.live: list[int] = []
        self.next_id = 0

    @rule(left=st.integers(0, U - 2), length=st.integers(1, L - 1))
    def insert(self, left: int, length: int) -> None:
        iv = Interval(self.next_id, left, min(left + length, U - 1))
        self.next_id += 1
        for eng in self.engines.values():
            eng.insert(iv)
        self.live.append(iv.id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def delete(self, data) -> None:
        iid = data.draw(st.sampled_from(self.live))
        for eng in self.engines.values():
            eng.delete(iid)
        self.live.remove(iid)

    @rule(data=st.data())
    def rejected(self, data) -> None:
        # a duplicate insert of a live id, or a delete of a dead or unused id
        dead = st.integers(0, self.next_id + 3).filter(lambda i: i not in self.live)
        choices = [dead.map(lambda i: ("D", i))]
        if self.live:
            choices.append(st.sampled_from(self.live).map(lambda i: ("I", i)))
        kind, iid = data.draw(st.one_of(choices))
        for spec, eng in self.engines.items():
            state = eng.state
            records, colors = len(state.ledger.records), dict(state.assignment)
            with pytest.raises(EngineError):
                if kind == "I":
                    eng.insert(Interval(iid, 0, 1))
                else:
                    eng.delete(iid)
            assert len(state.ledger.records) == records, spec
            assert state.assignment == colors, spec

    @invariant()
    def engines_agree_and_hold(self) -> None:
        for spec, eng in self.engines.items():
            state = eng.state
            assert sorted(state.intervals) == sorted(self.live), spec
            # the grid's inner engines too; the baseline engines have no audit
            for audited in (eng, *getattr(eng, "_inner", ())):
                if hasattr(audited, "audit"):
                    audited.audit()
            ivs = list(state.intervals.values())
            assert is_conflict_free(ivs, state.assignment).ok, spec
            assert is_conflict_free_fast(ivs, state.assignment).ok, spec
            if hasattr(eng, "max_colors"):
                assert len(state.colors_in_use()) <= eng.max_colors(), spec
            if spec in RECOLOR_CAP:
                assert state.ledger.max_per_update() <= RECOLOR_CAP[spec], spec


Lockstep.TestCase.settings = settings(max_examples=25, stateful_step_count=50, deadline=None)
TestLockstep = Lockstep.TestCase

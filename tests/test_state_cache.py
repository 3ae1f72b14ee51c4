"""The fast oracle's audit cache in ColoringState, against the object paths.

is_conflict_free_fast reads a state's audit cache when it is handed the
state's own intervals view and assignment.  A seeded op stream drives a
ColoringState directly; after each stretch of adds (fresh ids, or removed
ids reused with new endpoints), removes and set_color calls, three oracles
must agree: the cache path, the same call on a list of the live intervals
(arrays built from the objects) and the sweep is_conflict_free.  They agree
on ok, witness and gap, or raise the same ValueError when a live interval
has no color.  After each audit the cache must hold exactly the live rows:
the non-dummy ones as rows, the dummy ones as runs of their ends, each
distinct value with the number of dummy rows that end there.  One stream
draws halves from [-3, 9), another integers from a universe of 16, where
dummy ends repeat heavily and their counts fall to 0 and come back.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cfcolor.core import (
    DUMMY,
    Color,
    ColoringState,
    Interval,
    _MARK_FLOOR,
    _MARK_SHARE,
    is_conflict_free,
    is_conflict_free_fast,
    replay,
)
from cfcolor.methods import build_engine

from helpers import random_ops

# two dummy colors: any negative level wears the dummy
SECOND_DUMMY = Color(-2, 3)
PALETTE = [DUMMY, SECOND_DUMMY, Color(0, 0), Color(0, 1), Color(1, 0), Color(1, 1)]


def outcomes(state):
    """(ok, witness, gap) or the ValueError text, per oracle."""
    out = []
    for oracle, ivs in (
        (is_conflict_free_fast, state.intervals.values()),
        (is_conflict_free_fast, list(state.intervals.values())),
        (is_conflict_free, list(state.intervals.values())),
    ):
        try:
            v = oracle(ivs, state.assignment)
        except ValueError as exc:
            out.append(str(exc))
        else:
            out.append((v.ok, v.witness, v.gap))
    return out


def check_cache(state):
    """The cache, just audited, holds exactly the live rows."""
    live = [(iv, state.color_of(iid)) for iid, iv in state.intervals.items()]
    rows = sorted(zip(*(c.tolist() for c in state._cols)))
    assert rows == sorted(
        (iv.id, iv.left, iv.right, c.level, c.index) for iv, c in live if c.level >= 0
    )
    dummy = [iv for iv, c in live if c.level < 0]
    for (values, counts), end in zip(runs(state), ("left", "right")):
        kept = counts > 0  # a zero count, if kept, stands for no value
        want = np.unique(np.array([getattr(iv, end) for iv in dummy], dtype=float),
                         return_counts=True)
        assert np.array_equal(values[kept], want[0]), end
        assert np.array_equal(counts[kept], want[1]), end
        assert (values[1:] > values[:-1]).all(), end


def runs(state):
    """The cached runs of the dummy lefts and of the dummy rights."""
    return state._ends[:2], state._ends[2:]


def _interval(rng, iid):
    # halves in [-3, 9): ends are often shared, and 0 is also written -0.0
    a, b = (x / 2.0 for x in sorted(rng.sample(range(-6, 18), 2)))
    if rng.random() < 0.5:
        a, b = (-0.0 if x == 0 else x for x in (a, b))
    return Interval(iid, a, b)


def _small_int_interval(rng, iid):
    # a fixed universe {0, ..., 15}: at most 16 distinct values per end
    return Interval(iid, *sorted(rng.sample(range(16), 2)))


def _count_audit(state, last: dict, seen: Counter, patched: bool) -> None:
    """Tally the cases the audit met, against the rows and the runs at the
    last audit; last["dropped"] keeps, per end, the values whose count fell
    to 0 at some audit.  A count that falls to 0, or a value that comes
    back, is tallied when the audit patched the runs."""
    now = {iid: (iv, state.color_of(iid)) for iid, iv in state.intervals.items()}
    for iid, (iv, color) in now.items():
        if iid in last.get("rows", ()):
            old_iv, old_color = last["rows"][iid]
            if old_color.is_dummy() != color.is_dummy():
                seen["flip"] += 1
            elif color.is_dummy() and (old_iv.left, old_iv.right) != (iv.left, iv.right):
                seen["dummy re-added"] += 1
    if any(c == SECOND_DUMMY for _, c in now.values()):
        seen["second dummy"] += 1
    dummy = [iv for iv, c in now.values() if c.is_dummy()]
    values = []
    for side, ((vals, counts), end) in enumerate(zip(runs(state), ("left", "right"))):
        if (counts > 1).any():
            seen["shared dummy ends"] += 1
        zero = [x for x in (getattr(iv, end) for iv in dummy) if x == 0]
        if len({math.copysign(1, x) for x in zero}) == 2:
            seen["dummy -0.0 and 0.0"] += 1
        present = set(vals[counts > 0].tolist())
        dropped = last.setdefault("dropped", (set(), set()))[side]
        if patched and last.get("values") and last["values"][side] - present:
            seen["dummy count reaches 0"] += 1
        if patched and present & dropped:
            seen["dummy value comes back"] += 1
        if last.get("values"):
            dropped |= last["values"][side] - present
        values.append(present)
    last["rows"] = now
    last["values"] = values


def _lockstep(seed: int, audits: int, seen: Counter, interval=_interval) -> None:
    rng = random.Random(seed)
    state = ColoringState()
    dead: list[int] = []
    last: dict = {}  # the rows and the runs at the last audit
    next_id = 0
    for _ in range(audits):
        # mostly short stretches (the patch path), sometimes long enough
        # that the marked ids outgrow the threshold (the rebuild path)
        for _ in range(rng.choice((1, 3, 8, 20, 150))):
            live = list(state.intervals)
            roll = rng.random()
            if roll < 0.35 or not live:
                if dead and rng.random() < 0.4:
                    iid = dead.pop(rng.randrange(len(dead)))
                    seen["reuse"] += 1
                else:
                    iid, next_id = next_id, next_id + 1
                state.add(interval(rng, iid))
                if rng.random() < 0.95:
                    state.set_color(iid, rng.choice(PALETTE))
            elif roll < 0.45:
                # the same id again, with new ends and mostly a dummy color
                iid = rng.choice(live)
                state.remove(iid)
                state.add(interval(rng, iid))
                state.set_color(iid, rng.choice(PALETTE[:2] * 2 + PALETTE))
            elif roll < 0.7:
                iid = rng.choice(live)
                state.remove(iid)
                dead.append(iid)
            elif roll < 0.98:
                state.set_color(rng.choice(live), rng.choice(PALETTE))
            elif roll < 0.99:
                for iid in live:
                    state.set_color(iid, DUMMY)
            else:
                for iid in live:
                    state.remove(iid)
                dead += live
        marked = state._marked
        patched = False
        if state._cols is None:
            seen["build"] += 1
        elif len(marked) == marked.maxlen:
            seen["rebuild"] += 1
        elif marked:
            seen["patch"] += 1
            patched = True
        seen["audits"] += 1
        fast, listed, sweep = outcomes(state)
        assert fast == listed == sweep, (seed, seen["audits"])
        assert type(fast[1]) is type(listed[1]), (seed, seen["audits"])
        if isinstance(sweep, str):
            seen["uncolored"] += 1
            # the failed audit left the marks; color the stragglers
            for iid in state.intervals:
                if state.color_of(iid) is None:
                    state.set_color(iid, rng.choice(PALETTE))
            fast, listed, sweep = outcomes(state)
            assert fast == listed == sweep, (seed, seen["audits"])
            assert type(fast[1]) is type(listed[1]), (seed, seen["audits"])
        check_cache(state)
        _count_audit(state, last, seen, patched)
        if not state.intervals:
            seen["empty"] += 1
        elif all(c.is_dummy() for c in state.assignment.values()):
            seen["all dummy"] += 1
        elif not sweep[0]:
            seen["conflict"] += 1


def test_cache_list_and_sweep_oracles_agree():
    seen = Counter()
    for seed in range(6):
        _lockstep(seed, 300, seen)
    floors = {"patch": 500, "rebuild": 30, "reuse": 300, "uncolored": 30,
              "empty": 5, "all dummy": 5, "conflict": 300, "flip": 700,
              "dummy re-added": 90, "second dummy": 600,
              "shared dummy ends": 700, "dummy -0.0 and 0.0": 40}
    assert all(seen[k] >= v for k, v in floors.items()), seen


def test_integer_universe_runs_agree():
    seen = Counter()
    for seed in range(4):
        _lockstep(100 + seed, 300, seen, _small_int_interval)
    floors = {"patch": 700, "rebuild": 150, "conflict": 600, "flip": 800,
              "dummy re-added": 70, "shared dummy ends": 800,
              "dummy count reaches 0": 600, "dummy value comes back": 1100}
    assert all(seen[k] >= v for k, v in floors.items()), seen


def test_writes_that_bypass_set_color_raise():
    state = ColoringState()
    for iid, (a, b) in enumerate(((0, 4), (2, 6), (8, 9))):
        state.add(Interval(iid, a, b))
        state.set_color(iid, Color(0, iid))
    assert is_conflict_free_fast(state.intervals.values(), state.assignment).ok
    # the recolor would put one color on both of the overlapping 0 and 1
    with pytest.raises(TypeError):
        state.assignment[1] = Color(0, 0)
    with pytest.raises(TypeError):
        state.intervals[2] = Interval(2, 3, 5)
    with pytest.raises(TypeError):
        del state.intervals[2]
    assert state.color_of(1) == Color(0, 1)
    assert outcomes(state) == [(True, None, None)] * 3
    state.set_color(1, Color(0, 0))
    assert outcomes(state) == [(False, 2, None)] * 3


def test_marked_ids_stay_under_the_rebuild_threshold():
    rng = random.Random(11)
    state = ColoringState()
    n = 400
    for iid in range(n):
        state.add(_interval(rng, iid))
        state.set_color(iid, rng.choice(PALETTE))
    is_conflict_free_fast(state.intervals.values(), state.assignment)
    limit = n // _MARK_SHARE + _MARK_FLOOR
    assert not state._marked and state._marked.maxlen == limit
    for iid in range(n, 11 * n):
        gone = rng.choice(list(state.intervals))
        state.remove(gone)
        state.add(_interval(rng, iid))
        state.set_color(iid, rng.choice(PALETTE))
        state.set_color(rng.choice(list(state.intervals)), rng.choice(PALETTE))
        assert len(state._marked) <= limit
    # the queue filled, so the next audit rebuilds the columns
    assert len(state._marked) == limit
    fast, listed, sweep = outcomes(state)
    assert fast == listed == sweep
    assert not state._marked


def test_only_the_audited_state_builds_a_cache():
    eng = build_engine("grid:L=8,inner=dynamic")
    ops = random_ops(random.Random(3), 300, universe=64, p_delete=0.3, max_len=6)
    assert replay(eng, ops, audit="every").ok
    assert eng.state._cols is not None
    assert all(inner.state._cols is None for inner in eng._inner)


def test_an_id_beyond_int64_takes_the_sweep():
    state = ColoringState()
    for iid, (a, b) in ((2**70, (0, 4)), (-5, (2, 6))):
        state.add(Interval(iid, a, b))
        state.set_color(iid, Color(0, 0))
    # both fast paths meet the id in their id array and hand the call to
    # the sweep, which keeps the integer witness; the cache is dropped
    assert outcomes(state) == [(False, 2, None)] * 3
    assert type(is_conflict_free_fast(list(state.intervals.values()), state.assignment).witness) is int
    assert state._cols is None
    state.remove(2**70)
    assert outcomes(state) == [(True, None, None)] * 3
    assert state._cols is not None
    check_cache(state)


def test_a_dummy_id_beyond_int64_needs_no_row():
    # a dummy row is kept as its ends only, so no path converts its id:
    # the cache and the list agree, witness type included, and a patch
    # that meets the id keeps the cache
    state = ColoringState()
    for iid, (a, b) in ((2**70, (0, 4)), (1, (2, 6))):
        state.add(Interval(iid, a, b))
        state.set_color(iid, DUMMY)
    for _ in range(2):
        fast, listed, sweep = outcomes(state)
        assert fast == listed == sweep == (False, 0, None)
        assert type(fast[1]) is type(listed[1])
        assert state._cols is not None
        check_cache(state)
        state.set_color(2**70, Color(0, 1))
        state.set_color(2**70, DUMMY)


def test_a_view_outliving_its_state_is_read_as_a_sequence():
    values = ColoringState().intervals.values()
    assert is_conflict_free_fast(values, {}).ok


def test_endpoints_beyond_float_precision_take_the_sweep():
    state = ColoringState()
    state.add(Interval(0, 0, 2**53))
    state.set_color(0, Color(0, 0))
    assert outcomes(state) == [(True, None, None)] * 3
    # the patch meets 2**53 + 1, which rounds onto 2**53: no cache, the sweep
    state.add(Interval(1, 2**53 + 1, 2**54))
    state.set_color(1, Color(0, 0))
    assert outcomes(state) == [(True, None, None)] * 3
    assert state._cols is None
    # a build meets it too; the sweep keeps the integer witness
    state.add(Interval(2, 2**54, 2**55))
    state.set_color(2, Color(0, 0))
    assert outcomes(state) == [(False, 2**54, None)] * 3
    assert type(is_conflict_free_fast(state.intervals.values(), state.assignment).witness) is int
    assert state._cols is None
    state.remove(1)
    state.remove(2)
    assert outcomes(state) == [(True, None, None)] * 3
    assert state._cols is not None
    check_cache(state)


def test_fraction_ends_that_round_together_stay_apart():
    # float64 rounds both 1/3 and 1/3 + 10**-30 onto 0.333...: the two
    # intervals would meet there and share a color
    third = Fraction(1, 3)
    ivs = [Interval(0, 0, third), Interval(1, third + Fraction(1, 10**30), 1)]
    assignment = {0: Color(0, 0), 1: Color(0, 0)}
    assert is_conflict_free(ivs, assignment).ok
    assert is_conflict_free_fast(ivs, assignment).ok
    state = ColoringState()
    for iv in ivs:
        state.add(iv)
        state.set_color(iv.id, assignment[iv.id])
    assert outcomes(state) == [(True, None, None)] * 3
    assert state._cols is None


def test_a_fraction_end_keeps_the_state_on_the_sweep():
    rng = random.Random(7)
    state = ColoringState()
    is_conflict_free_fast(state.intervals.values(), state.assignment)
    assert state._cols is not None
    # the inexact end drops the cache; no audit builds it while it is live
    state.add(Interval(-1, Fraction(1, 3), 5))
    state.set_color(-1, DUMMY)
    assert state._cols is None
    next_id = 0
    for _ in range(20):
        for _ in range(rng.choice((1, 5, 30))):
            live = [i for i in state.intervals if i != -1]
            if live and rng.random() < 0.3:
                state.remove(rng.choice(live))
            elif live and rng.random() < 0.3:
                state.set_color(rng.choice(live), rng.choice(PALETTE))
            else:
                state.add(_interval(rng, next_id))
                state.set_color(next_id, rng.choice(PALETTE))
                next_id += 1
        # a dyadic Fraction is a float64 and keeps no state on the sweep
        state.add(Interval(next_id, Fraction(1, 2), 2))
        state.set_color(next_id, rng.choice(PALETTE))
        next_id += 1
        fast, listed, sweep = outcomes(state)
        assert fast == listed == sweep
        assert state._cols is None
    state.remove(-1)
    assert outcomes(state)[0] == outcomes(state)[2]
    assert state._cols is not None
    check_cache(state)


def test_own_view_with_a_foreign_assignment_takes_the_list_path():
    rng = random.Random(3)
    state = ColoringState()
    for iid in range(40):
        state.add(_interval(rng, iid))
        state.set_color(iid, rng.choice(PALETTE))
    # a color of its own for each interval is conflict-free; random ones are not
    foreigns = [{iid: Color(0, iid) for iid in state.intervals}]
    foreigns += [{iid: rng.choice(PALETTE) for iid in state.intervals} for _ in range(5)]
    for foreign in foreigns:
        fast = is_conflict_free_fast(state.intervals.values(), foreign)
        assert fast == is_conflict_free(list(state.intervals.values()), foreign)
        assert fast.ok == (foreign is foreigns[0])
        # no cache was built from the state's own assignment
        assert state._cols is None

"""The fast oracle's audit cache in ColoringState, against the object paths.

is_conflict_free_fast reads a state's audit cache when it is handed the
state's own intervals view and assignment.  A seeded op stream drives a
ColoringState directly; after each stretch of adds (fresh ids, or removed
ids reused with new endpoints), removes and set_color calls, three oracles
must agree: the cache path, the same call on a list of the live intervals
(arrays built from the objects) and the sweep is_conflict_free.  They agree
on ok, witness and gap, or raise the same ValueError when a live interval
has no color.  After each audit the cache must hold exactly the live rows:
the non-dummy ones as rows, the dummy ones as their sorted ends.
"""

from __future__ import annotations

import random
from collections import Counter

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
    lefts, rights = state._ends
    assert np.array_equal(lefts, np.sort(np.array([iv.left for iv in dummy], dtype=float)))
    assert np.array_equal(rights, np.sort(np.array([iv.right for iv in dummy], dtype=float)))


def _interval(rng, iid):
    # halves in [-3, 9): ends are often shared, and 0 is also written -0.0
    a, b = (x / 2.0 for x in sorted(rng.sample(range(-6, 18), 2)))
    if rng.random() < 0.5:
        a, b = (-0.0 if x == 0 else x for x in (a, b))
    return Interval(iid, a, b)


def _count_audit(state, last: dict, seen: Counter) -> None:
    """Tally the cases the audit met, against the rows at the last one."""
    now = {iid: (iv, state.color_of(iid)) for iid, iv in state.intervals.items()}
    for iid, (iv, color) in now.items():
        if iid in last:
            old_iv, old_color = last[iid]
            if old_color.is_dummy() != color.is_dummy():
                seen["flip"] += 1
            elif color.is_dummy() and (old_iv.left, old_iv.right) != (iv.left, iv.right):
                seen["dummy re-added"] += 1
    if any(c == SECOND_DUMMY for _, c in now.values()):
        seen["second dummy"] += 1
    lefts, rights = state._ends
    for ends in (lefts, rights):
        if ends.size > 1 and (ends[1:] == ends[:-1]).any():
            seen["shared dummy ends"] += 1
        zero = ends[ends == 0]
        if np.signbit(zero).any() and not np.signbit(zero).all():
            seen["dummy -0.0 and 0.0"] += 1
    last.clear()
    last.update(now)


def _lockstep(seed: int, audits: int, seen: Counter) -> None:
    rng = random.Random(seed)
    state = ColoringState()
    dead: list[int] = []
    last: dict = {}  # id -> (interval, color) at the last audit
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
                state.add(_interval(rng, iid))
                if rng.random() < 0.95:
                    state.set_color(iid, rng.choice(PALETTE))
            elif roll < 0.45:
                # the same id again, with new ends and mostly a dummy color
                iid = rng.choice(live)
                state.remove(iid)
                state.add(_interval(rng, iid))
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
        if state._cols is None:
            seen["build"] += 1
        elif len(marked) == marked.maxlen:
            seen["rebuild"] += 1
        elif marked:
            seen["patch"] += 1
        seen["audits"] += 1
        fast, listed, sweep = outcomes(state)
        assert fast == listed == sweep, (seed, seen["audits"])
        if isinstance(sweep, str):
            seen["uncolored"] += 1
            # the failed audit left the marks; color the stragglers
            for iid in state.intervals:
                if state.color_of(iid) is None:
                    state.set_color(iid, rng.choice(PALETTE))
            fast, listed, sweep = outcomes(state)
            assert fast == listed == sweep, (seed, seen["audits"])
        check_cache(state)
        _count_audit(state, last, seen)
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

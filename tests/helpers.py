"""Independent checkers and generators used as test oracles.

Nothing here may import engine internals; the point is to cross-check the
library against straightforward reimplementations.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

from cfcolor.core import DUMMY, Color, Delete, Insert, Interval, UpdateRecord
from cfcolor.kinetic import Event


def naive_conflict_free(intervals, assignment, rng: random.Random | None = None,
                        extra_points: int = 64):
    """Dense-point-sampling conflict-freeness check.

    Samples every endpoint, midpoints of consecutive endpoints, points just
    outside the bounding range, plus uniform random points, and verifies by
    direct stabbing-set scan that each covered sample sees some non-dummy
    color exactly once.  Returns (ok, witness).
    """
    ivs = list(intervals)
    if not ivs:
        return True, None
    xs = sorted({iv.left for iv in ivs} | {iv.right for iv in ivs})
    points = list(xs)
    points.append(xs[0] - 1.0)
    points.append(xs[-1] + 1.0)
    for a, b in zip(xs, xs[1:]):
        points.append((a + b) / 2.0)
    if rng is not None:
        lo, hi = xs[0] - 1.0, xs[-1] + 1.0
        points.extend(rng.uniform(lo, hi) for _ in range(extra_points))
    for q in points:
        stab = [iv for iv in ivs if iv.left <= q <= iv.right]
        if not stab:
            continue
        counts: dict[Color, int] = {}
        for iv in stab:
            c = assignment[iv.id]
            counts[c] = counts.get(c, 0) + 1
        if not any(k == 1 and not c.is_dummy() for c, k in counts.items()):
            return False, q
    return True, None


def all_stabbing_sets(intervals):
    """Every distinct stabbing set, found by brute force over a fine grid.

    Enumerates endpoint values and midpoints; on a line arrangement these
    exhaust the cells, so the result is the complete family of stabbing sets.
    """
    ivs = list(intervals)
    if not ivs:
        return {frozenset()}
    xs = sorted({iv.left for iv in ivs} | {iv.right for iv in ivs})
    samples = [xs[0] - 1.0, xs[-1] + 1.0] + xs + [
        (a + b) / 2.0 for a, b in zip(xs, xs[1:])
    ]
    out = set()
    for q in samples:
        out.add(frozenset(iv.id for iv in ivs if iv.left <= q <= iv.right))
    return out


def random_instance(rng: random.Random, n: int, span: int = 40,
                    colors: int = 4, allow_dummy: bool = True, levels: int = 1):
    """Random intervals with a random coloring; endpoints on a half-int grid.

    The `colors` palette colors are spread round-robin over `levels` levels;
    colors=0 with allow_dummy gives an all-dummy instance.
    """
    ivs = []
    assignment = {}
    for i in range(n):
        a, b = sorted(rng.sample(range(2 * span), 2))
        ivs.append(Interval(i, a / 2.0, b / 2.0))
        roll = rng.randrange(colors + (1 if allow_dummy else 0))
        assignment[i] = DUMMY if roll == colors else Color(roll % levels, roll // levels)
    return ivs, assignment


def random_ops(rng: random.Random, count: int, universe: int = 64,
               p_delete: float = 0.45, min_len: int = 1, max_len: int | None = None):
    """A random list of core.Insert / core.Delete ops on an integer universe."""
    live: list[int] = []
    next_id = 0
    ops = []
    for _ in range(count):
        if live and rng.random() < p_delete:
            idx = rng.randrange(len(live))
            iid = live[idx]
            live[idx] = live[-1]
            live.pop()
            ops.append(Delete(iid))
        else:
            lo = rng.randrange(universe - min_len)
            span_cap = universe - 1 - lo
            if max_len is not None:
                span_cap = min(span_cap, max_len)
            hi = lo + rng.randint(min_len, max(min_len, span_cap))
            ops.append(Insert(Interval(next_id, lo, hi)))
            live.append(next_id)
            next_id += 1
    return ops


def _cross_time(c0, cv, d0, dv):
    if cv == dv:
        return None
    return (d0 - c0) / (cv - dv)


def _rl_kind(rgt, lft):
    # gap derivative left(lft) - right(rgt); never 0 where they cross
    return "RL-meet" if lft.va < rgt.vb else "RL-separate"


def compute_events_loop(trajectories, t0, until) -> list[Event]:
    """Reference for kinetic.compute_events: the same events, next_times
    included, from a plain loop over the trajectory pairs.

    Each event's next_time also counts the crossings that are no events:
    those beyond the horizon and each trajectory's own left/right
    inversion, since rounding can put one inside the horizon.
    """
    found = []
    beyond = None  # the least pair crossing after the horizon
    for x, y in itertools.combinations(trajectories, 2):
        lo, hi = (x.id, y.id) if x.id < y.id else (y.id, x.id)
        for t, kind, i1, i2 in (
            (_cross_time(x.b0, x.vb, y.b0, y.vb), "RR", lo, hi),
            (_cross_time(x.a0, x.va, y.a0, y.va), "LL", lo, hi),
            (_cross_time(x.b0, x.vb, y.a0, y.va), _rl_kind(x, y), x.id, y.id),
            (_cross_time(y.b0, y.vb, x.a0, x.va), _rl_kind(y, x), y.id, x.id),
        ):
            if t is not None and t > t0:
                if t <= until:
                    found.append((t, lo, hi, kind, i1, i2))
                elif beyond is None or t < beyond:
                    beyond = t
    # ties in (time, pair, kind) can only come from rounding; they break by
    # id1, so the order does not depend on the order of the trajectories
    found.sort()
    inversions = []  # each trajectory's own left/right crossing after t0
    for tr in trajectories:
        t = _cross_time(tr.a0, tr.va, tr.b0, tr.vb)
        if t is not None and t > t0:
            inversions.append(t)
    inversions.sort()
    out = []
    nxt, prev = None, beyond  # nxt: the first pair crossing after the current event
    for t, _, _, kind, i1, i2 in reversed(found):
        if t != prev:
            nxt, prev = prev, t
        j = bisect_right(inversions, t)
        if j < len(inversions) and (nxt is None or inversions[j] < nxt):
            out.append(Event(t, kind, i1, i2, inversions[j]))
        else:
            out.append(Event(t, kind, i1, i2, nxt))
    out.reverse()
    return out


class ListLedger:
    """RecolorLedger as one live UpdateRecord per update, every query a scan.

    Notes made before the first begin() go to an implicit record 0.
    """

    def __init__(self):
        self.records: list[UpdateRecord] = []

    def begin(self) -> None:
        self.records.append(UpdateRecord(len(self.records)))

    def note(self, rebuild: bool = False) -> None:
        if not self.records:
            self.begin()
        rec = self.records[-1]
        if rebuild:
            rec.rebuild_recolors += 1
        else:
            rec.recolors += 1

    def total(self, include_rebuild: bool = True) -> int:
        return sum(r.count(include_rebuild) for r in self.records)

    def max_per_update(self, include_rebuild: bool = True) -> int:
        return max((r.count(include_rebuild) for r in self.records), default=0)

    def amortized(self, include_rebuild: bool = True) -> float:
        if not self.records:
            return 0.0
        return self.total(include_rebuild) / len(self.records)

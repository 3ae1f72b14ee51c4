"""Independent checkers and generators used as test oracles.

Nothing here may import engine internals; the point is to cross-check the
library against straightforward reimplementations.
"""

from __future__ import annotations

import random

from cfcolor.core import DUMMY, Color, Interval


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
    """A random insert/delete op sequence; yields ('I', Interval) / ('D', id)."""
    live: list[int] = []
    next_id = 0
    ops = []
    for _ in range(count):
        if live and rng.random() < p_delete:
            idx = rng.randrange(len(live))
            iid = live[idx]
            live[idx] = live[-1]
            live.pop()
            ops.append(("D", iid))
        else:
            lo = rng.randrange(universe - min_len)
            span_cap = universe - 1 - lo
            if max_len is not None:
                span_cap = min(span_cap, max_len)
            hi = lo + rng.randint(min_len, max(min_len, span_cap))
            ops.append(("I", Interval(next_id, lo, hi)))
            live.append(next_id)
            next_id += 1
    return ops

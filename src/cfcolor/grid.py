"""Bounded-length reduction: intervals with lengths in [1, L).

Each interval registers at the leftmost integer it contains; integers are
grouped into blocks of L consecutive points, and intervals registered in
blocks of equal parity can never intersect, so two inner engines (one per
parity) suffice.  Per registration point only two intervals are extreme:
the one sticking out furthest left and, among the remaining ones, the one
sticking out furthest right.  Extremes live in the parity's inner engine;
everything else is dummy.  Inner colors are translated to disjoint outer
levels (2 * inner_level + parity), so with the trivial first-fit inner
engine the whole scheme spends at most 4L+1 colors and one recoloring per
update.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import DUMMY, Color, ColoringState, EngineError, Interval, InvariantError

__all__ = ["GridEngine"]


class GridEngine:
    """Length-bounded engine delegating per-point extremes to inner engines."""

    def __init__(self, L: float, inner_factory: Callable[[], object]) -> None:
        if L <= 1:
            raise EngineError("block length L must exceed 1")
        self.L = L
        self.state = ColoringState()
        self._points: dict[int, dict[int, Interval]] = {}
        self._reg: dict[int, int] = {}
        self._inner = (inner_factory(), inner_factory())
        for parity, eng in enumerate(self._inner):
            eng.state.on_assign = self._mirror(parity)

    def _mirror(self, parity: int) -> Callable[[int, Color, bool], None]:
        # one outer Color object per inner (level, index), so that
        # set_color finds a color that did not change by identity
        outer: dict[tuple[int, int], Color] = {}

        def apply(iid: int, color: Color, is_recolor: bool) -> None:
            key = (color.level, color.index)
            translated = outer.get(key)
            if translated is None:
                translated = outer[key] = (
                    DUMMY if color.is_dummy() else Color(2 * color.level + parity, color.index)
                )
            self.state.set_color(iid, translated)

        return apply

    def _check(self, interval: Interval) -> None:
        if not 1 <= interval.length < self.L:
            raise EngineError(
                f"interval length {interval.length} outside [1, {self.L})"
            )

    def _register_point(self, interval: Interval) -> int:
        x = math.ceil(interval.left)
        if x > interval.right:
            raise InvariantError("unit-length interval misses every integer")
        return x

    def _parity(self, x: int) -> int:
        return math.floor(x / self.L) % 2

    def _extremes(self, x: int) -> tuple[Interval, ...]:
        pool = list(self._points.get(x, {}).values())
        if not pool:
            return ()
        first = min(pool, key=lambda iv: (iv.left, iv.id))
        rest = [iv for iv in pool if iv.id != first.id]
        if not rest:
            return (first,)
        second = max(rest, key=lambda iv: (iv.right, -iv.id))
        return (first, second)

    def insert(self, interval: Interval) -> None:
        self._check(interval)
        self.state.begin_insert(interval)
        x = self._register_point(interval)
        parity = self._parity(x)
        old = {iv.id for iv in self._extremes(x)}
        self._points.setdefault(x, {})[interval.id] = interval
        self._reg[interval.id] = x
        new = {iv.id for iv in self._extremes(x)}
        removed = old - new
        added = new - old
        if len(removed) > 1 or not added <= {interval.id}:
            raise InvariantError("an insertion displaced more than one extreme")
        inner = self._inner[parity]
        for rid in removed:
            inner.delete(rid)
            self.state.set_color(rid, DUMMY)
        if added:
            inner.insert(interval)
        else:
            self.state.set_color(interval.id, DUMMY)

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        x = self._reg.pop(iid)
        parity = self._parity(x)
        old = {iv.id for iv in self._extremes(x)}
        pool = self._points[x]
        del pool[iid]
        if not pool:
            del self._points[x]
        new_ext = self._extremes(x)
        new = {iv.id for iv in new_ext}
        removed = old - new
        promoted = new - old
        if removed - {iid} or len(promoted) > 1:
            raise InvariantError("a deletion displaced a surviving extreme")
        inner = self._inner[parity]
        if iid in old:
            inner.delete(iid)
        self.state.remove(iid)
        for iv in new_ext:
            if iv.id in promoted:
                inner.insert(iv)

    def audit(self) -> None:
        """Registration, extreme bookkeeping, and color translation checks."""
        for iid, x in self._reg.items():
            iv = self.state.intervals[iid]
            if self._register_point(iv) != x or iid not in self._points.get(x, {}):
                raise InvariantError(f"interval {iid} misregistered")
        inner_live = set(self._inner[0].state.intervals) | set(self._inner[1].state.intervals)
        ext_all = set()
        for x in self._points:
            ext = self._extremes(x)
            ext_all.update(iv.id for iv in ext)
            parity = self._parity(x)
            for iv in ext:
                if iv.id not in self._inner[parity].state.intervals:
                    raise InvariantError(f"extreme {iv.id} missing from inner engine {parity}")
        if inner_live != ext_all:
            raise InvariantError("inner engines hold non-extreme intervals")
        for iid in self.state.intervals:
            c = self.state.color_of(iid)
            if iid not in ext_all:
                if not c.is_dummy():
                    raise InvariantError(f"non-extreme {iid} wears {c}")
            else:
                x = self._reg[iid]
                inner_c = self._inner[self._parity(x)].state.color_of(iid)
                want = (
                    DUMMY
                    if inner_c.is_dummy()
                    else Color(2 * inner_c.level + self._parity(x), inner_c.index)
                )
                if c != want:
                    raise InvariantError(f"color translation stale for {iid}: {c} != {want}")

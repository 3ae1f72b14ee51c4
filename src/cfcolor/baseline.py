"""Baseline engines: cheap colorings that never recolor.

These trade color count for zero recoloring cost.  A proper coloring (no
two overlapping intervals share a color) is conflict-free in particular,
so first-fit over the overlap graph is a valid engine; it is also the
standard inner engine for the bounded-length reduction, where the number
of simultaneously overlapping registered intervals stays small.
"""

from __future__ import annotations

from .chain import connected_components
from .core import Color, ColoringState, EngineError, Interval

__all__ = ["TrivialEngine", "UniqueColorEngine", "ComponentFirstFitEngine"]


class TrivialEngine:
    """First-fit proper coloring: smallest color unused by live overlappers.

    Never recolors.  Colors live on level 0.
    """

    def __init__(self) -> None:
        self.state = ColoringState()

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        used = set()
        for other in self.state.intervals.values():
            if other.id != interval.id and other.intersects(interval):
                used.add(self.state.color_of(other.id))
        j = 0
        while Color(0, j) in used:
            j += 1
        self.state.set_color(interval.id, Color(0, j))

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        self.state.remove(iid)


class UniqueColorEngine:
    """Every interval gets a fresh color.  Wasteful on purpose."""

    def __init__(self) -> None:
        self.state = ColoringState()
        self._counter = 0

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        self.state.set_color(interval.id, Color(0, self._counter))
        self._counter += 1

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        self.state.remove(iid)


class ComponentFirstFitEngine:
    """First-fit against the whole connected component of the new interval.

    The chosen color is the smallest one absent from the component the
    interval lands in, so the answer is determined by the multiset of
    colors present there: a strictly local rule.  Insert-only; deletions
    are rejected because they could split components.
    """

    def __init__(self) -> None:
        self.state = ColoringState()

    def _component_colors(self, interval: Interval) -> set[Color]:
        # begin_insert has made the interval live: its closed-overlap component
        comp = next(
            c for c in connected_components(self.state.intervals.values())
            if interval in c
        )
        return {self.state.color_of(iv.id) for iv in comp if iv.id != interval.id}

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        used = self._component_colors(interval)
        j = 0
        while Color(0, j) in used:
            j += 1
        self.state.set_color(interval.id, Color(0, j))

    def delete(self, iid: int) -> None:
        raise EngineError("component first-fit is insert-only")

"""The level-palette B-tree framework and its fixed-universe engines.

Both the fixed engines here and the dynamic engines of `engine_dynamic`
color intervals the same way, through the `LevelPaletteTree` base class:
per tree level a disjoint palette, per node only the per-slot extreme
intervals get real colors, everything else is dummy.  Local
conflict-freeness at every node then yields global conflict-freeness.  The
base class holds the palette rule, the color bound, chain-coloring a node's
extremes, the per-node audit and the chained set: per node, the ids
anchored there that wear one of its level colors.  Only those ids and the
node's extremes can need a new color when the node is rechained.  All
engines read extremes from the bounds the `btree.Bucket` blocks keep, and
anchor every live id at the `Bucket` holding it; a bucket names its owner
node.

Over a fixed integer universe {0, ..., U-1} the B-tree skeleton is built
once and never changes, so updates only move intervals in and out of
buckets, and an id's anchor bucket and its owner never change while the id
is live.  Two palette disciplines are provided:

* distinct colors: each extreme holds a color of its level palette (size
  4t-2) not used by any other extreme at the node; at most 2 recolorings
  per update.
* chain per node: the node's extremes are chain-colored with 2 colors per
  level; an update rechains one node, changing at most 4t colors.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable

from .btree import (
    BNode,
    Bucket,
    build_tree,
    iter_nodes,
    locate,
    node_extremes,
    node_pool,
    slot_extremes,
    validate_structure,
)
from .chain import build_chain, color_chain, connected_components
from .core import DUMMY, Color, ColoringState, EngineError, Interval, InvariantError, is_conflict_free

__all__ = ["LevelPaletteTree", "FixedDistinctEngine", "FixedChainEngine"]


@cache
def _level_palette(level: int) -> tuple[Color, Color]:
    """The 2 colors of a level, one object each for the whole process.

    set_color then finds a color that did not change by identity, without
    the dataclass __eq__.
    """
    return Color(level, 0), Color(level, 1)


class LevelPaletteTree:
    """Coloring framework over a B-tree whose level l owns palette l.

    Subclasses provide `root`, keep every live interval bucketed at
    exactly one node, anchor its id in `_anchor` at that `Bucket`, keep
    each bucket's `node` naming the node that holds it, and keep every id
    that wears a level color in the chained set of its node.
    """

    root: BNode

    def __init__(self, t: int) -> None:
        if t < 2:
            raise EngineError("minimum degree t must be at least 2")
        self.t = t
        self.state = ColoringState()
        self._anchor: dict[int, Bucket] = {}
        # node -> ids anchored there that wear a color of its level; keyed
        # by the node itself, since dead nodes' ids can be reused
        self._chained: dict[BNode, set[int]] = {}

    @property
    def height(self) -> int:
        return self.root.level

    def palette_size(self) -> int:
        return 2

    def max_colors(self) -> int:
        """Dummy plus one palette per level."""
        return 1 + self.palette_size() * (self.height + 1)

    def _chain_extremes(
        self,
        v: BNode,
        extremes: list[Interval],
        dummies: Iterable[int] = (),
        rebuild: bool = False,
    ) -> None:
        """Chain-color v's extremes with the 2 colors of v's level, assign them.

        The ids in `dummies` that no chain covers go dummy in the same pass;
        all assignments run in ascending id order.  The ids left wearing a
        color become v's chained set.
        """
        palette = _level_palette(v.level)
        target = dict.fromkeys(dummies, DUMMY)
        for comp in connected_components(extremes):
            target.update(color_chain(build_chain(comp), comp, palette))
        set_color = self.state.set_color
        for iid in sorted(target):
            set_color(iid, target[iid], rebuild=rebuild)
        self._chained[v] = {iid for iid, color in target.items() if color is not DUMMY}

    def audit(self) -> None:
        """Check the framework invariants on every node.

        Per node: each bucket's block bounds bound their blocks, its
        extremes match a scan, only level-palette colors appear,
        non-extremes are dummy, the node's own intervals are locally
        conflict-free, and each one wearing a color is in the node's chained
        set; only nodes of the tree that hold keys have a chained set.
        Every live interval is bucketed at exactly one node, its
        anchor entry is that bucket, and every bucket's owner is the node
        holding it.
        """
        validate_structure(self.root, self.t)
        seen: set[int] = set()
        for v in iter_nodes(self.root):
            for bucket in v.buckets:
                bucket.audit()
            slot_ext = [slot_extremes(bucket.members) for bucket in v.buckets]
            if [bucket.extremes() for bucket in v.buckets] != slot_ext:
                raise InvariantError(f"bucket extremes wrong at a level-{v.level} node")
            ext_ids = {iv.id for ext in slot_ext for iv in ext}
            pool = node_pool(v)
            colors = {}
            for iv in pool:
                if iv.id in seen:
                    raise InvariantError(f"interval {iv.id} bucketed twice")
                seen.add(iv.id)
                c = self.state.color_of(iv.id)
                colors[iv.id] = c
                if iv.id not in ext_ids and not c.is_dummy():
                    raise InvariantError(f"non-extreme {iv.id} wears {c}")
                if not c.is_dummy() and (c.level != v.level or not 0 <= c.index < self.palette_size()):
                    raise InvariantError(f"interval {iv.id} wears {c}, not a level-{v.level} color")
            verdict = is_conflict_free(pool, colors)
            if not verdict:
                raise InvariantError(f"node not locally conflict-free at {verdict.witness}")
            chained = self._chained.get(v, set())
            for iid, c in colors.items():
                if not c.is_dummy() and iid not in chained:
                    raise InvariantError(f"interval {iid} wears {c} but is not chained at its node")
        if seen != set(self.state.intervals):
            raise InvariantError("bucketed intervals out of sync with live set")
        holders = {v for v in iter_nodes(self.root) if v.keys}
        if any(v not in holders for v in self._chained):
            raise InvariantError("chained set kept for a node off the tree or without keys")
        anchor = self._anchor
        if anchor.keys() != self.state.intervals.keys():
            raise InvariantError("anchor map out of sync with live set")
        for v in iter_nodes(self.root):
            for bucket in v.buckets:
                if bucket.node is not v:
                    raise InvariantError(f"bucket owner stale at a level-{v.level} node")
                for iid in bucket.members:
                    if anchor[iid] is not bucket:
                        raise InvariantError(f"anchor map stale for {iid}")


class _FixedBase(LevelPaletteTree):
    def __init__(self, universe: int, t: int = 2) -> None:
        if universe < 1:
            raise EngineError("universe size must be at least 1")
        super().__init__(t)
        self.universe = universe
        self.root, _ = build_tree(range(universe), t)

    def _check(self, interval: Interval) -> None:
        for x in (interval.left, interval.right):
            if x != int(x):
                raise EngineError(f"endpoint {x} is not an integer universe point")
            if not 0 <= x <= self.universe - 1:
                raise EngineError(f"endpoint {x} outside universe [0, {self.universe - 1}]")


class FixedDistinctEngine(_FixedBase):
    """Extremes get pairwise-distinct colors from a 4t-2 palette per level."""

    def palette_size(self) -> int:
        return 4 * self.t - 2

    def audit(self) -> None:
        """Base invariants, then each node's extremes wear distinct real colors."""
        super().audit()
        for v in iter_nodes(self.root):
            used = []
            for iv in node_extremes(v):
                c = self.state.color_of(iv.id)
                if c.is_dummy():
                    raise InvariantError(f"extreme {iv.id} wears the dummy color")
                used.append(c)
            if len(set(used)) != len(used):
                raise InvariantError("extremes at one node share a color")

    def _free_color(self, v: BNode) -> Color:
        used = set()
        for iv in node_extremes(v):
            c = self.state.color_of(iv.id)
            if c is not None:
                used.add(c)
        for j in range(self.palette_size()):
            cand = Color(v.level, j)
            if cand not in used:
                return cand
        raise InvariantError("no free color among extremes; node overfull")

    def insert(self, interval: Interval) -> None:
        self._check(interval)
        self.state.begin_insert(interval)
        v, slot = locate(self.root, interval)
        bucket = v.buckets[slot]
        old = bucket.extremes()
        bucket.add(interval)
        self._anchor[interval.id] = bucket
        new = bucket.extremes()
        new_ids = {iv.id for iv in new}
        chained = self._chained.setdefault(v, set())
        for demoted in old:
            if demoted.id not in new_ids:
                self.state.set_color(demoted.id, DUMMY)
                chained.discard(demoted.id)
        if interval.id in new_ids:
            self.state.set_color(interval.id, self._free_color(v))
            chained.add(interval.id)
        else:
            self.state.set_color(interval.id, DUMMY)

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        bucket = self._anchor.pop(iid)
        v = bucket.node
        old_ids = {iv.id for iv in bucket.extremes()}
        bucket.discard(iid)
        self.state.remove(iid)
        chained = self._chained[v]
        chained.discard(iid)
        for promoted in bucket.extremes():
            if promoted.id not in old_ids:
                self.state.set_color(promoted.id, self._free_color(v))
                chained.add(promoted.id)


class FixedChainEngine(_FixedBase):
    """Each update rechains the extremes of the touched node with 2 colors."""

    def _rechain(self, v: BNode) -> None:
        extremes = node_extremes(v)
        # only chained intervals can need a demotion to dummy; they go first
        prev = self._chained.get(v, set())
        for iid in sorted(prev - {iv.id for iv in extremes}):
            self.state.set_color(iid, DUMMY)
        self._chain_extremes(v, extremes)

    def insert(self, interval: Interval) -> None:
        self._check(interval)
        self.state.begin_insert(interval)
        v, slot = locate(self.root, interval)
        bucket = v.buckets[slot]
        bucket.add(interval)
        self._anchor[interval.id] = bucket
        if interval.id not in {iv.id for iv in bucket.extremes()}:
            self.state.set_color(interval.id, DUMMY)
        self._rechain(v)

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        bucket = self._anchor.pop(iid)
        bucket.discard(iid)
        v = bucket.node
        self.state.remove(iid)
        self._chained.get(v, set()).discard(iid)
        self._rechain(v)

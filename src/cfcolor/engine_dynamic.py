"""Fully dynamic engine: a real B-tree over the live endpoint multiset.

Keys are (coordinate, interval id, side) triples, so every interval owns
two unique keys and key comparisons never tie.  Intervals hang off the
unique highest node holding a key they contain.  Rebalancing (split,
merge, borrow, separator swap) moves keys between nodes; any interval
whose anchor that can change is staged out first, the key surgery runs,
and the staged intervals are re-located from the root.  Every node whose
bucket content may have changed is rechained: its per-slot extreme
intervals get a fresh chain coloring from the node's 2-color level
palette, everything else at the node goes dummy.  The palette rule, the
chain coloring and the per-node audit come from `LevelPaletteTree` in
`engine_fixed`, shared with the fixed-universe engines.

The epsilon variant rebuilds the whole tree with minimum degree about
n^eps whenever the live count leaves [n_last/2, 2*n_last]; recolorings
done during rebuilds are tallied separately.
"""

from __future__ import annotations

from bisect import bisect_left

from .btree import (
    BNode,
    build_tree,
    iter_nodes,
    locate,
    node_extremes,
    node_pool,
)
from .core import (
    ColoringState,
    EngineError,
    Interval,
    InvariantError,
)
from .engine_fixed import LevelPaletteTree

__all__ = ["DynamicEngine", "EpsilonEngine"]


def _coord(key: tuple[float, int, int]) -> float:
    return key[0]


class _Batch:
    """Bookkeeping for one public update: nodes to rechain, nodes dropped."""

    __slots__ = ("touched", "dropped")

    def __init__(self) -> None:
        self.touched: set[BNode] = set()
        self.dropped: set[BNode] = set()


class DynamicEngine(LevelPaletteTree):
    """Chain-per-node coloring over a self-balancing endpoint B-tree."""

    def __init__(self, t: int = 2) -> None:
        if t < 2:
            raise EngineError("minimum degree t must be at least 2")
        self.t = t
        self.root = BNode(0)
        self.state = ColoringState()
        self._anchor: dict[int, BNode] = {}

    # ------------------------------------------------------------- public

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        if self._maybe_rebuild():
            return
        batch = _Batch()
        self._insert_key((interval.left, interval.id, 0), batch)
        self._insert_key((interval.right, interval.id, 1), batch)
        v, slot = locate(self.root, interval, _coord)
        v.buckets[slot][interval.id] = interval
        self._anchor[interval.id] = v
        batch.touched.add(v)
        self._rechain(batch)

    def delete(self, iid: int) -> None:
        interval = self.state.begin_delete(iid)
        # disassociate first so the dying interval never migrates
        home = self._anchor.pop(iid)
        self._remove_from_node(home, iid)
        self.state.remove(iid)
        if self._maybe_rebuild():
            return
        batch = _Batch()
        batch.touched.add(home)  # its extremes may have changed
        self._delete_key((interval.left, iid, 0), batch)
        self._delete_key((interval.right, iid, 1), batch)
        self._rechain(batch)

    def _maybe_rebuild(self) -> bool:
        return False

    # ------------------------------------------------- standalone micro-ops

    def split_child(self, parent: BNode, ci: int) -> None:
        """Split a full child in place; rechains the affected nodes."""
        self.state.ledger.begin()
        batch = _Batch()
        self._split_child(parent, ci, batch)
        self._rechain(batch)

    # ------------------------------------------------------- key insertion

    def _insert_key(self, key: tuple, batch: _Batch) -> None:
        if self.root.is_leaf and not self.root.keys:
            self.root.keys = [key]
            self.root.buckets = [{}]
            batch.touched.add(self.root)
            return
        if len(self.root.keys) == 2 * self.t - 1:
            new_root = BNode(self.root.level + 1)
            new_root.children = [self.root]
            self.root = new_root
            self._split_child(new_root, 0, batch)
        v = self.root
        while True:
            pos = bisect_left(v.keys, key)
            if v.is_leaf:
                v.keys.insert(pos, key)
                v.buckets.insert(pos, {})
                self._rebucket(v)
                batch.touched.add(v)
                return
            child = v.children[pos]
            if len(child.keys) == 2 * self.t - 1:
                self._split_child(v, pos, batch)
                if key > v.keys[pos]:
                    pos += 1
                child = v.children[pos]
            v = child

    def _split_child(self, parent: BNode, ci: int, batch: _Batch) -> None:
        t = self.t
        child = parent.children[ci]
        if len(child.keys) != 2 * t - 1:
            raise EngineError("can only split a full node")
        mid_key = child.keys[t - 1]
        pool = node_pool(child)

        right = BNode(child.level)
        right.keys = child.keys[t:]
        right.buckets = [{} for _ in right.keys]
        child.keys = child.keys[: t - 1]
        child.buckets = [{} for _ in child.keys]
        if child.children:
            right.children = child.children[t:]
            child.children = child.children[:t]

        parent.keys.insert(ci, mid_key)
        parent.buckets.insert(ci, {})
        parent.children.insert(ci + 1, right)
        self._rebucket(parent)

        mid = mid_key[0]
        for iv in sorted(pool, key=lambda iv: iv.id):
            if iv.left <= mid <= iv.right:
                self._place(parent, iv)
            elif iv.right < mid:
                self._place(child, iv)
            else:
                self._place(right, iv)
        batch.touched.update((parent, child, right))

    # -------------------------------------------------------- key deletion

    def _delete_key(self, key: tuple, batch: _Batch) -> None:
        self._delete_key_from(self.root, key, batch)

    def _delete_key_from(self, v: BNode, key: tuple, batch: _Batch) -> None:
        t = self.t
        while True:
            pos = bisect_left(v.keys, key)
            if pos < len(v.keys) and v.keys[pos] == key:
                if v.is_leaf:
                    pool = node_pool(v)
                    v.keys.pop(pos)
                    v.buckets = [{} for _ in v.keys]
                    for iv in sorted(pool, key=lambda iv: iv.id):
                        self._place(v, iv)
                    batch.touched.add(v)
                    return
                if len(v.children[pos + 1].keys) >= t:
                    self._swap_separator(v, pos, successor=True, batch=batch)
                elif len(v.children[pos].keys) >= t:
                    self._swap_separator(v, pos, successor=False, batch=batch)
                else:
                    v = self._merge_children(v, pos, batch)
                    continue
                return
            if v.is_leaf:
                raise InvariantError(f"key {key!r} not found")
            child = v.children[pos]
            if len(child.keys) == t - 1:
                child = self._strengthen(v, pos, batch)
            v = child

    def _strengthen(self, v: BNode, ci: int, batch: _Batch) -> BNode:
        """Give child ci at least t keys; returns the node to descend into."""
        t = self.t
        if ci > 0 and len(v.children[ci - 1].keys) >= t:
            self._borrow(v, ci, from_left=True, batch=batch)
            return v.children[ci]
        if ci < len(v.children) - 1 and len(v.children[ci + 1].keys) >= t:
            self._borrow(v, ci, from_left=False, batch=batch)
            return v.children[ci]
        si = ci - 1 if ci > 0 else ci
        return self._merge_children(v, si, batch)

    def _borrow(self, parent: BNode, ci: int, from_left: bool, batch: _Batch) -> None:
        sib = parent.children[ci - 1 if from_left else ci + 1]
        child = parent.children[ci]
        si = ci - 1 if from_left else ci
        if len(sib.keys) < self.t:
            raise EngineError("sibling has no key to spare")
        sep = parent.keys[si]
        up_key = sib.keys[-1] if from_left else sib.keys[0]

        staged = list(parent.buckets[si].values())
        staged += [iv for iv in node_pool(sib) if iv.left <= up_key[0] <= iv.right]
        for iv in staged:
            self._remove_from_node(self._anchor[iv.id], iv.id)

        if from_left:
            sib.keys.pop()
            child.keys.insert(0, sep)
            if sib.children:
                child.children.insert(0, sib.children.pop())
        else:
            sib.keys.pop(0)
            child.keys.append(sep)
            if sib.children:
                child.children.append(sib.children.pop(0))
        parent.keys[si] = up_key
        for node in (parent, sib, child):
            self._rebucket(node)
        self._relocate(staged, batch)
        batch.touched.update((parent, sib, child))

    def _merge_children(self, parent: BNode, si: int, batch: _Batch) -> BNode:
        left = parent.children[si]
        right = parent.children[si + 1]
        if len(left.keys) + len(right.keys) + 1 > 2 * self.t - 1:
            raise EngineError("merge would overflow the node")
        sep = parent.keys[si]

        staged = list(parent.buckets[si].values())
        for iv in staged:
            self._remove_from_node(parent, iv.id)

        left.keys = left.keys + [sep] + right.keys
        left.buckets = left.buckets + [{}] + right.buckets
        left.children.extend(right.children)
        for bucket in right.buckets:
            for iv in bucket.values():
                self._anchor[iv.id] = left
        parent.keys.pop(si)
        parent.buckets.pop(si)
        parent.children.pop(si + 1)

        batch.dropped.add(right)
        batch.touched.discard(right)
        if parent is self.root and not parent.keys:
            self.root = left
            batch.dropped.add(parent)
            batch.touched.discard(parent)
        else:
            batch.touched.add(parent)
        batch.touched.add(left)
        self._relocate(staged, batch)
        return left

    def _swap_separator(self, v: BNode, pos: int, successor: bool, batch: _Batch) -> None:
        """Replace separator pos by its neighbor key and delete that key below.

        The neighbor key sits in a leaf at the end of a spine; intervals
        anchored on the spine that contain its coordinate will contain a
        key of v afterwards, so they are staged out together with the
        separator's own bucket before any surgery runs.
        """
        subtree = v.children[pos + 1] if successor else v.children[pos]
        spine: list[BNode] = []
        w = subtree
        while True:
            spine.append(w)
            if w.is_leaf:
                break
            w = w.children[0] if successor else w.children[-1]
        swap_key = spine[-1].keys[0] if successor else spine[-1].keys[-1]

        staged = list(v.buckets[pos].values())
        for node in spine:
            staged += [iv for iv in node_pool(node) if iv.left <= swap_key[0] <= iv.right]
        for iv in staged:
            self._remove_from_node(self._anchor[iv.id], iv.id)
        batch.touched.update(spine)  # staging may have changed their extremes

        self._delete_key_from(subtree, swap_key, batch)
        v.keys[pos] = swap_key
        self._rebucket(v)
        self._relocate(staged, batch)
        batch.touched.add(v)

    # ----------------------------------------------------- bucket plumbing

    def _place(self, node: BNode, interval: Interval) -> None:
        coords = [k[0] for k in node.keys]
        i = bisect_left(coords, interval.left)
        if not (i < len(coords) and coords[i] <= interval.right):
            raise InvariantError(f"interval {interval.id} has no key at its target node")
        node.buckets[i][interval.id] = interval
        self._anchor[interval.id] = node

    def _rebucket(self, node: BNode) -> None:
        pool = node_pool(node)
        node.buckets = [{} for _ in node.keys]
        for iv in sorted(pool, key=lambda iv: iv.id):
            self._place(node, iv)

    def _remove_from_node(self, node: BNode, iid: int) -> None:
        for bucket in node.buckets:
            if iid in bucket:
                del bucket[iid]
                return
        raise InvariantError(f"interval {iid} not bucketed at its anchor")

    def _relocate(self, staged: list[Interval], batch: _Batch) -> None:
        for iv in sorted(staged, key=lambda iv: iv.id):
            v, slot = locate(self.root, iv, _coord)
            v.buckets[slot][iv.id] = iv
            self._anchor[iv.id] = v
            batch.touched.add(v)

    # ------------------------------------------------------------ coloring

    def _rechain(self, batch: _Batch) -> None:
        live = [v for v in batch.touched - batch.dropped if v.keys]
        for v in sorted(live, key=lambda v: (v.level, v.keys[0])):
            self._rechain_node(v)

    def _rechain_node(self, v: BNode, rebuild: bool = False) -> None:
        self._chain_extremes(v, node_extremes(v), node_pool(v), rebuild)

    # ------------------------------------------------------------- checks

    def audit(self) -> None:
        """Per-node framework invariants, then endpoint keys, height, anchors."""
        super().audit()
        n = self.state.n
        keys = [k for v in iter_nodes(self.root) for k in v.keys]
        if len(keys) != 2 * n:
            raise InvariantError(f"{len(keys)} keys for {n} intervals")
        expect = sorted(
            [(iv.left, iv.id, 0) for iv in self.state.intervals.values()]
            + [(iv.right, iv.id, 1) for iv in self.state.intervals.values()]
        )
        if sorted(keys) != expect:
            raise InvariantError("tree keys out of sync with live endpoints")
        if n >= 1 and self.height >= 1 and self.t**self.height > n:
            raise InvariantError(f"height {self.height} too large for {n} intervals")
        # the base audit found each live interval anchored and in exactly
        # one bucket; it must be the bucket that locate() picks, at the
        # anchored node
        for iid, v in self._anchor.items():
            av, aslot = locate(self.root, self.state.intervals[iid], _coord)
            if av is not v:
                raise InvariantError(f"anchor map stale for {iid}")
            if iid not in v.buckets[aslot]:
                raise InvariantError(f"interval {iid} bucketed off its anchor")


class EpsilonEngine(DynamicEngine):
    """Dynamic engine that retunes t to about n^eps by periodic rebuilds."""

    def __init__(self, eps: float = 0.5) -> None:
        if not 0 < eps < 1:
            raise EngineError("eps must lie strictly between 0 and 1")
        super().__init__(t=2)
        self.eps = eps
        self._n_last: int | None = None
        self.rebuild_count = 0

    def _maybe_rebuild(self) -> bool:
        n = self.state.n
        if self._n_last is not None and self._n_last / 2 <= n <= 2 * self._n_last:
            return False
        self.rebuild()
        return True

    def rebuild(self) -> None:
        """Bulk-rebuild the tree with t about n^eps; recolor everything."""
        n = self.state.n
        self.t = max(2, round(n**self.eps))
        keys = sorted(
            [(iv.left, iv.id, 0) for iv in self.state.intervals.values()]
            + [(iv.right, iv.id, 1) for iv in self.state.intervals.values()]
        )
        self.root, _ = build_tree(keys, self.t)
        self._anchor.clear()
        for iid in sorted(self.state.intervals):
            iv = self.state.intervals[iid]
            v, slot = locate(self.root, iv, _coord)
            v.buckets[slot][iid] = iv
            self._anchor[iid] = v
        for v in iter_nodes(self.root):
            self._rechain_node(v, rebuild=True)
        self._n_last = n
        self.rebuild_count += 1

"""Fully dynamic engine: a real B-tree over the live endpoint multiset.

Keys are (coordinate, interval id, side) triples, so every interval owns
two unique keys and key comparisons never tie.  Intervals hang off the
unique highest node holding a key they contain.  Rebalancing (split,
merge, borrow, separator swap) moves keys between nodes; any interval
whose anchor that can change is staged out first, the key surgery runs,
and the staged intervals are re-located from the lowest node whose keys
changed.  Bulk moves are plain dict operations plus one `Bucket.update`
per receiving bucket, so only changed buckets rescan their extremes.
Every node whose bucket content may have changed is rechained: its
per-slot extreme intervals get a fresh chain coloring from the node's
2-color level palette, and of the rest only the intervals that may still
wear a color go dummy: the node's chained set (from `LevelPaletteTree`)
and the intervals that moved in during the update.  So an update assigns
colors to a node's extremes and the intervals that moved, never to its
whole pool.  The palette rule, the chain coloring, the chained sets and
the per-node audit come from `LevelPaletteTree` in `engine_fixed`, shared
with the fixed-universe engines.

The epsilon variant rebuilds the whole tree with minimum degree about
n^eps whenever the live count leaves [n_last/2, 2*n_last]; recolorings
done during rebuilds are tallied separately.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict

from .btree import (
    BNode,
    Bucket,
    build_tree,
    iter_nodes,
    locate,
    node_extremes,
    node_pool,
)
from .core import DUMMY, EngineError, Interval, InvariantError
from .engine_fixed import LevelPaletteTree

__all__ = ["DynamicEngine", "EpsilonEngine"]


def _coord(key: tuple[float, int, int]) -> float:
    return key[0]


class _Batch:
    """Bookkeeping for one public update: nodes to rechain, nodes dropped,
    and per node the ids that moved there not wearing dummy."""

    __slots__ = ("touched", "dropped", "arrived")

    def __init__(self) -> None:
        self.touched: set[BNode] = set()
        self.dropped: set[BNode] = set()
        self.arrived: dict[BNode, list[int]] = {}


class DynamicEngine(LevelPaletteTree):
    """Chain-per-node coloring over a self-balancing endpoint B-tree."""

    def __init__(self, t: int = 2) -> None:
        super().__init__(t)
        self.root = BNode(0)
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
        v.buckets[slot].add(interval)
        self._arrive(v, (interval.id,), batch)
        batch.touched.add(v)
        self._rechain(batch)

    def delete(self, iid: int) -> None:
        interval = self.state.begin_delete(iid)
        # disassociate first so the dying interval never migrates
        home = self._anchor.pop(iid)
        members = home.buckets[locate(home, interval, _coord)[1]].members
        if members.pop(iid, None) is None:
            raise InvariantError(f"interval {iid} not bucketed at its anchor")
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

    # ------------------------------------------------------- key insertion

    def _insert_key(self, key: tuple, batch: _Batch) -> None:
        if self.root.is_leaf and not self.root.keys:
            self.root.keys = [key]
            self.root.buckets = [Bucket()]
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
                v.buckets.insert(pos, Bucket())
                self._rebucket(v, pos)
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
        """Move the median key of a full child up into parent.

        The child's intervals that contain the median move up with it, and
        its buckets right of the median go to the new right sibling; every
        other interval keeps its slot.
        """
        t = self.t
        child = parent.children[ci]
        if len(child.keys) != 2 * t - 1:
            raise EngineError("can only split a full node")
        mid_key = child.keys[t - 1]
        mid = mid_key[0]

        right = BNode(child.level)
        right.keys = child.keys[t:]
        right.buckets = child.buckets[t:]
        up = child.buckets[t - 1].members  # these contain the median key itself
        for bucket in child.buckets[: t - 1]:
            for iid in [iid for iid, iv in bucket.members.items() if iv.right >= mid]:
                up[iid] = bucket.members.pop(iid)
        child.keys = child.keys[: t - 1]
        child.buckets = child.buckets[: t - 1]
        if child.children:
            right.children = child.children[t:]
            child.children = child.children[:t]

        parent.keys.insert(ci, mid_key)
        parent.buckets.insert(ci, Bucket())
        parent.children.insert(ci + 1, right)
        self._rebucket(parent, ci)
        # no other key of parent lies inside an interval anchored below it
        parent.buckets[ci].update(up)
        self._arrive(parent, up, batch)
        for bucket in right.buckets:
            self._arrive(right, bucket.members, batch)
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
                    v.keys.pop(pos)
                    # a leaf's intervals hold their own keys there, so the
                    # next key is inside every interval the gone key was
                    gone = v.buckets.pop(pos).members
                    if gone:
                        if pos == len(v.keys):
                            raise InvariantError(f"interval {next(iter(gone))} loses its last key")
                        v.buckets[pos].update(gone)
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

        # sep's intervals that contain up_key keep their slot; the sibling's
        # that contain it rise into that slot
        staged = self._take_missing(parent.buckets[si], up_key[0])
        risen = self._take_containing(sib, up_key[0])

        # the sibling's bucket of up_key has risen whole; no interval
        # anchored at the child contains sep, so its new bucket starts empty
        if from_left:
            sib.keys.pop()
            sib.buckets.pop()
            child.keys.insert(0, sep)
            child.buckets.insert(0, Bucket())
            if sib.children:
                child.children.insert(0, sib.children.pop())
        else:
            sib.keys.pop(0)
            sib.buckets.pop(0)
            child.keys.append(sep)
            child.buckets.append(Bucket())
            if sib.children:
                child.children.append(sib.children.pop(0))
        parent.keys[si] = up_key
        self._rebucket(parent, si)
        self._rise(parent, si, risen, batch)
        self._relocate(staged, parent, batch)
        batch.touched.update((parent, sib, child))

    def _merge_children(self, parent: BNode, si: int, batch: _Batch) -> BNode:
        left = parent.children[si]
        right = parent.children[si + 1]
        if len(left.keys) + len(right.keys) + 1 > 2 * self.t - 1:
            raise EngineError("merge would overflow the node")
        sep = parent.keys.pop(si)
        sep_bucket = parent.buckets.pop(si)
        parent.children.pop(si + 1)
        # sep's intervals that contain parent's next key stay, now in its
        # slot; the others sink into left, which receives sep, at their
        # leftmost key there
        staged = list(sep_bucket.members.values())
        if si < len(parent.keys):
            staged = self._take_missing(sep_bucket, parent.keys[si][0])
            parent.buckets[si].update(sep_bucket.members)

        # no interval anchored at either child contains sep
        left.keys = left.keys + [sep] + right.keys
        left.buckets = left.buckets + [Bucket()] + right.buckets
        left.children.extend(right.children)
        for bucket in right.buckets:
            self._arrive(left, bucket.members, batch)

        batch.dropped.add(right)
        batch.touched.discard(right)
        if parent is self.root and not parent.keys:
            self.root = left
            batch.dropped.add(parent)
            batch.touched.discard(parent)
        else:
            batch.touched.add(parent)
        batch.touched.add(left)
        sink = defaultdict(dict)
        for iv in staged:
            sink[bisect_left(left.keys, (iv.left,))][iv.id] = iv
        for slot, ivs in sink.items():
            left.buckets[slot].update(ivs)
        self._arrive(left, [iv.id for iv in staged], batch)
        return left

    def _swap_separator(self, v: BNode, pos: int, successor: bool, batch: _Batch) -> None:
        """Replace separator pos by its neighbor key and delete that key below.

        The neighbor key sits in a leaf at the end of a spine; intervals
        anchored on the spine that contain its coordinate will have it as
        their only key at v, so they are taken out before any surgery runs
        and rise into its slot.  The separator's intervals that miss it are
        relocated from v.
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

        staged = self._take_missing(v.buckets[pos], swap_key[0])
        risen = [iv for node in spine for iv in self._take_containing(node, swap_key[0])]
        batch.touched.update(spine)  # staging may have changed their extremes

        self._delete_key_from(subtree, swap_key, batch)
        v.keys[pos] = swap_key
        self._rebucket(v, pos)
        self._rise(v, pos, risen, batch)
        self._relocate(staged, v, batch)
        batch.touched.add(v)

    # ----------------------------------------------------- bucket plumbing

    def _rebucket(self, node: BNode, pos: int) -> None:
        """keys[pos] is new at node and its bucket empty: move into it the
        intervals of the next bucket that contain it.

        Those have it as their leftmost contained key now; the intervals of
        every other bucket keep theirs.
        """
        if pos + 1 < len(node.keys):
            x = node.keys[pos][0]
            nxt = node.buckets[pos + 1].members
            moved = [iid for iid, iv in nxt.items() if iv.left <= x]
            if moved:
                node.buckets[pos].update({iid: nxt.pop(iid) for iid in moved})

    def _take_containing(self, node: BNode, x: float) -> list[Interval]:
        """Remove from node's buckets the intervals containing x; return them."""
        hits = [(bucket.members, iid) for bucket in node.buckets
                for iid, iv in bucket.members.items() if iv.left <= x <= iv.right]
        return [members.pop(iid) for members, iid in hits]

    def _take_missing(self, bucket: Bucket, x: float) -> list[Interval]:
        """Remove from bucket the intervals not containing x; return them."""
        missing = [iid for iid, iv in bucket.members.items() if not iv.left <= x <= iv.right]
        return [bucket.members.pop(iid) for iid in missing]

    def _rise(self, node: BNode, slot: int, risen: list[Interval], batch: _Batch) -> None:
        """Bucket at node's slot the intervals taken from below it."""
        node.buckets[slot].update((iv.id, iv) for iv in risen)
        self._arrive(node, [iv.id for iv in risen], batch)

    def _arrive(self, node: BNode, ids, batch: _Batch) -> None:
        """Anchor ids at node; note those not wearing dummy as arrivals.

        Colors change only when the update rechains, after all moves.
        """
        anchor = self._anchor
        color_of = self.state.assignment.get
        arrived = batch.arrived.setdefault(node, [])
        for iid in ids:
            anchor[iid] = node
            if color_of(iid) is not DUMMY:
                arrived.append(iid)

    def _relocate(self, staged: list[Interval], start: BNode, batch: _Batch) -> None:
        """Bucket staged intervals anew at or below start: start's ancestors
        kept their keys, so none of them holds a key inside one."""
        anchor = self._anchor
        moved = defaultdict(dict)
        for iv in staged:
            v, slot = locate(start, iv, _coord)
            moved[v.buckets[slot]][iv.id] = iv
            if anchor[iv.id] is not v:
                self._arrive(v, (iv.id,), batch)
            batch.touched.add(v)
        for bucket, ivs in moved.items():
            bucket.update(ivs)

    # ------------------------------------------------------------ coloring

    def _rechain(self, batch: _Batch) -> None:
        for v in batch.dropped:
            self._chained.pop(v, None)
        live = [v for v in batch.touched - batch.dropped if v.keys]
        for v in sorted(live, key=lambda v: (v.level, v.keys[0])):
            self._rechain_node(v, batch.arrived.get(v, ()))

    def _rechain_node(self, v: BNode, arrived) -> None:
        """Chain-color v's extremes; of its other intervals only those that
        can wear a color go dummy: its chained ids and the arrivals (a new
        insert has no color yet) that are still anchored at v."""
        anchor = self._anchor
        ids = [iid for iid in self._chained.get(v, ()) if anchor.get(iid) is v]
        ids += [iid for iid in arrived if anchor.get(iid) is v]
        self._chain_extremes(v, node_extremes(v), ids)

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
            if iid not in v.buckets[aslot].members:
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
        self._chained.clear()
        for iid in sorted(self.state.intervals):
            iv = self.state.intervals[iid]
            v, slot = locate(self.root, iv, _coord)
            v.buckets[slot].add(iv)
            self._anchor[iid] = v
        for v in iter_nodes(self.root):
            pool = [iv.id for iv in node_pool(v)]
            self._chain_extremes(v, node_extremes(v), pool, rebuild=True)
        self._n_last = n
        self.rebuild_count += 1

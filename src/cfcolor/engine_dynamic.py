"""Fully dynamic engine: a real B-tree over the live endpoint multiset.

Keys are (coordinate, interval id, side) triples, so every interval owns
two unique keys and key comparisons never tie.  Intervals hang off the
unique highest node holding a key they contain, and each id is anchored at
its `Bucket`, which names its owner node.  Rebalancing (split, merge,
borrow, separator swap) moves keys between nodes, and buckets move with
their keys: a split re-points the median's bucket and those right of it,
a merge the right child's buckets and the separator's, which keeps the
intervals that sink to the separator's own slot.  The other intervals
whose anchor can change are taken out of their buckets by range -- those
reaching a key, starting by it, or missing it -- the key surgery runs,
and each lands at the slot the surgery leaves it: a split, merge or borrow
knows it from a comparison with the moved keys, a separator swap locates
it from the node whose key changed.  A bucket holds its intervals in
blocks with cached bounds, so a range take hands whole blocks over and
scans only a block that straddles the range's end; the moved intervals
cost one anchor write each.  Every node whose bucket content may have
changed is marked touched and every node taken out of the tree dropped;
intervals move only out of such nodes and only into touched ones.  Each
touched node is rechained: its per-slot extreme intervals get a fresh
chain coloring from the node's 2-color level palette, and of the rest
only the intervals that may still wear a color go dummy.  Those are the
new insert and the touched and dropped nodes' chained ids (the chained
sets of `LevelPaletteTree`), each rechained at the node its anchor names
now, so no moved interval needs reporting and no moved bucket a scan.
So an update assigns colors to the touched nodes' extremes and chained
ids, never to a whole pool.  The palette rule, the chain coloring, the
chained sets and the per-node audit come from `LevelPaletteTree` in
`engine_fixed`, shared with the fixed-universe engines.

The epsilon variant rebuilds the whole tree with minimum degree about
n^eps whenever the live count leaves [n_last/2, 2*n_last]; recolorings
done during rebuilds are tallied separately.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from itertools import chain

from .btree import (
    BNode,
    Bucket,
    _Block,
    build_tree,
    iter_nodes,
    locate,
    node_extremes,
    node_pool,
)
from .core import EngineError, Interval, InvariantError
from .engine_fixed import LevelPaletteTree

__all__ = ["DynamicEngine", "EpsilonEngine"]


def _coord(key: tuple[float, int, int]) -> float:
    return key[0]


def _endpoint_keys(intervals) -> list[tuple]:
    """The sorted (coordinate, id, side) keys of the intervals' endpoints."""
    return sorted([(iv.left, iv.id, 0) for iv in intervals]
                  + [(iv.right, iv.id, 1) for iv in intervals])


def _land(bucket: Bucket, parent: BNode, slot: int, child: BNode, keep: int | None = None):
    """Take out of bucket where its intervals land, when each contains a key
    of child but none of parent before parent.keys[slot]: those that
    contain that key stay at parent, the others go to child at their
    leftmost key there.  Those bound for child slot `keep` stay in bucket.

    The staying ones are those reaching the key; each child slot takes those
    starting by its key's coordinate, in turn.  Returns the staying blocks,
    and the others by child slot.
    """
    nxt = parent.keys[slot][0] if slot < len(parent.keys) else math.inf
    stay = bucket.take_right_from(nxt)
    coords = [k[0] for k in child.keys]
    sink = {}
    while ext := bucket.extremes():
        at = bisect_left(coords, ext[0].left)
        if at == keep:
            break
        sink[at] = bucket.take_left_upto(coords[at])
    return stay, sink


def _take_containing(node: BNode, x: float) -> list:
    """Remove from node's buckets the intervals containing x; return them.

    A bucket's intervals contain its key, so of those at a key at or left of
    x the ones reaching x contain it, and of the others those starting by x.
    """
    return [blk for key, bucket in zip(node.keys, node.buckets)
            for blk in (bucket.take_right_from(x) if key[0] <= x else bucket.take_left_upto(x))]


def _take_missing(bucket: Bucket, key: float, x: float) -> list:
    """Remove from bucket, whose intervals contain coordinate key, the
    intervals not containing x; return them."""
    if x < key:
        return bucket.take_left_above(x)
    return bucket.take_right_below(x)


class _Batch:
    """Bookkeeping for one public update: the nodes whose bucket content
    may have changed, to rechain, and the nodes dropped from the tree."""

    __slots__ = ("touched", "dropped")

    def __init__(self) -> None:
        self.touched: set[BNode] = set()
        self.dropped: set[BNode] = set()


class DynamicEngine(LevelPaletteTree):
    """Chain-per-node coloring over a self-balancing endpoint B-tree."""

    def __init__(self, t: int = 2) -> None:
        super().__init__(t)
        self.root = BNode(0)

    # ------------------------------------------------------------- public

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        if self._maybe_rebuild():
            return
        batch = _Batch()
        self._insert_key((interval.left, interval.id, 0), batch)
        self._insert_key((interval.right, interval.id, 1), batch)
        v, slot = locate(self.root, interval, _coord)
        bucket = v.buckets[slot]
        bucket.add(interval)
        self._anchor[interval.id] = bucket
        batch.touched.add(v)
        self._rechain(batch, interval.id)

    def delete(self, iid: int) -> None:
        interval = self.state.begin_delete(iid)
        # disassociate first so the dying interval never migrates
        bucket = self._anchor.pop(iid)
        if bucket.discard(iid) is None:
            raise InvariantError(f"interval {iid} not bucketed at its anchor")
        home = bucket.node
        self.state.remove(iid)
        if self._maybe_rebuild():
            return
        batch = _Batch()
        batch.touched.add(home)  # its extremes may have changed
        self._delete_key_from(self.root, (interval.left, iid, 0), batch)
        self._delete_key_from(self.root, (interval.right, iid, 1), batch)
        self._rechain(batch)

    def _maybe_rebuild(self) -> bool:
        return False

    # ------------------------------------------------------- key insertion

    def _insert_key(self, key: tuple, batch: _Batch) -> None:
        if self.root.is_leaf and not self.root.keys:
            self.root.keys = [key]
            self.root.buckets = [Bucket(self.root)]
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
                v.buckets.insert(pos, Bucket(v))
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

        The median's bucket moves up with it whole, and the child's other
        intervals that contain the median join it there; the buckets right
        of the median move whole to the new right sibling.  Every other
        interval keeps its slot.
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
        for bucket in right.buckets:
            bucket.node = right
        median = child.buckets[t - 1]  # these contain the median key itself
        median.node = parent
        up = [blk for bucket in child.buckets[: t - 1] for blk in bucket.take_right_from(mid)]
        child.keys = child.keys[: t - 1]
        child.buckets = child.buckets[: t - 1]
        if child.children:
            right.children = child.children[t:]
            child.children = child.children[:t]

        parent.keys.insert(ci, mid_key)
        parent.buckets.insert(ci, median)
        parent.children.insert(ci + 1, right)
        self._rebucket(parent, ci)
        # no other key of parent lies inside an interval anchored below it
        self._move(median, up)
        batch.touched.update((parent, child, right))

    # -------------------------------------------------------- key deletion

    def _delete_key_from(self, v: BNode, key: tuple, batch: _Batch) -> None:
        t = self.t
        while True:
            pos = bisect_left(v.keys, key)
            if pos < len(v.keys) and v.keys[pos] == key:
                if v.is_leaf:
                    v.keys.pop(pos)
                    # a leaf's intervals hold their own keys there, so the
                    # next key is inside every interval the gone key was
                    gone = v.buckets.pop(pos)
                    if gone.by_id or gone.more:
                        if pos == len(v.keys):
                            raise InvariantError(
                                f"interval {next(iter(gone.members))} loses its last key")
                        self._absorb(v, pos, gone)
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
        staged = Bucket()
        staged.adopt(_take_missing(parent.buckets[si], sep[0], up_key[0]))
        risen = _take_containing(sib, up_key[0])

        # the sibling's bucket of up_key has risen whole; no interval
        # anchored at the child contains sep, so its new bucket starts empty
        if from_left:
            sib.keys.pop()
            sib.buckets.pop()
            child.keys.insert(0, sep)
            child.buckets.insert(0, Bucket(child))
            if sib.children:
                child.children.insert(0, sib.children.pop())
        else:
            sib.keys.pop(0)
            sib.buckets.pop(0)
            child.keys.append(sep)
            child.buckets.append(Bucket(child))
            if sib.children:
                child.children.append(sib.children.pop(0))
        parent.keys[si] = up_key
        self._rebucket(parent, si)
        self._move(parent.buckets[si], risen)
        # the staged intervals contain sep and miss up_key
        stay, sink = _land(staged, parent, si + 1, child)
        if stay:
            self._move(parent.buckets[si + 1], stay)
        for slot, blocks in sink.items():
            self._move(child.buckets[slot], blocks)
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
        # slot; the others sink into left, which receives sep; those whose
        # leftmost key there is sep keep the bucket
        left.keys.append(sep)
        stay, sink = _land(sep_bucket, parent, si, left, keep=len(left.keys) - 1)
        if stay:
            self._move(parent.buckets[si], stay)
        sep_bucket.node = left
        left.buckets.append(sep_bucket)
        for slot, blocks in sink.items():
            self._move(left.buckets[slot], blocks)

        # no interval anchored at either child contains sep; right's
        # buckets move whole
        for bucket in right.buckets:
            bucket.node = left
        left.keys += right.keys
        left.buckets += right.buckets
        left.children += right.children

        batch.dropped.add(right)
        batch.touched.discard(right)
        if parent is self.root and not parent.keys:
            self.root = left
            batch.dropped.add(parent)
            batch.touched.discard(parent)
        else:
            batch.touched.add(parent)
        batch.touched.add(left)
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

        staged = [iv for blk in _take_missing(v.buckets[pos], v.keys[pos][0], swap_key[0])
                  for iv in blk.by_id.values()]
        risen = [blk for node in spine for blk in _take_containing(node, swap_key[0])]
        batch.touched.update(spine)  # staging may have changed their extremes

        self._delete_key_from(subtree, swap_key, batch)
        v.keys[pos] = swap_key
        self._rebucket(v, pos)
        self._move(v.buckets[pos], risen)
        self._relocate(staged, v, batch)
        batch.touched.add(v)

    # ----------------------------------------------------- bucket plumbing

    def _move(self, bucket: Bucket, blocks: list) -> None:
        """Hand blocks to a bucket whole and anchor their ids there."""
        bucket.adopt(blocks)
        anchor = self._anchor
        for blk in blocks:
            anchor.update(dict.fromkeys(blk.by_id, bucket))

    def _absorb(self, node: BNode, slot: int, other: Bucket) -> None:
        """Merge bucket `other`, already out of node's list, into the one at
        slot: the smaller moves into the larger, which takes the slot."""
        into = node.buckets[slot]
        if other.size() > into.size():
            into, other = other, into
            node.buckets[slot] = into
        self._move(into, other.release())

    def _rebucket(self, node: BNode, pos: int) -> None:
        """keys[pos] is new at node: move into its bucket the intervals of
        the next bucket that contain it.

        Those have it as their leftmost contained key now; the intervals of
        every other bucket keep theirs.
        """
        if pos + 1 < len(node.keys):
            moved = node.buckets[pos + 1].take_left_upto(node.keys[pos][0])
            if moved:
                self._move(node.buckets[pos], moved)

    def _relocate(self, staged: list[Interval], start: BNode, batch: _Batch) -> None:
        """Bucket staged intervals anew at or below start: start's ancestors
        kept their keys, so none of them holds a key inside one."""
        moved = defaultdict(dict)
        for iv in staged:
            v, slot = locate(start, iv, _coord)
            moved[v.buckets[slot]][iv.id] = iv
        for bucket, by_id in moved.items():
            self._move(bucket, [_Block(by_id)])
            batch.touched.add(bucket.node)

    # ------------------------------------------------------------ coloring

    def _rechain(self, batch: _Batch, *new: int) -> None:
        """Rechain every live touched node, lowest level first.

        Each chain-colors its extremes; of its other intervals only those
        that can wear a color go dummy.  Those are the new ids (an insert
        has no color yet) and the chained ids of the touched and dropped
        nodes, since every move leaves such a node: each goes to the node
        its anchor names now, and an id no longer live has no anchor.  A
        touched node left without keys (an emptied root) holds no interval
        and keeps no chained set.
        """
        chained = self._chained
        old = [chained.pop(v, ()) for v in batch.dropped]
        old += [chained.get(v, ()) if v.keys else chained.pop(v, ()) for v in batch.touched]
        anchor = self._anchor
        dummies = defaultdict(list)
        for iid in chain(new, *old):
            bucket = anchor.get(iid)
            if bucket is not None:
                dummies[bucket.node].append(iid)
        live = [v for v in batch.touched - batch.dropped if v.keys]
        for v in sorted(live, key=lambda v: (v.level, v.keys[0])):
            self._chain_extremes(v, node_extremes(v), dummies.get(v, ()))

    # ------------------------------------------------------------- checks

    def audit(self) -> None:
        """Per-node framework invariants, then endpoint keys, height, anchors."""
        super().audit()
        n = self.state.n
        keys = [k for v in iter_nodes(self.root) for k in v.keys]
        if len(keys) != 2 * n:
            raise InvariantError(f"{len(keys)} keys for {n} intervals")
        if sorted(keys) != _endpoint_keys(self.state.intervals.values()):
            raise InvariantError("tree keys out of sync with live endpoints")
        if n >= 1 and self.height >= 1 and self.t**self.height > n:
            raise InvariantError(f"height {self.height} too large for {n} intervals")
        # the base audit found each live interval anchored at the one
        # bucket holding it; it must be the bucket that locate() picks
        for iid, bucket in self._anchor.items():
            v, slot = locate(self.root, self.state.intervals[iid], _coord)
            if v.buckets[slot] is not bucket:
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
        self.root, _ = build_tree(_endpoint_keys(self.state.intervals.values()), self.t)
        self._anchor.clear()
        self._chained.clear()
        fill = defaultdict(list)
        for iid in sorted(self.state.intervals):
            iv = self.state.intervals[iid]
            v, slot = locate(self.root, iv, _coord)
            bucket = self._anchor[iid] = v.buckets[slot]
            fill[bucket].append(iv)
        for bucket, ivs in fill.items():
            bucket.add_all(ivs)
        for v in iter_nodes(self.root):
            if v.keys:  # only the root of an empty tree has none
                pool = [iv.id for iv in node_pool(v)]
                self._chain_extremes(v, node_extremes(v), pool, rebuild=True)
        self._n_last = n
        self.rebuild_count += 1

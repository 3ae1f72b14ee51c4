"""B-tree skeleton shared by the interval-coloring engines.

Nodes carry, next to their keys, one bucket per key: the bucket at slot i
holds the intervals anchored at this node whose leftmost contained key is
keys[i].  An interval is anchored at the unique highest node holding a key
inside it.  Keys are opaque except for a coordinate accessor, so the same
machinery serves integer universes and endpoint-multiset trees.

Per slot at most two intervals are extreme: the one with the smallest left
endpoint and the one with the largest right endpoint (ties: smaller id on
the left role, larger coverage wins by smaller id on the right role).  The
engines color extremes and park everything else on the dummy color;
`slot_extremes` is the rule.  A slot's `Bucket` keeps its intervals in
blocks, one per batch that arrived together, and each block keeps bounds
on its two extremes, its greatest left end and its least right end.  A
rebalance takes the members with an endpoint beyond a coordinate block by
block: a block wholly beyond it moves as it is, and only a block that
straddles it is split by a scan.  A bucket also names
its owner node, so engines anchor an id at its bucket and a rebalance can
move a whole bucket, blocks and all, by re-pointing it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Callable, Iterator, Sequence

from .core import Interval, InvariantError

__all__ = [
    "BNode",
    "Bucket",
    "build_tree",
    "locate",
    "iter_nodes",
    "node_pool",
    "slot_extremes",
    "node_extremes",
    "validate_structure",
    "min_keys_for_height",
    "max_keys_for_height",
]

Key = Any
CoordFn = Callable[[Key], float]


_left, _right, _id = attrgetter("left"), attrgetter("right"), attrgetter("id")


def _ident(key: Key) -> float:
    return key


class _Block:
    """Intervals that arrived in a bucket together, by id, with bounds.

    `lo` and `hi` bound the block's extremes: no member ranks before `lo`
    by (left, id) or after `hi` by (right, -id).  Either may have left the
    block and still bound it; one that is still a member is exact.  No
    member's left end exceeds `lmax`, and no right end undercuts `rmin`.
    All four are None when unknown.
    """

    __slots__ = ("by_id", "lo", "hi", "lmax", "rmin")

    def __init__(self, by_id: dict[int, Interval], bounds=(None,) * 4) -> None:
        self.by_id = by_id
        self.lo, self.hi, self.lmax, self.rmin = bounds

    def add(self, iv: Interval) -> None:
        self.by_id[iv.id] = iv
        lo = self.lo
        if lo is None:
            if len(self.by_id) == 1:
                self.lo = self.hi = iv
                self.lmax, self.rmin = iv.left, iv.right
            return
        left, right = iv.left, iv.right
        if left < lo.left or (left == lo.left and iv.id < lo.id):
            self.lo = iv
        elif left > self.lmax:
            self.lmax = left
        hi = self.hi
        if right > hi.right or (right == hi.right and iv.id < hi.id):
            self.hi = iv
        elif right < self.rmin:
            self.rmin = right

    def ends(self) -> tuple[Interval, ...]:
        """slot_extremes of the block's members, which are not none; an
        extreme that left is found again by a scan of its end."""
        lo, hi, by_id = self.lo, self.hi, self.by_id
        if lo is None:
            self._rescan()
        else:
            if by_id.get(lo.id) is not lo:
                vals = list(by_id.values())
                lefts = list(map(_left, vals))
                self.lo, self.lmax = _smallest_id_at(vals, lefts, min), max(lefts)
            if by_id.get(hi.id) is not hi:
                vals = list(by_id.values())
                rights = list(map(_right, vals))
                self.hi, self.rmin = _smallest_id_at(vals, rights, max), min(rights)
        lo, hi = self.lo, self.hi
        return (lo,) if lo is hi else (lo, hi)

    def _rescan(self) -> None:
        vals = list(self.by_id.values())
        lefts, rights = list(map(_left, vals)), list(map(_right, vals))
        self.lo, self.lmax = _smallest_id_at(vals, lefts, min), max(lefts)
        self.hi, self.rmin = _smallest_id_at(vals, rights, max), min(rights)

    def _forget(self) -> None:
        self.lo = self.hi = self.lmax = self.rmin = None

    def cut(self, kind: int, x: float) -> _Block | None:
        """Take out the members that `kind` selects at x, as a block: this
        one when its bounds show all go, a new one when some go, None when
        its bounds show none go or none do.  A split leaves both parts this
        block's bounds, tightened by x."""
        if self.lo is None:
            self._rescan()
        lo, hi, lmax, rmin = self.lo, self.hi, self.lmax, self.rmin
        by_id = self.by_id
        if kind == _LEFT_UPTO:
            if lo.left > x:
                return None
            if lmax <= x:
                return self
            taken = {iid: iv for iid, iv in by_id.items() if iv.left <= x}
            bounds = (lo, hi, x, rmin)
        elif kind == _LEFT_ABOVE:
            if lmax <= x:
                return None
            if lo.left > x:
                return self
            taken = {iid: iv for iid, iv in by_id.items() if iv.left > x}
            bounds = (lo, hi, lmax, rmin)
            self.lmax = x
        elif kind == _RIGHT_BELOW:
            if rmin >= x:
                return None
            if hi.right < x:
                return self
            taken = {iid: iv for iid, iv in by_id.items() if iv.right < x}
            bounds = (lo, hi, lmax, rmin)
            self.rmin = x
        else:
            if hi.right < x:
                return None
            if rmin >= x:
                return self
            taken = {iid: iv for iid, iv in by_id.items() if iv.right >= x}
            bounds = (lo, hi, lmax, x)
        if not taken:
            return None
        for iid in taken:
            del by_id[iid]
        return _Block(taken, bounds)


_LEFT_UPTO, _LEFT_ABOVE, _RIGHT_BELOW, _RIGHT_FROM = range(4)

# a bucket holding more blocks than this merges them into its own
_MAX_BLOCKS = 8
# a smaller block joins the bucket's own instead of staying apart
_SMALL_BLOCK = 32


class Bucket(_Block):
    """The intervals of one slot, in blocks, and the node that owns it.

    The bucket is a block itself and may hold more: `adopt` hands it whole
    blocks, of which small ones join its own, `add_all` brings a batch in
    as one block, and `add` joins its own.  A `take_*` call removes the members with an endpoint beyond a
    coordinate and returns them as blocks: a block wholly beyond leaves
    whole, a block wholly short stays untouched, and only a straddling
    block is scanned and split.  So a rebalance costs the blocks it looks
    at and the straddling blocks' members, and the members it moves only
    their anchor writes.  `node` is the node whose `buckets` list holds
    this bucket.
    """

    __slots__ = ("more", "node")

    def __init__(self, node: BNode | None = None) -> None:
        super().__init__({})
        # the blocks beyond its own; a shared empty tuple while there are none
        self.more: list[_Block] | tuple = ()
        self.node = node

    def blocks(self) -> list[_Block]:
        """The bucket's non-empty blocks, its own first."""
        return [self, *self.more] if self.by_id else list(self.more)

    @property
    def members(self) -> dict[int, Interval]:
        """The slot's intervals by id; read-only."""
        if not self.more:
            return self.by_id
        out = dict(self.by_id)
        for blk in self.more:
            out.update(blk.by_id)
        return out

    def size(self) -> int:
        return len(self.by_id) + sum(len(blk.by_id) for blk in self.more)

    def add_all(self, intervals: list[Interval]) -> None:
        """Add many intervals whose ids are not members, as one block."""
        if intervals:
            self.adopt([_Block({iv.id: iv for iv in intervals})])

    def adopt(self, blocks: list[_Block]) -> None:
        """Take in whole blocks that no bucket holds.  An empty bucket makes
        the first its own; a block of fewer than _SMALL_BLOCK members joins
        the bucket's own, and so do all once there are too many."""
        more = None
        for blk in blocks:
            if not self.by_id:
                self.by_id = blk.by_id
                self.lo, self.hi, self.lmax, self.rmin = blk.lo, blk.hi, blk.lmax, blk.rmin
            elif len(blk.by_id) < _SMALL_BLOCK:
                self._join(blk)
            else:
                if more is None:
                    more = list(self.more)
                more.append(blk)
        if more is None:
            return
        if len(more) > _MAX_BLOCKS:
            for blk in more:
                self._join(blk)
            more = ()
        self.more = more

    def _join(self, blk: _Block) -> None:
        """Merge a block into the bucket's own, bounds combined."""
        self.by_id.update(blk.by_id)
        if self.lo is None:
            return
        if blk.lo is None:
            blk._rescan()
        lo, other = self.lo, blk.lo
        if other.left < lo.left or (other.left == lo.left and other.id < lo.id):
            self.lo = other
        hi, other = self.hi, blk.hi
        if other.right > hi.right or (other.right == hi.right and other.id < hi.id):
            self.hi = other
        if blk.lmax > self.lmax:
            self.lmax = blk.lmax
        if blk.rmin < self.rmin:
            self.rmin = blk.rmin

    def discard(self, iid: int) -> Interval | None:
        """Remove member iid and return it; None when it is no member."""
        interval = self.by_id.pop(iid, None)
        if interval is not None:
            if not self.by_id:
                self._forget()
            return interval
        more = self.more
        for i, blk in enumerate(more):
            interval = blk.by_id.pop(iid, None)
            if interval is not None:
                if not blk.by_id:
                    self.more = [*more[:i], *more[i + 1:]] if len(more) > 1 else ()
                return interval
        return None

    def extremes(self) -> tuple[Interval, ...]:
        """slot_extremes of the members, from the blocks' bounds."""
        if not self.more:
            lo, hi, by_id = self.lo, self.hi, self.by_id
            if lo is not None and by_id.get(lo.id) is lo and by_id.get(hi.id) is hi:
                return (lo,) if lo is hi else (lo, hi)
            return self.ends() if by_id else ()
        lo = hi = None
        for blk in self.blocks():
            ext = blk.ends()
            a, b = ext[0], ext[-1]
            if lo is None or (a.left, a.id) < (lo.left, lo.id):
                lo = a
            if hi is None or (b.right, -b.id) > (hi.right, -hi.id):
                hi = b
        return (lo,) if lo is hi else (lo, hi)

    def take_left_upto(self, x: float) -> list[_Block]:
        """Remove and return the members with left <= x."""
        return self._take(_LEFT_UPTO, x)

    def take_left_above(self, x: float) -> list[_Block]:
        """Remove and return the members with left > x."""
        return self._take(_LEFT_ABOVE, x)

    def take_right_below(self, x: float) -> list[_Block]:
        """Remove and return the members with right < x."""
        return self._take(_RIGHT_BELOW, x)

    def take_right_from(self, x: float) -> list[_Block]:
        """Remove and return the members with right >= x."""
        return self._take(_RIGHT_FROM, x)

    def release(self) -> list[_Block]:
        """Empty the bucket and return its blocks."""
        blocks = [self._own()] if self.by_id else []
        blocks += self.more
        self.more = ()
        return blocks

    def _own(self) -> _Block:
        """Hand out the bucket's own block, leaving it empty."""
        own = _Block(self.by_id, (self.lo, self.hi, self.lmax, self.rmin))
        self.by_id = {}
        self._forget()
        return own

    def _take(self, kind: int, x: float) -> list[_Block]:
        taken: list[_Block] = []
        if self.by_id:
            part = self.cut(kind, x)
            if part is self:
                taken.append(self._own())
            elif part is not None:
                taken.append(part)
                if not self.by_id:
                    self._forget()
        more = self.more
        if more:
            kept = []
            for blk in more:
                part = blk.cut(kind, x)
                if part is not None:
                    taken.append(part)
                if part is not blk and blk.by_id:
                    kept.append(blk)
            self.more = kept or ()
        return taken

    def audit(self) -> None:
        """Raise InvariantError unless every extra block is non-empty and
        each known bound bounds its block."""
        for blk in self.more:
            if not blk.by_id:
                raise InvariantError("empty block in a bucket")
        for blk in self.blocks():
            if blk.lo is None:
                continue
            exact = _Block(blk.by_id)
            exact._rescan()
            if not (_left_key(blk.lo) <= _left_key(exact.lo)
                    and _right_key(blk.hi) >= _right_key(exact.hi)
                    and blk.lmax >= exact.lmax and blk.rmin <= exact.rmin):
                raise InvariantError("block bounds stale")


_left_key = attrgetter("left", "id")


def _right_key(interval: Interval) -> tuple[float, int]:
    return interval.right, -interval.id


class BNode:
    __slots__ = ("keys", "children", "buckets", "level")

    def __init__(self, level: int) -> None:
        self.keys: list[Key] = []
        self.children: list[BNode] = []
        self.buckets: list[Bucket] = []
        self.level = level

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # debugging aid only
        return f"BNode(level={self.level}, keys={self.keys!r})"


def min_keys_for_height(height: int, t: int) -> int:
    """Fewest keys of a non-root subtree of the given height."""
    return t ** (height + 1) - 1


def max_keys_for_height(height: int, t: int) -> int:
    return (2 * t) ** (height + 1) - 1


def build_tree(keys: Sequence[Key], t: int) -> tuple[BNode, int]:
    """Bulk-build a valid B-tree of minimal height over sorted keys."""
    if t < 2:
        raise ValueError("minimum degree t must be at least 2")
    n = len(keys)
    height = 0
    while max_keys_for_height(height, t) < n:
        height += 1

    def build(chunk: Sequence[Key], level: int, is_root: bool) -> BNode:
        node = BNode(level)
        if level == 0:
            node.keys = list(chunk)
            node.buckets = [Bucket(node) for _ in node.keys]
            return node
        cap = max_keys_for_height(level - 1, t)
        m = len(chunk)
        c = -(-(m + 1) // (cap + 1))
        c = max(c, 2 if is_root else t)
        c = min(c, 2 * t)
        inner = m - (c - 1)
        base, extra = divmod(inner, c)
        pos = 0
        for i in range(c):
            size = base + (1 if i < extra else 0)
            if not (min_keys_for_height(level - 1, t) <= size <= cap):
                raise InvariantError(
                    f"bulk build infeasible: child of height {level - 1} gets {size} keys"
                )
            node.children.append(build(chunk[pos : pos + size], level - 1, False))
            pos += size
            if i < c - 1:
                node.keys.append(chunk[pos])
                pos += 1
        node.buckets = [Bucket(node) for _ in node.keys]
        return node

    return build(list(keys), height, True), height


def locate(root: BNode, interval: Interval, coord: CoordFn = _ident) -> tuple[BNode, int]:
    """Find the anchor: highest node with a contained key, leftmost such key.

    The caller guarantees some key of the tree lies inside the interval.
    """
    key = None if coord is _ident else coord
    left, right = interval.left, interval.right
    v = root
    while True:
        keys = v.keys
        i = bisect_left(keys, left, key=key)
        if i < len(keys) and coord(keys[i]) <= right:
            return v, i
        if v.is_leaf:
            raise InvariantError(f"no key contained in [{interval.left}, {interval.right}]")
        v = v.children[i]


def iter_nodes(root: BNode) -> Iterator[BNode]:
    stack = [root]
    while stack:
        v = stack.pop()
        yield v
        stack.extend(reversed(v.children))


def node_pool(node: BNode) -> list[Interval]:
    return [iv for bucket in node.buckets for blk in bucket.blocks() for iv in blk.by_id.values()]


def slot_extremes(members: dict[int, Interval]) -> tuple[Interval, ...]:
    """Left and right extreme of one slot's intervals; one may be both.

    The left extreme is the least by (left, id), the right one the greatest
    by (right, -id).  Each is found by passes in C over the endpoint list;
    only a tied endpoint needs a pass in Python.
    """
    if len(members) < 2:
        return tuple(members.values())
    vals = list(members.values())
    lo = _smallest_id_at(vals, list(map(_left, vals)), min)
    hi = _smallest_id_at(vals, list(map(_right, vals)), max)
    return (lo,) if lo is hi else (lo, hi)


def _smallest_id_at(vals: list[Interval], ends: list[float], pick) -> Interval:
    """Of the intervals whose endpoint in `ends` is pick(ends), the smallest id."""
    x = pick(ends)
    if ends.count(x) == 1:
        return vals[ends.index(x)]
    return min((iv for iv, e in zip(vals, ends) if e == x), key=_id)


def node_extremes(node: BNode) -> list[Interval]:
    out: list[Interval] = []
    for bucket in node.buckets:
        if bucket.by_id or bucket.more:
            out.extend(bucket.extremes())
    return out


def validate_structure(root: BNode, t: int) -> None:
    """Check key counts, fanout, level bookkeeping, and search order."""
    if not root.keys:
        if not root.is_leaf:
            raise InvariantError("empty root in a non-empty tree")
        return

    def walk(v: BNode, lo: Key | None, hi: Key | None, is_root: bool) -> None:
        if not is_root and not (t - 1 <= len(v.keys) <= 2 * t - 1):
            raise InvariantError(f"node key count {len(v.keys)} outside [{t - 1}, {2 * t - 1}]")
        if is_root and not (1 <= len(v.keys) <= 2 * t - 1):
            raise InvariantError(f"root key count {len(v.keys)} outside [1, {2 * t - 1}]")
        if len(v.buckets) != len(v.keys):
            raise InvariantError("bucket list out of sync with keys")
        for a, b in zip(v.keys, v.keys[1:]):
            if not a < b:
                raise InvariantError(f"keys out of order: {a!r} !< {b!r}")
        if lo is not None and not lo < v.keys[0]:
            raise InvariantError("subtree key below separator")
        if hi is not None and not v.keys[-1] < hi:
            raise InvariantError("subtree key above separator")
        if v.is_leaf:
            if v.level != 0:
                raise InvariantError(f"leaf carries level {v.level}")
            return
        if len(v.children) != len(v.keys) + 1:
            raise InvariantError("internal node fanout mismatch")
        for child in v.children:
            if child.level != v.level - 1:
                raise InvariantError("child level is not parent level - 1")
        bounds = [lo, *v.keys, hi]
        for i, child in enumerate(v.children):
            walk(child, bounds[i], bounds[i + 1], False)

    walk(root, None, None, True)

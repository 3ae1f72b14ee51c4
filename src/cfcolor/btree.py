"""B-tree skeleton shared by the interval-coloring engines.

Nodes carry, next to their keys, one bucket per key: the bucket at slot i
holds the intervals anchored at this node whose leftmost contained key is
keys[i].  An interval is anchored at the unique highest node holding a key
inside it.  Keys are opaque except for a coordinate accessor, so the same
machinery serves integer universes and endpoint-multiset trees.

Per slot at most two intervals are extreme: the one with the smallest left
endpoint and the one with the largest right endpoint (ties: smaller id on
the left role, larger coverage wins by smaller id on the right role).  The
engines color extremes and park everything else on the dummy color.  Each
slot's `Bucket` caches its extremes; `slot_extremes` stays the one rule.
A bucket also names its owner node, so engines anchor an id at its bucket
and a rebalance can move a whole bucket, cache and all, by re-pointing it.
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


class Bucket:
    """The intervals of one slot, by id, with their cached extremes and owner.

    `node` is the node whose `buckets` list holds this bucket.  `lo`/`hi`
    are None when unknown.  Otherwise no member ranks before `lo` by
    (left, id) or before `hi` by (right, -id), so each is the slot's
    extreme while still a member.  Removals are plain dict operations on
    `members`; a removed extreme makes `extremes` rescan.  Bulk moves in go
    through one `update` call per receiving bucket.
    """

    __slots__ = ("members", "lo", "hi", "node")

    def __init__(self, node: BNode | None = None) -> None:
        self.members: dict[int, Interval] = {}
        self.lo: Interval | None = None
        self.hi: Interval | None = None
        self.node = node

    def add(self, interval: Interval) -> None:
        self.members[interval.id] = interval
        lo, hi = self.lo, self.hi
        if lo is not None:
            if (interval.left, interval.id) < (lo.left, lo.id):
                self.lo = interval
            if (interval.right, -interval.id) > (hi.right, -hi.id):
                self.hi = interval

    def update(self, moved: dict[int, Interval]) -> None:
        """One dict update of many new members.

        A cache that still holds folds in the extremes of `moved`, one
        min/max over the moved members; a stale one becomes unknown.
        """
        lo, hi, members = self.lo, self.hi, self.members
        if lo is not None and not (members.get(lo.id) is lo and members.get(hi.id) is hi):
            self.lo = self.hi = lo = None
        members.update(moved)
        if lo is not None and moved:
            ext = slot_extremes(moved)
            a, b = ext[0], ext[-1]
            if (a.left, a.id) < (lo.left, lo.id):
                self.lo = a
            if (b.right, -b.id) > (hi.right, -hi.id):
                self.hi = b

    def extremes(self) -> tuple[Interval, ...]:
        """slot_extremes of the members, from the cache when it still holds."""
        lo, hi, members = self.lo, self.hi, self.members
        if lo is not None and members.get(lo.id) is lo and members.get(hi.id) is hi:
            return (lo,) if lo is hi else (lo, hi)
        ext = slot_extremes(members)
        self.lo, self.hi = (ext[0], ext[-1]) if ext else (None, None)
        return ext


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
    return [iv for bucket in node.buckets for iv in bucket.members.values()]


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
        if bucket.members:
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

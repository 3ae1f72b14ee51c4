"""Online coloring of nested interval families, no recoloring ever.

Intervals arrive online and must be pairwise nested or disjoint.  They
form a containment forest: an interval contained in an existing one gets
the dummy color and hangs below its minimal container; an interval that
is not contained becomes a new root, adopts the roots it swallows, and
receives the smallest positive label that keeps every forest path
conflict-free.  Labels map to colors as label c -> (0, c-1).

A label c is unsafe exactly when some node X in an adopted subtree sees
only c appearing once on its path to the adopted root: wrapping that path
with another c would kill X's last unique color.  For trees whose labeled
nodes form a single ancestor chain (always the case when every adoption
swallows at most one tree) the test reduces to interval arithmetic over
label positions along the chain: label u is unique at chain position p
iff p lies in the window (second-to-last occurrence of u, last occurrence
of u], so c is unsafe iff its window pokes out of the union of the other
windows.  Trees that ever adopt two roots at once are marked branched and
fall back to a depth-first scan.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import DUMMY, Color, ColoringState, EngineError, Interval, InvariantError

__all__ = ["OnlineNestedEngine", "nested_lowerbound_instance"]


class _Node:
    __slots__ = ("interval", "label", "parent", "children", "occ", "top", "branched")

    def __init__(self, interval: Interval) -> None:
        self.interval = interval
        self.label = 0
        self.parent: _Node | None = None
        self.children: list[_Node] = []
        # per-tree data, meaningful only while this node is a root
        self.occ: dict[int, tuple[int | None, int]] | None = None
        self.top = 0
        self.branched = False


def _window_feasible(occ: dict[int, tuple[int | None, int]], c: int) -> bool:
    """True if label c stays safe when the whole chain gains one more c."""
    if c not in occ:
        return True
    s, last = occ[c]
    lo = 0 if s is None else s + 1
    others = sorted(
        ((0 if s2 is None else s2 + 1), l2) for u, (s2, l2) in occ.items() if u != c
    )
    cover = lo
    for a, b in others:
        if a > cover:
            break
        if b >= cover:
            cover = b + 1
    return cover > last


def _dfs_badset(root: _Node, badset: set[int]) -> None:
    """Collect labels that are the only unique one on some root path."""
    counts: dict[int, int] = {}
    uniq: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        lab = node.label
        if done:
            if lab:
                counts[lab] -= 1
                if counts[lab] == 1:
                    uniq.add(lab)
                elif counts[lab] == 0:
                    uniq.discard(lab)
            continue
        if lab:
            counts[lab] = counts.get(lab, 0) + 1
            if counts[lab] == 1:
                uniq.add(lab)
            else:
                uniq.discard(lab)
        if len(uniq) == 1:
            badset.add(next(iter(uniq)))
        stack.append((node, True))
        for child in node.children:
            stack.append((child, False))


class OnlineNestedEngine:
    """Insert-only engine for families of pairwise nested/disjoint intervals."""

    def __init__(self) -> None:
        self.state = ColoringState()
        self._nodes: dict[int, _Node] = {}
        self._roots: list[_Node] = []  # pairwise disjoint, sorted by left

    # ------------------------------------------------------------- helpers

    def _partition(self, nodes: list[_Node], interval: Interval):
        """Among disjoint sorted siblings: container of interval, or the
        contiguous run it swallows.  Raises if the family stops being nested."""
        lefts = [nd.interval.left for nd in nodes]
        idx = bisect_left(lefts, interval.left) - 1
        if idx >= 0:
            cand = nodes[idx].interval
            if cand.right >= interval.left:
                if cand.contains_interval(interval):
                    return nodes[idx], None
                raise EngineError(
                    f"interval {interval.id} partially overlaps {nodes[idx].interval.id}"
                )
        a = bisect_left(lefts, interval.left)
        if a < len(nodes) and nodes[a].interval.contains_interval(interval):
            return nodes[a], None
        b = a
        while b < len(nodes) and nodes[b].interval.left <= interval.right:
            if nodes[b].interval.right > interval.right:
                raise EngineError(
                    f"interval {interval.id} partially overlaps {nodes[b].interval.id}"
                )
            b += 1
        return None, (a, b)

    def _placement(self, interval: Interval):
        """Parent node (None at the top) and the sibling run interval swallows.

        Raises EngineError if the family would stop being nested; changes
        nothing.
        """
        parent = None
        while True:
            siblings = self._roots if parent is None else parent.children
            container, run = self._partition(siblings, interval)
            if container is None:
                return parent, run
            parent = container

    # ------------------------------------------------------------- updates

    def insert(self, interval: Interval) -> None:
        parent, (a, b) = self._placement(interval)
        self.state.begin_insert(interval)
        node = _Node(interval)
        self._nodes[interval.id] = node
        siblings = self._roots if parent is None else parent.children
        adopted = siblings[a:b]
        if parent is None:
            node.label = self._choose_label(adopted)
        for child in adopted:
            child.parent = node
        node.children = adopted
        node.parent = parent
        siblings[a:b] = [node]
        if parent is not None:
            self.state.set_color(interval.id, DUMMY)
            return
        self._merge_tree_data(node, adopted, node.label)
        self.state.set_color(interval.id, Color(0, node.label - 1))

    def delete(self, iid: int) -> None:
        raise EngineError("the nested greedy engine is insert-only")

    def _choose_label(self, adopted: list[_Node]) -> int:
        if not adopted:
            return 1
        if len(adopted) == 1 and not adopted[0].branched:
            occ = adopted[0].occ or {}
            c = 1
            while not _window_feasible(occ, c):
                c += 1
            return c
        badset: set[int] = set()
        for root in adopted:
            _dfs_badset(root, badset)
        c = 1
        while c in badset:
            c += 1
        return c

    def _merge_tree_data(self, node: _Node, adopted: list[_Node], label: int) -> None:
        if len(adopted) == 1 and not adopted[0].branched:
            old = adopted[0]
            occ = old.occ if old.occ is not None else {}
            prev = occ.get(label)
            occ[label] = (prev[1] if prev else None, old.top)
            node.occ = occ
            node.top = old.top + 1
            old.occ = None
        elif not adopted:
            node.occ = {label: (None, 0)}
            node.top = 1
        else:
            node.branched = True
        for old in adopted:
            old.occ = None

    # ------------------------------------------------------------- queries

    def label_of(self, iid: int) -> int:
        return self._nodes[iid].label

    def audit(self) -> None:
        """Forest shape, laminarity, and path conflict-freeness."""
        for node in self._nodes.values():
            for child in node.children:
                if child.parent is not node:
                    raise InvariantError("parent pointer out of sync")
                if not node.interval.contains_interval(child.interval):
                    raise InvariantError("child escapes its parent")
            for x, y in zip(node.children, node.children[1:]):
                if x.interval.right >= y.interval.left and not (
                    x.interval == y.interval
                ):
                    raise InvariantError("siblings overlap")
        for node in self._nodes.values():
            counts: dict[int, int] = {}
            walk: _Node | None = node
            while walk is not None:
                if walk.label:
                    counts[walk.label] = counts.get(walk.label, 0) + 1
                walk = walk.parent
            if node.label or counts:
                if not any(k == 1 for k in counts.values()):
                    raise InvariantError(
                        f"no unique label on the root path of {node.interval.id}"
                    )


def nested_lowerbound_instance(n: int) -> list[Interval]:
    """n intervals, each containing all previous ones."""
    return [Interval(i, -i, i) for i in range(1, n + 1)]

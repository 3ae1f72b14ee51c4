"""Bulk-built B-tree skeleton: shape, ordering, anchoring, bucket extremes."""

import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcolor import Interval, btree
from cfcolor.btree import (
    BNode,
    Bucket,
    build_tree,
    iter_nodes,
    locate,
    max_keys_for_height,
    min_keys_for_height,
    node_extremes,
    slot_extremes,
    validate_structure,
)
from cfcolor.engine_dynamic import _land, _take_containing, _take_missing


def inorder(node):
    if node.is_leaf:
        return list(node.keys)
    out = []
    for i, child in enumerate(node.children):
        out.extend(inorder(child))
        if i < len(node.keys):
            out.append(node.keys[i])
    return out


def minimal_height(n, t):
    h = 0
    while max_keys_for_height(h, t) < n:
        h += 1
    return h


class TestBuild:
    def test_single_key_single_node(self):
        root, height = build_tree([0], 2)
        assert height == 0 and root.is_leaf and root.keys == [0]

    def test_empty(self):
        root, height = build_tree([], 2)
        assert height == 0 and root.keys == []
        validate_structure(root, 2)

    def test_u16_t2_shape(self):
        root, height = build_tree(range(16), 2)
        assert height == 2
        assert root.keys == [8]
        assert [c.keys for c in root.children] == [[2, 5], [12]]
        assert [c.keys for c in root.children[0].children] == [[0, 1], [3, 4], [6, 7]]
        validate_structure(root, 2)

    def test_u64_t4_height(self):
        root, height = build_tree(range(64), 4)
        assert height == 2
        validate_structure(root, 4)

    @pytest.mark.parametrize("t,u,h", [(2, 1024, 5), (2, 4096, 6), (8, 4096, 3), (32, 4096, 2)])
    def test_heights_match_capacity_formula(self, t, u, h):
        root, height = build_tree(range(u), t)
        assert height == h == minimal_height(u, t)
        validate_structure(root, t)
        assert inorder(root) == list(range(u))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 400), st.integers(2, 6))
    def test_every_size_builds_valid_minimal_tree(self, n, t):
        root, height = build_tree(range(n), t)
        validate_structure(root, t)
        assert height == minimal_height(n, t)
        assert inorder(root) == list(range(n))
        for v in iter_nodes(root):
            if v.is_leaf:
                assert v.level == 0

    def test_capacity_formulas(self):
        assert min_keys_for_height(0, 2) == 1
        assert min_keys_for_height(1, 3) == 8
        assert max_keys_for_height(0, 2) == 3
        assert max_keys_for_height(2, 2) == 63


class TestLocate:
    def setup_method(self):
        self.root, _ = build_tree(range(16), 2)

    def anchor_of(self, left, right):
        v, slot = locate(self.root, Interval(99, left, right))
        return v.level, v.keys[slot]

    def test_spanning_root_key(self):
        assert self.anchor_of(7, 9) == (2, 8)

    def test_left_leaf(self):
        assert self.anchor_of(0, 1) == (0, 0)

    def test_middle_of_left_subtree(self):
        assert self.anchor_of(3, 7) == (1, 5)

    def test_slot_is_leftmost_contained_key(self):
        assert self.anchor_of(2, 7) == (1, 2)

    def test_whole_universe_lands_at_root(self):
        assert self.anchor_of(0, 15) == (2, 8)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 15))
    def test_anchor_is_highest_node_with_contained_key(self, a, b):
        if a == b:
            b = a + 1
        lo, hi = min(a, b), max(a, b)
        iv = Interval(99, lo, hi)
        v, slot = locate(self.root, iv)
        assert lo <= v.keys[slot] <= hi
        assert all(k < lo or k > hi for k in v.keys[:slot])
        # no strictly higher node has a contained key
        for w in iter_nodes(self.root):
            if w.level > v.level:
                assert not any(lo <= k <= hi for k in w.keys)


class TestExtremes:
    def test_empty_bucket(self):
        assert slot_extremes({}) == ()

    def test_one_interval_takes_both_roles(self):
        a = Interval(1, 0, 10)
        assert slot_extremes({1: a}) == (a,)

    def test_nested_inner_is_shadowed(self):
        a, b = Interval(1, 0, 10), Interval(2, 2, 5)
        assert slot_extremes({1: a, 2: b}) == (a,)

    def test_crossing_pair(self):
        a, b = Interval(1, 0, 5), Interval(2, 2, 8)
        assert slot_extremes({1: a, 2: b}) == (a, b)

    def test_tie_on_left_prefers_smaller_id(self):
        a, b = Interval(5, 0, 4), Interval(3, 0, 4)
        ext = slot_extremes({5: a, 3: b})
        assert [iv.id for iv in ext] == [3]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 3)), max_size=12),
           st.randoms(use_true_random=False))
    def test_matches_the_key_rule(self, spans, rng):
        """Against min/max under the (left, id) and (right, -id) keys, with
        ties on both ends and members in no id order."""
        ids = rng.sample(range(100), len(spans))
        members = {i: Interval(i, a, a + d) for i, (a, d) in zip(ids, spans)}
        if not members:
            assert slot_extremes(members) == ()
            return
        lo = min(members.values(), key=lambda iv: (iv.left, iv.id))
        hi = max(members.values(), key=lambda iv: (iv.right, -iv.id))
        assert slot_extremes(members) == ((lo,) if lo is hi else (lo, hi))

    def test_node_extremes_concatenate_slots(self):
        root, _ = build_tree(range(3), 2)
        assert root.is_leaf and len(root.buckets) == 3
        root.buckets[0].add(Interval(1, 0, 1))
        root.buckets[2].add(Interval(2, 2, 2.5))
        ids = [iv.id for iv in node_extremes(root)]
        assert ids == [1, 2]


# Buckets hold intervals that contain their key; here every span contains
# coordinate 4, and the small integer ends tie often.
_spans = st.tuples(st.integers(0, 4), st.integers(4, 8)).filter(lambda p: p[0] < p[1])
_coords = st.integers(-1, 9)
_kinds = st.sampled_from(["left_upto", "left_above", "right_below", "right_from",
                          "containing", "missing", "land"])
_moves = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1), _spans),
    st.tuples(st.just("remove"), st.integers(0, 1), st.integers(0, 30)),
    st.tuples(st.just("bulk_add"), st.integers(0, 1), st.lists(_spans, max_size=5)),
    st.tuples(_kinds, st.integers(0, 1), st.tuples(_coords, st.booleans())),
)
_steps = st.lists(st.lists(_moves, min_size=1, max_size=3), max_size=25)

# the dict filter each range query must match
_FILTERS = {
    "left_upto": lambda iv, x: iv.left <= x,
    "left_above": lambda iv, x: iv.left > x,
    "right_below": lambda iv, x: iv.right < x,
    "right_from": lambda iv, x: iv.right >= x,
    "containing": lambda iv, x: iv.left <= x <= iv.right,
    "missing": lambda iv, x: not iv.left <= x <= iv.right,
}


def ids(blocks):
    return sorted(iid for blk in blocks for iid in blk.by_id)


def one_slot_node(bucket, key=4):
    """A node whose one key, at coordinate `key`, holds `bucket`."""
    node = BNode(0)
    node.keys, node.buckets = [(key, 0, 0)], [bucket]
    bucket.node = node
    return node


class TestBucket:
    """A Bucket's blocks, bounds and range takes against plain dict filters
    and the slot_extremes scan."""

    def test_add_keeps_tie_rules(self):
        b = Bucket()
        b.add(Interval(5, 0, 4))
        assert [iv.id for iv in b.extremes()] == [5]
        for iv in (Interval(3, 0, 4), Interval(4, 1, 4)):
            b.add(iv)
        assert [iv.id for iv in b.extremes()] == [3]
        assert b.extremes() == slot_extremes(b.members)

    def test_removed_extreme_is_rescanned(self):
        b = Bucket()
        b.add(Interval(1, 0, 3))
        b.add(Interval(2, 1, 5))
        b.add(Interval(3, 2, 4))
        assert b.discard(1) == Interval(1, 0, 3)
        assert b.discard(1) is None
        assert [iv.id for iv in b.extremes()] == [2]

    def test_reused_id_is_not_mistaken_for_the_cached_extreme(self):
        b = Bucket()
        b.add(Interval(1, 0, 3))
        b.add(Interval(2, 1, 5))
        assert [iv.id for iv in b.extremes()] == [1, 2]
        b.discard(1)
        b.add(Interval(1, 2, 3))
        assert b.extremes() == slot_extremes(b.members)
        b.audit()

    def test_take_moves_whole_blocks_untouched(self):
        n = btree._SMALL_BLOCK  # blocks this large stay apart
        b = Bucket()
        b.add_all([Interval(i, 0, 5 + i / n) for i in range(n)])
        b.add_all([Interval(n + i, 1, 8 + i / n) for i in range(n)])
        near, far = b.blocks()
        taken = b.take_right_from(7)
        # the far block lies wholly beyond 7 and leaves as it is; the near
        # one lies wholly short and stays
        assert taken == [far] and taken[0].by_id is far.by_id
        assert b.blocks() == [b] and b.by_id is near.by_id
        assert ids(b.take_right_from(10)) == []
        b.audit()

    def test_small_blocks_join_the_bucket(self):
        b = Bucket()
        b.add_all([Interval(1, 0, 5), Interval(2, 1, 6)])
        b.add_all([Interval(3, 2, 9)])
        assert b.blocks() == [b] and sorted(b.members) == [1, 2, 3]
        assert [iv.id for iv in b.extremes()] == [1, 3]
        b.audit()

    def test_too_many_blocks_join_the_bucket(self):
        n, cap = btree._SMALL_BLOCK, btree._MAX_BLOCKS
        b = Bucket()
        members = []
        # the extremes lie in middle blocks: least left in block 4,
        # greatest right in block 6
        lefts, spans = (3, 5, 2, 7, 0, 6, 4, 8, 1, 9), (2, 3, 4, 2, 3, 2, 9, 2, 3, 2)
        for k in range(cap + 2):
            blk = [Interval(k * n + i, lefts[k] + i / n, lefts[k] + spans[k] + i / n)
                   for i in range(n)]
            members += blk
            b.add_all(blk)
            if k <= cap:
                assert len(b.more) == k
        # the tenth block makes one too many: all join the bucket's own
        assert b.more == ()
        assert b.size() == len(members) == (cap + 2) * n
        assert b.extremes() == slot_extremes({iv.id: iv for iv in members})
        assert [iv.id for iv in b.extremes()] == [4 * n, 6 * n + n - 1]
        b.audit()

    def test_straddling_block_is_split_with_its_bounds(self):
        b = Bucket()
        b.add_all([Interval(1, 0, 5), Interval(2, 1, 9), Interval(3, 2, 6)])
        assert [iv.id for iv in b.extremes()] == [1, 2]
        (part,) = b.take_right_from(6)
        assert sorted(part.by_id) == [2, 3] and sorted(b.members) == [1]
        # the bounds carried over still bound both parts
        assert part.hi.id == 2 and b.hi.id == 2
        b.audit()
        assert [iv.id for iv in b.extremes()] == [1]
        assert part.ends() == slot_extremes(part.by_id)

    @settings(max_examples=300, deadline=None)
    @given(_steps, st.sampled_from([1, 3, btree._SMALL_BLOCK]))
    def test_cache_matches_scan_after_every_step(self, steps, small):
        """Single adds, removals, bulk adds, and every range query of the
        engine: the taken ids equal the dict filter, and go to the other
        bucket whole or are dropped.  After each step every bucket's
        extremes equal the slot_extremes scan and its bounds bound it.
        Smaller blocks than `small` join the bucket's own, so the tiny
        batches here also meet buckets of many blocks."""
        with patch.object(btree, "_SMALL_BLOCK", small):
            self.run_steps(steps)

    def run_steps(self, steps):
        buckets = [Bucket(), Bucket()]
        model = [{}, {}]
        next_id = 0

        def fresh(span):
            nonlocal next_id
            next_id += 1
            return Interval(next_id, *span)

        for step in steps:
            for kind, k, arg in step:
                b, m = buckets[k], model[k]
                if kind == "add":
                    iv = fresh(arg)
                    b.add(iv)
                    m[iv.id] = iv
                elif kind == "remove":
                    iid = sorted(m)[arg % len(m)] if m else arg
                    assert b.discard(iid) is m.pop(iid, None)
                elif kind == "bulk_add":
                    ivs = [fresh(span) for span in arg]
                    b.add_all(ivs)
                    m.update((iv.id, iv) for iv in ivs)
                else:
                    x, move = arg
                    if kind == "land":
                        taken = self.check_land(b, m, x)
                    else:
                        taken = self.take(kind, b, x)
                        assert ids(taken) == sorted(
                            iid for iid, iv in m.items() if _FILTERS[kind](iv, x))
                    moved = {iid: m.pop(iid) for iid in ids(taken)}
                    if move:
                        buckets[1 - k].adopt(taken)
                        model[1 - k].update(moved)
            for b, m in zip(buckets, model):
                assert b.members == m and b.size() == len(m)
                b.audit()
                assert b.extremes() == slot_extremes(m)

    @staticmethod
    def take(kind, b, x):
        if kind == "containing":
            return _take_containing(one_slot_node(b), x)
        if kind == "missing":
            return _take_missing(b, 4, x)
        return getattr(b, "take_" + kind)(x)

    @staticmethod
    def check_land(b, m, x):
        """The _land partition: members reaching the parent's next key at x
        stay, the others sink to the child slot of their leftmost key there;
        those bound for the child's last slot stay in the bucket."""
        parent, child = BNode(1), BNode(0)
        parent.keys = [(x, 0, 0)]
        child.keys = [(c, 0, 0) for c in (1, 2, 4)]
        stay, sink = _land(b, parent, 0, child, keep=2)
        assert ids(stay) == sorted(iid for iid, iv in m.items() if iv.right >= x)
        for slot, blocks in sink.items():
            lo = (-math.inf, 1, 2)[slot]
            assert ids(blocks) == sorted(iid for iid, iv in m.items()
                                         if iv.right < x and lo < iv.left <= (1, 2, 4)[slot])
        assert 2 not in sink
        return [*stay, *(blk for blocks in sink.values() for blk in blocks)]

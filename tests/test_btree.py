"""Bulk-built B-tree skeleton: shape, ordering, anchoring, bucket extremes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcolor import Interval
from cfcolor.btree import (
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


# small coordinates, so that lefts and rights tie often
_spans = st.tuples(st.integers(0, 4), st.integers(1, 4)).map(lambda p: (p[0], p[0] + p[1]))
_moves = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1), _spans),
    st.tuples(st.just("remove"), st.integers(0, 1), st.integers(0, 30)),
    st.tuples(st.just("bulk_add"), st.integers(0, 1), st.lists(_spans, max_size=5)),
    st.tuples(st.just("take"), st.integers(0, 1), st.integers(0, 8)),
    st.tuples(st.just("move"), st.integers(0, 1), st.integers(0, 8)),
)
# a step of several moves leaves the cache unread in between, so adds
# meet cached extremes that have already left
_steps = st.lists(st.lists(_moves, min_size=1, max_size=3), max_size=25)


class TestBucket:
    """The cached extremes of a Bucket against the slot_extremes scan."""

    def test_add_keeps_tie_rules(self):
        b = Bucket()
        b.add(Interval(5, 0, 4))
        assert [iv.id for iv in b.extremes()] == [5]  # now cached
        for iv in (Interval(3, 0, 4), Interval(4, 1, 4)):
            b.add(iv)
        assert (b.lo.id, b.hi.id) == (3, 3)
        assert [iv.id for iv in b.extremes()] == [3]
        assert b.extremes() == slot_extremes(b.members)

    def test_removed_extreme_is_rescanned(self):
        b = Bucket()
        b.add(Interval(1, 0, 3))
        b.add(Interval(2, 1, 5))
        b.add(Interval(3, 2, 4))
        del b.members[1]
        assert [iv.id for iv in b.extremes()] == [2]

    def test_reused_id_is_not_mistaken_for_the_cached_extreme(self):
        b = Bucket()
        b.add(Interval(1, 0, 3))
        b.add(Interval(2, 1, 5))
        assert [iv.id for iv in b.extremes()] == [1, 2]
        b.members[1] = Interval(1, 2, 3)
        assert b.extremes() == slot_extremes(b.members)

    def test_update_folds_into_a_known_cache(self):
        b = Bucket()
        b.add(Interval(1, 2, 5))
        b.extremes()
        b.update({2: Interval(2, 1, 3), 3: Interval(3, 3, 9), 4: Interval(4, 2, 4)})
        assert (b.lo.id, b.hi.id) == (2, 3)
        assert b.extremes() == slot_extremes(b.members)

    def test_update_into_a_stale_cache_leaves_it_unknown(self):
        b = Bucket()
        b.add(Interval(1, 0, 3))
        b.add(Interval(2, 1, 5))
        b.extremes()
        del b.members[1]
        b.update({3: Interval(3, 2, 4)})
        assert b.lo is None and b.hi is None
        assert [iv.id for iv in b.extremes()] == [2]

    @settings(max_examples=300, deadline=None)
    @given(_steps)
    def test_cache_matches_scan_after_every_step(self, steps):
        """Single adds, plain dict removals, and bulk moves in through one
        update call per receiving bucket.  A bulk update into a cache that
        still holds keeps it known, and equal to the scan without a rescan."""
        buckets = [Bucket(), Bucket()]
        next_id = 0

        def fresh(span):
            nonlocal next_id
            next_id += 1
            return Interval(next_id, *span)

        def holds(b):
            return b.lo is not None and b.members.get(b.lo.id) is b.lo \
                and b.members.get(b.hi.id) is b.hi

        def bulk(b, moved):
            held = holds(b)
            b.update(moved)
            if held:
                ext = slot_extremes(b.members)
                assert (b.lo, b.hi) == (ext[0], ext[-1])

        for step in steps:
            for kind, k, arg in step:
                b, other = buckets[k], buckets[1 - k]
                if kind == "add":
                    b.add(fresh(arg))
                elif kind == "remove" and b.members:
                    del b.members[sorted(b.members)[arg % len(b.members)]]
                elif kind == "bulk_add":
                    bulk(b, {iv.id: iv for iv in map(fresh, arg)})
                elif kind == "take":
                    for iid in [iid for iid, iv in b.members.items() if iv.contains(arg)]:
                        b.members.pop(iid)
                elif kind == "move":
                    moved = [iid for iid, iv in b.members.items() if iv.right >= arg]
                    bulk(other, {iid: b.members.pop(iid) for iid in moved})
            for bucket in buckets:
                assert bucket.extremes() == slot_extremes(bucket.members)

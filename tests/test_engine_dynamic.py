"""Dynamic endpoint B-tree engine: rebalancing, anchoring, coloring."""

import random

import pytest

from cfcolor import DUMMY, Interval, is_conflict_free, is_conflict_free_fast
from cfcolor.btree import iter_nodes, node_pool, slot_extremes
from cfcolor.core import EngineError, InvariantError, replay
from cfcolor.engine_dynamic import DynamicEngine, EpsilonEngine, _Batch

from helpers import naive_conflict_free, random_ops


def snapshot_colors(eng):
    return dict(eng.state.assignment)


def apply_ops(eng, ops, check_every=1, rng=None):
    worst = 0
    for i, op in enumerate(ops):
        replay(eng, [op])
        worst = max(worst, eng.state.ledger.records[-1].recolors)
        if i % check_every == 0:
            eng.audit()
            ivs = list(eng.state.intervals.values())
            assert is_conflict_free_fast(ivs, eng.state.assignment)
            if rng is not None and i % (7 * check_every) == 0:
                ok, witness = naive_conflict_free(ivs, eng.state.assignment, rng, extra_points=8)
                assert ok, witness
    return worst


class TestBasics:
    def test_empty_engine(self):
        eng = DynamicEngine()
        eng.audit()
        assert eng.height == 0 and eng.state.n == 0

    def test_single_insert_delete_roundtrip(self):
        eng = DynamicEngine()
        eng.insert(Interval(1, 0.0, 1.0))
        eng.audit()
        assert eng.state.verdict()
        assert not eng.state.color_of(1).is_dummy()
        eng.delete(1)
        eng.audit()
        assert eng.state.n == 0 and not eng.root.keys

    def test_emptied_root_keeps_no_chained_set(self):
        eng = DynamicEngine(2)
        for i in range(3):
            eng.insert(Interval(i, 2 * i, 2 * i + 3))
        for i in range(3):
            eng.delete(i)
        assert eng._chained == {}
        eng.audit()
        eng._chained[eng.root] = {2}  # a stale entry for the keyless root
        with pytest.raises(InvariantError, match="chained set"):
            eng.audit()

    def test_duplicate_and_unknown_ids(self):
        eng = DynamicEngine()
        eng.insert(Interval(1, 0, 1))
        with pytest.raises(EngineError):
            eng.insert(Interval(1, 2, 3))
        with pytest.raises(EngineError):
            eng.delete(9)

    def test_keys_track_endpoints(self):
        eng = DynamicEngine()
        for i in range(8):
            eng.insert(Interval(i, 2 * i, 2 * i + 1))
        eng.audit()
        assert eng.height >= 1
        for i in range(0, 8, 2):
            eng.delete(i)
        eng.audit()
        assert eng.state.n == 4

    def test_bad_t(self):
        with pytest.raises(EngineError):
            DynamicEngine(t=1)


class TestTreeMechanics:
    def test_root_split_raises_height(self):
        eng = DynamicEngine(t=2)
        # 2 intervals = 4 keys fill the root past 2t-1 = 3
        eng.insert(Interval(1, 0, 10))
        assert eng.height == 0
        eng.insert(Interval(2, 2, 12))
        assert eng.height == 1
        eng.audit()

    def test_standalone_split(self):
        eng = DynamicEngine(t=2)
        eng.insert(Interval(1, 0, 10))
        eng.insert(Interval(2, 20, 30))
        eng.insert(Interval(3, 2, 25))  # fills the right leaf to 2t-1 = 3 keys
        full = [c for c in eng.root.children if len(c.keys) == 3]
        assert full
        # split the full child by hand, as an insert descending into it would
        batch = _Batch()
        eng._split_child(eng.root, eng.root.children.index(full[0]), batch)
        eng._rechain(batch)
        assert len(eng.root.children) == 3
        eng.audit()
        assert eng.state.verdict()

    def test_standalone_split_rejects_non_full(self):
        eng = DynamicEngine(t=2)
        eng.insert(Interval(1, 0, 10))
        eng.insert(Interval(2, 2, 12))
        thin = [c for c in eng.root.children if len(c.keys) < 3]
        with pytest.raises(EngineError):
            eng._split_child(eng.root, eng.root.children.index(thin[0]), _Batch())

    def test_deep_tree_then_drain(self):
        eng = DynamicEngine(t=2)
        n = 64
        for i in range(n):
            eng.insert(Interval(i, 3 * i, 3 * i + 2))
        eng.audit()
        assert eng.height >= 2
        order = list(range(n))
        random.Random(4).shuffle(order)
        for i in order:
            eng.delete(i)
            eng.audit()
        assert eng.height == 0 and not eng.root.keys

    def test_internal_key_delete_goes_through_swap(self):
        eng = DynamicEngine(t=2)
        for i in range(16):
            eng.insert(Interval(i, 4 * i, 4 * i + 3))
        eng.audit()
        # find an interval owning a key stored at an internal node
        internal_ids = set()
        for v in iter_nodes(eng.root):
            if not v.is_leaf:
                internal_ids.update(k[1] for k in v.keys)
        assert internal_ids, "no internal keys in a height>=1 tree"
        victim = min(internal_ids)
        eng.delete(victim)
        eng.audit()
        assert victim not in eng.state.intervals


class TestColoring:
    def test_nested_intervals_shadowed_to_dummy(self):
        eng = DynamicEngine(t=2)
        eng.insert(Interval(1, 0, 100))
        eng.insert(Interval(2, 40, 60))
        # both anchor somewhere; the invariants carry the conflict-freeness
        eng.audit()
        assert eng.state.verdict()

    def test_off_path_nodes_keep_their_colors(self):
        eng = DynamicEngine(t=2)
        for i in range(40):
            eng.insert(Interval(i, 5 * i, 5 * i + 4))
        before = snapshot_colors(eng)
        pools_before = {
            id(v): sorted(iv.id for iv in node_pool(v)) for v in iter_nodes(eng.root)
        }
        eng.insert(Interval(100, 7, 8))
        after = snapshot_colors(eng)
        changed = {iid for iid in before if before[iid] != after.get(iid)}
        # every changed color belongs to a node whose pool changed
        moved_pools = set()
        for v in iter_nodes(eng.root):
            if pools_before.get(id(v)) != sorted(iv.id for iv in node_pool(v)):
                moved_pools.update(iv.id for iv in node_pool(v))
                moved_pools.update(pools_before.get(id(v), []))
        assert changed <= moved_pools

    def test_colors_respect_level_budget(self):
        eng = DynamicEngine(t=2)
        rng = random.Random(9)
        apply_ops(eng, random_ops(rng, 200, universe=96), check_every=10)
        assert len(eng.state.colors_in_use(include_dummy=True)) <= eng.max_colors()


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
@pytest.mark.parametrize("t", [2, 3])
def test_soak_every_op_audited(seed, t):
    rng = random.Random(seed)
    eng = DynamicEngine(t=t)
    ops = random_ops(rng, 240, universe=48, p_delete=0.45)
    worst = apply_ops(eng, ops, check_every=1, rng=rng)
    assert worst <= 8 * t * (eng.height + 3)


def test_soak_narrow_universe_forces_heavy_rebalancing():
    # many duplicate coordinates, deep co-located buckets
    rng = random.Random(99)
    eng = DynamicEngine(t=2)
    ops = random_ops(rng, 400, universe=12, p_delete=0.48)
    apply_ops(eng, ops, check_every=1, rng=rng)


def test_soak_long_trace_sampled_audits():
    rng = random.Random(123)
    eng = DynamicEngine(t=2)
    ops = random_ops(rng, 1500, universe=256, p_delete=0.4)
    apply_ops(eng, ops, check_every=25, rng=rng)
    eng.audit()


class TestEpsilon:
    def test_first_insert_counts_as_first_rebuild(self):
        eng = EpsilonEngine(0.5)
        eng.insert(Interval(1, 0, 1))
        assert eng.rebuild_count == 1
        eng.audit()

    def test_rebuild_thresholds(self):
        eng = EpsilonEngine(0.5)
        for i in range(40):
            eng.insert(Interval(i, 2 * i, 2 * i + 1))
            n, nl = eng.state.n, eng._n_last
            assert nl / 2 <= n <= 2 * nl
        assert eng.rebuild_count >= 3
        for i in range(35):
            eng.delete(i)
            n, nl = eng.state.n, eng._n_last
            if n:
                assert nl / 2 <= n <= 2 * nl
        eng.audit()

    def test_drained_engine_keeps_no_chained_set(self):
        eng = EpsilonEngine(0.5)
        for i in range(5):
            eng.insert(Interval(i, i, i + 5))
        for i in range(5):
            eng.delete(i)
            eng.audit()
        assert eng.rebuild_count >= 2 and eng._chained == {}

    def test_t_tracks_n_to_the_eps(self):
        eng = EpsilonEngine(0.5)
        for i in range(150):
            eng.insert(Interval(i, 2 * i, 2 * i + 1))
        assert eng.t == max(2, round(eng._n_last**0.5))

    def test_rebuild_recolors_tallied_separately(self):
        eng = EpsilonEngine(0.5)
        for i in range(40):
            eng.insert(Interval(i, 2 * i, 2 * i + 1))
        led = eng.state.ledger
        assert led.total(include_rebuild=True) > led.total(include_rebuild=False)

    def test_soak(self):
        rng = random.Random(31)
        eng = EpsilonEngine(0.5)
        ops = random_ops(rng, 300, universe=64, p_delete=0.4)
        apply_ops(eng, ops, check_every=5, rng=rng)

    def test_bad_eps(self):
        with pytest.raises(EngineError):
            EpsilonEngine(0.0)
        with pytest.raises(EngineError):
            EpsilonEngine(1.0)


def test_float_endpoint_workload():
    rng = random.Random(777)
    eng = DynamicEngine(t=2)
    live = []
    nid = 0
    for step in range(300):
        if live and rng.random() < 0.45:
            iid = live.pop(rng.randrange(len(live)))
            eng.delete(iid)
        else:
            a = round(rng.uniform(0, 50), 3)
            b = round(a + rng.uniform(0.001, 10), 3)
            eng.insert(Interval(nid, a, b))
            live.append(nid)
            nid += 1
        if step % 9 == 0:
            eng.audit()
            assert is_conflict_free(
                list(eng.state.intervals.values()), eng.state.assignment
            )


class TestWholeBucketMoves:
    """A split or merge moves the buckets that go with their keys whole:
    the same objects, re-pointed at their new owner, blocks kept."""

    def populated(self):
        eng = DynamicEngine(t=2)
        replay(eng, random_ops(random.Random(1), 300, universe=64, p_delete=0.3))
        for v in iter_nodes(eng.root):
            for bucket in v.buckets:
                bucket.extremes()  # every bound known
        return eng

    @staticmethod
    def held(buckets):
        """Per bucket, its blocks' member dicts and bounds."""
        return [[(blk.by_id, blk.lo, blk.hi, blk.lmax, blk.rmin) for blk in b.blocks()]
                for b in buckets]

    def test_split_moves_median_and_right_buckets(self):
        eng = self.populated()
        parent, ci = next(
            (v, i) for v in iter_nodes(eng.root) if len(v.keys) < 3
            for i, c in enumerate(v.children)
            if len(c.keys) == 3 and all(b.members for b in c.buckets[1:])
        )
        moving = parent.children[ci].buckets[1:]
        before = self.held(moving)
        batch = _Batch()
        eng._split_child(parent, ci, batch)
        median, right = parent.buckets[ci], parent.children[ci + 1]
        assert median is moving[0] and median.node is parent
        assert len(right.buckets) == len(moving) - 1
        assert all(a is b and b.node is right for a, b in zip(right.buckets, moving[1:]))
        after = self.held(right.buckets)
        assert all(x is y for a, b in zip(after, before[1:]) for p, q in zip(a, b)
                   for x, y in zip(p, q))
        # the intervals that rose with the median joined it as whole blocks
        median.audit()
        assert median.extremes() == slot_extremes(median.members)
        eng._rechain(batch)
        eng.audit()
        assert eng.state.verdict()

    def test_merge_moves_right_buckets(self):
        eng = self.populated()
        parent, si = next(
            (v, i) for v in iter_nodes(eng.root) if v.children
            and (v is eng.root or len(v.keys) >= 2)
            for i in range(len(v.keys))
            if len(v.children[i].keys) == len(v.children[i + 1].keys) == 1
            and v.children[i + 1].buckets[0].members
        )
        right = parent.children[si + 1]
        moving = list(right.buckets)
        before = self.held(moving)
        batch = _Batch()
        left = eng._merge_children(parent, si, batch)
        assert left.buckets[-1] is moving[0] and moving[0].node is left
        assert all(x is y for a, b in zip(self.held(moving), before) for p, q in zip(a, b)
                   for x, y in zip(p, q))
        eng._rechain(batch)
        eng.audit()
        assert eng.state.verdict()


@pytest.mark.parametrize("left_out,cause", [
    ("parent", r"not a level-\d+ color"),
    ("right", "not chained at its node"),
], ids=["parent", "right"])
def test_audit_catches_a_move_into_an_untouched_node(left_out, cause):
    """A split that leaves a node its intervals move into out of
    batch.touched, so that node is not rechained: its moved-in intervals
    keep the colors of the node they left, which the audit must reject."""
    eng = DynamicEngine(t=2)
    split = eng._split_child
    fired = []

    def planted(parent, ci, batch):
        split(parent, ci, batch)
        batch.touched.discard(parent if left_out == "parent" else parent.children[ci + 1])
        fired.append(ci)

    eng._split_child = planted
    rng = random.Random(3)
    live = []
    with pytest.raises(InvariantError, match=cause):
        for i in range(400):
            if live and rng.random() < 0.45:
                eng.delete(live.pop(rng.randrange(len(live))))
            else:
                a = rng.uniform(0, 100)
                eng.insert(Interval(i, a, a + rng.uniform(0.5, 40)))
                live.append(i)
            eng.audit()
    assert fired

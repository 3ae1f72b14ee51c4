"""Engine audits must fail: one corrupted invariant per case.

Every B-tree engine is populated from a fixed random trace, then one
invariant is broken by hand and audit() has to raise InvariantError naming
that invariant.
"""

from __future__ import annotations

import random

import pytest

from cfcolor.btree import iter_nodes, node_extremes, node_pool
from cfcolor.core import DUMMY, Color, Interval, InvariantError, replay
from cfcolor.engine_dynamic import DynamicEngine, EpsilonEngine
from cfcolor.engine_fixed import FixedChainEngine, FixedDistinctEngine

from helpers import random_ops

# engine factory, palette size per level
ENGINES = {
    "fixed-distinct": (lambda: FixedDistinctEngine(64, 2), 6),
    "fixed-chain": (lambda: FixedChainEngine(64, 2), 2),
    "dynamic": (lambda: DynamicEngine(2), 2),
    "eps": (lambda: EpsilonEngine(0.5), 2),
}


def populated(name):
    eng = ENGINES[name][0]()
    replay(eng, random_ops(random.Random(5), 240, universe=64, p_delete=0.3))
    eng.audit()
    return eng


def plant_color(state, iid, color):
    """Recolor iid behind set_color's back: no ledger record, no hook.

    The state's mappings are read-only, so the fault goes into its private
    dict.  Dropping the audit cache makes the next fast audit rebuild it
    from the objects, so that audit sees the planted color too.
    """
    state._colors[iid] = color
    state._drop_cache()


def colored_extreme(eng):
    """(node, interval) of some extreme wearing a palette color."""
    for v in iter_nodes(eng.root):
        for iv in node_extremes(v):
            if not eng.state.color_of(iv.id).is_dummy():
                return v, iv
    raise AssertionError("no colored extreme")


def overlapping_extremes(eng):
    """(node, extremes) of a node with two intersecting extremes."""
    for v in iter_nodes(eng.root):
        ext = node_extremes(v)
        if any(a.intersects(b) for i, a in enumerate(ext) for b in ext[i + 1 :]):
            return v, ext
    raise AssertionError("no node with intersecting extremes")


@pytest.fixture(params=list(ENGINES))
def name(request):
    return request.param


def test_non_extreme_with_level_color(name):
    eng = populated(name)
    v, iv = next(
        (v, iv)
        for v in iter_nodes(eng.root)
        for iv in node_pool(v)
        if iv.id not in {e.id for e in node_extremes(v)}
    )
    plant_color(eng.state, iv.id, Color(v.level, 0))
    with pytest.raises(InvariantError, match="non-extreme"):
        eng.audit()


def test_wrong_level_color(name):
    eng = populated(name)
    v, iv = colored_extreme(eng)
    plant_color(eng.state, iv.id, Color(v.level + 1, 0))
    with pytest.raises(InvariantError, match="not a level-"):
        eng.audit()


def test_palette_index_out_of_range(name):
    eng = populated(name)
    v, iv = colored_extreme(eng)
    plant_color(eng.state, iv.id, Color(v.level, ENGINES[name][1]))
    with pytest.raises(InvariantError, match="not a level-"):
        eng.audit()


def test_node_not_locally_conflict_free(name):
    eng = populated(name)
    v, ext = overlapping_extremes(eng)
    for iv in ext:
        plant_color(eng.state, iv.id, Color(v.level, 0))
    with pytest.raises(InvariantError, match="not locally conflict-free"):
        eng.audit()


def covered_dummy(eng):
    """A non-extreme (so dummy) interval, and a bucket at another node
    holding an interval that strictly covers it."""
    for v in iter_nodes(eng.root):
        ext_ids = {e.id for e in node_extremes(v)}
        for iv in node_pool(v):
            if iv.id in ext_ids:
                continue
            for w in iter_nodes(eng.root):
                if w is v:
                    continue
                for bucket in w.buckets:
                    if any(e.left < iv.left and iv.right < e.right
                           for e in bucket.members.values()):
                        return iv, bucket
    raise AssertionError("no dummy interval covered at another node")


def test_interval_bucketed_at_a_second_node(name):
    eng = populated(name)
    # the copy stays a dummy non-extreme and breaks neither local
    # conflict-freeness nor the bucket's bounds, so only the one-bucket
    # rule can object
    iv, bucket = covered_dummy(eng)
    bucket.add(iv)
    with pytest.raises(InvariantError, match="bucketed twice"):
        eng.audit()


def test_distinct_extremes_sharing_a_color():
    eng = populated("fixed-distinct")
    for v in iter_nodes(eng.root):
        ext = node_extremes(v)
        pair = next(
            ((a, b) for i, a in enumerate(ext) for b in ext[i + 1 :] if not a.intersects(b)),
            None,
        )
        if pair is not None:
            break
    else:
        raise AssertionError("no node with two disjoint extremes")
    a, b = pair
    plant_color(eng.state, b.id, eng.state.color_of(a.id))
    with pytest.raises(InvariantError, match="share a color"):
        eng.audit()


def test_distinct_extreme_wearing_dummy():
    eng = FixedDistinctEngine(16, 2)
    eng.insert(Interval(10, 3, 6))
    eng.insert(Interval(11, 3, 7))
    eng.audit()
    # 11 alone keeps [3, 7] conflict-free, so only the distinct rule objects
    plant_color(eng.state, 10, DUMMY)
    with pytest.raises(InvariantError, match="dummy color"):
        eng.audit()


def test_stale_anchor(name):
    eng = populated(name)
    iid, home = next(iter(eng._anchor.items()))
    # every engine anchors an id at its Bucket; point it at one elsewhere
    eng._anchor[iid] = next(b for w in iter_nodes(eng.root) if w is not home.node
                            for b in w.buckets)
    with pytest.raises(InvariantError, match="anchor map stale"):
        eng.audit()


def test_anchor_of_a_deleted_id(name):
    eng = populated(name)
    gone = max(eng.state.intervals) + 1
    eng._anchor[gone] = next(iter(eng._anchor.values()))
    with pytest.raises(InvariantError, match="anchor map out of sync"):
        eng.audit()


def test_stale_bucket_owner(name):
    eng = populated(name)
    # a rebalance moves a bucket by re-pointing its owner; one left behind
    # must fail the shared audit, whatever the anchors say
    home = next(v for v in iter_nodes(eng.root) if any(b.members for b in v.buckets))
    other = next(w for w in iter_nodes(eng.root) if w is not home)
    next(b for b in home.buckets if b.members).node = other
    with pytest.raises(InvariantError, match="bucket owner stale"):
        eng.audit()


def test_stale_extremes_cache(name):
    eng = populated(name)
    for v in iter_nodes(eng.root):
        for bucket in v.buckets:
            for blk in bucket.blocks():
                ext = blk.ends()
                others = [iv for iv in blk.by_id.values() if iv not in ext]
                if others:
                    # a member ranking after the block's least, so only the
                    # bound-versus-scan check can object
                    blk.lo = others[0]
                    with pytest.raises(InvariantError, match="block bounds stale"):
                        eng.audit()
                    return
    raise AssertionError("no block with a non-extreme")


def test_colored_interval_missing_from_chained_set(name):
    eng = populated(name)
    # rechains recolor only a node's extremes and its chained set, so a
    # colored id missing from that set would keep its color once demoted
    v, iv = colored_extreme(eng)
    eng._chained[v].discard(iv.id)
    with pytest.raises(InvariantError, match="not chained"):
        eng.audit()

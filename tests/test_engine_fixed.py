"""Fixed-universe engines: distinct-colors and chain-per-node schemes."""

import random
import zlib

import pytest

from cfcolor import DUMMY, Color, Interval
from cfcolor.core import EngineError, replay
from cfcolor.engine_fixed import FixedChainEngine, FixedDistinctEngine

from helpers import naive_conflict_free, random_ops


class TestConstruction:
    def test_single_point_universe(self):
        eng = FixedDistinctEngine(1, 2)
        assert eng.height == 0

    def test_bad_parameters(self):
        with pytest.raises(EngineError):
            FixedDistinctEngine(0, 2)
        with pytest.raises(EngineError):
            FixedDistinctEngine(16, 1)

    def test_rejects_foreign_endpoints(self):
        eng = FixedDistinctEngine(16, 2)
        with pytest.raises(EngineError):
            eng.insert(Interval(1, 0.5, 3))
        with pytest.raises(EngineError):
            eng.insert(Interval(1, 3, 16))
        with pytest.raises(EngineError):
            eng.insert(Interval(1, -1, 3))

    def test_max_colors_formula(self):
        assert FixedDistinctEngine(1024, 2).max_colors() == 1 + 6 * 6
        assert FixedChainEngine(4096, 2).max_colors() == 1 + 2 * 7
        assert FixedChainEngine(4096, 8).max_colors() == 1 + 2 * 4
        assert FixedChainEngine(4096, 32).max_colors() == 1 + 2 * 3


class TestDistinctScheme:
    def test_first_insert_gets_lowest_color_of_its_level(self):
        eng = FixedDistinctEngine(16, 2)
        eng.insert(Interval(1, 0, 15))
        assert eng.state.color_of(1) == Color(2, 0)
        eng.insert(Interval(2, 0, 7))
        assert eng.state.color_of(2) == Color(1, 0)
        eng.audit()

    def test_shadowed_interval_goes_dummy_without_recoloring(self):
        eng = FixedDistinctEngine(16, 2)
        eng.insert(Interval(2, 0, 7))
        eng.insert(Interval(3, 1, 7))
        assert eng.state.color_of(3) == DUMMY
        assert eng.state.ledger.max_per_update() == 0
        eng.audit()

    def test_single_demotion(self):
        eng = FixedDistinctEngine(16, 2)
        eng.insert(Interval(10, 3, 6))
        eng.insert(Interval(11, 3, 7))
        assert eng.state.color_of(10) == Color(1, 0)
        assert eng.state.color_of(11) == Color(1, 1)
        # new interval takes over the left-extreme role by id tie-break
        eng.insert(Interval(9, 3, 6))
        assert eng.state.color_of(10) == DUMMY
        assert eng.state.color_of(9) == Color(1, 0)
        assert eng.state.ledger.records[-1].recolors == 1
        eng.audit()

    def test_double_demotion_hits_the_recoloring_bound(self):
        eng = FixedDistinctEngine(16, 2)
        eng.insert(Interval(20, 4, 6))
        eng.insert(Interval(21, 5, 7))
        eng.insert(Interval(19, 3, 7))
        assert eng.state.color_of(20) == DUMMY
        assert eng.state.color_of(21) == DUMMY
        assert eng.state.ledger.records[-1].recolors == 2
        eng.audit()

    def test_delete_promotes_shadowed_intervals(self):
        eng = FixedDistinctEngine(16, 2)
        eng.insert(Interval(20, 4, 6))
        eng.insert(Interval(21, 5, 7))
        eng.insert(Interval(19, 3, 7))
        eng.delete(19)
        assert eng.state.color_of(20) == Color(1, 0)
        assert eng.state.color_of(21) == Color(1, 1)
        assert eng.state.ledger.records[-1].recolors == 2
        eng.audit()

    def test_recoloring_never_exceeds_two(self):
        rng = random.Random(2024)
        eng = FixedDistinctEngine(64, 2)
        for op in random_ops(rng, 600, universe=64):
            replay(eng, [op])
            assert eng.state.ledger.records[-1].recolors <= 2


class TestChainScheme:
    def test_node_is_rechained_with_two_colors(self):
        eng = FixedChainEngine(16, 2)
        eng.insert(Interval(1, 0, 7))
        eng.insert(Interval(2, 3, 7))
        eng.insert(Interval(3, 6, 7))
        # 1 and 2 share a level-1 node; 1 alone carries the chain there.
        # 3 anchors at a leaf and starts its own chain.
        assert eng.state.color_of(1) == Color(1, 0)
        assert eng.state.color_of(2) == DUMMY
        assert eng.state.color_of(3) == Color(0, 0)
        eng.audit()
        assert eng.state.verdict()

    def test_recoloring_bound_four_t(self):
        rng = random.Random(77)
        for t in (2, 4):
            eng = FixedChainEngine(64, t)
            for op in random_ops(rng, 400, universe=64):
                replay(eng, [op])
                assert eng.state.ledger.records[-1].recolors <= 4 * t


@pytest.mark.parametrize("cls,t", [(FixedDistinctEngine, 2), (FixedDistinctEngine, 4),
                                   (FixedChainEngine, 2), (FixedChainEngine, 4)])
def test_random_workload_stays_conflict_free(cls, t):
    rng = random.Random(zlib.crc32(f"{cls.__name__} {t}".encode()))
    eng = cls(64, t)
    ops = random_ops(rng, 500, universe=64)
    for i, op in enumerate(ops):
        assert replay(eng, [op], "every")
        ivs = list(eng.state.intervals.values())
        if i % 97 == 0:
            eng.audit()
            ok, witness = naive_conflict_free(ivs, eng.state.assignment, rng, extra_points=16)
            assert ok, witness
    assert len(eng.state.colors_seen(include_dummy=True)) <= eng.max_colors()


def test_colors_stay_within_budget_across_workloads():
    rng = random.Random(5)
    for _ in range(5):
        eng = FixedDistinctEngine(256, 2)
        replay(eng, random_ops(rng, 300, universe=256))
        assert len(eng.state.colors_seen(include_dummy=True)) <= eng.max_colors()

"""Bounded-length reduction over parity-split inner engines."""

import math
import random
import zlib

import pytest

from cfcolor import DUMMY, Interval
from cfcolor.baseline import TrivialEngine
from cfcolor.core import Delete, EngineError, Insert, replay
from cfcolor.engine_dynamic import DynamicEngine
from cfcolor.grid import GridEngine

from helpers import naive_conflict_free


def bounded_ops(rng, count, L, span=400, p_delete=0.4):
    live = []
    nid = 0
    ops = []
    for _ in range(count):
        if live and rng.random() < p_delete:
            ops.append(Delete(live.pop(rng.randrange(len(live)))))
        else:
            a = rng.uniform(-span / 4, span)
            length = rng.uniform(1, L - 1e-9)
            ops.append(Insert(Interval(nid, a, a + length)))
            live.append(nid)
            nid += 1
    return ops


class TestRegistration:
    def test_rejects_lengths_outside_range(self):
        eng = GridEngine(8, TrivialEngine)
        with pytest.raises(EngineError):
            eng.insert(Interval(1, 0, 0.5))
        with pytest.raises(EngineError):
            eng.insert(Interval(2, 0, 8))
        with pytest.raises(EngineError):
            GridEngine(1, TrivialEngine)

    def test_registers_at_leftmost_integer(self):
        eng = GridEngine(8, TrivialEngine)
        eng.insert(Interval(1, 2.3, 4.1))
        assert eng._reg[1] == 3
        eng.insert(Interval(2, 5.0, 6.2))
        assert eng._reg[2] == 5
        eng.insert(Interval(3, -2.7, -1.1))
        assert eng._reg[3] == -2

    def test_parity_splits_blocks(self):
        eng = GridEngine(8, TrivialEngine)
        assert eng._parity(0) == 0
        assert eng._parity(7) == 0
        assert eng._parity(8) == 1
        assert eng._parity(16) == 0
        assert eng._parity(-1) == 1
        assert eng._parity(-8) == 1
        assert eng._parity(-9) == 0


class TestExtremeMaintenance:
    def test_single_interval_is_extreme(self):
        eng = GridEngine(8, TrivialEngine)
        eng.insert(Interval(1, 0.5, 3.5))
        assert not eng.state.color_of(1).is_dummy()
        eng.audit()

    def test_shadowed_interval_goes_dummy(self):
        eng = GridEngine(8, TrivialEngine)
        eng.insert(Interval(1, 0.5, 5.5))   # registers at 1
        eng.insert(Interval(2, 0.8, 5.2))   # same point, strictly inside
        eng.insert(Interval(3, 0.9, 5.0))
        assert eng.state.color_of(3) == DUMMY
        eng.audit()
        assert eng.state.verdict()

    def test_displacement_costs_one_recoloring(self):
        eng = GridEngine(8, TrivialEngine)
        eng.insert(Interval(1, 0.5, 2.5))
        eng.insert(Interval(2, 0.9, 2.0))   # both extreme (left/right roles)
        eng.insert(Interval(3, 0.4, 2.6))   # takes the left role from 1
        last = eng.state.ledger.records[-1].recolors
        assert last <= 1
        eng.audit()

    def test_delete_promotes_a_shadowed_interval(self):
        eng = GridEngine(8, TrivialEngine)
        eng.insert(Interval(1, 0.5, 5.5))
        eng.insert(Interval(2, 0.8, 5.2))
        eng.insert(Interval(3, 0.9, 5.0))
        eng.delete(2)
        assert not eng.state.color_of(3).is_dummy()
        eng.audit()
        assert eng.state.verdict()


class TestColorBudget:
    def test_first_fit_inner_stays_under_4l_plus_1(self):
        rng = random.Random(21)
        L = 8
        eng = GridEngine(L, TrivialEngine)
        replay(eng, bounded_ops(rng, 800, L))
        assert len(eng.state.colors_seen(include_dummy=True)) <= 4 * L + 1

    def test_recolorings_at_most_one_with_first_fit_inner(self):
        rng = random.Random(22)
        eng = GridEngine(5, TrivialEngine)
        for op in bounded_ops(rng, 500, 5):
            replay(eng, [op])
            assert eng.state.ledger.records[-1].recolors <= 1


@pytest.mark.parametrize("inner,label", [(TrivialEngine, "trivial"),
                                         (lambda: DynamicEngine(2), "dynamic")])
def test_soak_conflict_free_throughout(inner, label):
    rng = random.Random(zlib.crc32(label.encode()))
    eng = GridEngine(6, inner)
    for i, op in enumerate(bounded_ops(rng, 400, 6, span=150)):
        assert replay(eng, [op], "every")
        ivs = list(eng.state.intervals.values())
        if i % 29 == 0:
            eng.audit()
            ok, witness = naive_conflict_free(ivs, eng.state.assignment, rng, extra_points=8)
            assert ok, witness
    eng.audit()


def test_same_parity_blocks_never_interact():
    # intervals registered two blocks apart are disjoint by construction
    rng = random.Random(5)
    L = 4
    for _ in range(300):
        a1 = rng.uniform(0, 100)
        a2 = rng.uniform(0, 100)
        i1 = Interval(1, a1, a1 + rng.uniform(1, L - 1e-6))
        i2 = Interval(2, a2, a2 + rng.uniform(1, L - 1e-6))
        b1 = math.floor(math.ceil(i1.left) / L)
        b2 = math.floor(math.ceil(i2.left) / L)
        if abs(b1 - b2) >= 2:
            assert not i1.intersects(i2)

"""Adversarial drivers: bricks, signatures, and forced color growth."""

from __future__ import annotations

import math

import pytest

from cfcolor.adversary import (
    check_tradeoff,
    living_rounds,
    run_general_adversary,
    run_local_adversary,
    signature_of,
)
from cfcolor.baseline import (
    ComponentFirstFitEngine,
    TrivialEngine,
    UniqueColorEngine,
)
from cfcolor.core import Color, EngineError, Interval
from cfcolor.engine_dynamic import DynamicEngine


def alive_bruteforce(rounds, designated, color_of):
    """Direct recursive translation of the brick-liveness definition."""

    def alive(m, j):
        iv = rounds[m][j]
        if color_of(iv.id) != designated[m]:
            return False
        if m == 0:
            return True
        gap_end = rounds[m][j + 1].left if j + 1 < len(rounds[m]) else math.inf
        inside = any(
            alive(m - 1, k)
            and rounds[m - 1][k].left >= iv.left
            and rounds[m - 1][k].right <= iv.right
            for k in range(len(rounds[m - 1]))
        )
        gap = any(
            alive(m - 1, k)
            and rounds[m - 1][k].left > iv.right
            and rounds[m - 1][k].right < gap_end
            for k in range(len(rounds[m - 1]))
        )
        return inside and gap

    return [
        [iv for j, iv in enumerate(members) if alive(m, j)]
        for m, members in enumerate(rounds)
    ]


class TestLivingRounds:
    def test_round_one_is_color_filter(self):
        red, blue = Color(0, 0), Color(0, 1)
        rounds = [[Interval(0, 0, 1), Interval(1, 2, 3), Interval(2, 4, 5)]]
        colors = {0: red, 1: blue, 2: red}
        out = living_rounds(rounds, [red], colors.get)
        assert [iv.id for iv in out[0]] == [0, 2]

    def test_brick_needs_support_on_both_sides(self):
        red, blue = Color(0, 0), Color(0, 1)
        r1 = [Interval(i, 4 * i, 4 * i + 1) for i in range(4)]
        # spans r1[0], gap holds r1[1]; second interval has empty gap
        r2 = [Interval(10, 0.0, 2.0), Interval(11, 8.0, 10.0)]
        rounds = [r1, r2]
        colors = {i: red for i in range(4)}
        colors[10] = blue
        colors[11] = blue
        out = living_rounds(rounds, [red, blue], colors.get)
        ids = [iv.id for iv in out[1]]
        assert 10 in ids  # r1[0] inside, r1[1] in the open gap (2, 8)
        assert 11 in ids  # r1[2] inside, r1[3] in the gap to infinity
        colors[3] = blue  # kill the gap support of interval 11
        out = living_rounds(rounds, [red, blue], colors.get)
        assert [iv.id for iv in out[1]] == [10]

    def test_agrees_with_bruteforce(self):
        import random

        rng = random.Random(7)
        red, blue, green = Color(0, 0), Color(0, 1), Color(0, 2)
        for _ in range(50):
            r1 = [Interval(i, 4 * i, 4 * i + 1) for i in range(10)]
            r2 = [
                Interval(100, 0.0, 5.0),
                Interval(101, 12.0, 21.0),
                Interval(102, 28.0, 33.0),
            ]
            r3 = [Interval(200, 0.0, 26.0)]
            rounds = [r1, r2, r3]
            colors = {}
            for members in rounds:
                for iv in members:
                    colors[iv.id] = rng.choice([red, blue, green])
            designated = [red, blue, green]
            fast = living_rounds(rounds, designated, colors.get)
            slow = alive_bruteforce(rounds, designated, colors.get)
            assert [[iv.id for iv in rr] for rr in fast] == [
                [iv.id for iv in rr] for rr in slow
            ]


class TestSignature:
    def test_reference_example(self):
        red, blue, green = Color(0, 0), Color(0, 1), Color(0, 2)
        live = [
            Interval(1, 0.0, 5.0),
            Interval(2, 1.0, 3.0),
            Interval(4, 6.0, 9.0),
            Interval(5, 6.5, 10.0),
        ]
        coloring = {1: red, 2: blue, 4: blue, 5: green}
        new = Interval(3, 2.0, 7.0)
        sig = signature_of(live, coloring, new)
        assert sig.labels == (2, 1, 3, 4, 5)
        assert sig.colors == (red, blue, None, blue, green)

    def test_only_own_component_is_seen(self):
        red = Color(0, 0)
        live = [Interval(1, 0.0, 1.0), Interval(2, 100.0, 101.0)]
        sig = signature_of(live, {1: red, 2: red}, Interval(3, 0.5, 2.0))
        assert sig.labels == (1, 2)
        assert sig.colors == (red, None)

    def test_isolated_interval(self):
        sig = signature_of([], {}, Interval(1, 0.0, 1.0))
        assert sig.labels == (1,)
        assert sig.colors == (None,)


class TestGeneralAdversary:
    def test_trivial_engine_marches_through_rounds(self):
        report = run_general_adversary(TrivialEngine, 256, budget_r=1)
        assert report.cf_ok
        assert report.max_recolor == 0
        assert len(set(report.designated)) == len(report.designated)
        assert report.rounds_played >= 3

    def test_trivial_engine_all_one_color_first_round(self):
        report = run_general_adversary(TrivialEngine, 128, budget_r=1)
        assert report.cf_ok
        assert report.designated[0] == Color(0, 0)
        assert report.star_sizes[0] == 64

    def test_unique_color_engine_starves_round_two(self):
        # one fresh color per interval leaves a single most-frequent pick,
        # so the star set collapses below a full group immediately
        report = run_general_adversary(UniqueColorEngine, 128, budget_r=1)
        assert report.cf_ok
        assert report.rounds_played == 1
        assert report.star_sizes == [1]

    def test_round_geometry(self):
        report = run_general_adversary(TrivialEngine, 128, budget_r=1)
        for members in report.rounds:
            for a, b in zip(members, members[1:]):
                assert a.right < b.left
        for prev, cur in zip(report.rounds, report.rounds[1:]):
            lefts = {iv.left for iv in prev}
            for iv in cur:
                assert iv.left in lefts

    def test_designated_never_repeats(self):
        for factory in (TrivialEngine, lambda: DynamicEngine(t=2)):
            report = run_general_adversary(factory, 128)
            seen = report.designated
            assert len(set(seen)) == len(seen)

    def test_adaptive_budget_converges(self):
        report = run_general_adversary(lambda: DynamicEngine(t=2), 256)
        assert report.adapt_iterations <= 3
        assert report.cf_ok
        assert report.total_inserted < 256

    def test_dynamic_engine_satisfies_tradeoff(self):
        report = run_general_adversary(lambda: DynamicEngine(t=2), 256)
        verdict = check_tradeoff(
            256, report.colors_used, max(report.max_recolor, report.budget_r)
        )
        assert verdict is True


class TestLocalAdversary:
    def test_component_first_fit_gets_fresh_color_each_round(self):
        engines = []

        def factory():
            engines.append(ComponentFirstFitEngine())
            return engines[-1]

        report = run_local_adversary(factory, 256, budget_r=0)
        assert report.cf_ok
        assert report.max_recolor == 0
        # round colors must be uniform within and distinct across rounds
        coloring = engines[-1].state.assignment
        per_round = []
        for members in report.rounds:
            colors = {coloring[m.id] for m in members}
            assert len(colors) == 1
            per_round.append(colors.pop())
        assert len(set(per_round)) == len(per_round)
        assert report.rounds_played >= 6

    def test_round_sizes_follow_recurrence(self):
        n = 256
        report = run_local_adversary(ComponentFirstFitEngine, n)
        r = report.budget_r
        for i, members in enumerate(report.rounds, start=1):
            assert len(members) >= n / (r + 2) ** i - 2

    def test_locality_audit_clean_for_signature_determined_engine(self):
        report = run_local_adversary(ComponentFirstFitEngine, 128)
        assert report.locality is not None
        assert report.locality.clean()

    def test_final_span_round(self):
        # with budget 0 the rounds halve; a 1-interval round triggers the
        # closing interval that covers everything
        report = run_local_adversary(ComponentFirstFitEngine, 64, budget_r=0)
        if report.stop_reason == "final-span":
            last = report.rounds[-1]
            assert len(last) == 1
            everything = [iv for members in report.rounds[:-1] for iv in members]
            assert all(last[0].contains_interval(iv) for iv in everything)


@pytest.mark.parametrize(
    "runner,budget",
    [(run_general_adversary, 0), (run_general_adversary, -3), (run_local_adversary, -1)],
)
def test_budget_below_the_floor_is_an_engine_error(runner, budget):
    with pytest.raises(EngineError, match="budget"):
        runner(TrivialEngine, 16, budget_r=budget)


@pytest.mark.parametrize("runner", [run_general_adversary, run_local_adversary])
def test_size_below_two_is_an_engine_error(runner):
    # n = 2 plays a first round of one interval; n = 1 would play none
    assert runner(TrivialEngine, 2).rounds_played >= 1
    for n in (1, 0):
        with pytest.raises(EngineError, match=f"needs n >= 2, got {n}"):
            runner(TrivialEngine, n)


class TestTradeoff:
    def test_known_values(self):
        assert check_tradeoff(256, 8, 1, "general") is True
        assert check_tradeoff(10**6, 2, 1, "general") is False
        assert check_tradeoff(100, 5, 0, "general") is None

    def test_local_kind(self):
        # c = log2(n) - 2 makes r = 0 the boundary; r = 1 clears it
        assert check_tradeoff(256, 8, 1, "local") is True
        assert check_tradeoff(2**20, 2, 1, "local") is False

    @pytest.mark.parametrize("c,r", [(0, 1), (-2, 1), (0, 0), (-1, 5)])
    @pytest.mark.parametrize("kind", ["general", "local"])
    def test_fewer_than_one_color_is_a_value_error(self, kind, c, r):
        with pytest.raises(ValueError, match=f"needs c >= 1, got {c}"):
            check_tradeoff(64, c, r, kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_tradeoff(10, 1, 1, "sideways")

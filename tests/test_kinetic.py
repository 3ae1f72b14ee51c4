"""Event-driven chain maintenance under linear endpoint motion."""

import random
from fractions import Fraction

import pytest

from cfcolor.core import DUMMY, EngineError, InvariantError, TraceError
from cfcolor.kinetic import (
    CHAIN_PALETTE,
    GADGET_REGIONS,
    GADGET_SHAPE,
    KineticMaintainer,
    Trajectory,
    compute_events,
    format_scenario,
    lowerbound_scenario,
    make_gadget,
    parse_scenario,
    random_scenario,
    verify_gadget_lemma,
)


def still(iid, left, right):
    return Trajectory(iid, left, 0.0, right, 0.0)


class TestEventComputation:
    def test_disjoint_stationary_intervals_have_no_events(self):
        assert compute_events([still(0, 0, 1), still(1, 5, 6)], 0.0, 100.0) == []

    def test_drive_by_produces_the_four_crossings_in_order(self):
        # B = [3-t, 5-t] sweeps left across A = [0, 2]
        a = still(0, 0, 2)
        b = Trajectory(1, 3, -1.0, 5, -1.0)
        evs = compute_events([a, b], 0.0, 100.0)
        assert [(e.time, e.kind) for e in evs] == [
            (1.0, "RL-meet"),
            (3.0, "LL"),
            (3.0, "RR"),
            (5.0, "RL-separate"),
        ]
        # id1 owns the right endpoint of an RL pair
        assert (evs[0].id1, evs[0].id2) == (0, 1)
        assert (evs[3].id1, evs[3].id2) == (1, 0)

    def test_horizon_filters_later_crossings(self):
        a = still(0, 0, 2)
        b = Trajectory(1, 3, -1.0, 5, -1.0)
        evs = compute_events([a, b], 0.0, 2.0)
        assert [e.kind for e in evs] == ["RL-meet"]
        evs = compute_events([a, b], 1.0, 100.0)  # strictly after t0
        assert [e.kind for e in evs] == ["LL", "RR", "RL-separate"]

    def test_parallel_endpoints_never_cross(self):
        a = Trajectory(0, 0, 1.0, 2, 1.0)
        b = Trajectory(1, 5, 1.0, 7, 1.0)
        assert compute_events([a, b], 0.0, 1e6) == []


class TestMaintainerInit:
    def test_requires_a_horizon(self):
        with pytest.raises(EngineError):
            KineticMaintainer([still(0, 0, 1)])
        with pytest.raises(EngineError):
            KineticMaintainer([still(0, 0, 1)], 5.0, 5.0)

    def test_rejects_degenerating_trajectories(self):
        # shrinks to a point at t = 2
        b = Trajectory(0, 3, -1.0, 5, -2.0)
        with pytest.raises(EngineError):
            KineticMaintainer([b], 0.0, 3.0)
        KineticMaintainer([b], 0.0, 1.5)  # fine before the pinch

    def test_rejects_coincident_start_endpoints(self):
        with pytest.raises(EngineError):
            KineticMaintainer([still(0, 0, 2), still(1, 0, 3)], 0.0, 1.0)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(EngineError):
            KineticMaintainer([still(0, 0, 1), still(0, 2, 3)], 0.0, 1.0)

    def test_initial_chain_alternates_and_rest_is_dummy(self):
        km = KineticMaintainer(
            [still(0, 0, 4), still(1, 3, 8), still(2, 1, 3.5), still(3, 20, 21)],
            0.0,
            1.0,
        )
        assert km.chain == {0, 1, 3}
        assert km.colors[0] != km.colors[1]
        assert km.colors[2] == DUMMY
        km.check_invariants(0.5)


class TestSingleEvents:
    def test_right_escape_joins_the_chain(self):
        a = still(0, 0, 10)
        b = Trajectory(1, 1, 0.0, 4, 2.0)  # right end exits a at t = 3
        km = KineticMaintainer([a, b], 0.0, 4.0)
        assert km.chain == {0} and km.colors[1] == DUMMY
        km.run(audit="every")
        assert km.chain == {0, 1}
        assert km.colors[1] != DUMMY and km.colors[1] != km.colors[0]

    def test_capture_drops_the_swallowed_member(self):
        a = still(0, 0, 10)
        b = Trajectory(1, 1, 0.0, 12, -1.0)  # right end dips below 10 at t = 2
        km = KineticMaintainer([a, b], 0.0, 3.0)
        assert km.chain == {0, 1}
        km.run(audit="every")
        assert km.chain == {0}
        assert km.colors[1] == DUMMY

    def test_meet_recolors_a_color_clash(self):
        # separate components start on the same palette slot; they touch at t=3
        a = still(0, 0, 2)
        b = Trajectory(1, 5, -1.0, 7, -1.0)
        km = KineticMaintainer([a, b], 0.0, 4.0)
        assert km.colors[0] == km.colors[1] == CHAIN_PALETTE[0]
        km.run(audit="every")
        assert km.colors[0] != km.colors[1]
        assert km.ledger.total() == 1

    def test_separation_promotes_a_bridge(self):
        a = still(0, 0, 5)
        b = Trajectory(1, 4, 1.0, 9, 1.0)  # leaves a at t = 1
        c = still(2, 4.2, 8)  # spans the opening gap
        km = KineticMaintainer([a, b, c], 0.0, 1.5)
        assert km.chain == {0, 1} and km.colors[2] == DUMMY
        km.run(audit="every")
        assert 2 in km.chain
        assert km.colors[2] != DUMMY

    def test_event_records_report_recolors(self):
        a = still(0, 0, 2)
        b = Trajectory(1, 5, -1.0, 7, -1.0)
        km = KineticMaintainer([a, b], 0.0, 4.0)
        recs = km.run()
        assert len(recs) == 1
        assert recs[0].event.kind == "RL-meet"
        assert recs[0].recolored == [(0, km.colors[0])]


class TestRandomScenarios:
    def test_invariants_hold_after_every_event(self):
        rng = random.Random(41)
        for _ in range(30):
            trajs = random_scenario(rng, rng.randint(3, 25))
            km = KineticMaintainer(trajs, 0.0, 10.0)
            km.run(audit="every")
            assert km.ledger.max_per_update() <= 3
            nondummy = {c for c in km.seen if not c.is_dummy()}
            assert nondummy <= set(CHAIN_PALETTE)
            assert len(km.seen) <= 4

    def test_summary_matches_the_ledger(self):
        rng = random.Random(5)
        trajs = random_scenario(rng, 12)
        km = KineticMaintainer(trajs, 0.0, 10.0)
        km.run(audit="final")
        s = km.summary()
        assert s["events"] == len(km.events)
        assert s["recolor_total"] == km.ledger.total()
        assert s["recolor_max"] == km.ledger.max_per_update()
        assert s["colors"] == len(km.seen)

    def test_audit_stride_still_checks_the_final_state(self):
        rng = random.Random(8)
        trajs = random_scenario(rng, 15)
        km = KineticMaintainer(trajs, 0.0, 10.0)
        km.run(audit="every", stride=7)

    def test_fast_and_sweep_audits_agree(self):
        rng = random.Random(13)
        for _ in range(10):
            trajs = random_scenario(rng, rng.randint(3, 10))
            km = KineticMaintainer(trajs, 0.0, 10.0)
            while True:
                rec = km.step()
                if rec is None:
                    break
                km._check_invariants_fast(rec.t_eval)
                km._check_invariants_sweep(rec.t_eval)


class TestExactMode:
    def test_exact_event_times_are_rational(self):
        a = still(0, 0, 2)
        b = Trajectory(1, 3, -1.0, 5, -1.0)
        km = KineticMaintainer([a, b], 0.0, 6.0, exact=True)
        assert all(isinstance(ev.time, Fraction) for ev in km.events)
        km.run(audit="every")
        assert km.summary()["events"] == 4

    def test_exact_and_float_runs_agree_on_well_separated_events(self):
        rng = random.Random(3)
        trajs = random_scenario(rng, 9)
        kf = KineticMaintainer(trajs, 0.0, 10.0)
        ke = KineticMaintainer(trajs, 0.0, 10.0, exact=True)
        kf.run(audit="every")
        ke.run(audit="every")
        assert [(e.kind, e.id1, e.id2) for e in kf.events] == [
            (e.kind, e.id1, e.id2) for e in ke.events
        ]
        assert kf.colors == ke.colors
        assert kf.chain == ke.chain


class TestGadget:
    def test_gadget_matches_its_region_table(self):
        trajs = make_gadget(0, 0.0, 0.0)
        assert len(trajs) == len(GADGET_SHAPE)
        xs = sorted({tr.a0 for tr in trajs} | {tr.b0 for tr in trajs})
        regions = []
        for lo, hi in zip(xs, xs[1:]):
            mid = (lo + hi) / 2
            stab = tuple(k for k, tr in enumerate(trajs) if tr.a0 <= mid <= tr.b0)
            if stab and (not regions or regions[-1] != stab):
                regions.append(stab)
        assert tuple(regions) == GADGET_REGIONS

    def test_four_colors_cannot_survive_a_gadget_pass(self):
        assert verify_gadget_lemma(4) is False

    def test_five_colors_can(self):
        assert verify_gadget_lemma(5) is True

    def test_dilation_scales_the_shape(self):
        plain = make_gadget(0, 0.0, 0.0, 1.0)
        wide = make_gadget(0, 0.0, 0.0, 2.0)
        for p, w in zip(plain, wide):
            assert w.a0 == 2 * p.a0 and w.b0 == 2 * p.b0


class TestLowerBoundScenario:
    def test_shape_and_horizon(self):
        trajs, horizon = lowerbound_scenario(3)
        assert len(trajs) == 24
        assert horizon > 0
        movers = [tr for tr in trajs if tr.va != 0]
        parked = [tr for tr in trajs if tr.va == 0]
        assert len(movers) == 12 and len(parked) == 12
        # movers start left of every parked interval and outrun the horizon
        assert max(tr.b0 for tr in movers) < min(tr.a0 for tr in parked)
        assert min(tr.a0 + tr.va * horizon for tr in movers) > max(
            tr.b0 for tr in parked
        )

    def test_forces_quadratically_many_recolorings(self):
        for n in (2, 4):
            trajs, horizon = lowerbound_scenario(n)
            km = KineticMaintainer(trajs, 0.0, horizon)
            km.run(audit="every", stride=50)
            assert km.ledger.total() >= n * n
            assert km.ledger.max_per_update() <= 3
            assert len(km.seen) <= 4


class TestScenarioFiles:
    def test_round_trip(self):
        rng = random.Random(2)
        trajs = [
            Trajectory(
                tr.id,
                round(tr.a0, 6),
                round(tr.va, 6),
                round(tr.b0, 6),
                round(tr.vb, 6),
            )
            for tr in random_scenario(rng, 7)
        ]
        text = format_scenario(trajs)
        assert parse_scenario(text) == trajs

    def test_comments_and_blanks_are_skipped(self):
        text = "# prelude\n\nK 3 0 1 2 1  # trailing\n"
        assert parse_scenario(text) == [Trajectory(3, 0, 1, 2, 1)]

    def test_malformed_lines_raise(self):
        with pytest.raises(TraceError):
            parse_scenario("K 1 2 3\n")
        with pytest.raises(TraceError):
            parse_scenario("Q 1 2 3 4 5\n")
        with pytest.raises(TraceError):
            parse_scenario("K one 2 3 4 5\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("pos", range(4))
    def test_non_finite_number_rejected_with_lineno(self, value, pos):
        nums = ["0", "0", "5", "0"]
        nums[pos] = value
        name = ("a0", "va", "b0", "vb")[pos]
        text = "K 0 0 0 1 0\nK 1 " + " ".join(nums) + "\n"
        with pytest.raises(TraceError, match=f"{name} must be finite") as err:
            parse_scenario(text)
        assert err.value.lineno == 2

    def test_empty_round_trip(self):
        assert format_scenario([]) == ""
        assert parse_scenario("") == []

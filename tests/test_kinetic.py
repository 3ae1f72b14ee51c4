"""Event-driven chain maintenance under linear endpoint motion."""

import dataclasses
import itertools
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from cfcolor.core import (
    DUMMY,
    EngineError,
    InvariantError,
    TraceError,
    _union_segments,
    is_conflict_free,
    is_conflict_free_fast,
)
from cfcolor.kinetic import (
    _CODE,
    _Certificate,
    _PALETTE,
    CHAIN_PALETTE,
    GADGET_REGIONS,
    GADGET_SHAPE,
    Event,
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

from helpers import compute_events_loop


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

    def test_event_is_slotted_and_compares_without_next_time(self):
        ev = compute_events([still(0, 0, 2), Trajectory(1, 3, -1.0, 5, -1.0)], 0.0, 2.0)[0]
        assert not hasattr(ev, "__dict__")
        assert ev == Event(1.0, "RL-meet", 0, 1) == Event(1.0, "RL-meet", 0, 1, 7.0)
        assert ev != Event(1.0, "RL-meet", 1, 0)
        assert hash(ev) == hash(Event(1.0, "RL-meet", 0, 1, 7.0))
        assert repr(ev) == "Event(time=1.0, kind='RL-meet', id1=0, id2=1)"
        # the next crossing is LL at 3, beyond the horizon 2
        assert ev.next_time == 3.0
        assert Event(1.0, "RL-meet", 0, 1).next_time is None
        with pytest.raises(AttributeError):
            ev.next_time = 2.0


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

    def test_colors_is_a_read_only_view_of_the_codes(self):
        km = KineticMaintainer(random_scenario(random.Random(4), 12), 0.0, 10.0)
        view = km.colors
        with pytest.raises(TypeError):
            view[0] = DUMMY
        t = km.run()[-1].t_eval
        # the view taken before the run follows every recoloring
        codes = {iid: _PALETTE[c] for iid, c in zip(km._vid, km._codes.tolist())}
        assert dict(view) == codes and km.colors == codes
        assert km.chain == {iid for iid, c in codes.items() if c != DUMMY}
        # the sweep oracle over the view and the fast one over the codes
        assert is_conflict_free(km.snapshot(t), view) == is_conflict_free_fast(
            km.snapshot(t), codes
        )


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
        rng = random.Random(9)
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
        """After every event, the batch delta (where it applies) and the
        full sweep audit both pass, and so does check_invariants, which
        picks one of them and certifies the state for the next event."""
        rng = random.Random(13)
        deltas = 0
        for _ in range(10):
            trajs = random_scenario(rng, rng.randint(3, 10))
            km = KineticMaintainer(trajs, 0.0, 10.0)
            while (rec := km.step()) is not None:
                t, cert = rec.t_eval, km._cert
                if cert is not None and km._delta_applies(cert, t):
                    km._check_invariants_delta(t, cert)
                    deltas += 1
                km._check_invariants_sweep(t)
                km.check_invariants(t)
        assert deltas > 300  # 424 with this seed

    def test_chain_segments_match_the_python_merge(self):
        """The chain cover from the members' ends, each sorted on its own,
        as the batch audit's C2 merges them (_union_segments), against the
        plain merge by left (_merged_chain), in both modes, between events
        and at each crossing instant, where an RL pair abuts."""
        rng = random.Random(17)
        abut = 0
        for exact in (False, True):
            for _ in range(6):
                trajs = random_scenario(rng, rng.randint(3, 15))
                km = KineticMaintainer(trajs, 0.0, 10.0, exact=exact)
                while (rec := km.step()) is not None:
                    for t in (rec.t_eval, rec.event.time):
                        lefts, rights = km._ends(t)
                        mask = km._chain_mask
                        starts, ends = _union_segments(np.sort(lefts[mask]), np.sort(rights[mask]))
                        merged = km._merged_chain(t)
                        assert [list(p) for p in zip(starts.tolist(), ends.tolist())] == merged
                    ev = rec.event
                    if ev.kind.startswith("RL"):
                        abut += km._member(ev.id1) and km._member(ev.id2)
        assert abut > 300  # RL events whose pair stays in the chain: 452 with this seed


def _passes(check, t) -> bool:
    try:
        check(t)
    except InvariantError:
        return False
    return True


def _plant_fault(km, rng, cert):
    """Break the state in one of four ways; returns the undo.

    Undoing the batch's repairs needs a certificate; without one that
    draw becomes a raw write.
    """
    palette = [*CHAIN_PALETTE, DUMMY]
    kind = rng.choice(("recolor", "chain", "chain", "raw", "unrepaired"))
    if kind == "unrepaired" and cert is not None:
        # the batch's repairs undone: its changed ids back to the certified
        # membership and colors, as if the event handlers had done nothing
        changed = (km._chain_mask != cert.mask) | (km._codes != cert.codes)
        wrong = {
            km._vid[k]: (bool(cert.mask[k]), _PALETTE[cert.codes[k]])
            for k in np.flatnonzero(changed)
        }
    else:
        iid = rng.choice(km._vid)
        c = km.colors[iid]
        member = km._member(iid)
        if kind == "recolor":
            c = rng.choice(palette)
        elif kind == "chain":
            # flip membership, leaving the color alone or fixing its rule
            member = not member
            if rng.random() < 0.5:
                c = rng.choice(CHAIN_PALETTE) if member else DUMMY
        else:
            c = rng.choice(palette)
        wrong = {iid: (member, c)}
    right = {i: (km._member(i), km.colors[i]) for i in wrong}

    def write(state):
        for i, (member, c) in state.items():
            (km._chain_add if member else km._chain_drop)(i)
            if kind == "recolor":
                km._set(i, c)
            else:  # a recolor that skips _set: the code written directly
                km._codes[km._vpos[i]] = _CODE[c]

    write(wrong)
    return lambda: write(right)


def _step_batch(km):
    """Step one whole event batch; its last record, or None at the end."""
    rec = km.step()
    while (
        rec is not None
        and km.cursor < len(km.events)
        and km.events[km.cursor].time == rec.event.time
    ):
        rec = km.step()
    return rec


def _grid_scenario(rng, n):
    """Rigid intervals on integer endpoints and speeds: crossings share times."""
    ends = rng.sample(range(4 * n), 2 * n)
    trajs = []
    for i in range(n):
        a, b = sorted(ends[2 * i : 2 * i + 2])
        v = rng.choice((-1, 0, 0, 1))
        trajs.append(Trajectory(i, a, v, b, v))
    return trajs


def test_kept_chain_order_matches_the_reference():
    """The chain order that step keeps equals _order's sort when each
    handler starts and after every event, and the escape test's walk over
    it (_covered_by_chain) gives the merged cover's answer
    (_merged_chain) on every call: random scenarios in both modes, grids
    whose batches share crossing times, and the lower bound's gadget
    sweep."""
    rng = random.Random(8)
    scenarios = [
        (random_scenario(rng, rng.randint(3, 40)), 10.0, exact)
        for exact in (False, True)
        for _ in range(6)
    ]
    scenarios += [(_grid_scenario(rng, rng.randint(8, 30)), 6.0, False) for _ in range(12)]
    scenarios.append((*lowerbound_scenario(3), False))
    swaps = shared = 0
    answers = []
    for trajs, until, exact in scenarios:
        km = KineticMaintainer(trajs, 0.0, until, exact=exact)

        def dispatch(ev, t_before, t_after, km=km, handle=km._dispatch):
            nonlocal swaps
            assert km._chain_order == km._order(t_after)
            swaps += ev.kind == "LL" and km._member(ev.id1) and km._member(ev.id2)
            return handle(ev, t_before, t_after)

        def covered(iid, km=km, walk=km._covered_by_chain):
            t, tr = km._order_t, km.trajs[iid]
            segs = km._merged_chain(t)
            pos = bisect_right([start for start, _ in segs], tr.left(t)) - 1
            answers.append(walk(iid))
            assert answers[-1] == (pos >= 0 and tr.right(t) <= segs[pos][1])
            return answers[-1]

        km._dispatch, km._covered_by_chain = dispatch, covered
        while (rec := km.step()) is not None:
            assert km._chain_order == km._order(rec.t_eval)
        shared += len(km.events) - len({ev.time for ev in km.events})
    # with this seed: 341 LL crossings of two members, 376 events sharing a
    # batch, 1,694 escape tests of which 809 found the cover
    assert swaps > 300 and shared > 300
    assert len(answers) > 1000 and 0.2 < sum(answers) / len(answers) < 0.8


@pytest.mark.xfail(raises=InvariantError, strict=True,
                   reason="simultaneous crossings break the maintainer's invariants")
def test_simultaneous_crossings_keep_the_invariants():
    """Regression pin: of 200 scenarios drawn as in _grid_scenario but with
    endpoints in [0, 3n) (random.Random(1), n = rng.randint(8, 30), horizon
    6), 29 raise under run(audit="every").  This is the smallest, n = 9:
    several crossings share one time and interval 6 escapes the chain
    cover.  A fix makes this test pass, which fails the strict xfail."""
    spec = [(0, 13, -1, 25, -1), (1, 3, 1, 19, 1), (2, 10, -1, 20, -1),
            (3, 0, 0, 4, 0), (4, 7, 0, 11, 0), (5, 18, 0, 26, 0),
            (6, 16, 1, 24, 1), (7, 1, 0, 8, 0), (8, 5, 0, 23, 0)]
    km = KineticMaintainer([Trajectory(*row) for row in spec], 0.0, 6.0)
    km.run(audit="every")


def _audit_planted_faults(rng, scenarios, exact=False):
    """Step each scenario batch by batch, planting a fault in 40% of the
    batches, and require the sweep, check_invariants with and without a
    certificate, and (where it applies) the delta to agree.  Returns counts
    of delta checks, delta checks over multi-event batches, planted faults
    and failing verdicts."""
    deltas = multi = planted = raised = 0
    for k in range(scenarios):
        if k % 3 == 2:
            trajs, until = random_scenario(rng, rng.randint(4, 24)), 10.0
        else:
            trajs, until = _grid_scenario(rng, rng.randint(8, 30)), 6.0
        km = KineticMaintainer(trajs, 0.0, until, exact=exact)
        while (rec := _step_batch(km)) is not None:
            t, cert = rec.t_eval, km._cert
            undo = None
            if rng.random() < 0.4:
                undo = _plant_fault(km, rng, cert)
                planted += 1
            verdicts = {"sweep": _passes(km._check_invariants_sweep, t)}
            if cert is not None and km._delta_applies(cert, t):
                deltas += 1
                multi += km.cursor - cert.cursor > 1
                verdicts["delta"] = _passes(
                    lambda t: km._check_invariants_delta(t, cert), t
                )
                # the windowed conflict sweep alone against the full
                # oracle, witnesses and gaps included
                full_cf = is_conflict_free(km.snapshot(t), km.colors)
                windowed = km._conflict_since(cert, *km._ends(t))
                assert windowed == full_cf and windowed.gap == full_cf.gap
            # the runtime dispatch: with no certificate, or with one taken
            # of this very state at this cursor (no events since, so the
            # delta would see nothing touched), it audits the whole state;
            # with the last passing check's it takes the delta where that
            # applies
            here = _Certificate(km.cursor, t, km._codes.copy(), km._chain_mask.copy())
            for key, c in (("check uncertified", None), ("check here", here), ("check", cert)):
                km._cert = c
                verdicts[key] = _passes(km.check_invariants, t)
            assert len(set(verdicts.values())) == 1, (verdicts, km.cursor)
            raised += not verdicts["sweep"]
            if undo is not None:
                undo()
            km.check_invariants(t)  # passes on the mended state and certifies it
    return deltas, multi, planted, raised


class TestDeltaCertification:
    def test_delta_full_and_sweep_agree_on_planted_faults(self):
        deltas, multi, planted, raised = _audit_planted_faults(random.Random(9), 24)
        assert deltas > 2000 and multi > 100 and planted > 1000
        assert 0.2 * planted < raised < planted  # faults of both outcomes

    def test_exact_delta_full_and_sweep_agree_on_planted_faults(self):
        deltas, multi, planted, raised = _audit_planted_faults(
            random.Random(9), 6, exact=True
        )
        assert deltas > 400 and multi > 20 and planted > 150
        assert 0.2 * planted < raised < planted

    def test_only_the_batch_after_a_certificate_takes_the_delta(self):
        rng = random.Random(9)
        km = KineticMaintainer(_grid_scenario(rng, 20), 0.0, 6.0)
        assert km._cert is None
        rec = _step_batch(km)
        km.check_invariants(rec.t_eval)
        cert = km._cert
        assert cert.cursor == km.cursor
        assert (cert.mask == km._chain_mask).all() and (cert.codes == km._codes).all()
        assert not km._delta_applies(cert, rec.t_eval)  # no new events
        rec = _step_batch(km)
        assert km.cursor - cert.cursor == 6  # six crossings at t = 1
        assert km._delta_applies(cert, rec.t_eval)
        assert not km._delta_applies(cert, rec.event.time)  # at the crossing itself
        km.cursor -= 1
        assert not km._delta_applies(cert, rec.t_eval)  # mid-batch
        km.cursor += 1
        _step_batch(km)
        assert not km._delta_applies(cert, rec.t_eval)  # two batches

    def test_delta_checks_the_chain_rules_beyond_the_batch(self):
        """A fault on an id outside the batch, copied into the certificate
        so that the diff does not show it: whenever the sweep fails it by
        C1, C2, the color rule or a shared color, the delta fails it too."""
        rng = random.Random(22)
        rules = ("both meet a point", "escapes the chain cover", "is dummy",
                 "has color", "share a color")
        caught = 0
        for _ in range(8):
            km = KineticMaintainer(random_scenario(rng, 40), 0.0, 10.0)
            while (rec := _step_batch(km)) is not None:
                t, cert = rec.t_eval, km._cert
                if cert is not None and km._delta_applies(cert, t) and rng.random() < 0.25:
                    batch = km.events[cert.cursor : km.cursor]
                    paired = {i for ev in batch for i in (ev.id1, ev.id2)}
                    k = km._vpos[rng.choice([i for i in km._vid if i not in paired])]
                    right = km._chain_mask[k], km._codes[k]
                    if rng.random() < 0.5:  # flip membership, with a fitting code
                        km._chain_mask[k] = not right[0]
                        km._codes[k] = rng.randint(1, 3) if km._chain_mask[k] else 0
                    else:  # a raw code
                        km._codes[k] = rng.randrange(len(_PALETTE))
                    doctored = _Certificate(
                        cert.cursor, cert.t, cert.codes.copy(), cert.mask.copy()
                    )
                    doctored.codes[k], doctored.mask[k] = km._codes[k], km._chain_mask[k]
                    try:
                        km._check_invariants_sweep(t)
                    except InvariantError as exc:
                        if any(rule in str(exc) for rule in rules):
                            with pytest.raises(InvariantError):
                                km._check_invariants_delta(t, doctored)
                            caught += 1
                    km._chain_mask[k], km._codes[k] = right
                km.check_invariants(t)
        assert caught > 1000


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


def _next_crossings(trajectories, t0, events):
    """Brute-force next_time: every time after t0 where two endpoints meet,
    of two trajectories or of one, horizon or not, sorted into one list and
    bisected once per event."""

    def meet(c0, cv, d0, dv):
        return None if cv == dv else (d0 - c0) / (cv - dv)

    times = {meet(tr.a0, tr.va, tr.b0, tr.vb) for tr in trajectories}
    for x, y in itertools.combinations(trajectories, 2):
        times |= {
            meet(x.b0, x.vb, y.b0, y.vb),
            meet(x.a0, x.va, y.a0, y.va),
            meet(x.b0, x.vb, y.a0, y.va),
            meet(y.b0, y.vb, x.a0, x.va),
        }
    times = sorted(t for t in times if t is not None and t > t0)
    out = []
    for ev in events:
        k = bisect_right(times, ev.time)
        out.append(times[k] if k < len(times) else None)
    return out


class TestNextTime:
    def _check(self, trajs, until):
        """Each event's next_time against the oracle, in both modes; returns
        the float mode's events."""
        for exact in (True, False):
            km = KineticMaintainer(trajs, 0.0, until, exact=exact)
            expect = _next_crossings(list(km.trajs.values()), km.t0, km.events)
            got = [ev.next_time for ev in km.events]
            assert got == expect
            assert all(type(g) is type(e) for g, e in zip(got, expect))
            assert km.events == compute_events(
                list(km.trajs.values()), km.t0, km.until
            )
        return km.events

    def test_matches_the_brute_force_oracle(self):
        rng = random.Random(31)
        scenarios = [(random_scenario(rng, rng.randint(2, 25)), 10.0) for _ in range(8)]
        scenarios += [(_grid_scenario(rng, rng.randint(2, 20)), 6.0) for _ in range(8)]
        scenarios += [lowerbound_scenario(n) for n in (1, 2, 3)]
        shared = 0
        for trajs, until in scenarios:
            events = self._check(trajs, until)
            shared += len(events) - len({ev.time for ev in events})
        assert shared > 50  # batches of simultaneous crossings were covered

    def test_last_event_at_the_horizon_points_past_it(self):
        a = still(0, 0, 2)
        b = Trajectory(1, 3, -1.0, 5, -1.0)
        events = self._check([a, b], 3.0)
        assert [(e.time, e.kind) for e in events] == [
            (1.0, "RL-meet"), (3.0, "LL"), (3.0, "RR")
        ]
        assert [e.next_time for e in events] == [3.0, 5.0, 5.0]

    def test_no_later_crossing_is_none(self):
        a = still(0, 0, 2)
        b = Trajectory(1, 3, -1.0, 5, -1.0)
        events = self._check([a, b], 100.0)
        assert [e.next_time for e in events] == [3.0, 5.0, 5.0, None]

    def test_an_inversion_beyond_the_horizon_counts(self):
        # interval 0 pinches at t = 1.75, before the next pair crossing at 2
        pinch = Trajectory(0, 10, 0.0, 11.75, -1.0)
        a = still(1, 0, 1)
        c = Trajectory(2, 2, -1.0, 3, -1.0)
        events = self._check([pinch, a, c], 1.5)
        assert [(e.time, e.kind, e.next_time) for e in events] == [
            (1.0, "RL-meet", 1.75)
        ]

    def test_next_time_is_left_out_of_equality_and_repr(self):
        ev = compute_events([still(0, 0, 2), Trajectory(1, 3, -1.0, 5, -1.0)], 0, 2)[0]
        assert ev.next_time == 3.0
        assert ev == type(ev)(ev.time, ev.kind, ev.id1, ev.id2)
        assert "next_time" not in repr(ev)


def _same_events(got, want):
    """Equal event lists whose fields also agree in type, next_time too."""
    assert got == want
    for g, w in zip(got, want):
        for name in ("time", "next_time", "id1", "id2"):
            a, b = getattr(g, name), getattr(w, name)
            assert a == b and type(a) is type(b), (name, a, b)


class TestArraySetup:
    """compute_events against the pair loop it replaced (helpers)."""

    def _check(self, trajs, t0, until):
        events = compute_events(trajs, t0, until)
        _same_events(events, compute_events_loop(trajs, t0, until))
        return events

    def _check_both(self, trajs, until):
        """Both maintainer modes; returns the float mode's events."""
        for exact in (True, False):
            km = KineticMaintainer(trajs, 0, until, exact=exact)
            _same_events(
                km.events, compute_events_loop(list(km.trajs.values()), km.t0, km.until)
            )
        return km.events

    def test_random_scenarios_in_both_modes(self):
        rng = random.Random(41)
        for until in (3.0, 10.0):
            for _ in range(4):
                events = self._check_both(random_scenario(rng, rng.randint(2, 30)), until)
                assert all(type(ev.time) is float for ev in events)

    def test_integer_grids_share_crossing_times(self):
        rng = random.Random(43)
        shared = 0
        for _ in range(10):
            events = self._check_both(_grid_scenario(rng, rng.randint(2, 20)), 6)
            shared += len(events) - len({ev.time for ev in events})
        assert shared > 20

    def test_zero_and_equal_speeds_never_cross(self):
        trajs = [
            still(0, 0, 2),
            still(1, 5, 6),
            Trajectory(2, 10, 1.0, 12, 1.0),
            Trajectory(3, 14, 1.0, 15, 1.0),
            Trajectory(4, -9, 0.5, -3, 0.5),
        ]
        events = self._check(trajs, 0.0, 100.0)
        speed = {tr.id: tr.va for tr in trajs}
        assert events and all(speed[ev.id1] != speed[ev.id2] for ev in events)
        assert self._check(trajs[:2], 0.0, 100.0) == []

    def test_int_coefficients_beyond_float64(self):
        # float64 would round big - 2 to big and put the first crossing at 0
        big = 2**60
        trajs = [
            Trajectory(0, big, 0, big + 10, 0),
            Trajectory(1, big - 7, 3, big - 2, 3),
            Trajectory(2, big + 20, -1, big + 24, -1),
        ]
        events = self._check(trajs, 0, 40)
        assert (events[0].time, events[0].kind, events[0].id1) == (2 / 3, "RL-meet", 1)
        assert all(type(ev.time) is float for ev in events)

    def test_ids_beyond_int64_and_negative(self):
        ids = [-5, 2**70, -(2**65), 3, 0, 2**63]
        base = random_scenario(random.Random(48), len(ids))
        trajs = [Trajectory(i, tr.a0, tr.va, tr.b0, tr.vb) for i, tr in zip(ids, base)]
        events = self._check_both(trajs, 10.0)
        assert {ev.id1 for ev in events} | {ev.id2 for ev in events} == set(ids)
        # the order does not depend on the order of the trajectories
        _same_events(compute_events(trajs[::-1], 0, 10.0), events)

    def test_exact_fractions_and_mixed_coefficients(self):
        rng = random.Random(47)
        exact = [tr.as_exact() for tr in random_scenario(rng, 12)]
        events = self._check(exact, Fraction(0), Fraction(10))
        assert all(type(ev.time) is Fraction for ev in events)
        mixed = exact[:6] + random_scenario(rng, 12)[6:]
        self._check(mixed, 0, 10)
        grid = [tr.as_exact() for tr in _grid_scenario(rng, 15)]
        self._check(grid, Fraction(0), Fraction(6))

    def test_events_stay_frozen_and_hashable(self):
        events = compute_events(random_scenario(random.Random(49), 10), 0.0, 10.0)
        for ev in events:
            by_hand = Event(ev.time, ev.kind, ev.id1, ev.id2, ev.next_time)
            assert type(ev) is Event and ev == by_hand
            assert hash(ev) == hash(by_hand) and repr(ev) == repr(by_hand)
        assert len(set(events)) == len(events)
        with pytest.raises(dataclasses.FrozenInstanceError):
            events[0].time = 0.0


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

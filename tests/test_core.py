"""Core types, the sweep oracle, and trace round-tripping."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cfcolor.core import (
    DUMMY,
    Color,
    ColoringState,
    Delete,
    EngineError,
    Insert,
    Interval,
    RecolorLedger,
    TraceError,
    Verdict,
    _union_segments,
    elementary_regions,
    format_number,
    format_op,
    format_trace,
    is_conflict_free,
    is_conflict_free_fast,
    parse_trace,
    stabbing_set,
)
from cfcolor.kinetic import Event, EventRecord, Trajectory
from helpers import ListLedger, all_stabbing_sets, naive_conflict_free, random_instance

RED = Color(0, 0)
BLUE = Color(0, 1)
GREEN = Color(0, 2)


class TestIntervalAndColor:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(1, 3, 3)
        with pytest.raises(ValueError):
            Interval(1, 5, 2)

    @pytest.mark.parametrize("left, right", [(0, float("inf")), (float("-inf"), 0),
                                             (float("nan"), 1), (0, float("nan"))])
    def test_non_finite_endpoint_rejected(self, left, right):
        with pytest.raises(ValueError, match="finite"):
            Interval(1, left, right)

    def test_closed_containment(self):
        iv = Interval(1, 0, 2)
        assert iv.contains(0) and iv.contains(2) and iv.contains(1.5)
        assert not iv.contains(-0.1) and not iv.contains(2.1)

    def test_closed_abutment_intersects(self):
        assert Interval(1, 0, 1).intersects(Interval(2, 1, 2))
        assert not Interval(1, 0, 1).intersects(Interval(2, 1.5, 2))

    def test_dummy_is_distinct_and_sorts_first(self):
        assert DUMMY.is_dummy()
        assert not Color(0, 0).is_dummy()
        assert sorted([Color(0, 0), DUMMY]) == [DUMMY, Color(0, 0)]

    @pytest.mark.parametrize("value", [
        Interval(1, 0, 2), Insert(Interval(1, 0, 2)), Delete(1), Color(0, 1), Verdict(True),
        Trajectory(1, 0.0, 1.0, 2.0, 1.0),
        EventRecord(Event(1.0, "LL", 0, 1), None, [], [(0, Color(0, 1))], 1.0),
    ], ids=lambda value: type(value).__name__)
    def test_per_update_values_are_slotted(self, value):
        # one of each is made per op, per update or per event: no instance dict
        assert not hasattr(value, "__dict__")


class TestElementaryRegions:
    def test_empty(self):
        assert elementary_regions([]) == []

    def test_single_interval_reaches_all_five_regions(self):
        # cells: (-inf,0), {0}, (0,1), {1}, (1,inf)
        pts = elementary_regions([Interval(1, 0, 1)])
        sets = {frozenset(stabbing_set([Interval(1, 0, 1)], q)) for q in pts}
        assert sets == {frozenset(), frozenset({1})}
        assert 0 in pts and 1 in pts
        assert any(0 < p < 1 for p in pts)
        assert any(p < 0 for p in pts) and any(p > 1 for p in pts)

    def test_two_overlapping_cover_all_stabbing_sets(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        reached = {frozenset(stabbing_set(ivs, q)) for q in elementary_regions(ivs)}
        assert reached == {
            frozenset(),
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({2}),
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_reaches_every_stabbing_set(self, seed, n):
        rng = random.Random(seed)
        ivs, _ = random_instance(rng, n)
        reached = {frozenset(stabbing_set(ivs, q)) for q in elementary_regions(ivs)}
        assert reached == all_stabbing_sets(ivs)


class TestStabbingSet:
    def test_interior_point(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        assert stabbing_set(ivs, 1.5) == {1, 2}

    def test_shared_endpoint_counts_for_both(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        assert stabbing_set(ivs, 1.0) == {1, 2}

    def test_outside(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        assert stabbing_set(ivs, 5) == set()


class TestOracle:
    def test_empty_ok(self):
        assert is_conflict_free([], {})

    def test_same_color_overlap_violation_witness(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        verdict = is_conflict_free(ivs, {1: RED, 2: RED})
        assert not verdict.ok
        assert 1 <= verdict.witness <= 2

    def test_two_colors_ok(self):
        ivs = [Interval(1, 0, 2), Interval(2, 1, 3)]
        assert is_conflict_free(ivs, {1: RED, 2: BLUE})

    def test_dummy_never_counts_as_unique(self):
        ivs = [Interval(1, 0, 2)]
        assert not is_conflict_free(ivs, {1: DUMMY})
        ivs = [Interval(1, 0, 4), Interval(2, 1, 2), Interval(3, 1.5, 3)]
        # both red copies overlap at 1.75 with only dummy on top
        verdict = is_conflict_free(ivs, {1: DUMMY, 2: RED, 3: RED})
        assert not verdict.ok

    def test_dummy_covered_by_unique_palette_ok(self):
        ivs = [Interval(1, 0, 4), Interval(2, 1, 2)]
        assert is_conflict_free(ivs, {1: RED, 2: DUMMY})

    def test_alternating_chain_of_four_ok(self):
        ivs = [
            Interval(1, 0, 3),
            Interval(2, 2, 6),
            Interval(3, 5, 9),
            Interval(4, 8, 12),
        ]
        colors = {1: RED, 2: BLUE, 3: RED, 4: BLUE}
        assert is_conflict_free(ivs, colors)

    def test_missing_color_is_an_error(self):
        with pytest.raises(ValueError):
            is_conflict_free([Interval(1, 0, 1)], {})
        ivs = [Interval(5, 0, 1), Interval(1, 0, 2), Interval(2, 1, 3)]
        for oracle in (is_conflict_free, is_conflict_free_fast):
            with pytest.raises(ValueError, match=r"ids \[2, 5\]"):
                oracle(ivs, {1: RED})

    def test_point_region_only_violation_is_caught(self):
        # interiors are fine; the shared point 2 sees {red, red}
        ivs = [Interval(1, 0, 2), Interval(2, 2, 4)]
        verdict = is_conflict_free(ivs, {1: RED, 2: RED})
        assert not verdict.ok
        assert verdict.witness == 2

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_agrees_with_naive_sampler(self, seed, n):
        rng = random.Random(seed)
        ivs, assignment = random_instance(rng, n)
        verdict = is_conflict_free(ivs, assignment)
        ok, _ = naive_conflict_free(ivs, assignment, rng)
        assert verdict.ok == ok

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.sampled_from([2, 5, 40]),
        st.sampled_from([0, 1, 3, 40]),
    )
    def test_fast_oracle_matches_sweep(self, seed, n, span, colors):
        # small spans share endpoints; colors=0 is all dummy; 4 levels
        rng = random.Random(seed)
        ivs, assignment = random_instance(rng, n, span=span, colors=colors, levels=4)
        slow = is_conflict_free(ivs, assignment)
        fast = is_conflict_free_fast(ivs, assignment)
        assert fast == slow
        assert fast.gap == slow.gap
        if not slow.ok:
            # the witness must be a genuine violation
            w = slow.witness
            stab = [iv for iv in ivs if iv.left <= w <= iv.right]
            counts = {}
            for iv in stab:
                counts[assignment[iv.id]] = counts.get(assignment[iv.id], 0) + 1
            assert not any(k == 1 and not c.is_dummy() for c, k in counts.items())

    def test_fast_oracle_checks_gap_between_adjacent_floats(self):
        # a/2 + b/2 rounds onto a: the gap (a, b) still counts as its own
        # region, covered by two reds only, while a and b each see one blue
        a = 1.0
        b = math.nextafter(a, 2.0)
        ivs = [Interval(0, 0, b), Interval(1, a, 3), Interval(2, 0.5, a), Interval(3, b, 2.5)]
        assignment = {0: RED, 1: RED, 2: BLUE, 3: BLUE}
        slow = is_conflict_free(ivs, assignment)
        assert not slow.ok
        assert is_conflict_free_fast(ivs, assignment) == slow
        assert slow.gap == is_conflict_free_fast(ivs, assignment).gap == (a, b)

    def test_array_core_in_kinetic_layout(self):
        # the kinetic palette layout: codes number colors in first-met
        # order, the dummy sits at code 2, and codes 3 and 4 are in the
        # palette but worn by no interval.  One state takes every case in
        # turn, so its cache is built once and then patched.
        palette = [BLUE, RED, DUMMY, GREEN, Color(1, 0)]
        ivs = [Interval(0, 0, 4), Interval(1, 1, 2), Interval(2, 3, 6), Interval(3, 4, 7)]
        cases = {
            (0, 1, 2, 1): Verdict(True),
            (0, 1, 2, 0): Verdict(False, 4.0),  # two blues meet at the point 4
            (0, 1, 1, 1): Verdict(False, 5.0),  # two reds over the gap (4, 6)
            (2, 1, 1, 2): Verdict(False, 0.0),  # only the dummy covers 0
            (2, 2, 2, 2): Verdict(False, 0.0),
        }
        state = ColoringState()
        for iv in ivs:
            state.add(iv)
        for codes, want in cases.items():
            colors = {iv.id: palette[c] for iv, c in zip(ivs, codes)}
            for iid, color in colors.items():
                state.set_color(iid, color)
            assert fast_verdicts(ivs, colors, state) == [want] * 2, codes
            assert is_conflict_free(ivs, colors) == want, codes


def fast_verdicts(ivs, assignment, state=None):
    """is_conflict_free_fast on a list and on a ColoringState's own view,
    its audit cache; the state is built from ivs and assignment unless
    one that holds them is given."""
    if state is None:
        state = ColoringState()
        for iv in ivs:
            state.add(iv)
            state.set_color(iv.id, assignment[iv.id])
    return [
        is_conflict_free_fast(ivs, assignment),
        is_conflict_free_fast(state.intervals.values(), state.assignment),
    ]


class TestDummyFold:
    """The fast oracle folds the dummy rows into their union before the
    sweep, on a list and on a state's audit cache alike.

    Its verdict, witness and gap must be those of the sweep over every row,
    the dummy endpoints inside a folded segment included.
    """

    # the dummy is not code 0, and GREEN is in the palette but may go unworn
    PALETTE = [BLUE, DUMMY, RED, GREEN]
    B, D, R, G = range(4)

    # endpoints are small ints, mapped onto each number form below
    FORMS = {
        "float": float,
        "near-limit": lambda x: (x - 18) * 9e306,  # up to +-1.62e308
    }

    def _agree(self, rows, form):
        """rows: (left, right, code) on small ints; compare the oracles."""
        f = self.FORMS[form]
        ivs = [Interval(i, f(a), f(b)) for i, (a, b, _) in enumerate(rows)]
        assignment = {iv.id: self.PALETTE[c] for iv, (_, _, c) in zip(ivs, rows)}
        slow = is_conflict_free(ivs, assignment)
        for fast in fast_verdicts(ivs, assignment):
            assert fast == slow
            assert fast.gap == slow.gap
        return slow

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_dummy_endpoints_inside_a_segment_split_the_gap(self, form):
        # blue is unique up to 3; after it, two reds and the dummy union
        # [1, 8] cover (3, 10).  That union hides the dummy ends 4 and 5,
        # so the first violating gap of the full arrangement is (3, 4).
        B, D, R = self.B, self.D, self.R
        rows = [(0, 3, B), (3, 10, R), (3, 10, R), (1, 5, D), (4, 8, D)]
        verdict = self._agree(rows, form)
        f = self.FORMS[form]
        assert verdict.gap == (f(3), f(4))

    # name: (rows, conflict-free)
    CASES = {
        # a doubled red across the uncovered stretch between two dummy
        # components; blue saves them only when it spans everything
        "components apart": ([(0, 2, 1), (5, 7, 1), (1, 6, 2), (1, 6, 2), (0, 1, 0)], False),
        "components apart ok": ([(0, 2, 1), (5, 7, 1), (0, 7, 0)], True),
        # [0, 1] and [1, 2] are one segment; blue covers only up to 1
        "abutting dummies": ([(0, 1, 1), (1, 2, 1), (0, 1, 0)], False),
        "abutting dummies ok": ([(0, 1, 1), (1, 2, 1), (0, 2, 0)], True),
        # dummies ending where a red starts, and starting where it ends
        "shared endpoints": ([(0, 2, 1), (2, 4, 2), (4, 6, 1)], False),
        "shared endpoints ok": ([(0, 2, 1), (0, 2, 0), (2, 4, 2), (4, 6, 1), (4, 6, 3)], True),
        "all dummy": ([(0, 2, 1), (1, 3, 1), (5, 6, 1)], False),
        "one dummy": ([(2, 3, 1)], False),
        "no dummy": ([(0, 2, 0), (1, 3, 2), (2, 4, 0)], True),
        "no dummy clash": ([(0, 3, 0), (1, 3, 0), (2, 4, 2)], False),
        # nested dummies under one red, and a dummy-only tail past it
        "nested": ([(0, 10, 1), (1, 2, 1), (3, 8, 1), (0, 9, 2)], False),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case, form):
        rows, ok = self.CASES[case]
        assert self._agree(rows, form).ok == ok

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            # (left, length, code), three in four rows dummy
            st.tuples(st.integers(0, 24), st.integers(1, 8), st.sampled_from([0, 1, 1, 1, 1, 1, 2, 3])),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(sorted(FORMS)),
    )
    def test_dummy_heavy_matches_sweep(self, rows, form):
        self._agree([(a, a + k, c) for a, k, c in rows], form)

    def test_union_segments(self):
        def segments(*ivs, dtype=np.float64):
            """The union from ends sorted on their own, as the kinetic batch
            audit's C2 has them; the same from the runs of the ends, as the fast
            oracle has them, and from the ends with every count 1, must
            agree."""
            lefts, rights = (np.sort(np.array(e, dtype=dtype)) for e in zip(*ivs))
            got = [e.tolist() for e in _union_segments(lefts, rights)]
            ones = np.ones(len(ivs), np.int64)
            assert [e.tolist() for e in _union_segments(lefts, rights, ones, ones)] == got
            if dtype is np.float64:
                (lv, lc), (rv, rc) = (np.unique(e, return_counts=True) for e in (lefts, rights))
                assert [e.tolist() for e in _union_segments(lv, rv, lc, rc)] == got
            return got

        def merged(*ivs):
            """The merge of KineticMaintainer._merged_chain: by left, an
            interval starting at or before the last segment's end extends it."""
            segs = []
            for a, b in sorted(ivs):
                if segs and a <= segs[-1][1]:
                    segs[-1][1] = max(segs[-1][1], b)
                else:
                    segs.append([a, b])
            return [[a for a, _ in segs], [b for _, b in segs]]

        assert segments((0, 1), (1, 2)) == [[0], [2]]  # closed: abutting is one
        assert segments((0, 1), (2, 3)) == [[0, 2], [1, 3]]
        assert segments((0, 10), (1, 2), (3, 4)) == [[0], [10]]
        assert segments((3, 4), (0, 2), (1, 3), (6, 7)) == [[0, 6], [4, 7]]
        # repeated ends: runs with counts above 1, one break after a run
        assert segments((0, 1), (0, 1), (1, 2), (3, 4), (3, 4)) == [[0, 3], [2, 4]]
        assert segments((0, 2), (0, 2), (2, 3), (2, 3), (0, 3)) == [[0], [3]]
        empty, none = np.empty(0), np.empty(0, int)
        assert [e.size for e in _union_segments(empty, empty, none, none)] == [0, 0]
        assert [e.size for e in _union_segments(empty, empty)] == [0, 0]
        # the kinetic chain cover's shapes, each sorted on its own as
        # the kinetic batch audit's C2 does, in float64 and in exact mode's Fractions
        shapes = [
            # rights out of left order: an early long member outlasts later ones
            [(0, 10), (1, 2), (3, 4)],
            [(0, 5), (1, 2), (6, 7), (6.5, 9), (7, 8)],
            [(0, 4), (1, 6), (2, 3), (7, 8)],
            # abutting members, in one run and apart
            [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)],
            [(0, 3), (1, 2), (3, 4)],
        ]
        rng = random.Random(5)
        for _ in range(200):
            shape = []
            for _ in range(rng.randint(1, 8)):
                a = rng.randint(0, 20)
                shape.append((a, a + rng.randint(1, 6)))
            shape += rng.sample(shape, rng.randint(0, len(shape)))  # repeats
            shapes.append(shape)
        for shape in shapes:
            assert segments(*shape) == merged(*shape), shape
            exact = [(Fraction(a) / 3, Fraction(b) / 3) for a, b in shape]
            got = segments(*exact, dtype=object)
            assert got == merged(*exact), shape
            assert all(type(x) is Fraction for ends in got for x in ends)


class TestNearFloatLimit:
    """Endpoints near +-1.7e308: midpoints must not overflow to inf."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_violation_between_endpoints_has_finite_witness(self, sign):
        # only the dummy interval covers the open gap between 1.2e308 and 1.6e308
        ivs = [
            Interval(0, *sorted((sign * 1e308, sign * 1.7e308))),
            Interval(1, *sorted((sign * 1e308, sign * 1.2e308))),
            Interval(2, *sorted((sign * 1.6e308, sign * 1.7e308))),
        ]
        assignment = {0: DUMMY, 1: RED, 2: RED}
        gap = sorted((sign * 1.2e308, sign * 1.6e308))
        for oracle in (is_conflict_free, is_conflict_free_fast):
            verdict = oracle(ivs, assignment)
            assert not verdict.ok
            assert gap[0] < verdict.witness < gap[1]
            assert verdict.witness == pytest.approx(sign * 1.4e308)

    def test_conflict_free_extreme_instance(self):
        ivs = [Interval(0, -1.7e308, 1.7e308), Interval(1, 1e308, 1.5e308)]
        assignment = {0: RED, 1: BLUE}
        assert is_conflict_free(ivs, assignment).ok
        assert is_conflict_free_fast(ivs, assignment).ok

    def test_elementary_regions_stay_finite_and_sorted(self):
        ivs = [Interval(0, -1.7e308, 1.7e308), Interval(1, 1.6e308, 1.75e308)]
        pts = elementary_regions(ivs)
        assert all(math.isfinite(x) for x in pts)
        assert pts == sorted(pts)
        assert pts[4] == pytest.approx(1.65e308)
        assert pts[6] == pytest.approx(1.725e308)


class TestBeyondFloat64:
    """Endpoints that are no float64 take the exact sweep in the fast oracle."""

    def test_integers_that_round_together_stay_apart(self):
        # 2**53 + 1 rounds onto 2**53, where the two would overlap as floats
        ivs = [Interval(0, 0, 2**53), Interval(1, 2**53 + 1, 2**54)]
        assignment = {0: RED, 1: RED}
        assert is_conflict_free(ivs, assignment) == Verdict(True)
        assert is_conflict_free_fast(ivs, assignment) == Verdict(True)

    def test_witness_keeps_the_integer(self):
        ivs = [Interval(0, 0, 2**53 + 1), Interval(1, 2**53 + 1, 2**54), Interval(2, 2**54, 2**55)]
        assignment = {0: RED, 1: RED, 2: BLUE}
        slow = is_conflict_free(ivs, assignment)
        assert slow == Verdict(False, 2**53 + 1)
        fast = is_conflict_free_fast(ivs, assignment)
        assert fast == slow and type(fast.witness) is int

    def test_integer_beyond_the_float_range(self):
        ivs = [Interval(0, 0, 10**400), Interval(1, 1, 2)]
        for colors, ok in (((RED, RED), False), ((RED, BLUE), True)):
            assignment = dict(enumerate(colors))
            assert is_conflict_free(ivs, assignment).ok == ok
            assert is_conflict_free_fast(ivs, assignment) == is_conflict_free(ivs, assignment)

    @pytest.mark.parametrize("end", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_end_beyond_the_float_range_on_a_list_and_on_a_state(self, end):
        # float(end) overflows: the state counts it as inexact and sweeps
        ivs = [Interval(0, 0, end), Interval(1, 1, 2)]
        for colors in ((RED, RED), (RED, BLUE)):
            assignment = dict(enumerate(colors))
            slow = is_conflict_free(ivs, assignment)
            assert slow.ok == (colors == (RED, BLUE))
            assert is_conflict_free_fast(ivs, assignment) == slow
            state = ColoringState()
            for iv in ivs:
                state.add(iv)
                state.set_color(iv.id, assignment[iv.id])
            assert state._inexact_live == 1
            assert is_conflict_free_fast(state.intervals.values(), state.assignment) == slow

    def test_large_values_that_are_floats_agree(self):
        # beyond 2**53 but exact: 2**60 + 2**8 is a float64
        ivs = [Interval(0, 2**60, 2**60 + 2**8), Interval(1, 2.0**60 + 2**8, 2**61)]
        for colors in ((RED, RED), (RED, BLUE)):
            assignment = dict(enumerate(colors))
            assert is_conflict_free_fast(ivs, assignment) == is_conflict_free(ivs, assignment)


class TestLedgerAndState:
    def test_initial_color_is_free(self):
        st_ = ColoringState()
        st_.add(Interval(1, 0, 1))
        st_.ledger.begin()
        assert st_.set_color(1, RED)
        assert st_.ledger.total() == 0

    def test_change_counts_and_noop_does_not(self):
        st_ = ColoringState()
        st_.add(Interval(1, 0, 1))
        st_.ledger.begin()
        st_.set_color(1, RED)
        assert not st_.set_color(1, RED)
        assert st_.set_color(1, BLUE)
        assert st_.ledger.total() == 1
        assert st_.ledger.max_per_update() == 1

    def test_rebuild_recolors_tracked_apart(self):
        st_ = ColoringState()
        st_.add(Interval(1, 0, 1))
        st_.ledger.begin()
        st_.set_color(1, RED)
        st_.set_color(1, BLUE, rebuild=True)
        assert st_.ledger.total(include_rebuild=False) == 0
        assert st_.ledger.total(include_rebuild=True) == 1

    def test_duplicate_add_and_unknown_remove(self):
        st_ = ColoringState()
        st_.add(Interval(1, 0, 1))
        with pytest.raises(EngineError):
            st_.add(Interval(1, 2, 3))
        with pytest.raises(EngineError):
            st_.remove(9)

    def test_ledger_counts_monotone(self):
        led = RecolorLedger()
        for _ in range(3):
            led.begin()
            led.note()
        assert [r.recolors for r in led.records] == [1, 1, 1]
        assert led.total() == 3 and led.amortized() == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["begin", "note", "rebuild"]), max_size=60),
           st.integers(-70, 70), st.integers(-70, 70))
    def test_ledger_agrees_with_a_list_of_records(self, calls, i, j):
        led, ref = RecolorLedger(), ListLedger()
        for call in calls:  # may start with notes before any begin()
            for ledger in (led, ref):
                if call == "begin":
                    ledger.begin()
                else:
                    ledger.note(rebuild=call == "rebuild")
        for include in (False, True):
            assert led.total(include) == ref.total(include)
            assert led.max_per_update(include) == ref.max_per_update(include)
            assert led.amortized(include) == ref.amortized(include)
        assert len(led.records) == len(ref.records)
        assert list(led.records) == ref.records
        assert led.records[i:j] == ref.records[i:j]
        assert led.records[j:i:-2] == ref.records[j:i:-2]
        if ref.records:
            assert led.records[-1] == ref.records[-1]
            assert led.records[i % len(ref.records)] == ref.records[i % len(ref.records)]
        for k in (len(ref.records), -len(ref.records) - 1):
            with pytest.raises(IndexError):
                led.records[k]

    def test_ledger_records_are_a_read_only_view(self):
        led = RecolorLedger()
        view = led.records
        led.begin()
        led.note()
        assert len(view) == 1 and view[-1].recolors == 1
        view[-1].recolors = 5  # a snapshot: the ledger keeps its count
        assert led.records[-1].recolors == 1 and led.total() == 1
        with pytest.raises(AttributeError):
            led.records = []
        with pytest.raises(TypeError):
            view[0] = view[0]

    def test_colors_seen_accumulates(self):
        st_ = ColoringState()
        st_.add(Interval(1, 0, 1))
        st_.set_color(1, RED)
        st_.set_color(1, DUMMY)
        assert st_.colors_seen() == {RED, DUMMY}
        assert st_.colors_seen(include_dummy=False) == {RED}
        assert st_.colors_in_use() == {DUMMY}


class TestTraceFormat:
    def test_round_trip(self):
        text = "# header\nI 1 0 2\nI 2 1.5 3\nD 1\n"
        ops = parse_trace(text.splitlines())
        assert ops == [
            Insert(Interval(1, 0, 2)),
            Insert(Interval(2, 1.5, 3)),
            Delete(1),
        ]
        assert format_trace(ops) == "I 1 0 2\nI 2 1.500000 3\nD 1\n"

    def test_parse_reports_line_number(self):
        with pytest.raises(TraceError) as err:
            parse_trace(["I 1 0 2", "bogus line"])
        assert err.value.lineno == 2

    def test_degenerate_interval_rejected_with_lineno(self):
        with pytest.raises(TraceError) as err:
            parse_trace(["I 1 5 5"])
        assert err.value.lineno == 1

    @pytest.mark.parametrize("line", ["I 1 0 inf", "I 1 -inf 0", "I 1 nan 3"])
    def test_non_finite_coordinate_rejected_with_lineno(self, line):
        with pytest.raises(TraceError, match="finite") as err:
            parse_trace(["I 0 0 1", line])
        assert err.value.lineno == 2

    def test_wrong_arity_rejected(self):
        with pytest.raises(TraceError):
            parse_trace(["I 1 0"])
        with pytest.raises(TraceError):
            parse_trace(["D"])

    def test_number_formatting(self):
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(-0.0) == "0"
        assert format_number(0.25) == "0.250000"
        assert format_op(Insert(Interval(7, -1, 0.5))) == "I 7 -1 0.500000"

    def test_op_endpoints_read_back_exactly(self):
        # 6 decimals where they read back as the same float, repr otherwise
        assert format_op(Insert(Interval(0, 0.1234567, 1))) == "I 0 0.1234567 1"
        assert format_op(Insert(Interval(1, 1e-07, 2.25))) == "I 1 1e-07 2.250000"
        assert (format_op(Insert(Interval(2, 3.000000001, 3.0000000012)))
                == "I 2 3.000000001 3.0000000012")
        assert format_op(Insert(Interval(3, 0.123457, 2**60))) == f"I 3 0.123457 {2**60}"

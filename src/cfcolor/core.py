"""Core types and the conflict-freeness oracle for interval coloring.

Intervals are closed on both ends.  A coloring maps interval ids to colors,
where a color is either the universal dummy or a palette color identified by
a (level, index) pair.  A coloring is conflict-free when every point covered
by at least one interval sees some non-dummy color exactly once among the
intervals containing it; the dummy color never counts as the unique one.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from collections.abc import Sequence, ValuesView
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Protocol, Union

import numpy as np

__all__ = [
    "Color",
    "DUMMY",
    "Interval",
    "Insert",
    "Delete",
    "Op",
    "Verdict",
    "UpdateRecord",
    "RecolorLedger",
    "ColoringState",
    "EngineProtocol",
    "EngineError",
    "InvariantError",
    "TraceError",
    "elementary_regions",
    "stabbing_set",
    "is_conflict_free",
    "is_conflict_free_fast",
    "replay",
    "parse_number",
    "format_number",
    "format_color",
    "parse_op",
    "parse_trace",
    "format_trace",
]


@dataclass(frozen=True, order=True, slots=True)
class Color:
    """A palette color (level, index).  Level -1 index -1 is the dummy."""

    level: int
    index: int

    def is_dummy(self) -> bool:
        return self.level < 0

    def __repr__(self) -> str:
        if self.is_dummy():
            return "Color(dummy)"
        return f"Color({self.level},{self.index})"


DUMMY = Color(-1, -1)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [left, right] with a unique integer id."""

    id: int
    left: float
    right: float

    def __post_init__(self):
        if -math.inf < self.left < self.right < math.inf:
            return
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ValueError(
                f"interval {self.id}: endpoints must be finite, got [{self.left}, {self.right}]"
            )
        raise ValueError(
            f"interval {self.id}: left must be < right, got [{self.left}, {self.right}]"
        )

    def contains(self, x: float) -> bool:
        return self.left <= x <= self.right

    def intersects(self, other: "Interval") -> bool:
        return self.left <= other.right and other.left <= self.right

    def contains_interval(self, other: "Interval") -> bool:
        return self.left <= other.left and other.right <= self.right

    @property
    def length(self) -> float:
        return self.right - self.left


@dataclass(frozen=True, slots=True)
class Insert:
    interval: Interval


@dataclass(frozen=True, slots=True)
class Delete:
    id: int


Op = Union[Insert, Delete]


class EngineError(Exception):
    """Invalid use of an engine: duplicate insert id, unknown delete id, ..."""


class InvariantError(Exception):
    """An internal invariant was violated; indicates a defect, not bad input."""


class TraceError(ValueError):
    """Malformed trace or scenario text."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a conflict-freeness check; witness is a violating point.

    When the violation is in the open gap between two consecutive distinct
    endpoints, gap names them; the witness a/2 + b/2 can round onto a or b
    when they are adjacent floats.
    """

    ok: bool
    witness: float | None = None
    gap: tuple[float, float] | None = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class UpdateRecord:
    """Recoloring tally for one update; rebuild traffic is tracked apart."""

    seq: int
    recolors: int = 0
    rebuild_recolors: int = 0

    def count(self, include_rebuild: bool = True) -> int:
        return self.recolors + (self.rebuild_recolors if include_rebuild else 0)


class RecolorLedger:
    """Per-update recoloring counts.

    A recoloring is a color change of an interval that already had a color;
    the initial coloring right after an insertion is free.  Counts noted
    before the first begin() go to an implicit record 0.

    The ledger keeps one int per update (its recolorings) and a dict of
    rebuild recolorings by seq for the few updates that have any, with
    running totals and maxima, so total(), max_per_update() and
    amortized() cost O(1).  records is a read-only view of UpdateRecord
    snapshots, each built on access.
    """

    __slots__ = ("_counts", "_rebuilds", "_total", "_rebuild_total", "_max", "_max_all")

    def __init__(self):
        self._counts: list[int] = []
        self._rebuilds: dict[int, int] = {}
        self._total = self._rebuild_total = 0
        # largest per-update count without and with rebuild recolorings
        self._max = self._max_all = 0

    @property
    def records(self) -> Sequence[UpdateRecord]:
        return _LedgerRecords(self)

    def begin(self) -> None:
        self._counts.append(0)

    def note(self, rebuild: bool = False) -> None:
        counts = self._counts
        if not counts:
            counts.append(0)
        seq = len(counts) - 1
        if rebuild:
            extra = self._rebuilds[seq] = self._rebuilds.get(seq, 0) + 1
            self._rebuild_total += 1
            count = counts[seq]
        else:
            count = counts[seq] = counts[seq] + 1
            self._total += 1
            if count > self._max:
                self._max = count
            extra = self._rebuilds.get(seq, 0)
        if count + extra > self._max_all:
            self._max_all = count + extra

    def total(self, include_rebuild: bool = True) -> int:
        return self._total + self._rebuild_total if include_rebuild else self._total

    def max_per_update(self, include_rebuild: bool = True) -> int:
        return self._max_all if include_rebuild else self._max

    def amortized(self, include_rebuild: bool = True) -> float:
        if not self._counts:
            return 0.0
        return self.total(include_rebuild) / len(self._counts)


class _LedgerRecords(Sequence):
    """A RecolorLedger's updates as UpdateRecord snapshots, oldest first."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: RecolorLedger):
        self._ledger = ledger

    def __len__(self) -> int:
        return len(self._ledger._counts)

    def _record(self, seq: int) -> UpdateRecord:
        return UpdateRecord(seq, self._ledger._counts[seq], self._ledger._rebuilds.get(seq, 0))

    def __getitem__(self, k):
        # range does the index arithmetic: negative k, slices, IndexError
        seqs = range(len(self._ledger._counts))[k]
        if isinstance(seqs, range):
            return [self._record(seq) for seq in seqs]
        return self._record(seqs)

    def __iter__(self):
        return map(self._record, range(len(self._ledger._counts)))


# A patch costs about what a rebuild costs once a quarter of the live ids
# are marked.  So the marks go into a queue bounded by that share of the
# live count at the last fast audit (plus a floor for small states); when
# it fills, the next fast audit rebuilds the cache instead.  The bound
# also holds when a run audits only once, and costs the writers no check.
_MARK_SHARE = 4
_MARK_FLOOR = 64


class _Live(dict):
    """Live intervals by id; values() is a view that names the owning state.

    is_conflict_free_fast takes the state's audit cache when it is handed
    this view together with the same state's assignment.
    """

    # a weak reference to the ColoringState: a strong one would make a
    # cycle, and a dropped state would wait for the cyclic collector
    __slots__ = ("owner",)

    def values(self):
        return _LiveValues(self)


class _LiveValues(ValuesView):
    """The values of a _Live, iterated by the dict itself, in C."""

    __slots__ = ()

    def __iter__(self):
        return iter(dict.values(self._mapping))


class ColoringState:
    """Live intervals plus their colors, with recolor accounting.

    set_color() decides whether an assignment counts as a recoloring (the
    interval already had a color) and reports it to the ledger.  An optional
    on_assign(id, color, is_recolor) hook observes every effective assignment;
    it is used for output logging and for mirroring wrapped engines.

    intervals and assignment are read-only views; add(), remove() and
    set_color() are the only writers.  Once a fast audit has built the
    audit cache, each writer marks its id with the row it had, and the next
    audit patches the cache from the marks.
    """

    def __init__(self):
        self._live = _Live()
        self._live.owner = weakref.ref(self)
        self._colors: dict[int, Color] = {}
        self.intervals: Mapping[int, Interval] = MappingProxyType(self._live)
        self.assignment: Mapping[int, Color] = MappingProxyType(self._colors)
        self.color_of: Callable[[int], Color | None] = self._colors.get
        self.ledger = RecolorLedger()
        self.seen: set[Color] = set()
        self.on_assign: Callable[[int, Color, bool], None] | None = None
        # The audit cache, split by color, and the marks since it was last
        # brought up to date; all None until the first fast audit.  _cols
        # holds the non-dummy rows as (id, left, right, level, index) arrays
        # in no order.  _ends holds the dummy rows' ends as runs: the sorted
        # distinct lefts with the number of dummy rows starting at each,
        # then the same for the rights.  A mark is (id, interval, color) as
        # they were before the write, so an id's first mark since the last
        # audit holds its cached row.
        self._cols: list[np.ndarray] | None = None
        self._ends: tuple[np.ndarray, ...] | None = None
        self._marked: deque[tuple] | None = None
        # kept by every write, cache or not: the ids on a non-dummy color,
        # and the number of live intervals with an endpoint that float64
        # may misstate (_inexact)
        self._nondummy: set[int] = set()
        self._inexact_live = 0

    @property
    def n(self) -> int:
        return len(self._live)

    def add(self, interval: Interval) -> None:
        """Make an interval live; a duplicate id is rejected before any change."""
        live = self._live
        if interval.id in live:
            raise EngineError(f"duplicate insert id {interval.id}")
        live[interval.id] = interval
        left, right = interval.left, interval.right
        # one test passes the int and float ends within 2**53, exact all
        if not (-_EXACT <= left and right <= _EXACT
                and type(left) in _NUMBERS and type(right) in _NUMBERS):
            if _inexact(left) or _inexact(right):
                # the fast audit takes the sweep until this interval is gone
                self._inexact_live += 1
                self._drop_cache()
        marked = self._marked
        if marked is not None:  # one append while a cache exists
            marked.append((interval.id, None, None))

    def begin_insert(self, interval: Interval) -> None:
        """Open an insert: add() the interval, then begin its ledger record.

        Engines run their own input checks before this call, and add()
        changes nothing when it rejects, so a rejected insert leaves the
        state and the ledger as they were.
        """
        self.add(interval)
        self.ledger.begin()

    def begin_delete(self, interval_id: int) -> Interval:
        """Open a delete: reject an unknown id, then begin a ledger record.

        The engine calls remove() once its own structures let go of the id.
        """
        interval = self._live.get(interval_id)
        if interval is None:
            raise EngineError(f"delete of unknown id {interval_id}")
        self.ledger.begin()
        return interval

    def remove(self, interval_id: int) -> Interval:
        interval = self._live.pop(interval_id, None)
        if interval is None:
            raise EngineError(f"delete of unknown id {interval_id}")
        color = self._colors.pop(interval_id, None)
        self._nondummy.discard(interval_id)
        if self._inexact_live and (_inexact(interval.left) or _inexact(interval.right)):
            self._inexact_live -= 1
        marked = self._marked
        if marked is not None:
            marked.append((interval_id, interval, color))
        return interval

    def set_color(self, interval_id: int, color: Color, rebuild: bool = False) -> bool:
        if interval_id not in self._live:
            raise EngineError(f"coloring unknown id {interval_id}")
        colors = self._colors
        old = colors.get(interval_id)
        # identity first: engines that reuse their Color objects skip the
        # dataclass __eq__ on a write that changes nothing
        if old is color or old == color:
            return False
        colors[interval_id] = color
        self.seen.add(color)
        if color.level < 0:
            self._nondummy.discard(interval_id)
        else:
            self._nondummy.add(interval_id)
        marked = self._marked
        if marked is not None:
            marked.append((interval_id, self._live[interval_id], old))
        is_recolor = old is not None
        if is_recolor:
            self.ledger.note(rebuild)
        if self.on_assign is not None:
            self.on_assign(interval_id, color, is_recolor)
        return True

    def _columns(self):
        """The audit cache, brought up to date: the non-dummy rows' left,
        right, level and index arrays, then the dummy rows' ends as runs
        (left values, their counts, right values, their counts).

        The first call builds the cache, and so does a call after the marks
        filled their bounded queue.  A build reads both ends of every live
        interval, but the other columns of the non-dummy rows only, and
        counts the dummy ends as all ends less the non-dummy ones.  Other
        calls patch the cache from the marks: they drop the non-dummy rows
        of every marked id, count the cached dummy ends of the marked ids
        out of the runs, and add fresh rows and counts for the marked ids
        still live, which also covers an id reused with new endpoints.
        Raises ValueError, and leaves the cache and the marks as they were,
        when a live interval has no color.  Raises OverflowError when a color
        or a non-dummy row's id does not fit an int64 (_rows).  The caller
        makes sure no live endpoint is inexact.
        """
        marked, live = self._marked, self._live
        if self._cols is None or len(marked) == marked.maxlen:
            colors = self._colors
            if len(colors) < len(live):
                _missing_colors(list(dict.values(live)), colors)
            ids = list(self._nondummy)
            self._cols, _, _ = _rows(ids, [live[i] for i in ids], colors)
            ends = []
            for end, nondummy in ((_LEFT, self._cols[1]), (_RIGHT, self._cols[2])):
                every = np.fromiter(map(end, dict.values(live)), np.float64, len(live))
                ends += _recounted(*np.unique(every, return_counts=True), nondummy, nondummy[:0])
            self._ends = tuple(ends)
        elif marked:
            self._patch(marked)
        self._marked = deque(maxlen=len(live) // _MARK_SHARE + _MARK_FLOOR)
        return (*self._cols[1:], self._ends)

    def _patch(self, marked: deque[tuple]) -> None:
        """Bring the cache up to date from the marks, as _columns says.

        An id's first mark since the last audit holds its row as the cache
        has it, if any: the ends of a dummy row to count out of the runs,
        or the id of a non-dummy row to drop.
        """
        live = self._live
        first = {mark[0]: mark for mark in reversed(marked)}
        fresh = [i for i in first if i in live]
        fresh, fresh_lefts, fresh_rights = _rows(fresh, [live[i] for i in fresh], self._colors)
        cached = [mark for mark in first.values() if mark[1] is not None]
        gone = [iv for _, iv, color in cached if color.level < 0]
        stale = sorted(i for i, _, color in cached if color.level >= 0)
        # nothing below raises: a raise above leaves the cache as it was,
        # and the stale ids fitted an int64 when their rows were cached
        cols = self._cols
        if stale:
            m = np.array(stale, np.int64)
            at = m.searchsorted(cols[0])
            np.minimum(at, m.size - 1, out=at)
            keep = m[at] != cols[0]
            cols = [c[keep] for c in cols]
        ends = self._ends
        self._cols = [np.concatenate((c, f)) for c, f in zip(cols, fresh)]
        self._ends = (
            *_recounted(*ends[:2], np.fromiter(map(_LEFT, gone), np.float64, len(gone)), fresh_lefts),
            *_recounted(*ends[2:], np.fromiter(map(_RIGHT, gone), np.float64, len(gone)), fresh_rights),
        )

    def _drop_cache(self) -> None:
        """Forget the audit cache; the next fast audit builds it afresh.

        The non-dummy ids are recounted from the colors too, so the build
        reads the colors as they are, even ones written past set_color.
        """
        self._cols = self._ends = self._marked = None
        self._nondummy = {i for i, color in self._colors.items() if color.level >= 0}

    def colors_in_use(self, include_dummy: bool = True) -> set[Color]:
        used = set(self._colors.values())
        if not include_dummy:
            used.discard(DUMMY)
        return used

    def colors_seen(self, include_dummy: bool = True) -> set[Color]:
        if include_dummy:
            return set(self.seen)
        return {c for c in self.seen if not c.is_dummy()}

    def verdict(self) -> Verdict:
        return is_conflict_free(self.intervals.values(), self.assignment)


_LEFT = attrgetter("left")
_RIGHT = attrgetter("right")
_LEVEL = attrgetter("level")
_INDEX = attrgetter("index")


class EngineProtocol(Protocol):
    """The uniform update contract every coloring strategy implements."""

    state: ColoringState

    def insert(self, interval: Interval) -> None: ...

    def delete(self, interval_id: int) -> None: ...


def elementary_regions(intervals: Iterable[Interval]) -> list[float]:
    """One representative point per cell of the endpoint arrangement.

    Returns every distinct endpoint, a midpoint of each open region between
    consecutive endpoints, and one point outside on each side.  Empty input
    yields an empty list.
    """
    coords = set()
    for iv in intervals:
        coords.add(iv.left)
        coords.add(iv.right)
    if not coords:
        return []
    xs = sorted(coords)
    pts = [xs[0] - 1.0]
    for a, b in zip(xs, xs[1:]):
        pts.append(a)
        pts.append(a / 2.0 + b / 2.0)  # no overflow near the float limit
    pts.append(xs[-1])
    pts.append(xs[-1] + 1.0)
    return pts


def stabbing_set(intervals: Iterable[Interval], q: float) -> set[int]:
    """Ids of the intervals containing point q (closed containment)."""
    return {iv.id for iv in intervals if iv.left <= q <= iv.right}


def _missing_colors(ivs: list[Interval], assignment: Mapping[int, Color]) -> None:
    missing = [iv.id for iv in ivs if iv.id not in assignment]
    if missing:
        raise ValueError(f"ill-formed state: no color for interval ids {sorted(missing)}")


def is_conflict_free(
    intervals: Iterable[Interval], assignment: Mapping[int, Color]
) -> Verdict:
    """Endpoint-sweep conflict-freeness check.

    Checks every distinct endpoint and the open region between consecutive
    endpoints, which covers all distinct stabbing sets.  Returns the first
    violating representative point as witness.  Raises ValueError when a live
    interval has no color.
    """
    ivs = list(intervals)
    _missing_colors(ivs, assignment)
    # code each distinct color once; the sweep then hashes only ints
    palette: dict[Color, int] = {}
    codes = [palette.setdefault(assignment[iv.id], len(palette)) for iv in ivs]
    return _sweep(
        [iv.left for iv in ivs],
        [iv.right for iv in ivs],
        codes,
        [not c.is_dummy() for c in palette],
    )


def _sweep(lefts, rights, colors, nondummy, windows=None) -> Verdict:
    """The endpoint sweep over parallel lists, in plain Python.

    nondummy[c] tells whether color c counts as a unique color.  The sweep
    visits each distinct endpoint and the open gap between each two
    consecutive ones, and returns the first where some interval is active
    but no such color occurs exactly once.  Given windows, closed (lo, hi)
    spans, it checks only the endpoints inside one and the gaps within one.
    """
    evs = [(x, 0, c) for x, c in zip(lefts, colors)]
    evs += [(x, 1, c) for x, c in zip(rights, colors)]
    evs.sort()
    counts = dict.fromkeys(colors, 0)
    uniq = 0  # colors that count, occurring exactly once among active intervals
    active = 0
    i, m = 0, len(evs)
    while i < m:
        x = evs[i][0]
        while i < m and evs[i][0] == x and evs[i][1] == 0:
            c = evs[i][2]
            k = counts[c] = counts[c] + 1
            if nondummy[c]:
                uniq += 1 if k == 1 else -(k == 2)
            active += 1
            i += 1
        if active and not uniq:
            if windows is None or any(a <= x <= b for a, b in windows):
                return Verdict(False, x)
        while i < m and evs[i][0] == x:
            c = evs[i][2]
            k = counts[c] = counts[c] - 1
            if nondummy[c]:
                uniq += 1 if k == 1 else -(k == 0)
            active -= 1
            i += 1
        if active and not uniq:
            # the open gap between x and the next endpoint
            nx = evs[i][0]
            if windows is None or any(a <= x and nx <= b for a, b in windows):
                # no overflow near the float limit
                return Verdict(False, x / 2.0 + nx / 2.0, (x, nx))
    return Verdict(True)


def is_conflict_free_fast(
    intervals: Iterable[Interval], assignment: Mapping[int, Color]
) -> Verdict:
    """Vectorized variant of is_conflict_free; same verdicts and witnesses.

    Handed a ColoringState's own state.intervals.values() together with
    the same state's assignment, it reads the state's audit cache: built
    on the first such call, then patched from the writes since the last
    one.  Any other input (a list, another mapping's values, a snapshot)
    is split into the same rows from the objects (_rows), each interval's
    color looked up once.  Either way the intervals wearing a dummy color
    are kept only as runs of their ends, each distinct value with a count,
    so their cost follows the distinct endpoints, at most U of them in a
    fixed universe {0, ..., U-1}.  The others' colors are coded on each
    call (_rank_codes), without hashing Color objects.  Both paths end in
    _cf_folded, which folds the dummy runs into the segments of their
    union: O(n log n) for n intervals, whatever the palette size, and the
    sort behind the sweep is over the non-dummy intervals and the segments
    only.  An endpoint that float64 may misstate (_inexact), such as an
    integer beyond 2**53 that rounds or a Fraction such as 1/3, or a color
    or a non-dummy row's id beyond int64, sends the call to the exact
    sweep is_conflict_free.
    A state counts its live intervals with such an endpoint on every add
    and remove, and while it holds one it takes the sweep at once,
    building no cache.  Intended for tight audit loops; agreement with the
    sweep version, witness and gap included, is tested.
    """
    state = intervals._mapping.owner() if type(intervals) is _LiveValues else None
    if state is not None and assignment is not state.assignment:
        state = None
    if state is not None and state._inexact_live:
        return is_conflict_free(intervals, assignment)
    try:
        if state is not None:
            lefts, rights, levels, indices, dummy = state._columns()
        else:
            intervals = list(intervals)
            (_, lefts, rights, levels, indices), dummy_lefts, dummy_rights = _rows(
                [iv.id for iv in intervals], intervals, assignment
            )
            dummy = (
                *np.unique(dummy_lefts, return_counts=True),
                *np.unique(dummy_rights, return_counts=True),
            )
    except OverflowError:
        # an id, color or endpoint the arrays cannot hold has no row
        if state is not None:
            state._drop_cache()
        return is_conflict_free(intervals, assignment)
    return _cf_folded(lefts, rights, _rank_codes(levels, indices), *dummy)


def _rows(ids: list[int], ivs: list[Interval], assignment: Mapping[int, Color]):
    """The rows of the intervals ivs, whose ids are ids: the non-dummy ones
    as (id, left, right, level, index) arrays, then the dummy ones' lefts
    and their rights, in the order of ivs.

    Raises ValueError when an interval has no color in assignment, and
    OverflowError as _arrays does or when the id of a non-dummy row does
    not fit an int64; a dummy row's id is never read, as in a build.
    """
    try:
        colors = [assignment[i] for i in ids]
    except KeyError:
        _missing_colors(ivs, assignment)
        raise
    lefts, rights, levels, indices = _arrays(ivs, colors)
    keep = levels >= 0
    drop = ~keep
    kept = keep.nonzero()[0].tolist()
    kept_ids = np.fromiter(map(ids.__getitem__, kept), np.int64, len(kept))
    return [kept_ids, *(c[keep] for c in (lefts, rights, levels, indices))], lefts[drop], rights[drop]


# Every integer of magnitude up to 2**53 is a float64, and a float64
# endpoint converts to itself, so an int or float endpoint that its
# float64 misstates lies beyond this.
_EXACT = 2.0**53
_NUMBERS = {int, float}


def _inexact(x) -> bool:
    """Whether float64 may misstate endpoint x: an int beyond 2**53 whose
    float differs, or a value neither int nor float (a Fraction, say)
    whose float() differs or overflows.  Two such endpoints can round onto
    one float and make disjoint intervals overlap.
    """
    kind = type(x)
    if kind is float or (kind is int and -_EXACT <= x <= _EXACT):
        return False
    try:
        return float(x) != x
    except OverflowError:
        return True


def _arrays(ivs: list[Interval], colors: list[Color]):
    """float64 left and right, int64 level and index arrays of the rows.

    Raises OverflowError when a value does not fit its array, or when an
    endpoint is _inexact.  Only the rows with an end beyond 2**53 or an end
    neither int nor float are tested one by one.
    """
    n = len(ivs)
    lefts = np.fromiter(map(_LEFT, ivs), np.float64, n)
    rights = np.fromiter(map(_RIGHT, ivs), np.float64, n)
    # lefts <= rights, so a row has an end beyond _EXACT exactly when
    # one of these holds
    odd = ((lefts <= -_EXACT) | (rights >= _EXACT)).nonzero()[0].tolist()
    if not {*map(type, map(_LEFT, ivs)), *map(type, map(_RIGHT, ivs))} <= _NUMBERS:
        odd = range(n)
    for i in odd:
        iv = ivs[i]
        if _inexact(iv.left) or _inexact(iv.right):
            raise OverflowError(f"interval {iv.id}: an endpoint is not a float64")
    return (
        lefts,
        rights,
        np.fromiter(map(_LEVEL, colors), np.int64, n),
        np.fromiter(map(_INDEX, colors), np.int64, n),
    )


def _recounted(values, counts, gone, new):
    """Runs of ends, sorted distinct values with positive counts, less one
    occurrence of each value in gone and plus one of each value in new.

    gone holds values of the runs.  A searchsorted finds each value of new
    and of gone, and a bincount over the runs turns them into count
    changes.  The values of new not there yet are inserted in order before
    gone is counted out, and a value whose count reaches 0 is dropped.
    -0.0 and 0.0 are one value.
    """
    if new.size:
        at = values.searchsorted(new)
        found = at < values.size
        found[found] = values[at[found]] == new[found]
        counts = counts + np.bincount(at[found], minlength=values.size)
        if not found.all():
            added, added_counts = np.unique(new[~found], return_counts=True)
            at = values.searchsorted(added)
            values, counts = np.insert(values, at, added), np.insert(counts, at, added_counts)
    if gone.size:
        counts = counts - np.bincount(values.searchsorted(gone), minlength=values.size)
        kept = counts > 0
        if not kept.all():
            values, counts = values[kept], counts[kept]
    return values, counts


def _rank_codes(levels, indices):
    """Codes 0, 1, ... of (level, index) pairs, equal where the pairs are.

    Levels and indices are rank-compressed in one rank space, so a packed
    pair of ranks is below (2n)^2 and cannot overflow.  A palette has few
    distinct values: searchsorted into them beats the argsort behind
    return_inverse.
    """
    n = levels.size
    if not n:
        return levels
    pairs = np.concatenate((levels, indices))
    values = _distinct(pairs)
    ranks = values.searchsorted(pairs)
    codes = ranks[:n] * values.size + ranks[n:]
    return _distinct(codes).searchsorted(codes)


def _distinct(a):
    """Sorted distinct values of a nonempty integer array.

    One sort, unlike np.unique, which hashes integers: slower on a palette's
    few values, and it pages in another ~0.6 MB of numpy code.
    """
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _cf_folded(
    lefts, rights, colors, dummy_lefts, dummy_left_counts, dummy_rights, dummy_right_counts
) -> Verdict:
    """The rep sweep over non-dummy rows plus the union of the dummy rows.

    lefts, rights and colors are the rows wearing a non-dummy color, coded
    as small non-negative ints.  The other rows come as runs of their ends:
    dummy_lefts holds their distinct lefts, sorted, and dummy_left_counts
    the number of rows starting at each; the rights likewise.  A dummy
    interval matters only through coverage, so the dummy rows enter the
    sweep as the maximal segments of their union (_union_segments).

    The distinct endpoints x_0 < x_1 < ... give the representative points
    ("reps"): rep 2k is x_k and rep 2k+1 stands for the open gap
    (x_k, x_{k+1}), so an interval covers reps 2*rank(left) .. 2*rank(right).
    One sort of the non-dummy rows' (color, rep) start and end events and a
    running count over them mark, per color, the stretches of reps where
    that color occurs exactly once.  Those stretches and the covered
    stretches go onto two difference arrays over the reps; the first rep
    that is covered but has no unique color is the violation.

    The segments hide the dummy endpoints inside them, so a violating gap
    (a, b) of this arrangement may hold more of the full one: its first
    gap ends at the first dummy value after a, when that is before b.  A
    violating endpoint needs no such fix-up.  So the verdict, witness and
    gap are those of the sweep over every row.  O(n log n + d log d) for n
    non-dummy rows and d distinct dummy ends, whatever the palette size.
    """
    k = lefts.size
    seg_lefts, seg_rights = _union_segments(
        dummy_lefts, dummy_rights, dummy_left_counts, dummy_right_counts
    )
    s = seg_lefts.size
    ends = np.concatenate((lefts, rights, seg_lefts, seg_rights))
    xs, rank = np.unique(ends, return_inverse=True)
    m = 2 * xs.size  # reps 0 .. m-2 and one slot past the last
    # a row covers reps [2*rank(left), 2*rank(right) + 1): its start sits
    # at an even rep and its end at an odd one
    rep = 2 * rank
    rep[k : 2 * k] += 1
    rep[2 * k + s :] += 1
    cover = np.bincount(rep, minlength=m)
    cover[1::2] *= -1
    cover = cover.cumsum()

    # Sorted (color, rep) events of the non-dummy rows; a start (+1) is at
    # an even rep and an end (-1) at an odd one.  The running count drops
    # to 0 after each color's last event, so between two consecutive
    # events it is that color's multiplicity, and no stretch spans colors.
    events = np.concatenate((colors, colors)).astype(np.int64, copy=False) * m + rep[: 2 * k]
    events.sort()
    at = events % m
    count = (1 - 2 * (at % 2)).cumsum()
    once = (count == 1).nonzero()[0]
    unique = (
        np.bincount(at[once], minlength=m) - np.bincount(at[once + 1], minlength=m)
    ).cumsum()

    bad = (cover > 0) & (unique == 0)
    if not bad.any():
        return Verdict(True)
    j, odd = divmod(int(bad.argmax()), 2)
    if not odd:
        return Verdict(False, xs.item(j))
    a, b = xs.item(j), xs.item(j + 1)
    for dummy_ends in (dummy_lefts, dummy_rights):
        i = dummy_ends.searchsorted(a, "right")
        if i < dummy_ends.size:
            b = min(b, dummy_ends.item(i))
    return Verdict(False, a / 2.0 + b / 2.0, (a, b))  # no overflow


def _union_segments(lefts, rights, left_counts=None, right_counts=None):
    """The maximal segments of a union of closed intervals, given their
    ends sorted: lefts, and rights each on its own.

    Without counts each value stands for one end, as in the kinetic chain
    cover.  Then the union breaks after rights[i] exactly when
    lefts[i + 1] > rights[i]: at a point between the two, at least i + 1
    intervals have ended and at most i + 1 have started, so none is active.

    With counts the ends come as runs, as the fast oracle keeps the dummy
    ends: left_counts[i] > 0 intervals start at lefts[i], and the same for
    the rights.  Just past rights[j], the intervals that started at or
    before it number at least those that ended, and the union breaks there
    exactly when the two numbers are equal; the next segment starts at the
    first left beyond rights[j].  This costs a searchsorted and two
    cumsums more than the comparison, which one-end-per-value callers skip.

    Either way abutting intervals such as [0, 1] and [1, 2] make one
    segment [0, 2], and object arrays of Fractions work too.
    """
    if left_counts is None:
        breaks = lefts[1:] > rights[:-1]
        return (
            np.concatenate((lefts[:1], lefts[1:][breaks])),
            np.concatenate((rights[:-1][breaks], rights[-1:])),
        )
    # the lefts up to rights[j] are lefts[:at[j]], never none: lefts[0]
    # is below every right
    at = lefts.searchsorted(rights, "right")
    breaks = (left_counts.cumsum()[at - 1] == right_counts.cumsum()).nonzero()[0]
    return np.concatenate((lefts[:1], lefts[at[breaks[:-1]]])), rights[breaks]


def replay(engine: EngineProtocol, ops: Iterable[Op], audit: str = "none") -> Verdict:
    """Apply ops to an engine through insert/delete, auditing per the policy.

    audit="every" checks conflict-freeness after each op and stops at the
    first failing verdict; "final" checks once after the last op; "none"
    never checks.  Returns the failing verdict, else Verdict(True).
    """
    state = engine.state
    for op in ops:
        if isinstance(op, Insert):
            engine.insert(op.interval)
        else:
            engine.delete(op.id)
        if audit == "every":
            verdict = is_conflict_free_fast(state.intervals.values(), state.assignment)
            if not verdict.ok:
                return verdict
    if audit == "final":
        return is_conflict_free_fast(state.intervals.values(), state.assignment)
    return Verdict(True)


def parse_number(token: str):
    """Decimal literal -> int when integral-looking, else float."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def format_number(x) -> str:
    """Canonical text for coordinates: ints plain, floats with 6 decimals."""
    if isinstance(x, int):
        return str(x)
    if float(x).is_integer():
        return str(int(x))
    return f"{float(x):.6f}"


def format_color(color: Color) -> str:
    if color.is_dummy():
        return "dummy"
    return f"{color.level} {color.index}"


def parse_op(parts: Sequence[str]) -> Op:
    """One `I <id> <left> <right>` or `D <id>` record, split into fields.

    Raises ValueError naming what is wrong; the callers add the line number.
    """
    tag = parts[0]
    if tag == "I":
        if len(parts) != 4:
            raise ValueError("expected 'I <id> <left> <right>'")
        return Insert(Interval(int(parts[1]), parse_number(parts[2]), parse_number(parts[3])))
    if tag == "D":
        if len(parts) != 2:
            raise ValueError("expected 'D <id>'")
        return Delete(int(parts[1]))
    raise ValueError(f"unknown op {tag!r}")


def parse_trace(lines: Iterable[str]) -> list[Op]:
    """Parse the line-based update trace format.

    `I <id> <left> <right>` inserts, `D <id>` deletes; `#` starts a comment.
    Raises TraceError with the offending line number.
    """
    ops: list[Op] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            ops.append(parse_op(parts))
        except ValueError as exc:
            raise TraceError(lineno, str(exc)) from None
    return ops


def _format_endpoint(x) -> str:
    """format_number's text, or for a float it would not read back as
    itself, the float's shortest round-trip repr."""
    text = format_number(x)
    if isinstance(x, float) and parse_number(text) != x:
        return repr(float(x))
    return text


def format_op(op: Op) -> str:
    if isinstance(op, Insert):
        iv = op.interval
        return f"I {iv.id} {_format_endpoint(iv.left)} {_format_endpoint(iv.right)}"
    return f"D {op.id}"


def format_trace(ops: Iterable[Op]) -> str:
    return "".join(format_op(op) + "\n" for op in ops)

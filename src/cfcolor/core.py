"""Core types and the conflict-freeness oracle for interval coloring.

Intervals are closed on both ends.  A coloring maps interval ids to colors,
where a color is either the universal dummy or a palette color identified by
a (level, index) pair.  A coloring is conflict-free when every point covered
by at least one interval sees some non-dummy color exactly once among the
intervals containing it; the dummy color never counts as the unique one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
    "parse_number",
    "format_number",
    "format_color",
    "parse_trace",
    "format_trace",
]


@dataclass(frozen=True, order=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Insert:
    interval: Interval


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Verdict:
    """Outcome of a conflict-freeness check; witness is a violating point."""

    ok: bool
    witness: float | None = None

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
    """

    def __init__(self):
        self.records: list[UpdateRecord] = []

    def begin(self) -> UpdateRecord:
        rec = UpdateRecord(len(self.records))
        self.records.append(rec)
        return rec

    def note(self, rebuild: bool = False) -> None:
        if not self.records:
            self.begin()
        rec = self.records[-1]
        if rebuild:
            rec.rebuild_recolors += 1
        else:
            rec.recolors += 1

    def total(self, include_rebuild: bool = True) -> int:
        return sum(r.count(include_rebuild) for r in self.records)

    def max_per_update(self, include_rebuild: bool = True) -> int:
        if not self.records:
            return 0
        return max(r.count(include_rebuild) for r in self.records)

    def amortized(self, include_rebuild: bool = True) -> float:
        if not self.records:
            return 0.0
        return self.total(include_rebuild) / len(self.records)


class ColoringState:
    """Live intervals plus their colors, with recolor accounting.

    set_color() decides whether an assignment counts as a recoloring (the
    interval already had a color) and reports it to the ledger.  An optional
    on_assign(id, color, is_recolor) hook observes every effective assignment;
    it is used for output logging and for mirroring wrapped engines.
    """

    def __init__(self, ledger: RecolorLedger | None = None):
        self.intervals: dict[int, Interval] = {}
        self.assignment: dict[int, Color] = {}
        self.ledger = ledger if ledger is not None else RecolorLedger()
        self.seen: set[Color] = set()
        self.on_assign: Callable[[int, Color, bool], None] | None = None

    @property
    def n(self) -> int:
        return len(self.intervals)

    def add(self, interval: Interval) -> None:
        """Make an interval live; a duplicate id is rejected before any change."""
        if interval.id in self.intervals:
            raise EngineError(f"duplicate insert id {interval.id}")
        self.intervals[interval.id] = interval

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
        if interval_id not in self.intervals:
            raise EngineError(f"delete of unknown id {interval_id}")
        self.ledger.begin()
        return self.intervals[interval_id]

    def remove(self, interval_id: int) -> Interval:
        if interval_id not in self.intervals:
            raise EngineError(f"delete of unknown id {interval_id}")
        self.assignment.pop(interval_id, None)
        return self.intervals.pop(interval_id)

    def color_of(self, interval_id: int) -> Color | None:
        return self.assignment.get(interval_id)

    def set_color(self, interval_id: int, color: Color, rebuild: bool = False) -> bool:
        if interval_id not in self.intervals:
            raise EngineError(f"coloring unknown id {interval_id}")
        old = self.assignment.get(interval_id)
        if old == color:
            return False
        self.assignment[interval_id] = color
        self.seen.add(color)
        is_recolor = old is not None
        if is_recolor:
            self.ledger.note(rebuild)
        if self.on_assign is not None:
            self.on_assign(interval_id, color, is_recolor)
        return True

    def colors_in_use(self, include_dummy: bool = True) -> set[Color]:
        used = set(self.assignment.values())
        if not include_dummy:
            used.discard(DUMMY)
        return used

    def colors_seen(self, include_dummy: bool = True) -> set[Color]:
        if include_dummy:
            return set(self.seen)
        return {c for c in self.seen if not c.is_dummy()}

    def verdict(self) -> Verdict:
        return is_conflict_free(self.intervals.values(), self.assignment)


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
    if not ivs:
        return Verdict(True)

    events: list[tuple[float, int, Color]] = []
    for iv in ivs:
        c = assignment[iv.id]
        events.append((iv.left, 0, c))
        events.append((iv.right, 1, c))
    events.sort(key=lambda e: (e[0], e[1]))

    counts: dict[Color, int] = {}
    uniq = 0  # non-dummy colors occurring exactly once among active intervals
    active = 0

    def push(c: Color) -> None:
        nonlocal uniq
        k = counts.get(c, 0) + 1
        counts[c] = k
        if not c.is_dummy():
            if k == 1:
                uniq += 1
            elif k == 2:
                uniq -= 1

    def pop(c: Color) -> None:
        nonlocal uniq
        k = counts[c] - 1
        if k:
            counts[c] = k
        else:
            del counts[c]
        if not c.is_dummy():
            if k == 0:
                uniq -= 1
            elif k == 1:
                uniq += 1

    i = 0
    m = len(events)
    while i < m:
        x = events[i][0]
        while i < m and events[i][0] == x and events[i][1] == 0:
            push(events[i][2])
            active += 1
            i += 1
        if active and uniq == 0:
            return Verdict(False, x)
        while i < m and events[i][0] == x:
            pop(events[i][2])
            active -= 1
            i += 1
        if active:
            # open region between x and the next endpoint
            mid = x / 2.0 + events[i][0] / 2.0  # no overflow near the float limit
            if uniq == 0:
                return Verdict(False, mid)
    return Verdict(True)


def is_conflict_free_fast(
    intervals: Iterable[Interval], assignment: Mapping[int, Color]
) -> Verdict:
    """Vectorized variant of is_conflict_free; same verdicts and witnesses.

    Each interval's color is looked up once; numpy does the rest.  The
    palette is coded without hashing Color objects: levels and indices are
    rank-compressed and the two ranks packed into one code.  O(n log n) for
    n intervals, whatever the palette size.  Intended for tight audit loops;
    agreement with the sweep version is tested.
    """
    ivs = list(intervals)
    n = len(ivs)
    if not n:
        return Verdict(True)
    try:
        cols = [assignment[iv.id] for iv in ivs]
    except KeyError:
        _missing_colors(ivs, assignment)
        raise
    # Levels and indices share one rank space, so a packed pair of ranks is
    # below (2n)^2 and cannot overflow.  A palette has few distinct values:
    # searchsorted into them beats the argsort behind return_inverse.
    pairs = np.fromiter(
        itertools.chain((c.level for c in cols), (c.index for c in cols)),
        np.int64,
        2 * n,
    )
    values = _distinct(pairs)
    ranks = values.searchsorted(pairs)
    codes = ranks[:n] * values.size + ranks[n:]
    packed = _distinct(codes)
    nondummy = values[packed // values.size] >= 0
    return _cf_over_arrays(
        np.fromiter((iv.left for iv in ivs), np.float64, n),
        np.fromiter((iv.right for iv in ivs), np.float64, n),
        packed.searchsorted(codes),
        nondummy,
    )


def _distinct(a):
    """Sorted distinct values of a nonempty integer array.

    One sort, unlike np.unique, which hashes integers: slower on a palette's
    few values, and it pages in another ~0.6 MB of numpy code.
    """
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _cf_over_arrays(lefts, rights, colors, nondummy) -> Verdict:
    """Conflict-freeness over parallel endpoint/color-code arrays.

    colors holds indices into a palette whose dummy mask is nondummy.  The
    distinct endpoints x_0 < x_1 < ... give the representative points
    ("reps"): rep 2k is x_k and rep 2k+1 stands for the open gap
    (x_k, x_{k+1}), so an interval covers reps 2*rank(left) .. 2*rank(right).
    One sort of the non-dummy intervals' (color, rep) start and end events
    and a running count over them mark, per color, the stretches of reps
    where that color occurs exactly once.  Those stretches and the covered
    stretches go onto two difference arrays over the reps; the first rep
    that is covered but has no unique color is the witness.  O(n log n) for
    n intervals, whatever the palette size.  Shared by is_conflict_free_fast
    and audit loops that already keep endpoints in arrays.
    """
    n = lefts.size
    xs, rank = np.unique(np.concatenate((lefts, rights)), return_inverse=True)
    m = 2 * xs.size  # reps 0 .. m-2 and one slot past the last
    # an interval covers reps [2*rank(left), 2*rank(right) + 1)
    rep = 2 * rank
    rep[n:] += 1
    cover = (
        np.bincount(rep[:n], minlength=m) - np.bincount(rep[n:], minlength=m)
    ).cumsum()

    # Sorted (color, rep) events of the non-dummy intervals; a start (+1)
    # is at an even rep and an end (-1) at an odd one.  The running count
    # drops to 0 after each color's last event, so between two consecutive
    # events it is that color's multiplicity, and no stretch spans colors.
    codes = np.concatenate((colors, colors))
    nd = nondummy[codes]
    events = codes[nd].astype(np.int64, copy=False) * m + rep[nd]
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
    k, odd = divmod(int(bad.argmax()), 2)
    if odd:
        return Verdict(False, float(xs[k] / 2.0 + xs[k + 1] / 2.0))  # no overflow
    return Verdict(False, float(xs[k]))


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


def parse_trace(lines: Iterable[str]) -> list[Op]:
    """Parse the line-based update trace format.

    `I <id> <left> <right>` inserts, `D <id>` deletes; `#` starts a comment.
    Raises TraceError with the offending line number.
    """
    ops: list[Op] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "I":
                if len(parts) != 4:
                    raise ValueError("expected: I <id> <left> <right>")
                ops.append(
                    Insert(
                        Interval(
                            int(parts[1]), parse_number(parts[2]), parse_number(parts[3])
                        )
                    )
                )
            elif tag == "D":
                if len(parts) != 2:
                    raise ValueError("expected: D <id>")
                ops.append(Delete(int(parts[1])))
            else:
                raise ValueError(f"unknown op {tag!r}")
        except ValueError as exc:
            raise TraceError(lineno, str(exc)) from None
    return ops


def format_op(op: Op) -> str:
    if isinstance(op, Insert):
        iv = op.interval
        return f"I {iv.id} {format_number(iv.left)} {format_number(iv.right)}"
    return f"D {op.id}"


def format_trace(ops: Iterable[Op]) -> str:
    return "".join(format_op(op) + "\n" for op in ops)

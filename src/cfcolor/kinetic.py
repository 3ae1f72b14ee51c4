"""Conflict-free coloring under motion: chains with four colors total.

Intervals move with constant endpoint velocities.  The coloring keeps a
chain: a subset whose members, sorted by left endpoint, intersect only
their neighbors (C1), cover every non-chain interval (C2), and are never
contained in any other interval (C3).  Chain members carry one of three
non-dummy colors with consecutive members colored differently; everything
else is dummy.  Any such coloring is conflict-free: a covered point sees
at most two chain intervals and they disagree.

An event is two endpoints crossing.  Each event is repaired by adding at
most one interval to the chain and removing at most two, which costs at
most three recolorings.  The geometry right before and right after an
event is probed at midpoints toward the previous event time and the
event's next_time, so the decisions never evaluate at the degenerate
instant itself.  compute_events finds the events and each one's
next_time, the first crossing of any kind after it (beyond the horizon
too), with numpy arithmetic over all trajectory pairs, one crossing
family at a time, and builds the events without their frozen __init__.
Its output equals a plain loop over the pairs, value and type: float64
arrays serve where numpy rounds as Python does (floats, ints within
2**52), object arrays of the coefficients otherwise.

The maintainer keeps its state once, in arrays aligned to the sorted ids:
the endpoint coefficients (float64, or Fraction objects in exact mode),
the chain mask, and palette codes into (DUMMY, *CHAIN_PALETTE), where
dummy is code 0.  Its colors and chain are views built from them, and
the same array code serves both modes: numpy sorts, searches and
compares object arrays of Fractions exactly.

The event handlers read the chain order from a list of the members' ids
that the maintainer keeps across events, in _order's own order: left end
at the post-event time of the last step, then position.  Only crossing
left ends reorder it, so a lone LL crossing of two members swaps them,
and a batch of several events at one time re-sorts once; a member joins
by bisection and leaves by removal.  The escape test bisects the same
list and walks forward over the members the interval spans, instead of
merging the whole chain cover.  _order and _merged_chain stay the
reference that the full audit and the tests use.

check_invariants(t) audits C1-C3, the color rule and conflict-freeness.
Every passing audit leaves a certificate: the cursor, t, and copies of
the codes and the chain mask.  When the events since then form exactly
one whole batch, the certificate's time lies after the batch before it,
and t lies between this batch and the next crossing of any kind, the
endpoint order at t differs from the certified one only at the batch's
crossing pairs: the locality argument of kinetic data structures (Basch,
Guibas and Hershberger, SODA 1997).  The audit then keeps local only
what is local: C3 for the batch's LL/RR pairs and for members added
since the certificate, and conflict-freeness inside the event windows
and the spans of recolored ids.  The color rule, C1, the
overlapping-neighbour rule and C2 it checks on whole arrays, at about
the cost that evaluating every endpoint at t and sorting the chain
already have.  Any other call (the first one, a stride above one,
audit="final", a run's closing audit, or an arbitrary t) runs the full
audit, a plain-Python sweep over the whole state, which is also the
reference the tests hold the delta to.

The module also contains the machinery for the quadratic lower bound:
rigid 4-interval gadgets whose pairwise overlap patterns admit no valid
4-coloring, and a scenario that drives n moving gadgets through n parked
ones to force a recoloring per crossing.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right, insort
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .chain import build_chain, connected_components
from .core import (
    DUMMY,
    Color,
    EngineError,
    Interval,
    InvariantError,
    RecolorLedger,
    TraceError,
    Verdict,
    _sweep,
    _union_segments,
    format_number,
    is_conflict_free,
    parse_number,
)

__all__ = [
    "Event",
    "EventRecord",
    "KineticMaintainer",
    "Trajectory",
    "compute_events",
    "format_scenario",
    "lowerbound_scenario",
    "make_gadget",
    "parse_scenario",
    "random_scenario",
    "verify_gadget_lemma",
]

CHAIN_PALETTE = (Color(0, 0), Color(0, 1), Color(0, 2))
# the palette that KineticMaintainer's codes index; dummy is code 0
_PALETTE = (DUMMY, *CHAIN_PALETTE)
_CODE = {c: k for k, c in enumerate(_PALETTE)}
_NONDUMMY = np.array([not c.is_dummy() for c in _PALETTE])


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Interval [a0 + va*t, b0 + vb*t]; endpoints move independently."""

    id: int
    a0: float
    va: float
    b0: float
    vb: float

    def left(self, t):
        return self.a0 + self.va * t

    def right(self, t):
        return self.b0 + self.vb * t

    def at(self, t) -> Interval:
        return Interval(self.id, self.left(t), self.right(t))

    def as_exact(self) -> "Trajectory":
        return Trajectory(
            self.id,
            Fraction(self.a0),
            Fraction(self.va),
            Fraction(self.b0),
            Fraction(self.vb),
        )


@dataclass(frozen=True, slots=True)
class Event:
    """For RL kinds, id1 owns the right endpoint and id2 the left one.

    next_time is the first crossing of any kind strictly after time,
    beyond the horizon too, or None when there is none.  Slotted: a set-up
    holds one Event per crossing, and without an instance dict each is
    smaller and the cyclic collector has less to walk while they pile up.
    compute_events fills the slots of its events directly (_make_events),
    which skips the frozen __init__; they compare, hash and print like any
    Event built by hand.
    """

    time: float
    kind: str
    id1: int
    id2: int
    next_time: float | None = field(default=None, compare=False, repr=False)


_EVENT_SLOTS = tuple(Event.__dict__[f.name].__set__ for f in fields(Event))


def _make_events(*columns) -> list[Event]:
    """Events from one column per field, in field order.

    Each slot is set through its member descriptor: a frozen dataclass's
    __init__ pays an object.__setattr__ call per field, most of an event's
    cost when a set-up builds tens of thousands.
    """
    events = list(map(object.__new__, itertools.repeat(Event, len(columns[0]))))
    for put, column in zip(_EVENT_SLOTS, columns):
        deque(map(put, events, column), maxlen=0)
    return events


# event kinds ranked in string order, as the sort key compares them
_KINDS = ("LL", "RL-meet", "RL-separate", "RR")
_LL, _RL_MEET, _RL_SEPARATE, _RR = np.arange(4, dtype=np.int8)


def _float64_exact(values) -> bool:
    """True when numpy's float64 subtract, divide and compare on these give
    what Python's own operators give: floats, and ints that convert exactly
    and whose differences do too."""
    return all(
        isinstance(x, float) or (isinstance(x, int) and -(2**52) <= x <= 2**52)
        for x in values
    )


def compute_events(trajectories, t0, until) -> list[Event]:
    """Every endpoint crossing in (t0, until], sorted and deterministic.

    Each event's next_time also counts the crossings that are no events:
    those beyond the horizon and each trajectory's own left/right
    inversion, since rounding can put one inside the horizon.  Post-event
    states are evaluated at a midpoint before next_time, so the midpoint
    never jumps past a crossing.

    The arithmetic runs on arrays: float64 when numpy rounds as Python
    does, else object arrays whose elements (Fractions, big ints) use
    Python's own operators.  Either way the events equal those of a plain
    loop over the pairs, and every time is the Python value it computes.
    """
    trajs = list(trajectories)
    if len(trajs) < 2:
        return []
    cols = [(tr.a0, tr.va, tr.b0, tr.vb) for tr in trajs]
    dtype = np.float64 if _float64_exact([t0, until, *itertools.chain(*cols)]) else object
    a0, va, b0, vb = (np.array(col, dtype=dtype) for col in zip(*cols))
    # ids as ranks, so that any int (negative, beyond int64) sorts as an int32
    ids = sorted({tr.id for tr in trajs})
    rank_of = dict(zip(ids, range(len(ids))))
    rank = np.array([rank_of[tr.id] for tr in trajs], dtype=np.int32)
    t, kind, i1, i2, beyond = _crossings(a0, va, b0, vb, rank, t0, until)
    if t.size == 0:
        return []
    den = va - vb  # each trajectory's own left/right inversion
    pick = np.flatnonzero(den != 0)
    inv = (b0[pick] - a0[pick]) / den[pick]
    times = t.tolist()
    ids = np.array(ids, dtype=object)
    return _make_events(
        times,
        np.array(_KINDS, dtype=object)[kind].tolist(),
        ids[i1].tolist(),
        ids[i2].tolist(),
        _next_times(t, times, beyond, inv[inv > t0]),
    )


def _crossings(a0, va, b0, vb, rank, t0, until):
    """The pair crossings in (t0, until], sorted as the events are.

    Returns arrays of their times, kind codes and the ranks of id1 and
    id2, then the least pair crossing after until, or None.  The pairs are
    taken one crossing family at a time, so only one family's pair arrays
    are alive.
    """
    I, J = np.triu_indices(rank.size, 1)  # the pairs, in itertools.combinations order
    # (c0, cv, d0, dv, p, q, kind): p's c end meets q's d end at
    # (d0[q] - c0[p]) / (cv[p] - dv[q]); RL kinds (None) by the gap's sign
    families = (
        (b0, vb, b0, vb, I, J, _RR),
        (a0, va, a0, va, I, J, _LL),
        (b0, vb, a0, va, I, J, None),
        (b0, vb, a0, va, J, I, None),
    )
    parts = []  # per family: (t, lo, hi, kind, i1, i2) of its crossings
    beyonds = []  # per family: (least t after until, pair, family)
    for f, (c0, cv, d0, dv, p, q, kind) in enumerate(families):
        den = cv[p] - dv[q]
        pick = np.flatnonzero(den != 0)
        t = (d0[q[pick]] - c0[p[pick]]) / den[pick]
        later = t > t0
        pick, t = pick[later], t[later]
        now = t <= until
        if not now.all():
            rest = np.flatnonzero(~now)
            k = rest[t[rest].argmin()]  # the first least one, as a loop finds it
            beyonds.append((t.item(k), int(pick[k]), f))
            pick, t = pick[now], t[now]
        pp, qq = p[pick], q[pick]
        rp, rq = rank[pp], rank[qq]
        lo, hi = np.minimum(rp, rq), np.maximum(rp, rq)
        if kind is None:  # RL: p owns the right end, q the left one
            kinds = np.where(dv[qq] < cv[pp], _RL_MEET, _RL_SEPARATE)
            parts.append((t, lo, hi, kinds, rp, rq))
        else:
            parts.append((t, lo, hi, np.full(t.size, kind), lo, hi))
    t, lo, hi, kind, i1, i2 = (np.concatenate(col) for col in zip(*parts))
    # ties in (time, pair, kind) can only come from rounding; they break by
    # id1, so the order does not depend on the order of the trajectories
    order = np.lexsort((i2, i1, kind, hi, lo, t))
    beyond = min(beyonds)[0] if beyonds else None
    return t[order], kind[order], i1[order], i2[order], beyond


def _next_times(t, times, beyond, inv):
    """Each event's next_time, given the sorted event times as an array and
    as their Python objects, the least pair crossing after the horizon
    (or None) and the inversion times after t0.

    The next_time is the first later time among these; on a tie a pair
    crossing's, and as the same object a loop over the pairs hands out.
    """
    # each run of equal times is named by its last event, as a loop
    # walking the sorted events backwards finds it
    last = np.ones(t.size, dtype=bool)
    last[:-1] = t[1:] != t[:-1]
    ahead = [t[last]]
    objs = [np.array(times, dtype=object)[last]]
    if beyond is not None:
        ahead.append(np.array([beyond], dtype=t.dtype))
        objs.append(np.array([beyond], dtype=object))
    ahead.append(inv)
    objs.append(inv.astype(object))
    ahead = np.concatenate(ahead)
    order = ahead.argsort(kind="stable")  # a pair's time first on ties
    objs = np.append(np.concatenate(objs)[order], None)
    return objs[ahead[order].searchsorted(t, side="right")].tolist()


def _event_window(ev, vpos, lefts, rights):
    """The span between an event's two crossing endpoints at the arrays' time."""
    i, j = vpos[ev.id1], vpos[ev.id2]
    if ev.kind == "LL":
        x, y = lefts.item(i), lefts.item(j)
    elif ev.kind == "RR":
        x, y = rights.item(i), rights.item(j)
    else:  # RL kinds: id1 owns the right endpoint, id2 the left one
        x, y = rights.item(i), lefts.item(j)
    return (x, y) if x <= y else (y, x)


def _meeting(lefts, rights, spans):
    """Mask of the intervals that meet at least one closed span."""
    near = np.zeros(lefts.size, dtype=bool)
    for lo, hi in spans:
        near |= (lefts <= hi) & (rights >= lo)
    return near


class _Certificate(NamedTuple):
    """State at a passing check: cursor, time, codes and chain mask."""

    cursor: int
    t: float
    codes: np.ndarray
    mask: np.ndarray


class _ColorView(Mapping):
    """Read-only id -> Color view of the palette codes aligned to _vid."""

    __slots__ = ("_codes", "_vpos")

    def __init__(self, codes, vpos):
        self._codes = codes
        self._vpos = vpos

    def __getitem__(self, iid) -> Color:
        return _PALETTE[self._codes.item(self._vpos[iid])]

    def __iter__(self):
        return iter(self._vpos)

    def __len__(self) -> int:
        return len(self._vpos)


@dataclass(slots=True)
class EventRecord:
    event: Event
    added: int | None
    removed: list[int]
    recolored: list[tuple[int, Color]]
    t_eval: float


class KineticMaintainer:
    """Keeps the chain and its coloring valid across every event.

    The state is held once, in arrays aligned to the sorted ids (_vid):
    endpoint coefficients (float64, or Fraction objects in exact mode),
    the chain mask and the codes into _PALETTE.
    """

    def __init__(self, trajectories, t0=0.0, until=None, exact=False):
        if until is None or until <= t0:
            raise EngineError("a horizon strictly after the start time is required")
        if exact:
            t0 = Fraction(t0)
            until = Fraction(until)
            trajectories = [tr.as_exact() for tr in trajectories]
        self.trajs = {tr.id: tr for tr in trajectories}
        if len(self.trajs) != len(trajectories):
            raise EngineError("duplicate trajectory ids")
        self.t0 = t0
        self.until = until
        for tr in trajectories:
            if tr.left(t0) >= tr.right(t0) or tr.left(until) >= tr.right(until):
                raise EngineError(
                    f"trajectory {tr.id} degenerates within the time horizon"
                )
        endpoints = [tr.left(t0) for tr in trajectories]
        endpoints += [tr.right(t0) for tr in trajectories]
        if len(set(endpoints)) != len(endpoints):
            raise EngineError("coincident endpoints at the start time")

        self.events = compute_events(trajectories, t0, until)
        self.cursor = 0
        self.ledger = RecolorLedger()
        self.seen: set[Color] = set()
        self._prev_time = t0
        self._half = Fraction(1, 2) if exact else 0.5
        self._vid = sorted(self.trajs)
        self._vid_arr = np.array(self._vid)
        self._vpos = {iid: k for k, iid in enumerate(self._vid)}
        dtype = object if exact else np.float64
        ordered = [self.trajs[i] for i in self._vid]
        self._va0 = np.array([tr.a0 for tr in ordered], dtype=dtype)
        self._vva = np.array([tr.va for tr in ordered], dtype=dtype)
        self._vb0 = np.array([tr.b0 for tr in ordered], dtype=dtype)
        self._vvb = np.array([tr.vb for tr in ordered], dtype=dtype)
        self._chain_mask = np.zeros(len(self._vid), dtype=bool)
        self._codes = np.zeros(len(self._vid), dtype=np.intp)
        self._recolored_buf: list[tuple[int, Color]] = []
        # state at the last passing check; see check_invariants
        self._cert: _Certificate | None = None
        self._init_chain()
        # the chain ids as _order(_order_t) lists them, kept across events
        self._order_t = t0
        self._chain_order = self._order(t0)

    @property
    def colors(self) -> Mapping[int, Color]:
        """Each id's color, as a read-only view of the codes."""
        return _ColorView(self._codes, self._vpos)

    @property
    def chain(self) -> set[int]:
        """The chain members' ids, built from the chain mask."""
        return set(self._vid_arr[self._chain_mask].tolist())

    # ------------------------------------------------------------ geometry

    def snapshot(self, t) -> list[Interval]:
        return [tr.at(t) for tr in self.trajs.values()]

    def _ends(self, t):
        """Every interval's (lefts, rights) at t, aligned to _vid."""
        return self._va0 + self._vva * t, self._vb0 + self._vvb * t

    def _member(self, iid) -> bool:
        return self._chain_mask.item(self._vpos[iid])

    def _code(self, iid) -> int:
        return self._codes.item(self._vpos[iid])

    def _order(self, t) -> list[int]:
        """Chain members by (left endpoint at t, id)."""
        cidx = np.flatnonzero(self._chain_mask)
        # positions ascend with ids, so a stable sort breaks ties by id
        order = cidx[(self._va0[cidx] + self._vva[cidx] * t).argsort(kind="stable")]
        return self._vid_arr[order].tolist()

    def _neighbor(self, iid, side):
        """iid's predecessor or successor in the kept chain order, or None."""
        order = self._chain_order
        pos = order.index(iid)
        if side == "pred":
            return order[pos - 1] if pos > 0 else None
        return order[pos + 1] if pos + 1 < len(order) else None

    def _left_now(self, iid):
        """iid's left end at _order_t, the value _order's arrays give: they
        hold the same numbers (as float64, or the same Fractions), and one
        multiply and one add round alike in numpy and in Python."""
        return self.trajs[iid].left(self._order_t)

    def _right_now(self, iid):
        return self.trajs[iid].right(self._order_t)

    def _order_key(self, iid):
        return self._left_now(iid), self._vpos[iid]

    def _advance_order(self, ev, t):
        """Bring the kept chain order to t, the event's post-event time.

        Between two batches only the batch's crossings reorder left ends.
        A lone LL crossing of two members swaps them, adjacent as their
        lefts were just before they met; a batch of several events at one
        time re-sorts once, at its first event.
        """
        c, events = self.cursor, self.events
        if c and events[c - 1].time == ev.time:
            return
        self._order_t = t
        if c + 1 < len(events) and events[c + 1].time == ev.time:
            self._chain_order = self._order(t)
        elif ev.kind == "LL" and self._member(ev.id1) and self._member(ev.id2):
            order = self._chain_order
            i, j = order.index(ev.id1), order.index(ev.id2)
            order[i], order[j] = order[j], order[i]

    def _intersects(self, i, j, t) -> bool:
        ti, tj = self.trajs[i], self.trajs[j]
        return ti.left(t) <= tj.right(t) and tj.left(t) <= ti.right(t)

    def _merged_chain(self, t):
        segs = []
        for iid in self._order(t):
            iv = self.trajs[iid].at(t)
            if segs and iv.left <= segs[-1][1]:
                segs[-1][1] = max(segs[-1][1], iv.right)
            else:
                segs.append([iv.left, iv.right])
        return segs

    def _covered_by_chain(self, iid) -> bool:
        """Does the chain's union hold iid at _order_t?

        Walks the kept order forward from the last member whose left end
        is at most iid's, starting from the larger right end of that
        member and its predecessor: under C1 no earlier member reaches
        iid's left end, and under C3 none reaches past that member.  So
        the answer is _merged_chain's while either rule holds among the
        members before iid; the tests hold it to that on every call.
        """
        order = self._chain_order
        lo, hi = self._left_now(iid), self._right_now(iid)
        pos = bisect_right(order, lo, key=self._left_now) - 1
        if pos < 0:
            return False
        reach = self._right_now(order[pos])
        if pos:
            reach = max(reach, self._right_now(order[pos - 1]))
        k = pos + 1
        while reach < hi and k < len(order) and self._left_now(order[k]) <= reach:
            reach = max(reach, self._right_now(order[k]))
            k += 1
        return reach >= hi

    # ------------------------------------------------------------ coloring

    def _init_chain(self):
        for comp in connected_components(self.snapshot(self.t0)):
            for k, iv in enumerate(build_chain(comp)):
                pos = self._vpos[iv.id]
                self._chain_mask[pos] = True
                self._codes[pos] = _CODE[CHAIN_PALETTE[k % 2]]
        self.seen = {_PALETTE[c] for c in set(self._codes.tolist())}

    def _chain_add(self, iid):
        """Make iid a member.  Like _chain_drop it does nothing when the
        mask already agrees, so the kept order never holds an id twice."""
        k = self._vpos[iid]
        if not self._chain_mask.item(k):
            self._chain_mask[k] = True
            insort(self._chain_order, iid, key=self._order_key)

    def _chain_drop(self, iid):
        k = self._vpos[iid]
        if self._chain_mask.item(k):
            self._chain_mask[k] = False
            self._chain_order.remove(iid)

    def _set(self, iid, color) -> bool:
        k, code = self._vpos[iid], _CODE[color]
        if self._codes.item(k) == code:
            return False
        self._codes[k] = code
        self._recolored_buf.append((iid, color))
        self.seen.add(color)
        self.ledger.note()
        return True

    def _set_avoiding(self, iid, others):
        """Give iid the first chain color that no id in others wears."""
        avoid = {self._code(i) for i in others if i is not None}
        for c in CHAIN_PALETTE:
            if _CODE[c] not in avoid:
                self._set(iid, c)
                return
        raise InvariantError("no chain color available")  # |avoid| <= 2

    def _color_added(self, aid):
        self._set_avoiding(aid, [self._neighbor(aid, side) for side in ("pred", "succ")])

    # -------------------------------------------------------------- events

    def step(self) -> EventRecord | None:
        if self.cursor >= len(self.events):
            return None
        ev = self.events[self.cursor]
        nxt = ev.next_time
        t_before = (self._prev_time + ev.time) / 2
        t_after = (ev.time + nxt) / 2 if nxt is not None else ev.time + self._half
        self.ledger.begin()
        self._recolored_buf = []
        self._advance_order(ev, t_after)
        added, removed = self._dispatch(ev, t_before, t_after)
        recolored = self._recolored_buf
        self.cursor += 1
        if self.cursor >= len(self.events) or self.events[self.cursor].time != ev.time:
            self._prev_time = ev.time
        return EventRecord(ev, added, removed, recolored, t_after)

    def _dispatch(self, ev, t_before, t_after):
        if ev.kind == "RR":
            return self._endpoint_swap(ev, "pred", t_before, t_after)
        if ev.kind == "LL":
            return self._endpoint_swap(ev, "succ", t_before, t_after)
        if ev.kind == "RL-meet":
            return self._meet(ev)
        if ev.kind == "RL-separate":
            return self._separate(ev, t_after)
        raise InvariantError(f"unknown event kind {ev.kind}")

    def _containment_roles(self, i, j, t_before, t_after):
        ti, tj = self.trajs[i], self.trajs[j]
        for x, y in ((ti, tj), (tj, ti)):
            before = y.left(t_before) <= x.left(t_before) and x.right(t_before) <= y.right(t_before)
            after = y.left(t_after) <= x.left(t_after) and x.right(t_after) <= y.right(t_after)
            if before and not after:
                return "escape", x.id, y.id
            if after and not before:
                return "capture", x.id, y.id
        return None, None, None

    def _endpoint_swap(self, ev, side, t_before, t_after):
        """Cases A (side='pred') and B (side='succ'): same-end crossings."""
        role, x, y = self._containment_roles(ev.id1, ev.id2, t_before, t_after)
        if role == "escape":
            # x slid out of y; chain may no longer cover x
            if self._member(x):
                raise InvariantError(f"contained interval {x} was in the chain")
            if self._covered_by_chain(x):
                return None, []
            if not self._member(y):
                raise InvariantError(f"uncovered escape from non-chain interval {y}")
            nb = self._neighbor(y, side)
            self._chain_add(x)
            removed = []
            if nb is not None and self._intersects(x, nb, t_after):
                self._chain_drop(y)
                removed.append(y)
                self._set(y, DUMMY)
            self._color_added(x)
            return x, removed
        if role == "capture":
            if not self._member(x):
                return None, []
            n1 = self._neighbor(x, side)
            n2 = self._neighbor(n1, side) if n1 is not None else None
            self._chain_drop(x)
            removed = [x]
            self._set(x, DUMMY)
            if self._member(y):
                return None, removed
            self._chain_add(y)
            if (
                n1 is not None
                and n2 is not None
                and self._intersects(n2, y, t_after)
            ):
                self._chain_drop(n1)
                removed.append(n1)
                self._set(n1, DUMMY)
            self._color_added(y)
            return y, removed
        return None, []

    def _meet(self, ev):
        left_id, right_id = ev.id1, ev.id2  # right endpoint of id1 met left of id2
        if not (self._member(left_id) and self._member(right_id)):
            return None, []
        order = self._chain_order
        li, ri = order.index(left_id), order.index(right_id)
        if li > ri:
            li, ri = ri, li
        between = order[li + 1 : ri]
        if len(between) > 1:
            raise InvariantError("chain had two members between a meeting pair")
        removed = []
        if between:
            mid = between[0]
            self._chain_drop(mid)
            removed.append(mid)
            self._set(mid, DUMMY)
        # the pair is adjacent now; break a color tie by recoloring the left one
        if self._code(left_id) == self._code(right_id):
            pred = self._neighbor(left_id, "pred")
            self._set_avoiding(left_id, [right_id, pred])
        return None, removed

    def _separate(self, ev, t_after):
        left_id, right_id = ev.id1, ev.id2
        if not (self._member(left_id) and self._member(right_id)):
            return None, []
        p = self.trajs[left_id].right(ev.time)
        lefts, rights = self._ends(ev.time)
        cand = (~self._chain_mask & (lefts <= p) & (rights >= p)).nonzero()[0]
        if not cand.size:
            return None, []
        # positions ascend with ids, so the first least left breaks ties by id
        bridge = self._vid[cand[lefts[cand].argmin()]]
        old_pred = self._neighbor(left_id, "pred")
        old_succ = self._neighbor(right_id, "succ")
        self._chain_add(bridge)
        removed = []
        if old_pred is not None and self._intersects(bridge, old_pred, t_after):
            self._chain_drop(left_id)
            removed.append(left_id)
            self._set(left_id, DUMMY)
        if old_succ is not None and self._intersects(bridge, old_succ, t_after):
            self._chain_drop(right_id)
            removed.append(right_id)
            self._set(right_id, DUMMY)
        self._color_added(bridge)
        return bridge, removed

    # ---------------------------------------------------------------- runs

    def run(self, audit=None, stride=1):
        """Process all events; audit at batch boundaries per the policy."""
        return list(self._iter_run(audit, stride))

    def _iter_run(self, audit=None, stride=1):
        """Generator form of run(): yields each record before its audit."""
        batches = 0
        final_t = self.until
        while True:
            rec = self.step()
            if rec is None:
                break
            yield rec
            final_t = rec.t_eval
            boundary = (
                self.cursor >= len(self.events)
                or self.events[self.cursor].time != rec.event.time
            )
            if boundary:
                batches += 1
                if audit == "every" and batches % stride == 0:
                    self.check_invariants(rec.t_eval)
        if audit in ("every", "final"):
            self.check_invariants(final_t)

    # ----------------------------------------------------------- checking

    def check_invariants(self, t):
        """Raise InvariantError unless chain and coloring are valid at t.

        A check right after one event batch, with the previous passing
        check before that batch, takes the batch audit, local for C3 and
        conflict-freeness and on whole arrays for the other rules
        (_check_invariants_delta); every other call runs the full audit
        over the whole state (_check_invariants_sweep).
        """
        cert, self._cert = self._cert, None
        if cert is not None and self._delta_applies(cert, t):
            self._check_invariants_delta(t, cert)
        else:
            self._check_invariants_sweep(t)
        self._cert = _Certificate(
            self.cursor, t, self._codes.copy(), self._chain_mask.copy()
        )

    def _delta_applies(self, cert, t) -> bool:
        """Do exactly the crossings of one whole batch lie between cert.t and t?

        Every crossing up to the horizon is an event, and next_time is
        the next crossing of any kind, so then the endpoint order at t
        differs from the certified one only by that batch's swaps.
        """
        c0, c1 = cert.cursor, self.cursor
        if c1 <= c0:
            return False
        when = self.events[c0].time
        if self.events[c1 - 1].time != when:
            return False
        if c1 < len(self.events) and self.events[c1].time == when:
            return False
        before = self.events[c0 - 1].time if c0 else self.t0
        nxt = self.events[c1 - 1].next_time
        return before < cert.t < when < t and (nxt is None or t < nxt)

    def _check_invariants_delta(self, t, cert):
        """The audit after one batch since the certificate.

        The color rule, C1, the overlapping-neighbour rule and C2 are
        checked on whole arrays, at about the cost that evaluating every
        endpoint at t and sorting the chain already have.  Local stays
        only what the locality argument makes local: C3 for the batch's
        LL/RR pairs and for members added since the certificate, and
        conflict-freeness inside the event windows and recolored spans
        (_conflict_since), where an event window spans the event's two
        crossing endpoints.
        """
        vid, vpos = self._vid, self._vpos
        mask, codes = self._chain_mask, self._codes
        lefts, rights = self._ends(t)
        batch = self.events[cert.cursor : self.cursor]
        if not mask.any():
            raise InvariantError("empty chain with live intervals")
        # color rule: members wear a chain color, the rest dummy (code 0)
        bad = mask == (codes == 0)
        if bad.any():
            k = bad.argmax()
            if mask[k]:
                raise InvariantError(f"chain member {vid[k]} is dummy")
            raise InvariantError(
                f"non-chain interval {vid[k]} has color {_PALETTE[codes[k]]}"
            )

        # C1 and overlapping neighbours along the chain order
        cidx = mask.nonzero()[0]
        order = cidx[lefts[cidx].argsort(kind="stable")]
        cl, cr, cc = lefts[order], rights[order], codes[order]
        bad = cr[:-2] >= cl[2:]
        if bad.any():
            k = bad.argmax()
            a, b = vid[order[k]], vid[order[k + 2]]
            raise InvariantError(f"chain members {a} and {b} both meet a point")
        bad = (cl[1:] <= cr[:-1]) & (cc[1:] == cc[:-1])
        if bad.any():
            k = bad.argmax()
            a, b = vid[order[k]], vid[order[k + 1]]
            raise InvariantError(f"overlapping chain members {a}, {b} share a color")

        # C2: each non-chain interval inside one segment of the merged cover
        nc = (~mask).nonzero()[0]
        seg_starts, seg_ends = _union_segments(cl, np.sort(cr))
        seg = seg_starts.searchsorted(lefts[nc], side="right") - 1
        bad = (seg < 0) | (rights[nc] > seg_ends[seg])
        if bad.any():
            k = nc[bad.argmax()]
            raise InvariantError(f"interval {vid[k]} escapes the chain cover")

        # C3: containment changes only at LL/RR swaps and for new members
        for ev in batch:
            if ev.kind in ("LL", "RR"):
                for m, y in ((ev.id1, ev.id2), (ev.id2, ev.id1)):
                    km, ky = vpos[m], vpos[y]
                    lm, ly = lefts.item(km), lefts.item(ky)
                    earlier = ly < lm or (ly == lm and ky < km)
                    if mask.item(km) and earlier and rights.item(km) <= rights.item(ky):
                        raise InvariantError(f"chain member {m} is contained")
        for km in (mask & ~cert.mask).nonzero()[0].tolist():
            outer = (lefts <= lefts[km]) & (rights >= rights[km])
            outer[km] = False
            # an equal left counts only for an earlier position, as in a stable sort
            outer[km + 1 :] &= lefts[km + 1 :] < lefts[km]
            if outer.any():
                raise InvariantError(f"chain member {vid[km]} is contained")

        verdict = self._conflict_since(cert, lefts, rights)
        if not verdict.ok:
            raise InvariantError(f"coloring not conflict-free at {verdict.witness}")

    def _conflict_since(self, cert, lefts, rights) -> Verdict:
        """The first point without a unique color inside the batch's event
        windows or the span of an id recolored since cert.  Elsewhere the
        stabbing sets and their colors are the certified ones.  Sweeps only
        the intervals that meet a window: those hold every stabbing set of
        a point inside one."""
        windows = [
            _event_window(ev, self._vpos, lefts, rights)
            for ev in self.events[cert.cursor : self.cursor]
        ]
        windows += [
            (lefts.item(k), rights.item(k))
            for k in (self._codes != cert.codes).nonzero()[0].tolist()
        ]
        sel = _meeting(lefts, rights, windows).nonzero()[0]
        return _sweep(
            lefts[sel].tolist(),
            rights[sel].tolist(),
            self._codes[sel].tolist(),
            _NONDUMMY.tolist(),
            windows,
        )

    def _check_invariants_sweep(self, t):
        """The full audit, in plain Python: C1-C3, the color rule and
        conflict-freeness over the whole state at t.  check_invariants runs
        it wherever the batch delta does not apply, and the tests take it
        as the reference the delta must agree with."""
        chain, colors = self.chain, self.colors
        order = self._order(t)
        snap = {iid: tr.at(t) for iid, tr in self.trajs.items()}
        # C1: two-apart chain members are strictly disjoint
        for a, b in zip(order, order[2:]):
            if snap[a].right >= snap[b].left:
                raise InvariantError(f"chain members {a} and {b} both meet a point")
        # C2: non-chain intervals covered by the chain union
        segs = self._merged_chain(t)
        starts = [s[0] for s in segs]
        for iid, iv in snap.items():
            if iid in chain:
                continue
            pos = bisect_right(starts, iv.left) - 1
            if pos < 0 or iv.right > segs[pos][1]:
                raise InvariantError(f"interval {iid} escapes the chain cover")
        # C3: no chain member contained in any other interval
        by_left = sorted(snap.values(), key=lambda iv: (iv.left, iv.id))
        best_right = float("-inf")
        for iv in by_left:
            if iv.id in chain and iv.right <= best_right:
                raise InvariantError(f"chain member {iv.id} is contained")
            best_right = max(best_right, iv.right)
        # color invariant
        for iid, color in colors.items():
            if iid in chain:
                if color.is_dummy():
                    raise InvariantError(f"chain member {iid} is dummy")
            elif not color.is_dummy():
                raise InvariantError(f"non-chain interval {iid} has color {color}")
        # consecutive chain members sharing a point must disagree; disjoint
        # neighbors may clash since no point sees both (the meet event
        # recolors them before they touch)
        for a, b in zip(order, order[1:]):
            if snap[a].intersects(snap[b]) and colors[a] == colors[b]:
                raise InvariantError(f"overlapping chain members {a}, {b} share a color")
        verdict = is_conflict_free(snap.values(), colors)
        if not verdict.ok:
            raise InvariantError(f"coloring not conflict-free at {verdict.witness}")

    def summary(self):
        return {
            "events": self.cursor,
            "recolor_total": self.ledger.total(),
            "recolor_max": self.ledger.max_per_update(),
            "colors": len(self.seen),
        }


# ------------------------------------------------------------- the gadget

GADGET_SHAPE = ((0.0, 0.55), (0.1, 0.5), (0.2, 0.9), (0.3, 0.8))

# indices of the gadget's seven distinct stabbing sets, left to right
GADGET_REGIONS = (
    (0,),
    (0, 1),
    (0, 1, 2),
    (0, 1, 2, 3),
    (0, 2, 3),
    (2, 3),
    (2,),
)


def make_gadget(base_id, offset, speed, dilation=1.0) -> list[Trajectory]:
    return [
        Trajectory(base_id + k, offset + dilation * a, speed, offset + dilation * b, speed)
        for k, (a, b) in enumerate(GADGET_SHAPE)
    ]


def verify_gadget_lemma(num_colors: int) -> bool:
    """Does some num_colors-coloring of two overlapping gadgets keep every
    combined stabbing set conflict-free?  Exhaustive vectorized search."""
    sets = [list(r) for r in GADGET_REGIONS]
    sets += [[k + 4 for k in r] for r in GADGET_REGIONS]
    for ga in GADGET_REGIONS:
        for gb in GADGET_REGIONS:
            sets.append(list(ga) + [k + 4 for k in gb])
    total = num_colors**8
    assign = np.empty((total, 8), dtype=np.int8)
    rng = np.arange(total)
    for col in range(8):
        assign[:, col] = (rng // (num_colors**col)) % num_colors
    valid = np.ones(total, dtype=bool)
    for s in sets:
        sub = assign[:, s]
        has_unique = np.zeros(total, dtype=bool)
        for c in range(num_colors):
            has_unique |= (sub == c).sum(axis=1) == 1
        valid &= has_unique
        if not valid.any():
            return False
    return bool(valid.any())


def lowerbound_scenario(n: int):
    """8n rigid intervals: n gadgets sweeping through n parked gadgets.

    Sizes are dilated by tiny distinct factors so no two events coincide.
    Returns (trajectories, horizon)."""
    trajs = []
    for k in range(n):
        trajs += make_gadget(4 * k, -10.0 - 3.0 * k, 1.0, 1.0 + k * 1e-4)
    for j in range(n):
        trajs += make_gadget(
            4 * (n + j), 3.0 * n * j, 0.0, 1.0 + (n + j) * 1e-4
        )
    max_right = max(tr.b0 for tr in trajs if tr.vb == 0.0)
    min_left = min(tr.a0 for tr in trajs if tr.va == 1.0)
    horizon = max_right - min_left + 5.0
    return trajs, horizon


def random_scenario(rng: random.Random, n: int, horizon: float = 10.0):
    """n trajectories valid on [0, horizon]: endpoints interpolate between
    random placements at the two ends, widths kept above 1/2."""
    trajs = []
    for i in range(n):
        a0 = rng.uniform(0.0, 6.0 * n)
        a1 = rng.uniform(0.0, 6.0 * n)
        w0 = rng.uniform(0.5, 4.0)
        w1 = rng.uniform(0.5, 4.0)
        va = (a1 - a0) / horizon
        vb = (a1 + w1 - (a0 + w0)) / horizon
        trajs.append(Trajectory(i, a0, va, a0 + w0, vb))
    return trajs


# ------------------------------------------------------------ trace forms


def parse_scenario(text: str) -> list[Trajectory]:
    """K <id> <a0> <va> <b0> <vb> lines; # starts a comment."""
    trajs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "K" or len(parts) != 6:
            raise TraceError(ln, "expected 'K id a0 va b0 vb'")
        try:
            iid = int(parts[1])
            nums = [parse_number(p) for p in parts[2:]]
        except ValueError as exc:
            raise TraceError(ln, str(exc)) from None
        for name, x in zip(("a0", "va", "b0", "vb"), nums):
            if isinstance(x, float) and not math.isfinite(x):
                raise TraceError(ln, f"{name} must be finite, got {x}")
        trajs.append(Trajectory(iid, *nums))
    return trajs


def format_scenario(trajs) -> str:
    lines = [
        "K {} {} {} {} {}".format(
            tr.id,
            format_number(tr.a0),
            format_number(tr.va),
            format_number(tr.b0),
            format_number(tr.vb),
        )
        for tr in trajs
    ]
    return "\n".join(lines) + ("\n" if lines else "")

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
too), in one pass over the trajectory pairs.

The maintainer keeps its state once, in arrays aligned to the sorted ids:
the endpoint coefficients (float64, or Fraction objects in exact mode),
the chain mask, and palette codes into (DUMMY, *CHAIN_PALETTE), where
dummy is code 0.  Its colors and chain are views built from them, and
the same array code serves both modes: numpy sorts, searches and
compares object arrays of Fractions exactly.

check_invariants(t) audits C1-C3, the color rule and conflict-freeness.
Every passing audit leaves a certificate: the cursor, t, and copies of
the codes and the chain mask.  When the events since then form exactly
one whole batch, the certificate's time lies after the batch before it,
and t lies between this batch and the next crossing of any kind, the
endpoint order at t differs from the certified one only at the batch's
crossing pairs: the locality argument of kinetic data structures (Basch,
Guibas and Hershberger, SODA 1997).  The audit then examines only what
the batch touched (ids whose membership or code differs from the
certificate's, and the event pairs) and its neighbourhood: chain
positions within two places, and intervals meeting an event window, a
dropped member's span or a recolored span.  Any other call (the first
one, a stride above one, audit="final", a run's closing audit, or an
arbitrary t) audits the whole state.  A plain-Python sweep form of the
audit is kept as the reference the tests compare against.

The module also contains the machinery for the quadratic lower bound:
rigid 4-interval gadgets whose pairwise overlap patterns admit no valid
4-coloring, and a scenario that drives n moving gadgets through n parked
ones to force a recoloring per crossing.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
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
    _cf_over_arrays,
    _sweep,
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


@dataclass(frozen=True)
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
    """

    time: float
    kind: str
    id1: int
    id2: int
    next_time: float | None = field(default=None, compare=False, repr=False)


def _cross_time(c0, cv, d0, dv):
    if cv == dv:
        return None
    return (d0 - c0) / (cv - dv)


def _rl_kind(rgt, lft):
    # gap derivative left(lft) - right(rgt); never 0 where they cross
    return "RL-meet" if lft.va < rgt.vb else "RL-separate"


def compute_events(trajectories, t0, until) -> list[Event]:
    """Every endpoint crossing in (t0, until], sorted and deterministic.

    Each event's next_time also counts the crossings that are no events:
    those beyond the horizon and each trajectory's own left/right
    inversion, since rounding can put one inside the horizon.  Post-event
    states are evaluated at a midpoint before next_time, so the midpoint
    never jumps past a crossing.
    """
    found = []
    beyond = None  # the least pair crossing after the horizon
    for x, y in itertools.combinations(trajectories, 2):
        lo, hi = (x.id, y.id) if x.id < y.id else (y.id, x.id)
        for t, kind, i1, i2 in (
            (_cross_time(x.b0, x.vb, y.b0, y.vb), "RR", lo, hi),
            (_cross_time(x.a0, x.va, y.a0, y.va), "LL", lo, hi),
            (_cross_time(x.b0, x.vb, y.a0, y.va), _rl_kind(x, y), x.id, y.id),
            (_cross_time(y.b0, y.vb, x.a0, x.va), _rl_kind(y, x), y.id, x.id),
        ):
            if t is not None and t > t0:
                if t <= until:
                    found.append((t, lo, hi, kind, i1, i2))
                elif beyond is None or t < beyond:
                    beyond = t
    # ties in (time, pair, kind) can only come from rounding; they break by
    # id1, so the order does not depend on the order of the trajectories
    found.sort()
    inversions = []  # each trajectory's own left/right crossing after t0
    for tr in trajectories:
        t = _cross_time(tr.a0, tr.va, tr.b0, tr.vb)
        if t is not None and t > t0:
            inversions.append(t)
    inversions.sort()
    out = []
    nxt, prev = None, beyond  # nxt: the first pair crossing after the current event
    for t, _, _, kind, i1, i2 in reversed(found):
        if t != prev:
            nxt, prev = prev, t
        j = bisect_right(inversions, t)
        if j < len(inversions) and (nxt is None or inversions[j] < nxt):
            out.append(Event(t, kind, i1, i2, inversions[j]))
        else:
            out.append(Event(t, kind, i1, i2, nxt))
    out.reverse()
    return out


def _merged_cover(starts, ends):
    """Union of intervals given as (starts, ends) arrays sorted by start,
    as the (starts, ends) arrays of its disjoint segments."""
    if not starts.size:
        return starts, ends
    run = np.maximum.accumulate(ends)
    new_seg = np.empty(starts.size, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = starts[1:] > run[:-1]
    return starts[new_seg], np.maximum.reduceat(ends, np.flatnonzero(new_seg))


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


@dataclass
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

    def _neighbor(self, order, iid, side):
        pos = order.index(iid)
        if side == "pred":
            return order[pos - 1] if pos > 0 else None
        return order[pos + 1] if pos + 1 < len(order) else None

    def _intersects(self, i, j, t) -> bool:
        return self.trajs[i].at(t).intersects(self.trajs[j].at(t))

    def _merged_chain(self, t):
        segs = []
        for iid in self._order(t):
            iv = self.trajs[iid].at(t)
            if segs and iv.left <= segs[-1][1]:
                segs[-1][1] = max(segs[-1][1], iv.right)
            else:
                segs.append([iv.left, iv.right])
        return segs

    def _chain_segments(self, t):
        """Merged chain cover as sorted (starts, ends) arrays."""
        cidx = np.flatnonzero(self._chain_mask)
        cl = self._va0[cidx] + self._vva[cidx] * t
        cr = self._vb0[cidx] + self._vvb[cidx] * t
        o = cl.argsort(kind="stable")
        return _merged_cover(cl[o], cr[o])

    def _covered_by_chain(self, iid, t) -> bool:
        starts, ends = self._chain_segments(t)
        tr = self.trajs[iid]
        pos = int(starts.searchsorted(tr.left(t), side="right")) - 1
        return pos >= 0 and tr.right(t) <= ends[pos]

    # ------------------------------------------------------------ coloring

    def _init_chain(self):
        for comp in connected_components(self.snapshot(self.t0)):
            for k, iv in enumerate(build_chain(comp)):
                pos = self._vpos[iv.id]
                self._chain_mask[pos] = True
                self._codes[pos] = _CODE[CHAIN_PALETTE[k % 2]]
        self.seen = {_PALETTE[c] for c in set(self._codes.tolist())}

    def _chain_add(self, iid):
        self._chain_mask[self._vpos[iid]] = True

    def _chain_drop(self, iid):
        self._chain_mask[self._vpos[iid]] = False

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

    def _color_added(self, aid, t):
        order = self._order(t)
        self._set_avoiding(
            aid, [self._neighbor(order, aid, side) for side in ("pred", "succ")]
        )

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
            return self._meet(ev, t_after)
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
            if self._covered_by_chain(x, t_after):
                return None, []
            if not self._member(y):
                raise InvariantError(f"uncovered escape from non-chain interval {y}")
            nb = self._neighbor(self._order(t_after), y, side)
            self._chain_add(x)
            removed = []
            if nb is not None and self._intersects(x, nb, t_after):
                self._chain_drop(y)
                removed.append(y)
                self._set(y, DUMMY)
            self._color_added(x, t_after)
            return x, removed
        if role == "capture":
            if not self._member(x):
                return None, []
            order = self._order(t_after)
            n1 = self._neighbor(order, x, side)
            n2 = self._neighbor(order, n1, side) if n1 is not None else None
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
            self._color_added(y, t_after)
            return y, removed
        return None, []

    def _meet(self, ev, t_after):
        left_id, right_id = ev.id1, ev.id2  # right endpoint of id1 met left of id2
        if not (self._member(left_id) and self._member(right_id)):
            return None, []
        order = self._order(t_after)
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
            pred = self._neighbor(self._order(t_after), left_id, "pred")
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
        order = self._order(t_after)
        old_pred = self._neighbor(order, left_id, "pred")
        old_succ = self._neighbor(order, right_id, "succ")
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
        self._color_added(bridge, t_after)
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
        check before that batch, checks only what the batch can have
        changed (_check_invariants_delta); every other call checks the
        whole state.
        """
        cert, self._cert = self._cert, None
        if cert is not None and self._delta_applies(cert, t):
            self._check_invariants_delta(t, cert)
        else:
            self._check_invariants_fast(t)
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
        """The audit restricted to what changed since the certificate.

        Touched ids are those whose chain membership or palette code differs
        from the certificate's, and the batch's event pairs.  Checked are the
        color rule on touched ids; C1 and the overlapping-neighbour rule near
        touched chain members and the slots of dropped ones; C2 for touched
        non-chain intervals and those meeting an event window or a dropped
        member's span; C3 for the LL/RR pairs and for added members against
        all intervals; conflict-freeness inside event windows and recolored
        spans.  An event window spans the event's two crossing endpoints.
        """
        vid, vpos = self._vid, self._vpos
        mask, codes = self._chain_mask, self._codes
        lefts, rights = self._ends(t)
        batch = self.events[cert.cursor : self.cursor]
        moved = mask != cert.mask
        hit = moved | (codes != cert.codes)
        for ev in batch:
            hit[vpos[ev.id1]] = hit[vpos[ev.id2]] = True
        touched = hit.nonzero()[0]
        if not mask.any():
            raise InvariantError("empty chain with live intervals")
        # color rule: members wear a chain color, the rest dummy (code 0)
        bad = mask[touched] == (codes[touched] == 0)
        if bad.any():
            k = touched[bad.argmax()]
            if mask[k]:
                raise InvariantError(f"chain member {vid[k]} is dummy")
            raise InvariantError(
                f"non-chain interval {vid[k]} has color {_PALETTE[codes[k]]}"
            )

        # C1 and overlapping neighbours, within two places of each change
        cidx = mask.nonzero()[0]
        order = cidx[lefts[cidx].argsort(kind="stable")]
        cl, cr, cc = lefts[order], rights[order], codes[order]
        rank = np.empty(len(vid), dtype=np.intp)
        rank[order] = np.arange(order.size)
        dropped = (moved & ~mask).nonzero()[0]
        anchors = set(rank[touched[mask[touched]]].tolist())
        anchors.update(cl.searchsorted(lefts[dropped]).tolist())
        size = order.size
        for k in sorted({a + d for a in anchors for d in (-2, -1, 0, 1)}):
            if k < 0 or k + 1 >= size:
                continue
            if k + 2 < size and cr.item(k) >= cl.item(k + 2):
                a, b = vid[order.item(k)], vid[order.item(k + 2)]
                raise InvariantError(f"chain members {a} and {b} both meet a point")
            if cl.item(k + 1) <= cr.item(k) and cc.item(k + 1) == cc.item(k):
                a, b = vid[order.item(k)], vid[order.item(k + 1)]
                raise InvariantError(f"overlapping chain members {a}, {b} share a color")

        # C2 wherever the cover or a covered interval may have changed
        spans = [_event_window(ev, vpos, lefts, rights) for ev in batch]
        spans += [(lefts.item(k), rights.item(k)) for k in dropped.tolist()]
        near = _meeting(lefts, rights, spans) | hit
        nc = (near & ~mask).nonzero()[0]
        starts = cl.searchsorted(lefts[nc], side="right").tolist()
        for k, p, lx, rx in zip(
            nc.tolist(), starts, lefts[nc].tolist(), rights[nc].tolist()
        ):
            # walk the members from the last one starting at or before lx;
            # if the walk stops short of rx, an earlier long member may
            # still cover, so the merged cover decides
            p -= 1
            reach = cr.item(p) if p >= 0 else lx
            while p >= 0 and reach < rx and p + 1 < size and cl.item(p + 1) <= reach:
                p += 1
                reach = max(reach, cr.item(p))
            if p < 0 or reach < rx:
                seg_starts, seg_ends = _merged_cover(cl, cr)
                seg = int(seg_starts.searchsorted(lx, side="right")) - 1
                if seg < 0 or rx > seg_ends[seg]:
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
        for km in (moved & mask).nonzero()[0].tolist():
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
        if not windows:
            return Verdict(True)
        sel = _meeting(lefts, rights, windows).nonzero()[0]
        return _sweep(
            lefts[sel].tolist(),
            rights[sel].tolist(),
            self._codes[sel].tolist(),
            _NONDUMMY.tolist(),
            windows,
        )

    def _check_invariants_fast(self, t):
        """Array form of the audit; semantics match the sweep form."""
        lefts, rights = self._ends(t)
        cmask, codes, vid = self._chain_mask, self._codes, self._vid
        cidx = cmask.nonzero()[0]
        if cidx.size == 0:
            if vid:
                raise InvariantError("empty chain with live intervals")
            return
        order = cidx[lefts[cidx].argsort(kind="stable")]
        cl, cr = lefts[order], rights[order]
        # C1: two-apart chain members are strictly disjoint
        if order.size >= 3:
            bad = np.flatnonzero(cr[:-2] >= cl[2:])
            if bad.size:
                k = int(bad[0])
                a, b = vid[order[k]], vid[order[k + 2]]
                raise InvariantError(f"chain members {a} and {b} both meet a point")
        # C2: non-chain intervals covered by the merged chain segments
        seg_starts, seg_ends = _merged_cover(cl, cr)
        nc = np.flatnonzero(~cmask)
        if nc.size:
            pos = seg_starts.searchsorted(lefts[nc], side="right") - 1
            ok = (pos >= 0) & (rights[nc] <= seg_ends[np.maximum(pos, 0)])
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise InvariantError(f"interval {vid[nc[bad[0]]]} escapes the chain cover")
        # C3: no chain member contained in an earlier-starting interval
        o_all = lefts.argsort(kind="stable")
        r_sorted = rights[o_all]
        prev_max = np.maximum.accumulate(np.concatenate(([-np.inf], r_sorted[:-1])))
        contained = (r_sorted <= prev_max) & cmask[o_all]
        if contained.any():
            iid = vid[o_all[int(np.argmax(contained))]]
            raise InvariantError(f"chain member {iid} is contained")
        # color rule: members wear a chain color, the rest dummy (code 0)
        chain_codes = codes[order]
        if (chain_codes == 0).any():
            iid = vid[order[int(np.argmax(chain_codes == 0))]]
            raise InvariantError(f"chain member {iid} is dummy")
        if nc.size and codes[nc].any():
            k = nc[int(np.argmax(codes[nc] != 0))]
            raise InvariantError(
                f"non-chain interval {vid[k]} has color {_PALETTE[codes[k]]}"
            )
        if order.size > 1:
            meets = cl[1:] <= cr[:-1]
            clash = meets & (chain_codes[1:] == chain_codes[:-1])
            if clash.any():
                k = int(np.argmax(clash))
                a, b = vid[order[k]], vid[order[k + 1]]
                raise InvariantError(
                    f"overlapping chain members {a}, {b} share a color"
                )
        verdict = _cf_over_arrays(lefts, rights, codes, _NONDUMMY)
        if not verdict.ok:
            raise InvariantError(f"coloring not conflict-free at {verdict.witness}")

    def _check_invariants_sweep(self, t):
        """The audit in plain Python, the reference for the array forms."""
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

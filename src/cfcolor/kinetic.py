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
event is probed at midpoints toward the neighboring event times, so the
decisions never evaluate at the degenerate instant itself.

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
from dataclasses import dataclass
from fractions import Fraction

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
    _cf_over_arrays,
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


@dataclass(frozen=True)
class Event:
    """For RL kinds, id1 owns the right endpoint and id2 the left one."""

    time: float
    kind: str
    id1: int
    id2: int

    def sort_key(self):
        lo, hi = sorted((self.id1, self.id2))
        return (self.time, lo, hi, self.kind)


def _cross_time(c0, cv, d0, dv):
    if cv == dv:
        return None
    return (d0 - c0) / (cv - dv)


def _crossing_times(trajectories, t0):
    """Sorted times strictly after t0 where any two endpoints meet.

    Includes crossings beyond any horizon and each trajectory's own
    left/right inversion time: post-event states are evaluated at a
    midpoint before the next of these, so the midpoint must never
    jump past a crossing that was filtered out of the event queue.
    """
    times = set()
    for tr in trajectories:
        t = _cross_time(tr.a0, tr.va, tr.b0, tr.vb)
        if t is not None and t > t0:
            times.add(t)
    for x, y in itertools.combinations(trajectories, 2):
        for t in (
            _cross_time(x.b0, x.vb, y.b0, y.vb),
            _cross_time(x.a0, x.va, y.a0, y.va),
            _cross_time(x.b0, x.vb, y.a0, y.va),
            _cross_time(y.b0, y.vb, x.a0, x.va),
        ):
            if t is not None and t > t0:
                times.add(t)
    return sorted(times)


def compute_events(trajectories, t0, until) -> list[Event]:
    """Every endpoint crossing in (t0, until], sorted and deterministic."""
    out = []

    def consider(t, kind, i1, i2):
        if t is not None and t0 < t <= until:
            out.append(Event(t, kind, i1, i2))

    for x, y in itertools.combinations(trajectories, 2):
        consider(
            _cross_time(x.b0, x.vb, y.b0, y.vb), "RR", min(x.id, y.id), max(x.id, y.id)
        )
        consider(
            _cross_time(x.a0, x.va, y.a0, y.va), "LL", min(x.id, y.id), max(x.id, y.id)
        )
        for rgt, lft in ((x, y), (y, x)):
            t = _cross_time(rgt.b0, rgt.vb, lft.a0, lft.va)
            if t is None:
                continue
            slope = lft.va - rgt.vb  # gap derivative: left(lft) - right(rgt)
            if slope < 0:
                consider(t, "RL-meet", rgt.id, lft.id)
            elif slope > 0:
                consider(t, "RL-separate", rgt.id, lft.id)
    out.sort(key=Event.sort_key)
    return out


@dataclass
class EventRecord:
    event: Event
    added: int | None
    removed: list[int]
    recolored: list[tuple[int, Color]]
    t_eval: float


class KineticMaintainer:
    """Keeps the chain and its coloring valid across every event."""

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
        # time of the next crossing strictly after each event, horizon or not
        all_times = _crossing_times(trajectories, t0)
        self._next_time: list = []
        for ev in self.events:
            k = bisect_right(all_times, ev.time)
            self._next_time.append(all_times[k] if k < len(all_times) else None)
        self.cursor = 0
        self.ledger = RecolorLedger()
        self.colors: dict[int, Color] = {}
        self.seen: set[Color] = set()
        self.chain: set[int] = set()
        self._prev_time = t0
        self._half = Fraction(1, 2) if exact else 0.5
        self.exact = exact
        # coefficient arrays for the vectorized audit, aligned to _vid
        self._vid = sorted(self.trajs)
        self._vpos = {iid: k for k, iid in enumerate(self._vid)}
        if not exact:
            self._va0 = np.array([float(self.trajs[i].a0) for i in self._vid])
            self._vva = np.array([float(self.trajs[i].va) for i in self._vid])
            self._vb0 = np.array([float(self.trajs[i].b0) for i in self._vid])
            self._vvb = np.array([float(self.trajs[i].vb) for i in self._vid])
        # palette codes mirror self.colors for array-level checks
        self._palette: list[Color] = []
        self._pindex: dict[Color, int] = {}
        self._nondummy = np.zeros(0, dtype=bool)
        self._codes = np.zeros(len(self._vid), dtype=np.intp)
        self._recolored_buf: list[tuple[int, Color]] = []
        self._init_chain()

    # ------------------------------------------------------------ geometry

    def snapshot(self, t) -> list[Interval]:
        return [tr.at(t) for tr in self.trajs.values()]

    def _order(self, t) -> list[int]:
        return sorted(self.chain, key=lambda i: (self.trajs[i].left(t), i))

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
        """Merged chain cover as sorted (starts, ends) arrays; float mode."""
        cidx = np.fromiter(
            (self._vpos[i] for i in self.chain), dtype=np.intp, count=len(self.chain)
        )
        cl = self._va0[cidx] + self._vva[cidx] * t
        cr = self._vb0[cidx] + self._vvb[cidx] * t
        o = np.argsort(cl, kind="stable")
        cl, cr = cl[o], cr[o]
        if not cl.size:
            return cl, cr
        run = np.maximum.accumulate(cr)
        new_seg = np.empty(cl.size, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = cl[1:] > run[:-1]
        return cl[new_seg], np.maximum.reduceat(cr, np.flatnonzero(new_seg))

    def _covered_by_chain(self, iid, t) -> bool:
        if self.exact:
            iv = self.trajs[iid].at(t)
            segs = self._merged_chain(t)
            pos = bisect_right([s[0] for s in segs], iv.left) - 1
            return pos >= 0 and segs[pos][0] <= iv.left and iv.right <= segs[pos][1]
        starts, ends = self._chain_segments(t)
        tr = self.trajs[iid]
        pos = int(np.searchsorted(starts, tr.left(t), side="right")) - 1
        return pos >= 0 and tr.right(t) <= ends[pos]

    # ------------------------------------------------------------ coloring

    def _init_chain(self):
        snap = self.snapshot(self.t0)
        chain_ids = set()
        coloring: dict[int, Color] = {iv.id: DUMMY for iv in snap}
        for comp in connected_components(snap):
            links = build_chain(comp)
            for k, iv in enumerate(links):
                chain_ids.add(iv.id)
                coloring[iv.id] = CHAIN_PALETTE[k % 2]
        self.chain = chain_ids
        self.colors = coloring
        self.seen = set(coloring.values())
        for iid, color in coloring.items():
            self._codes[self._vpos[iid]] = self._code_of(color)

    def _code_of(self, color) -> int:
        j = self._pindex.get(color)
        if j is None:
            j = len(self._palette)
            self._palette.append(color)
            self._pindex[color] = j
            self._nondummy = np.append(self._nondummy, not color.is_dummy())
        return j

    def _set(self, iid, color) -> bool:
        if self.colors[iid] == color:
            return False
        self.colors[iid] = color
        self._codes[self._vpos[iid]] = self._code_of(color)
        self._recolored_buf.append((iid, color))
        self.seen.add(color)
        self.ledger.note()
        return True

    def _color_added(self, aid, t):
        order = self._order(t)
        avoid = set()
        for side in ("pred", "succ"):
            nb = self._neighbor(order, aid, side)
            if nb is not None:
                avoid.add(self.colors[nb])
        for c in CHAIN_PALETTE:
            if c not in avoid:
                self._set(aid, c)
                return
        raise InvariantError("no chain color available")  # |avoid| <= 2

    # -------------------------------------------------------------- events

    def step(self) -> EventRecord | None:
        if self.cursor >= len(self.events):
            return None
        ev = self.events[self.cursor]
        nxt = self._next_time[self.cursor]
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
        for x, y in ((i, j), (j, i)):
            ivb, jvb = self.trajs[x].at(t_before), self.trajs[y].at(t_before)
            iva, jva = self.trajs[x].at(t_after), self.trajs[y].at(t_after)
            before = jvb.contains_interval(ivb)
            after = jva.contains_interval(iva)
            if before and not after:
                return "escape", x, y
            if after and not before:
                return "capture", x, y
        return None, None, None

    def _endpoint_swap(self, ev, side, t_before, t_after):
        """Cases A (side='pred') and B (side='succ'): same-end crossings."""
        role, x, y = self._containment_roles(ev.id1, ev.id2, t_before, t_after)
        if role == "escape":
            # x slid out of y; chain may no longer cover x
            if x in self.chain:
                raise InvariantError(f"contained interval {x} was in the chain")
            if self._covered_by_chain(x, t_after):
                return None, []
            if y not in self.chain:
                raise InvariantError(f"uncovered escape from non-chain interval {y}")
            nb = self._neighbor(self._order(t_after), y, side)
            self.chain.add(x)
            removed = []
            if nb is not None and self._intersects(x, nb, t_after):
                self.chain.discard(y)
                removed.append(y)
                self._set(y, DUMMY)
            self._color_added(x, t_after)
            return x, removed
        if role == "capture":
            if x not in self.chain:
                return None, []
            order = self._order(t_after)
            n1 = self._neighbor(order, x, side)
            n2 = self._neighbor(order, n1, side) if n1 is not None else None
            self.chain.discard(x)
            removed = [x]
            self._set(x, DUMMY)
            if y in self.chain:
                return None, removed
            self.chain.add(y)
            if (
                n1 is not None
                and n2 is not None
                and self._intersects(n2, y, t_after)
            ):
                self.chain.discard(n1)
                removed.append(n1)
                self._set(n1, DUMMY)
            self._color_added(y, t_after)
            return y, removed
        return None, []

    def _meet(self, ev, t_after):
        left_id, right_id = ev.id1, ev.id2  # right endpoint of id1 met left of id2
        if left_id not in self.chain or right_id not in self.chain:
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
            self.chain.discard(mid)
            removed.append(mid)
            self._set(mid, DUMMY)
        # the pair is adjacent now; break a color tie by recoloring the left one
        if self.colors[left_id] == self.colors[right_id]:
            order = self._order(t_after)
            pred = self._neighbor(order, left_id, "pred")
            avoid = {self.colors[right_id]}
            if pred is not None:
                avoid.add(self.colors[pred])
            for c in CHAIN_PALETTE:
                if c not in avoid:
                    self._set(left_id, c)
                    break
        return None, removed

    def _separate(self, ev, t_after):
        left_id, right_id = ev.id1, ev.id2
        if left_id not in self.chain or right_id not in self.chain:
            return None, []
        p = self.trajs[left_id].right(ev.time)
        candidates = [
            tr.id
            for tr in self.trajs.values()
            if tr.id not in self.chain and tr.left(ev.time) <= p <= tr.right(ev.time)
        ]
        if not candidates:
            return None, []
        bridge = min(candidates, key=lambda i: (self.trajs[i].left(ev.time), i))
        order = self._order(t_after)
        old_pred = self._neighbor(order, left_id, "pred")
        old_succ = self._neighbor(order, right_id, "succ")
        self.chain.add(bridge)
        removed = []
        if old_pred is not None and self._intersects(bridge, old_pred, t_after):
            self.chain.discard(left_id)
            removed.append(left_id)
            self._set(left_id, DUMMY)
        if old_succ is not None and self._intersects(bridge, old_succ, t_after):
            self.chain.discard(right_id)
            removed.append(right_id)
            self._set(right_id, DUMMY)
        self._color_added(bridge, t_after)
        return bridge, removed

    # ---------------------------------------------------------------- runs

    def run(self, audit=None, stride=1):
        """Process all events; audit at batch boundaries per the policy."""
        records = []
        batches = 0
        while True:
            rec = self.step()
            if rec is None:
                break
            records.append(rec)
            boundary = (
                self.cursor >= len(self.events)
                or self.events[self.cursor].time != rec.event.time
            )
            if boundary:
                batches += 1
                if audit == "every" and batches % stride == 0:
                    self.check_invariants(rec.t_eval)
        if audit in ("every", "final"):
            final_t = records[-1].t_eval if records else self.until
            self.check_invariants(final_t)
        return records

    # ----------------------------------------------------------- checking

    def check_invariants(self, t):
        if self.exact:
            self._check_invariants_sweep(t)
        else:
            self._check_invariants_fast(t)

    def _check_invariants_fast(self, t):
        """Array form of the audit; semantics match the sweep form."""
        lefts = self._va0 + self._vva * t
        rights = self._vb0 + self._vvb * t
        n = len(self._vid)
        cidx = np.fromiter(
            (self._vpos[i] for i in self.chain), dtype=np.intp, count=len(self.chain)
        )
        if cidx.size == 0:
            if n:
                raise InvariantError("empty chain with live intervals")
            return
        cmask = np.zeros(n, dtype=bool)
        cmask[cidx] = True
        order = cidx[np.argsort(lefts[cidx], kind="stable")]
        cl, cr = lefts[order], rights[order]
        # C1: two-apart chain members are strictly disjoint
        if order.size >= 3:
            bad = np.flatnonzero(cr[:-2] >= cl[2:])
            if bad.size:
                k = int(bad[0])
                a, b = self._vid[order[k]], self._vid[order[k + 2]]
                raise InvariantError(f"chain members {a} and {b} both meet a point")
        # C2: non-chain intervals covered by the merged chain segments
        run = np.maximum.accumulate(cr)
        new_seg = np.empty(order.size, dtype=bool)
        new_seg[0] = True
        if order.size > 1:
            new_seg[1:] = cl[1:] > run[:-1]
        seg_starts = cl[new_seg]
        seg_ends = np.maximum.reduceat(cr, np.flatnonzero(new_seg))
        nc = np.flatnonzero(~cmask)
        if nc.size:
            pos = np.searchsorted(seg_starts, lefts[nc], side="right") - 1
            ok = (pos >= 0) & (rights[nc] <= seg_ends[np.maximum(pos, 0)])
            bad = np.flatnonzero(~ok)
            if bad.size:
                iid = self._vid[nc[bad[0]]]
                raise InvariantError(f"interval {iid} escapes the chain cover")
        # C3: no chain member contained in an earlier-starting interval
        o_all = np.argsort(lefts, kind="stable")
        r_sorted = rights[o_all]
        prev_max = np.maximum.accumulate(np.concatenate(([-np.inf], r_sorted[:-1])))
        contained = (r_sorted <= prev_max) & cmask[o_all]
        if contained.any():
            iid = self._vid[o_all[int(np.argmax(contained))]]
            raise InvariantError(f"chain member {iid} is contained")
        dummy_j = self._pindex.get(DUMMY, -1)
        chain_codes = self._codes[order]
        if (chain_codes == dummy_j).any():
            iid = self._vid[order[int(np.argmax(chain_codes == dummy_j))]]
            raise InvariantError(f"chain member {iid} is dummy")
        if nc.size and (self._codes[nc] != dummy_j).any():
            k = int(np.argmax(self._codes[nc] != dummy_j))
            iid = self._vid[nc[k]]
            raise InvariantError(
                f"non-chain interval {iid} has color {self.colors[iid]}"
            )
        if order.size > 1:
            meets = cl[1:] <= cr[:-1]
            clash = meets & (chain_codes[1:] == chain_codes[:-1])
            if clash.any():
                k = int(np.argmax(clash))
                a, b = self._vid[order[k]], self._vid[order[k + 1]]
                raise InvariantError(
                    f"overlapping chain members {a}, {b} share a color"
                )
        verdict = _cf_over_arrays(lefts, rights, self._codes, self._nondummy)
        if not verdict.ok:
            raise InvariantError(f"coloring not conflict-free at {verdict.witness}")

    def _check_invariants_sweep(self, t):
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
            if iid in self.chain:
                continue
            pos = bisect_right(starts, iv.left) - 1
            if pos < 0 or iv.right > segs[pos][1]:
                raise InvariantError(f"interval {iid} escapes the chain cover")
        # C3: no chain member contained in any other interval
        by_left = sorted(snap.values(), key=lambda iv: (iv.left, iv.id))
        best_right = float("-inf")
        for iv in by_left:
            if iv.id in self.chain and iv.right <= best_right:
                raise InvariantError(f"chain member {iv.id} is contained")
            best_right = max(best_right, iv.right)
        # color invariant
        for iid, color in self.colors.items():
            if iid in self.chain:
                if color.is_dummy():
                    raise InvariantError(f"chain member {iid} is dummy")
            elif not color.is_dummy():
                raise InvariantError(f"non-chain interval {iid} has color {color}")
        # consecutive chain members sharing a point must disagree; disjoint
        # neighbors may clash since no point sees both (the meet event
        # recolors them before they touch)
        for a, b in zip(order, order[1:]):
            if snap[a].intersects(snap[b]) and self.colors[a] == self.colors[b]:
                raise InvariantError(f"overlapping chain members {a}, {b} share a color")
        verdict = is_conflict_free(snap.values(), self.colors)
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

"""Adversarial insertion drivers that force colors or recolorings.

Two constructions, both proceeding in rounds of pairwise disjoint
intervals laid over the previous round:

* The general driver targets any insertion-only engine with recoloring
  budget r per update.  Each round keeps only the intervals whose brick
  (the interval plus the empty space to its right) is still alive, packs
  them into groups of 4r, and spans the left half of each group with a
  new interval, stopping just short of the (2r+1)-th member so the new
  brick owns living sub-bricks on both sides.  The designated color of a
  round is chosen among colors not designated before, maximizing living
  bricks, so every round certifies one fresh color.

* The local driver targets engines whose response is a function of the
  insertion signature (component structure plus colors).  It groups the
  full previous round in blocks of r+2 and needs no color bookkeeping:
  signature-determined engines are forced to color each round uniformly
  with a brand new color.

Both drivers run one round loop (_play): the same first round of n/2
disjoint unit intervals, a full audit before each later round, and the
same step that spans the left part of each group of consecutive members.
Every insertion goes through core.replay, which audits it with the fast
oracle.  The first violation, from either audit, stops the play with
stop reason "cf-violation".  Without a given budget, both rerun with the
observed recoloring maximum until the budget matches the engine.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import count

from .chain import connected_components
from .core import (
    Color,
    ColoringState,
    EngineError,
    Insert,
    Interval,
    InvariantError,
    Verdict,
    is_conflict_free,
    replay,
)

__all__ = [
    "AdversaryReport",
    "LocalityAudit",
    "Signature",
    "check_tradeoff",
    "living_rounds",
    "run_general_adversary",
    "run_local_adversary",
    "signature_of",
]

# plays of the adaptive-budget loop when no budget is given
_MAX_ADAPT = 3


# --------------------------------------------------------------- signatures


@dataclass(frozen=True)
class Signature:
    """Component snapshot seen by a newly inserted interval.

    labels: left-endpoint ranks (1-based), listed by increasing right
    endpoint.  colors: the component's colors listed by increasing left
    endpoint, None marking the uncolored newcomer.
    """

    labels: tuple[int, ...]
    colors: tuple[Color | None, ...]


def signature_of(
    live: list[Interval], coloring: dict[int, Color], new: Interval
) -> Signature:
    component = _component(live, new)
    return _signature(component, _ranks(component), coloring, new.id)


def _component(live, new: Interval) -> list[Interval]:
    """new's component among the live intervals and new, by (left, id)."""
    pool = [iv for iv in live if iv.id != new.id] + [new]
    for comp in connected_components(pool):
        if any(iv.id == new.id for iv in comp):
            return comp
    raise AssertionError("the new interval lies in no component")


def _ranks(component: list[Interval]) -> dict[int, int]:
    """1-based positions of a (left, id)-sorted component, by id."""
    return {iv.id: k + 1 for k, iv in enumerate(component)}


def _signature(component, rank, coloring, new_id: int) -> Signature:
    by_right = sorted(component, key=lambda iv: (iv.right, iv.id))
    labels = tuple(rank[iv.id] for iv in by_right)
    colors = tuple(
        coloring.get(iv.id) if iv.id != new_id else None for iv in component
    )
    return Signature(labels, colors)


@dataclass
class LocalityAudit:
    """Evidence that an engine is not local: recolorings outside the
    inserted interval's component, or two different responses to one
    signature."""

    outside_recolors: list[tuple[int, int]] = field(default_factory=list)
    collisions: list[Signature] = field(default_factory=list)
    _responses: dict[Signature, tuple] = field(default_factory=dict)

    def record(self, sig: Signature, response: tuple) -> None:
        prior = self._responses.setdefault(sig, response)
        if prior != response:
            self.collisions.append(sig)

    def clean(self) -> bool:
        return not self.outside_recolors and not self.collisions


# ------------------------------------------------------------------ bricks


def _first_within(members: list[Interval], lo: float, hi: float, open_ends: bool):
    """Smallest-left member of a disjoint sorted list inside [lo, hi] or
    (lo, hi); disjointness makes the leftmost candidate the only one to try."""
    lefts = [iv.left for iv in members]
    i = bisect_right(lefts, lo) if open_ends else bisect_left(lefts, lo)
    if i == len(members):
        return None
    iv = members[i]
    if open_ends:
        if iv.left > lo and iv.right < hi:
            return iv
    elif iv.right <= hi:
        return iv
    return None


def living_rounds(
    rounds: list[list[Interval]],
    designated: list[Color],
    color_of,
) -> list[list[Interval]]:
    """Living members of every round under the current coloring.

    A round-i interval is living when it carries the round's designated
    color and, for i > 1, both the interval and the open gap to the next
    round-i interval contain a living round-(i-1) interval.  Scoring a
    candidate designation for the last round is done by appending it to
    the designated list before calling.
    """
    prev: list[Interval] = []
    result = []
    for m, (members, c_m) in enumerate(zip(rounds, designated)):
        cur = []
        for j, iv in enumerate(members):
            if color_of(iv.id) != c_m:
                continue
            if m > 0:
                gap_end = members[j + 1].left if j + 1 < len(members) else math.inf
                if _first_within(prev, iv.left, iv.right, open_ends=False) is None:
                    continue
                if _first_within(prev, iv.right, gap_end, open_ends=True) is None:
                    continue
            cur.append(iv)
        result.append(cur)
        prev = cur
    return result


# ------------------------------------------------------------------ driver


@dataclass
class AdversaryReport:
    kind: str
    n: int
    budget_r: int
    rounds: list[list[Interval]]
    designated: list[Color]
    star_sizes: list[int]
    total_inserted: int
    max_recolor: int
    colors_used: int
    cf_ok: bool
    cf_witness: float | None
    stop_reason: str
    cf_gap: tuple[float, float] | None = None
    locality: LocalityAudit | None = None
    adapt_iterations: int = 1

    @property
    def rounds_played(self) -> int:
        return len(self.rounds)


class _Violation(Exception):
    """The engine's coloring went bad; carries the failing verdict."""

    def __init__(self, verdict: Verdict):
        super().__init__(verdict.witness)
        self.verdict = verdict


class _Driver:
    """One play of a driver: inserts through core.replay, audits, and
    collects the rounds, designated colors and stars of its report."""

    def __init__(self, engine, kind: str, n: int, r: int, audit: str):
        if n < 2:  # the first round's n // 2 intervals
            raise EngineError(f"{kind} driver needs n >= 2, got {n}")
        self.engine = engine
        self.kind = kind
        self.n = n
        self.r = r
        self.audit = "every" if audit == "every" else "none"
        # the local driver also records locality evidence
        self.locality = LocalityAudit() if kind == "local" else None
        self.ids = count()
        self.total = 0
        self.verdict = Verdict(True)
        self.rounds: list[list[Interval]] = []
        self.designated: list[Color] = []
        self.stars: list[list[Interval]] = []
        self._events: list[tuple[int, Color, bool]] = []
        self._prev_hook = engine.state.on_assign
        engine.state.on_assign = self._hook

    def _hook(self, iid: int, color: Color, is_recolor: bool) -> None:
        if self._prev_hook is not None:
            self._prev_hook(iid, color, is_recolor)
        self._events.append((iid, color, is_recolor))

    def close(self) -> None:
        self.engine.state.on_assign = self._prev_hook

    def insert(self, left: float, right: float) -> Interval:
        """Insert, audit, and log locality evidence; raises _Violation
        when the engine's coloring went bad."""
        state: ColoringState = self.engine.state
        iv = Interval(next(self.ids), left, right)
        if self.locality is not None:
            # an insert recolors but moves nothing: the component found now
            # is also the one after the insert
            component = _component(state.intervals.values(), iv)
            rank = _ranks(component)
            sig = _signature(component, rank, state.assignment, iv.id)
        self._events.clear()
        verdict = replay(self.engine, [Insert(iv)], self.audit)
        self.total += 1
        if self.locality is not None:
            self._note_locality(iv, sig, rank)
        if not verdict.ok:
            raise _Violation(verdict)
        return iv

    def _note_locality(
        self, iv: Interval, sig: Signature, rank: dict[int, int]
    ) -> None:
        # canonicalize the response by component rank so identical
        # signatures from different rounds compare equal
        recolors = []
        final_color = self.engine.state.color_of(iv.id)
        for iid, color, is_recolor in self._events:
            if is_recolor:
                if iid not in rank:
                    self.locality.outside_recolors.append((iv.id, iid))
                recolors.append((rank.get(iid, -1), color))
        response = (final_color, tuple(sorted(recolors)))
        self.locality.record(sig, response)

    def round_audit(self) -> None:
        state = self.engine.state
        verdict = is_conflict_free(state.intervals.values(), state.assignment)
        if not verdict.ok:
            raise _Violation(verdict)

    def span_groups(self, members: list[Interval], size: int, cut: int) -> None:
        """Append the next round: per group of `size` consecutive members,
        one interval from the group's first left end to just short of the
        left end of its member `cut`."""
        groups = [
            members[g : g + size]
            for g in range(0, len(members) - size + 1, size)
        ]
        eps = min(g[cut].left - g[cut - 1].right for g in groups) / 4
        if eps <= 0:
            raise InvariantError("group members out of order")
        self.rounds.append([self.insert(g[0].left, g[cut].left - eps) for g in groups])

    def report(self, reason: str) -> AdversaryReport:
        state = self.engine.state
        return AdversaryReport(
            kind=self.kind,
            n=self.n,
            budget_r=self.r,
            rounds=self.rounds,
            designated=self.designated,
            star_sizes=[len(s) for s in self.stars],
            total_inserted=self.total,
            max_recolor=state.ledger.max_per_update(),
            colors_used=len(state.colors_seen()),
            cf_ok=self.verdict.ok,
            cf_witness=self.verdict.witness,
            cf_gap=self.verdict.gap,
            stop_reason=reason,
            locality=self.locality,
        )


def _play(driver: _Driver, next_round) -> AdversaryReport:
    """The round loop both drivers share.

    The first round is n/2 disjoint unit intervals.  Each later round
    starts with a full audit; next_round(driver) then appends a round and
    returns None, or returns the reason to stop.  A violation found by any
    audit ends the play with stop reason "cf-violation".
    """
    try:
        first = [driver.insert(2 * k, 2 * k + 1) for k in range(driver.n // 2)]
        driver.rounds.append(first)
        reason = None
        while reason is None:
            driver.round_audit()
            reason = next_round(driver)
    except _Violation as exc:
        driver.verdict = exc.verdict
        reason = "cf-violation"
    finally:
        driver.close()
    return driver.report(reason)


def _adapt(play_once, engine_factory, budget_r, floor: int):
    """The adaptive-budget loop of both drivers: play once with budget_r,
    or else from r = floor, replaying with r = the observed recoloring
    maximum while that exceeds r (at most _MAX_ADAPT plays)."""
    r = budget_r if budget_r is not None else floor
    report = None
    for attempt in range(1, _MAX_ADAPT + 1):
        report = play_once(engine_factory(), r)
        report.adapt_iterations = attempt
        if budget_r is not None or report.max_recolor <= r:
            break
        r = max(floor, report.max_recolor)
    return report


def _general_round(driver: _Driver) -> str | None:
    """Designate a fresh color for the last round, then span the left
    half of each group of 4r living members."""
    state: ColoringState = driver.engine.state
    rounds, designated, r = driver.rounds, driver.designated, driver.r
    members = rounds[-1]
    if not designated:
        tally: dict[Color, int] = {}
        for iv in members:
            col = state.assignment[iv.id]
            tally[col] = tally.get(col, 0) + 1
        designated.append(min(tally.items(), key=lambda kv: (-kv[1], kv[0]))[0])
    else:
        candidates = {state.assignment[iv.id] for iv in members} - set(designated)
        if not candidates:
            return "no-eligible-color"
        scored = []
        for cand in sorted(candidates):
            living = living_rounds(rounds, designated + [cand], state.color_of)
            scored.append((len(living[-1]), cand))
        best_count = max(s for s, _ in scored)
        designated.append(min(c for s, c in scored if s == best_count))
    star = living_rounds(rounds, designated, state.color_of)[-1]
    driver.stars.append(star)
    if len(star) < 4 * r:
        return "exhausted"
    driver.span_groups(star, 4 * r, 2 * r)
    return None


def run_general_adversary(
    engine_factory,
    n: int,
    budget_r: int | None = None,
    audit: str = "every",
) -> AdversaryReport:
    """Adaptive wrapper: rerun with the observed recoloring maximum until
    the budget matches the engine's behavior (at most _MAX_ADAPT runs)."""

    def once(engine, r: int) -> AdversaryReport:
        if r < 1:
            raise EngineError("general driver needs a recoloring budget >= 1")
        return _play(_Driver(engine, "general", n, r, audit), _general_round)

    return _adapt(once, engine_factory, budget_r, 1)


def _local_round(driver: _Driver) -> str | None:
    """Span the left r+1 members of each group of r+2; a last round of
    exactly r+1 members gets one spanning interval and ends the play."""
    members, r = driver.rounds[-1], driver.r
    if len(members) == r + 1:
        driver.rounds.append([driver.insert(members[0].left, 2 * driver.n - 1)])
        return "final-span"
    if len(members) < r + 2:
        return "exhausted"
    driver.span_groups(members, r + 2, r + 1)
    return None


def run_local_adversary(
    engine_factory,
    n: int,
    budget_r: int | None = None,
    audit: str = "every",
) -> AdversaryReport:
    def once(engine, r: int) -> AdversaryReport:
        if r < 0:
            raise EngineError("negative recoloring budget")
        return _play(_Driver(engine, "local", n, r, audit), _local_round)

    return _adapt(once, engine_factory, budget_r, 0)


# ---------------------------------------------------------------- tradeoff


def check_tradeoff(n: int, c: int, r: int, kind: str = "general") -> bool | None:
    """Is the observed (colors, max recolorings) pair consistent with the
    provable color/recoloring tradeoff?  None when r = 0 makes the bound
    inapplicable; c below 1 is a ValueError."""
    if c < 1:
        raise ValueError(f"the tradeoff needs c >= 1, got {c}")
    if r <= 0:
        return None
    if kind == "general":
        return r > n ** (1.0 / (c + 1)) / (8 * c)
    if kind == "local":
        return r >= n ** (1.0 / (c + 2)) - 2
    raise ValueError(f"unknown tradeoff kind {kind!r}")

"""Workload inputs for the cfcolor benchmark, generated from a seed.

Every workload is emitted as text in the formats the program reads: update
traces (`I <id> <left> <right>` / `D <id>`) for the replay workloads and
`K <id> <a0> <va> <b0> <vb>` scenarios for the kinetic one.  Coordinates
are written at the trace format's 6-decimal precision, as `cfcolor gen`
writes them, and every generated interval is checked after that rounding
so that no operation is rejected by the engine's input checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from cfcolor import core, kinetic


@dataclass(frozen=True)
class ReplayWorkload:
    """Prefill to `live` intervals, then `churn` alternating delete/insert."""

    name: str
    method: str
    live: int
    churn: int
    audit_every: int
    # (rng) -> (left, right) in the text the trace carries
    draw: Callable[[random.Random], tuple[str, str]]


@dataclass(frozen=True)
class KineticWorkload:
    """`random_scenario` over [0, horizon], maintained over [0, until]."""

    name: str
    n: int
    horizon: float
    until: float
    # set-ups per round, the last one kept; setup_s is their median
    setup_reps: int


def _rounded(x: float) -> str:
    return core.format_number(round(x, 6))


def _draw_long(rng: random.Random) -> tuple[str, str]:
    a = rng.uniform(0.0, 100.0)
    return _rounded(a), _rounded(a + rng.uniform(10.0, 100.0))


def _draw_universe(rng: random.Random, universe: int = 1024) -> tuple[str, str]:
    # the integer-universe shape of the acceptance test for FixedDistinctEngine
    a = rng.randrange(0, universe - 1)
    return str(a), str(rng.randrange(a + 1, universe))


def _draw_bounded(rng: random.Random, span: float, L: float = 8.0) -> tuple[str, str]:
    while True:
        a = rng.uniform(0.0, span)
        left, right = _rounded(a), _rounded(a + rng.uniform(1.0, L))
        length = core.parse_number(right) - core.parse_number(left)
        if 1 <= length < L:  # the grid engine's length domain after rounding
            return left, right


SPARSE_LIVE = 8000

WORKLOADS = {
    w.name: w
    for w in (
        ReplayWorkload("dyn-long", "dynamic:t=2", 2000, 1000, 100, _draw_long),
        ReplayWorkload(
            "fixed-audit", "fixed-distinct:U=1024,t=2", 40000, 5000, 100, _draw_universe
        ),
        ReplayWorkload(
            "sparse-grid",
            "grid:L=8,inner=dynamic",
            SPARSE_LIVE,
            6000,
            100,
            lambda rng: _draw_bounded(rng, 4.0 * SPARSE_LIVE),
        ),
        KineticWorkload("kinetic-random", 200, 10.0, 5.0, 3),
    )
}


def _rng(seed: int, round_no: int, salt: int) -> random.Random:
    return random.Random((seed * 1_000_003 + round_no) * 1_009 + salt)


def replay_trace(w: ReplayWorkload, seed: int, round_no: int) -> str:
    """Prefill inserts, then a delete of a random live id and an insert, alternating."""
    rng = _rng(seed, round_no, 17)
    lines = []
    live: list[int] = []
    for nid in range(w.live + w.churn // 2 + w.churn % 2):
        if nid >= w.live:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            lines.append(f"D {live.pop()}")
        left, right = w.draw(rng)
        lines.append(f"I {nid} {left} {right}")
        live.append(nid)
    return "\n".join(lines[: w.live + w.churn]) + "\n"


def _scenario_ok(trajs, horizon) -> bool:
    """The maintainer's own start conditions, checked on the rounded text."""
    ends = [tr.left(0.0) for tr in trajs] + [tr.right(0.0) for tr in trajs]
    if len(set(ends)) != len(ends):
        return False
    return all(
        tr.left(t) < tr.right(t) for tr in trajs for t in (0.0, horizon)
    )


def kinetic_scenario(w: KineticWorkload, seed: int, round_no: int) -> str:
    attempt = 0
    while True:
        rng = _rng(seed, round_no, 29 + 100 * attempt)
        text = kinetic.format_scenario(kinetic.random_scenario(rng, w.n, w.horizon))
        if _scenario_ok(kinetic.parse_scenario(text), w.horizon):
            return text
        attempt += 1


def generate(name: str, seed: int, round_no: int) -> str:
    """The input text of one round; rounds of a run draw distinct inputs."""
    w = WORKLOADS[name]
    if isinstance(w, KineticWorkload):
        return kinetic_scenario(w, seed, round_no)
    return replay_trace(w, seed, round_no)

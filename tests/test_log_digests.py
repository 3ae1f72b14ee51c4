"""Byte lock on CLI output: run logs, adversary transcripts, kinetic logs,
a bench CSV.

Each artifact is produced in-process from a fixed trace and compared, as a
sha256 hex string, with tests/golden/log_digests.json.  A change that
alters any emitted byte (record order, number or color formatting, the
recolorings an engine chooses) fails here.  Run this file as a script to
print the current digests.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from cfcolor.cli import main
from cfcolor.core import Delete, Insert, Interval, format_trace
from cfcolor.kinetic import Trajectory, format_scenario, random_scenario

from helpers import random_ops

GOLDEN = Path(__file__).parent / "golden" / "log_digests.json"

RUNS = {
    "run dynamic:t=2": ("dynamic:t=2", "random"),
    "run eps:eps=0.5": ("eps:eps=0.5", "random"),
    "run fixed-distinct:U=256": ("fixed-distinct:U=256", "integer"),
    "run fixed-chain:U=256,t=3": ("fixed-chain:U=256,t=3", "integer"),
    "run grid:L=8,inner=dynamic": ("grid:L=8,inner=dynamic", "bounded"),
    "run dynamic:t=2 long-overlap": ("dynamic:t=2", "long"),
    "run eps:eps=0.5 long-overlap": ("eps:eps=0.5", "long"),
}


def _cli(tmp_path: Path, name: str, *argv: str) -> str:
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _integer_trace() -> str:
    return format_trace(random_ops(random.Random(11), 800, universe=256))


def _long_overlap_trace() -> str:
    """Lengths 10-100 on [0, 100], 30% deletes: large node pools, and
    rebalancing (borrow, merge, separator swap) up to the root."""
    rng = random.Random(23)
    live: list[int] = []
    ops = []
    for nid in range(600):
        if live and rng.random() < 0.3:
            ops.append(Delete(live.pop(rng.randrange(len(live)))))
            continue
        length = rng.uniform(10.0, 100.0)
        left = round(rng.uniform(0.0, 100.0 - length), 3)
        ops.append(Insert(Interval(nid, left, round(left + length, 3))))
        live.append(nid)
    return format_trace(ops)


def _grid_scenario() -> str:
    """Rigid intervals on integer endpoints and speeds: 30 crossings in
    batches of up to six sharing one time, 8 recolorings."""
    rng = random.Random(13)
    n = 16
    ends = rng.sample(range(4 * n), 2 * n)
    trajs = []
    for i in range(n):
        a, b = sorted(ends[2 * i : 2 * i + 2])
        v = rng.choice((-1, 0, 0, 1))
        trajs.append(Trajectory(i, a, v, b, v))
    return format_scenario(trajs)


def artifacts(tmp_path: Path) -> dict[str, str]:
    traces = {
        "random": _cli(tmp_path, "random.trace", "gen", "random", "--n", "800", "--seed", "7"),
        "bounded": _cli(tmp_path, "bounded.trace", "gen", "bounded-length",
                        "--n", "800", "--seed", "7", "--L", "8"),
        "kinetic": _cli(tmp_path, "kinetic.scn", "gen", "kinetic-lb", "--n", "2"),
        "kinetic-random": format_scenario(random_scenario(random.Random(5), 30)),
        "kinetic-grid": _grid_scenario(),
        "integer": _integer_trace(),
        "long": _long_overlap_trace(),
    }
    paths = {}
    for kind, text in traces.items():
        paths[kind] = tmp_path / f"{kind}.in"
        paths[kind].write_text(text)
    out = {
        label: _cli(tmp_path, "run.log", "run", "--method", spec,
                    "--trace", str(paths[kind]), "--audit", "final")
        for label, (spec, kind) in RUNS.items()
    }
    out["run dynamic:t=2 audit=every"] = _cli(
        tmp_path, "run.log", "run", "--method", "dynamic:t=2",
        "--trace", str(paths["random"]), "--audit", "every")
    out["adversary general n=128 dynamic:t=2"] = _cli(
        tmp_path, "adv.log", "adversary", "--kind", "general", "--n", "128",
        "--engine", "dynamic:t=2")
    out["adversary local n=64 dynamic:t=2"] = _cli(
        tmp_path, "adv.log", "adversary", "--kind", "local", "--n", "64",
        "--engine", "dynamic:t=2")
    horizon = traces["kinetic"].splitlines()[0].split()[-1]
    for name, kind, until in (("lb n=2", "kinetic", horizon),
                              ("random n=30", "kinetic-random", "10"),
                              ("grid n=16", "kinetic-grid", "6")):
        for suffix, extra in (("", ()), (" exact", ("--exact",))):
            out[f"kinetic {name} audit=every{suffix}"] = _cli(
                tmp_path, "kinetic.log", "kinetic", "--scenario", str(paths[kind]),
                "--until", until, "--audit", "every", *extra)
    out["bench"] = _cli(
        tmp_path, "bench.csv", "bench", "--method", "dynamic:t=2",
        "--method", "fixed-distinct:U=128", "--method", "fixed-chain:U=128,t=3",
        "--method", "grid:L=6,inner=dynamic", "--method", "greedy-nested",
        "--method", "trivial", "--n", "50,200", "--seed", "5")
    return out


def digests(tmp_path: Path) -> dict[str, str]:
    return {
        label: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for label, text in artifacts(tmp_path).items()
    }


def test_log_bytes_match_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        print()

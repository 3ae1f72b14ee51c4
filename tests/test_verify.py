"""cfcolor.verify in-process: every method's recorded log replays clean, with
no argparse and no files, and a log that lost a recoloring is caught."""

from __future__ import annotations

import io

import pytest

from cfcolor import cli
from cfcolor.core import TraceError, replay
from cfcolor.methods import METHOD_NAMES, build_engine, validate_method
from cfcolor.verify import RecordingEngine, check_run_log, run_summary, write_summary

PARAMS = {"fixed-distinct": {"universe": 256}, "fixed-chain": {"universe": 256},
          "grid": {"L": 8}}
# the engines that recolor on a 300-op bench trace
RECOLORING = {"dynamic", "eps", "fixed-chain", "fixed-distinct"}


def record(name: str, seed: int):
    """A run log of the method over its bench trace, SUMMARY line included."""
    spec = validate_method(name, dict(PARAMS.get(name, {})))
    ops = cli._bench_trace(*spec, 300, seed)
    engine = build_engine(spec)
    sink = io.StringIO()
    assert replay(RecordingEngine(engine, sink), ops).ok
    totals = run_summary(engine.state)
    write_summary(sink, totals)
    return sink.getvalue().splitlines(), ops, totals


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_recorded_log_replays(name, seed):
    lines, ops, totals = record(name, seed)
    assert check_run_log(lines, ops).ok
    assert (totals["recolor_total"] > 0) == (name in RECOLORING)
    if name not in RECOLORING:
        return
    last = max(i for i, line in enumerate(lines) if line.startswith("R "))
    tampered = lines[:last] + lines[last + 1:]
    if name == "eps":
        # its last recoloring made room for the op's insert, so the op's
        # audit finds the conflict before SUMMARY is read
        assert not check_run_log(tampered, ops).ok
        return
    total = totals["recolor_total"]
    with pytest.raises(TraceError, match=(
        f"^line {len(lines) - 1}: summary recolor_total={total} "
        f"but replay measured {total - 1}$"
    )):
        check_run_log(tampered, ops)

"""core.replay, and the conflict-violation paths of the commands and
drivers that replay ops through it.

A test-local engine colors every interval Color(0, 0), so any two
overlapping live intervals make the coloring fail.
"""

from __future__ import annotations

import pytest

from cfcolor import cli
from cfcolor.adversary import run_general_adversary, run_local_adversary
from cfcolor.core import (
    Color,
    ColoringState,
    Delete,
    Insert,
    Interval,
    Verdict,
    is_conflict_free,
    replay,
)


class MonochromeEngine:
    """Gives every interval Color(0, 0); never recolors."""

    def __init__(self):
        self.state = ColoringState()

    def insert(self, interval: Interval) -> None:
        self.state.begin_insert(interval)
        self.state.set_color(interval.id, Color(0, 0))

    def delete(self, iid: int) -> None:
        self.state.begin_delete(iid)
        self.state.remove(iid)


def oracle_witness(engine) -> float:
    verdict = is_conflict_free(engine.state.intervals.values(), engine.state.assignment)
    assert not verdict.ok
    return verdict.witness


OVERLAP = [Insert(Interval(0, 0.0, 2.0)), Insert(Interval(1, 1.0, 3.0))]


# ------------------------------------------------------------ core.replay


def test_replay_every_stops_at_first_failing_op():
    eng = MonochromeEngine()
    ops = [*OVERLAP, Insert(Interval(2, 5.0, 6.0))]
    verdict = replay(eng, ops, audit="every")
    assert verdict == Verdict(False, oracle_witness(eng)) == Verdict(False, 1.0)
    assert sorted(eng.state.intervals) == [0, 1]  # the third op never ran


def test_replay_final_checks_only_after_the_last_op():
    eng = MonochromeEngine()
    assert replay(eng, [*OVERLAP, Delete(1)], audit="final") == Verdict(True)
    eng = MonochromeEngine()
    verdict = replay(eng, [*OVERLAP, Insert(Interval(2, 5.0, 6.0))], audit="final")
    assert verdict == Verdict(False, oracle_witness(eng))
    assert sorted(eng.state.intervals) == [0, 1, 2]


def test_replay_without_audit_applies_every_op():
    eng = MonochromeEngine()
    assert replay(eng, OVERLAP) == Verdict(True)
    assert sorted(eng.state.intervals) == [0, 1]
    assert replay(MonochromeEngine(), [], audit="final") == Verdict(True)


# ---------------------------------------------------------------- cfcolor run


@pytest.mark.parametrize("audit,last_op", [("every", "I 1 1 3"), ("final", "I 2 5 6")])
def test_run_exits_1_on_conflict(tmp_path, capsys, monkeypatch, audit, last_op):
    built = []

    def build_engine(spec):
        built.append(MonochromeEngine())
        return built[-1]

    monkeypatch.setattr(cli, "build_engine", build_engine)
    trace = tmp_path / "t.trace"
    trace.write_text("I 0 0 2\nI 1 1 3\nI 2 5 6\n")
    log = tmp_path / "run.log"
    code = cli.main(["run", "--method", "trivial", "--trace", str(trace),
                     "--audit", audit, "--out", str(log)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VIOLATION
    assert err == f"conflict at {float(oracle_witness(built[-1]))}\n"
    lines = log.read_text().splitlines()
    iid = last_op.split()[1]
    assert lines[-2:] == [last_op, f"A {iid} 0 0"]
    assert not any(line.startswith("SUMMARY") for line in lines)


# ---------------------------------------------------------------- adversaries


@pytest.mark.parametrize("runner", [run_general_adversary, run_local_adversary])
def test_adversary_stops_on_insertion_audit(runner):
    engines = []

    def factory():
        engines.append(MonochromeEngine())
        return engines[-1]

    report = runner(factory, 8)
    assert report.stop_reason == "cf-violation"
    assert report.cf_ok is False
    assert report.cf_witness == oracle_witness(engines[-1])
    # the spanning round that overlapped the first is not reported
    assert report.rounds_played == 1
    assert report.total_inserted == 5


@pytest.mark.parametrize("runner", [run_general_adversary, run_local_adversary])
def test_adversary_stops_on_round_audit(runner):
    engines = []

    def factory():
        engines.append(MonochromeEngine())
        return engines[-1]

    report = runner(factory, 8, audit="none")
    assert report.stop_reason == "cf-violation"
    assert report.cf_ok is False
    assert report.cf_witness == oracle_witness(engines[-1])
    assert report.rounds_played == 2


def test_adversary_command_exits_1_on_conflict(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_engine", lambda spec: MonochromeEngine())
    log = tmp_path / "adv.log"
    code = cli.main(["adversary", "--kind", "general", "--n", "8",
                     "--engine", "trivial", "--out", str(log)])
    assert code == cli.EXIT_VIOLATION
    assert capsys.readouterr().err == "conflict at 0.0\n"
    assert log.read_text().splitlines()[-1].startswith("SUMMARY colors=1 ")

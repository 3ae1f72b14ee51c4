"""Run logs: their writers and their checker.

Log vocabulary (one record per line, `#` comments allowed):
    I <id> <left> <right>     insert echoed from the trace
    D <id>                    delete echoed from the trace
    A <id> <level> <index>    initial color of a newly inserted interval
    A <id> dummy
    R <id> <level> <index>    recoloring of an already colored interval
    R <id> dummy
    E <t> <kind> <id1> <id2>  kinetic endpoint crossing
    SUMMARY key=value ...     footer totals

`cfcolor run` and `cfcolor adversary` write their logs through
RecordingEngine and write_summary, and `cfcolor kinetic` through
write_kinetic_log.  check_run_log replays a run or adversary log on a bare
ColoringState, with no engine in the loop, and recounts its SUMMARY totals.
"""

from __future__ import annotations

from typing import Sequence, TextIO

from .core import (DUMMY, Color, ColoringState, Delete, Insert, Interval, Op, TraceError,
                   Verdict, format_color, format_number, format_op, is_conflict_free_fast,
                   parse_op)

__all__ = ["RecordingEngine", "check_run_log", "run_summary", "write_kinetic_log",
           "write_summary"]


class RecordingEngine:
    """Engine proxy that echoes I/D operations and A/R assignments to a sink."""

    def __init__(self, engine, sink: TextIO):
        self.engine = engine
        self.sink = sink

        def hook(iid: int, color: Color, is_recolor: bool) -> None:
            tag = "R" if is_recolor else "A"
            sink.write(f"{tag} {iid} {format_color(color)}\n")

        engine.state.on_assign = hook

    @property
    def state(self):
        return self.engine.state

    def insert(self, interval: Interval) -> None:
        self.sink.write(format_op(Insert(interval)) + "\n")
        self.engine.insert(interval)

    def delete(self, iid: int) -> None:
        self.sink.write(format_op(Delete(iid)) + "\n")
        self.engine.delete(iid)


def write_summary(out: TextIO, totals: dict) -> None:
    out.write("SUMMARY " + " ".join(f"{k}={v}" for k, v in totals.items()) + "\n")


def write_kinetic_log(km, out: TextIO, audit: str | None) -> None:
    """Run a KineticMaintainer, auditing as `audit` says, and log it: the
    initial A records, each event's E record and its R records, SUMMARY."""
    for iid in sorted(km.colors):
        out.write(f"A {iid} {format_color(km.colors[iid])}\n")
    for rec in km._iter_run(audit):
        ev = rec.event
        out.write(f"E {format_number(round(float(ev.time), 6))} {ev.kind} {ev.id1} {ev.id2}\n")
        for iid, color in rec.recolored:
            out.write(f"R {iid} {format_color(color)}\n")
    write_summary(out, km.summary())


def run_summary(state: ColoringState) -> dict[str, int]:
    """The SUMMARY totals of a run log, in written order."""
    return {
        "colors": len(state.colors_seen()),
        "n": len(state.intervals),
        "recolor_total": state.ledger.total(),
        "recolor_max": state.ledger.max_per_update(),
    }


def _audit(state: ColoringState, op: Op | None, lineno: int) -> Verdict:
    """Close the open op: its insert must be colored, the state conflict-free."""
    if op is None:
        return Verdict(True)
    # A is accepted only for the op's own insert and R needs a color, so
    # that insert is the one live id that can still lack a color
    if isinstance(op, Insert) and op.interval.id not in state.assignment:
        raise TraceError(lineno, f"interval {op.interval.id} was never assigned a color")
    return is_conflict_free_fast(state.intervals.values(), state.assignment)


def _apply_color(state: ColoringState, op: Op | None, tag: str, parts: list[str]) -> None:
    """An A record gives the open op's insert its first color; an R record
    gives a live colored interval a new one."""
    if len(parts) < 3:
        raise ValueError(f"expected '{tag} <id> <color>'")
    if tag == "A" and not isinstance(op, Insert):
        raise ValueError("assignment outside an insert operation")
    if op is None:
        raise ValueError("recolor outside an operation")
    iid = int(parts[1])
    if tag == "A":
        if iid != op.interval.id:
            raise ValueError(f"initial color for {iid} but op inserted {op.interval.id}")
        if iid in state.assignment:
            raise ValueError(f"interval {iid} colored twice")
    elif iid not in state.intervals:
        raise ValueError(f"recolor of unknown id {iid}")
    elif iid not in state.assignment:
        raise ValueError(f"recolor of never-colored id {iid}")
    if len(parts) == 3 and parts[2] == "dummy":
        color = DUMMY
    elif len(parts) != 4:
        raise ValueError("expected '<tag> <id> <level> <index>' or dummy")
    else:
        try:
            color = Color(int(parts[2]), int(parts[3]))
        except ValueError:
            raise ValueError("color fields must be integers") from None
    # a first color always changes something, so only R can fail here
    if not state.set_color(iid, color):
        raise ValueError(f"recolor of {iid} keeps its color {format_color(color)}")


def _check_summary(state: ColoringState, parts: list[str]) -> None:
    measured = run_summary(state)
    measured["max_recolor"] = measured["recolor_max"]  # the adversary's key
    for token in parts[1:]:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"bad summary token {token!r}")
        if key in measured and int(value) != measured[key]:
            raise ValueError(f"summary {key}={value} but replay measured {measured[key]}")


def check_run_log(lines: Sequence[str], trace: Sequence[Op] | None = None) -> Verdict:
    """Replay a run log; return the first failing op audit's verdict, else ok.

    An op is audited when the next I, D or SUMMARY record or the end of the log
    closes it.  A record that is malformed, does not replay or departs from
    `trace` raises TraceError with its line number; a log that stops short of
    `trace` raises ValueError."""
    state = ColoringState()
    op: Op | None = None  # the open I/D op
    count = 0  # I/D ops replayed
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        if tag in ("I", "D", "SUMMARY"):
            verdict = _audit(state, op, lineno)
            if not verdict.ok:
                return verdict
            op = None
        try:
            if tag in ("I", "D"):
                op = parse_op(parts)
                if trace is not None and (count >= len(trace) or trace[count] != op):
                    kind = "insert" if tag == "I" else "delete"
                    raise ValueError(f"log {kind} does not match the trace")
                if isinstance(op, Insert):
                    if op.interval.id in state.intervals:
                        raise ValueError(f"duplicate live id {op.interval.id}")
                    state.add(op.interval)
                elif op.id not in state.intervals:
                    raise ValueError(f"delete of unknown id {op.id}")
                else:
                    state.remove(op.id)
                count += 1
                state.ledger.begin()
            elif tag in ("A", "R"):
                _apply_color(state, op, tag, parts)
            elif tag == "SUMMARY":
                _check_summary(state, parts)
            elif tag in ("E", "K"):
                raise ValueError("kinetic logs are not replayable here")
            else:
                raise ValueError(f"unknown record {tag!r}")
        except ValueError as exc:
            raise TraceError(lineno, str(exc)) from None
    verdict = _audit(state, op, len(lines))
    if verdict.ok and trace is not None and count != len(trace):
        raise ValueError(f"log covers {count} of {len(trace)} trace operations")
    return verdict

"""Run-log checker: replay a `cfcolor run` or `cfcolor adversary` log (the
record vocabulary is in cfcolor.cli) on a bare ColoringState, with no engine
in the loop, and recount its SUMMARY totals."""

from __future__ import annotations

from typing import Sequence

from .core import (DUMMY, Color, ColoringState, Delete, Insert, Interval, Op, TraceError,
                   Verdict, format_color, is_conflict_free_fast, parse_number)

__all__ = ["check_run_log", "run_summary"]


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


def _parse_op(tag: str, parts: list[str]) -> Op:
    if tag == "I":
        if len(parts) != 4:
            raise ValueError("expected 'I <id> <left> <right>'")
        return Insert(Interval(int(parts[1]), parse_number(parts[2]), parse_number(parts[3])))
    if len(parts) != 2:
        raise ValueError("expected 'D <id>'")
    return Delete(int(parts[1]))


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
                op = _parse_op(tag, parts)
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

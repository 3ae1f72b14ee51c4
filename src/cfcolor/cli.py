"""Command-line surface: run, gen, bench, verify, adversary, kinetic.

`run`, `bench` and `adversary` apply ops through one loop, core.replay.
The logs of `run`, `adversary` and `kinetic` are written by cfcolor.verify,
which holds their record vocabulary and the checker that `verify` calls.
`gen` and `bench` draw traces from one table of generators keyed by input
domain; `bench` takes each method's domain from cfcolor.methods.

Exit codes: 0 ok, 1 conflict-freeness violation, 2 input error,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys
import time

from .adversary import check_tradeoff, run_general_adversary, run_local_adversary
from .core import (EngineError, Insert, InvariantError, TraceError, format_number, format_op,
                   parse_number, parse_trace, replay)
from .kinetic import KineticMaintainer, format_scenario, lowerbound_scenario, parse_scenario
from .methods import (BENCH_DOMAINS, INNER_NAMES, METHOD_KEYS, build_engine, method_label,
                      parse_method_spec, split_method_spec, validate_method)
from .online import nested_lowerbound_instance
from .verify import (RecordingEngine, check_run_log, run_summary, write_kinetic_log,
                     write_summary)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Out:
    """Output sink; never closes stdout."""

    def __init__(self, path: str):
        self.path = path
        self.fh = None

    def __enter__(self):
        self.fh = sys.stdout if self.path == "-" else open(self.path, "w", encoding="utf-8")
        return self.fh

    def __exit__(self, *exc):
        if self.fh is not sys.stdout:
            self.fh.close()
        return False


# ------------------------------------------------------------------- run


def _method_from_args(args) -> tuple[str, dict]:
    """The --method spec with the method flags overriding or filling in keys."""
    name, params = split_method_spec(args.method)
    for key in METHOD_KEYS:
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return validate_method(name, params)


def _size(n: int) -> int:
    """A --n value: every generator, driver and bench row needs one op."""
    if n < 1:
        raise EngineError(f"--n must be at least 1, got {n}")
    return n


def _report_conflict(witness, gap) -> None:
    """Print the conflict line, and name the gap when the witness, its
    midpoint, rounded onto one of its endpoints (adjacent floats)."""
    print(f"conflict at {witness}", file=sys.stderr)
    if gap is not None and witness in gap:
        print(f"conflict in the open gap between {gap[0]!r} and {gap[1]!r}", file=sys.stderr)


def cmd_run(args) -> int:
    engine = build_engine(_method_from_args(args))
    ops = parse_trace(_read_text(args.trace).splitlines())
    with _Out(args.out) as out:
        verdict = replay(RecordingEngine(engine, out), ops, args.audit)
        if not verdict.ok:
            _report_conflict(verdict.witness, verdict.gap)
            return EXIT_VIOLATION
        write_summary(out, run_summary(engine.state))
    return EXIT_OK


# ------------------------------------------------------------- gen, bench


def _trace_lines(rng: random.Random, count: int, p_delete: float, draw):
    """count trace lines: with chance p_delete a delete of a random live
    id, else an insert with the ends that draw() picks."""
    live: list[int] = []
    nid = 0
    for _ in range(count):
        if live and rng.random() < p_delete:
            yield f"D {live.pop(rng.randrange(len(live)))}"
        else:
            a, b = draw()
            yield f"I {nid} {format_number(a)} {format_number(b)}"
            live.append(nid)
            nid += 1


def _float_lines(rng, n, p_delete, min_len, max_len):
    def draw():
        a = rng.uniform(0.0, 4.0 * n)
        return round(a, 6), round(a + rng.uniform(min_len, max_len), 6)
    return _trace_lines(rng, n, p_delete, draw)


def _random(rng, n, p_delete, params):
    return _float_lines(rng, n, p_delete, 0.5, 8.0)


def _bounded_length(rng, n, p_delete, params):
    L = params.get("L")
    if L is None:
        raise EngineError("bounded-length needs --L")
    if L <= 1:
        raise EngineError("--L must exceed 1")
    return _float_lines(rng, n, p_delete, 1.0, L - 1e-6)


def _nested_lb(rng, n, p_delete, params):
    return (format_op(Insert(iv)) for iv in nested_lowerbound_instance(n))


def _universe(rng, n, p_delete, params):
    u = params["universe"]
    if u < 2:
        raise EngineError(f"a universe trace needs U >= 2, got {u}")

    def draw():
        a = rng.randrange(0, u - 1)
        return a, rng.randrange(a + 1, u)
    return _trace_lines(rng, n, p_delete, draw)


# input domain -> its trace-line generator (rng, n, p_delete, params)
_TRACES = {
    "random": _random,
    "bounded-length": _bounded_length,
    "nested-lb": _nested_lb,
    "universe": _universe,
}


def cmd_gen(args) -> int:
    _size(args.n)
    rng = random.Random(args.seed)
    with _Out(args.out) as out:
        if args.kind == "kinetic-lb":
            trajs, horizon = lowerbound_scenario(args.n)
            out.write(f"# horizon {format_number(round(horizon, 6))}\n")
            out.write(format_scenario(trajs))
        else:
            for line in _TRACES[args.kind](rng, args.n, args.p_delete, {"L": args.L}):
                out.write(line + "\n")
    return EXIT_OK


def _bench_trace(name: str, params: dict, n: int, seed: int):
    """Per-row deterministic trace from the method's input domain."""
    rng = random.Random((seed * 1000003 + n) ^ 0x5F3759DF)
    return parse_trace(_TRACES[BENCH_DOMAINS[name]](rng, n, 0.3, params))


def cmd_bench(args) -> int:
    specs = [parse_method_spec(s) for s in args.method]
    try:
        sizes = [_size(int(tok)) for tok in args.sizes.split(",") if tok]
    except ValueError:
        raise EngineError(f"bad --n list {args.sizes!r}") from None
    if not sizes:
        raise EngineError("--n needs at least one size")
    # every row's input errors come out before any output: its engine's
    # own parameter checks first (grid:L=1), then its trace domain's
    # (a one-point universe), on a one-op trace
    for spec in specs:
        build_engine(spec)
        _bench_trace(*spec, 1, args.seed)
    with _Out(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            [
                "method",
                "n",
                "params",
                "colors",
                "recolor_total",
                "recolor_max",
                "recolor_amortized",
                "wall_time",
            ]
        )
        for name, params in specs:
            label = method_label(name, params)
            _, param_part = (label.split(":", 1) + [""])[:2]
            for n in sizes:
                engine = build_engine((name, params))
                ops = _bench_trace(name, params, n, args.seed)
                started = time.perf_counter()
                try:
                    replay(engine, ops)
                except (EngineError, InvariantError) as exc:
                    print(f"bench: {label} n={n}: {exc}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - started
                totals = run_summary(engine.state)
                total = totals["recolor_total"]
                writer.writerow([
                    name, n, param_part, totals["colors"], total, totals["recolor_max"],
                    format_number(round(total / n, 6)), f"{elapsed:.6f}" if args.timings else "",
                ])
    return EXIT_OK


# ----------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    log_lines = _read_text(args.log).splitlines()
    trace = None if args.trace is None else parse_trace(_read_text(args.trace).splitlines())
    try:
        verdict = check_run_log(log_lines, trace)
    except ValueError as exc:  # TraceError names the record's line
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not verdict.ok:
        _report_conflict(verdict.witness, verdict.gap)
        return EXIT_VIOLATION
    return EXIT_OK


# --------------------------------------------------------------- adversary


def cmd_adversary(args) -> int:
    _size(args.n)
    if args.budget_c is not None and args.budget_c < 1:
        raise EngineError(f"--budget-c must be at least 1, got {args.budget_c}")
    spec = parse_method_spec(args.engine)
    buffers: list[io.StringIO] = []

    def factory():
        buf = io.StringIO()
        buffers.append(buf)
        return RecordingEngine(build_engine(spec), buf)

    runner = run_general_adversary if args.kind == "general" else run_local_adversary
    report = runner(factory, args.n, budget_r=args.budget_r)
    with _Out(args.out) as out:
        out.write(buffers[-1].getvalue())
        c = args.budget_c if args.budget_c is not None else report.colors_used
        consistent = check_tradeoff(args.n, c, report.max_recolor, args.kind)
        verdict = "n/a" if consistent is None else str(consistent).lower()
        out.write(
            f"# tradeoff c={c} r={report.max_recolor} consistent={verdict}\n"
        )
        write_summary(out, {"colors": report.colors_used, "max_recolor": report.max_recolor,
                            "rounds": report.rounds_played})
    if not report.cf_ok:
        _report_conflict(report.cf_witness, report.cf_gap)
        return EXIT_VIOLATION
    return EXIT_OK


# ----------------------------------------------------------------- kinetic


def cmd_kinetic(args) -> int:
    trajs = parse_scenario(_read_text(args.scenario))
    if not trajs:
        raise EngineError("scenario has no trajectories")
    km = KineticMaintainer(trajs, 0.0, args.until, exact=args.exact)
    with _Out(args.out) as out:
        write_kinetic_log(km, out, args.audit)
    return EXIT_OK


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcolor",
        description="Conflict-free interval coloring engines, adversaries, "
        "and the kinetic maintainer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_method_flags(p):
        p.add_argument("--method", required=True,
                       help="method name or compact spec like dynamic:t=2")
        p.add_argument("--t", type=int, default=None, help="B-tree minimum degree")
        p.add_argument("--eps", type=float, default=None, help="rebuild exponent")
        p.add_argument("--universe", type=int, default=None,
                       help="endpoint universe size for fixed engines")
        p.add_argument("--L", type=parse_number, default=None,
                       help="length bound for the grid method")
        p.add_argument("--inner", default=None, choices=INNER_NAMES,
                       help="inner engine for the grid method")

    p = sub.add_parser("run", help="replay an update trace through an engine")
    add_method_flags(p)
    p.add_argument("--trace", default="-", help="trace file ('-' for stdin)")
    p.add_argument("--audit", choices=("none", "every", "final"), default="none")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen", help="generate traces and scenarios")
    p.add_argument("kind", choices=("random", "nested-lb", "bounded-length", "kinetic-lb"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-delete", type=float, default=0.3)
    p.add_argument("--L", type=parse_number, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="measure colors and recolorings over a matrix")
    p.add_argument("--method", action="append", required=True,
                   help="compact method spec; repeatable")
    p.add_argument("--n", dest="sizes", required=True,
                   help="comma-separated operation counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true",
                   help="fill wall_time (nondeterministic)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="replay a run log against the oracle")
    p.add_argument("--log", required=True)
    p.add_argument("--trace", default=None,
                   help="optional original trace to cross-check ops")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("adversary", help="play a lower-bound adversary against an engine")
    p.add_argument("--kind", choices=("general", "local"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-c", type=int, default=None)
    p.add_argument("--budget-r", type=int, default=None)
    p.add_argument("--engine", required=True, help="compact method spec")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("kinetic", help="run the kinetic maintainer over a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--until", type=float, required=True)
    p.add_argument("--audit", choices=("none", "every", "final"), default="none")
    p.add_argument("--exact", action="store_true",
                   help="exact rational event times")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_kinetic)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("CFCOLOR_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: CFCOLOR_SEED={env_seed!r} is not an integer", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except (TraceError, EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

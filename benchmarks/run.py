"""cfcolor benchmark: one closed-loop client driving one engine per workload.

    python3 benchmarks/run.py --workload dyn-long --seed 1 --seconds 25 --trace 0

Each workload's input text is generated from --seed and handed to the
program's own readers (`core.parse_trace`, `kinetic.parse_scenario`).  One
round sets up from that text and runs the steady phase with the workload's
audits and run-log output; rounds on fresh inputs follow while they fit in
--seconds.  With --trace 0 the last output line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of two traced
rounds on one input, next to one untraced round.  `--workload all` runs
every workload in its own process.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The default seed, and a held-out one kept for confirming a claimed gain.
DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

# ROADMAP Baseline points the workload sizes line up with.
ROADMAP_BASELINE = {
    "dyn-long": "DynamicEngine(t=2) long overlap: 545 us/update at 822 live, "
    "2664 us at 3282 live",
    "fixed-audit": "oracle at 40488 live: is_conflict_free_fast 98 ms, "
    "is_conflict_free 359 ms",
    "sparse-grid": "DynamicEngine(t=2) sparse: 250-300 us/update",
    "kinetic-random": "141 random scenarios, 81k events: check_invariants "
    "23.8 s of 34.9 s",
}


@dataclass
class Round:
    setup_s: list[float]
    steady_s: float
    ops: int
    attempted: int
    failed: int
    lat_ns: array
    counts: dict
    stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _log(tracer):
    buf = io.StringIO()
    return buf.write if tracer is None else tracing.log_writer(tracer, buf.write)


def _mark(tracer, label: str) -> None:
    if tracer is not None:
        tracer.mark(label)


def _final_oracles(intervals, assignment, problems: list[str]) -> None:
    if not core.is_conflict_free_fast(intervals, assignment).ok:
        problems.append("final state fails is_conflict_free_fast")
    if not core.is_conflict_free(intervals, assignment).ok:
        problems.append("final state fails the sweep is_conflict_free")


def _replay_setup(w, text: str, tracer):
    """Input text to a prefilled engine, logging as `cfcolor run` does."""
    write = _log(tracer)
    lines = text.splitlines()
    ops = core.parse_trace(lines)
    engine = methods.build_engine(w.method)

    def on_assign(iid, color, is_recolor):
        write(f"{'R' if is_recolor else 'A'} {iid} {core.format_color(color)}\n")

    engine.state.on_assign = on_assign
    insert_t = core.Insert

    def apply(k):
        op = ops[k]
        write(lines[k] + "\n")
        if type(op) is insert_t:
            engine.insert(op.interval)
        else:
            engine.delete(op.id)

    if tracer is not None:
        apply = tracer.wrap("op", apply)
    problems = []
    for k in range(w.live):
        try:
            apply(k)
        except (core.EngineError, core.InvariantError) as exc:
            problems.append(f"prefill op {k}: {exc}")
    return engine, ops, apply, problems


def replay_round(w, text: str, tracer, final_check: bool) -> Round:
    _mark(tracer, "setup")
    t0 = perf_counter()
    engine, ops, apply, problems = _replay_setup(w, text, tracer)
    setup = perf_counter() - t0
    state = engine.state
    failed = len(problems)

    _mark(tracer, "steady")
    lat = array("q")
    live = array("q")
    audits = 0
    t1 = perf_counter()
    for j, k in enumerate(range(w.live, len(ops)), start=1):
        s = perf_counter_ns()
        try:
            apply(k)
        except (core.EngineError, core.InvariantError) as exc:
            failed += 1
            problems.append(f"op {k}: {exc}")
        lat.append(perf_counter_ns() - s)
        live.append(len(state.intervals))
        if j % w.audit_every == 0:
            audits += 1
            if not core.is_conflict_free_fast(state.intervals.values(), state.assignment).ok:
                failed += 1
                problems.append(f"audit after op {k} found a conflict")
    steady = perf_counter() - t1

    _mark(tracer, "check")
    ledger = state.ledger
    counts = {
        "colors": len(state.colors_seen(include_dummy=True)),
        "recolor_total": ledger.total(),
        "recolor_max": ledger.max_per_update(),
        "live_final": len(state.intervals),
    }
    stats = {
        "live_steady_mean": round(sum(live) / max(1, len(live)), 1),
        "live_steady_min": min(live, default=0),
        "live_steady_max": max(live, default=0),
        "audit_every_ops": w.audit_every,
        "audits": audits,
    }
    if hasattr(engine, "root"):
        pools = [len(btree.node_pool(v)) for v in btree.iter_nodes(engine.root)]
        pools = [p for p in pools if p]
        stats["node_pool_mean"] = round(sum(pools) / max(1, len(pools)), 2)
        stats["nodes_with_pool"] = len(pools)
    if final_check:
        checked = len(problems)
        try:
            engine.audit()
        except core.InvariantError as exc:
            problems.append(f"engine audit: {exc}")
        _final_oracles(list(state.intervals.values()), state.assignment, problems)
        problems += replay_caps(w.name, engine)
        failed += len(problems) - checked
    _mark(tracer, "end")
    n = len(ops) - w.live
    return Round([setup], steady, n, len(ops), failed, lat, counts, stats, problems)


def replay_caps(name: str, engine) -> list[str]:
    state = engine.state
    if name == "fixed-audit" and state.ledger.max_per_update() > 2:
        return [f"recolor_max {state.ledger.max_per_update()} > 2"]
    if name == "dyn-long" and len(state.colors_in_use()) > engine.max_colors():
        return [f"{len(state.colors_in_use())} colors in use > {engine.max_colors()}"]
    return []


def kinetic_round(w, text: str, tracer, final_check: bool) -> Round:
    _mark(tracer, "setup")
    setups = []
    # a round runs a whole scenario, so set-up is repeated within it
    for _ in range(w.setup_reps):
        write = _log(tracer)
        t0 = perf_counter()
        km = kinetic.KineticMaintainer(kinetic.parse_scenario(text), 0.0, w.until)
        for iid in sorted(km.colors):
            write(f"A {iid} {core.format_color(km.colors[iid])}\n")
        setups.append(perf_counter() - t0)
        if len(setups) < w.setup_reps:
            del km
            gc.collect()

    def step():
        rec = km.step()
        if rec is not None:
            ev = rec.event
            write(f"E {core.format_number(round(float(ev.time), 6))} {ev.kind} {ev.id1} {ev.id2}\n")
            for iid, color in rec.recolored:
                write(f"R {iid} {core.format_color(color)}\n")
        return rec

    if tracer is not None:
        step = tracer.wrap("op", step)
    _mark(tracer, "steady")
    lat = array("q")
    failed = 0
    problems: list[str] = []
    batches = 0
    last_eval = None
    events = km.events
    t1 = perf_counter()
    while True:
        s = perf_counter_ns()
        try:
            rec = step()
        except core.InvariantError as exc:
            failed += 1
            problems.append(f"event {km.cursor}: {exc}")
            break
        if rec is None:
            break
        lat.append(perf_counter_ns() - s)
        last_eval = rec.t_eval
        if km.cursor >= len(events) or events[km.cursor].time != rec.event.time:
            batches += 1
            try:
                km.check_invariants(rec.t_eval)
            except core.InvariantError as exc:
                failed += 1
                problems.append(f"audit after event {km.cursor}: {exc}")
    steady = perf_counter() - t1

    _mark(tracer, "check")
    counts = {
        "colors": len(km.seen),
        "recolor_total": km.ledger.total(),
        "recolor_max": km.ledger.max_per_update(),
        "events": len(lat),
        "batches": batches,
    }
    stats = {
        "trajectories": len(km.trajs),
        "events": len(lat),
        "event_batches": batches,
        "audit_every_batches": 1,
        "horizon": w.horizon,
        "until": w.until,
    }
    if final_check:
        checked = len(problems)
        t = last_eval if last_eval is not None else km.until
        try:
            km.check_invariants(t)
        except core.InvariantError as exc:
            problems.append(f"final check_invariants: {exc}")
        _final_oracles(km.snapshot(t), km.colors, problems)
        if km.ledger.max_per_update() > 3:
            problems.append(f"recolor_max {km.ledger.max_per_update()} > 3 per event")
        if len(km.seen) > 4:
            problems.append(f"{len(km.seen)} colors > 4")
        failed += len(problems) - checked
    _mark(tracer, "end")
    return Round(setups, steady, len(lat), len(lat) + failed, failed, lat, counts, stats, problems)


def run_round(w, text, tracer=None, final_check=False) -> Round:
    fn = kinetic_round if isinstance(w, workloads.KineticWorkload) else replay_round
    r = fn(w, text, tracer, final_check)
    gc.collect()
    return r


def _same_counts(rounds) -> list[str]:
    """Rounds on one input must repeat every count exactly."""
    first = rounds[0].counts
    return [
        f"traced round {i} counts {r.counts} differ from {first}"
        for i, r in enumerate(rounds[1:], start=2)
        if r.counts != first
    ]


def end_to_end(w, name: str, seed: int, seconds: float) -> tuple[dict, list[Round], dict, dict]:
    """Rounds on fresh inputs while the next one still fits in `seconds`."""
    rounds: list[Round] = []
    start = perf_counter()
    while not rounds or (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        text = workloads.generate(name, seed, len(rounds))
        rounds.append(run_round(w, text, final_check=not rounds))
    lat = np.concatenate([np.frombuffer(r.lat_ns, dtype=np.int64) for r in rounds]) / 1e3
    setups = [s for r in rounds for s in r.setup_s]
    counts = rounds[0].counts
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(r.ops for r in rounds) / sum(r.steady_s for r in rounds), "op/s"),
        "op_us_p50": (float(np.percentile(lat, 50)), "us"),
        "op_us_p99": (float(np.percentile(lat, 99)), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "colors": (counts["colors"], "count"),
        "recolor_max": (counts["recolor_max"], "count"),
        "recolor_total": (counts["recolor_total"], "count"),
    }
    samples = {"rounds": len(rounds), "setups": len(setups), "op_latencies": lat.size}
    detail = {
        "setup_s": setups,
        "rounds_ops_per_s": [r.ops / r.steady_s for r in rounds],
    }
    return metrics, rounds, samples, detail


def traced(w, name: str, seed: int) -> tuple[dict, list[Round], dict, dict]:
    """One untraced round, then the same input twice with tracing on."""
    text = workloads.generate(name, seed, 0)
    base = run_round(w, text)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        runs = [run_round(w, text, tracer, final_check=i == 0) for i in range(2)]
    finally:
        tracer.uninstall()
    metrics, shares = tracing.layer_metrics(tracer, runs)
    overhead = statistics.mean(r.steady_s for r in runs) / base.steady_s - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    # counts of both traced rounds, taken where the work happens, must agree
    for r, steady in zip(runs, tracing.steady_counts(tracer)):
        r.counts = {**r.counts, **steady}
    # the second traced round repeats the first; only the first is written
    first_end = next(span for label, span, _ in tracer.marks if label == "end")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"{name}.spans.tsv.gz"
    n_spans = tracer.write(span_file, upto=first_end)
    samples = {"span_records": n_spans, "span_file": str(span_file.relative_to(REPO))}
    return metrics, [base, *runs], samples, {"steady_self_share_by_span": shares}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = workloads.WORKLOADS[name]
    if trace:
        metrics, rounds, samples, detail = traced(w, name, seed)
    else:
        metrics, rounds, samples, detail = end_to_end(w, name, seed, seconds)
    run_problems = _same_counts(rounds[1:]) if trace else []
    spec = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    if [(m["name"], m["unit"]) for m in spec] != [(k, u) for k, (_, u) in metrics.items()]:
        run_problems.append("metric names or units differ from BENCHMARK.json")
    problems = [p for r in rounds for p in r.problems] + run_problems
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(run_problems)
    correct = failed == 0
    report = {
        "workload": name,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": int(trace),
        "correct": correct,
        "problems": problems[:20],
        "failed_ops_frac": failed / max(1, attempted),
        "samples": samples,
        "input": rounds[0].stats,
        "counts": [r.counts for r in rounds],
        "roadmap_baseline": ROADMAP_BASELINE[name],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    for key in ("input", "samples"):
        print(f"  {key}: " + ", ".join(f"{k}={v}" for k, v in report[key].items()))
    for i, counts in enumerate(report["counts"], start=1):
        print(f"  round {i} counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  roadmap baseline: {report['roadmap_baseline']}")
    print(f"  failed_ops_frac = {report['failed_ops_frac']:.6g} ratio")
    for k, m in report["metrics"].items():
        print(f"  {k:36s} {m['value']:>16.6g} {m['unit']}")
    for p in report["problems"]:
        print(f"  PROBLEM: {p}")


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(workloads.WORKLOADS)}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    if not (REPO / "src" / "cfcolor" / "__init__.py").is_file():
        print(f"error: no cfcolor sources under {REPO / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    import tracing
    import workloads
    from cfcolor import btree, core, kinetic, methods

    sys.exit(main())

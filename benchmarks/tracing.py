"""Spans and counters for the traced run, recorded from outside the program.

Tracing wraps public functions and methods of the cfcolor modules at run
time: the entry points the benchmark calls (parse, build, oracles), the
engine and maintainer methods, the B-tree and chain helpers that the
engines import by name, and `ColoringState.set_color`.  Nothing under
`src/` changes; `install` patches and `Tracer.uninstall` restores.

Spans live in flat in-memory arrays (parent, name, root, start, end,
duration, calls) and are written out once, when the run ends.  The root of a span is the span
of the request it belongs to, so the spans of one update or event share
that identifier.  A span's self time is its duration minus the time of its
child spans.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

from cfcolor import core, engine_dynamic, engine_fixed, grid, kinetic, methods

LAYERS = {
    "engine_dynamic": ("engine_dynamic.insert", "engine_dynamic.delete"),
    "engine_fixed": ("engine_fixed.insert", "engine_fixed.delete"),
    "grid": ("grid.insert", "grid.delete"),
    "btree": ("btree.node_pool", "btree.node_extremes", "btree.locate"),
    "chain": ("chain.connected_components", "chain.build_chain", "chain.color_chain"),
    "log": ("log",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span record; a merged record sums `calls` calls
        self.parent = array("q")
        self.name = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self.dur = array("q")
        self.calls = array("q")
        self._merged: dict[tuple[int, int], int] = {}
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # (label, first span index, counts at that moment)
        self.marks: list[tuple[str, int, Counter]] = []
        self._restore: list[tuple[object, str, object]] = []

    def mark(self, label: str) -> None:
        self.marks.append((label, len(self.start), Counter(self.counts)))

    def _new(self, parent: int, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(parent)
        self.name.append(nid)
        self.root.append(self.root[parent] if parent >= 0 else sid)
        for a in (self.start, self.end, self.dur, self.calls):
            a.append(0)
        return sid

    def wrap(self, name: str, fn, count=None, merge=False):
        """fn wrapped in a span; count(counts, args, result) tallies at the same boundary.

        With merge, the calls of fn under one parent span share one span
        record (first start, last end, summed duration, call count), which
        keeps hot leaf functions from flooding memory.
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, merged, new = self._stack, self._merged, self._new
        start_a, end_a, dur_a, calls_a, counts = (
            self.start, self.end, self.dur, self.calls, self.counts)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if merge:
                sid = merged.get((parent, nid))
                if sid is None:
                    sid = merged[(parent, nid)] = new(parent, nid)
            else:
                sid = new(parent, nid)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if not calls_a[sid]:
                    start_a[sid] = t0
                end_a[sid] = t1
                dur_a[sid] += t1 - t0
                calls_a[sid] += 1
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, count=None, merge=False) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, merge))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reading

    def arrays(self) -> dict[str, np.ndarray]:
        out = {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("parent", "name", "root", "start", "end", "dur", "calls")
        }
        child = np.zeros(out["dur"].size, dtype=np.int64)
        has_parent = out["parent"] >= 0
        np.add.at(child, out["parent"][has_parent], out["dur"][has_parent])
        out["self"] = out["dur"] - child
        return out

    def write(self, path, upto: int) -> int:
        """Span file of the first `upto` records, gzipped tab-separated text."""
        a = self.arrays()
        cols = ("parent", "root", "calls", "start", "end", "dur", "self")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\troot\tcalls\tstart_ns\tend_ns\tdur_ns\tself_ns\n")
            rows = zip(range(upto), (self.names[k] for k in a["name"][:upto]),
                       *(a[c][:upto].tolist() for c in cols))
            fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)
        return upto


# ------------------------------------------------------------- counters


def _calls(key):
    def count(c, args, out):
        c[key] += 1

    return count


def _sized(key, arg=None):
    """Calls plus the size of argument `arg` (or of the result when None)."""

    def count(c, args, out):
        c[key + ".calls"] += 1
        c[key + ".items"] += len(out if arg is None else args[arg])

    return count


def _set_color(c, args, out):
    c["core.set_color.calls"] += 1
    c["core.set_color.effective"] += bool(out)


def _step(c, args, rec):
    if rec is None:
        return
    c["kinetic.events"] += 1
    c["kinetic.recolors"] += len(rec.recolored)
    c["kinetic.useful"] += bool(rec.added is not None or rec.removed or rec.recolored)


def log_writer(tracer: Tracer, write):
    def count(c, args, out):
        c["log.records"] += 1
        c["log.bytes"] += len(args[0])

    return tracer.wrap("log", write, count, merge=True)


def install(tracer: Tracer) -> None:
    """Patch every traced boundary; tracer.uninstall() puts them back."""
    for mod, name in ((core, "parse_trace"), (kinetic, "parse_scenario"),
                      (methods, "build_engine"), (kinetic, "compute_events")):
        tracer.patch(mod, name, f"{mod.__name__.split('.')[-1]}.{name}")
    tracer.patch(core, "is_conflict_free_fast", "core.oracle_fast", _calls("core.oracle_fast.calls"))
    tracer.patch(core, "is_conflict_free", "core.oracle_sweep")
    tracer.patch(core.ColoringState, "set_color", "core.set_color", _set_color, merge=True)

    for cls, layer in ((engine_dynamic.DynamicEngine, "engine_dynamic"),
                       (engine_fixed.FixedDistinctEngine, "engine_fixed"),
                       (engine_fixed.FixedChainEngine, "engine_fixed"),
                       (grid.GridEngine, "grid")):
        for op in ("insert", "delete"):
            tracer.patch(cls, op, f"{layer}.{op}", _calls(f"{layer}.{op}.calls"))

    # helpers the engines import by name, patched in each importing namespace
    helpers = {
        "node_pool": ("btree.node_pool", _sized("btree.node_pool")),
        "node_extremes": ("btree.node_extremes", _sized("btree.node_extremes")),
        "locate": ("btree.locate", _calls("btree.locate.calls")),
        "connected_components": ("chain.connected_components", _sized("chain", 0)),
        "build_chain": ("chain.build_chain", _sized("chain", 0)),
        "color_chain": ("chain.color_chain", _sized("chain", 1)),
    }
    for mod in (engine_dynamic, engine_fixed, kinetic):
        for attr, (name, count) in helpers.items():
            if hasattr(mod, attr):
                tracer.patch(mod, attr, name, count, merge=True)

    km = kinetic.KineticMaintainer
    tracer.patch(km, "__init__", "kinetic.KineticMaintainer")
    tracer.patch(km, "step", "kinetic.step", _step)
    tracer.patch(km, "check_invariants", "kinetic.check_invariants",
                 _calls("kinetic.batches"))


# -------------------------------------------------------------- metrics


def _phases(tracer: Tracer):
    """Per round: {phase: (first span, end span, counts at start, counts at end)}."""
    rounds = []
    marks = tracer.marks
    for (label, lo, c_lo), (_, hi, c_hi) in zip(marks, marks[1:]):
        if label == "setup":
            rounds.append({})
        if label != "end":
            rounds[-1][label] = (lo, hi, c_lo, c_hi)
    return rounds


def steady_counts(tracer: Tracer) -> list[dict]:
    """Steady-phase counter deltas of each traced round."""
    out = []
    for phases in _phases(tracer):
        _, _, c_lo, c_hi = phases["steady"]
        delta = Counter(c_hi)
        delta.subtract(c_lo)
        out.append({k: v for k, v in sorted(delta.items()) if v})
    return out


def layer_metrics(tracer: Tracer, rounds) -> tuple[dict, dict]:
    """Per-layer metrics, and the self-time share of every span name, over
    the steady phases of the traced rounds.

    Per-op counts divide by the steady ops of all traced rounds; shares
    divide self time by the steady wall time; a layer the workload never
    enters reads 0.
    """
    a = tracer.arrays()
    phases = _phases(tracer)
    n = a["dur"].size

    def mask(phase):
        m = np.zeros(n, dtype=bool)
        for p in phases:
            lo, hi = p[phase][:2]
            m[lo:hi] = True
        return m

    steady, setup = mask("steady"), mask("setup")
    check0 = np.zeros(n, dtype=bool)
    check0[slice(*phases[0]["check"][:2])] = True

    def named(names, m):
        ids = [tracer.names.index(x) for x in names if x in tracer.names]
        return m & np.isin(a["name"], ids)

    def dur(name, m=steady):
        return a["dur"][named([name], m)]

    def pct(name, q, scale, m=steady):
        d = dur(name, m)
        return float(np.percentile(d, q)) / scale if d.size else 0.0

    def med_s(name, m):
        d = dur(name, m)
        return float(np.median(d)) / 1e9 if d.size else 0.0

    ops = sum(r.ops for r in rounds)
    wall_ns = sum(r.steady_s for r in rounds) * 1e9
    first = steady_counts(tracer)[0]
    c = Counter()
    for sc in steady_counts(tracer):
        c.update(sc)

    def per_op(key):
        return c[key] / ops if ops else 0.0

    def share(names, field="self"):
        return float(a[field][named(names, steady)].sum()) / wall_ns

    def ratio(num, den):
        return num / den if den else 0.0

    ed, ef, gr = LAYERS["engine_dynamic"], LAYERS["engine_fixed"], LAYERS["grid"]
    shares = {name: share([name]) for name in tracer.names}
    shares = dict(sorted(((k, round(v, 4)) for k, v in shares.items() if v), key=lambda kv: -kv[1]))
    m = {
        "core.parse_trace.s": (med_s("core.parse_trace", setup), "s"),
        "core.oracle_fast.calls": (first.get("core.oracle_fast.calls", 0), "count"),
        "core.oracle_fast.ms_p50": (pct("core.oracle_fast", 50, 1e6), "ms"),
        "core.oracle_fast.ms_p90": (pct("core.oracle_fast", 90, 1e6), "ms"),
        "core.oracle_fast.share": (share(["core.oracle_fast"], "dur"), "ratio"),
        "core.oracle_sweep.s": (med_s("core.oracle_sweep", check0), "s"),
        "core.set_color.calls_per_op": (per_op("core.set_color.calls"), "count/op"),
        "core.set_color.effective_ratio": (
            ratio(c["core.set_color.effective"], c["core.set_color.calls"]), "ratio"),
        "log.records_per_op": (per_op("log.records"), "count/op"),
        "log.bytes_per_op": (per_op("log.bytes"), "B/op"),
        "log.share": (share(LAYERS["log"]), "ratio"),
        "methods.build_engine.s": (med_s("methods.build_engine", setup), "s"),
    }
    for span in ed:
        m[f"{span}.us_p50"] = (pct(span, 50, 1e3), "us")
        m[f"{span}.us_p99"] = (pct(span, 99, 1e3), "us")
    m["engine_dynamic.self_share"] = (share(ed), "ratio")
    m.update({
        "btree.node_pool.calls_per_op": (per_op("btree.node_pool.calls"), "count/op"),
        "btree.node_pool.intervals_per_op": (per_op("btree.node_pool.items"), "count/op"),
        "btree.locate.calls_per_op": (per_op("btree.locate.calls"), "count/op"),
        "btree.extremes_per_pool": (
            ratio(c["btree.node_extremes.items"], c["btree.node_pool.items"]), "ratio"),
        "btree.share": (share(LAYERS["btree"]), "ratio"),
        "chain.calls_per_op": (per_op("chain.calls"), "count/op"),
        "chain.intervals_per_op": (per_op("chain.items"), "count/op"),
        "chain.share": (share(LAYERS["chain"]), "ratio"),
    })
    for span in ef:
        m[f"{span}.us_p50"] = (pct(span, 50, 1e3), "us")
        m[f"{span}.us_p99"] = (pct(span, 99, 1e3), "us")
    m.update({
        "grid.insert.us_p50": (pct(gr[0], 50, 1e3), "us"),
        "grid.delete.us_p50": (pct(gr[1], 50, 1e3), "us"),
        "grid.inner_calls_per_op": (ratio(
            c["engine_dynamic.insert.calls"] + c["engine_dynamic.delete.calls"],
            c["grid.insert.calls"] + c["grid.delete.calls"]), "count/op"),
        "grid.self_share": (share(gr), "ratio"),
        "kinetic.compute_events.s": (med_s("kinetic.compute_events", setup), "s"),
        "kinetic.events": (first.get("kinetic.events", 0), "count"),
        "kinetic.step.us_p50": (pct("kinetic.step", 50, 1e3), "us"),
        "kinetic.step.us_p99": (pct("kinetic.step", 99, 1e3), "us"),
        "kinetic.check_invariants.ms_p50": (pct("kinetic.check_invariants", 50, 1e6), "ms"),
        "kinetic.check_invariants.share": (share(["kinetic.check_invariants"], "dur"), "ratio"),
        "kinetic.batches": (first.get("kinetic.batches", 0), "count"),
        "kinetic.useful_event_ratio": (
            ratio(c["kinetic.useful"], c["kinetic.events"]), "ratio"),
        "kinetic.recolors_per_event": (
            ratio(c["kinetic.recolors"], c["kinetic.events"]), "count/op"),
    })
    return m, shares

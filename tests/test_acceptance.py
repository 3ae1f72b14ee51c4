"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get one PASS/FAIL line per guarantee.  Fitted constants are
locked against tests/golden/baselines.json: if that file is missing the
current measurements are frozen into it, otherwise they must match to 1e-12.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from cfcolor.adversary import (
    check_tradeoff,
    run_general_adversary,
    run_local_adversary,
    signature_of,
)
from cfcolor.baseline import ComponentFirstFitEngine, TrivialEngine
from cfcolor.chain import static_color
from cfcolor.cli import main as cli_main
from cfcolor.core import (
    DUMMY,
    Color,
    Delete,
    Insert,
    Interval,
    is_conflict_free,
    is_conflict_free_fast,
    replay,
)
from cfcolor.engine_dynamic import DynamicEngine, EpsilonEngine
from cfcolor.engine_fixed import FixedChainEngine, FixedDistinctEngine
from cfcolor.grid import GridEngine
from cfcolor.kinetic import (
    KineticMaintainer,
    lowerbound_scenario,
    random_scenario,
    verify_gadget_lemma,
)
from cfcolor.online import OnlineNestedEngine, nested_lowerbound_instance

GOLDEN = Path(__file__).parent / "golden" / "baselines.json"
LOCK_TOL = 1e-12


def lock(key: str, values: dict[str, float]) -> None:
    """Assert values match the golden file; freeze them on first use."""
    GOLDEN.parent.mkdir(exist_ok=True)
    book = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if key not in book:
        book[key] = values
        GOLDEN.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
        return
    frozen = book[key]
    assert set(frozen) == set(values), f"{key}: metric names drifted"
    for name, val in values.items():
        assert abs(val - frozen[name]) <= LOCK_TOL, (
            f"{key}.{name}: measured {val!r}, locked {frozen[name]!r}"
        )


def random_ops(rng, count, p_delete=0.3, span=400.0, min_len=0.5, max_len=8.0):
    """Insert/delete stream over real coordinates; yields core ops."""
    live = []
    nid = 0
    for _ in range(count):
        if live and rng.random() < p_delete:
            yield Delete(live.pop(rng.randrange(len(live))))
        else:
            a = rng.uniform(0.0, span)
            iv = Interval(nid, a, a + rng.uniform(min_len, max_len))
            live.append(nid)
            nid += 1
            yield Insert(iv)


def int_ops(rng, count, universe, p_delete=0.3):
    live = []
    nid = 0
    for _ in range(count):
        if live and rng.random() < p_delete:
            yield Delete(live.pop(rng.randrange(len(live))))
        else:
            a = rng.randrange(0, universe - 1)
            iv = Interval(nid, a, rng.randrange(a + 1, universe))
            live.append(nid)
            nid += 1
            yield Insert(iv)


# --------------------------------------------------------------------------


def test_01_oracle_agrees_with_dense_point_sampling():
    """Sweep oracle vs an independent brute-force point-sampling checker.

    Endpoints live on a half-integer lattice, so a quarter-step grid
    provably hits every elementary region; the grid verdict is exact.
    """
    rng = random.Random(20260823)
    palette = [DUMMY, Color(0, 0), Color(0, 1), Color(0, 2), Color(1, 0)]
    started = time.perf_counter()
    verdicts = {True: 0, False: 0}
    for _ in range(10_000):
        n = rng.randint(1, 12)
        ivs = []
        for i in range(n):
            left = rng.randrange(0, 40) / 2
            ivs.append(Interval(i, left, left + rng.randrange(1, 8) / 2))
        coloring = {iv.id: rng.choice(palette) for iv in ivs}

        lefts = np.array([iv.left for iv in ivs])
        rights = np.array([iv.right for iv in ivs])
        codes = np.array([palette.index(coloring[iv.id]) for iv in ivs])
        grid = np.arange(lefts.min() * 4, rights.max() * 4 + 1) / 4
        cover = (lefts[:, None] <= grid) & (grid <= rights[:, None])
        covered = cover.any(axis=0)
        unique = np.zeros(grid.size, dtype=bool)
        for code in range(1, len(palette)):
            unique |= cover[codes == code].sum(axis=0) == 1
        naive_ok = bool(np.all(~covered | unique))

        assert is_conflict_free(ivs, coloring).ok == naive_ok
        assert is_conflict_free_fast(ivs, coloring).ok == naive_ok
        verdicts[naive_ok] += 1
    elapsed = time.perf_counter() - started
    assert verdicts[True] > 0 and verdicts[False] > 0
    assert elapsed < 30.0, f"oracle agreement sweep took {elapsed:.1f}s"
    print(f"10,000 instances agreed ({verdicts[True]} cf / {verdicts[False]} not) "
          f"in {elapsed:.1f}s")


def test_02_static_chain_uses_at_most_three_colors():
    rng = random.Random(7)
    for trial in range(1_000):
        n = rng.randint(1, 200)
        ivs = []
        for i in range(n):
            a = rng.uniform(0.0, 50.0)
            ivs.append(Interval(i, a, a + rng.uniform(0.1, 12.0)))
        state = static_color(ivs)
        assert len(state.colors_seen(include_dummy=True)) <= 3, f"trial {trial}"
        verdict = is_conflict_free_fast(state.intervals.values(), state.assignment)
        assert verdict.ok, f"trial {trial}: conflict at {verdict.witness}"


def test_03_distinct_engine_two_recolorings_per_update():
    rng = random.Random(31)
    engine = FixedDistinctEngine(2**10, 2)
    started = time.perf_counter()
    for k, op in enumerate(int_ops(rng, 100_000, 2**10), start=1):
        verdict = replay(engine, [op], "every" if k % 100 == 0 else "none")
        assert verdict.ok, f"op {k}: conflict at {verdict.witness}"
    elapsed = time.perf_counter() - started
    assert engine.state.ledger.max_per_update() <= 2
    bound = 1 + 6 * (engine.height + 1)
    used = len(engine.state.colors_seen(include_dummy=True))
    assert used <= bound
    assert elapsed < 60.0, f"100,000 updates took {elapsed:.1f}s"
    print(f"max recolor {engine.state.ledger.max_per_update()}, "
          f"{used}/{bound} colors, {elapsed:.1f}s")


@pytest.mark.parametrize("t", [2, 8, 32])
def test_04_chain_engine_recolorings_within_4t(t):
    rng = random.Random(40 + t)
    engine = FixedChainEngine(2**12, t)
    for k, op in enumerate(int_ops(rng, 20_000, 2**12), start=1):
        verdict = replay(engine, [op], "every" if k % 100 == 0 else "none")
        assert verdict.ok, f"t={t} op {k}: conflict at {verdict.witness}"
    assert engine.state.ledger.max_per_update() <= 4 * t
    bound = 1 + 2 * (engine.height + 1)
    assert len(engine.state.colors_seen(include_dummy=True)) <= bound


def test_05_dynamic_engine_log_recoloring_locked():
    c_fit = 0.0
    max_recolors = []
    for seed in (50, 51, 52):
        rng = random.Random(seed)
        engine = DynamicEngine(2)
        ledger = engine.state.ledger
        for op in random_ops(rng, 2_000):
            verdict = replay(engine, [op], "every")
            assert verdict.ok, f"seed {seed}: conflict at {verdict.witness}"
            st = engine.state
            assert len(st.colors_in_use(include_dummy=True)) <= engine.max_colors()
            r_u = ledger.records[-1].count()
            if r_u:
                c_fit = max(c_fit, r_u / math.log2(max(st.n, 2)))
        max_recolors.append(ledger.max_per_update())
    lock("dynamic_t2", {
        "c_fit": c_fit,
        "max_recolor_seed50": float(max_recolors[0]),
        "max_recolor_seed51": float(max_recolors[1]),
        "max_recolor_seed52": float(max_recolors[2]),
    })
    print(f"fitted C = {c_fit:.4f}, per-trace max recolor {max_recolors}")


def test_06_epsilon_engine_amortized_locked():
    eps = 0.5
    rng = random.Random(60)
    engine = EpsilonEngine(eps)
    peak = 0
    for k, op in enumerate(random_ops(rng, 10_000), start=1):
        verdict = replay(engine, [op], "every" if k % 500 == 0 else "none")
        assert verdict.ok, f"op {k}: conflict at {verdict.witness}"
        peak = max(peak, engine.state.n)
    amortized = engine.state.ledger.total() / 10_000
    c_fit = amortized * eps / peak**eps
    colors = len(engine.state.colors_seen(include_dummy=True))
    assert colors <= 1 + 2 * (2 / eps + 4)
    lock("epsilon_05", {
        "amortized": amortized,
        "c_fit": c_fit,
        "colors_seen": float(colors),
    })
    print(f"amortized {amortized:.4f}, fitted C = {c_fit:.6f}, {colors} colors")


def test_07_grid_engine_color_cap_33():
    rng = random.Random(70)
    engine = GridEngine(8, TrivialEngine)
    for k, op in enumerate(
        random_ops(rng, 10_000, min_len=1.0, max_len=8.0 - 1e-9), start=1
    ):
        verdict = replay(engine, [op], "every" if k <= 2_000 or k % 10 == 0 else "none")
        assert verdict.ok, f"op {k}: conflict at {verdict.witness}"
    assert len(engine.state.colors_seen(include_dummy=True)) <= 33


def test_08_nested_greedy_exact_color_counts():
    started = time.perf_counter()
    engine = OnlineNestedEngine()
    for iv in nested_lowerbound_instance(2**16):
        engine.insert(iv)
        n = iv.id
        if n & (n - 1) == 0 and n >= 2:
            k = n.bit_length() - 1
            used = len(engine.state.colors_seen(include_dummy=True))
            assert used == k + 1, f"n=2^{k}: {used} colors"
    assert engine.state.ledger.total() == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"nested run took {elapsed:.1f}s"


@pytest.mark.parametrize("n", [2**8, 2**10, 2**12])
def test_09_general_adversary_tradeoff_consistent(n):
    report = run_general_adversary(lambda: DynamicEngine(2), n)
    assert report.cf_ok, f"conflict at {report.cf_witness}"
    assert len(set(report.designated)) == len(report.designated)
    assert check_tradeoff(n, report.colors_used, report.max_recolor) is True


def test_10_signature_and_local_round_sizes():
    red, blue, green = Color(0, 0), Color(0, 1), Color(0, 2)
    live = [
        Interval(1, 0.0, 5.0),
        Interval(2, 1.0, 3.0),
        Interval(4, 6.0, 9.0),
        Interval(5, 6.5, 10.0),
    ]
    sig = signature_of(live, {1: red, 2: blue, 4: blue, 5: green}, Interval(3, 2.0, 7.0))
    assert sig.labels == (2, 1, 3, 4, 5)
    assert sig.colors == (red, blue, None, blue, green)

    engines = []

    def factory():
        engines.append(ComponentFirstFitEngine())
        return engines[-1]

    report = run_local_adversary(factory, 256, budget_r=0)
    assert report.cf_ok
    coloring = engines[-1].state.assignment
    per_round = []
    for members in report.rounds:
        colors = {coloring[m.id] for m in members}
        assert len(colors) == 1
        per_round.append(colors.pop())
    assert len(set(per_round)) == len(per_round)

    report = run_local_adversary(ComponentFirstFitEngine, 256)
    r = report.budget_r
    for i, members in enumerate(report.rounds, start=1):
        assert len(members) >= 256 / (r + 2) ** i - 2


def test_11_kinetic_random_scenarios_audited():
    """500 scenarios audited after every event batch.

    Sizes are stratified: the bulk small, tails up to n=100.
    """
    sizes = [5 + k % 26 for k in range(410)]
    sizes += [31 + k % 30 for k in range(70)]
    sizes += [61 + (k * 2) % 39 for k in range(19)] + [100]
    assert len(sizes) == 500
    started = time.perf_counter()
    total_events = 0
    for k, n in enumerate(sizes):
        attempt = 0
        while True:
            rng = random.Random(1_100_000 + k * 100 + attempt)
            km = KineticMaintainer(random_scenario(rng, n), 0.0, 10.0)
            if len(km.events) >= 10:
                break
            attempt += 1
        records = km.run(audit="every")
        assert len(records) >= 10
        total_events += len(records)
        assert all(len(rec.recolored) <= 3 for rec in records), f"scenario {k}"
        assert len(km.seen) <= 4, f"scenario {k}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"500 scenarios took {elapsed:.1f}s"
    print(f"{total_events} events audited in {elapsed:.1f}s")


def test_12_gadget_needs_five_colors():
    started = time.perf_counter()
    assert verify_gadget_lemma(4) is False
    assert verify_gadget_lemma(5) is True
    assert time.perf_counter() - started < 5.0


def test_13_kinetic_crossing_scenario_forces_400_recolorings():
    trajs, horizon = lowerbound_scenario(20)
    km = KineticMaintainer(trajs, 0.0, horizon)
    km.run(audit="every", stride=100)
    assert km.ledger.total() >= 400
    print(f"{km.ledger.total()} recolorings over {km.cursor} events")


def test_14_cli_byte_determinism(tmp_path, capsys):
    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    trace = tmp_path / "d.trace"
    scenario = tmp_path / "d.scn"
    run(["gen", "random", "--n", "120", "--seed", "14", "--out", str(trace)])
    run(["gen", "kinetic-lb", "--n", "2", "--out", str(scenario)])
    horizon = scenario.read_text().splitlines()[0].split()[-1]
    log = tmp_path / "d.log"
    run(["run", "--method", "dynamic:t=2", "--trace", str(trace),
         "--out", str(log)])

    commands = [
        ["gen", "random", "--n", "200", "--seed", "9"],
        ["gen", "nested-lb", "--n", "64"],
        ["gen", "bounded-length", "--n", "100", "--L", "6", "--seed", "3"],
        ["gen", "kinetic-lb", "--n", "3"],
        ["run", "--method", "eps:eps=0.5", "--trace", str(trace)],
        ["bench", "--method", "dynamic:t=2", "--method", "grid:L=8",
         "--n", "64,128", "--seed", "2"],
        ["verify", "--log", str(log), "--trace", str(trace)],
        ["adversary", "--kind", "general", "--n", "128",
         "--engine", "dynamic:t=2"],
        ["kinetic", "--scenario", str(scenario), "--until", horizon,
         "--audit", "final"],
    ]
    for argv in commands:
        assert run(argv) == run(argv), f"nondeterministic output: {argv}"

"""Command-line interface: logs, replay verification, exit codes."""

from __future__ import annotations

import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cfcolor.cli import main
from cfcolor.core import parse_number, parse_trace


def cli(capsys, *argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_TRACE = "I 0 1 5\nI 1 2 6\nI 2 3 7\nD 1\nI 3 4 8\n"


def int_trace(n, universe):
    """Deterministic trace with integer endpoints inside [0, universe)."""
    lines = []
    live = []
    for i in range(n):
        if live and i % 4 == 3:
            lines.append(f"D {live.pop(i % len(live))}")
        else:
            a = (17 * i) % (universe - 40)
            b = a + 1 + (13 * i) % 39
            lines.append(f"I {i} {a} {b}")
            live.append(i)
    return "\n".join(lines) + "\n"


class TestRun:
    def test_empty_trace_summary(self, capsys, tmp_path):
        trace = write(tmp_path, "empty.trace", "")
        code, out, _ = cli(capsys, "run", "--method", "trivial", "--trace", trace)
        assert code == 0
        assert out == "SUMMARY colors=0 n=0 recolor_total=0 recolor_max=0\n"

    def test_log_structure(self, capsys, tmp_path):
        trace = write(tmp_path, "a.trace", SMALL_TRACE)
        code, out, _ = cli(
            capsys, "run", "--method", "dynamic:t=2", "--trace", trace,
            "--audit", "every",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("SUMMARY colors=")
        # every insert is followed (not necessarily immediately) by its A line
        inserted = [int(l.split()[1]) for l in lines if l.startswith("I ")]
        assigned = [int(l.split()[1]) for l in lines if l.startswith("A ")]
        assert sorted(inserted) == sorted(assigned)
        tokens = dict(
            kv.split("=") for kv in lines[-1].split()[1:]
        )
        assert tokens["n"] == "3"

    def test_flag_form_matches_compact_spec(self, capsys, tmp_path):
        trace = write(tmp_path, "a.trace", SMALL_TRACE)
        _, out1, _ = cli(
            capsys, "run", "--method", "fixed-chain:U=64,t=2", "--trace", trace
        )
        _, out2, _ = cli(
            capsys, "run", "--method", "fixed-chain", "--universe", "64",
            "--t", "2", "--trace", trace,
        )
        assert out1 == out2

    def test_flags_override_spec_params(self, capsys, tmp_path):
        trace = write(tmp_path, "a.trace", SMALL_TRACE)
        _, out1, _ = cli(
            capsys, "run", "--method", "fixed-chain:U=64,t=8", "--trace", trace
        )
        _, out2, _ = cli(
            capsys, "run", "--method", "fixed-chain:U=64,t=2", "--t", "8",
            "--trace", trace,
        )
        assert out1 == out2

    @pytest.mark.parametrize(
        "spec,flags",
        [("fixed-chain:U=64,t=2", ("--method", "fixed-chain:t=2", "--universe", "64")),
         ("grid:L=8,inner=dynamic", ("--method", "grid:inner=dynamic", "--L", "8"))],
    )
    def test_flags_fill_in_required_spec_params(self, capsys, tmp_path, spec, flags):
        trace = write(tmp_path, "a.trace", SMALL_TRACE)
        _, out1, _ = cli(capsys, "run", "--method", spec, "--trace", trace)
        assert cli(capsys, "run", *flags, "--trace", trace) == (0, out1, "")

    @pytest.mark.parametrize(
        "method", ["trivial", "unique", "dynamic:t=2", "eps:eps=0.5"]
    )
    def test_audited_run_over_random_trace(self, capsys, tmp_path, method):
        trace = str(tmp_path / "r.trace")
        cli(capsys, "gen", "random", "--n", "60", "--seed", "11", "--out", trace)
        code, out, err = cli(
            capsys, "run", "--method", method, "--trace", trace, "--audit", "every"
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith("SUMMARY ")

    @pytest.mark.parametrize(
        "method", ["fixed-distinct:U=256", "fixed-chain:U=256,t=2"]
    )
    def test_audited_run_over_integer_trace(self, capsys, tmp_path, method):
        trace = write(tmp_path, "i.trace", int_trace(60, 256))
        code, out, err = cli(
            capsys, "run", "--method", method, "--trace", trace, "--audit", "every"
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith("SUMMARY ")

    def test_audited_run_over_bounded_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "b.trace")
        cli(capsys, "gen", "bounded-length", "--n", "60", "--L", "8",
            "--seed", "11", "--out", trace)
        code, out, err = cli(
            capsys, "run", "--method", "grid:L=8,inner=dynamic", "--trace", trace,
            "--audit", "every",
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith("SUMMARY ")


class TestGen:
    def test_same_seed_same_bytes(self, capsys):
        _, out1, _ = cli(capsys, "gen", "random", "--n", "80", "--seed", "5")
        _, out2, _ = cli(capsys, "gen", "random", "--n", "80", "--seed", "5")
        _, out3, _ = cli(capsys, "gen", "random", "--n", "80", "--seed", "6")
        assert out1 == out2
        assert out1 != out3

    def test_nested_lb_lines(self, capsys):
        _, out, _ = cli(capsys, "gen", "nested-lb", "--n", "3")
        assert out == "I 1 -1 1\nI 2 -2 2\nI 3 -3 3\n"

    def test_bounded_length_respects_bound(self, capsys):
        _, out, _ = cli(
            capsys, "gen", "bounded-length", "--n", "120", "--L", "4", "--seed", "2"
        )
        ops = parse_trace(out.splitlines())
        lengths = [
            op.interval.right - op.interval.left
            for op in ops
            if hasattr(op, "interval")
        ]
        assert lengths
        assert all(1.0 <= ln < 4.0 for ln in lengths)

    def test_bounded_length_needs_bound(self, capsys):
        code, _, err = cli(capsys, "gen", "bounded-length", "--n", "10")
        assert code == 2
        assert "--L" in err

    def test_kinetic_lb_shape(self, capsys):
        _, out, _ = cli(capsys, "gen", "kinetic-lb", "--n", "2")
        lines = out.splitlines()
        assert lines[0].startswith("# horizon ")
        assert sum(1 for l in lines if l.startswith("K ")) == 16


class TestVerify:
    def make_log(self, capsys, tmp_path, method="dynamic:t=2", n=80, seed=13,
                 kind="random"):
        trace = str(tmp_path / "v.trace")
        log = str(tmp_path / "v.log")
        if kind == "integer":
            write(tmp_path, "v.trace", int_trace(n, 1024))
        else:
            argv = ["gen", kind, "--n", str(n), "--seed", str(seed), "--out", trace]
            if kind == "bounded-length":
                argv += ["--L", "8"]
            cli(capsys, *argv)
        cli(capsys, "run", "--method", method, "--trace", trace, "--out", log)
        return trace, log

    @pytest.mark.parametrize(
        "method,kind",
        [("trivial", "random"), ("dynamic:t=2", "random"),
         ("fixed-chain:U=1024,t=2", "integer"), ("grid:L=8", "bounded-length")],
    )
    def test_round_trip(self, capsys, tmp_path, method, kind):
        trace, log = self.make_log(capsys, tmp_path, method=method, kind=kind)
        assert cli(capsys, "verify", "--log", log)[0] == 0
        assert cli(capsys, "verify", "--log", log, "--trace", trace)[0] == 0

    # finite floats of 1 to 17 significant digits, far below and above 1
    sig_floats = st.builds(
        lambda sign, digits, exp: float(f"{sign}{digits}e{exp}"),
        st.sampled_from(["", "-"]), st.integers(1, 10**17 - 1), st.integers(-30, 5),
    )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ends=st.lists(st.tuples(sig_floats, sig_floats), min_size=1, max_size=6))
    def test_log_of_any_float_trace_replays(self, capsys, tmp_path, ends):
        ends = [tuple(sorted(pair)) for pair in ends]
        assume(all(a < b for a, b in ends))
        lines = [f"I {i} {a!r} {b!r}" for i, (a, b) in enumerate(ends)] + ["D 0"]
        trace = write(tmp_path, "f.trace", "\n".join(lines) + "\n")
        log = str(tmp_path / "f.log")
        assert cli(capsys, "run", "--method", "dynamic:t=2", "--trace", trace,
                   "--audit", "every", "--out", log)[0] == 0
        assert cli(capsys, "verify", "--log", log, "--trace", trace)[0] == 0

    def test_conflicting_color_is_exit_1(self, capsys, tmp_path):
        log = write(
            tmp_path, "bad.log",
            "I 0 1 5\nA 0 0 0\nI 1 2 6\nA 1 0 0\n"
            "SUMMARY colors=1 n=2 recolor_total=0 recolor_max=0\n",
        )
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 1
        assert "conflict at" in err

    def test_conflict_between_adjacent_floats_names_the_gap(self, capsys, tmp_path):
        # only the gap (1, b) sees two reds and no blue; its midpoint is 1.0
        b = repr(math.nextafter(1.0, 2.0))
        log = write(
            tmp_path, "adjacent.log",
            f"I 2 0.5 1\nA 2 0 1\nI 3 {b} 2.5\nA 3 0 1\n"
            f"I 0 0 {b}\nA 0 0 0\nI 1 1 3\nA 1 0 0\n",
        )
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 1
        assert err.splitlines() == [
            "conflict at 1.0",
            f"conflict in the open gap between 1.0 and {b}",
        ]

    def test_conflict_line_alone_when_the_witness_is_inside_the_gap(self, capsys, tmp_path):
        log = write(
            tmp_path, "wide.log",
            "I 2 0.5 1\nA 2 0 1\nI 3 2 2.5\nA 3 0 1\nI 0 0 2\nA 0 0 0\nI 1 1 3\nA 1 0 0\n",
        )
        assert cli(capsys, "verify", "--log", log)[2].splitlines() == ["conflict at 1.5"]

    def test_missing_assignment_is_exit_2(self, capsys, tmp_path):
        log = write(tmp_path, "gap.log", "I 0 1 5\nI 1 2 6\nA 1 0 0\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert "never assigned" in err
        assert err == "verify: line 2: interval 0 was never assigned a color\n"

    def test_missing_assignment_at_the_end_of_the_log(self, capsys, tmp_path):
        log = write(tmp_path, "tail.log", "I 0 1 5\nA 0 0 0\nD 0\nI 1 2 6\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert err == "verify: line 4: interval 1 was never assigned a color\n"

    def test_summary_mismatch_is_exit_2(self, capsys, tmp_path):
        log = write(
            tmp_path, "sm.log",
            "I 0 1 5\nA 0 0 0\nSUMMARY colors=3 n=1 recolor_total=0 recolor_max=0\n",
        )
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert "colors=3" in err

    def test_trace_cross_check_mismatch(self, capsys, tmp_path):
        trace, log = self.make_log(capsys, tmp_path, n=20)
        other = write(tmp_path, "other.trace", SMALL_TRACE)
        code, _, err = cli(capsys, "verify", "--log", log, "--trace", other)
        assert code == 2
        assert "does not match" in err

    def test_truncated_log_leaves_trace_ops(self, capsys, tmp_path):
        trace, log = self.make_log(capsys, tmp_path, n=20)
        kept = []
        for line in open(log).read().splitlines():
            if line.startswith(("I ", "D ")) and len(kept) >= 6:
                break
            kept.append(line)
        short = write(tmp_path, "short.log", "\n".join(kept) + "\n")
        code, _, err = cli(capsys, "verify", "--log", short, "--trace", trace)
        assert code == 2

    def test_recolor_of_unknown_id(self, capsys, tmp_path):
        log = write(tmp_path, "r.log", "I 0 1 5\nA 0 0 0\nR 7 0 1\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert "unknown id 7" in err

    def test_recolor_that_changes_nothing_is_rejected(self, capsys, tmp_path):
        log = write(tmp_path, "r.log", "I 0 1 5\nA 0 0 1\nR 0 0 1\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert err == "verify: line 3: recolor of 0 keeps its color 0 1\n"

    @pytest.mark.parametrize(
        "summary,bad",
        [("recolor_total=3 recolor_max=2 max_recolor=2", None),
         ("recolor_total=2", "recolor_total=2 but replay measured 3"),
         ("recolor_max=1", "recolor_max=1 but replay measured 2")],
    )
    def test_summary_recolor_counts_per_update(self, capsys, tmp_path, summary, bad):
        log = write(
            tmp_path, "sum.log",
            "I 0 1 5\nA 0 0 0\nI 1 2 6\nA 1 0 1\nR 0 0 2\nR 1 0 0\n"
            f"D 1\nR 0 0 0\nSUMMARY colors=3 n=1 {summary}\n",
        )
        code, _, err = cli(capsys, "verify", "--log", log)
        if bad is None:
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert err == f"verify: line 9: summary {bad}\n"

    def test_kinetic_records_rejected(self, capsys, tmp_path):
        log = write(tmp_path, "e.log", "E 1 RR 0 1\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2

    def test_unknown_tag(self, capsys, tmp_path):
        log = write(tmp_path, "x.log", "Q 0 1 5\n")
        code, _, err = cli(capsys, "verify", "--log", log)
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text,err",
        [("I x 1 5\n", "line 1: invalid literal for int() with base 10: 'x'"),
         ("I 0 5 1\n", "line 1: interval 0: left must be < right, got [5, 1]"),
         ("I 0 1 nan\n", "line 1: interval 0: endpoints must be finite, got [1, nan]"),
         ("D q\n", "line 1: invalid literal for int() with base 10: 'q'"),
         ("I 0 1 5\nA z 0 0\n", "line 2: invalid literal for int() with base 10: 'z'"),
         ("I 0 1 5\nA 0 0 0\nR y 0 1\n",
          "line 3: invalid literal for int() with base 10: 'y'"),
         ("SUMMARY colors=x\n", "line 1: invalid literal for int() with base 10: 'x'")],
    )
    def test_malformed_record_names_its_line(self, capsys, tmp_path, text, err):
        log = write(tmp_path, "m.log", text)
        assert cli(capsys, "verify", "--log", log) == (2, "", f"verify: {err}\n")

    OPENED = "I 0 1 5\nA 0 0 0\n"

    @pytest.mark.parametrize(
        "text,trace,err",
        [
            pytest.param(OPENED + "I 0 2 6\n", None, "line 3: duplicate live id 0",
                         id="duplicate-live-id"),
            pytest.param("D 4\n", None, "line 1: delete of unknown id 4",
                         id="delete-of-unknown-id"),
            pytest.param("A 0 0 0\n", None,
                         "line 1: assignment outside an insert operation",
                         id="A-before-any-op"),
            pytest.param(OPENED + "D 0\nA 0 0 1\n", None,
                         "line 4: assignment outside an insert operation",
                         id="A-after-D"),
            pytest.param(OPENED + "SUMMARY n=1\nA 0 0 1\n", None,
                         "line 4: assignment outside an insert operation",
                         id="A-after-SUMMARY"),
            pytest.param("I 0 1 5\nA 3 0 0\n", None,
                         "line 2: initial color for 3 but op inserted 0",
                         id="A-for-another-id"),
            pytest.param(OPENED + "A 0 0 1\n", None, "line 3: interval 0 colored twice",
                         id="colored-twice"),
            pytest.param("I 0 1\n", None, "line 1: expected 'I <id> <left> <right>'",
                         id="I-arity"),
            pytest.param("D 0 1\n", None, "line 1: expected 'D <id>'", id="D-arity"),
            pytest.param("I 0 1 5\nA 0\n", None, "line 2: expected 'A <id> <color>'",
                         id="A-arity"),
            pytest.param(OPENED + "R 0\n", None, "line 3: expected 'R <id> <color>'",
                         id="R-arity"),
            pytest.param("I 0 1 5\nA 0 0\n", None,
                         "line 2: expected '<tag> <id> <level> <index>' or dummy",
                         id="color-arity-short"),
            pytest.param(OPENED + "R 0 0 1 2\n", None,
                         "line 3: expected '<tag> <id> <level> <index>' or dummy",
                         id="color-arity-long"),
            pytest.param("I 0 1 5\nA 0 0 x\n", None,
                         "line 2: color fields must be integers", id="non-integer-color"),
            pytest.param("R 0 0 1\n", None, "line 1: recolor outside an operation",
                         id="R-before-any-op"),
            pytest.param(OPENED + "SUMMARY\nR 0 0 1\n", None,
                         "line 4: recolor outside an operation", id="R-after-SUMMARY"),
            pytest.param("I 0 1 5\nR 0 0 1\n", None,
                         "line 2: recolor of never-colored id 0", id="R-of-never-colored"),
            pytest.param(OPENED + "SUMMARY colors\n", None,
                         "line 3: bad summary token 'colors'", id="bad-summary-token"),
            pytest.param("E 1 RR 0 1\n", None,
                         "line 1: kinetic logs are not replayable here", id="E-record"),
            pytest.param(OPENED + "K 0 0 0 2 0\n", None,
                         "line 3: kinetic logs are not replayable here", id="K-record"),
            pytest.param("Q 0 1 5\n", None, "line 1: unknown record 'Q'",
                         id="unknown-tag"),
            pytest.param(OPENED, "I 0 1 5\nI 1 2 6\n",
                         "log covers 1 of 2 trace operations", id="log-covers-k-of-m"),
            pytest.param(OPENED, "I 0 1 6\n",
                         "line 1: log insert does not match the trace",
                         id="trace-insert-mismatch"),
            pytest.param(OPENED + "I 1 2 6\nA 1 0 1\n", "I 0 1 5\n",
                         "line 3: log insert does not match the trace",
                         id="trace-insert-past-the-end"),
            pytest.param(OPENED + "D 0\n", "I 0 1 5\nD 1\n",
                         "line 3: log delete does not match the trace",
                         id="trace-delete-mismatch"),
        ],
    )
    def test_rejection(self, capsys, tmp_path, text, trace, err):
        argv = ["verify", "--log", write(tmp_path, "rej.log", text)]
        if trace is not None:
            argv += ["--trace", write(tmp_path, "rej.trace", trace)]
        assert cli(capsys, *argv) == (2, "", f"verify: {err}\n")


BENCH_INPUT_ERRORS = {
    "fixed-distinct:U=1": "a universe trace needs U >= 2, got 1",
    "fixed-chain:U=1": "a universe trace needs U >= 2, got 1",
    "grid:L=1": "block length L must exceed 1",
}


class TestBench:
    @pytest.mark.parametrize(
        "spec,n", [("fixed-distinct:U=1", "5"), ("fixed-chain:U=1", "3"), ("grid:L=1", "3")])
    def test_one_point_universe_is_an_input_error(self, capsys, spec, n):
        # a valid row first: no row's output may come before the error
        assert cli(capsys, "bench", "--method", "trivial", "--method", spec, "--n", n) == (
            2, "", f"error: {BENCH_INPUT_ERRORS[spec]}\n")

    def test_input_error_writes_no_out_file(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        assert cli(capsys, "bench", "--method", "trivial", "--method", "grid:L=1",
                   "--n", "3", "--out", str(out))[0] == 2
        assert not out.exists()

    def test_header_and_rows(self, capsys):
        code, out, _ = cli(
            capsys, "bench", "--method", "dynamic:t=2", "--method", "trivial",
            "--n", "32,64", "--seed", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "method,n,params,colors,recolor_total,recolor_max,"
            "recolor_amortized,wall_time"
        )
        assert len(lines) == 1 + 4
        row = lines[1].split(",")
        assert row[0] == "dynamic"
        assert row[1] == "32"
        assert row[2] == "t=2"
        assert row[-1] == ""

    def test_deterministic_without_timings(self, capsys):
        args = ("bench", "--method", "grid:L=8", "--method", "fixed-chain:U=512",
                "--n", "64", "--seed", "9")
        _, out1, _ = cli(capsys, *args)
        _, out2, _ = cli(capsys, *args)
        assert out1 == out2

    def test_timings_fill_last_column(self, capsys):
        _, out, _ = cli(
            capsys, "bench", "--method", "trivial", "--n", "16", "--seed", "1",
            "--timings",
        )
        assert out.splitlines()[1].split(",")[-1] != ""

    def test_amortized_is_total_over_n(self, capsys):
        _, out, _ = cli(
            capsys, "bench", "--method", "dynamic:t=2", "--n", "128", "--seed", "3"
        )
        row = out.splitlines()[1].split(",")
        total, amortized = int(row[4]), parse_number(row[6])
        assert amortized == pytest.approx(total / 128, abs=1e-6)

    def test_bad_size_list(self, capsys):
        code, _, err = cli(
            capsys, "bench", "--method", "trivial", "--n", "32,zig"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv,n",
    [(("bench", "--method", "trivial", "--n", "0"), 0),
     (("bench", "--method", "trivial", "--n", "-4"), -4),
     (("bench", "--method", "trivial", "--n", "16,0"), 0),
     (("gen", "kinetic-lb", "--n", "0"), 0),
     (("gen", "random", "--n", "-3"), -3),
     (("gen", "nested-lb", "--n", "0"), 0),
     (("adversary", "--kind", "general", "--n", "-8", "--engine", "trivial"), -8)],
)
def test_size_below_one_is_an_input_error(capsys, argv, n):
    assert cli(capsys, *argv) == (2, "", f"error: --n must be at least 1, got {n}\n")


class TestAdversary:
    def test_general_transcript_verifies(self, capsys, tmp_path):
        log = str(tmp_path / "adv.log")
        code, _, err = cli(
            capsys, "adversary", "--kind", "general", "--n", "128",
            "--engine", "dynamic:t=2", "--out", log,
        )
        assert code == 0, err
        text = open(log).read()
        assert "# tradeoff c=" in text
        last = text.splitlines()[-1]
        assert last.startswith("SUMMARY colors=")
        assert "max_recolor=" in last and "rounds=" in last
        assert cli(capsys, "verify", "--log", log)[0] == 0

    def test_local_with_budget(self, capsys):
        code, out, _ = cli(
            capsys, "adversary", "--kind", "local", "--n", "64",
            "--engine", "trivial", "--budget-c", "3",
        )
        assert code == 0
        assert "# tradeoff c=3 " in out

    def test_zero_recolor_engine_reports_na(self, capsys):
        code, out, _ = cli(
            capsys, "adversary", "--kind", "general", "--n", "32",
            "--engine", "unique",
        )
        assert code == 0
        assert "consistent=n/a" in out

    @pytest.mark.parametrize(
        "kind,budget,err",
        [("general", "0", "general driver needs a recoloring budget >= 1"),
         ("local", "-1", "negative recoloring budget")],
    )
    def test_bad_recoloring_budget_is_an_input_error(self, capsys, kind, budget, err):
        code, _, stderr = cli(
            capsys, "adversary", "--kind", kind, "--n", "16", "--budget-r", budget,
            "--engine", "trivial",
        )
        assert (code, stderr) == (2, f"error: {err}\n")

    @pytest.mark.parametrize("budget", ["0", "-2"])
    @pytest.mark.parametrize("kind", ["general", "local"])
    def test_budget_c_below_one_is_an_input_error(self, capsys, kind, budget):
        assert cli(
            capsys, "adversary", "--kind", kind, "--n", "64", "--budget-c", budget,
            "--engine", "dynamic:t=2",
        ) == (2, "", f"error: --budget-c must be at least 1, got {budget}\n")

    @pytest.mark.parametrize("kind", ["general", "local"])
    def test_n_of_one_is_an_input_error(self, capsys, kind):
        assert cli(
            capsys, "adversary", "--kind", kind, "--n", "1", "--engine", "trivial",
        ) == (2, "", f"error: {kind} driver needs n >= 2, got 1\n")

    def test_unknown_engine(self, capsys):
        code, _, err = cli(
            capsys, "adversary", "--kind", "general", "--n", "16",
            "--engine", "nosuch",
        )
        assert code == 2


class TestKinetic:
    SCENARIO = "K 0 0 0 2 0\nK 1 3 -1 5 -1\n"

    def test_events_and_summary(self, capsys, tmp_path):
        scn = write(tmp_path, "s.scn", self.SCENARIO)
        code, out, err = cli(
            capsys, "kinetic", "--scenario", scn, "--until", "4",
            "--audit", "every",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "A 0 0 0"
        events = [l for l in lines if l.startswith("E ")]
        assert [l.split()[2] for l in events] == ["RL-meet", "LL", "RR"]
        assert lines[-1] == (
            "SUMMARY events=3 recolor_total=1 recolor_max=1 colors=2"
        )

    def test_exact_matches_float(self, capsys, tmp_path):
        scn = write(tmp_path, "s.scn", self.SCENARIO)
        _, out1, _ = cli(
            capsys, "kinetic", "--scenario", scn, "--until", "4", "--exact"
        )
        _, out2, _ = cli(capsys, "kinetic", "--scenario", scn, "--until", "4")
        assert out1 == out2

    def test_generated_scenario_runs_audited(self, capsys, tmp_path):
        scn = str(tmp_path / "lb.scn")
        cli(capsys, "gen", "kinetic-lb", "--n", "2", "--out", scn)
        horizon = open(scn).read().splitlines()[0].split()[-1]
        code, out, err = cli(
            capsys, "kinetic", "--scenario", scn, "--until", horizon,
            "--audit", "final",
        )
        assert code == 0, err
        tokens = dict(kv.split("=") for kv in out.splitlines()[-1].split()[1:])
        assert int(tokens["recolor_total"]) >= 4

    def test_malformed_scenario(self, capsys, tmp_path):
        scn = write(tmp_path, "bad.scn", "K 0 0 0 2\n")
        code, _, err = cli(capsys, "kinetic", "--scenario", scn, "--until", "4")
        assert code == 2
        assert "line 1" in err

    def test_degenerating_trajectory(self, capsys, tmp_path):
        scn = write(tmp_path, "deg.scn", "K 0 3 -1 5 -2\n")
        code, _, err = cli(capsys, "kinetic", "--scenario", scn, "--until", "3")
        assert code == 2
        assert "degenerates" in err

    def test_empty_scenario(self, capsys, tmp_path):
        scn = write(tmp_path, "empty.scn", "# nothing\n")
        code, _, _ = cli(capsys, "kinetic", "--scenario", scn, "--until", "4")
        assert code == 2


_KNOWN = "dynamic, eps, fixed-chain, fixed-distinct, greedy-nested, grid, trivial, unique"


@pytest.mark.parametrize(
    "argv,err",
    [(("run", "--method", "nosuch"), f"unknown method 'nosuch' (known: {_KNOWN})"),
     (("run", "--method", "dynamic:t"), "bad method parameter 't' in 'dynamic:t'"),
     (("run", "--method", "dynamic:=2"), "bad method parameter '=2' in 'dynamic:=2'"),
     (("run", "--method", "dynamic:t="), "bad method parameter 't=' in 'dynamic:t='"),
     (("run", "--method", "dynamic:q=2"),
      "unknown method parameter 'q' in 'dynamic:q=2'"),
     (("run", "--method", "dynamic:q=2", "--t", "3"),
      "unknown method parameter 'q' in 'dynamic:q=2'"),
     (("run", "--method", "dynamic:t=two"),
      "non-numeric value for 't' in 'dynamic:t=two'"),
     (("run", "--method", "fixed-chain"), "method 'fixed-chain' needs ['universe']"),
     (("run", "--method", "dynamic:U=8"), "method 'dynamic' does not take ['universe']"),
     (("run", "--method", "grid:L=8,inner=nope"),
      "inner engine must be one of ['dynamic', 'eps', 'trivial']"),
     (("run", "--method", "trivial", "--t", "3"), "method 'trivial' does not take ['t']"),
     (("run", "--method", "dynamic:t=1"), "minimum degree t must be at least 2"),
     (("run", "--method", "eps:eps=1"), "eps must lie strictly between 0 and 1"),
     (("run", "--method", "fixed-distinct:U=0"), "universe size must be at least 1"),
     (("run", "--method", "grid:L=1"), "block length L must exceed 1"),
     (("bench", "--method", "eps:eps=x", "--n", "4"),
      "non-numeric value for 'eps' in 'eps:eps=x'"),
     (("adversary", "--kind", "general", "--n", "16", "--engine", "unique:t=2"),
      "method 'unique' does not take ['t']"),
     (("run", "--method", "fixed-chain:U=300.7,t=3.9"),
      "method parameter 'universe' must be an integer, got 300.7"),
     (("run", "--method", "dynamic:t=2.5"), "method parameter 't' must be an integer, got 2.5"),
     (("run", "--method", "fixed-distinct:U=2.5"),
      "method parameter 'universe' must be an integer, got 2.5")],
)
def test_method_spec_rejection(capsys, tmp_path, argv, err):
    if argv[0] == "run":
        argv += ("--trace", write(tmp_path, "t.trace", SMALL_TRACE))
    assert cli(capsys, *argv) == (2, "", f"error: {err}\n")


class TestExitCodesAndSeed:
    def test_unknown_method(self, capsys, tmp_path):
        trace = write(tmp_path, "t.trace", SMALL_TRACE)
        code, _, err = cli(capsys, "run", "--method", "nosuch", "--trace", trace)
        assert code == 2
        assert "unknown method" in err

    def test_malformed_trace_reports_line(self, capsys, tmp_path):
        trace = write(tmp_path, "bad.trace", "I 0 1 5\nI 1 zig 6\n")
        code, _, err = cli(capsys, "run", "--method", "trivial", "--trace", trace)
        assert code == 2
        assert "line 2" in err

    def test_degenerate_interval(self, capsys, tmp_path):
        trace = write(tmp_path, "deg.trace", "I 0 5 5\n")
        code, _, err = cli(capsys, "run", "--method", "trivial", "--trace", trace)
        assert code == 2

    @pytest.mark.parametrize(
        "text,err",
        [pytest.param("I 0 1\n", "line 1: expected 'I <id> <left> <right>'", id="I-arity"),
         pytest.param("D 0 1\n", "line 1: expected 'D <id>'", id="D-arity"),
         pytest.param("Q 0\n", "line 1: unknown op 'Q'", id="unknown-op"),
         pytest.param("I x 1 2\n", "line 1: invalid literal for int() with base 10: 'x'",
                      id="non-integer-id"),
         pytest.param("I 0 5 1\n", "line 1: interval 0: left must be < right, got [5, 1]",
                      id="reversed-ends")],
    )
    def test_trace_rejection(self, capsys, tmp_path, text, err):
        trace = write(tmp_path, "bad.trace", text)
        assert cli(capsys, "run", "--method", "trivial", "--trace", trace) == (
            2, "", f"error: {err}\n")

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CFCOLOR_SEED", "42")
        _, out1, _ = cli(capsys, "gen", "random", "--n", "30", "--seed", "1")
        monkeypatch.delenv("CFCOLOR_SEED")
        _, out2, _ = cli(capsys, "gen", "random", "--n", "30", "--seed", "42")
        assert out1 == out2

    def test_env_seed_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("CFCOLOR_SEED", "zig")
        code, _, err = cli(capsys, "gen", "random", "--n", "5", "--seed", "1")
        assert code == 2
        assert "CFCOLOR_SEED" in err


class TestByteDeterminism:
    """Same seed, same bytes, across separate interpreter processes."""

    def pipeline(self, tmp_path, tag):
        trace = tmp_path / f"{tag}.trace"
        log = tmp_path / f"{tag}.log"
        subprocess.run(
            [sys.executable, "-m", "cfcolor.cli", "gen", "random", "--n", "150",
             "--seed", "77", "--out", str(trace)],
            check=True,
        )
        subprocess.run(
            [sys.executable, "-m", "cfcolor.cli", "run", "--method",
             "dynamic:t=2", "--trace", str(trace), "--out", str(log)],
            check=True,
        )
        return trace.read_bytes(), log.read_bytes()

    def test_two_runs_identical(self, tmp_path):
        t1, l1 = self.pipeline(tmp_path, "a")
        t2, l2 = self.pipeline(tmp_path, "b")
        assert t1 == t2
        assert l1 == l2

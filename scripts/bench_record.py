"""Append one entry to the committed benchmark trajectory, BENCH_<date>.json.

    python3 scripts/bench_record.py                        # this checkout
    python3 scripts/bench_record.py --checkout ../parent   # another one

Runs the checkout's own `benchmarks/run.py --workload all` once on each of
the seeds 1 and 20261017 (the held-out one), at run.py's default length,
and appends one entry to BENCH_<UTC date>.json in this repository's root,
creating the file when missing.  An entry holds the checkout's commit and
whether its tracked files other than the BENCH_*.json files had uncommitted
changes, the seeds, the Python and numpy versions, and per seed each
workload's last-line result from run.py: correct, attempted, failed and the
metrics.  Exits 1 when a workload failed
its output checks; the entry is written either way.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 20261017)


def _git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _dirty(checkout: Path) -> bool | None:
    """Whether the checkout's tracked files differ from its commit, the
    BENCH_*.json trajectory files aside; None when git cannot tell.

    Recording appends to this repository's BENCH file before a second
    checkout is recorded, so that file must not mark the second entry.
    """
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no",
                  "--", ".", ":(exclude)BENCH_*.json")
    return None if status is None else bool(status)


def run_seed(checkout: Path, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "benchmarks" / "run.py"),
           "--workload", "all", "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=REPO,
                        help="source tree whose benchmarks/run.py is run (default: this one)")
    checkout = parser.parse_args(argv).checkout.resolve()
    now = datetime.now(timezone.utc)
    out = REPO / f"BENCH_{now:%Y-%m-%d}.json"
    entry = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": _dirty(checkout),
        "recorded_utc": now.isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": list(SEEDS),
        "results": {str(seed): run_seed(checkout, seed) for seed in SEEDS},
    }
    entries = json.loads(out.read_text()) if out.exists() else []
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=1) + "\n")
    ok = all(r is not None and r["correct"]
             for results in entry["results"].values() for r in results.values())
    print(f"{out.name}: entry {len(entries)} for {entry['commit']}"
          f"{' (dirty)' if entry['dirty'] else ''}, correct={ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

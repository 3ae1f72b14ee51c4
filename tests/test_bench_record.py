"""scripts/bench_record.py: the dirty flag of a recorded checkout."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCH_2026-01-01.json").write_text("[]\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_clean_checkout_reads_clean(checkout):
    assert load_script()._dirty(checkout) is False


def test_edited_bench_file_reads_clean(checkout):
    # recording the parent appends to this file before the change is recorded
    (checkout / "BENCH_2026-01-01.json").write_text('[{"commit": "abc"}]\n')
    assert load_script()._dirty(checkout) is False


def test_edited_source_reads_dirty(checkout):
    (checkout / "src" / "mod.py").write_text("x = 2\n")
    assert load_script()._dirty(checkout) is True


def test_outside_a_work_tree_reads_unknown(tmp_path):
    assert load_script()._dirty(tmp_path / "missing") is None

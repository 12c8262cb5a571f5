"""The package as a whole: what `from dicolor import *` binds, and one short
untraced and one traced pass of every benchmark workload, on a copy of the checkout."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dicolor

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_the_public_names_but_no_module():
    assert [name for name in dicolor.__all__ if isinstance(getattr(dicolor, name), types.ModuleType)] == []
    namespace = {}
    exec("from dicolor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dicolor.__all__)


WORKLOADS = ["paper-claims", "tournament-search", "random-digraphs", "large-tournaments"]


def _run_copy(tmp_path, workload, trace):
    # run.py measures the src/ beside its own bench/ and writes its results
    # there, so a copy keeps this short run from replacing a real run's files.
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    # One pass is the least a run makes; --trace 1 adds one traced pass.
    argv = [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0.001", "--trace", trace]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"], done.returncode) == (True, 0, 0), done.stderr
    assert (tmp_path / "bench" / "out" / f"result-{workload}-seed1-trace{trace}.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly(tmp_path, workload):
    _run_copy(tmp_path, workload, "0")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correctly_traced(tmp_path, workload):
    _run_copy(tmp_path, workload, "1")

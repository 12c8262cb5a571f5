"""The package as a whole: what `from dicolor import *` binds, and one short pass of every benchmark workload."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dicolor

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_star_import_binds_the_public_names_but_no_module():
    assert [name for name in dicolor.__all__ if isinstance(getattr(dicolor, name), types.ModuleType)] == []
    namespace = {}
    exec("from dicolor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dicolor.__all__)


@pytest.mark.parametrize("workload", ["paper-claims", "tournament-search", "random-digraphs", "large-tournaments"])
def test_benchmark_workload_runs_correctly(workload):
    # One pass is the least a run makes; its results go to the git-ignored bench/out/.
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    argv += ["--seed", "1", "--seconds", "0.001", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"], done.returncode) == (True, 0, 0), done.stderr

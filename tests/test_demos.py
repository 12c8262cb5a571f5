"""Every script under demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr

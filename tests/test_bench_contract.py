"""The benchmark under bench/ calls dicolor by name; deleting a name it uses must fail here.

bench/ is read, never imported as a package: tracing.py and checks.py are
loaded from their files (they need only the standard library), and
workloads.py is parsed.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import dicolor
from dicolor.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_function_is_defined_in_its_home_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        (home, name)
        for _, home, names in tracing.LAYERS
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert missing == []


def test_every_package_name_the_workloads_use_is_exported():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dc"
    }
    assert used
    assert sorted(name for name in used if name not in dicolor.__all__) == []


def test_verify_all_prints_the_claims_the_benchmark_checks(capsys):
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    code = main(["verify", "all", "--seed", "1"])
    assert checks.check_verify_all(code, capsys.readouterr().out) == []


def test_importing_the_package_loads_neither_verify_nor_cli():
    # Workloads that solve import only `dicolor`, and their setup_s times that import.
    src = Path(dicolor.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import dicolor; print(sorted(sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    loaded = ast.literal_eval(result.stdout)
    assert "dicolor.board" in loaded
    assert "dicolor.verify" not in loaded and "dicolor.cli" not in loaded

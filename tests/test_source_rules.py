"""Rules on the package source that no behaviour test can see.

`board._index` is the one reader of a caller's integers: it refuses booleans,
which `operator.index` accepts as 0 and 1.  A second reader, or a per-parser
scan for booleans (`bool in map(type, ...)`), would let the two drift apart.
"""

import ast
from pathlib import Path

import dicolor

SRC = Path(dicolor.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _inside(tree: ast.AST, name: str) -> set[int]:
    """The ids of every node within the top-level function `name`."""
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == name]
    return {id(node) for fn in functions for node in ast.walk(fn)}


def test_operator_index_is_used_only_in_board_index():
    assert MODULES, SRC
    home = _inside(MODULES["board"], "_index")
    assert home
    uses = [
        (module, node.lineno)
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "index" and isinstance(node.value, ast.Name)
            and node.value.id == "operator" and id(node) not in home)
        or (isinstance(node, ast.ImportFrom) and node.module == "operator")
    ]
    assert uses == []
    importers = {
        module
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "operator" for alias in node.names)
    }
    assert importers == {"board"}


def test_no_module_scans_values_by_type():
    scans = [
        (module, node.lineno)
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map"
        and node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "type"
    ]
    assert scans == []


def test_board_does_not_import_chain():
    # board used `chain` only to flatten a partition document for its scan.
    imported = {
        alias.name
        for node in ast.walk(MODULES["board"])
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
    }
    assert "compress" in imported and "chain" not in imported

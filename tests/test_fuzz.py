"""Fuzzed input documents and command lines through the CLI.

Whatever JSON a user hands `dicolor solve` or `dicolor export-svg`, and
whatever flags and values any subcommand gets, the run ends in exit code 0,
1, 2 or 3 with no traceback.  Documents are any JSON value, or digraph- and
partition-shaped ones whose leaves may be replaced by huge ints, +-Infinity,
NaN, strings, nulls, or nested lists.  Vertex counts stay at 12 or below so
every solve is quick.
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dicolor.cli import build_parser, main

EXIT_CODES = {0, 1, 2, 3}

huge_numbers = st.one_of(
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63)),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
leaves = st.one_of(
    st.integers(-2, 12),
    huge_numbers,
    st.floats(-12, 12),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def sometimes_garbage(value):
    """Mostly the value itself, sometimes a huge or non-finite number or any JSON value."""
    return st.one_of(st.just(value), st.just(value), huge_numbers, json_values)


def leaf_strategy(draw):
    """Half the documents are well formed; the rest may corrupt any part."""
    return sometimes_garbage if draw(st.booleans()) else st.just


def pair(draw, leaf, a, b):
    """[a, b], with each number and the pair itself open to corruption."""
    return draw(leaf([draw(leaf(a)), draw(leaf(b))]))


@st.composite
def digraph_docs(draw):
    leaf = leaf_strategy(draw)
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 4))
    n = rows * cols
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    arcs = []
    for u, v in pairs:
        arc = draw(st.sampled_from([None, (u, v), (v, u)]))
        if arc is not None:
            arcs.append(pair(draw, leaf, *arc))
    doc = {"vertices": draw(leaf(n)), "arcs": draw(leaf(arcs))}
    if draw(st.booleans()):
        cells = draw(st.permutations([(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]))
        labels = {str(v): pair(draw, leaf, *cell) for v, cell in enumerate(cells)}
        doc["labels"] = draw(leaf(labels))
    return doc


@st.composite
def partition_docs(draw):
    leaf = leaf_strategy(draw)
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    count = draw(st.integers(1, n * m))
    classes = [[] for _ in range(count)]
    for r in range(1, n + 1):
        for c in range(1, m + 1):
            classes[draw(st.integers(0, count - 1))].append(pair(draw, leaf, r, c))
    return {
        "n": draw(leaf(n)),
        "m": draw(leaf(m)),
        "classes": draw(leaf([part for part in classes if part])),
    }


def run_cli(command, doc, *options):
    """Run a CLI command on `doc` written as JSON; return its exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        if command == "export-svg":
            options += ("--out", str(Path(tmp) / "out.svg"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, str(path), *options])
    return code, stderr.getvalue()


def assert_clean_exit(code, stderr):
    event(f"exit {code}")
    assert code in EXIT_CODES
    assert "Traceback" not in stderr


@given(st.one_of(json_values, digraph_docs()))
def test_solve_exits_cleanly(doc):
    assert_clean_exit(*run_cli("solve", doc, "--max-nodes", "1000"))


@given(st.one_of(json_values, partition_docs()))
def test_export_svg_exits_cleanly(doc):
    assert_clean_exit(*run_cli("export-svg", doc))


# Every subcommand's parser, keyed by name, as `dicolor` builds them.
SUBCOMMANDS = next(
    action.choices for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)
ARG_VALUES = ["-1", "0", "1", "2", "3", "nan", "inf", "1e400", "x", ""]
# `order` and `equivalence` take no scale flag and `all` runs every suite, so
# these take their full time whatever the argv; the rest stay small.
SLOW_SUITES = {"all", "order", "equivalence"}


@st.composite
def argvs(draw):
    """A subcommand with its positionals, its required flags and some optional
    flags; values come from the parser's choices, or else from ARG_VALUES."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        values = [v for v in action.choices or ARG_VALUES if v not in SLOW_SUITES]
        if not action.option_strings:
            argv.append(draw(st.sampled_from(values)))
        elif action.required or draw(st.booleans()):
            argv += [action.option_strings[-1], draw(st.sampled_from(values))]
    return argv


@settings(max_examples=50)
@given(argvs())
def test_any_command_line_exits_cleanly(argv):
    # Output paths are drawn values such as "x" or "1", so run in a fresh directory.
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(home)
    assert_clean_exit(code, stderr.getvalue())

"""Shows that every output check accepts a right output and rejects a corrupted one.

    python3 bench/selftest.py

Needs no dicolor: the right outputs are built here from the paper's
constructions, and each corruption changes one thing a faulty program could
get wrong.  Exits 1 if any check accepts a corrupted output or rejects a
right one.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import checks
import workloads


def band_colors(k: int) -> list[int]:
    """The paper's k-coloring of T_k: diagonal band of each cell, row-major."""
    side = 2 * k - 1
    return [
        (i - j) // 2 if i >= j else (i - j + side + 1) // 2
        for i in range(1, side + 1)
        for j in range(1, side + 1)
    ]


def solve_result(colors, status="optimal", value=None):
    value = max(colors) + 1 if value is None else value
    return SimpleNamespace(status=status, value=value, nodes_explored=1,
                           certificate=SimpleNamespace(color_of=tuple(colors)))


def svg_text(n: int, m: int) -> str:
    rects = [f'  <rect x="{(j - 1) * 32}" y="{(i - 1) * 32}" width="32" height="32"/>'
             for i in range(1, n + 1) for j in range(1, m + 1)]
    return "\n".join(["<svg>"] + rects + ["</svg>"]) + "\n"


def cases():
    """(check name, problems for the right output, problems for a corrupted output)."""
    arcs2, labels2 = checks.board_digraph(3, 3)
    good2 = band_colors(2)
    yield ("acyclic certificate", checks.check_coloring(9, arcs2, good2, 2, "acyclic"),
           checks.check_coloring(9, arcs2, [0] * 9, 1, "acyclic"))
    yield ("certificate color count", checks.check_coloring(9, arcs2, good2, 2, "acyclic"),
           checks.check_coloring(9, arcs2, good2, 3, "acyclic"))

    arcs_np, _ = checks.board_digraph(3, 2, same_row_arcs=False)
    rows = [v // 2 for v in range(6)]
    yield ("triangle-free certificate", checks.check_coloring(6, arcs_np, rows, 3, "triangle-free"),
           checks.check_coloring(6, arcs_np, [0] * 6, 1, "triangle-free"))

    arcs3, _ = checks.board_digraph(5, 5)
    good3 = band_colors(3)
    wider = good3[:-1] + [3]  # a valid 4-coloring: the last cell alone
    yield ("chi(T_k) = k", workloads.check_solve(solve_result(good3), 25, arcs3, "acyclic", exact=3).problems,
           workloads.check_solve(solve_result(wider), 25, arcs3, "acyclic", exact=3).problems)

    arcs4, _ = checks.board_digraph(7, 7)
    yield ("sound bound on an aborted solve",
           workloads.check_solve(solve_result([0], "aborted_at_limit", 4), 49, arcs4, "acyclic", exact=4).problems,
           workloads.check_solve(solve_result([0], "aborted_at_limit", 5), 49, arcs4, "acyclic", exact=4).problems)

    arcs84, _ = checks.board_digraph(8, 4, same_row_arcs=False)
    rows84 = [v // 4 for v in range(32)]
    need = checks.npartite_bound(8, 4)
    yield ("n-partite lower bound",
           workloads.check_solve(solve_result(rows84), 32, arcs84, "triangle-free", at_least=need).problems,
           [p for p in workloads.check_solve(solve_result(rows84, value=need - 1), 32, arcs84, "triangle-free",
                                              at_least=need).problems if "lower bound" in p])

    minimum = checks.exhaustive_minimum(9, arcs2)
    split = good2[:-1] + [2]  # a valid 3-coloring of T_2: the last cell alone
    yield ("exhaustive minimum",
           workloads.check_solve(solve_result(good2), 9, arcs2, "acyclic", exhaustive=minimum).problems,
           workloads.check_solve(solve_result(split), 9, arcs2, "acyclic", exhaustive=minimum).problems)

    text = "\n".join(f"PASS  {cid}  statement" for cid in sorted(checks.VERIFY_ALL_CLAIMS)) + "\n30/30 claims passed\n"
    failing = text.replace("PASS  tk/k=3", "FAIL  tk/k=3")
    missing = "\n".join(line for line in text.splitlines() if "sigma/bruteforce-n=5" not in line)
    yield ("verify all: a FAIL line", checks.check_verify_all(0, text), checks.check_verify_all(0, failing))
    yield ("verify all: a missing claim", checks.check_verify_all(0, text), checks.check_verify_all(0, missing))

    svg = svg_text(5, 5)
    yield ("svg: a missing rect", checks.check_svg(svg, 5, 5), checks.check_svg(svg.replace('<rect x="0" y="0"', "<g"), 5, 5))
    yield ("svg: a misplaced rect", checks.check_svg(svg, 5, 5), checks.check_svg(svg.replace('x="32" y="0"', 'x="0" y="0"'), 5, 5))

    flipped = [(v, u) if i == 0 else (u, v) for i, (u, v) in enumerate(arcs2)]
    moved = [labels2[1], labels2[0]] + labels2[2:]
    yield ("json round trip: arcs", checks.check_roundtrip(arcs2, labels2, arcs2, labels2),
           checks.check_roundtrip(arcs2, labels2, flipped, labels2))
    yield ("json round trip: labels", checks.check_roundtrip(arcs2, labels2, arcs2, labels2),
           checks.check_roundtrip(arcs2, labels2, arcs2, moved))

    generated = SimpleNamespace(vertex_count=9, arcs=frozenset(arcs2), labels=labels2)
    corrupted = SimpleNamespace(vertex_count=9, arcs=frozenset(flipped), labels=labels2)
    yield ("generated digraph", workloads.generation_problems("T_2", generated, arcs2, labels2),
           workloads.generation_problems("T_2", corrupted, arcs2, labels2))


def main() -> int:
    bad = 0
    for name, right, corrupted in cases():
        ok = not right and bool(corrupted)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'}  {name}: right output {'accepted' if not right else right}; "
              f"corrupted output {'rejected' if corrupted else 'accepted'}")
    print(f"{bad} check(s) misbehaved" if bad else "every check accepts the right output and rejects the corrupted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

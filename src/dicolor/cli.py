"""Command-line surface: generate, solve, partition, verify, export-svg.

Exit codes: 0 success, 1 failed verification claims, 2 usage or parse errors,
3 solve aborted at its resource limit, or verification claims left undecided
by one (and none failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .board import Board, bruteforce_min_partition, optimal_c_sparse_partition, partition_from_json, partition_to_json
from .digraph import digraph_from_json, digraph_to_dot, digraph_to_json
from .generators import build_npartite, build_tournament
from .render import partition_to_svg
from .solvers import (
    OPTIMAL,
    SolveLimits,
    dichromatic_number,
    solve_result_to_json,
    triangle_free_chromatic,
)
from .verify import SUITES, run_suites


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def cmd_generate(args: argparse.Namespace) -> int:
    if args.type == "tournament":
        if args.k is None:
            return _fail("generate tournament requires --k")
        g = build_tournament(args.k)
    else:
        if args.n is None or args.m is None:
            return _fail("generate npartite requires --n and --m")
        g = build_npartite(args.n, args.m)
    if args.format == "json":
        text = json.dumps(digraph_to_json(g), indent=2, sort_keys=True) + "\n"
    else:
        text = digraph_to_dot(g)
    Path(args.out).write_text(text)
    print(f"vertices: {g.vertex_count} arcs: {len(g.arcs)}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    doc = _load_json(args.input)
    g = digraph_from_json(doc)
    limits = SolveLimits(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    if args.constraint == "acyclic":
        result = dichromatic_number(g, limits)
    else:
        result = triangle_free_chromatic(g, limits)
    print(json.dumps(solve_result_to_json(result), sort_keys=True))
    return 0 if result.status == OPTIMAL else 3


def cmd_partition(args: argparse.Namespace) -> int:
    board = Board(args.n, args.n)
    if args.mode == "bruteforce":
        count, partition = bruteforce_min_partition(board)
    else:
        partition = optimal_c_sparse_partition(board)
        count = len(partition.classes)
    text = json.dumps(partition_to_json(partition), indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"classes: {count}")
    else:
        sys.stdout.write(text)
        print(f"classes: {count}", file=sys.stderr)
    if args.svg:
        Path(args.svg).write_text(partition_to_svg(partition))
    return 0


def cmd_export_svg(args: argparse.Namespace) -> int:
    doc = _load_json(args.input)
    partition = partition_from_json(doc)
    Path(args.out).write_text(partition_to_svg(partition))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, scale in (("--max-n", args.max_n), ("--max-k", args.max_k)):
        if scale is not None and scale < 1:
            return _fail(f"{flag} must be at least 1, got {scale}")
    case = None
    if args.n is not None or args.m is not None:
        if args.n is None or args.m is None:
            return _fail("verify needs both --n and --m when either is given")
        case = (args.n, args.m)
    claims = run_suites(
        [args.suite],
        max_n=args.max_n,
        max_k=args.max_k,
        seed=args.seed,
        npartite_case=case,
    )
    width = max(len(c.claim_id) for c in claims)
    marks = {True: "PASS", False: "FAIL", None: "OPEN"}
    for claim in claims:
        detail = f"  [{claim.detail}]" if claim.detail else ""
        print(f"{marks[claim.passed]}  {claim.claim_id:<{width}}  {claim.statement}{detail}")
    passed = sum(c.passed is True for c in claims)
    undecided = sum(c.passed is None for c in claims)
    print(f"{passed}/{len(claims)} claims passed" + (f", {undecided} undecided" if undecided else ""))
    if passed + undecided < len(claims):
        return 1  # some claim failed
    return 3 if undecided else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicolor",
        description="Checkerboard sparse partitions and exact directed-coloring solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated digraph to a file")
    gen.add_argument("type", choices=["tournament", "npartite"])
    gen.add_argument("--k", type=int, help="tournament parameter (board side 2k-1)")
    gen.add_argument("--n", type=int, help="number of parts / rows")
    gen.add_argument("--m", type=int, help="part size / columns")
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve a digraph JSON file exactly")
    solve.add_argument("input")
    solve.add_argument("--constraint", choices=["acyclic", "triangle-free"], default="acyclic")
    solve.add_argument("--max-nodes", type=int, default=SolveLimits.max_nodes)
    solve.add_argument("--max-seconds", type=float, default=SolveLimits.max_seconds)
    solve.set_defaults(func=cmd_solve)

    part = sub.add_parser("partition", help="construct or brute-force a minimum c-sparse partition")
    part.add_argument("mode", choices=["construct", "bruteforce"])
    part.add_argument("--n", type=int, required=True, help="board side length")
    part.add_argument("--out", help="write the partition JSON here instead of stdout")
    part.add_argument("--svg", help="also render the partition to this SVG file")
    part.set_defaults(func=cmd_partition)

    export = sub.add_parser("export-svg", help="render a partition JSON file as SVG")
    export.add_argument("input")
    export.add_argument("--out", required=True)
    export.set_defaults(func=cmd_export_svg)

    ver = sub.add_parser("verify", help="run a claim suite and print a pass/fail table")
    ver.add_argument("suite", choices=list(SUITES) + ["all"])
    ver.add_argument(
        "--max-n",
        type=int,
        help="largest board side for the diagonals suite (default 15) and the sigma brute force "
        "(default 5; it stops at the largest square board within the brute-force cell cap)",
    )
    ver.add_argument("--max-k", type=int, help="largest tournament parameter")
    ver.add_argument("--n", type=int, help="n-partite part count (npartite suite)")
    ver.add_argument("--m", type=int, help="n-partite part size (npartite suite)")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

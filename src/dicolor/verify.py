"""Named claim suites re-checking the library's headline facts at configurable scale.

Each suite instantiates one family of verified facts (order laws, extremal
size bounds, diagonal-band partitions, minimum partition sizes, tournament
dichromatic numbers, the acyclic/c-sparse correspondence, and the n-partite
triangle bound) and reports one claim per instance.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .board import (
    MAX_BRUTEFORCE_CELLS,
    Board,
    CellSet,
    bruteforce_max_sparse,
    bruteforce_min_partition,
    is_c_sparse,
    is_weak_c_sparse,
    optimal_c_sparse_partition,
)
from .digraph import Digraph, _acyclic_mask, _triangle_mask
from .generators import build_npartite, build_tournament
from .solvers import (
    ACYCLIC,
    OPTIMAL,
    dichromatic_number,
    npartite_lower_bound,
    triangle_free_chromatic,
    verify_coloring,
)

SUITES = ("order", "bounds", "diagonals", "sigma", "tk", "equivalence", "npartite")

DEFAULT_NPARTITE_CASES = ((3, 2), (4, 2), (6, 3))
_EQUIVALENCE_SAMPLES = 10_000
# Largest square board the minimum-partition brute force accepts.
_SIGMA_MAX_N = math.isqrt(MAX_BRUTEFORCE_CELLS)


@dataclass(frozen=True)
class Claim:
    """One checked instance.  passed is None when the claim is undecided: its
    solve was not optimal, and the bound it proved neither settles nor
    contradicts the claim."""

    claim_id: str
    statement: str
    passed: bool | None
    detail: str = ""


def _small_boards(max_cells: int) -> list[Board]:
    return [
        Board(n, m)
        for n in range(1, max_cells + 1)
        for m in range(1, max_cells + 1)
        if n * m <= max_cells
    ]


def suite_order() -> list[Claim]:
    claims = []

    cells = Board(4, 4).cells()
    total_order = all((a < b) + (a == b) + (b < a) == 1 for a in cells for b in cells) and all(
        a < c for a in cells for b in cells for c in cells if a < b < c
    )
    claims.append(
        Claim("order/total-order", "cell comparison is a strict total order (4x4 exhaustive)", total_order)
    )

    implication = antitone = True
    for board in _small_boards(9):
        # Bit `mask` of c (of w) is set iff the set with that mask passes.
        sets = [CellSet._from_mask(board, mask) for mask in range(1 << board.cell_count)]
        c = sum(1 << s.mask for s in sets if is_c_sparse(s))
        w = sum(1 << s.mask for s in sets if is_weak_c_sparse(s))
        implication = implication and not c & ~w
        every = (1 << len(sets)) - 1
        for i in range(board.cell_count):
            # The masks holding cell i; shifting them down by 2**i drops it.
            half = 1 << i
            holds = every // ((1 << 2 * half) - 1) * ((1 << half) - 1 << half)
            antitone = antitone and not ((c & holds) >> half & ~c or (w & holds) >> half & ~w)
    claims.append(
        Claim("order/c-implies-weak", "every c-sparse set is weak-c-sparse (boards n*m <= 9, exhaustive)", implication)
    )
    claims.append(
        Claim("order/antitone", "both sparsity predicates survive deleting any member (boards n*m <= 9)", antitone)
    )
    return claims


def suite_bounds() -> list[Claim]:
    rect_ok = square_ok = weak_ok = tight_ok = True
    for board in _small_boards(16):
        size_c, _ = bruteforce_max_sparse(board, "c-sparse")
        size_w, _ = bruteforce_max_sparse(board, "weak-c-sparse")
        if size_c > board.n + board.m - 1:
            rect_ok = False
        if board.n == board.m and size_c > 2 * board.n - 1:
            square_ok = False
        if size_w > board.n + 2 * board.m - 2:
            weak_ok = False
        if board.m == 1 and board.n <= 5 and not (size_c == board.n == size_w):
            tight_ok = False
    return [
        Claim("bounds/c-sparse-rect", "max c-sparse size <= n+m-1 (all boards with n*m <= 16)", rect_ok),
        Claim("bounds/c-sparse-square", "max c-sparse size <= 2n-1 on square boards", square_ok),
        Claim("bounds/weak", "max weak-c-sparse size <= n+2m-2 (all boards with n*m <= 16)", weak_ok),
        Claim("bounds/tight-single-column", "single-column boards attain both bounds (n <= 5)", tight_ok),
    ]


def suite_diagonals(max_n: int = 15) -> list[Claim]:
    claims = []
    # Largest side first: a side over the construction's cap fails before any work.
    for n in range(max_n - 1 + max_n % 2, 0, -2):
        board = Board(n, n)
        bands = optimal_c_sparse_partition(board).classes
        sparse = all(is_c_sparse(b) for b in bands)
        covered = 0
        for band in bands:
            covered |= band.mask
        disjoint = sum(map(len, bands)) == covered.bit_count()
        cover = covered == (1 << board.cell_count) - 1
        claims.append(
            Claim(
                f"diagonals/n={n:02d}",
                f"the {(n + 1) // 2} diagonal bands of the {n}x{n} board are c-sparse, disjoint, and cover it",
                sparse and disjoint and cover,
            )
        )
    return claims


def suite_sigma(max_n: int = 5) -> list[Claim]:
    claims = []
    for n in range(1, min(max_n, _SIGMA_MAX_N) + 1):
        want = n // 2 + 1
        got, witness = bruteforce_min_partition(Board(n, n))
        claims.append(
            Claim(
                f"sigma/bruteforce-n={n}",
                f"minimum c-sparse classes covering the {n}x{n} board == {want}",
                got == want and all(is_c_sparse(c) for c in witness.classes),
                f"got {got}",
            )
        )
    construct_ok = True
    for n in range(1, 16):
        p = optimal_c_sparse_partition(Board(n, n))
        if len(p.classes) != n // 2 + 1 or not all(is_c_sparse(c) for c in p.classes):
            construct_ok = False
    claims.append(
        Claim(
            "sigma/construction-n<=15",
            "constructed partition uses floor(n/2)+1 c-sparse classes for n = 1..15",
            construct_ok,
        )
    )
    return claims


def suite_tk(max_k: int = 3) -> list[Claim]:
    claims = []
    # Largest k first: a board over the generation cap fails before any solve.
    for k in range(max_k, 0, -1):
        g = build_tournament(k)
        result = dichromatic_number(g)
        if result.status == OPTIMAL:
            passed = result.value == k and verify_coloring(g, result.certificate, ACYCLIC)
        else:
            passed = False if result.value > k else None  # value is a proven lower bound
        claims.append(
            Claim(
                f"tk/k={k}",
                f"dichromatic number of the {g.vertex_count}-vertex board tournament == {k}",
                passed,
                f"status {result.status}, value {result.value}",
            )
        )
    return claims


# The suites below read a vertex mask as the cell mask of its labels, which
# holds when vertex v labels cell bit v of the board, as the generators do.
_NOT_CELL_ORDER = "vertex labels are not the board's cells in row-major order"


def _in_cell_order(g: Digraph) -> bool:
    return g.board is not None and g.labels == g.board.cells()


def _equivalence_claim(claim_id: str, scope: str, k: int, masks: Iterable[int]) -> Claim:
    """Whether no vertex mask of T_k is acyclic but not c-sparse, or the reverse."""
    statement = f"acyclic induced subtournament <=> c-sparse cell set ({scope}, k={k})"
    g = build_tournament(k)
    if not _in_cell_order(g):
        return Claim(claim_id, statement, False, _NOT_CELL_ORDER)
    bad = sum(_acyclic_mask(g, mask) != is_c_sparse(CellSet._from_mask(g.board, mask)) for mask in masks)
    return Claim(claim_id, statement, bad == 0, f"{bad} mismatches")


def suite_equivalence(seed: int = 0) -> list[Claim]:
    rng = random.Random(seed)
    samples = (rng.getrandbits(25) for _ in range(_EQUIVALENCE_SAMPLES))
    return [
        _equivalence_claim("equivalence/t2-exhaustive", "all 512 subsets", 2, range(512)),
        _equivalence_claim("equivalence/t3-random", f"{_EQUIVALENCE_SAMPLES} seeded subsets", 3, samples),
    ]


def suite_npartite(case: tuple[int, int] | None = None) -> list[Claim]:
    claims = []

    observation_ok, detail = True, ""
    for n in range(1, 4):
        for m in range(1, 4):
            g = build_npartite(n, m)
            if not _in_cell_order(g):
                observation_ok, detail = False, f"{n}x{m}: {_NOT_CELL_ORDER}"
                continue
            for members in range(1 << g.vertex_count):
                if _triangle_mask(g, members) is None:
                    if not is_weak_c_sparse(CellSet._from_mask(g.board, members)):
                        observation_ok = False
    claims.append(
        Claim(
            "npartite/observation",
            "triangle-free induced sub-digraph => weak-c-sparse cells (n,m <= 3, exhaustive)",
            observation_ok,
            detail,
        )
    )

    cases = [case] if case is not None else DEFAULT_NPARTITE_CASES
    for n, m in cases:
        bound = npartite_lower_bound(n, m)
        need = math.ceil(bound)
        g = build_npartite(n, m)
        result = triangle_free_chromatic(g)
        # A non-optimal status still certifies infeasibility below value, so
        # it can settle the claim but not refute it.
        passed = result.value >= need or (False if result.status == OPTIMAL else None)
        if result.status == OPTIMAL:
            detail = f"optimal value {result.value} >= ceil({bound}) = {need}"
        else:
            detail = f"{result.status}, certified lower bound {result.value} vs ceil({bound}) = {need}"
        claims.append(
            Claim(
                f"npartite/bound-{n}x{m}",
                f"triangle-free chromatic number of the {n}-partite graph (parts of {m}) >= {need}",
                passed,
                detail,
            )
        )
    return claims


def run_suites(
    names: list[str],
    *,
    max_n: int | None = None,
    max_k: int | None = None,
    seed: int = 0,
    npartite_case: tuple[int, int] | None = None,
) -> list[Claim]:
    """Run the named suites and return their claims sorted by id."""
    for name, scale in (("max_n", max_n), ("max_k", max_k)):
        if scale is not None and scale < 1:
            raise ValueError(f"{name} must be at least 1, got {scale}")
    wanted = set(SUITES) if "all" in names else set(names)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}; expected {SUITES} or 'all'")
    claims: list[Claim] = []
    if "order" in wanted:
        claims += suite_order()
    if "bounds" in wanted:
        claims += suite_bounds()
    if "diagonals" in wanted:
        claims += suite_diagonals(15 if max_n is None else max_n)
    if "sigma" in wanted:
        claims += suite_sigma(5 if max_n is None else max_n)
    if "tk" in wanted:
        claims += suite_tk(3 if max_k is None else max_k)
    if "equivalence" in wanted:
        claims += suite_equivalence(seed)
    if "npartite" in wanted:
        claims += suite_npartite(npartite_case)
    return sorted(claims, key=lambda c: c.claim_id)

"""Acceptance suite: every finite claim the package implements, at fixed scale.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s).  All checks
are exact; randomized ones are seeded and reproducible.
"""

import math
import random
import time

from dicolor import (
    ACYCLIC,
    OPTIMAL,
    Board,
    CellSet,
    bruteforce_max_sparse,
    bruteforce_min_partition,
    build_npartite,
    build_tournament,
    cell_set_of,
    diagonal_band,
    dichromatic_number,
    find_directed_triangle,
    induced,
    is_acyclic,
    is_c_sparse,
    is_weak_c_sparse,
    npartite_lower_bound,
    optimal_c_sparse_partition,
    restrict,
    triangle_free_chromatic,
    verify_coloring,
)
from oracles import random_c_sparse_set, random_tournament


def _report(index, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {index:02d}: {description} ({elapsed:.2f}s)")
    assert ok, f"acceptance {index:02d} failed: {description}"


def test_01_minimum_partition_size_formula():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        count, witness = bruteforce_min_partition(Board(n, n))
        ok = ok and count == n // 2 + 1 and all(is_c_sparse(c) for c in witness.classes)
    _report(1, "brute-force minimum c-sparse partition, floor(n/2)+1 classes for n=1..5", ok, time.perf_counter() - start)


def test_02_constructed_partition_is_optimal():
    start = time.perf_counter()
    ok = True
    for n in range(1, 16):
        p = optimal_c_sparse_partition(Board(n, n))
        ok = ok and len(p) == n // 2 + 1 and all(is_c_sparse(c) for c in p.classes)
    ok = ok and len(optimal_c_sparse_partition(Board(7, 7))) == 4
    _report(2, "constructed partition has floor(n/2)+1 c-sparse classes for n=1..15 (4 at n=7)", ok, time.perf_counter() - start)


def test_03_tournament_dichromatic_numbers():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        g = build_tournament(k)
        result = dichromatic_number(g)
        ok = (
            ok
            and result.status == OPTIMAL
            and result.value == k
            and result.certificate is not None
            and verify_coloring(g, result.certificate, ACYCLIC)
        )
    _report(3, "exact dichromatic number k for the board tournaments, k=1..3, verified certificates", ok, time.perf_counter() - start)


def test_04_acyclic_iff_c_sparse():
    start = time.perf_counter()
    g2 = build_tournament(2)
    mismatches = 0
    for mask in range(1 << 9):
        vs = [v for v in range(9) if mask >> v & 1]
        if is_acyclic(induced(g2, vs)) != is_c_sparse(cell_set_of(g2, vs)):
            mismatches += 1
    g3 = build_tournament(3)
    rng = random.Random(0)
    for _ in range(10_000):
        vs = [v for v in range(25) if rng.random() < 0.5]
        if is_acyclic(induced(g3, vs)) != is_c_sparse(cell_set_of(g3, vs)):
            mismatches += 1
    _report(4, "acyclic induced subtournament <=> c-sparse cells (512 exhaustive + 10000 sampled)", mismatches == 0, time.perf_counter() - start)


def test_05_extremal_size_bounds():
    start = time.perf_counter()
    ok = True
    for n in range(1, 17):
        for m in range(1, 17):
            if n * m > 16:
                continue
            size_c, _ = bruteforce_max_sparse(Board(n, m), "c-sparse")
            size_w, _ = bruteforce_max_sparse(Board(n, m), "weak-c-sparse")
            ok = ok and size_c <= n + m - 1 and size_w <= n + 2 * m - 2
            if n == m:
                ok = ok and size_c <= 2 * n - 1
            if m == 1 and n <= 5:
                ok = ok and size_c == n and size_w == n
    _report(5, "max sizes <= n+m-1, <= 2n-1 (square), <= n+2m-2; attained on single columns", ok, time.perf_counter() - start)


def test_06_diagonal_band_partitions():
    start = time.perf_counter()
    ok = True
    for n in range(1, 16, 2):
        board = Board(n, n)
        covered: set = set()
        for k in range((n + 1) // 2):
            band = diagonal_band(board, k)
            ok = ok and is_c_sparse(band) and not (covered & band.cells)
            covered |= band.cells
        ok = ok and covered == set(board.cells())
    _report(6, "diagonal bands are c-sparse and partition every odd board up to 15x15", ok, time.perf_counter() - start)


def test_07_tournament_acyclic_iff_triangle_free():
    start = time.perf_counter()
    rng = random.Random(1)
    mismatches = 0
    for _ in range(500):
        g = random_tournament(rng, rng.randint(1, 8))
        if is_acyclic(g) != (find_directed_triangle(g) is None):
            mismatches += 1
    _report(7, "tournaments: acyclic <=> no directed triangle (500 seeded samples)", mismatches == 0, time.perf_counter() - start)


def test_08_npartite_lower_bounds():
    start = time.perf_counter()
    ok = True
    for n, m in ((3, 2), (4, 2), (6, 3)):
        result = triangle_free_chromatic(build_npartite(n, m))
        ok = ok and result.status == OPTIMAL
        ok = ok and result.value >= math.ceil(npartite_lower_bound(n, m))
    ok = ok and math.ceil(npartite_lower_bound(8, 4)) == 3
    full = triangle_free_chromatic(build_npartite(8, 4))
    ok = ok and full.status == OPTIMAL and full.value >= 3
    _report(8, "triangle-free chromatic >= ceil(nm/(n+2m-2)) for (3,2),(4,2),(6,3); (8,4) certified >= 3", ok, time.perf_counter() - start)


def test_09_triangle_free_implies_weak_c_sparse():
    start = time.perf_counter()
    violations = 0
    for n in range(1, 4):
        for m in range(1, 4):
            g = build_npartite(n, m)
            for mask in range(1 << g.vertex_count):
                vs = [v for v in range(g.vertex_count) if mask >> v & 1]
                if find_directed_triangle(g, vs) is None:
                    if not is_weak_c_sparse(cell_set_of(g, vs)):
                        violations += 1
    _report(9, "triangle-free induced sub-digraph => weak-c-sparse cells (n,m <= 3 exhaustive)", violations == 0, time.perf_counter() - start)


def test_10_restriction_preserves_c_sparseness():
    start = time.perf_counter()
    rng = random.Random(2)
    violations = 0
    for _ in range(200):
        board = Board(rng.randint(1, 8), rng.randint(1, 8))
        sparse = random_c_sparse_set(rng, board)
        keep_rows = [r for r in range(1, board.n + 1) if rng.random() < 0.6] or [1]
        keep_cols = [c for c in range(1, board.m + 1) if rng.random() < 0.6] or [1]
        if not is_c_sparse(restrict(sparse, keep_rows, keep_cols)):
            violations += 1
    _report(10, "row/column deletion keeps c-sparse sets c-sparse (200 seeded pairs, boards to 8x8)", violations == 0, time.perf_counter() - start)

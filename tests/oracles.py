"""Independent brute-force oracles used to cross-check the library.

Everything here works straight from the definitions (triple loops, subset
enumeration, full partition enumeration) and deliberately avoids the
library's optimized code paths.
"""

from __future__ import annotations

import random
from itertools import combinations

from dicolor import Board, Cell, CellSet, Digraph


def c_sparse_by_definition(s: CellSet) -> bool:
    cells = sorted(s.cells)
    for p in cells:
        for q in cells:
            if p < q and p.col == q.col:
                for w in cells:
                    if w.col != p.col and p < w < q:
                        return False
    return True


def weak_c_sparse_by_definition(s: CellSet) -> bool:
    cells = sorted(s.cells)
    for p in cells:
        for q in cells:
            if p.col == q.col and p.row < q.row:
                for w in cells:
                    if w.col != p.col and p.row < w.row < q.row:
                        return False
    return True


def board_arcs_by_rule(n: int, m: int, same_row_arcs: bool = True) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Arcs between the cells of an n x m board, from the paper's rule.

    For cells a < b in row-major order, a same-column pair points a -> b and
    any other pair b -> a; same-row pairs are left out when same_row_arcs is
    false (the n-partite digraph).
    """
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, m + 1)]
    arcs = set()
    for a in cells:
        for b in cells:
            if a < b and (same_row_arcs or a[0] != b[0]):
                arcs.add((a, b) if a[1] == b[1] else (b, a))
    return arcs


def all_subsets(board: Board):
    cells = list(board.cells())
    for mask in range(1 << len(cells)):
        yield [cells[i] for i in range(len(cells)) if mask >> i & 1]


def max_sparse_by_enumeration(board: Board, predicate) -> int:
    """Maximum satisfying-set size by scanning every subset."""
    return max(len(sub) for sub in all_subsets(board) if predicate(CellSet(board, sub)))


def has_directed_cycle_by_subsets(g: Digraph) -> bool:
    """A digraph has a directed cycle iff some non-empty vertex subset has
    minimum internal out-degree >= 1."""
    n = g.vertex_count
    for mask in range(1, 1 << n):
        inside = {v for v in range(n) if mask >> v & 1}
        if all(any((v, w) in g.arcs for w in inside) for v in inside):
            return True
    return False


def class_has_triangle(g: Digraph, members: list[int]) -> bool:
    arcs = g.arcs
    for u, v, w in combinations(members, 3):
        if ((u, v) in arcs and (v, w) in arcs and (w, u) in arcs) or (
            (u, w) in arcs and (w, v) in arcs and (v, u) in arcs
        ):
            return True
    return False


def set_partitions(items: list):
    """Every partition of items into non-empty unordered blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for idx in range(len(partial)):
            yield partial[:idx] + [[first] + partial[idx]] + partial[idx + 1 :]
        yield [[first]] + partial


def min_colors_by_enumeration(g: Digraph, constraint: str) -> int:
    """Exact minimum over all vertex partitions, checked from the definitions."""
    from dicolor import induced

    def class_ok(members: list[int]) -> bool:
        if constraint == "triangle-free":
            return not class_has_triangle(g, members)
        return not has_directed_cycle_by_subsets(induced(g, members))

    if g.vertex_count == 0:
        return 0
    best = g.vertex_count
    for partition in set_partitions(list(range(g.vertex_count))):
        if len(partition) < best and all(class_ok(block) for block in partition):
            best = len(partition)
    return best


def random_tournament(rng: random.Random, n: int) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def random_digraph(rng: random.Random, n: int, arc_probability: float = 0.5) -> Digraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < arc_probability:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def random_c_sparse_set(rng: random.Random, board: Board) -> CellSet:
    """Greedy random maximal-ish c-sparse set (shuffled insertion order)."""
    from dicolor import is_c_sparse

    cells = list(board.cells())
    rng.shuffle(cells)
    chosen: list[Cell] = []
    for cell in cells:
        candidate = CellSet(board, chosen + [cell])
        if is_c_sparse(candidate):
            chosen.append(cell)
    return CellSet(board, chosen)


def shuffled(g: Digraph, seed: int) -> Digraph:
    """The same labeled digraph with its vertices renumbered in a seeded random order."""
    order = list(range(g.vertex_count))
    random.Random(seed).shuffle(order)
    labels = [None] * g.vertex_count
    for v, cell in enumerate(g.labels):
        labels[order[v]] = cell
    return Digraph(g.vertex_count, [(order[u], order[v]) for u, v in g.arcs], labels)

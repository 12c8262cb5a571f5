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


def _cycle_among(arcs: frozenset, vertices: list[int]) -> bool:
    """Some non-empty subset of the vertices has minimum internal out-degree >= 1."""
    for mask in range(1, 1 << len(vertices)):
        inside = [v for i, v in enumerate(vertices) if mask >> i & 1]
        if all(any((v, w) in arcs for w in inside) for v in inside):
            return True
    return False


def has_directed_cycle_by_subsets(g: Digraph) -> bool:
    """A digraph has a directed cycle iff some non-empty vertex subset has
    minimum internal out-degree >= 1."""
    return _cycle_among(frozenset(g.arcs), list(range(g.vertex_count)))


def _triangle_among(arcs: frozenset, members) -> tuple[int, int, int] | None:
    for a, b, c in combinations(sorted(set(members)), 3):
        if (a, b) in arcs and (b, c) in arcs and (c, a) in arcs:
            return (a, b, c)
        if (a, c) in arcs and (c, b) in arcs and (b, a) in arcs:
            return (a, c, b)
    return None


def first_triangle_by_scan(g: Digraph, members=None) -> tuple[int, int, int] | None:
    """The first directed triangle over member triples a < b < c in
    lexicographic order: (a, b, c) if a->b->c->a, else (a, c, b) if
    a->c->b->a; None if no triple closes one."""
    return _triangle_among(frozenset(g.arcs), range(g.vertex_count) if members is None else members)


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
    arcs = frozenset(g.arcs)

    def class_ok(members: list[int]) -> bool:
        if constraint == "triangle-free":
            return _triangle_among(arcs, members) is None
        return not _cycle_among(arcs, members)

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

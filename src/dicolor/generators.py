"""Digraphs built from checkerboards.

One orientation rule drives every construction: cells in the same column are
joined from the order-smaller to the order-larger cell, cells in different
columns from the order-larger to the order-smaller.  Applying the rule to all
cell pairs of a (2k-1) x (2k-1) board yields a tournament whose dichromatic
number is exactly k; applying it only across rows of an n x m board yields an
oriented complete balanced n-partite graph whose rows are independent sets.
"""

from __future__ import annotations

from typing import Iterable

from .board import Board, Cell, CellSet, _bits, _cell, _first_column, _index
from .digraph import Digraph, _member_mask


# Largest cell-pair count a construction may orient.  T_19 (1,369 cells,
# 936,396 pairs) is the largest board tournament under it; larger boards are
# refused before any cell is listed.  The builder itself only writes two
# bitmasks per cell (T_19: about 5 ms, a 1 MB traced peak), so the cap bounds
# what consumers of every arc pay: on T_19 (Python 3.11.7, 2 shared cores)
# copying the `arcs` view into a 936,396-pair frozenset takes about 0.6 s,
# and `digraph_to_json` about 0.75 s.
_MAX_CELL_PAIRS = 10**6


def _board_digraph(n: int, m: int, across_rows_only: bool) -> Digraph:
    """Orient the cell pairs of an n x m board, skipping same-row pairs when
    across_rows_only; vertices in cell order."""
    board = Board(n, m)
    pairs = board.cell_count * (board.cell_count - 1) // 2
    if pairs > _MAX_CELL_PAIRS:
        raise ValueError(f"{n}x{m} board has {pairs} cell pairs; generation is capped at {_MAX_CELL_PAIRS}")
    cells = board.cells()
    full = (1 << len(cells)) - 1
    first_row = (1 << m) - 1
    first_column = _first_column(board)
    out_mask = []
    in_mask = []
    for v, (i, j) in enumerate(cells):
        # v points to the later cells of its column and the earlier cells of the others.
        column = first_column << (j - 1)
        before = (1 << v) - 1
        after = full ^ before ^ (1 << v)
        others = full ^ column
        if across_rows_only:
            others &= ~(first_row << (i - 1) * m)
        out_mask.append(column & after | others & before)
        in_mask.append(column & before | others & after)
    return Digraph._from_masks(out_mask, in_mask, cells)


def tournament_from_board(n: int, m: int) -> Digraph:
    """Orient every cell pair of an n x m board; vertices in cell order.

    The exact-dichromatic-number guarantee holds only for the square
    odd-sided boards produced by build_tournament; other shapes are exposed
    for experimentation.
    """
    return _board_digraph(n, m, across_rows_only=False)


def build_tournament(k: int) -> Digraph:
    """Tournament on the (2k-1) x (2k-1) board with dichromatic number exactly k."""
    side = 2 * _index(k) - 1
    if side < 1:
        raise ValueError(f"tournament parameter must be >= 1, got {k}")
    return tournament_from_board(side, side)


def build_npartite(n: int, m: int) -> Digraph:
    """Oriented complete balanced n-partite graph with parts of size m.

    Vertices are the cells of an n x m board; each row is one independent
    part, and every cross-row pair is oriented by the board's rule.
    """
    return _board_digraph(n, m, across_rows_only=True)


def vertex_of_cell(g: Digraph, cell: Cell) -> int:
    """The vertex labeled by a cell."""
    if g.labels is None:
        raise ValueError("digraph carries no cell labels")
    key = _cell(cell)
    try:
        return g.labels.index(key)
    except ValueError:
        raise ValueError(f"no vertex is labeled {key}") from None


def cell_set_of(g: Digraph, vertices: Iterable[int]) -> CellSet:
    """The cell set labeling a vertex subset, on the digraph's full board."""
    if g.board is None:
        raise ValueError("digraph carries no cell labels covering a full board")
    # Digraph normalized every label to Cell(int, int) and set board only
    # because every label lies on it, so the cells need no second check.
    m, mask = g.board.m, 0
    for v in _bits(_member_mask(g, vertices)):
        row, col = g.labels[v]
        mask |= 1 << (row - 1) * m + col - 1
    return CellSet._from_mask(g.board, mask)

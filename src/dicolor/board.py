"""Checkerboard cells, their row-major order, sparsity predicates, and partitions.

Cells of an n x m board are indexed (row, col) starting at 1 and ordered
row-major: (i1, j1) < (i2, j2) iff i1 < i2, or i1 = i2 and j1 < j2.  A cell
set is *c-sparse* when no member of a different column lies strictly between
two same-column members under that order; the *weak* variant only forbids
members whose row lies strictly between the rows of two same-column members.

The module provides those predicates (column-span tests on a cell set's
row-major mask, see `CellSet`), the diagonal-band construction that
partitions a square board into floor(n/2)+1 c-sparse classes, deletion of
rows/columns (which preserves c-sparseness), a brute-force oracle for extremal
set sizes on small boards, and the exact minimum partition size, found by the solver.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Iterator, NamedTuple

C_SPARSE = "c-sparse"
WEAK_C_SPARSE = "weak-c-sparse"

# Hard cap for the exhaustive oracles; beyond this they refuse to run.
MAX_BRUTEFORCE_CELLS = 25

_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")


def _bit_flags(mask: int) -> bytes:
    """One byte per bit of a non-negative mask, lowest bit first: 1 if set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_ZERO_ONE)


def _bits(mask: int) -> Iterator[int]:
    """The indices of a mask's set bits, in increasing order."""
    return compress(count(), _bit_flags(mask))


def _index(x) -> int:
    """`operator.index(x)`, except that a bool (JSON true/false) is not an integer."""
    if x.__class__ is bool:
        raise TypeError("booleans are not integers")
    return operator.index(x)


class Cell(NamedTuple):
    """A board position with 1-based coordinates.

    Tuple comparison gives exactly the row-major total order used everywhere:
    rows compare first, columns break ties.
    """

    row: int
    col: int


def _cell(pair) -> Cell:
    """A pair of integers read through `_index`, as a `Cell`."""
    r, c = pair
    return Cell(_index(r), _index(c))


@dataclass(frozen=True)
class Board:
    """An n x m grid of cells (1..n rows, 1..m columns)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        n, m = _index(self.n), _index(self.m)
        if n < 1 or m < 1:
            raise ValueError(f"board dimensions must be >= 1, got {n}x{m}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def cell_count(self) -> int:
        return self.n * self.m

    def cells(self) -> tuple[Cell, ...]:
        """All cells in row-major order, listed once per board: entry i is bit i of a cell mask."""
        if "_cells" not in self.__dict__:
            cells = tuple(Cell(i, j) for i in range(1, self.n + 1) for j in range(1, self.m + 1))
            object.__setattr__(self, "_cells", cells)
        return self.__dict__["_cells"]

    def __contains__(self, cell: object) -> bool:
        try:
            r, c = _cell(cell)
        except (TypeError, ValueError):  # not a pair of ints
            return False
        return 1 <= r <= self.n and 1 <= c <= self.m


def _first_column(board: Board) -> int:
    """The mask of column 1, bit (i-1)*m for every row i; shift it by j-1 for column j."""
    return ((1 << board.cell_count) - 1) // ((1 << board.m) - 1)


@dataclass(frozen=True)
class CellSet:
    """A subset of a board's cells, stored as one row-major cell mask.

    Cell (r, c) of an n x m board is bit (r-1)*m + (c-1) of `mask`, the
    vertex a naturally labeled board digraph gives it, so bit order is cell
    order.  `cells`, iteration (in row-major order), `len` and `in` are read
    off the mask; equality and hashing compare board and mask.
    """

    board: Board
    mask: int

    def __init__(self, board: Board, cells: Iterable[Cell]) -> None:
        mask = 0
        for r, c in map(_cell, cells):
            if not (1 <= r <= board.n and 1 <= c <= board.m):
                raise ValueError(f"cell {Cell(r, c)} is outside the {board.n}x{board.m} board")
            mask |= 1 << (r - 1) * board.m + c - 1
        object.__setattr__(self, "board", board)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, board: Board, mask: int) -> CellSet:
        """A cell set from a mask the caller knows has no bit past the board's last cell."""
        s = object.__new__(cls)
        object.__setattr__(s, "board", board)
        object.__setattr__(s, "mask", mask)
        return s

    @property
    def cells(self) -> frozenset[Cell]:
        return frozenset(self)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[Cell]:
        return compress(self.board.cells(), _bit_flags(self.mask))

    def __contains__(self, cell: object) -> bool:
        try:
            return self.mask & CellSet(self.board, [cell]).mask != 0
        except (TypeError, ValueError):  # not an on-board pair of ints
            return False


@dataclass(frozen=True)
class CellPartition:
    """An ordered partition of a full board into non-empty cell classes."""

    board: Board
    classes: tuple[CellSet, ...]

    def __init__(self, board: Board, classes: Iterable[CellSet]) -> None:
        cls = tuple(classes)
        seen = 0
        for part in cls:
            if part.board != board:
                raise ValueError("partition class lives on a different board")
            if not part.mask:
                raise ValueError("partition classes must be non-empty")
            if seen & part.mask:
                raise ValueError("partition classes must be pairwise disjoint")
            seen |= part.mask
        if seen != (1 << board.cell_count) - 1:
            raise ValueError("partition classes must cover every cell of the board")
        object.__setattr__(self, "board", board)
        object.__setattr__(self, "classes", cls)

    def __len__(self) -> int:
        return len(self.classes)

    def class_of(self) -> dict[Cell, int]:
        """Map each cell to the index of its class."""
        return {cell: idx for idx, part in enumerate(self.classes) for cell in part}


def is_c_sparse(s: CellSet) -> bool:
    """Whether no member of another column sits strictly between two same-column members.

    Only each column's extremes matter: a member between any two members of
    a column lies between its lowest and highest.  So per column with two or
    more members, no other member may have a bit strictly between the
    column's lowest and highest bit.  Empty sets and singletons pass vacuously.
    """
    mask, column = s.mask, _first_column(s.board)
    for j in range(s.board.m):
        same = mask & column << j
        if same & same - 1 and (mask ^ same) & (1 << same.bit_length() - 1) - ((same & -same) << 1):
            return False
    return True


def is_weak_c_sparse(s: CellSet) -> bool:
    """Whether no member of another column has a row strictly between two same-column rows.

    As for `is_c_sparse`, only each column's row span matters: no other
    member may lie in a row strictly between the rows of the column's lowest
    and highest bit.  Every c-sparse set is also weak-c-sparse.
    """
    mask, column, m = s.mask, _first_column(s.board), s.board.m
    for j in range(m):
        same = mask & column << j
        if same & same - 1:
            lo, hi = ((same & -same).bit_length() - 1) // m, (same.bit_length() - 1) // m
            if (mask ^ same) & (1 << hi * m) - (1 << (lo + 1) * m):
                return False
    return True


def _require_square(board: Board) -> None:
    if board.n != board.m:
        raise ValueError(f"operation requires a square board, got {board.n}x{board.m}")


def _band_index(cell: Cell, n: int) -> int:
    # On the odd side s = n | 1, the diagonal offsets 2k, 2k+1, 2k-s and
    # 2k-s-1 are exactly the row - col residues 2k and 2k+1 mod s+1.
    return (cell.row - cell.col) % ((n | 1) + 1) // 2


def diagonal_band(board: Board, k: int) -> CellSet:
    """One class of the optimal construction on an odd square board.

    The band is the union of the diagonals with offsets 2k, 2k+1, 2k-n and
    2k-n-1, i.e. a two-diagonal stripe plus its wrap-around companion.  Each
    band is c-sparse, and the bands for k = 0..(n-1)/2 partition the board.
    It is class k of `optimal_c_sparse_partition`, whose side cap it shares.
    """
    _require_square(board)
    n, k = board.n, _index(k)
    if n % 2 == 0:
        raise ValueError(f"diagonal bands are defined for odd side lengths, got n={n}")
    if not 0 <= k <= (n - 1) // 2:
        raise ValueError(f"band index {k} outside 0..{(n - 1) // 2}")
    return optimal_c_sparse_partition(board).classes[k]


def restrict(s: CellSet, keep_rows: Iterable[int], keep_cols: Iterable[int]) -> CellSet:
    """Delete all rows/columns outside the keep sets and re-index the survivors.

    Surviving cells are renumbered by the rank of their original row/column
    within the keep sets, so the sub-board ordering is the one induced from
    the original board.  Restriction preserves c-sparseness.
    """
    rows = sorted(set(map(_index, keep_rows)))
    cols = sorted(set(map(_index, keep_cols)))
    if not rows or not cols:
        raise ValueError("keep sets must be non-empty")
    if rows[0] < 1 or rows[-1] > s.board.n or cols[0] < 1 or cols[-1] > s.board.m:
        raise ValueError("keep sets must be subsets of the board's row/column ranges")
    row_rank = {r: i + 1 for i, r in enumerate(rows)}
    col_rank = {c: i + 1 for i, c in enumerate(cols)}
    sub = Board(len(rows), len(cols))
    kept = [(row_rank[r], col_rank[c]) for r, c in s if r in row_rank and c in col_rank]
    return CellSet(sub, kept)


# Largest side the construction accepts; larger boards, and partition
# documents naming more cells than its square, are refused before any cell is
# listed or any cell mask built.  Side 500 takes about 6 s and 165 MB through
# the CLI with --svg, and exceeds the side (316) of any square board in the
# JSON vertex cap.
_MAX_PARTITION_SIDE = 500
# Largest class count x cell count a partition document may name: `class_of`
# and the SVG walk each class mask across the board, so a 200x200 board of
# 40,000 one-cell classes took 12 s in `class_of`.  Side-500 bands fit.
_MAX_PARTITION_BITS = 2**26


def optimal_c_sparse_partition(board: Board) -> CellPartition:
    """A c-sparse partition of a square board into floor(n/2)+1 classes.

    Odd n: the diagonal bands.  Even n: the bands of the (n+1)x(n+1) board
    with its last row and column deleted, which only clips them: no class
    empties, and deletion preserves c-sparseness.  One pass ORs each cell's
    bit into its band's mask.  floor(n/2)+1 classes is the optimum.
    """
    _require_square(board)
    n = board.n
    if n > _MAX_PARTITION_SIDE:
        raise ValueError(f"{n}x{n} board exceeds the construction's side cap of {_MAX_PARTITION_SIDE}")
    bands = [0] * (n // 2 + 1)
    for bit, cell in enumerate(board.cells()):
        bands[_band_index(cell, n)] |= 1 << bit
    return CellPartition(board, [CellSet._from_mask(board, band) for band in bands])


def _check_bruteforce_size(board: Board) -> None:
    if board.cell_count > MAX_BRUTEFORCE_CELLS:
        raise ValueError(
            f"{board.n}x{board.m} board has {board.cell_count} cells; "
            f"brute force is capped at {MAX_BRUTEFORCE_CELLS}"
        )


def _extends_c_sparse(chosen: int, same: int, bit: int, m: int) -> bool:
    # The new cell is the set's maximum, so it may join its column only
    # directly after that column's last member: the previous maximum.
    return not same or same.bit_length() == chosen.bit_length()


def _extends_weak_c_sparse(chosen: int, same: int, bit: int, m: int) -> bool:
    # Rows arrive non-decreasing, so the column's lowest bit has its minimum
    # row; no other member may sit in a row strictly between that and the cell's.
    return not same or not (chosen ^ same) & (1 << bit // m * m) - (1 << ((same & -same).bit_length() - 1) // m * m + m)


# Per mode, whether the cell at `bit` extends a feasible set `chosen` whose
# members all precede it; `same` is the part of chosen in the cell's column.
_STEP_TESTS = {C_SPARSE: _extends_c_sparse, WEAK_C_SPARSE: _extends_weak_c_sparse}


def bruteforce_max_sparse(board: Board, mode: str = C_SPARSE) -> tuple[int, CellSet]:
    """Exhaustive maximum-size set satisfying the sparsity predicate.

    Branch and bound over subsets in cell order.  Both predicates are
    antitone (supersets of violating sets violate), so branches extend only
    while the chosen prefix stays feasible, which the mode's step test
    decides from the prefix alone; a cardinality bound prunes the rest.
    Returns the size and the first maximum witness in search order.
    """
    extends = _STEP_TESTS.get(mode)
    if extends is None:
        raise ValueError(f"unknown sparsity mode {mode!r}; expected one of {tuple(_STEP_TESTS)}")
    _check_bruteforce_size(board)
    total, m = board.cell_count, board.m
    column = _first_column(board)
    best = 0

    def extend(bit: int, chosen: int) -> None:
        nonlocal best
        if chosen.bit_count() + total - bit <= best.bit_count():
            return
        if bit == total:
            best = chosen
            return
        if extends(chosen, chosen & column << bit % m, bit, m):
            extend(bit + 1, chosen | 1 << bit)
        extend(bit + 1, chosen)

    extend(0, 0)
    return best.bit_count(), CellSet._from_mask(board, best)


def bruteforce_min_partition(board: Board) -> tuple[int, CellPartition]:
    """Exact minimum number of c-sparse classes partitioning the board.

    A cell set is c-sparse exactly when its cells induce an acyclic
    sub-digraph of the board's tournament, so this is the exact dichromatic
    number of `tournament_from_board`, with the optimal coloring's classes
    mapped back to cells.  Returns the count with a witness partition.  The
    count is always proven by search; on square boards the witness may be
    the diagonal-band partition, which the solver tries as its upper bound.
    """
    # Function-level imports: digraph, generators and solvers import this module.
    from .generators import cell_set_of, tournament_from_board
    from .solvers import OPTIMAL, dichromatic_number

    _check_bruteforce_size(board)
    g = tournament_from_board(board.n, board.m)
    result = dichromatic_number(g)
    if result.status != OPTIMAL:
        raise RuntimeError(f"{board.n}x{board.m} partition search ended {result.status}")
    classes = [cell_set_of(g, vs) for vs in result.certificate.color_classes()]
    return result.value, CellPartition(board, classes)


def partition_to_json(p: CellPartition) -> dict:
    """Serialize a partition to {"n", "m", "classes"} with 1-based cells."""
    return {
        "n": p.board.n,
        "m": p.board.m,
        "classes": [[[cell.row, cell.col] for cell in part] for part in p.classes],
    }


def partition_from_json(doc: dict) -> CellPartition:
    """Parse and validate a partition document."""
    try:
        classes = doc["classes"]
        board = Board(doc["n"], doc["m"])
        if board.cell_count > _MAX_PARTITION_SIDE**2:
            raise ValueError(f"{board.n}x{board.m} board exceeds the {_MAX_PARTITION_SIDE**2}-cell partition cap")
        if len(classes) * board.cell_count > _MAX_PARTITION_BITS:
            raise ValueError(f"{len(classes)} classes x {board.cell_count} cells exceeds the {_MAX_PARTITION_BITS} cap")
        return CellPartition(board, [CellSet(board, part) for part in classes])
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed cell document: {exc}") from exc

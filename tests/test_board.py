import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dicolor import (
    Board,
    Cell,
    CellPartition,
    CellSet,
    bruteforce_max_sparse,
    bruteforce_min_partition,
    diagonal_band,
    is_c_sparse,
    is_weak_c_sparse,
    optimal_c_sparse_partition,
    restrict,
)
from oracles import (
    all_subsets,
    c_sparse_by_definition,
    max_sparse_by_enumeration,
    set_partitions,
    weak_c_sparse_by_definition,
)

cells_st = st.builds(Cell, st.integers(1, 6), st.integers(1, 6))


@st.composite
def board_cell_sets(draw, min_size=0):
    """A 5x5, 7x7 or 3x7 board and up to 12 of its cells: several middle rows, m up to 7."""
    board = draw(st.sampled_from([Board(5, 5), Board(7, 7), Board(3, 7)]))
    cells = st.builds(Cell, st.integers(1, board.n), st.integers(1, board.m))
    return board, draw(st.frozensets(cells, min_size=min_size, max_size=12))


def small_boards(max_cells):
    return [
        Board(n, m)
        for n in range(1, max_cells + 1)
        for m in range(1, max_cells + 1)
        if n * m <= max_cells
    ]


class TestCellOrder:
    def test_row_dominates(self):
        assert Cell(1, 3) < Cell(2, 1) and not Cell(2, 1) < Cell(1, 3)

    def test_equal(self):
        assert Cell(2, 2) == Cell(2, 2) and not Cell(2, 2) < Cell(2, 2)

    def test_column_breaks_ties(self):
        assert Cell(2, 5) > Cell(2, 3) and not Cell(2, 5) < Cell(2, 3)

    @given(cells_st, cells_st)
    def test_antisymmetric_and_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1
        assert (a < b) == (a.row < b.row or (a.row == b.row and a.col < b.col))

    @given(cells_st, cells_st, cells_st)
    def test_transitive(self, a, b, c):
        if a < b and b < c:
            assert a < c


class TestPredicates:
    def test_between_violation(self):
        s = CellSet(Board(2, 2), [(1, 1), (1, 2), (2, 1)])
        assert not is_c_sparse(s)
        assert is_weak_c_sparse(s)  # no row strictly between 1 and 2

    def test_full_column_is_sparse(self):
        for n in (1, 3, 5):
            s = CellSet(Board(n, 1), [(i, 1) for i in range(1, n + 1)])
            assert is_c_sparse(s)
            assert is_weak_c_sparse(s)

    def test_weak_violation(self):
        s = CellSet(Board(3, 2), [(1, 1), (2, 2), (3, 1)])
        assert not is_weak_c_sparse(s)

    def test_empty_and_singletons(self):
        board = Board(3, 3)
        assert is_c_sparse(CellSet(board, []))
        for cell in board.cells():
            assert is_c_sparse(CellSet(board, [cell]))

    def test_matches_definition_exhaustively(self):
        for board in small_boards(9):
            for cells in all_subsets(board):
                s = CellSet(board, cells)
                assert is_c_sparse(s) == c_sparse_by_definition(s)
                assert is_weak_c_sparse(s) == weak_c_sparse_by_definition(s)

    @given(board_cell_sets())
    def test_c_sparse_implies_weak(self, case):
        s = CellSet(*case)
        if is_c_sparse(s):
            assert is_weak_c_sparse(s)

    @given(board_cell_sets(min_size=1))
    def test_predicates_antitone_under_deletion(self, case):
        board, cells = case
        s = CellSet(board, cells)
        for dropped in cells:
            smaller = CellSet(board, cells - {dropped})
            if is_c_sparse(s):
                assert is_c_sparse(smaller)
            if is_weak_c_sparse(s):
                assert is_weak_c_sparse(smaller)

    @given(board_cell_sets())
    def test_matches_definition_on_larger_boards(self, case):
        s = CellSet(*case)
        assert is_c_sparse(s) == c_sparse_by_definition(s)
        assert is_weak_c_sparse(s) == weak_c_sparse_by_definition(s)


class TestMaskCellSet:
    """A cell set is its board and one row-major mask: cell (r, c) is bit (r-1)*m + (c-1)."""

    def test_from_mask_equals_the_validating_constructor(self):
        for board in small_boards(9):
            listed = list(board.cells())
            for mask in range(1 << board.cell_count):
                cells = [cell for i, cell in enumerate(listed) if mask >> i & 1]
                fast, slow = CellSet._from_mask(board, mask), CellSet(board, cells[::-1])
                assert fast == slow and hash(fast) == hash(slow) and slow.mask == mask
                assert list(fast) == list(slow) == cells
                assert len(fast) == len(slow) == len(cells)
                assert fast.cells == slow.cells == frozenset(cells)
                assert all(type(cell) is Cell for cell in fast.cells)
                assert [cell in fast for cell in listed] == [mask >> i & 1 == 1 for i in range(len(listed))]

    def test_differs_by_board_or_mask(self):
        s = CellSet(Board(2, 3), [(1, 1), (2, 3)])
        same_mask = CellSet(Board(3, 2), [(1, 1), (3, 2)])
        assert s.mask == same_mask.mask == 0b100001 and s != same_mask
        assert s != CellSet(Board(2, 3), [(1, 1)])
        assert s == CellSet(Board(2, 3), [(2, 3), (1, 1), (1, 1)])

    def test_malformed_probes_are_not_members(self):
        board = Board(3, 3)
        full = CellSet(board, board.cells())
        for probe in ((1,), "ab", (0, 1), (1.5, 1), (1, 4), (4, 1), (1, 1, 1), 7, None):
            assert probe not in full
        assert (1, 1) in full and Cell(3, 3) in full and [2, 2] in full

    def test_is_immutable(self):
        s = CellSet(Board(2, 2), [(1, 1)])
        for name in ("board", "mask", "cells"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)


class TestDiagonals:
    def test_bands_are_the_papers_diagonal_offsets(self):
        # Band k is the union of the diagonals x - y in {2k, 2k+1, 2k-n, 2k-n-1},
        # both as diagonal_band builds it and as the partition's class k.
        for n in range(1, 22, 2):
            board = Board(n, n)
            classes = optimal_c_sparse_partition(board).classes
            for k in range((n + 1) // 2):
                offsets = {2 * k, 2 * k + 1, 2 * k - n, 2 * k - n - 1}
                expected = {c for c in board.cells() if c.row - c.col in offsets}
                assert diagonal_band(board, k).cells == expected
                assert classes[k].cells == expected

    def test_band_k0_on_7x7(self):
        board = Board(7, 7)
        band = diagonal_band(board, 0)
        # offsets -7 and -8 fall outside, leaving the two main stripes
        expected = {c for c in board.cells() if c.row - c.col in (0, 1)}
        assert band.cells == expected
        assert len(band) == 13

    def test_band_k3_on_7x7(self):
        board = Board(7, 7)
        band = diagonal_band(board, 3)
        expected = {c for c in board.cells() if c.row - c.col in (6, 7, -1, -2)}
        assert band.cells == expected

    def test_requires_square(self):
        with pytest.raises(ValueError):
            diagonal_band(Board(3, 2), 0)

    def test_bands_are_c_sparse(self):
        for n in range(1, 16, 2):
            board = Board(n, n)
            for k in range((n + 1) // 2):
                assert is_c_sparse(diagonal_band(board, k))

    def test_bands_partition_the_board(self):
        for n in range(1, 16, 2):
            board = Board(n, n)
            seen = set()
            for k in range((n + 1) // 2):
                band = diagonal_band(board, k)
                assert not (seen & band.cells)
                seen |= band.cells
            assert seen == set(board.cells())

    def test_band_side_over_the_construction_cap_is_refused(self):
        with pytest.raises(ValueError, match="cap"):
            diagonal_band(Board(501, 501), 0)

    def test_band_rejects_even_or_out_of_range(self):
        with pytest.raises(ValueError):
            diagonal_band(Board(4, 4), 0)
        with pytest.raises(ValueError):
            diagonal_band(Board(7, 7), 4)
        with pytest.raises(ValueError):
            diagonal_band(Board(7, 7), -1)


class TestOptimalPartition:
    def test_class_counts(self):
        assert len(optimal_c_sparse_partition(Board(7, 7))) == 4
        assert len(optimal_c_sparse_partition(Board(1, 1))) == 1
        assert len(optimal_c_sparse_partition(Board(4, 4))) == 3

    def test_single_cell(self):
        p = optimal_c_sparse_partition(Board(1, 1))
        assert p.classes[0].cells == {Cell(1, 1)}

    def test_counts_and_sparsity_up_to_15(self):
        for n in range(1, 16):
            p = optimal_c_sparse_partition(Board(n, n))
            assert len(p) == n // 2 + 1
            assert all(is_c_sparse(part) for part in p.classes)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            optimal_c_sparse_partition(Board(3, 4))

    def test_even_boards_are_the_next_odd_construction_with_last_row_and_column_deleted(self):
        for n in range(2, 21, 2):
            keep = range(1, n + 1)
            odd = optimal_c_sparse_partition(Board(n + 1, n + 1))
            even = optimal_c_sparse_partition(Board(n, n))
            deleted = [restrict(part, keep, keep).cells for part in odd.classes]
            assert [part.cells for part in even.classes] == deleted

    def test_oversized_side_refused_before_any_band_is_built(self, monkeypatch):
        def listed(board):
            raise AssertionError("cells were listed")

        monkeypatch.setattr(Board, "cells", listed)
        for n in (501, 502, 10**9):
            with pytest.raises(ValueError, match="cap"):
                optimal_c_sparse_partition(Board(n, n))


class TestRestrict:
    def test_reindexing(self):
        s = CellSet(Board(3, 3), [(1, 1), (2, 1), (3, 1)])
        out = restrict(s, {1, 3}, {1, 2})
        assert out.board == Board(2, 2)
        assert out.cells == {Cell(1, 1), Cell(2, 1)}

    def test_empty_set(self):
        out = restrict(CellSet(Board(3, 3), []), {1, 2}, {2, 3})
        assert not out.cells

    def test_rejects_empty_keep_sets(self):
        s = CellSet(Board(3, 3), [(1, 1)])
        with pytest.raises(ValueError):
            restrict(s, set(), {1})
        with pytest.raises(ValueError):
            restrict(s, {1}, set())

    def test_rejects_out_of_range_keeps(self):
        s = CellSet(Board(3, 3), [(1, 1)])
        with pytest.raises(ValueError):
            restrict(s, {0, 1}, {1})
        with pytest.raises(ValueError):
            restrict(s, {1}, {4})

    def test_rejects_fractional_keeps(self):
        s = CellSet(Board(3, 3), [(1, 1), (2, 1)])
        with pytest.raises(TypeError):
            restrict(s, [1.7, 2], [1])
        with pytest.raises(TypeError):
            restrict(s, [1], [1.5])

    def test_preserves_c_sparseness_exhaustively(self):
        board = Board(3, 3)
        keeps = [{1}, {2}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
        for cells in all_subsets(board):
            s = CellSet(board, cells)
            if not is_c_sparse(s):
                continue
            for kr in keeps:
                for kc in keeps:
                    assert is_c_sparse(restrict(s, kr, kc))


class TestMaxSparseOracle:
    def test_single_column_attains_size_n(self):
        for n in range(1, 6):
            for mode in ("c-sparse", "weak-c-sparse"):
                size, witness = bruteforce_max_sparse(Board(n, 1), mode)
                assert size == n
                assert len(witness) == n

    def test_single_cell(self):
        for mode in ("c-sparse", "weak-c-sparse"):
            assert bruteforce_max_sparse(Board(1, 1), mode)[0] == 1

    def test_3x3_matches_subset_enumeration(self):
        board = Board(3, 3)
        size_c, _ = bruteforce_max_sparse(board, "c-sparse")
        size_w, _ = bruteforce_max_sparse(board, "weak-c-sparse")
        assert size_c == max_sparse_by_enumeration(board, c_sparse_by_definition) == 5
        assert size_w == max_sparse_by_enumeration(board, weak_c_sparse_by_definition) == 6
        assert size_c <= 5  # 2n-1 and n+m-1 both give 5 here

    def test_matches_enumeration_on_small_boards(self):
        for board in small_boards(9):
            size, witness = bruteforce_max_sparse(board, "c-sparse")
            assert size == max_sparse_by_enumeration(board, c_sparse_by_definition)
            assert is_c_sparse(witness) and len(witness) == size
            size_w, witness_w = bruteforce_max_sparse(board, "weak-c-sparse")
            assert size_w == max_sparse_by_enumeration(board, weak_c_sparse_by_definition)
            assert is_weak_c_sparse(witness_w) and len(witness_w) == size_w

    def test_pinned_witnesses(self):
        # The first maximum witness in search order, so any change to the
        # search order shows here.
        def row(r, cols):
            return [(r, c) for c in cols]

        def col(c, rows):
            return [(r, c) for r in rows]

        pins = {
            ((3, 3), "c-sparse"): row(1, range(1, 4)) + col(3, (2, 3)),
            ((3, 3), "weak-c-sparse"): row(1, range(1, 4)) + row(2, range(1, 4)),
            ((4, 4), "c-sparse"): row(1, range(1, 5)) + col(4, (2, 3, 4)),
            ((4, 4), "weak-c-sparse"): row(1, range(1, 4)) + row(2, range(1, 5)) + col(4, (3, 4)),
            ((2, 8), "c-sparse"): row(1, range(1, 9)) + [(2, 8)],
            ((2, 8), "weak-c-sparse"): row(1, range(1, 9)) + row(2, range(1, 9)),
            ((5, 5), "c-sparse"): row(1, range(1, 6)) + col(5, (2, 3, 4, 5)),
            ((5, 5), "weak-c-sparse"): row(1, range(1, 5)) + row(2, range(1, 6)) + col(5, (3, 4, 5)),
        }
        for ((n, m), mode), cells in pins.items():
            size, witness = bruteforce_max_sparse(Board(n, m), mode)
            assert (size, list(witness)) == (len(cells), cells), (n, m, mode)

    def test_guard(self):
        with pytest.raises(ValueError, match="capped"):
            bruteforce_max_sparse(Board(6, 5))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bruteforce_max_sparse(Board(2, 2), "sparse-ish")


class TestMinPartitionOracle:
    def test_known_values(self):
        assert bruteforce_min_partition(Board(1, 1))[0] == 1
        assert bruteforce_min_partition(Board(3, 3))[0] == 2
        assert bruteforce_min_partition(Board(5, 5))[0] == 3

    def test_witness_is_valid(self):
        count, witness = bruteforce_min_partition(Board(4, 4))
        assert len(witness) == count == 3
        assert all(is_c_sparse(part) for part in witness.classes)

    def test_matches_partition_enumeration(self):
        for board in (Board(2, 2), Board(2, 3), Board(3, 2)):
            cells = list(board.cells())
            best = min(
                len(partition)
                for partition in set_partitions(cells)
                if all(c_sparse_by_definition(CellSet(board, block)) for block in partition)
            )
            assert bruteforce_min_partition(board)[0] == best

    def test_guard(self):
        with pytest.raises(ValueError, match="capped"):
            bruteforce_min_partition(Board(6, 5))


class TestConstruction:
    def test_board_validation(self):
        with pytest.raises(ValueError):
            Board(0, 3)
        with pytest.raises(ValueError):
            Board(3, -1)
        with pytest.raises(TypeError):
            Board(2.5, 3)
        with pytest.raises(TypeError):
            optimal_c_sparse_partition(Board(2.5, 2.5))

    def test_cells_are_listed_once_per_board(self):
        board = Board(3, 4)
        assert board.cells() is board.cells()
        assert board.cells() == tuple(Cell(i, j) for i in range(1, 4) for j in range(1, 5))

    def test_cellset_bounds(self):
        with pytest.raises(ValueError):
            CellSet(Board(2, 2), [(3, 1)])
        with pytest.raises(ValueError):
            CellSet(Board(2, 2), [(1, 0)])

    def test_partition_validation(self):
        board = Board(2, 1)
        a = CellSet(board, [(1, 1)])
        b = CellSet(board, [(2, 1)])
        CellPartition(board, [a, b])
        for classes, message in (
            ([a], "partition classes must cover every cell of the board"),
            ([a, a, b], "partition classes must be pairwise disjoint"),
            ([a, CellSet(board, []), b], "partition classes must be non-empty"),
            ([a, CellSet(Board(1, 2), [(1, 2)])], "partition class lives on a different board"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CellPartition(board, classes)

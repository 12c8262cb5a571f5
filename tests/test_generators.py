import random
import tracemalloc

import pytest

from dicolor import (
    Board,
    Cell,
    CellSet,
    Digraph,
    build_npartite,
    build_tournament,
    cell_set_of,
    dichromatic_number,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    find_directed_triangle,
    induced,
    is_acyclic,
    is_c_sparse,
    is_tournament,
    is_weak_c_sparse,
    tournament_from_board,
    vertex_of_cell,
)
from oracles import board_arcs_by_rule, shuffled


def cell_arcs(g):
    return {(g.labels[u], g.labels[v]) for u, v in g.arcs}


class TestOrientPair:
    """The board's rule on single cell pairs, read off the generated arcs."""

    def test_same_column_goes_forward(self):
        assert (Cell(1, 1), Cell(3, 1)) in cell_arcs(build_tournament(2))
        assert (Cell(1, 1), Cell(3, 1)) in cell_arcs(build_npartite(3, 2))

    def test_cross_column_goes_backward(self):
        assert (Cell(2, 2), Cell(1, 1)) in cell_arcs(build_tournament(2))
        assert (Cell(2, 2), Cell(1, 1)) in cell_arcs(build_npartite(3, 2))

    def test_same_row_counts_as_cross_column(self):
        assert (Cell(1, 2), Cell(1, 1)) in cell_arcs(build_tournament(2))
        # the n-partite digraph joins no same-row pair
        assert all(a.row != b.row for a, b in cell_arcs(build_npartite(3, 2)))


class TestTournament:
    def test_k1(self):
        g = build_tournament(1)
        assert g.vertex_count == 1 and not g.arcs

    def test_k2_counts(self):
        g = build_tournament(2)
        assert g.vertex_count == 9 and len(g.arcs) == 36
        assert is_tournament(g)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            build_tournament(0)

    def test_vertices_follow_cell_order(self):
        g = build_tournament(2)
        assert g.labels[0] == Cell(1, 1)
        assert g.labels[8] == Cell(3, 3)

    def test_round_trip_bijection(self):
        g = build_tournament(2)
        for v in range(g.vertex_count):
            assert vertex_of_cell(g, g.labels[v]) == v

    def test_arcs_follow_orientation_rule(self):
        assert cell_arcs(tournament_from_board(2, 3)) == board_arcs_by_rule(2, 3)
        assert cell_arcs(build_tournament(2)) == board_arcs_by_rule(3, 3)
        assert cell_arcs(build_npartite(3, 2)) == board_arcs_by_rule(3, 2, same_row_arcs=False)

    def test_single_column_induces_transitive_chain(self):
        g = build_tournament(2)
        column = [vertex_of_cell(g, Cell(i, 2)) for i in (1, 2, 3)]
        sub = induced(g, column)
        assert is_acyclic(sub)
        assert sub.arcs == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_single_row_induces_acyclic(self):
        g = build_tournament(3)
        for i in range(1, 6):
            row = [vertex_of_cell(g, Cell(i, j)) for j in range(1, 6)]
            assert is_acyclic(induced(g, row))


class TestNPartite:
    def test_counts(self):
        g = build_npartite(3, 2)
        assert g.vertex_count == 6 and len(g.arcs) == 12

    def test_single_part_has_no_arcs(self):
        for m in (1, 2, 5):
            g = build_npartite(1, m)
            assert g.vertex_count == m and not g.arcs

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_npartite(0, 2)
        with pytest.raises(ValueError):
            build_npartite(2, 0)

    def test_arc_count_formula(self):
        for n in range(1, 5):
            for m in range(1, 5):
                g = build_npartite(n, m)
                total_pairs = g.vertex_count * (g.vertex_count - 1) // 2
                same_row_pairs = n * (m * (m - 1) // 2)
                assert len(g.arcs) == total_pairs - same_row_pairs

    def test_rows_are_independent(self):
        g = build_npartite(3, 3)
        for u, v in g.arcs:
            assert g.labels[u].row != g.labels[v].row

    def test_contains_known_triangle(self):
        g = build_npartite(3, 2)
        a = vertex_of_cell(g, Cell(1, 1))
        b = vertex_of_cell(g, Cell(2, 2))
        c = vertex_of_cell(g, Cell(3, 1))
        # orientation rule: (1,1)->(3,1) same column, (3,1)->(2,2) and (2,2)->(1,1) cross column
        assert {(a, c), (c, b), (b, a)} <= g.arcs
        assert find_directed_triangle(g, within={a, b, c}) is not None

    def test_same_column_chain_acyclic(self):
        g = build_npartite(4, 3)
        column = [vertex_of_cell(g, Cell(i, 2)) for i in range(1, 5)]
        assert is_acyclic(induced(g, column))


class TestSizeCap:
    def test_oversized_boards_refused_before_any_cell_is_listed(self, monkeypatch):
        def listed(board):
            raise AssertionError("cells were listed")

        monkeypatch.setattr(Board, "cells", listed)
        with pytest.raises(ValueError, match="capped"):
            build_tournament(20)  # 1,521 cells, 1,155,960 pairs
        with pytest.raises(ValueError, match="capped"):
            build_npartite(10**6, 10**6)
        with pytest.raises(ValueError, match="capped"):
            tournament_from_board(1, 1415)  # 1,000,405 pairs
        # T_19 has 936,396 cell pairs, under the cap, so it gets as far as listing its cells
        with pytest.raises(AssertionError, match="listed"):
            build_tournament(19)


def rule_digraph(n, m, same_row_arcs=True):
    """What the validating constructor builds from the paper's rule on an n x m board."""
    cells = list(Board(n, m).cells())
    vertex = {cell: v for v, cell in enumerate(cells)}
    arcs = [(vertex[a], vertex[b]) for a, b in board_arcs_by_rule(n, m, same_row_arcs)]
    return Digraph(len(cells), arcs, cells)


def transpose(masks):
    flipped = [0] * len(masks)
    for u, mask in enumerate(masks):
        for v in range(len(masks)):
            if mask >> v & 1:
                flipped[v] |= 1 << u
    return tuple(flipped)


class TestMaskBuilder:
    """The generators build bitmasks directly; they must match the paper's rule."""

    def test_equals_the_validating_constructor_on_the_rule(self):
        boards = [(n, m) for n in range(1, 8) for m in range(1, 8)]
        cases = [(f"T({n}x{m})", tournament_from_board(n, m), rule_digraph(n, m)) for n, m in boards]
        cases += [(f"P({n}x{m})", build_npartite(n, m), rule_digraph(n, m, False)) for n, m in boards]
        cases += [(f"T_{k}", build_tournament(k), rule_digraph(2 * k - 1, 2 * k - 1)) for k in range(1, 7)]
        for name, g, expected in cases:
            assert g.out_mask == expected.out_mask, name
            assert g.in_mask == expected.in_mask == transpose(g.out_mask), name
            assert digraph_to_json(g) == digraph_to_json(expected), name
            assert digraph_to_dot(g) == digraph_to_dot(expected), name
            assert repr(g) == repr(expected), name
            assert g.arcs == expected.arcs, name
            assert g.labels == expected.labels and g.board == expected.board, name

    def test_generating_serializing_and_solving_build_no_arc_set(self):
        # The two mask tuples are all a digraph stores; `arcs` is a view of them.
        assert set(Digraph.__slots__) == {"vertex_count", "out_mask", "in_mask", "labels", "board"}
        g = build_tournament(3)
        repr(g), is_tournament(g), digraph_to_json(g), digraph_to_dot(g)
        assert dichromatic_number(g).value == 3
        assert not hasattr(g, "__dict__")

    def test_largest_tournament_builds_in_little_memory(self):
        tracemalloc.start()
        try:
            g = build_tournament(19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert g.vertex_count == 1369 and is_tournament(g)


class TestLabelBridges:
    def test_unlabeled_errors(self):
        bare = Digraph(3, [(0, 1)])
        assert bare.board is None
        with pytest.raises(ValueError, match="no cell labels"):
            vertex_of_cell(bare, Cell(1, 1))
        with pytest.raises(ValueError, match="no cell labels"):
            cell_set_of(bare, [0])

    def test_vertex_of_cell_inverts_shuffled_labels(self):
        g = shuffled(build_tournament(3), 5)
        for v, cell in enumerate(g.labels):
            assert vertex_of_cell(g, cell) == v
        with pytest.raises(ValueError, match="no vertex is labeled"):
            vertex_of_cell(g, Cell(6, 1))
        with pytest.raises(ValueError, match="no cell labels"):
            vertex_of_cell(Digraph(3, [(0, 1)]), Cell(1, 1))

    def test_labeled_board_of_generated(self):
        assert build_npartite(3, 2).board == Board(3, 2)
        assert build_tournament(3).board == Board(5, 5)
        assert tournament_from_board(2, 3).board == Board(2, 3)
        # The board is read off the labels, whatever the vertex order.
        assert shuffled(build_tournament(3), seed=0).board == Board(5, 5)
        for g in (build_npartite(3, 2), shuffled(build_tournament(2), seed=1)):
            assert digraph_from_json(digraph_to_json(g)).board == g.board

    def test_generated_labels_are_the_boards_cached_cells(self):
        for g, board in (
            (build_tournament(3), Board(5, 5)),
            (build_npartite(3, 2), Board(3, 2)),
            (tournament_from_board(2, 3), Board(2, 3)),
        ):
            assert g.board == board and g.labels == board.cells()
            assert g.labels is g.board.cells()

    def test_labeled_board_rejects_labels_off_the_board(self):
        # four distinct labels with maxima 2 and 2, but (0, 1) is off the 2x2 board
        g = Digraph(4, [], [(0, 1), (1, 2), (2, 1), (2, 2)])
        assert g.board is None
        with pytest.raises(ValueError, match="cover"):
            cell_set_of(g, [1])

    def test_no_board_when_labels_leave_a_hole(self):
        hole = Digraph(3, [], [(1, 1), (1, 2), (2, 2)])  # (2, 1) is missing
        assert hole.board is None
        assert induced(build_tournament(2), [0, 4, 8]).board is None
        assert Digraph(0, [], []).board is None
        with pytest.raises(ValueError, match="cover"):
            cell_set_of(hole, [0])

    def test_cell_set_of(self):
        g = build_tournament(2)
        s = cell_set_of(g, [0, 4, 8])
        assert s.board == Board(3, 3)
        assert s.cells == {Cell(1, 1), Cell(2, 2), Cell(3, 3)}

    def test_cell_set_of_equals_the_validating_constructor(self):
        def check(g, vs):
            fast = cell_set_of(g, vs)
            slow = CellSet(g.board, [g.labels[v] for v in vs])
            assert fast == slow and hash(fast) == hash(slow)

        t2 = build_tournament(2)
        for mask in range(1 << 9):
            check(t2, [v for v in range(9) if mask >> v & 1])
        rng = random.Random(13)
        for g in (build_tournament(3), shuffled(build_tournament(3), seed=2)):
            for _ in range(500):
                check(g, [v for v in range(25) if rng.random() < 0.5])
        g = tournament_from_board(2, 3)
        for mask in range(1 << 6):
            check(g, [v for v in range(6) if mask >> v & 1])

    def test_cell_set_of_refuses_vertices_outside_the_digraph(self):
        g = build_tournament(2)
        for v in (-1, 9):
            with pytest.raises(ValueError, match="outside 0..8"):
                cell_set_of(g, [0, v])


class TestCorrespondence:
    def test_acyclic_iff_c_sparse_exhaustive_k2(self):
        g = build_tournament(2)
        for mask in range(1 << 9):
            vs = [v for v in range(9) if mask >> v & 1]
            assert is_acyclic(induced(g, vs)) == is_c_sparse(cell_set_of(g, vs))

    def test_acyclic_iff_c_sparse_sampled_k3(self):
        g = build_tournament(3)
        rng = random.Random(5)
        for _ in range(1000):
            vs = [v for v in range(25) if rng.random() < 0.5]
            assert is_acyclic(induced(g, vs)) == is_c_sparse(cell_set_of(g, vs))

    def test_triangle_free_implies_weak_c_sparse(self):
        for n in range(1, 4):
            for m in range(1, 4):
                g = build_npartite(n, m)
                for mask in range(1 << g.vertex_count):
                    vs = [v for v in range(g.vertex_count) if mask >> v & 1]
                    if find_directed_triangle(g, vs) is None:
                        assert is_weak_c_sparse(cell_set_of(g, vs))

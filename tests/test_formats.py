import hashlib
import json
import random
from itertools import combinations

import pytest

from dicolor import (
    PALETTE,
    Board,
    CellPartition,
    CellSet,
    Digraph,
    build_npartite,
    build_tournament,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    optimal_c_sparse_partition,
    partition_from_json,
    partition_to_json,
    partition_to_svg,
)


class TestPartitionJson:
    def test_round_trip(self):
        p = optimal_c_sparse_partition(Board(7, 7))
        doc = json.loads(json.dumps(partition_to_json(p)))
        again = partition_from_json(doc)
        assert again.board == p.board
        assert [c.cells for c in again.classes] == [c.cells for c in p.classes]

    def test_document_shape(self):
        p = optimal_c_sparse_partition(Board(3, 3))
        doc = partition_to_json(p)
        assert doc["n"] == 3 and doc["m"] == 3
        assert all(isinstance(pair, list) and len(pair) == 2 for part in doc["classes"] for pair in part)

    def test_json_and_svg_pinned_for_sides_1_to_15(self):
        # SHA-256 of the output when cell sets were frozensets of cells, so
        # any change to class order, cell order or rendering shows here.
        digest = hashlib.sha256()
        for n in range(1, 16):
            p = optimal_c_sparse_partition(Board(n, n))
            digest.update(json.dumps(partition_to_json(p), sort_keys=True).encode())
            digest.update(partition_to_svg(p).encode())
        assert digest.hexdigest() == "2ceef830d3b0781da8443aa8f318c2e3ce12fe9aace69c2c6849cd5eb5c2f2c6"

    def test_partition_parse_validates(self):
        with pytest.raises(ValueError):
            partition_from_json({"n": 2, "m": 1, "classes": [[[1, 1]]]})
        with pytest.raises(ValueError):
            partition_from_json({"n": 2, "m": 1})


class TestDigraphJson:
    def test_round_trip_with_labels(self):
        g = build_npartite(3, 2)
        doc = json.loads(json.dumps(digraph_to_json(g)))
        again = digraph_from_json(doc)
        assert again.vertex_count == g.vertex_count
        assert again.arcs == g.arcs
        assert again.labels == g.labels

    def test_round_trip_without_labels(self):
        g = Digraph(4, [(0, 3), (1, 2)])
        again = digraph_from_json(digraph_to_json(g))
        assert again.arcs == g.arcs and again.labels is None

    def test_arcs_listed_in_order_whatever_the_input_order(self):
        arcs = [(u, v) if (u * v) % 3 else (v, u) for u, v in combinations(range(9), 2)]
        random.Random(5).shuffle(arcs)
        g = Digraph(9, arcs)
        assert digraph_to_json(g)["arcs"] == sorted([u, v] for u, v in arcs)
        assert digraph_to_dot(g).splitlines()[10:-1] == [f'  "v{u}" -> "v{v}";' for u, v in sorted(arcs)]

    def test_vertex_ids_zero_based_cells_one_based(self):
        g = build_tournament(1)
        doc = digraph_to_json(g)
        assert doc["vertices"] == 1 and doc["arcs"] == []
        assert doc["labels"] == {"0": [1, 1]}

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            digraph_from_json({"arcs": []})
        with pytest.raises(ValueError):
            digraph_from_json({"vertices": 2, "arcs": [[0, 1], [1, 0]]})
        with pytest.raises(ValueError):
            digraph_from_json({"vertices": 2, "arcs": [], "labels": {"0": [1, 1]}})

    def test_label_keys_naming_no_vertex_rejected(self):
        labels = {"0": [1, 1], "1": [1, 2], "7": [9, 9], "x": "junk"}
        with pytest.raises(ValueError, match="expected 2 labels, got 4"):
            digraph_from_json({"vertices": 2, "arcs": [[0, 1]], "labels": labels})

    def test_huge_vertex_count_rejected_before_allocating(self, monkeypatch):
        def no_digraph(*args, **kwargs):
            raise AssertionError("a Digraph was allocated before validation")

        monkeypatch.setattr("dicolor.digraph.Digraph", no_digraph)
        with pytest.raises(ValueError, match="vertices"):
            digraph_from_json({"vertices": 10**12, "arcs": []})
        with pytest.raises(ValueError, match="cap"):
            digraph_from_json({"vertices": 20_001, "arcs": []})
        # The cap itself passes validation and gets as far as allocating.
        with pytest.raises(AssertionError, match="allocated"):
            digraph_from_json({"vertices": 20_000, "arcs": []})
        monkeypatch.undo()
        assert digraph_from_json({"vertices": 20_000, "arcs": []}).vertex_count == 20_000


class TestDot:
    def test_labeled_names(self):
        g = build_tournament(1)
        assert digraph_to_dot(g) == 'digraph {\n  "r1c1";\n}\n'

    def test_unlabeled_names_and_edges(self):
        g = Digraph(3, [(2, 0)])
        text = digraph_to_dot(g)
        assert '"v0";' in text and '"v1";' in text and '"v2";' in text
        assert '"v2" -> "v0";' in text

    def test_edge_lines_use_cell_names(self):
        g = build_tournament(2)
        text = digraph_to_dot(g)
        assert '"r1c1" -> "r2c1";' in text  # same column, forward
        assert '"r2c2" -> "r1c1";' in text  # cross column, backward


class TestSvg:
    def test_single_cell_single_rect(self):
        board = Board(1, 1)
        p = CellPartition(board, [CellSet(board, [(1, 1)])])
        svg = partition_to_svg(p)
        assert svg.count("<rect") == 1

    def test_seven_board_rects_and_fills(self):
        svg = partition_to_svg(optimal_c_sparse_partition(Board(7, 7)))
        assert svg.count("<rect") == 49
        fills = {chunk.split('"')[0] for chunk in svg.split('fill="')[1:]}
        assert len(fills) == 4

    def test_deterministic(self):
        p = optimal_c_sparse_partition(Board(6, 6))
        assert partition_to_svg(p) == partition_to_svg(p)
        assert partition_to_svg(p).encode() == partition_to_svg(p).encode()

    def test_geometry_row_one_top_column_one_left(self):
        board = Board(2, 3)
        classes = [CellSet(board, [(1, 1), (1, 2), (1, 3)]), CellSet(board, [(2, 1), (2, 2), (2, 3)])]
        svg = partition_to_svg(CellPartition(board, classes))
        assert 'width="96"' in svg.splitlines()[0] and 'height="64"' in svg.splitlines()[0]
        assert '<rect x="0" y="0"' in svg  # (1,1) at the origin
        assert '<rect x="64" y="32"' in svg  # (2,3) at the far corner

    def test_palette_wraps_after_eight_classes(self):
        board = Board(3, 3)
        singletons = [CellSet(board, [c]) for c in board.cells()]
        svg = partition_to_svg(CellPartition(board, singletons))
        fills = [chunk.split('"')[0] for chunk in svg.split('fill="')[1:]]
        assert fills[8] == fills[0] == PALETTE[0]
        assert len(set(fills)) == 8

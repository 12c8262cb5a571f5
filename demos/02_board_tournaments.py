#!/usr/bin/env python3
"""Build the board tournaments and compute their dichromatic numbers exactly.

The tournament on the (2k-1) x (2k-1) board needs exactly k colors before
some color class contains a directed cycle; the solver certifies this and the
certificate's color classes are exactly c-sparse cell sets.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dicolor import (
    ACYCLIC,
    build_tournament,
    dichromatic_number,
    greedy_upper_bound,
    is_c_sparse,
    cell_set_of,
    verify_coloring,
)


def main():
    for k in (1, 2, 3):
        g = build_tournament(k)
        greedy = greedy_upper_bound(g, ACYCLIC)
        result = dichromatic_number(g)
        print(
            f"k={k}: {g.vertex_count:2d} vertices, {len(g.arcs):3d} arcs, "
            f"greedy <= {greedy.num_colors}, exact = {result.value} "
            f"({result.nodes_explored} nodes, {result.elapsed * 1000:.1f} ms)"
        )
        assert verify_coloring(g, result.certificate, ACYCLIC)

    print("\ncertificate classes for k=2, shown as cells:")
    g = build_tournament(2)
    result = dichromatic_number(g)
    for color, members in enumerate(result.certificate.color_classes()):
        cells = cell_set_of(g, members)
        print(f"  color {color}: {sorted(cells.cells)}  c-sparse: {is_c_sparse(cells)}")

    v = 0
    board = g.board
    print(f"\nvertex {v} is cell {g.labels[v]} of the {board.n}x{board.m} board; vertices follow the row-major cell order")


if __name__ == "__main__":
    main()

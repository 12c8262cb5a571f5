"""Checkerboard sparse partitions, derived tournaments, and exact directed coloring."""

import types

from .board import (
    C_SPARSE,
    MAX_BRUTEFORCE_CELLS,
    WEAK_C_SPARSE,
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
    partition_from_json,
    partition_to_json,
    restrict,
)
from .digraph import (
    Digraph,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    find_directed_triangle,
    induced,
    is_acyclic,
    is_tournament,
)
from .generators import (
    build_npartite,
    build_tournament,
    cell_set_of,
    tournament_from_board,
    vertex_of_cell,
)
from .render import PALETTE, partition_to_svg
from .solvers import (
    ABORTED_AT_LIMIT,
    ACYCLIC,
    OPTIMAL,
    TRIANGLE_FREE,
    Coloring,
    SolveLimits,
    SolveResult,
    dichromatic_number,
    greedy_upper_bound,
    npartite_lower_bound,
    solve_result_to_json,
    triangle_free_chromatic,
    verify_coloring,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)]

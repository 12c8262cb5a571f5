"""Every integer or cell a caller passes is read one way: what `operator.index`
accepts, except booleans.  Membership tests (`in`) follow the same rule and
answer False for any pair that is not two integers."""

import pytest

from dicolor import (
    Board,
    Cell,
    CellSet,
    Coloring,
    Digraph,
    SolveLimits,
    build_npartite,
    build_tournament,
    cell_set_of,
    diagonal_band,
    digraph_from_json,
    find_directed_triangle,
    induced,
    is_acyclic,
    npartite_lower_bound,
    partition_from_json,
    restrict,
    tournament_from_board,
    vertex_of_cell,
)
from dicolor.verify import run_suites

B3 = Board(3, 3)
FULL3 = CellSet(B3, B3.cells())
PATH = Digraph(3, [(0, 1), (1, 2)])
T2 = build_tournament(2)

# Each reader with one integer position left open: called with 1 it succeeds,
# so any other value it refuses is refused for its type alone.
READERS = {
    "Board-n": lambda x: Board(x, 3),
    "Board-m": lambda x: Board(3, x),
    "CellSet-row": lambda x: CellSet(B3, [(x, 2)]),
    "CellSet-col": lambda x: CellSet(B3, [(2, x)]),
    "restrict-rows": lambda x: restrict(FULL3, [x], [1]),
    "restrict-cols": lambda x: restrict(FULL3, [1], [x]),
    "diagonal_band-k": lambda x: diagonal_band(Board(5, 5), x),
    "partition-n": lambda x: partition_from_json({"n": x, "m": 1, "classes": [[[1, 1]]]}),
    "partition-m": lambda x: partition_from_json({"n": 1, "m": x, "classes": [[[1, 1]]]}),
    "partition-cell": lambda x: partition_from_json({"n": 1, "m": 1, "classes": [[[x, 1]]]}),
    "Digraph-vertices": lambda x: Digraph(x, []),
    "Digraph-arc-tail": lambda x: Digraph(2, [(x, 0)]),
    "Digraph-arc-head": lambda x: Digraph(2, [(0, x)]),
    "Digraph-label-row": lambda x: Digraph(1, [], [(x, 1)]),
    "Digraph-label-col": lambda x: Digraph(1, [], [(1, x)]),
    "is_acyclic-within": lambda x: is_acyclic(PATH, [0, x]),
    "find_directed_triangle-within": lambda x: find_directed_triangle(PATH, [x]),
    "induced-members": lambda x: induced(PATH, [x, 2]),
    "json-vertices": lambda x: digraph_from_json({"vertices": x, "arcs": []}),
    "json-arc": lambda x: digraph_from_json({"vertices": 2, "arcs": [[0, x]]}),
    "json-label": lambda x: digraph_from_json({"vertices": 1, "arcs": [], "labels": {"0": [x, 1]}}),
    "build_tournament-k": lambda x: build_tournament(x),
    "build_npartite-n": lambda x: build_npartite(x, 2),
    "build_npartite-m": lambda x: build_npartite(2, x),
    "tournament_from_board-n": lambda x: tournament_from_board(x, 2),
    "vertex_of_cell-row": lambda x: vertex_of_cell(T2, (x, 2)),
    "vertex_of_cell-col": lambda x: vertex_of_cell(T2, (2, x)),
    "cell_set_of-vertex": lambda x: cell_set_of(T2, [0, x]),
    "Coloring-color": lambda x: Coloring(PATH, (0, x, 0), 2),
    "Coloring-count": lambda x: Coloring(PATH, (0, 0, 0), x),
    "SolveLimits-max_nodes": lambda x: SolveLimits(max_nodes=x),
    "run_suites-max_k": lambda x: run_suites(["tk"], max_k=x),
    "run_suites-max_n": lambda x: run_suites(["diagonals"], max_n=x),
    "npartite_lower_bound-n": lambda x: npartite_lower_bound(x, 2),
    "npartite_lower_bound-m": lambda x: npartite_lower_bound(2, x),
}


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_reader_refuses_what_is_not_an_integer(reader, bad):
    reader(1)
    with pytest.raises((TypeError, ValueError)):
        reader(bad)


def test_false_is_refused_where_zero_is_a_valid_value():
    assert Digraph(0, []).vertex_count == 0 and Digraph(2, [(0, 1)]).arcs == {(0, 1)}
    for bad in (lambda: Digraph(False, []), lambda: Digraph(2, [(False, 1)]), lambda: Coloring(PATH, (False,) * 3, 1)):
        with pytest.raises(TypeError, match="booleans"):
            bad()


# Each container with members that hold a 1 in every position.
CONTAINERS = {"Board": (B3, [(1, 1)]), "CellSet": (FULL3, [(1, 1)]), "arcs": (PATH.arcs, [(1, 2), (0, 1)])}


@pytest.mark.parametrize("container, members", CONTAINERS.values(), ids=CONTAINERS.keys())
def test_only_a_pair_of_integers_is_a_member(container, members):
    for u, v in members:
        assert (u, v) in container and Cell(u, v) in container
        for x in (True, 1.0, 1.5, "1"):  # a 1 replaced by what equals or nears it
            if u == 1:
                assert (x, v) not in container
            if v == 1:
                assert (u, x) not in container
    for odd in [(1, 1, 1), (1,), 1, None]:
        assert odd not in container


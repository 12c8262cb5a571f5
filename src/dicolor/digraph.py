"""Finite oriented graphs: bitmask adjacency, acyclicity, and directed triangles.

Vertices are dense integers 0..vertex_count-1; a digraph may contain at most
one of (u, v) and (v, u) for any pair and no self-loops.  Its representation
is one out-neighbour and one in-neighbour bitmask per vertex; the arc set is
kept alongside when the digraph is built from arcs, and derived from the
masks on first use otherwise.  Graphs built from checkerboards carry an
optional per-vertex cell label, and know the board those labels cover.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .board import Board, Cell

# Documents may not declare more vertices than this: per-vertex storage is
# allocated up front, and T_19, the largest board tournament the generators
# build, has 1,369 vertices.  The arc bitmasks cost about n^2 / 8 bytes even
# on a sparse input: a path at this cap parses in about 0.1 s and raises peak
# RSS from 18 to 75 MB (Python 3.11.7), and a 100,000-vertex path took 1.4 GB.
_MAX_JSON_VERTICES = 20_000


class Digraph:
    """Immutable oriented graph.

    Bit v of `out_mask[u]` is set iff (u, v) is an arc, and `in_mask` is its
    transpose; the solvers and predicates read only these masks.  `arcs` is
    the same relation as a frozenset of (u, v) pairs: the constructor keeps
    the set it builds from its input, while the board generators build the
    masks directly and the set is derived from them on first read.  Labels,
    when present, assign a distinct cell to every vertex; generated instances
    label vertices with the cells of a full board in row-major order.
    `board` is the board whose cells are exactly the labels, or None when
    there is no such board: the digraph is unlabeled or empty, or its labels
    leave a hole or hold a cell below (1, 1).  Instances are safe to share
    across threads once constructed; two threads reading `arcs` of a
    generated digraph at once may each derive an equal set.
    """

    __slots__ = ("vertex_count", "_arcs", "out_mask", "in_mask", "labels", "board")

    def __init__(
        self,
        vertex_count: int,
        arcs: Iterable[tuple[int, int]],
        labels: Sequence[Cell] | None = None,
    ) -> None:
        n = operator.index(vertex_count)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        arc_set = frozenset((operator.index(u), operator.index(v)) for u, v in arcs)
        out_mask = [0] * n
        in_mask = [0] * n
        for u, v in arc_set:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            out_mask[u] |= 1 << v
            in_mask[v] |= 1 << u
        # Without self-loops, u's out- and in-masks meet only at two-cycles.
        for u, both in enumerate(map(int.__and__, out_mask, in_mask)):
            if both:
                v = both.bit_length() - 1
                raise ValueError(f"two-cycle between {u} and {v}; orientations allow one arc per pair")
        self.vertex_count = n
        self._arcs: frozenset[tuple[int, int]] | None = arc_set
        self.out_mask = tuple(out_mask)
        self.in_mask = tuple(in_mask)
        self._set_labels(labels)

    @classmethod
    def _from_masks(cls, out_mask: Sequence[int], in_mask: Sequence[int], labels: Sequence[Cell] | None) -> Digraph:
        """A digraph from masks the caller knows are an orientation and its transpose.

        Labels are validated as in the constructor; the arcs are not checked.
        """
        g = object.__new__(cls)
        g.vertex_count = len(out_mask)
        g._arcs = None
        g.out_mask = tuple(out_mask)
        g.in_mask = tuple(in_mask)
        g._set_labels(labels)
        return g

    def _set_labels(self, labels: Sequence[Cell] | None) -> None:
        n = self.vertex_count
        if labels is None:
            self.labels: tuple[Cell, ...] | None = None
            self.board: Board | None = None
            return
        lab = tuple(Cell(operator.index(r), operator.index(c)) for r, c in labels)
        if len(lab) != n:
            raise ValueError(f"expected {n} labels, got {len(lab)}")
        if len(set(lab)) != n:
            raise ValueError("vertex labels must be distinct cells")
        self.labels = lab
        # n distinct cells on a board of n cells are all of its cells.
        rows = [cell.row for cell in lab]
        cols = [cell.col for cell in lab]
        full = n > 0 and min(rows) >= 1 and min(cols) >= 1 and max(rows) * max(cols) == n
        self.board = Board(max(rows), max(cols)) if full else None

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Every arc (u, v), as a set."""
        if self._arcs is None:
            self._arcs = frozenset(_arcs_in_order(self))
        return self._arcs

    def __repr__(self) -> str:
        tag = ", labeled" if self.labels is not None else ""
        return f"Digraph({self.vertex_count} vertices, {_arc_count(self)} arcs{tag})"


def _arcs_in_order(g: Digraph) -> Iterator[tuple[int, int]]:
    """Every arc (u, v) in increasing (u, v) order, read off the out-masks."""
    for u, succ in enumerate(g.out_mask):
        while succ:
            lsb = succ & -succ
            yield u, lsb.bit_length() - 1
            succ ^= lsb


def _arc_count(g: Digraph) -> int:
    return sum(mask.bit_count() for mask in g.out_mask)


def is_acyclic(g: Digraph, within: Iterable[int] | None = None) -> bool:
    """Exact test for the absence of directed cycles (source elimination).

    With `within`, the test applies to the sub-digraph induced by that
    vertex set.
    """
    members = _validated_members(g, within)
    rest = 0
    for v in members:
        rest |= 1 << v
    out_mask, in_mask = g.out_mask, g.in_mask
    # Kahn's sort: a member joins the stack once no predecessor is left in
    # rest, so each member is pushed at most once.
    stack = [v for v in members if not in_mask[v] & rest]
    while stack:
        v = stack.pop()
        rest ^= 1 << v
        succ = out_mask[v] & rest
        while succ:
            lsb = succ & -succ
            w = lsb.bit_length() - 1
            if not in_mask[w] & rest:
                stack.append(w)
            succ ^= lsb
    return not rest


def _validated_members(g: Digraph, members: Iterable[int] | None) -> list[int]:
    if members is None:
        return list(range(g.vertex_count))
    vs = sorted(set(int(v) for v in members))
    if vs and not (0 <= vs[0] and vs[-1] < g.vertex_count):
        raise ValueError("vertex set contains indices outside the digraph")
    return vs


def find_directed_triangle(
    g: Digraph, within: Iterable[int] | None = None
) -> tuple[int, int, int] | None:
    """First directed triangle (u, v, w) with arcs u->v, v->w, w->u, or None.

    Candidates are scanned in lexicographic vertex order, so the result is
    deterministic.
    """
    vs = _validated_members(g, within)
    arcs = g.arcs
    for a, b, c in combinations(vs, 3):
        if (a, b) in arcs and (b, c) in arcs and (c, a) in arcs:
            return (a, b, c)
        if (a, c) in arcs and (c, b) in arcs and (b, a) in arcs:
            return (a, c, b)
    return None


def induced(g: Digraph, members: Iterable[int]) -> Digraph:
    """Sub-digraph induced by a vertex set, re-indexed in increasing order."""
    vs = _validated_members(g, members)
    index = {v: i for i, v in enumerate(vs)}
    arcs = [(index[u], index[v]) for u, v in g.arcs if u in index and v in index]
    labels = tuple(g.labels[v] for v in vs) if g.labels is not None else None
    return Digraph(len(vs), arcs, labels)


def is_tournament(g: Digraph) -> bool:
    """Whether every vertex pair is joined by exactly one arc."""
    n = g.vertex_count
    return _arc_count(g) == n * (n - 1) // 2


def digraph_to_json(g: Digraph) -> dict:
    """Serialize to {"vertices", "arcs", "labels"?}; vertices 0-based, cells 1-based."""
    doc: dict = {
        "vertices": g.vertex_count,
        "arcs": [[u, v] for u, v in _arcs_in_order(g)],
    }
    if g.labels is not None:
        doc["labels"] = {str(v): [cell.row, cell.col] for v, cell in enumerate(g.labels)}
    return doc


def digraph_from_json(doc: dict) -> Digraph:
    """Parse a digraph document, validating the orientation invariants."""
    try:
        n = operator.index(doc["vertices"])
        if n > _MAX_JSON_VERTICES:
            raise ValueError(f"{n} vertices exceeds the {_MAX_JSON_VERTICES}-vertex input cap")
        raw_labels = doc.get("labels")
        labels = None if raw_labels is None else [raw_labels[str(v)] for v in range(n)]
        return Digraph(n, doc["arcs"], labels)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed digraph document: {exc}") from exc


def _vertex_name(g: Digraph, v: int) -> str:
    if g.labels is not None:
        cell = g.labels[v]
        return f"r{cell.row}c{cell.col}"
    return f"v{v}"


def digraph_to_dot(g: Digraph) -> str:
    """DOT text with one node line per vertex and one edge line per arc."""
    lines = ["digraph {"]
    for v in range(g.vertex_count):
        lines.append(f'  "{_vertex_name(g, v)}";')
    for u, v in _arcs_in_order(g):
        lines.append(f'  "{_vertex_name(g, u)}" -> "{_vertex_name(g, v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

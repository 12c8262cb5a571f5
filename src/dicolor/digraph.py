"""Finite oriented graphs: bitmask adjacency, acyclicity, and directed triangles.

Vertices are dense integers 0..vertex_count-1; a digraph may contain at most
one of (u, v) and (v, u) for any pair and no self-loops.  Its only stored
form is one out-neighbour and one in-neighbour bitmask per vertex; `arcs` is
a read-only set view of the out-masks, like `dict.keys()`, and every
function here reads the masks.  Graphs built from checkerboards carry an
optional per-vertex cell label, and know the board those labels cover.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import chain, compress, count, repeat
from typing import Iterable, Iterator, Sequence

from .board import Board, Cell, _bit_flags, _bits, _cell, _index

# Documents may not declare more vertices than this: per-vertex storage is
# allocated up front, and T_19, the largest board tournament the generators
# build, has 1,369 vertices.  The arc bitmasks cost about n^2 / 8 bytes even
# on a sparse input: a path at this cap parses in about 0.1 s and raises peak
# RSS from 18 to 75 MB (Python 3.11.7), and a 100,000-vertex path took 1.4 GB.
_MAX_JSON_VERTICES = 20_000

class Digraph:
    """Immutable oriented graph.

    Bit v of `out_mask[u]` is set iff (u, v) is an arc, and `in_mask` is its
    transpose; these two tuples are the whole relation.  `arcs` views it as
    a set of (u, v) pairs: membership is one mask test, iteration runs in
    increasing (u, v) order, and set operators return a frozenset.  Labels,
    when present, assign a distinct cell to every vertex; generated instances
    label vertices with the cells of a full board in row-major order.
    `board` is the board whose cells are exactly the labels, or None when
    there is no such board: the digraph is unlabeled or empty, or its labels
    leave a hole or hold a cell below (1, 1).  Instances are safe to share
    across threads once constructed.
    """

    __slots__ = ("vertex_count", "out_mask", "in_mask", "labels", "board")

    def __init__(
        self,
        vertex_count: int,
        arcs: Iterable[tuple[int, int]],
        labels: Sequence[Cell] | None = None,
    ) -> None:
        n = _index(vertex_count)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        out_mask = [0] * n
        in_mask = [0] * n
        for u, v in arcs:
            if u.__class__ is not int or v.__class__ is not int:  # calling on exact ints costs a third of the loop
                u, v = _index(u), _index(v)
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
        lab = tuple(map(_cell, labels))
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
    def arcs(self) -> _ArcView:
        """Every arc (u, v), as a read-only set view of the out-masks."""
        return _ArcView(self.out_mask)

    def __repr__(self) -> str:
        tag = ", labeled" if self.labels is not None else ""
        return f"Digraph({self.vertex_count} vertices, {len(self.arcs)} arcs{tag})"


class _ArcView(Set):
    """The arcs (u, v) of a tuple of out-masks, as a set that stores nothing else."""

    __slots__ = ("_out_mask",)

    def __init__(self, out_mask: tuple[int, ...]) -> None:
        self._out_mask = out_mask

    def __contains__(self, arc: object) -> bool:
        try:
            u, v = map(_index, arc)
        except (TypeError, ValueError):  # not a pair of ints
            return False
        return 0 <= u < len(self._out_mask) and v >= 0 and self._out_mask[u] >> v & 1 == 1

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return chain.from_iterable(zip(repeat(u), _bits(mask)) for u, mask in enumerate(self._out_mask))

    def __len__(self) -> int:
        return sum(map(int.bit_count, self._out_mask))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ArcView):  # equal relations differ at most in trailing empty rows
            short, long = sorted((self._out_mask, other._out_mask), key=len)
            return long[: len(short)] == short and not any(long[len(short) :])
        return Set.__eq__(self, other)

    @classmethod
    def _from_iterable(cls, it: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        return frozenset(it)


def _member_mask(g: Digraph, members: Iterable[int] | None) -> int:
    """The members as a vertex mask; every vertex when members is None."""
    n = g.vertex_count
    if members is None:
        return (1 << n) - 1
    mask = 0
    for v in map(_index, members):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} outside 0..{n - 1}")
        mask |= 1 << v
    return mask


def is_acyclic(g: Digraph, within: Iterable[int] | None = None) -> bool:
    """Exact test for the absence of directed cycles (source elimination).

    With `within`, the test applies to the sub-digraph induced by that
    vertex set.
    """
    return _acyclic_mask(g, _member_mask(g, within))


def _acyclic_mask(g: Digraph, rest: int) -> bool:
    """`is_acyclic` on the members of a vertex mask the caller knows lies within g."""
    out_mask, in_mask = g.out_mask, g.in_mask
    # Kahn's sort: a member joins the stack once no predecessor is left in
    # rest, so each member is pushed at most once.
    stack = [v for v in _bits(rest) if not in_mask[v] & rest]
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


def find_directed_triangle(
    g: Digraph, within: Iterable[int] | None = None
) -> tuple[int, int, int] | None:
    """First directed triangle (u, v, w) with arcs u->v, v->w, w->u, or None.

    Candidates are scanned in lexicographic vertex order, so the result is
    deterministic.
    """
    return _triangle_mask(g, _member_mask(g, within))


def _triangle_mask(g: Digraph, members: int) -> tuple[int, int, int] | None:
    """`find_directed_triangle` on a vertex mask the caller knows lies within g."""
    out_mask, in_mask = g.out_mask, g.in_mask
    # For adjacent members a < b, the lowest later member c closing a triangle
    # with them; the first pair that has one gives the first triple.  The b
    # are usually few, so they are peeled off lowest bit first.
    for a in _bits(members):
        rest = (out_mask[a] | in_mask[a]) & members >> a + 1 << a + 1
        while rest:
            b = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            later = members >> b + 1 << b + 1
            if out_mask[a] >> b & 1:
                closing = out_mask[b] & in_mask[a] & later
                if closing:
                    return (a, b, (closing & -closing).bit_length() - 1)
            else:
                closing = out_mask[a] & in_mask[b] & later
                if closing:
                    return (a, (closing & -closing).bit_length() - 1, b)
    return None


def induced(g: Digraph, members: Iterable[int]) -> Digraph:
    """Sub-digraph induced by a vertex set, re-indexed in increasing order."""
    mask = _member_mask(g, members)
    keep = _bit_flags(mask)
    vs = list(compress(count(), keep))

    def squeeze(row: int) -> int:
        # The row's bits at the members, packed down to bits 0..len(vs)-1.
        return int("0" + "".join(compress(bin(row)[:1:-1], keep))[::-1], 2)

    labels = tuple(g.labels[v] for v in vs) if g.labels is not None else None
    return Digraph._from_masks(
        [squeeze(g.out_mask[v]) for v in vs], [squeeze(g.in_mask[v]) for v in vs], labels
    )


def is_tournament(g: Digraph) -> bool:
    """Whether every vertex pair is joined by exactly one arc."""
    n = g.vertex_count
    return len(g.arcs) == n * (n - 1) // 2


def digraph_to_json(g: Digraph) -> dict:
    """Serialize to {"vertices", "arcs", "labels"?}; vertices 0-based, cells 1-based."""
    doc: dict = {"vertices": g.vertex_count, "arcs": list(map(list, g.arcs))}
    if g.labels is not None:
        doc["labels"] = {str(v): [cell.row, cell.col] for v, cell in enumerate(g.labels)}
    return doc


def digraph_from_json(doc: dict) -> Digraph:
    """Parse a digraph document, validating the orientation invariants."""
    try:
        n = _index(doc["vertices"])
        if n > _MAX_JSON_VERTICES:
            raise ValueError(f"{n} vertices exceeds the {_MAX_JSON_VERTICES}-vertex input cap")
        raw_labels = doc.get("labels")
        if raw_labels is not None and len(raw_labels) != n:
            raise ValueError(f"expected {n} labels, got {len(raw_labels)}")
        labels = None if raw_labels is None else [raw_labels[str(v)] for v in range(n)]
        return Digraph(n, doc["arcs"], labels)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed digraph document: {exc}") from exc


def digraph_to_dot(g: Digraph) -> str:
    """DOT text with one node line per vertex and one edge line per arc."""
    labels = g.labels
    names = [f"v{v}" for v in range(g.vertex_count)] if labels is None else [f"r{r}c{c}" for r, c in labels]
    lines = ["digraph {", *(f'  "{name}";' for name in names)]
    lines += [f'  "{names[u]}" -> "{names[v]}";' for u, v in g.arcs]
    return "\n".join(lines) + "\n}\n"

"""Exact directed-coloring solvers with certificates and resource limits.

Two constraints are supported for color classes: "acyclic" (no monochromatic
directed cycle; the minimum is the dichromatic number) and "triangle-free"
(no monochromatic directed triangle).  The search is iterative deepening on
the color count: each level runs one backtracking assignment in saturation
order (the vertex the fewest colors still admit goes next) with forward
checking and symmetry breaking, so the first feasible level is the optimum.
The same search run with one color per vertex never backtracks; it is the
greedy coloring that seeds the upper end of the range, and it runs under the
solve's own node and time budget.  When a digraph's labels cover a full
square board, the diagonal-band partition mapped through the labels is also
tried as the upper end, once `verify_coloring` accepts it.  Either way every
smaller color count is proven infeasible by search.

The search reads the digraph's own out/in arc bitmasks.  Feasibility of a
class is maintained incrementally as a bitmask of the vertices that may not
join it.  Tournaments and the triangle-free constraint use the triangle
state (a class of a tournament is acyclic iff it has no directed triangle);
other digraphs under the acyclic constraint use the walk state, which walks
the class's arcs backward and forward from each vertex that joins to find
the members on either side of it.  The input alone selects the state.
Certificates are re-checked by `verify_coloring` with plain digraph
primitives, independently of the search.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .board import _index, optimal_c_sparse_partition
from .digraph import Digraph, find_directed_triangle, is_acyclic, is_tournament

ACYCLIC = "acyclic"
TRIANGLE_FREE = "triangle-free"
CONSTRAINTS = (ACYCLIC, TRIANGLE_FREE)

OPTIMAL = "optimal"
ABORTED_AT_LIMIT = "aborted_at_limit"


@dataclass(frozen=True)
class Coloring:
    """An assignment of 0-based color indices to every vertex of a digraph."""

    graph: Digraph
    color_of: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "color_of", tuple(map(_index, self.color_of)))
        if len(self.color_of) != self.graph.vertex_count:
            raise ValueError("coloring length does not match the vertex count")
        if _index(self.num_colors) < 0 or set(self.color_of) != set(range(self.num_colors)):
            raise ValueError("colors must be exactly 0..num_colors-1 with no empty class")

    def color_classes(self) -> list[list[int]]:
        classes: list[list[int]] = [[] for _ in range(self.num_colors)]
        for v, c in enumerate(self.color_of):
            classes[c].append(v)
        return classes


@dataclass(frozen=True)
class SolveLimits:
    """Search budget: node count and wall-clock seconds (math.inf for none)."""

    max_nodes: int = 10**8
    max_seconds: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_nodes", _index(self.max_nodes))
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.max_seconds.__class__ is bool:
            raise TypeError("max_seconds must be a number, not a boolean")
        if not self.max_seconds > 0:  # also rejects NaN
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    status "optimal": value is the exact minimum and certificate witnesses it.
    status "aborted_at_limit": the node/time budget ran out; value is the
    best proven lower bound at that point.
    """

    status: str
    value: int
    certificate: Coloring | None
    nodes_explored: int
    elapsed: float

    def __post_init__(self) -> None:
        if self.status not in (OPTIMAL, ABORTED_AT_LIMIT):
            raise ValueError(f"unknown status {self.status!r}; expected {OPTIMAL!r} or {ABORTED_AT_LIMIT!r}")
        if self.status == OPTIMAL and (self.certificate is None or self.certificate.num_colors != self.value):
            raise ValueError("optimal results require a matching certificate")


class _LimitHit(Exception):
    pass


class _Budget:
    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, limits: SolveLimits) -> None:
        self.max_nodes = limits.max_nodes
        self.deadline = time.perf_counter() + limits.max_seconds
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes or time.perf_counter() > self.deadline:
            raise _LimitHit


def _check_constraint(constraint: str) -> None:
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}; expected one of {CONSTRAINTS}")


def verify_coloring(g: Digraph, coloring: Coloring, constraint: str) -> bool:
    """Certificate check: does every color class satisfy the constraint?

    Uses only digraph primitives so it stays independent of the search.
    """
    _check_constraint(constraint)
    if len(coloring.color_of) != g.vertex_count:
        raise ValueError("coloring shape does not match the digraph")
    classes = coloring.color_classes()
    if constraint == TRIANGLE_FREE:
        return not any(find_directed_triangle(g, members) for members in classes)
    return all(is_acyclic(g, members) for members in classes)


def _search(g: Digraph, constraint: str, t: int, tick: Callable[[], None]) -> list[int] | None:
    """First assignment of at most t feasible classes, or None when there is none.

    Backtracking in saturation order (DSATUR, Brelaz 1979): each node
    branches on the unassigned vertex that the fewest colors still admit,
    lowest index first on ties, trying its colors in increasing order.  A
    vertex may open color `used` only, which breaks the symmetry between
    color names.  A chosen vertex that no color admits is a dead end: the
    color scan runs past all t colors and backtracks (forward checking).
    `tick` is called once per node, that is once per vertex placed plus once
    for the root, and aborts the search by raising.  With t = n no placement
    ever fails, because a fresh color always fits, so it never backtracks.

    danger[c] is the set (as a bitmask) of vertices that would break class
    c, so rejecting a color is one AND.  It grows as vertices join:
    - triangle state: an internal arc a->b forbids every x with b->x and x->a;
    - walk state (the acyclic constraint on other digraphs): when v joins,
      a backward walk over the class's arcs finds the members that reach v
      (A) and a forward walk the members v reaches (B), v in both.  Every
      member of A now reaches all of B, so every x with an arc into A and
      an arc from B would close a cycle.  The walks store nothing between
      placements, so a backtrack has nothing of theirs to undo.
    Each vertex's count of classes whose danger holds it is kept in
    bit-slices: planes[k] holds bit k of every count.  A placement adds the
    vertices its class's danger gained, and a top-down scan of the planes
    over the unassigned vertices picks one with the largest count.
    The trail is the stack, its length the depth: a placement pushes (vertex,
    its class's prior danger, prior planes), and a backtrack restores them.
    """
    out_mask, in_mask, n = g.out_mask, g.in_mask, g.vertex_count
    triangle = constraint == TRIANGLE_FREE or is_tournament(g)
    member = [0] * t
    danger = [0] * t
    assign = [0] * n
    planes = [0] * t.bit_length()
    trail: list[tuple[int, int, list[int]]] = []
    free = (1 << n) - 1
    tick()
    used = c = v = 0  # no class bars any vertex yet, so the root picks vertex 0
    while len(trail) < n:
        bit = 1 << v
        top = used + 1 if used < t else t
        while c < top and danger[c] & bit:
            c += 1
        if c < top:
            m = member[c]
            d = old = danger[c]
            in_v = in_mask[v]
            out_v = out_mask[v]
            if triangle:
                a = m & in_v
                while a:
                    lsb = a & -a
                    d |= out_v & in_mask[lsb.bit_length() - 1]
                    a ^= lsb
                b = m & out_v
                while b:
                    lsb = b & -b
                    d |= out_mask[lsb.bit_length() - 1] & in_v
                    b ^= lsb
            else:
                into = in_v
                a = m & in_v
                rest = m ^ a
                while a:
                    lsb = a & -a
                    x = in_mask[lsb.bit_length() - 1]
                    into |= x
                    x &= rest
                    rest ^= x
                    a = (a ^ lsb) | x
                outof = out_v
                b = m & out_v
                rest = m ^ b
                while b:
                    lsb = b & -b
                    x = out_mask[lsb.bit_length() - 1]
                    outof |= x
                    x &= rest
                    rest ^= x
                    b = (b ^ lsb) | x
                d |= into & outof
            free ^= bit
            carry = (d ^ old) & free
            trail.append((v, old, planes))
            if carry:
                planes = planes[:]
                for k, p in enumerate(planes):
                    planes[k] = p ^ carry
                    carry &= p
                    if not carry:
                        break
            danger[c] = d
            member[c] = m | bit
            assign[v] = c
            if c == used:
                used += 1
            tick()
            # Pick the unassigned vertex barred from the most classes; no
            # count exceeds `used`, so higher planes are empty.
            pick = free
            k = used.bit_length()
            while k:
                k -= 1
                x = pick & planes[k]
                if x:
                    pick = x
            v = (pick & -pick).bit_length() - 1
            c = 0
        elif not trail:
            return None
        else:
            v, old, planes = trail.pop()
            bit = 1 << v
            c = assign[v]
            member[c] ^= bit
            danger[c] = old
            free |= bit
            if not member[c]:
                used -= 1
            c += 1
    return assign


def _coloring(g: Digraph, assignment: list[int]) -> Coloring:
    return Coloring(g, tuple(assignment), len(set(assignment)))


def greedy_upper_bound(g: Digraph, constraint: str) -> Coloring:
    """Greedy coloring in saturation order; a feasible upper bound for the solvers.

    The next vertex is the one barred from the most classes (lowest index on
    ties); it takes the least color whose class stays feasible, opening a
    new color when none fits: the exact search run with one color per vertex.
    """
    _check_constraint(constraint)
    return _coloring(g, _search(g, constraint, g.vertex_count, lambda: None))


def _solve(g: Digraph, constraint: str, limits: SolveLimits | None) -> SolveResult:
    _check_constraint(constraint)
    limits = limits or SolveLimits()
    start = time.perf_counter()
    n = g.vertex_count
    if n == 0:
        return SolveResult(OPTIMAL, 0, Coloring(g, (), 0), 0, time.perf_counter() - start)

    budget = _Budget(limits)
    t = 1  # the only bound proven if the budget runs out during greedy
    try:
        upper = _coloring(g, _search(g, constraint, n, budget.tick))
        if g.board is not None and g.board.n == g.board.m:
            # Labels covering a square board give the paper's bands as a candidate bound.
            class_of = optimal_c_sparse_partition(g.board).class_of()
            band = _coloring(g, [class_of[cell] for cell in g.labels])
            if band.num_colors < upper.num_colors and verify_coloring(g, band, constraint):
                upper = band
        for t in range(1, upper.num_colors):
            assignment = _search(g, constraint, t, budget.tick)
            if assignment is not None:
                upper = _coloring(g, assignment)
                break
    except _LimitHit:
        return SolveResult(ABORTED_AT_LIMIT, t, None, budget.nodes, time.perf_counter() - start)
    # Every count below upper's is proven infeasible, and upper is feasible.
    return SolveResult(OPTIMAL, upper.num_colors, upper, budget.nodes, time.perf_counter() - start)


def dichromatic_number(g: Digraph, limits: SolveLimits | None = None) -> SolveResult:
    """Minimum colors such that every color class induces an acyclic sub-digraph."""
    return _solve(g, ACYCLIC, limits)


def triangle_free_chromatic(g: Digraph, limits: SolveLimits | None = None) -> SolveResult:
    """Minimum colors such that no color class contains a directed triangle.

    Never larger than the dichromatic number: acyclic classes are in
    particular triangle-free.
    """
    return _solve(g, TRIANGLE_FREE, limits)


def npartite_lower_bound(n: int, m: int) -> Fraction:
    """Exact rational n*m / (n + 2m - 2).

    Its ceiling lower-bounds the triangle-free chromatic number of the
    generated n-partite digraph with parts of size m, and therefore also that
    digraph's dichromatic number.
    """
    n, m = _index(n), _index(m)
    if n < 1 or m < 1:
        raise ValueError(f"part count and part size must be >= 1, got n={n}, m={m}")
    return Fraction(n * m, n + 2 * m - 2)


def solve_result_to_json(result: SolveResult) -> dict:
    """Serialize to {"status", "value", "colors"?, "nodes", "millis"}."""
    doc: dict = {
        "status": result.status,
        "value": result.value,
        "nodes": result.nodes_explored,
        "millis": int(round(result.elapsed * 1000)),
    }
    if result.certificate is not None:
        doc["colors"] = list(result.certificate.color_of)
    return doc

"""Metamorphic relations: changes to a digraph whose effect on the answer is known.

Relabeling the vertices or reversing every arc keeps both the dichromatic and
the triangle-free chromatic number: cycles and directed triangles survive
both.  A disjoint union, or a one-way join (every arc from G to H), needs the
larger of the two answers, because no cycle or triangle crosses between the
parts.  Replacing a vertex by a module that keeps the vertex's outside arcs
keeps the answer when the module itself is acyclic (for the acyclic
constraint) or has no arcs (for triangle-free): colored like the vertex it
replaces, a monochromatic cycle or triangle through the module maps back onto
one through the vertex.

Random cases take the base answer from the partition-enumeration oracle; the
fixed cases reach sizes the oracle cannot and check published or derived
values.  Every optimal certificate is re-checked by `verify_coloring`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicolor import (
    ACYCLIC,
    OPTIMAL,
    TRIANGLE_FREE,
    Digraph,
    build_npartite,
    build_tournament,
    dichromatic_number,
    triangle_free_chromatic,
    verify_coloring,
)
from oracles import min_colors_by_enumeration

SOLVERS = {ACYCLIC: dichromatic_number, TRIANGLE_FREE: triangle_free_chromatic}


def solved(g, constraint):
    """The optimal value of g, after checking its certificate."""
    result = SOLVERS[constraint](g)
    assert result.status == OPTIMAL
    assert verify_coloring(g, result.certificate, constraint)
    return result.value


def relabeled(g, order):
    return Digraph(g.vertex_count, [(order[u], order[v]) for u, v in g.arcs])


def converse(g):
    return Digraph(g.vertex_count, [(v, u) for u, v in g.arcs])


def disjoint_union(g, h, *, join=False):
    """g and h side by side on vertices 0..n-1 and n..; with join, every arc from g to h too."""
    n = g.vertex_count
    arcs = list(g.arcs) + [(n + u, n + v) for u, v in h.arcs]
    if join:
        arcs += [(u, n + w) for u in range(n) for w in range(h.vertex_count)]
    return Digraph(n + h.vertex_count, arcs)


def with_module(g, v, size, constraint):
    """g with vertex v replaced by `size` vertices, each with v's outside arcs.

    The module is v itself plus size - 1 new vertices.  Inside it, a
    transitive tournament for the acyclic constraint, and no arcs for
    triangle-free.
    """
    new = range(g.vertex_count, g.vertex_count + size - 1)
    arcs = list(g.arcs)
    arcs += [(u, x) for u, w in g.arcs if w == v for x in new]
    arcs += [(x, w) for u, w in g.arcs if u == v for x in new]
    if constraint == ACYCLIC:
        module = [v, *new]
        arcs += [(a, b) for i, a in enumerate(module) for b in module[i + 1 :]]
    return Digraph(g.vertex_count + size - 1, arcs)


@st.composite
def digraphs(draw, max_vertices=8):
    """An oriented graph: each pair has no arc, or one arc either way."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kinds = draw(st.lists(st.sampled_from("-<>"), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, [(u, v) if kind == ">" else (v, u) for (u, v), kind in zip(pairs, kinds) if kind != "-"])


constraints = st.sampled_from((ACYCLIC, TRIANGLE_FREE))
relation_settings = settings(max_examples=50)


class TestRandomRelations:
    @relation_settings
    @given(digraphs(), constraints, st.data())
    def test_relabeling_keeps_the_answer(self, g, constraint, data):
        order = data.draw(st.permutations(range(g.vertex_count)))
        assert solved(relabeled(g, order), constraint) == min_colors_by_enumeration(g, constraint)

    @relation_settings
    @given(digraphs(), constraints)
    def test_converse_keeps_the_answer(self, g, constraint):
        assert solved(converse(g), constraint) == min_colors_by_enumeration(g, constraint)

    @relation_settings
    @given(digraphs(max_vertices=6), digraphs(max_vertices=6), constraints, st.booleans())
    def test_union_and_one_way_join_need_the_larger_answer(self, g, h, constraint, join):
        want = max(min_colors_by_enumeration(g, constraint), min_colors_by_enumeration(h, constraint))
        assert solved(disjoint_union(g, h, join=join), constraint) == want

    @relation_settings
    @given(digraphs(), constraints, st.data())
    def test_module_in_place_of_a_vertex_keeps_the_answer(self, g, constraint, data):
        v = data.draw(st.integers(0, g.vertex_count - 1))
        size = data.draw(st.integers(2, 6))
        assert solved(with_module(g, v, size, constraint), constraint) == min_colors_by_enumeration(g, constraint)


def quadratic_residue_tournament(p):
    """The Paley tournament QR_p: i -> j iff j - i is a nonzero square mod p (p = 3 mod 4)."""
    squares = {x * x % p for x in range(1, p)}
    return Digraph(p, [(i, j) for i in range(p) for j in range(p) if (j - i) % p in squares])


class TestFixedCases:
    def test_qr7_needs_three_colors(self):
        qr7 = quadratic_residue_tournament(7)
        for constraint in (ACYCLIC, TRIANGLE_FREE):
            assert solved(qr7, constraint) == min_colors_by_enumeration(qr7, constraint) == 3

    def test_qr11_needs_four_colors(self):
        # Neumann-Lara (1994); the enumeration oracle takes seconds here.
        assert solved(quadratic_residue_tournament(11), ACYCLIC) == 4

    def test_t3_joined_one_way_to_qr11_needs_four(self):
        assert solved(disjoint_union(build_tournament(3), quadratic_residue_tournament(11), join=True), ACYCLIC) == 4

    def test_t3_with_a_cell_replaced_by_a_transitive_module_needs_three(self):
        assert solved(with_module(build_tournament(3), 12, 40, ACYCLIC), ACYCLIC) == 3

    def test_npartite_with_a_vertex_replaced_by_an_independent_set_needs_three(self):
        assert solved(with_module(build_npartite(6, 3), 0, 30, TRIANGLE_FREE), TRIANGLE_FREE) == 3

    @pytest.mark.parametrize(
        "g, constraint",
        [(build_npartite(6, 3), TRIANGLE_FREE), (build_tournament(3), ACYCLIC)],
        ids=["npartite-6x3", "T_3"],
    )
    def test_converse_keeps_the_fixed_answers(self, g, constraint):
        assert solved(converse(g), constraint) == solved(g, constraint) == 3

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicolor import (
    Cell,
    Digraph,
    build_npartite,
    build_tournament,
    digraph_from_json,
    digraph_to_json,
    find_directed_triangle,
    induced,
    is_acyclic,
    is_tournament,
)
from dicolor.board import _bits
from dicolor.digraph import _acyclic_mask, _triangle_mask
from oracles import first_triangle_by_scan, has_directed_cycle_by_subsets, random_digraph, random_tournament

TRIANGLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = Digraph(3, [(0, 1), (0, 2), (1, 2)])


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 0)])

    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            Digraph(-1, [])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1)], labels=[Cell(1, 1), Cell(1, 1)])

    def test_label_length_must_match(self):
        with pytest.raises(ValueError):
            Digraph(2, [], labels=[Cell(1, 1)])

    def test_adjacency(self):
        g = Digraph(4, [(0, 1), (2, 1), (0, 3)])
        assert g.out_mask == (0b1010, 0, 0b0010, 0)
        assert g.in_mask == (0, 0b0101, 0, 0b0001)

    def test_rejection_names_the_offending_vertices(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Digraph(3, [(1, 2), (1, 1)])
        with pytest.raises(ValueError, match="two-cycle between 0 and 2;"):
            Digraph(3, [(0, 1), (2, 0), (0, 2)])


def assert_masks_are_the_arc_set(g):
    n = g.vertex_count
    assert type(g.out_mask) is tuple and type(g.in_mask) is tuple
    assert len(g.out_mask) == len(g.in_mask) == n
    for u in range(n):
        for v in range(n):
            arc = (u, v) in g.arcs
            assert bool(g.out_mask[u] >> v & 1) == arc
            assert bool(g.in_mask[v] >> u & 1) == arc


class TestMasks:
    def test_random_digraphs_their_induced_subgraphs_and_json_round_trips(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(0, 9), rng.random())
            members = [v for v in range(g.vertex_count) if rng.random() < 0.6]
            for h in (g, induced(g, members), digraph_from_json(digraph_to_json(g))):
                assert_masks_are_the_arc_set(h)

    def test_generated_digraphs(self):
        for g in (build_tournament(1), build_tournament(2), build_tournament(3), build_npartite(3, 2)):
            assert_masks_are_the_arc_set(g)


@st.composite
def oriented_arc_lists(draw):
    """A vertex count and the arcs of a random orientation, in random order."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ways = draw(st.lists(st.sampled_from("-><"), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(u, v) if way == ">" else (v, u) for (u, v), way in zip(pairs, ways) if way != "-"]
    return n, draw(st.permutations(arcs))


class TestArcView:
    """`arcs` is a read-only set view of the out-masks, like dict.keys()."""

    @settings(max_examples=200, deadline=None)
    @given(oriented_arc_lists())
    def test_behaves_as_the_set_of_its_arcs(self, case):
        n, arcs = case
        g = Digraph(n, arcs)
        expected = frozenset(arcs)
        assert g.arcs == expected and expected == g.arcs
        assert not g.arcs != expected and not expected != g.arcs
        assert g.arcs <= expected and expected <= g.arcs and g.arcs == Digraph(n, arcs).arcs
        assert len(g.arcs) == len(expected)
        assert list(g.arcs) == sorted(expected)
        assert all(arc in g.arcs for arc in expected)
        other = frozenset({(0, 1), (1, 0), (2, 3)})
        for got, want in (
            (g.arcs | other, expected | other),
            (other | g.arcs, expected | other),
            (g.arcs & other, expected & other),
            (other & g.arcs, expected & other),
            (g.arcs - other, expected - other),
            (other - g.arcs, other - expected),
        ):
            assert type(got) is frozenset and got == want
        for probe in ((-1, 0), (0, n), (0,), "ab", (0.5, 1)):
            assert probe not in g.arcs

    def test_is_unhashable_and_read_only(self):
        arcs = TRIANGLE.arcs
        with pytest.raises(TypeError):
            hash(arcs)
        assert not hasattr(arcs, "add") and not hasattr(arcs, "discard")

    def test_views_compare_as_sets_whatever_the_vertex_count(self):
        small, padded = Digraph(3, [(0, 1), (2, 1)]), Digraph(5, [(2, 1), (0, 1)])
        assert small.arcs == padded.arcs and padded.arcs == small.arcs
        assert not small.arcs != padded.arcs and not padded.arcs != small.arcs
        assert Digraph(0, []).arcs == Digraph(4, []).arcs == frozenset()
        for other in (Digraph(3, [(0, 1), (1, 2)]), Digraph(3, [(0, 1)]), Digraph(5, [(0, 1), (2, 1), (4, 3)])):
            assert small.arcs != other.arcs and other.arcs != small.arcs
            assert not small.arcs == other.arcs and not other.arcs == small.arcs
        expected = frozenset({(0, 1), (2, 1)})
        for view in (small.arcs, padded.arcs):
            assert view == expected and expected == view
            assert not view != expected and not expected != view
            assert view != frozenset({(0, 1)}) and frozenset({(0, 1)}) != view
            assert view != {(0, 1), (2, 1), (1, 0)} and view != [(0, 1), (2, 1)]

    def test_comparing_two_views_reads_only_the_masks(self, monkeypatch):
        a, b = build_tournament(19), build_tournament(19)
        view = type(a.arcs)

        def refuse(*args):
            raise AssertionError("the views were compared arc by arc")

        monkeypatch.setattr(view, "__iter__", refuse)
        monkeypatch.setattr(view, "__contains__", refuse)
        assert a.arcs == b.arcs and not a.arcs != b.arcs
        assert a.arcs != build_tournament(18).arcs

    def test_reading_the_largest_tournament_builds_no_arc_set(self):
        g = build_tournament(19)
        tracemalloc.start()
        try:
            arcs = g.arcs
            assert len(arcs) == 936_396
            assert ((0, 1) in arcs) != ((1, 0) in arcs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestAcyclicity:
    def test_triangle(self):
        assert not is_acyclic(TRIANGLE)

    def test_transitive(self):
        assert is_acyclic(TRANSITIVE)

    def test_empty(self):
        assert is_acyclic(Digraph(0, []))

    def test_matches_subset_oracle_on_random_digraphs(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 5), rng.random())
            assert is_acyclic(g) == (not has_directed_cycle_by_subsets(g))

    def test_long_cycle_detected(self):
        n = 6
        ring = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        assert not is_acyclic(ring)
        assert is_acyclic(ring, within=range(1, n))

    def test_within_matches_subset_oracle(self):
        rng = random.Random(8)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            vs = [v for v in range(g.vertex_count) if rng.random() < 0.6]
            assert is_acyclic(g, vs) == (not has_directed_cycle_by_subsets(induced(g, vs)))

    def test_within_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            is_acyclic(TRIANGLE, within={0, 9})

    def test_within_rejects_negative_and_one_past_the_end(self):
        for vs in ([-1], [3], [0, -1]):
            with pytest.raises(ValueError, match="outside"):
                is_acyclic(TRIANGLE, vs)
        with pytest.raises(ValueError, match="outside"):
            find_directed_triangle(TRIANGLE, [-1])

    def test_within_duplicates_and_generators_match_subset_oracle(self):
        n = 6
        ring = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        for vs in ([1, 1, 2], [0, 5, 0, 5], list(range(n)) * 2):
            expected = not has_directed_cycle_by_subsets(induced(ring, vs))
            assert is_acyclic(ring, vs) == expected
            assert is_acyclic(ring, iter(vs)) == expected
        assert is_acyclic(ring, (v for v in range(n) if v != 3))
        assert not is_acyclic(ring, (v for v in range(n)))

    def test_fractional_members_are_refused(self):
        for call in (is_acyclic, find_directed_triangle, induced):
            with pytest.raises(TypeError):
                call(TRIANGLE, [0.9, 1.5, 2.2])

    def test_long_path_and_ring(self):
        # The walk reads at most 2n + 1 masks; no time is asserted.
        class Counted(tuple):
            reads = 0

            def __getitem__(self, index):
                Counted.reads += 1
                return tuple.__getitem__(self, index)

        n = 20_000
        path = [(i, i + 1) for i in range(n - 1)]
        for arcs, acyclic in ((path, True), ([(v, u) for u, v in path], True), (path + [(n - 1, 0)], False)):
            g = Digraph(n, arcs)
            g.out_mask, g.in_mask = Counted(g.out_mask), Counted(g.in_mask)
            Counted.reads = 0
            assert is_acyclic(g) == acyclic
            assert 0 < Counted.reads <= 2 * n + 1


class TestTriangleSearch:
    def test_finds_triangle(self):
        assert find_directed_triangle(TRIANGLE) == (0, 1, 2)

    def test_none_on_transitive(self):
        assert find_directed_triangle(TRANSITIVE) is None

    def test_returned_triple_has_arc_pattern(self):
        g = build_tournament(2)
        triple = find_directed_triangle(g)
        assert triple is not None
        u, v, w = triple
        assert {(u, v), (v, w), (w, u)} <= g.arcs

    def test_deterministic_first_witness(self):
        # two disjoint triangles; the scan must report the lexicographic first
        g = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert find_directed_triangle(g) == (0, 1, 2)
        assert find_directed_triangle(g, within={3, 4, 5}) == (3, 4, 5)

    def test_within_excludes_triangles(self):
        assert find_directed_triangle(TRIANGLE, within={0, 1}) is None

    def test_rejects_bad_vertices(self):
        with pytest.raises(ValueError):
            find_directed_triangle(TRIANGLE, within={0, 9})

    def test_matches_the_combinations_scan(self):
        rng = random.Random(17)
        graphs = [random_digraph(rng, rng.randint(0, 12), rng.random()) for _ in range(800)]
        graphs += [random_tournament(rng, rng.randint(3, 12)) for _ in range(200)]
        for g in graphs:
            members = [v for v in range(g.vertex_count) if rng.random() < 0.7]
            assert find_directed_triangle(g) == first_triangle_by_scan(g)
            assert find_directed_triangle(g, members[::-1]) == first_triangle_by_scan(g, members)

    def test_matches_the_scan_on_every_npartite_subset(self):
        for n in range(1, 4):
            for m in range(1, 4):
                g = build_npartite(n, m)
                for mask in range(1 << g.vertex_count):
                    members = [v for v in range(g.vertex_count) if mask >> v & 1]
                    assert find_directed_triangle(g, members) == first_triangle_by_scan(g, members), (n, m, mask)


def assert_mask_entries_agree(g, mask):
    members = list(_bits(mask))
    assert _acyclic_mask(g, mask) == is_acyclic(g, members), mask
    assert _triangle_mask(g, mask) == find_directed_triangle(g, members), mask


class TestMaskEntries:
    """The private mask entries give what the validating public entries give."""

    def test_seeded_masks_of_t3(self):
        g = build_tournament(3)
        rng = random.Random(23)
        for _ in range(2_000):
            assert_mask_entries_agree(g, rng.getrandbits(g.vertex_count))

    def test_every_mask_of_the_3x3_npartite_graph(self):
        g = build_npartite(3, 3)
        for mask in range(1 << g.vertex_count):
            assert_mask_entries_agree(g, mask)

    def test_seeded_random_oriented_non_tournaments(self):
        rng = random.Random(29)
        cyclic_but_triangle_free = 0
        for _ in range(300):
            g = random_digraph(rng, rng.randint(0, 12), rng.random())
            for _ in range(10):
                mask = rng.getrandbits(g.vertex_count)
                assert_mask_entries_agree(g, mask)
                cyclic_but_triangle_free += not _acyclic_mask(g, mask) and _triangle_mask(g, mask) is None
        # Acyclic and triangle-free part only here, so the inputs must reach such sets.
        assert cyclic_but_triangle_free > 0


class TestInduced:
    def test_full_set_identity(self):
        g = build_tournament(2)
        h = induced(g, range(9))
        assert h.arcs == g.arcs and h.labels == g.labels

    def test_empty(self):
        h = induced(TRIANGLE, [])
        assert h.vertex_count == 0 and not h.arcs

    def test_arc_filtering_and_reindexing(self):
        g = Digraph(4, [(0, 1), (1, 2), (3, 1)])
        h = induced(g, [1, 3])
        assert h.vertex_count == 2
        assert h.arcs == frozenset({(1, 0)})  # 3 -> 1 becomes 1 -> 0

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_digraph(rng, rng.randint(1, 7))
            members = [v for v in range(g.vertex_count) if rng.random() < 0.6]
            h = induced(g, members)
            again = induced(h, range(h.vertex_count))
            assert again.arcs == h.arcs and again.labels == h.labels

    def test_arc_count_formula(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_digraph(rng, 7)
            members = {v for v in range(7) if rng.random() < 0.5}
            h = induced(g, members)
            assert len(h.arcs) == sum(1 for u, v in g.arcs if u in members and v in members)

    def test_equals_the_arc_tuple_construction(self):
        rng = random.Random(23)
        graphs = [random_digraph(rng, rng.randint(0, 10), rng.random()) for _ in range(150)]
        graphs += [build_tournament(3), build_npartite(4, 3)]
        for g in graphs:
            for _ in range(3):
                vs = [v for v in range(g.vertex_count) if rng.random() < 0.5]
                index = {v: i for i, v in enumerate(vs)}
                arcs = [(index[u], index[v]) for u, v in frozenset(g.arcs) if u in index and v in index]
                labels = None if g.labels is None else [g.labels[v] for v in vs]
                expected = Digraph(len(vs), arcs, labels)
                h = induced(g, vs[::-1] + vs)
                assert (h.vertex_count, h.out_mask, h.in_mask) == (len(vs), expected.out_mask, expected.in_mask)
                assert h.labels == expected.labels and h.board == expected.board

    def test_labels_restricted(self):
        g = build_tournament(2)
        h = induced(g, [0, 8])
        assert h.labels == (Cell(1, 1), Cell(3, 3))


class TestTournamentChecks:
    def test_generated_tournament(self):
        assert is_tournament(build_tournament(3))

    def test_npartite_is_not(self):
        assert not is_tournament(build_npartite(3, 2))

    def test_single_vertex(self):
        assert is_tournament(Digraph(1, []))

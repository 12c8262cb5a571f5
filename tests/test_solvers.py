import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from dicolor import (
    ABORTED_AT_LIMIT,
    ACYCLIC,
    OPTIMAL,
    TRIANGLE_FREE,
    Board,
    Cell,
    Coloring,
    Digraph,
    SolveLimits,
    SolveResult,
    build_npartite,
    build_tournament,
    dichromatic_number,
    greedy_upper_bound,
    is_tournament,
    npartite_lower_bound,
    optimal_c_sparse_partition,
    solve_result_to_json,
    triangle_free_chromatic,
    verify_coloring,
    vertex_of_cell,
)
from oracles import min_colors_by_enumeration, random_digraph, shuffled

THREE_CYCLE = Digraph(3, [(0, 1), (1, 2), (2, 0)])


class TestGreedy:
    def test_acyclic_needs_one_color(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
        for constraint in (ACYCLIC, TRIANGLE_FREE):
            coloring = greedy_upper_bound(g, constraint)
            assert coloring.num_colors == 1
            assert verify_coloring(g, coloring, constraint)

    def test_three_cycle_splits(self):
        coloring = greedy_upper_bound(THREE_CYCLE, ACYCLIC)
        assert coloring.num_colors == 2
        assert verify_coloring(THREE_CYCLE, coloring, ACYCLIC)

    def test_tournament_upper_bound_is_feasible(self):
        g = build_tournament(2)
        coloring = greedy_upper_bound(g, ACYCLIC)
        assert 2 <= coloring.num_colors <= 9
        assert verify_coloring(g, coloring, ACYCLIC)
        assert dichromatic_number(g).value == 2

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            greedy_upper_bound(THREE_CYCLE, "planar")


class TestVerifyColoring:
    def test_accepts_optimal_certificate(self):
        g = build_tournament(2)
        result = dichromatic_number(g)
        assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_rejects_monochromatic_cycle(self):
        coloring = Coloring(THREE_CYCLE, (0, 0, 0), 1)
        assert not verify_coloring(THREE_CYCLE, coloring, ACYCLIC)
        assert not verify_coloring(THREE_CYCLE, coloring, TRIANGLE_FREE)

    def test_partition_classes_color_the_tournament(self):
        # classes of the constructed 3x3 partition are acyclic color classes
        g = build_tournament(2)
        partition = optimal_c_sparse_partition(Board(3, 3))
        color_of = [0] * 9
        for idx, part in enumerate(partition.classes):
            for cell in part.cells:
                color_of[vertex_of_cell(g, cell)] = idx
        coloring = Coloring(g, tuple(color_of), len(partition.classes))
        assert verify_coloring(g, coloring, ACYCLIC)

    def test_shape_mismatch(self):
        small = Coloring(THREE_CYCLE, (0, 1, 0), 2)
        with pytest.raises(ValueError):
            verify_coloring(Digraph(4, []), small, ACYCLIC)

    def test_coloring_validation(self):
        with pytest.raises(ValueError):
            Coloring(THREE_CYCLE, (0, 1), 2)  # wrong length
        with pytest.raises(ValueError):
            Coloring(THREE_CYCLE, (0, 0, 2), 3)  # class 1 empty


class TestExactSolvers:
    def test_tournament_values(self):
        assert dichromatic_number(build_tournament(1)).value == 1
        assert dichromatic_number(build_tournament(2)).value == 2

    def test_certificates_verify(self):
        for k in (1, 2):
            g = build_tournament(k)
            result = dichromatic_number(g)
            assert result.status == OPTIMAL
            assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_acyclic_digraph_is_one(self):
        g = Digraph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        assert dichromatic_number(g).value == 1
        assert triangle_free_chromatic(g).value == 1

    def test_labels_off_their_board_skip_the_band_bound(self):
        # labels with maxima 2 and 2 that miss (1, 1): no full square board to band
        g = Digraph(4, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 1), (2, 2)])
        result = dichromatic_number(g)
        assert result.status == OPTIMAL and result.value == 2

    def test_empty_digraph(self):
        result = dichromatic_number(Digraph(0, []))
        assert result.status == OPTIMAL and result.value == 0

    def test_triangle_free_at_most_dichromatic(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(1, 7), rng.random())
            tf = triangle_free_chromatic(g)
            dc = dichromatic_number(g)
            assert tf.status == OPTIMAL and dc.status == OPTIMAL
            assert tf.value <= dc.value

    def test_matches_partition_enumeration_random(self):
        rng = random.Random(99)
        graphs = [random_digraph(rng, rng.randint(1, 6), rng.random()) for _ in range(40)]
        # Dense random arcs under the 3x3 board's labels: the solver tries the
        # 2-class band coloring as an upper bound, some band class often
        # breaks the constraint, and the greedy bound often needs 3 colors, so a
        # band coloring used unchecked would be returned as optimal.
        cells = list(Board(3, 3).cells())
        graphs += [Digraph(9, random_digraph(rng, 9, 0.5 + rng.random() / 2).arcs, cells) for _ in range(20)]
        # Sparser non-tournaments of 8-9 vertices, whose classes can hold
        # chains long enough that a cycle closes several arcs away from the
        # vertex that joins last.
        chains = [random_digraph(rng, rng.randint(8, 9), 0.3 + rng.random() / 2) for _ in range(20)]
        assert not any(is_tournament(g) for g in chains)
        graphs += chains
        for g in graphs:
            for constraint, solve in ((ACYCLIC, dichromatic_number), (TRIANGLE_FREE, triangle_free_chromatic)):
                result = solve(g)
                assert result.status == OPTIMAL
                assert result.value == min_colors_by_enumeration(g, constraint)
                assert verify_coloring(g, result.certificate, constraint)

    def test_matches_partition_enumeration_random_tournaments(self):
        from oracles import random_tournament

        rng = random.Random(21)
        for _ in range(30):
            g = random_tournament(rng, rng.randint(5, 7))
            result = dichromatic_number(g)
            assert result.value == min_colors_by_enumeration(g, ACYCLIC)
            assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_matches_partition_enumeration_all_4_tournaments(self):
        # every orientation of the complete graph on 4 vertices
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for mask in range(1 << 6):
            arcs = [
                (u, v) if mask >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)
            ]
            g = Digraph(4, arcs)
            result = dichromatic_number(g)
            assert result.value == min_colors_by_enumeration(g, ACYCLIC)

    def test_certificates_verify_on_larger_random_digraphs(self):
        # Cycles that close through vertices placed later are found only by
        # walking the class from the vertex that joins; the enumeration
        # cross-checks above stop at 9 vertices and rarely meet long ones.
        rng = random.Random(1)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(8, 24), rng.random())
            result = dichromatic_number(g)
            assert result.status == OPTIMAL
            assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_long_chain_class_keeps_little_memory(self):
        # A path is one class whose members all lie on one chain.  A search
        # state that kept, per member, the members it reaches would grow
        # with the cube of the chain's length: about 5 MB here.
        n = 300
        path = Digraph(n, [(i, i + 1) for i in range(n - 1)])
        tracemalloc.start()
        try:
            result = dichromatic_number(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status == OPTIMAL and result.value == 1
        assert peak < 1_000_000

    def test_deep_instance_has_no_recursion_limit(self):
        # 220 disjoint copies of a 6-vertex digraph whose first-fit coloring
        # uses 3 colors but whose dichromatic number is 2: the level-2
        # search reaches depth 1,320, beyond Python's recursion limit.
        gadget = [(0, 2), (0, 5), (1, 0), (1, 4), (2, 1), (2, 4), (3, 0), (3, 1), (4, 3), (4, 5), (5, 2), (5, 3)]
        assert greedy_upper_bound(Digraph(6, gadget), ACYCLIC).num_colors == 3
        g = Digraph(6 * 220, [(6 * k + u, 6 * k + v) for k in range(220) for u, v in gadget])
        result = dichromatic_number(g)
        assert result.status == OPTIMAL and result.value == 2
        assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_npartite_contains_triangle(self):
        result = triangle_free_chromatic(build_npartite(3, 2))
        assert result.status == OPTIMAL and result.value >= 2

    def test_tournament_value_equals_board_partition_minimum(self):
        # acyclic color classes of the board tournament are exactly the
        # c-sparse cell classes, so the partition oracle (which solves the
        # board tournament) must agree with the built tournament's value
        from dicolor import bruteforce_min_partition

        for k in (1, 2):
            side = 2 * k - 1
            sigma, _ = bruteforce_min_partition(Board(side, side))
            assert dichromatic_number(build_tournament(k)).value == sigma
        assert dichromatic_number(build_tournament(3)).value == 5 // 2 + 1

    def test_t4_is_solved_within_a_million_nodes(self):
        # Levels 1-3 are proven infeasible by search; the diagonal-band
        # partition of the 7x7 board witnesses level 4.
        g = build_tournament(4)
        result = dichromatic_number(g, SolveLimits(max_nodes=1_000_000))
        assert result.status == OPTIMAL and result.value == 4
        assert verify_coloring(g, result.certificate, ACYCLIC)

    def test_t4_in_shuffled_vertex_order_takes_the_band_through_its_labels(self):
        # The band read off the labels bounds level 4; without it these three
        # searches take 613,894, 129,478 and 25,789 nodes.
        for seed in range(3):
            result = dichromatic_number(shuffled(build_tournament(4), seed))
            assert result.status == OPTIMAL and result.value == 4
            assert result.nodes_explored < 1000


class TestLimits:
    def test_node_limit_aborts(self):
        result = dichromatic_number(build_tournament(3), SolveLimits(max_nodes=1))
        assert result.status == ABORTED_AT_LIMIT
        assert result.value == 1  # nothing beyond the trivial bound was proven
        assert result.certificate is None

    def test_aborted_value_is_proven_bound(self):
        # enough nodes to finish levels 1 and 2 of T_4 (77 nodes) but not 3
        result = dichromatic_number(build_tournament(4), SolveLimits(max_nodes=1000))
        assert result.status == ABORTED_AT_LIMIT
        assert result.value in (2, 3, 4)
        full = dichromatic_number(build_tournament(4))
        assert result.value <= full.value

    def test_time_limit_covers_greedy(self):
        # The greedy bound runs under the solve's own budget: on T_8 a
        # greedy outside the budget alone took seconds.
        g = build_tournament(8)
        start = time.perf_counter()
        result = dichromatic_number(g, SolveLimits(max_seconds=0.2))
        assert time.perf_counter() - start < 1.0
        assert result.status == ABORTED_AT_LIMIT

    def test_time_limit_holds_when_each_node_is_slow(self):
        # On an 8,000-vertex path each node walks back over the whole chain
        # placed so far, on n-bit masks, so a node's cost grows with its
        # depth; the clock must be read at every node, not every few thousand.
        n = 8000
        path = Digraph(n, [(i, i + 1) for i in range(n - 1)])
        result = dichromatic_number(path, SolveLimits(max_seconds=0.2))
        assert result.status == ABORTED_AT_LIMIT
        assert result.elapsed < 0.5

    @pytest.mark.parametrize("solve", [dichromatic_number, triangle_free_chromatic])
    def test_a_tiny_time_limit_reports_only_proven_bounds(self, solve):
        # The empty digraph is answered before the budget starts; any other
        # digraph trips the search's root tick, having proven only 1.
        limits = SolveLimits(max_seconds=1e-9)
        empty = solve(Digraph(0, []), limits)
        assert (empty.status, empty.value, empty.nodes_explored) == (OPTIMAL, 0, 0)
        for g in (Digraph(1, []), build_tournament(2)):
            result = solve(g, limits)
            assert (result.status, result.value, result.certificate) == (ABORTED_AT_LIMIT, 1, None)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            SolveLimits(max_nodes=0)
        with pytest.raises(ValueError):
            SolveLimits(max_seconds=0)
        with pytest.raises(ValueError):
            SolveLimits(max_seconds=float("nan"))
        assert SolveLimits(max_seconds=math.inf).max_seconds == math.inf


class TestSolveResult:
    def test_optimal_needs_a_certificate(self):
        with pytest.raises(ValueError, match="certificate"):
            SolveResult(OPTIMAL, 2, None, 0, 0.0)


class TestLowerBoundFormula:
    def test_values(self):
        assert npartite_lower_bound(8, 4) == Fraction(32, 14)
        assert npartite_lower_bound(1, 1) == Fraction(1, 1)
        assert npartite_lower_bound(6, 3) == Fraction(18, 10)

    def test_ceiling_use(self):
        assert math.ceil(npartite_lower_bound(6, 3)) == 2
        assert math.ceil(npartite_lower_bound(8, 4)) == 3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            npartite_lower_bound(0, 3)
        with pytest.raises(ValueError):
            npartite_lower_bound(3, 0)

    def test_bound_holds_on_solved_instances(self):
        for n in range(1, 7):
            for m in range(1, 4):
                result = triangle_free_chromatic(build_npartite(n, m))
                if result.status == OPTIMAL:
                    assert result.value >= math.ceil(npartite_lower_bound(n, m))


class TestResultSerialization:
    def test_optimal_includes_colors(self):
        result = dichromatic_number(build_tournament(2))
        doc = solve_result_to_json(result)
        assert doc["status"] == "optimal" and doc["value"] == 2
        assert doc["colors"] == list(result.certificate.color_of)
        assert isinstance(doc["nodes"], int) and isinstance(doc["millis"], int)

    def test_abort_omits_colors(self):
        result = dichromatic_number(build_tournament(3), SolveLimits(max_nodes=1))
        doc = solve_result_to_json(result)
        assert doc["status"] == "aborted_at_limit"
        assert "colors" not in doc

    def test_deterministic_node_counts(self):
        # Pinned values: any change to the search order, the symmetry breaking,
        # the forward checking, the band upper bound or the node accounting
        # (n + 1 greedy nodes, then one per search node) moves them.
        cases = [
            (build_tournament(3), dichromatic_number, 51, "0221100221100221100221100"),
            (build_npartite(6, 3), triangle_free_chromatic, 89, "000000111111222222"),
            (random_digraph(random.Random(6), 18, 0.5), dichromatic_number, 60, "000101001100010111"),
        ]
        for g, solve, nodes, colors in cases:
            a = solve(g)
            b = solve(g)
            assert a.nodes_explored == b.nodes_explored == nodes
            assert a.certificate.color_of == b.certificate.color_of
            assert "".join(map(str, a.certificate.color_of)) == colors

"""The four benchmark workloads.

A workload makes its inputs from the seed (`setup`, timed as set-up), lists
the operations of one pass (`operations`, timed as the pass), and checks each
operation's output with `bench/checks.py` (`check`, untimed).  Every
operation looks dicolor's functions up on the package at call time, so a
traced pass goes through the tracer's wrappers.

Every solve is bounded by `max_nodes` alone; `max_seconds` is set far out of
reach, so a pass does the same work however fast the host is.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import checks

# Far beyond any pass, so only node budgets end a search.
NO_TIME_LIMIT = 1e9
# Budget for the searches expected to finish, far above the largest of them
# (n-partite 8x4, 364,244 nodes).
NODE_BUDGET = 10_000_000
# T_4 proves levels 1-3 infeasible in 916,540 nodes, then searches level 4
# until this budget runs out.
T4_NODE_BUDGET = 1_000_000


class Outcome:
    """What a check concluded about one operation.

    failure: why the operation reached no verdict (it raised, or a search
    ended at its node budget), or None.  A failed operation is counted, not
    judged.  problems: every way a verdict, or a bound reported on failing,
    is wrong.
    """

    __slots__ = ("failure", "problems")

    def __init__(self, failure: str | None = None, problems: list[str] | None = None) -> None:
        self.failure = failure
        self.problems = problems or []


def _limits(dc, max_nodes: int = NODE_BUDGET):
    return dc.SolveLimits(max_nodes=max_nodes, max_seconds=NO_TIME_LIMIT)


def _random_tournament(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) if rng.random() < 0.5 else (v, u) for u in range(n) for v in range(u + 1, n)]


def _random_oriented(n: int, density: float, rng: random.Random) -> list[tuple[int, int]]:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def generation_problems(name: str, digraph, arcs, labels) -> list[str]:
    """dicolor's digraph must hold exactly the arcs and labels the benchmark derives itself."""
    got_labels = None if digraph.labels is None else [tuple(cell) for cell in digraph.labels]
    if set(digraph.arcs) != set(arcs) or got_labels != labels:
        return [f"{name}: digraph differs from the one the benchmark derives"]
    return []


def check_solve(result, n, arcs, constraint, *, exact=None, at_least=None, exhaustive=None) -> Outcome:
    """Status, value and certificate of one solve.

    exact: the known minimum.  at_least: a proven lower bound on it.
    exhaustive: the minimum from `checks.exhaustive_minimum`.  A solve that
    ends at its node budget fails; the lower bound it reports must still hold.
    """
    if isinstance(result, Exception):
        return Outcome(f"raised {result!r}")
    known = exact if exact is not None else exhaustive
    if result.status != "optimal":
        problems = []
        if known is not None and result.value > known:
            problems.append(f"{result.status} claims lower bound {result.value} > minimum {known}")
        return Outcome(f"{result.status} at {result.nodes_explored} nodes", problems)
    problems = checks.check_coloring(n, arcs, result.certificate.color_of, result.value, constraint)
    for name, want in (("exact", exact), ("exhaustive", exhaustive)):
        if want is not None and result.value != want:
            problems.append(f"value {result.value} != {name} minimum {want}")
    if at_least is not None and result.value < at_least:
        problems.append(f"value {result.value} < proven lower bound {at_least}")
    return Outcome(problems=problems)


class PaperClaims:
    """`dicolor verify all` at its default scale, through `dicolor.cli.main`."""

    name = "paper-claims"
    modules = ("dicolor", "dicolor.cli")

    def setup(self, dc, seed: int):
        return ["verify", "all", "--seed", str(seed)]

    def expect(self, dc, argv):
        return {"problems": []}

    def operations(self, dc, argv):
        cli = sys.modules["dicolor.cli"]

        def verify_all():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return [("verify-all", verify_all)]

    def check(self, key, output, expected) -> Outcome:
        if isinstance(output, Exception):
            return Outcome(f"raised {output!r}")
        return Outcome(problems=checks.check_verify_all(*output))


class TournamentSearch:
    """Exact solves: T_1..T_4, seeded random tournaments, n-partite 6x3 and 8x4."""

    name = "tournament-search"
    modules = ("dicolor",)
    # Random tournaments: 12 vertices are re-solved exhaustively; 24 give the
    # search real work with a light-tailed node count.
    RANDOM_SIZES = (12, 12, 12, 12, 24, 24, 24, 24, 24, 24)
    NPARTITE = ((6, 3), (8, 4))

    def setup(self, dc, seed: int):
        """Digraphs keyed by job, each with the arcs the benchmark drew (None when dicolor generates it)."""
        inputs = {}
        for k in (1, 2, 3, 4):
            inputs[("tk", k)] = (dc.build_tournament(k), None)
        for i, n in enumerate(self.RANDOM_SIZES):
            arcs = _random_tournament(n, random.Random(f"{seed}-tournament-{i}"))
            inputs[("random", i)] = (dc.Digraph(n, arcs), arcs)
        for n, m in self.NPARTITE:
            inputs[("npartite", n, m)] = (dc.build_npartite(n, m), None)
        return inputs

    def expect(self, dc, inputs):
        expected = {"problems": []}
        for key, (g, arcs) in inputs.items():
            labels = None
            if key[0] == "tk":
                side = 2 * key[1] - 1
                arcs, labels = checks.board_digraph(side, side)
            elif key[0] == "npartite":
                arcs, labels = checks.board_digraph(key[1], key[2], same_row_arcs=False)
            expected["problems"] += generation_problems(str(key), g, arcs, labels)
            exhaustive = None
            if key[0] != "npartite" and g.vertex_count <= checks.EXHAUSTIVE_MAX_VERTICES:
                exhaustive = checks.exhaustive_minimum(g.vertex_count, arcs)
            expected[key] = (g.vertex_count, arcs, exhaustive)
        return expected

    def operations(self, dc, inputs):
        ops = []
        for key, (g, _) in inputs.items():
            if key[0] == "npartite":
                ops.append((key, lambda g=g: dc.triangle_free_chromatic(g, _limits(dc))))
            else:
                budget = T4_NODE_BUDGET if key == ("tk", 4) else NODE_BUDGET
                ops.append((key, lambda g=g, budget=budget: dc.dichromatic_number(g, _limits(dc, budget))))
        return ops

    def check(self, key, result, expected) -> Outcome:
        n, arcs, exhaustive = expected[key]
        if key[0] == "npartite":
            return check_solve(result, n, arcs, "triangle-free", at_least=checks.npartite_bound(key[1], key[2]))
        if key[0] == "tk":
            # Known fault: the search never finds a 4-coloring of T_4, so that
            # solve ends at its node budget and fails.  It passes once optimal.
            return check_solve(result, n, arcs, "acyclic", exact=key[1], exhaustive=exhaustive)
        return check_solve(result, n, arcs, "acyclic", exhaustive=exhaustive)


class RandomDigraphs:
    """Seeded random oriented graphs (not tournaments) through the `dicolor solve` path."""

    name = "random-digraphs"
    modules = ("dicolor",)
    DENSITY = 0.5
    # Single instances at this density differ in search work by a factor of
    # 100, so a pass of seeded instances alone would not be comparable across
    # seeds.  A fixed core of n = 20..32 carries the pass; a seeded tail of
    # smaller instances (about 3% of the pass) brings new inputs on every seed.
    CORE_SIZES = tuple(range(20, 33))
    TAIL_SIZES = (16, 17, 18, 19) * 3

    def setup(self, dc, seed: int):
        docs = {}
        for n in self.CORE_SIZES:
            rng = random.Random(f"core-{n}")
            docs[("core", n)] = json.dumps({"vertices": n, "arcs": _random_oriented(n, self.DENSITY, rng)})
        for i, n in enumerate(self.TAIL_SIZES):
            rng = random.Random(f"{seed}-tail-{i}")
            docs[("tail", i)] = json.dumps({"vertices": n, "arcs": _random_oriented(n, self.DENSITY, rng)})
        return docs

    def expect(self, dc, docs):
        expected = {"problems": []}
        for key, text in docs.items():
            doc = json.loads(text)
            n, arcs = doc["vertices"], [tuple(arc) for arc in doc["arcs"]]
            if len(arcs) == n * (n - 1) // 2:
                expected["problems"].append(f"{key}: generated a tournament")
            acyclic = checks.class_is_acyclic(checks.out_lists(n, arcs), list(range(n)))
            expected[key] = (n, arcs, acyclic)
        return expected

    def operations(self, dc, docs):
        def solve(text):
            g = dc.digraph_from_json(json.loads(text))
            result = dc.dichromatic_number(g, _limits(dc))
            return json.dumps(dc.solve_result_to_json(result), sort_keys=True)

        return [(key, lambda text=text: solve(text)) for key, text in docs.items()]

    def check(self, key, output, expected) -> Outcome:
        if isinstance(output, Exception):
            return Outcome(f"raised {output!r}")
        n, arcs, acyclic = expected[key]
        doc = json.loads(output)
        if doc["status"] != "optimal":
            return Outcome(f"{doc['status']} at {doc['nodes']} nodes")
        problems = checks.check_coloring(n, arcs, doc["colors"], doc["value"], "acyclic")
        if (doc["value"] == 1) != acyclic:
            problems.append(f"value {doc['value']} on a digraph that is {'' if acyclic else 'not '}acyclic")
        return Outcome(problems=problems)


class LargeTournaments:
    """T_5..T_7, each also in a seeded vertex order: greedy bound, band k-coloring, JSON, SVG."""

    name = "large-tournaments"
    modules = ("dicolor",)
    KS = (5, 6, 7)

    def setup(self, dc, seed: int):
        inputs = {}
        for k in self.KS:
            g = dc.build_tournament(k)
            n = g.vertex_count
            order = list(range(n))
            random.Random(f"{seed}-relabel-{k}").shuffle(order)
            labels = [None] * n
            for v, cell in enumerate(g.labels):
                labels[order[v]] = cell
            relabeled = dc.Digraph(n, [(order[u], order[v]) for u, v in g.arcs], labels)
            inputs[(k, "natural")] = (g, list(range(n)))
            inputs[(k, "relabeled")] = (relabeled, order)
        return inputs

    def expect(self, dc, inputs):
        expected = {"problems": []}
        for (k, kind), (g, order) in inputs.items():
            side = 2 * k - 1
            board_arcs, board_labels = checks.board_digraph(side, side)
            arcs = [(order[u], order[v]) for u, v in board_arcs]
            labels = [None] * len(order)
            for v, cell in enumerate(board_labels):
                labels[order[v]] = cell
            expected["problems"] += generation_problems(f"T_{k} {kind}", g, arcs, labels)
            expected[(k, kind)] = (g.vertex_count, arcs, labels)
        return expected

    def operations(self, dc, inputs):
        def greedy(g):
            coloring = dc.greedy_upper_bound(g, dc.ACYCLIC)
            return coloring.color_of, coloring.num_colors, dc.verify_coloring(g, coloring, dc.ACYCLIC)

        def band(g, side):
            partition = dc.optimal_c_sparse_partition(dc.Board(side, side))
            colors = [0] * g.vertex_count
            for index, part in enumerate(partition.classes):
                for cell in part.cells:
                    colors[dc.vertex_of_cell(g, cell)] = index
            coloring = dc.Coloring(g, tuple(colors), len(partition.classes))
            return coloring.color_of, coloring.num_colors, dc.verify_coloring(g, coloring, dc.ACYCLIC)

        def roundtrip(g):
            back = dc.digraph_from_json(json.loads(json.dumps(dc.digraph_to_json(g))))
            return back.arcs, back.labels

        def svg(side):
            return dc.partition_to_svg(dc.optimal_c_sparse_partition(dc.Board(side, side)))

        ops = []
        for (k, kind), (g, _) in inputs.items():
            side = 2 * k - 1
            ops.append(((k, kind, "greedy"), lambda g=g: greedy(g)))
            ops.append(((k, kind, "band"), lambda g=g, side=side: band(g, side)))
            ops.append(((k, kind, "json"), lambda g=g: roundtrip(g)))
        for k in self.KS:
            ops.append(((k, "svg"), lambda side=2 * k - 1: svg(side)))
        return ops

    def check(self, key, output, expected) -> Outcome:
        if isinstance(output, Exception):
            return Outcome(f"raised {output!r}")
        k = key[0]
        if key[1] == "svg":
            return Outcome(problems=checks.check_svg(output, 2 * k - 1, 2 * k - 1))
        n, arcs, labels = expected[key[:2]]
        if key[2] == "json":
            return Outcome(problems=checks.check_roundtrip(arcs, labels, *output))
        colors, count, accepted = output
        problems = checks.check_coloring(n, arcs, colors, count, "acyclic")
        if key[2] == "greedy" and count < k:
            problems.append(f"greedy used {count} colors, below the dichromatic number {k}")
        if key[2] == "band" and count != k:
            problems.append(f"band coloring used {count} colors, not {k}")
        if not accepted:
            problems.append("verify_coloring rejected a coloring")
        return Outcome(problems=problems)


WORKLOADS = {w.name: w for w in (PaperClaims(), TournamentSearch(), RandomDigraphs(), LargeTournaments())}

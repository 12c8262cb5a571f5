"""Span tracing around calls into dicolor's public functions.

Nothing in dicolor changes: the tracer replaces each traced function with a
timing wrapper in every dicolor namespace that binds it (the defining module,
the modules that import it by name, and the package).  Modules look such
names up at call time, so calls between modules, and calls within one
module such as `_solve` -> `greedy_upper_bound`, pass through the wrapper.

A span is (layer, start, end, parent); spans nest by call order in this
single-threaded process.  A layer's self time is its span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, defining module, public function names).  A layer may hold more
# than one function; nested calls within a layer are counted once inclusively.
LAYERS = (
    ("cli.verify", "dicolor.cli", ("cmd_verify",)),
    ("verify.order", "dicolor.verify", ("suite_order",)),
    ("verify.bounds", "dicolor.verify", ("suite_bounds",)),
    ("verify.diagonals", "dicolor.verify", ("suite_diagonals",)),
    ("verify.sigma", "dicolor.verify", ("suite_sigma",)),
    ("verify.tk", "dicolor.verify", ("suite_tk",)),
    ("verify.equivalence", "dicolor.verify", ("suite_equivalence",)),
    ("verify.npartite", "dicolor.verify", ("suite_npartite",)),
    ("board.is_c_sparse", "dicolor.board", ("is_c_sparse",)),
    ("board.is_weak_c_sparse", "dicolor.board", ("is_weak_c_sparse",)),
    ("board.bruteforce", "dicolor.board", ("bruteforce_max_sparse", "bruteforce_min_partition")),
    ("board.partition", "dicolor.board", ("optimal_c_sparse_partition", "diagonal_band")),
    ("generators.build", "dicolor.generators", ("build_tournament", "build_npartite", "tournament_from_board")),
    ("generators.cell_set_of", "dicolor.generators", ("cell_set_of",)),
    ("digraph.induced", "dicolor.digraph", ("induced",)),
    ("digraph.is_acyclic", "dicolor.digraph", ("is_acyclic",)),
    ("digraph.find_directed_triangle", "dicolor.digraph", ("find_directed_triangle",)),
    ("digraph.json", "dicolor.digraph", ("digraph_to_json", "digraph_from_json")),
    ("solvers.solve", "dicolor.solvers", ("dichromatic_number", "triangle_free_chromatic")),
    ("solvers.greedy", "dicolor.solvers", ("greedy_upper_bound",)),
    ("solvers.verify_coloring", "dicolor.solvers", ("verify_coloring",)),
    ("render.svg", "dicolor.render", ("partition_to_svg",)),
)


class Tracer:
    """Installs the wrappers and keeps the current pass's spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.search_nodes = 0
        self.greedy_colors = 0
        self.last_spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Bind a wrapper in place of every traced function, in every dicolor namespace."""
        modules = [mod for name, mod in sys.modules.items() if name == "dicolor" or name.startswith("dicolor.")]
        for layer, home, names in LAYERS:
            if home not in sys.modules:
                continue  # the workload does not import this module
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        """Restore the original bindings, so untraced passes run dicolor unchanged."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer: str, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        if layer == "solvers.solve":
            def record(result) -> None:
                self.search_nodes += result.nodes_explored
        elif layer == "solvers.greedy":
            def record(result) -> None:
                self.greedy_colors += result.num_colors
        else:
            record = None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if record is not None:
                record(result)
            return result

        return wrapper

    def take_pass(self) -> dict:
        """Per-layer totals of the spans recorded since the last call; clears them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for index, (layer, start, end, parent) in enumerate(spans):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[index]
            calls[layer] = calls.get(layer, 0) + 1
            if parent < 0 or spans[parent][0] != layer:
                inclusive[layer] = inclusive.get(layer, 0.0) + (end - start)
        summary = {
            "self_s": self_time,
            "inclusive_s": inclusive,
            "calls": calls,
            "search_nodes": self.search_nodes,
            "greedy_colors": self.greedy_colors,
        }
        self.last_spans = list(spans)
        spans.clear()
        self.search_nodes = 0
        self.greedy_colors = 0
        return summary

    def write(self, path, summaries: list[dict]) -> None:
        """Write the last traced pass's spans and every pass's layer totals."""
        spans = self.last_spans
        origin = spans[0][1] if spans else 0.0
        names = sorted({span[0] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "layers": names,
            "spans_of_last_pass": [
                [index[layer], round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3), parent]
                for layer, start, end, parent in spans
            ],
            "span_fields": ["layer", "start_us", "end_us", "parent"],
            "passes": summaries,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")

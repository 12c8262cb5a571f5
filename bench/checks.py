"""Output checks that share no code with dicolor.

Every function here works on plain Python data (vertex counts, arc lists,
color lists, text) built by the benchmark itself, so a fault in dicolor's own
checking code (`verify_coloring`, `is_acyclic`, `find_directed_triangle`)
cannot hide a wrong answer.  Each check returns a list of problems; an empty
list means the output is accepted.
"""

from __future__ import annotations

import re

# Largest instance whose minimum the exhaustive subset DP re-derives.
EXHAUSTIVE_MAX_VERTICES = 12

# The claim ids `dicolor verify all` prints at its default scale.
VERIFY_ALL_CLAIMS = frozenset(
    [f"bounds/{name}" for name in ("c-sparse-rect", "c-sparse-square", "tight-single-column", "weak")]
    + [f"diagonals/n={n:02d}" for n in range(1, 16, 2)]
    + ["equivalence/t2-exhaustive", "equivalence/t3-random"]
    + ["npartite/bound-3x2", "npartite/bound-4x2", "npartite/bound-6x3", "npartite/observation"]
    + ["order/antitone", "order/c-implies-weak", "order/total-order"]
    + [f"sigma/bruteforce-n={n}" for n in range(1, 6)]
    + ["sigma/construction-n<=15"]
    + [f"tk/k={k}" for k in (1, 2, 3)]
)


def board_digraph(n: int, m: int, same_row_arcs: bool = True) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Arcs and labels of the digraph the paper builds on an n x m board.

    Written from the paper's rule: cells in row-major order; a same-column
    pair points from the earlier cell to the later one, any other pair from
    the later cell to the earlier one.  With all pairs joined this is the
    board tournament; without same-row pairs it is the n-partite digraph.
    Vertex v labels cell (v // m + 1, v % m + 1).
    """
    labels = [(v // m + 1, v % m + 1) for v in range(n * m)]
    arcs = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            if labels[a][0] == labels[b][0] and not same_row_arcs:
                continue
            arcs.append((a, b) if labels[a][1] == labels[b][1] else (b, a))
    return arcs, labels


def npartite_bound(n: int, m: int) -> int:
    """ceil(n*m / (n + 2m - 2)) in integer arithmetic."""
    return -(-(n * m) // (n + 2 * m - 2))


def out_lists(n: int, arcs) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    return out


def class_is_acyclic(out: list[list[int]], members: list[int]) -> bool:
    """Kahn's topological sort restricted to one vertex class."""
    inside = set(members)
    indegree = dict.fromkeys(members, 0)
    for u in members:
        for w in out[u]:
            if w in inside:
                indegree[w] += 1
    ready = [u for u in members if indegree[u] == 0]
    sorted_count = 0
    while ready:
        u = ready.pop()
        sorted_count += 1
        for w in out[u]:
            if w in inside:
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
    return sorted_count == len(members)


def class_is_triangle_free(arc_set: set[tuple[int, int]], out: list[list[int]], members: list[int]) -> bool:
    """No u->v->w->u with all three vertices in the class."""
    inside = set(members)
    for u in members:
        for v in out[u]:
            if v in inside:
                for w in out[v]:
                    if w in inside and (w, u) in arc_set:
                        return False
    return True


def check_coloring(n: int, arcs, colors, value: int, constraint: str) -> list[str]:
    """A certificate uses exactly `value` colors and every class meets the constraint."""
    if len(colors) != n:
        return [f"coloring has {len(colors)} entries for {n} vertices"]
    if set(colors) != set(range(value)):
        return [f"coloring does not use exactly the colors 0..{value - 1}"]
    out = out_lists(n, arcs)
    classes: list[list[int]] = [[] for _ in range(value)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    if constraint == "acyclic":
        bad = [c for c, members in enumerate(classes) if not class_is_acyclic(out, members)]
    else:
        arc_set = set(arcs)
        bad = [c for c, members in enumerate(classes) if not class_is_triangle_free(arc_set, out, members)]
    return [f"color class {c} violates {constraint}" for c in bad]


def exhaustive_minimum(n: int, arcs) -> int:
    """Least number of acyclic classes that cover all n vertices.

    Acyclicity is hereditary, so a cover by t acyclic sets yields a partition
    into t acyclic sets.  good[S] holds when S has a source whose removal
    leaves an acyclic set; count[X] is the number of acyclic subsets of X
    (a zeta transform); t sets cover V iff sum_X (-1)^(n-|X|) count[X]^t > 0.
    """
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise ValueError(f"exhaustive minimum is limited to {EXHAUSTIVE_MAX_VERTICES} vertices")
    if n == 0:
        return 0
    full = 1 << n
    in_mask = [0] * n
    for u, v in arcs:
        in_mask[v] |= 1 << u
    good = [False] * full
    good[0] = True
    for s in range(1, full):
        rest = s
        while rest:
            low = rest & -rest
            if in_mask[low.bit_length() - 1] & s == 0 and good[s ^ low]:
                good[s] = True
                break
            rest ^= low
    count = [1 if g else 0 for g in good]
    for v in range(n):
        bit = 1 << v
        for s in range(full):
            if s & bit:
                count[s] += count[s ^ bit]
    for t in range(1, n + 1):
        total = 0
        for s in range(full):
            term = count[s] ** t
            total += -term if (n - bin(s).count("1")) & 1 else term
        if total > 0:
            return t
    raise AssertionError("singleton classes always cover the vertices")


def check_verify_all(exit_code: int, text: str) -> list[str]:
    """Every expected claim id is printed once, and every claim printed PASS."""
    problems = [] if exit_code == 0 else [f"verify all exited with {exit_code}"]
    seen: dict[str, str] = {}
    for line in text.splitlines():
        match = re.match(r"(PASS|FAIL)\s+(\S+)\s", line)
        if match:
            if match.group(2) in seen:
                problems.append(f"claim {match.group(2)} printed twice")
            seen[match.group(2)] = match.group(1)
    missing = VERIFY_ALL_CLAIMS - seen.keys()
    if missing:
        problems.append(f"missing claims {sorted(missing)}")
    extra = seen.keys() - VERIFY_ALL_CLAIMS
    if extra:
        problems.append(f"unexpected claims {sorted(extra)}")
    problems += [f"claim {cid} printed {mark}" for cid, mark in sorted(seen.items()) if mark != "PASS"]
    return problems


def check_svg(svg: str, n: int, m: int, cell_pixels: int = 32) -> list[str]:
    """One rect per board cell, at that cell's position."""
    spots = re.findall(r'<rect x="(\d+)" y="(\d+)"', svg)
    if len(spots) != n * m:
        return [f"svg has {len(spots)} rects for {n * m} cells"]
    want = {(str((j - 1) * cell_pixels), str((i - 1) * cell_pixels)) for i in range(1, n + 1) for j in range(1, m + 1)}
    if set(spots) != want:
        return ["svg rects do not sit one on each cell"]
    return []


def check_roundtrip(arcs, labels, got_arcs, got_labels) -> list[str]:
    """A parsed document gives back the same arc set and the same labels."""
    problems = []
    if set(map(tuple, arcs)) != set(map(tuple, got_arcs)):
        problems.append("round trip changed the arc set")
    want = None if labels is None else [tuple(cell) for cell in labels]
    got = None if got_labels is None else [tuple(cell) for cell in got_labels]
    if want != got:
        problems.append("round trip changed the labels")
    return problems

import random

import pytest

from dicolor import Digraph, build_npartite, build_tournament, cell_set_of, is_acyclic, is_c_sparse, verify
from dicolor.solvers import ABORTED_AT_LIMIT, SolveResult
from dicolor.verify import run_suites


def aborted_at(value):
    """A stand-in solver whose every solve aborts having proven `value`."""
    return lambda g, limits=None: SolveResult(ABORTED_AT_LIMIT, value, None, 0, 0.0)


def test_all_suites_pass_at_default_scale():
    claims = run_suites(["all"])
    assert claims and all(c.passed for c in claims)
    # the default scale must not need the resource-limit escape hatch
    solver_backed = [c for c in claims if c.claim_id.startswith(("npartite/bound", "tk/"))]
    assert solver_backed and all("optimal" in c.detail for c in solver_backed)


def test_claims_sorted_by_id():
    claims = run_suites(["all"])
    ids = [c.claim_id for c in claims]
    assert ids == sorted(ids)


def test_explicit_case_replaces_defaults():
    claims = run_suites(["npartite"], npartite_case=(8, 4))
    ids = {c.claim_id for c in claims}
    assert "npartite/bound-8x4" in ids and "npartite/bound-3x2" not in ids


def test_seed_is_reproducible():
    first = run_suites(["equivalence"], seed=33)
    second = run_suites(["equivalence"], seed=33)
    assert [(c.claim_id, c.passed, c.detail) for c in first] == [
        (c.claim_id, c.passed, c.detail) for c in second
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["everything"])


def test_scale_flags_thin_the_suites():
    assert len(run_suites(["tk"], max_k=1)) == 1
    sigma = run_suites(["sigma"], max_n=2)
    assert {c.claim_id for c in sigma} == {
        "sigma/bruteforce-n=1",
        "sigma/bruteforce-n=2",
        "sigma/construction-n<=15",
    }


def test_max_n_above_the_brute_force_cap_stops_sigma_there():
    claims = run_suites(["sigma", "diagonals"], max_n=7)
    assert claims and all(c.passed for c in claims)
    ids = {c.claim_id for c in claims}
    assert {i for i in ids if i.startswith("sigma/bruteforce")} == {
        f"sigma/bruteforce-n={n}" for n in range(1, 6)
    }
    assert {i for i in ids if i.startswith("diagonals/")} == {
        f"diagonals/n={n:02d}" for n in (1, 3, 5, 7)
    }


@pytest.mark.parametrize("scale", [{"max_n": 0}, {"max_n": -1}, {"max_k": 0}, {"max_k": -1}])
def test_scale_below_one_rejected(scale):
    with pytest.raises(ValueError, match=next(iter(scale))):
        run_suites(["diagonals", "tk"], **scale)


def test_aborted_solve_that_proves_too_little_leaves_the_claim_undecided(monkeypatch):
    monkeypatch.setattr(verify, "dichromatic_number", aborted_at(1))
    monkeypatch.setattr(verify, "triangle_free_chromatic", aborted_at(1))
    claims = run_suites(["tk", "npartite"], max_k=2, npartite_case=(3, 2))
    verdicts = {c.claim_id: c.passed for c in claims}
    # chi(T_k) >= 1 neither settles nor contradicts chi(T_k) = k; 1 is below ceil(6/5) = 2
    assert verdicts == {"tk/k=1": None, "tk/k=2": None, "npartite/bound-3x2": None, "npartite/observation": True}


def test_aborted_solve_can_refute_or_settle_a_claim(monkeypatch):
    monkeypatch.setattr(verify, "dichromatic_number", aborted_at(2))
    monkeypatch.setattr(verify, "triangle_free_chromatic", aborted_at(2))
    claims = run_suites(["tk", "npartite"], max_k=2, npartite_case=(3, 2))
    verdicts = {c.claim_id: c.passed for c in claims}
    # chi(T_1) >= 2 refutes chi(T_1) = 1; chi >= 2 settles the 3x2 bound ceil(6/5) = 2
    assert verdicts == {"tk/k=1": False, "tk/k=2": None, "npartite/bound-3x2": True, "npartite/observation": True}


def t2_with_one_arc_flipped(k):
    """T_2 with its arc 1 -> 0 turned into 0 -> 1, labels kept; other k as generated."""
    g = build_tournament(k)
    if k != 2:
        return g
    return Digraph(g.vertex_count, [(0, 1) if arc == (1, 0) else arc for arc in g.arcs], g.labels)


def with_shuffled_labels(build):
    """A generator whose digraphs keep their arcs but label their vertices in a shuffled order."""

    def shuffled(*args):
        g = build(*args)
        labels = list(g.labels)
        random.Random(repr(args)).shuffle(labels)
        return Digraph(g.vertex_count, g.arcs, labels)

    return shuffled


def test_equivalence_fails_on_a_tournament_with_one_arc_flipped(monkeypatch):
    mutant = t2_with_one_arc_flipped(2)
    # {0, 1, 3} was a directed triangle; flipped, it is acyclic, yet its cells
    # (1,1), (1,2), (2,1) put column 2 between the two cells of column 1.
    assert is_acyclic(mutant, [0, 1, 3]) and not is_c_sparse(cell_set_of(mutant, [0, 1, 3]))
    monkeypatch.setattr(verify, "build_tournament", t2_with_one_arc_flipped)
    claims = {c.claim_id: c for c in verify.suite_equivalence()}
    t2 = claims["equivalence/t2-exhaustive"]
    assert t2.passed is False
    assert int(t2.detail.split()[0]) > 0
    assert claims["equivalence/t3-random"].passed


def test_equivalence_fails_on_tournaments_with_shuffled_labels(monkeypatch):
    monkeypatch.setattr(verify, "build_tournament", with_shuffled_labels(build_tournament))
    claims = verify.suite_equivalence()
    assert [c.claim_id for c in claims] == ["equivalence/t2-exhaustive", "equivalence/t3-random"]
    assert all(c.passed is False for c in claims)


def test_observation_fails_on_npartite_graphs_with_shuffled_labels(monkeypatch):
    monkeypatch.setattr(verify, "build_npartite", with_shuffled_labels(build_npartite))
    claims = {c.claim_id: c for c in verify.suite_npartite((3, 2))}
    assert claims["npartite/observation"].passed is False


def test_a_digraph_out_of_cell_order_fails_with_the_reason(monkeypatch):
    monkeypatch.setattr(verify, "build_tournament", with_shuffled_labels(build_tournament))
    monkeypatch.setattr(verify, "build_npartite", with_shuffled_labels(build_npartite))
    claims = {c.claim_id: c for c in verify.suite_equivalence() + verify.suite_npartite((3, 2))}
    for claim_id in ("equivalence/t2-exhaustive", "equivalence/t3-random", "npartite/observation"):
        assert claims[claim_id].passed is False
        assert "not the board's cells in row-major order" in claims[claim_id].detail

import pytest

from dicolor.verify import run_suites


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

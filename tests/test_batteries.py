import numpy as np
import pytest

from anchorlab import batteries, numkern, scm


def test_worst_case_identity_passes_on_seeds_0_to_149():
    failing = [
        seed for seed in range(150)
        if not batteries.check_worst_case_identity(seed=seed)["passed"]
    ]
    assert failing == []


@pytest.mark.parametrize("q", [3, 4])
def test_scm_checks_pass_with_many_anchor_directions(q):
    rng = numkern.make_rng(q)
    for seed in range(20):
        model = batteries.random_scm(rng, d=2, r=1, q=q)
        report = batteries.run_scm_checks(model, seed=seed)
        assert report["passed"], report


def test_projectability_equivalence_seed_88():
    # a structurally zero Cov(A, X) computed as 2e-16
    assert batteries.check_projectability_equivalence(seed=88)["passed"]


def test_replicability_seed_141_sides_agree_to_rounding():
    # The last scenario of seed 141 has R_x singular values 2.5 and 1.5e-5
    # and an IV limit near 9.3e4. Rounding its exact anchor coordinates to
    # either neighbouring double leaves the two sides 1.3e-8 apart in the
    # median, so check_replicability's absolute bound of 1e-8 fails there
    # (2.5e-8); relative to the coefficients the sides agree to 3e-13.
    rng = numkern.make_rng(141)
    for _ in range(20):
        scen = batteries.random_scenario(rng, d=int(rng.integers(2, 4)), q=2)
        report = scm.replicability_experiment(scen)
        scale = max(1.0, float(np.max(np.abs(report["b_train"]))))
        assert report["discrepancy"] <= 1e-12 * scale


@pytest.fixture
def inflated_risk(monkeypatch):
    real = scm.worst_case_risk
    monkeypatch.setattr(
        batteries, "worst_case_risk", lambda model, b, gamma: 1.001 * real(model, b, gamma)
    )


@pytest.mark.usefixtures("inflated_risk")
def test_worst_case_identity_catches_a_tenth_of_a_percent():
    assert not batteries.check_worst_case_identity(seed=0, n_models=20)["passed"]
    report = batteries.run_scm_checks(scm.example_iv_chain(), seed=0)
    assert not report["checks"][0]["passed"]
    assert report["checks"][0]["exact_gap"] > 1e-4

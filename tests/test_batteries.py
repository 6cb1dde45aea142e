import numpy as np
import pytest

from anchorlab import batteries, numkern, scm

import oracles


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


def scale_worst_case_risk(monkeypatch, factor):
    real = scm.worst_case_risk
    monkeypatch.setattr(
        batteries, "worst_case_risk", lambda model, b, gamma: factor * real(model, b, gamma)
    )


def test_worst_case_identity_catches_a_tenth_of_a_percent(monkeypatch):
    scale_worst_case_risk(monkeypatch, 1.001)
    assert not batteries.check_worst_case_identity(seed=0, n_models=20)["passed"]
    report = batteries.run_scm_checks(scm.example_iv_chain(), seed=0)
    assert not report["checks"][0]["passed"]
    assert report["checks"][0]["exact_gap"] > 1e-4


def test_boundary_grid_catches_an_understated_risk(monkeypatch):
    # 1e-6 below the supremum: the grid points of the one-anchor models,
    # which sit on it, overshoot the criterion by more than 1e-8
    scale_worst_case_risk(monkeypatch, 0.999999)
    report = batteries.check_worst_case_identity(seed=0, n_models=20)
    assert not report["passed"]
    assert report["max_gap"] > 1e-8


def test_stacked_reports_match_the_per_vector_loops(monkeypatch):
    # each model's stacked report next to the per-vector loop on the same
    # inputs
    scored = []
    stacked = batteries._worst_case_report

    def report(model, pset, points, coefs):
        got = stacked(model, pset, points, coefs)
        ref = oracles.loop_worst_case_report(model, pset, points, coefs)
        risk = np.abs(scm.worst_case_risk(model, coefs, pset.gamma)).max()
        assert got["passed"] == ref["passed"]
        for key in ("exact_gap", "min_gap", "max_gap"):
            assert abs(got[key] - ref[key]) <= 1e-12 * max(1.0, risk), (key, got, ref)
        scored.append(model)
        return got

    monkeypatch.setattr(batteries, "_worst_case_report", report)
    for seed in range(20):
        batteries.check_worst_case_identity(seed=seed)
    for q in (3, 4):
        rng = numkern.make_rng(q)
        for seed in range(20):
            batteries.run_scm_checks(batteries.random_scm(rng, d=2, r=1, q=q), seed=seed)
    assert len(scored) == 20 * 100 + 2 * 20


@pytest.mark.parametrize("seed", range(20))
def test_stacked_shifts_match_the_per_shift_loop(seed):
    # equal gaps before the shifts mean the same models were drawn, so the
    # stacked draw leaves the generator where the loop does; an absolute
    # 1e-12 on the variation is no looser than 1e-12 * max(1, risk)
    got = batteries.check_stability_chain(seed=seed)
    ref = oracles.loop_stability_chain(seed=seed)
    assert got["passed"] == ref["passed"]
    for key in ("max_endpoint_gap", "max_path_gap", "max_effect_gap"):
        assert got[key] == ref[key]
    assert abs(got["max_anchor_loading"] - ref["max_anchor_loading"]) <= 1e-12


def test_stability_chain_catches_a_moved_b_zero(monkeypatch):
    # b_zero 1e-6 off: its residual weights load on span(M) by ~1e-6, which
    # the shift risk shows only squared, below any absolute bound near 1e-9
    real = scm.anchor_stability_causal_check

    def moved(model, gamma_grid):
        report = real(model, gamma_grid)
        return dict(report, b_zero=report["b_zero"] + 1e-6)

    monkeypatch.setattr(batteries, "anchor_stability_causal_check", moved)
    report = batteries.check_stability_chain(seed=0, n_models=5)
    assert not report["passed"]
    assert report["max_anchor_loading"] > 1e-8


def test_shift_orthogonal_to_every_anchor_direction_is_zero(monkeypatch):
    # at b_zero of this stable model the residual weights are exactly
    # orthogonal to M, so w'Qw = 0 and v* = 0; the other rows have w'Qw > 0
    model = batteries.random_stable_scm(numkern.make_rng(2), d=2)
    b_zero = scm.population_anchor(model, 0.0)
    assert not (model.residual_weights(b_zero) @ model.M).any()
    rng = numkern.make_rng(0)
    coefs = np.vstack([b_zero, rng.uniform(-2.0, 2.0, size=(3, 2)), b_zero])
    pset = scm.perturbation_set(model, 5.0)
    shifts = []
    monkeypatch.setattr(
        batteries, "Shift", lambda vector: shifts.append(vector) or scm.Shift(vector=vector)
    )
    report = batteries._worst_case_report(model, pset, pset.boundary_grid(1000, rng), coefs)
    assert report["passed"], report
    (v_star,) = shifts
    assert not v_star[[0, -1]].any()
    assert (np.abs(v_star[1:-1]).max(axis=1) > 0).all()


def test_stability_chain_splits_each_model_once(monkeypatch):
    # the projectability test, the gamma path and the IV endpoint read one
    # factorisation per model
    calls = []
    factorise = numkern.GammaPath

    def counted(moments):
        calls.append(moments)
        return factorise(moments)

    monkeypatch.setattr(numkern, "GammaPath", counted)
    report = batteries.check_stability_chain(seed=1, n_models=6, n_shifts=1)
    assert report["passed"]
    assert len(calls) == 6
    assert len({id(moments) for moments in calls}) == 6


def test_verify_factorises_each_model_once(monkeypatch):
    # verify --seed 7: every moments object the battery solves on, a model or
    # one side of a replicability scenario, is factorised once
    calls, built = [], []
    factorise, moments = numkern.GammaPath, scm._population_moments
    monkeypatch.setattr(numkern, "GammaPath", lambda m: calls.append(m) or factorise(m))
    monkeypatch.setattr(scm, "_population_moments",
                        lambda *args: built.append(moments(*args)) or built[-1])
    assert batteries.run_battery(seed=7)["passed"]
    assert len(calls) == len({id(m) for m in calls}) > 0
    assert {id(m) for m in calls} <= {id(m) for m in built}

"""End-to-end acceptance suite.

Each test pins one externally-stated guarantee of the package: estimator
endpoint values, population closed forms, worst-case-risk identities,
replicability and stability certificates, solver correctness, risk-scaling
rates, model-selection behaviour, and CLI determinism.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from anchorlab import batteries, cli, numkern, scm
from anchorlab.datamodel import AnchorDataset, center
from anchorlab.estimators import fit_anchor
from anchorlab.modelsel import cv_gamma, replicability_rank
from anchorlab.scm import (
    AnchorDistribution,
    LinearScm,
    Shift,
    example_iv_chain,
    population_anchor,
    save_scm,
    shift_risk,
)
from anchorlab.sparse import fit_anchor_lasso, lambda_max

import oracles
from test_modelsel import heterogeneous_model, ranking_model


def sparse_design_scm(d=50, s=3, seed=0):
    """d predictors, s causal ones, anchor-driven X, no confounding.

    The population coefficient vector equals the sparse causal vector for
    every penalty weight, so excess risk isolates the estimation error.
    """
    rng = numkern.make_rng(seed)
    p = d + 1
    B = np.zeros((p, p))
    B[d, :s] = 1.0
    M = np.zeros((p, 1))
    M[:d, 0] = rng.uniform(0.5, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
    return LinearScm(
        d=d,
        r=0,
        B=B,
        M=M,
        noise_scales=np.ones(p),
        anchor=AnchorDistribution.rademacher(),
    )


class TestEstimatorEndpoints:
    def test_million_sample_endpoints(self):
        model = example_iv_chain()
        ds = scm.sample(model, 1_000_000, numkern.make_rng(0))
        start = time.perf_counter()
        b_ols = fit_anchor(ds, 1.0).coef[0]
        b_pa = fit_anchor(ds, 0.0).coef[0]
        b_iv = fit_anchor(ds, math.inf).coef[0]
        elapsed = time.perf_counter() - start
        assert b_ols == pytest.approx(5.0 / 3.0, abs=0.01)
        assert b_pa == pytest.approx(2.0, abs=0.01)
        assert b_iv == pytest.approx(1.0, abs=0.01)
        assert elapsed < 5.0


class TestPopulationClosedForm:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 1e6])
    def test_interpolation_formula(self, gamma):
        b = population_anchor(example_iv_chain(), gamma)[0]
        assert abs(b - (4.0 + gamma) / (2.0 + gamma)) < 1e-10


class TestWorstCaseIdentity:
    def test_hundred_random_models(self):
        start = time.perf_counter()
        result = batteries.check_worst_case_identity(seed=0, n_models=100)
        elapsed = time.perf_counter() - start
        assert result["passed"], result
        assert result["min_gap"] >= -1e-4
        assert result["max_gap"] <= 1e-8
        assert elapsed < 60.0


class TestPathOutperformsEndpoints:
    def test_interior_risk_beats_pa_ols_iv(self):
        model = example_iv_chain()
        shift = Shift(vector=np.array([1.8, 0.0, 0.0]))

        def risk(b):
            return shift_risk(model, np.atleast_1d(b), shift)

        endpoint = min(
            risk(population_anchor(model, 0.0)),
            risk(population_anchor(model, 1.0)),
            risk(population_anchor(model, math.inf)),
        )
        grid = np.concatenate([np.linspace(0.0, 1.0, 21), np.geomspace(1.0, 1e3, 40)])
        best = min(risk(population_anchor(model, g)) for g in grid)
        assert best < endpoint - 0.05


class TestIvFlatness:
    def test_constant_risk_under_arbitrary_strength(self):
        model = example_iv_chain()
        b = np.array([1.0])
        for t in range(-10, 11):
            v = np.array([float(t), 0.0, 0.0])
            assert abs(shift_risk(model, b, Shift(vector=v)) - 5.0) < 1e-12


class TestQuantileIdentity:
    def test_monte_carlo_quantiles_match_objective(self):
        start = time.perf_counter()
        result = batteries.check_quantile_identity(seed=0, n_draws=10_000)
        elapsed = time.perf_counter() - start
        assert result["passed"], result
        assert result["worst_gap_over_3se"] <= 1.0
        assert elapsed < 30.0


class TestProjectabilityEquivalence:
    def test_rank_condition_agrees_with_penalty_minimum(self):
        result = batteries.check_projectability_equivalence(seed=0, n_models=50)
        assert result["passed"], result
        assert result["agreements"] == 50


class TestReplicability:
    def test_twenty_scenarios_share_iv_limit(self):
        result = batteries.check_replicability(seed=0, n_scenarios=20)
        assert result["passed"], result
        assert result["max_discrepancy"] < 1e-8


class TestStabilityChain:
    def test_fifty_stable_models(self):
        result = batteries.check_stability_chain(seed=0, n_models=50, n_shifts=100)
        assert result["passed"], result
        assert result["max_endpoint_gap"] < 1e-8
        assert result["max_path_gap"] < 1e-7
        assert result["max_effect_gap"] < 1e-8
        assert result["max_anchor_loading"] <= 1e-12


class TestLassoCorrectness:
    def _instance(self, seed):
        rng = numkern.make_rng(seed)
        n = int(rng.integers(40, 200))
        d = int(rng.integers(3, 30))
        q = int(rng.integers(1, 3))
        x = rng.standard_normal((n, d))
        b = np.zeros(d)
        k = min(3, d)
        b[:k] = rng.uniform(0.5, 2.0, size=k)
        y = x @ b + 0.5 * rng.standard_normal(n)
        return center(AnchorDataset(X=x, Y=y, A=rng.standard_normal((n, q))))

    def test_kkt_residuals_two_hundred_instances(self):
        gammas = (0.0, 0.5, 1.0, 2.0, 8.0)
        fracs = (0.05, 0.2, 0.5, 0.8)
        count = 0
        for seed in range(10):
            ds = self._instance(seed)
            for gamma in gammas:
                xt, yt = oracles.qr_gamma_transform(ds, gamma)
                for frac in fracs:
                    lam = frac * lambda_max(ds, gamma)
                    fit = fit_anchor_lasso(ds, gamma, lam)
                    assert oracles.kkt_violation(xt, yt, fit.coef, lam) <= 1e-6 * lam
                    count += 1
        assert count == 200

    def test_matches_proximal_gradient_oracle(self):
        for seed in range(5):
            ds = self._instance(100 + seed)
            lam = 0.15 * lambda_max(ds, 1.0)
            fit = fit_anchor_lasso(ds, 1.0, lam)
            xt, yt = oracles.qr_gamma_transform(ds, 1.0)
            b_ref = oracles.proximal_gradient_lasso(xt, yt, lam)
            ours = oracles.lasso_objective(xt, yt, fit.coef, lam)
            theirs = oracles.lasso_objective(xt, yt, b_ref, lam)
            assert ours <= theirs + 1e-6


class TestRiskScaling:
    def test_excess_risk_slope(self):
        model = sparse_design_scm()
        start = time.perf_counter()
        result = oracles.excess_risk_scaling(
            model,
            gamma=2.0,
            n_grid=[250, 1_000, 4_000, 16_000],
            replicates=20,
            seed=42,
            lam_scale=1.0,
        )
        elapsed = time.perf_counter() - start
        assert -1.35 <= result["slope"] <= -0.65
        assert elapsed < 600.0

    def test_single_level_reduces_to_classical_lasso_rate(self):
        model = sparse_design_scm(seed=1)
        # a single anchor level makes the equal-weight objective the plain
        # lasso; the error rate stays in the same band
        single = LinearScm(
            d=model.d,
            r=0,
            B=model.B,
            M=np.zeros_like(model.M),
            noise_scales=model.noise_scales,
            anchor=AnchorDistribution.discrete([[1.0]]),
        )
        result = oracles.excess_risk_scaling(
            single,
            gamma=1.0,
            n_grid=[250, 1_000, 4_000, 16_000],
            replicates=20,
            seed=7,
            lam_scale=1.0,
        )
        assert -1.35 <= result["slope"] <= -0.65


class TestModelSelection:
    def test_cv_gamma_monotone_in_alpha(self):
        model = heterogeneous_model()
        grid = [0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64]
        alphas = (0.05, 0.5, 0.9)
        ok = 0
        for rep in range(50):
            ds = scm.sample(model, 3000, numkern.make_rng(1000 + rep))
            res = cv_gamma(ds, alphas, grid, folds=5, seed=rep)
            sel = [res.selected[a] for a in alphas]
            ok += sel[0] <= sel[1] <= sel[2]
        assert ok >= 40

    def test_rank_dominance_always_holds(self):
        for rep in range(50):
            ds = center(scm.sample(ranking_model(), 1000, numkern.make_rng(2000 + rep)))
            lam = 0.03 * lambda_max(ds, 0.0)
            table = replicability_rank(ds, lam, gamma_range=(0.0, 1.0))
            assert np.all(table.a_scores <= table.l_scores + 1e-12)

    def test_invariant_predictor_outranks_confounded(self):
        wins = 0
        for rep in range(50):
            ds = center(scm.sample(ranking_model(), 1000, numkern.make_rng(2000 + rep)))
            lam = 0.03 * lambda_max(ds, 0.0)
            table = replicability_rank(ds, lam, gamma_range=(0.0, 1.0))
            wins += table.a_scores[0] > table.a_scores[1]
        assert wins >= 45


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism")
    model_path = root / "model.json"
    save_scm(model_path, example_iv_chain())
    assert cli.main(
        [
            "simulate",
            "--scm", str(model_path),
            "--n", "4000",
            "--seed", "5",
            "--out", str(root / "data"),
        ]
    ) == 0
    return {
        "root": root,
        "scm": str(model_path),
        "data": str(root / "data" / "data.csv"),
        "config": str(root / "data" / "config.json"),
    }


class TestCliDeterminism:
    def _assert_identical(self, args_fn, root, name):
        dirs = []
        for run in ("one", "two"):
            out = root / f"{name}-{run}"
            assert cli.main(args_fn(str(out))) == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
        assert not mismatch and not errors

    def test_fit(self, staged):
        self._assert_identical(
            lambda out: [
                "fit", "--data", staged["data"], "--config", staged["config"],
                "--gamma", "2", "--lambda", "0.5", "--out", out,
            ],
            staged["root"], "fit",
        )

    def test_path(self, staged):
        self._assert_identical(
            lambda out: [
                "path", "--data", staged["data"], "--config", staged["config"],
                "--scm", staged["scm"], "--grid", "0,1,4,inf",
                "--shift", "1.8,0,0", "--out", out,
            ],
            staged["root"], "path",
        )

    def test_cv(self, staged):
        self._assert_identical(
            lambda out: [
                "cv", "--data", staged["data"], "--config", staged["config"],
                "--grid", "0.5,1,2,4", "--alpha", "0.5,0.9", "--folds", "2",
                "--seed", "3", "--out", out,
            ],
            staged["root"], "cv",
        )

    def test_simulate(self, staged):
        self._assert_identical(
            lambda out: [
                "simulate", "--scm", staged["scm"], "--n", "500",
                "--seed", "11", "--out", out,
            ],
            staged["root"], "simulate",
        )

    def test_verify(self, staged):
        self._assert_identical(
            lambda out: ["verify", "--scm", staged["scm"], "--seed", "2", "--out", out],
            staged["root"], "verify",
        )

    def test_rank(self, staged):
        self._assert_identical(
            lambda out: [
                "rank", "--data", staged["data"], "--config", staged["config"],
                "--lambda", "10", "--grid", "0,1", "--out", out,
            ],
            staged["root"], "rank",
        )

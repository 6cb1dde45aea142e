import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchorlab import numkern, scm, sparse
from anchorlab.datamodel import AnchorDataset, center, from_levels
from anchorlab.estimators import fit_anchor
from anchorlab.exceptions import AnchorlabError, DomainError, EmptyLevel, InsufficientLevels
from anchorlab.modelsel import (
    anchor_stability_test,
    assign_level_folds,
    conditional_mse_quantiles,
    cv_gamma,
    nearest_rank_quantile,
    replicability_rank,
)
from anchorlab.scm import AnchorDistribution, LinearScm

import oracles


def heterogeneous_model(n_levels=20, spread=2.5):
    """Anchored chain with a hidden confounder and a many-level anchor."""
    levels = np.linspace(-spread, spread, n_levels)[:, None]
    B = np.zeros((3, 3))
    B[0, 2] = 1.0
    B[1, 0] = 1.0
    B[1, 2] = 2.0
    return LinearScm(
        d=1, r=1, B=B, M=np.array([[1.0], [0.0], [0.0]]),
        noise_scales=np.ones(3),
        anchor=AnchorDistribution.discrete(levels),
    )


def ranking_model():
    """X1 an invariant cause, X2 anchor-driven and confounded, not a cause."""
    B = np.zeros((4, 4))
    B[1, 3] = 1.0  # X2 <- H
    B[2, 0] = 1.0  # Y <- X1
    B[2, 3] = 1.0  # Y <- H
    return LinearScm(
        d=2, r=1, B=B, M=np.array([[1.0], [3.0], [0.0], [0.0]]),
        noise_scales=np.ones(4),
        anchor=AnchorDistribution.rademacher(),
    )


class TestQuantileGamma:
    def test_95_percent(self):
        assert numkern.chi2_1_quantile(0.95) == pytest.approx(3.8415, abs=1e-4)

    def test_unit_gamma_alpha(self):
        # the alpha whose optimal penalty weight is exactly 1
        assert oracles.chi2_1_cdf(1.0) == pytest.approx(0.6827, abs=1e-4)
        assert numkern.chi2_1_quantile(0.6827) == pytest.approx(1.0, abs=1e-3)

    def test_small_alpha_limit(self):
        assert numkern.chi2_1_quantile(1e-10) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            numkern.chi2_1_quantile(1.0)


class TestNearestRank:
    def test_lower_median_of_two(self):
        assert nearest_rank_quantile(np.array([9.0, 1.0]), 0.5) == 1.0

    def test_max_at_high_alpha(self):
        assert nearest_rank_quantile(np.array([3.0, 1.0, 2.0]), 0.99) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            nearest_rank_quantile(np.array([]), 0.5)


class TestConditionalMse:
    def test_single_level_equals_overall(self):
        rng = numkern.make_rng(0)
        ds = from_levels(rng.standard_normal((50, 1)), rng.standard_normal(50), ["a"] * 50)
        report = conditional_mse_quantiles(ds, np.zeros(1), [0.1, 0.5, 0.9])
        overall = float(np.mean(ds.Y**2))
        assert all(q == pytest.approx(overall) for q in report.quantiles)

    def test_two_level_median(self):
        x = np.zeros((4, 1))
        y = np.array([1.0, -1.0, 3.0, -3.0])  # level MSEs 1 and 9
        ds = from_levels(x, y, ["a", "a", "b", "b"])
        report = conditional_mse_quantiles(ds, np.zeros(1), [0.5])
        assert report.quantiles[0] == 1.0

    def test_quantiles_nondecreasing(self):
        rng = numkern.make_rng(1)
        ds = scm.sample(heterogeneous_model(), 2000, rng)
        report = conditional_mse_quantiles(ds, np.array([1.5]), [0.1, 0.5, 0.9])
        assert list(report.quantiles) == sorted(report.quantiles)

    def test_requires_levels(self):
        rng = numkern.make_rng(2)
        from anchorlab.datamodel import AnchorDataset

        ds = AnchorDataset(
            X=rng.standard_normal((10, 1)),
            Y=rng.standard_normal(10),
            A=rng.standard_normal((10, 1)),
        )
        with pytest.raises(EmptyLevel):
            conditional_mse_quantiles(ds, np.zeros(1), [0.5])

    def test_quantile_identity_monte_carlo(self):
        # Gaussian anchors: the alpha-quantile of the anchor-conditional MSE
        # equals the penalized criterion at gamma = chi-squared quantile
        rng = numkern.make_rng(3)
        model = LinearScm(
            d=1, r=1, B=heterogeneous_model().B,
            M=np.array([[1.0], [0.0], [0.0]]),
            noise_scales=np.ones(3),
            anchor=AnchorDistribution.gaussian([[1.0]]),
        )
        b = np.array([1.4])
        w = model.residual_weights(b)
        base = float(w @ model.noise_covariance() @ w)
        draws = rng.standard_normal(2000)
        cond = base + (draws * float((model.M.T @ w)[0])) ** 2
        for alpha in (0.5, 0.9):
            gamma = numkern.chi2_1_quantile(alpha)
            predicted = scm.worst_case_risk(model, b, gamma)
            empirical = float(np.quantile(cond, alpha))
            assert abs(empirical - predicted) / predicted < 0.03


class TestFolds:
    def test_round_robin_balance(self):
        levels = {chr(97 + i): [i] for i in range(10)}
        folds = assign_level_folds(levels, 5, seed=0)
        counts = np.bincount(list(folds.values()))
        assert np.all(counts == 2)

    def test_too_few_levels(self):
        with pytest.raises(InsufficientLevels):
            assign_level_folds({"a": [0], "b": [1]}, 3)


class TestCvGamma:
    def test_fold_hygiene_and_selection(self):
        rng = numkern.make_rng(5)
        ds = scm.sample(heterogeneous_model(), 2000, rng)
        grid = (0.25, 1.0, 4.0, 16.0)
        res = cv_gamma(ds, [0.5, 0.9], grid, folds=5, seed=0)
        assert set(res.selected.values()) <= set(grid)
        assert res.curves.shape == (2, 4)
        fold_ids = set(res.fold_of_level.values())
        assert fold_ids == set(range(5))

    def test_factorises_once_per_fold(self, monkeypatch):
        # every gamma of a fold's grid evaluates the one factorisation of
        # that fold's training moments
        calls = []
        factorise = numkern.GammaPath
        monkeypatch.setattr(numkern, "GammaPath", lambda m: calls.append(m) or factorise(m))
        ds = scm.sample(heterogeneous_model(), 400, numkern.make_rng(6))
        cv_gamma(ds, [0.5], (0.0, 0.25, 1.0, 4.0), folds=4, seed=0)
        assert len(calls) == 4

    def test_single_gamma_grid(self):
        rng = numkern.make_rng(6)
        ds = scm.sample(heterogeneous_model(8), 400, rng)
        res = cv_gamma(ds, [0.5], [1.0], folds=2, seed=1)
        assert res.selected[0.5] == 1.0

    def test_homogeneous_data_flat_curve(self):
        # anchors unrelated to anything: curves vary only by noise
        rng = numkern.make_rng(7)
        x = rng.standard_normal((2000, 1))
        y = x[:, 0] + 0.5 * rng.standard_normal(2000)
        labels = rng.choice(list("abcdefgh"), size=2000)
        ds = from_levels(x, y, labels)
        res = cv_gamma(ds, [0.5], (0.25, 1.0, 4.0), folds=4, seed=2)
        curve = res.curves[0]
        assert (curve.max() - curve.min()) / curve.mean() < 0.05

    def test_monotone_trend_small(self):
        # selected gamma should grow with alpha in most replicates
        model = heterogeneous_model()
        grid = [0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64]
        alphas = (0.05, 0.5, 0.9)
        ok = 0
        for rep in range(10):
            rng = numkern.make_rng(1000 + rep)
            ds = scm.sample(model, 3000, rng)
            res = cv_gamma(ds, alphas, grid, folds=5, seed=rep)
            sel = [res.selected[a] for a in alphas]
            ok += sel[0] <= sel[1] <= sel[2]
        assert ok >= 8

    def test_insufficient_levels(self):
        rng = numkern.make_rng(8)
        ds = from_levels(rng.standard_normal((20, 1)), rng.standard_normal(20), ["a"] * 20)
        with pytest.raises(InsufficientLevels):
            cv_gamma(ds, [0.5], [1.0], folds=2)


def _cv_levels(rng, d):
    # level codes: the training folds project by level means
    n_levels = int(rng.integers(5, 12))
    n = int(rng.integers(3 * d + 30, 240))
    labels = rng.integers(0, n_levels, size=n)
    hidden = rng.standard_normal(n)
    x = rng.standard_normal((n_levels, d))[labels] + rng.standard_normal((n, d)) + hidden[:, None]
    y = x @ rng.standard_normal(d) + 2.0 * hidden + rng.standard_normal(n)
    return from_levels(x, y, labels)


def _cv_level_vectors(rng, d):
    # scm.sample: anchor levels without codes, so one SVD per training fold
    q, p = d + 1, d + 2
    B = np.zeros((p, p))
    B[:d, d + 1] = rng.uniform(0.5, 1.5, d)
    B[d, :d] = rng.uniform(-1.0, 1.0, d)
    B[d, d + 1] = 1.5
    M = np.zeros((p, q))
    M[:d] = rng.uniform(-1.0, 1.0, (d, q))
    levels = rng.standard_normal((int(rng.integers(q + 1, q + 8)), q))
    model = LinearScm(
        d=d, r=1, B=B, M=M, noise_scales=np.ones(p),
        anchor=AnchorDistribution.discrete(levels),
    )
    return scm.sample(model, int(rng.integers(3 * d + 30, 240)), rng)


def _cv_empty_level(rng, d):
    # hand-built: one level holds no rows and is left out of its fold
    ds = _cv_levels(rng, d)
    levels = dict(ds.anchor_levels)
    levels["empty"] = np.array([], dtype=int)
    return AnchorDataset(
        X=ds.X, Y=ds.Y, A=np.column_stack([ds.A, np.zeros(ds.n)]),
        anchor_levels=levels, level_codes=ds.level_codes,
    )


CV_DESIGNS = {
    "levels": _cv_levels,
    "level-vectors": _cv_level_vectors,
    "empty-level": _cv_empty_level,
}


def _cv_outcome(cv, ds, lam, folds, seed):
    try:
        return cv(ds, (0.1, 0.5, 0.9), (0.0, 0.5, 4.0), folds=folds, lam=lam, seed=seed)
    except (AnchorlabError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    design=st.sampled_from(sorted(CV_DESIGNS)),
    d=st.integers(min_value=1, max_value=15),
    folds=st.integers(min_value=2, max_value=5),
    penalized=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=80, deadline=None)
def test_cv_matches_fold_copy_reference_bitwise(design, d, folds, penalized, seed):
    # the held-out residuals are one block of the parent's rows, as in a
    # copied fold, so every curve agrees to the last bit
    ds = CV_DESIGNS[design](numkern.make_rng(seed), d)
    lam = 0.05 * sparse.lambda_max(ds, 1.0) if penalized else 0.0
    got = _cv_outcome(cv_gamma, ds, lam, folds, seed)
    ref = _cv_outcome(oracles.cv_gamma, ds, lam, folds, seed)
    if isinstance(ref, tuple):
        if ref[0] is ValueError:
            # a fold whose held-out levels are all empty: the copies fail to
            # build an empty dataset, cv_gamma finds no level to score
            ref = (DomainError, "quantile of empty sample")
        assert got == ref
        return
    assert got.curves.tobytes() == ref.curves.tobytes()
    assert got.selected == ref.selected
    assert got.fold_of_level == ref.fold_of_level


class TestStabilityTest:
    def test_stable_construction(self):
        from anchorlab.batteries import random_stable_scm

        model = random_stable_scm(numkern.make_rng(9), d=2)
        ds = scm.sample(model, 100_000, numkern.make_rng(10))
        report = anchor_stability_test(ds)
        assert report["stable"]
        assert report["relative_gap"] < 0.05

    def test_confounded_example_unstable(self):
        model = scm.example_iv_chain()
        ds = scm.sample(model, 100_000, numkern.make_rng(11))
        report = anchor_stability_test(ds)
        assert not report["stable"]
        assert report["max_gap"] == pytest.approx(1.0, abs=0.05)
        assert report["iv_included"]

    def test_splits_once(self, monkeypatch):
        # every fit, the projectability test and the IV fit read the one
        # factorisation of the centred dataset's moments
        calls = []
        factorise = numkern.GammaPath

        def counted(moments):
            calls.append(moments)
            return factorise(moments)

        monkeypatch.setattr(numkern, "GammaPath", counted)
        ds = scm.sample(scm.example_iv_chain(), 5000, numkern.make_rng(13))
        report = anchor_stability_test(ds)
        assert report["iv_included"]
        assert len(calls) == 1

    def test_degenerate_grid_warns_in_report(self):
        model = scm.example_iv_chain()
        ds = scm.sample(model, 5000, numkern.make_rng(12))
        report = anchor_stability_test(ds, gamma_grid=(1.0,))
        assert "warning" in report


class TestReplicabilityRank:
    def _dataset(self, seed, n=1000):
        return center(scm.sample(ranking_model(), n, numkern.make_rng(seed)))

    def test_dominance(self):
        ds = self._dataset(13)
        lam = 0.03 * sparse.lambda_max(ds, 0.0)
        table = replicability_rank(ds, lam, gamma_range=(0.0, 1.0))
        assert np.all(table.a_scores <= table.l_scores + 1e-12)
        assert table.gamma_grid[0] == 0.0

    def test_warm_started_grid_fits_once_per_gamma(self, monkeypatch):
        # 21 lasso fits for a 21-point grid from 0: the l-scores reuse the
        # gamma = 0 fit, and warm starts leave every fit equal to a cold one
        ds = self._dataset(13)
        lam = 0.03 * sparse.lambda_max(ds, 0.0)
        calls = []
        solver = sparse.feature_sign

        def counted(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs.get("start"))
            return solver(*args, **kwargs)

        monkeypatch.setattr(sparse, "feature_sign", counted)
        table = replicability_rank(ds, lam, gamma_range=(0.0, 1.0), grid_size=21)
        assert len(calls) == 21
        assert calls[0] is None and all(start is not None for start in calls[1:])
        monkeypatch.undo()
        cold = [sparse.fit_anchor_lasso(ds, g, lam).coef for g in table.gamma_grid]
        assert np.array_equal(table.a_scores, np.abs(np.stack(cold)).min(axis=0))
        assert np.array_equal(table.l_scores, np.abs(cold[0]))

    def test_huge_lambda_all_zero(self):
        ds = self._dataset(14)
        table = replicability_rank(ds, 1e9, gamma_range=(0.0, 1.0))
        assert np.array_equal(table.a_scores, np.zeros(2))
        assert np.array_equal(table.l_scores, np.zeros(2))

    def test_invariant_outranks_confounded_small(self):
        wins = 0
        for rep in range(10):
            ds = self._dataset(2000 + rep)
            lam = 0.03 * sparse.lambda_max(ds, 0.0)
            table = replicability_rank(ds, lam, gamma_range=(0.0, 1.0))
            wins += table.a_scores[0] > table.a_scores[1]
        assert wins >= 9

    def test_validation(self):
        ds = self._dataset(15)
        with pytest.raises(DomainError):
            replicability_rank(ds, -1.0)
        with pytest.raises(DomainError):
            replicability_rank(ds, 1.0, gamma_range=(2.0, 1.0))

import math

import numpy as np
import pytest

from anchorlab import numkern, scm
from anchorlab.datamodel import AnchorDataset, center, from_levels
from anchorlab.estimators import (
    AnchorRegression,
    anchor_objective,
    fit_anchor,
    predict,
)
from anchorlab.exceptions import (
    DimensionMismatch,
    DomainError,
    SingularDesign,
    Underidentified,
)

import oracles


def _random_ds(seed=0, n=200, d=3, q=2):
    rng = numkern.make_rng(seed)
    return center(
        AnchorDataset(
            X=rng.standard_normal((n, d)),
            Y=rng.standard_normal(n),
            A=rng.standard_normal((n, q)),
        )
    )


class TestGammaTransform:
    """The reference gamma-transform of these tests, `oracles.qr_gamma_transform`."""

    def test_gamma_one_is_identity(self):
        ds = _random_ds(1)
        xt, yt = oracles.qr_gamma_transform(ds, 1.0)
        assert np.array_equal(xt, ds.X)
        assert np.array_equal(yt, ds.Y)

    def test_gamma_zero_annihilates_anchors(self):
        ds = _random_ds(2)
        xt, _ = oracles.qr_gamma_transform(ds, 0.0)
        assert np.max(np.abs(ds.A.T @ xt)) < 1e-8

    def test_group_anchor_scaling(self):
        # gamma = 4 on a group-indicator anchor: within-group deviations kept,
        # group means doubled
        rng = numkern.make_rng(3)
        labels = rng.choice(["a", "b", "c"], size=90)
        ds = center(from_levels(rng.standard_normal((90, 2)), rng.standard_normal(90), labels))
        xt, _ = oracles.qr_gamma_transform(ds, 4.0)
        for j in range(2):
            col = ds.X[:, j]
            means = oracles.groupwise_means(col, labels)
            expected = (col - means) + 2.0 * means
            assert np.max(np.abs(xt[:, j] - expected)) < 1e-9


class TestFitAnchor:
    def test_gamma_one_equals_ols(self):
        ds = _random_ds(5)
        fit = fit_anchor(ds, 1.0)
        ols = oracles.qr_lstsq(ds.X, ds.Y)
        assert np.max(np.abs(fit.coef - ols)) < 1e-10

    def test_stationarity(self):
        ds = _random_ds(6)
        for gamma in (0.0, 0.3, 2.5, 17.0):
            fit = fit_anchor(ds, gamma)
            xt, yt = oracles.qr_gamma_transform(ds, gamma)
            assert np.max(np.abs(xt.T @ (yt - xt @ fit.coef))) < 1e-8

    def test_objective_matches_criterion(self):
        ds = _random_ds(7)
        fit = fit_anchor(ds, 3.0)
        assert fit.objective == pytest.approx(
            anchor_objective(ds, fit.coef, 3.0), abs=1e-8
        )

    def test_objective_decomposition(self):
        # ||r||^2 splits into on-anchor and off-anchor energies
        ds = _random_ds(8)
        rng = numkern.make_rng(80)
        b = rng.standard_normal(ds.d)
        resid = ds.Y - ds.X @ b
        on = numkern.AnchorProjection(ds.A).project(resid)
        off = resid - on
        assert resid @ resid == pytest.approx(on @ on + off @ off, abs=1e-8)

    def test_path_continuity(self):
        ds = _random_ds(9)
        grid = np.linspace(0.0, 5.0, 51)
        coefs = np.stack([fit_anchor(ds, g).coef for g in grid])
        steps = np.abs(np.diff(coefs, axis=0)).max(axis=1)
        assert steps.max() < 0.2

    def test_k_class_equivalence(self):
        # with kappa = 1 - 1/gamma the classical k-class formula reproduces it
        ds = _random_ds(10)
        for gamma in (0.5, 2.0, 8.0):
            kappa = 1.0 - 1.0 / gamma
            resid_maker = lambda v: v - numkern.AnchorProjection(ds.A).project(v)
            xk = ds.X - kappa * resid_maker(ds.X)
            fit = fit_anchor(ds, gamma)
            lhs = xk.T @ ds.X
            rhs = xk.T @ ds.Y
            b = np.linalg.solve(lhs, rhs)
            assert np.max(np.abs(b - fit.coef)) < 1e-8

    def test_refuses_underdetermined(self):
        rng = numkern.make_rng(11)
        ds = center(
            AnchorDataset(
                X=rng.standard_normal((5, 6)),
                Y=rng.standard_normal(5),
                A=rng.standard_normal((5, 1)),
            )
        )
        with pytest.raises(SingularDesign):
            fit_anchor(ds, 1.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            fit_anchor(_random_ds(12), -1.0)


class TestFitIv:
    def _example2_data(self, n=10**6, seed=13):
        model = scm.example_iv_chain()
        return center(scm.sample(model, n, numkern.make_rng(seed)))

    def test_example_endpoints(self):
        ds = self._example2_data()
        assert fit_anchor(ds, 1.0).coef[0] == pytest.approx(5.0 / 3.0, abs=0.01)
        assert fit_anchor(ds, 0.0).coef[0] == pytest.approx(2.0, abs=0.01)
        assert fit_anchor(ds, math.inf).coef[0] == pytest.approx(1.0, abs=0.01)

    def test_large_gamma_approaches_iv(self):
        ds = self._example2_data(n=10**5)
        far = fit_anchor(ds, 1e6)
        assert np.max(np.abs(far.coef - fit_anchor(ds, math.inf).coef)) < 1e-3

    def test_inf_routes_to_iv(self):
        ds = self._example2_data(n=10**4)
        assert fit_anchor(ds, math.inf).coef == pytest.approx(oracles.qr_fit_iv(ds))

    def test_underidentified_when_projection_vanishes(self):
        # anchors are group dummies and X has no between-group variation,
        # so the projected design is exactly zero
        rng = numkern.make_rng(14)
        labels = np.repeat(["a", "b"], 20)
        x = rng.standard_normal((40, 1))
        for lab in ("a", "b"):
            mask = labels == lab
            x[mask] -= x[mask].mean(axis=0)
        ds = center(from_levels(x, rng.standard_normal(40), labels))
        with pytest.raises(Underidentified):
            fit_anchor(ds, math.inf)


class TestPredict:
    def test_fitted_values_gamma_one(self):
        ds = _random_ds(15)
        fit = fit_anchor(ds, 1.0)
        fitted = predict(fit, ds.X + ds.x_means)
        assert np.max(np.abs(fitted - (ds.X @ fit.coef + fit.y_mean))) < 1e-10

    def test_mean_row_predicts_mean(self):
        ds = _random_ds(16)
        fit = fit_anchor(ds, 2.0)
        out = predict(fit, fit.x_means[None, :])
        assert out[0] == pytest.approx(fit.y_mean, abs=1e-12)

    def test_dimension_mismatch(self):
        fit = fit_anchor(_random_ds(17), 1.0)
        with pytest.raises(DimensionMismatch):
            predict(fit, np.zeros((2, 7)))

    def test_one_dimensional_rows_and_columns(self):
        fit = fit_anchor(_random_ds(17), 1.0)
        row = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(predict(fit, row), predict(fit, row[None, :]))

    def test_shift_mse_matches_analytic_risk(self):
        model = scm.example_iv_chain()
        rng = numkern.make_rng(18)
        train = center(scm.sample(model, 200_000, rng))
        fit = fit_anchor(train, 5.0)
        v = np.array([1.8, 0.0, 0.0])
        test = scm.sample(model, 400_000, rng, shift=scm.Shift(vector=v))
        mse = float(np.mean((test.Y - predict(fit, test.X)) ** 2))
        analytic = scm.shift_risk(model, fit.coef, scm.Shift(vector=v))
        assert abs(mse - analytic) / analytic < 0.02


class TestConsistencyRate:
    def test_log_log_slope(self):
        model = scm.example_iv_chain()
        gamma = 5.0
        target = scm.population_anchor(model, gamma)
        rng = numkern.make_rng(19)
        sizes = [10**3, 10**4, 10**5, 10**6]
        errors = []
        for n in sizes:
            errs = [
                np.abs(fit_anchor(center(scm.sample(model, n, rng)), gamma).coef - target).max()
                for _ in range(3)
            ]
            errors.append(np.mean(errs))
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestWrapper:
    def test_params_roundtrip(self):
        est = AnchorRegression(gamma=2.0, lam=0.1)
        assert est.get_params() == {"gamma": 2.0, "lam": 0.1}
        est.set_params(gamma=4.0)
        assert est.gamma == 4.0
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_fit_predict_score(self):
        rng = numkern.make_rng(20)
        x = rng.standard_normal((300, 2))
        a = rng.standard_normal((300, 1))
        y = x @ np.array([1.0, -2.0]) + 0.1 * rng.standard_normal(300)
        est = AnchorRegression(gamma=1.0).fit(x, y, a)
        assert np.max(np.abs(est.coef_ - [1.0, -2.0])) < 0.05
        assert est.score(x, y) > 0.95

    def test_sparse_delegation(self):
        rng = numkern.make_rng(21)
        x = rng.standard_normal((50, 80))
        a = rng.standard_normal((50, 1))
        y = x[:, 0] + 0.05 * rng.standard_normal(50)
        est = AnchorRegression(gamma=1.0, lam=2.0).fit(x, y, a)
        assert np.count_nonzero(est.coef_) < 40

    def test_one_dimensional_x_is_one_column(self):
        rng = numkern.make_rng(21)
        x, a = rng.standard_normal(5), rng.standard_normal(5)
        y = 2.0 * x + rng.standard_normal(5)
        flat = AnchorRegression(gamma=2.0).fit(x, y, a)
        column = AnchorRegression(gamma=2.0).fit(x[:, None], y, a[:, None])
        assert np.array_equal(flat.coef_, column.coef_)
        assert flat.predict(x).shape == (5,)
        assert np.array_equal(flat.predict(x), column.predict(x[:, None]))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            AnchorRegression().predict(np.zeros((1, 2)))

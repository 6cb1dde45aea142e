import itertools

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anchorlab import numkern, scm, sparse
from anchorlab.datamodel import AnchorDataset, center, from_levels
from anchorlab.estimators import fit_anchor
from anchorlab.exceptions import DomainError, EmptyLevel, InvalidConfig
from anchorlab.sparse import (
    feature_sign,
    fit_anchor_lasso,
    fit_equal_weight_lasso,
    lambda_max,
)

import oracles

# every fit here is meant to converge: a step cap reached fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _random_ds(seed=0, n=60, d=20, q=2, sparse_truth=True):
    rng = numkern.make_rng(seed)
    x = rng.standard_normal((n, d))
    if sparse_truth:
        b = np.zeros(d)
        b[: min(3, d)] = rng.uniform(1.0, 2.0, size=min(3, d))
        y = x @ b + 0.3 * rng.standard_normal(n)
    else:
        y = rng.standard_normal(n)
    return center(AnchorDataset(X=x, Y=y, A=rng.standard_normal((n, q))))


class TestFitAnchorLasso:
    def test_lambda_max_gives_zero(self):
        ds = _random_ds(1)
        top = lambda_max(ds, 2.0)
        fit = fit_anchor_lasso(ds, 2.0, top)
        assert np.array_equal(fit.coef, np.zeros(ds.d))
        fit = fit_anchor_lasso(ds, 2.0, 1.5 * top)
        assert np.array_equal(fit.coef, np.zeros(ds.d))

    def test_gamma_one_matches_proximal_oracle(self):
        rng = numkern.make_rng(2)
        x = rng.standard_normal((50, 20))
        y = x[:, :3] @ np.array([1.5, -2.0, 1.0]) + 0.2 * rng.standard_normal(50)
        ds = center(AnchorDataset(X=x, Y=y, A=rng.standard_normal((50, 2))))
        lam = 0.25 * lambda_max(ds, 1.0)
        fit = fit_anchor_lasso(ds, 1.0, lam)
        ref = oracles.proximal_gradient_lasso(ds.X, ds.Y, lam)
        ours = oracles.lasso_objective(ds.X, ds.Y, fit.coef, lam)
        theirs = oracles.lasso_objective(ds.X, ds.Y, ref, lam)
        assert abs(ours - theirs) < 1e-6
        assert np.max(np.abs(fit.coef - ref)) < 1e-4

    def test_zero_lambda_matches_exact_fit(self):
        ds = _random_ds(3, n=100, d=5)
        fit = fit_anchor_lasso(ds, 2.0, 0.0)
        exact = fit_anchor(ds, 2.0)
        assert np.max(np.abs(fit.coef - exact.coef)) < 1e-8

    def test_zero_lambda_descent_also_agrees(self):
        # exercise the l1 solver itself at lambda = 0
        ds = _random_ds(4, n=100, d=5)
        b, *_ = feature_sign(sparse._AnchorGram(ds.gram_columns, 2.0), 0.0)
        assert np.max(np.abs(b - fit_anchor(ds, 2.0).coef)) < 1e-6

    def test_kkt_conditions(self):
        for seed in range(5):
            ds = _random_ds(seed + 10)
            for gamma in (0.0, 1.0, 4.0):
                lam = 0.2 * lambda_max(ds, gamma)
                fit = fit_anchor_lasso(ds, gamma, lam)
                xt, yt = oracles.qr_gamma_transform(ds, gamma)
                assert oracles.kkt_violation(xt, yt, fit.coef, lam) <= 1e-6 * lam

    def test_objective_nonincreasing_per_step(self):
        # the iterate after each number of steps, up to the solution
        ds = _random_ds(20)
        xt, yt = oracles.qr_gamma_transform(ds, 1.0)
        lam = 0.1 * lambda_max(ds, 1.0)
        gram = sparse._AnchorGram(ds.gram_columns, 1.0)
        prev = oracles.lasso_objective(xt, yt, np.zeros(ds.d), lam)
        for cap in range(1, 31):
            b, steps, converged = feature_sign(gram, lam, max_steps=cap)
            cur = oracles.lasso_objective(xt, yt, b, lam)
            assert cur <= prev + 1e-9
            prev = cur
            if converged:
                break
        assert converged and steps == 3

    def test_underdetermined_regime_supported(self):
        ds = _random_ds(5, n=30, d=50)
        lam = 0.3 * lambda_max(ds, 1.0)
        fit = fit_anchor_lasso(ds, 1.0, lam)
        assert np.count_nonzero(fit.coef) < 30

    def test_negative_inputs_rejected(self):
        ds = _random_ds(6)
        with pytest.raises(DomainError):
            fit_anchor_lasso(ds, -1.0, 0.1)
        with pytest.raises(DomainError):
            fit_anchor_lasso(ds, 1.0, -0.1)

    def test_infinite_gamma_rejected(self):
        # the gamma-transformed data of gamma = inf are not finite
        ds = _random_ds(6)
        with pytest.raises(DomainError):
            fit_anchor_lasso(ds, math.inf, 0.1)
        with pytest.raises(DomainError):
            lambda_max(ds, math.inf)
        with pytest.raises(DomainError):
            fit_equal_weight_lasso(_level_ds(6), math.inf, 0.1)

    def test_kkt_violation_matches_loop(self):
        ds = _random_ds(7)
        lam = 0.2 * lambda_max(ds, 1.0)
        rng = numkern.make_rng(70)
        for b in (np.zeros(ds.d), rng.standard_normal(ds.d), fit_anchor_lasso(ds, 1.0, lam).coef):
            assert oracles.kkt_violation(ds.X, ds.Y, b, lam) == oracles.kkt_violation_loop(
                ds.X, ds.Y, b, lam
            )


DESCENT_GAMMAS = (0.0, 0.5, 1.0, 4.0, 1e3)


class TestCovarianceDescent:
    """The feature-sign solver against the residual-update reference."""

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**16),
        wide=st.booleans(),
        gamma=st.sampled_from(DESCENT_GAMMAS),
        fraction=st.sampled_from((0.01, 0.2, 0.9)),
    )
    # |S| > rank(G) at n <= d: G_SS singular, and a joining coordinate that
    # turns in a solve that passes the SPD test by round-off
    @example(seed=34591, wide=True, gamma=0.0, fraction=0.01)
    @example(seed=50, wide=True, gamma=0.0, fraction=0.01)
    def test_exact_and_path_independent(self, seed, wide, gamma, fraction):
        ds = _random_ds(seed, n=12, d=20) if wide else _random_ds(seed, n=40, d=10)
        xt, yt = oracles.qr_gamma_transform(ds, gamma)
        lam = fraction * lambda_max(ds, gamma)
        gram = sparse._AnchorGram(ds.gram_columns, gamma)
        b, _, converged = feature_sign(gram, lam)
        assert converged
        assert oracles.kkt_violation(xt, yt, b, lam) <= 1e-9 * lam
        ref, *_ = oracles.residual_update_descent(xt, yt, lam)
        ours = oracles.lasso_objective(xt, yt, b, lam)
        assert ours <= oracles.lasso_objective(xt, yt, ref, lam) * (1.0 + 1e-12)
        # warm start from the solution of the neighbouring gamma
        other = DESCENT_GAMMAS[(DESCENT_GAMMAS.index(gamma) + 1) % len(DESCENT_GAMMAS)]
        start = fit_anchor_lasso(ds, other, fraction * lambda_max(ds, other)).coef
        warm, *_ = feature_sign(gram, lam, start)
        assert np.array_equal(warm, b)

    def test_flipped_or_dropped_warm_start_ends_at_the_cold_fit(self):
        ds = _random_ds(40)
        lam = 0.2 * lambda_max(ds, 1.0)
        # at gamma = 1 the transformed data are the centred X and Y
        gram = sparse._AnchorGram(ds.gram_columns, 1.0)
        b, _, converged = feature_sign(gram, lam)
        assert converged
        assert oracles.kkt_violation(ds.X, ds.Y, b, lam) <= 1e-12 * lam
        top = int(np.argmax(np.abs(b)))
        # the wrong sign on the largest coefficient: the first solve flips it
        # back, so the iterate stops at its zero crossing
        flipped = b.copy()
        flipped[top] = -flipped[top]
        # the largest coefficient left out: its gradient then exceeds lam
        dropped = b.copy()
        dropped[top] = 0.0
        for start in (flipped, dropped):
            warm, steps, converged = feature_sign(gram, lam, start)
            assert converged and steps > 1
            assert np.array_equal(warm, b)

    def test_no_d_by_d_gram(self):
        # Gram columns are formed only for coordinates that join, so at
        # n << d the solver's memory stays far below one d x d matrix
        lam = 0.5 * lambda_max(_random_ds(30, n=20, d=2000), 1.0)
        # a fresh dataset, whose column source is built inside the window
        ds = _random_ds(30, n=20, d=2000)
        tracemalloc.start()
        try:
            gram = sparse._AnchorGram(ds.gram_columns, 1.0)
            b, _, converged = feature_sign(gram, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged and np.count_nonzero(b) > 0
        assert peak < 0.05 * 8 * ds.d**2


class TestLambdaPath:
    def test_warm_matches_cold(self):
        # a walk down a log-spaced lambda grid, each fit started from the last
        ds = _random_ds(10)
        lambdas = lambda_max(ds, 1.0) * np.logspace(0.0, -2.0, 15)
        start = None
        for lam in lambdas:
            warm = fit_anchor_lasso(ds, 1.0, lam, start)
            cold = fit_anchor_lasso(ds, 1.0, lam)
            assert warm.converged
            assert np.array_equal(cold.coef, warm.coef)
            start = warm.coef
        assert np.count_nonzero(start) > 0


def _level_ds(seed=0, n_per=(40, 40, 40), d=3, beta=None):
    rng = numkern.make_rng(seed)
    labels = np.concatenate(
        [np.full(n, chr(ord("a") + i)) for i, n in enumerate(n_per)]
    )
    shifts = rng.uniform(-2.0, 2.0, size=(len(n_per), d))
    x = rng.standard_normal((labels.size, d))
    for i, n in enumerate(n_per):
        x[labels == chr(ord("a") + i)] += shifts[i]
    beta = np.arange(1.0, d + 1.0) if beta is None else beta
    y = x @ beta + 0.5 * rng.standard_normal(labels.size)
    return from_levels(x, y, labels)


class TestEqualWeight:
    def test_balanced_matches_standard_objective(self):
        ds = center(_level_ds(12))
        rng = numkern.make_rng(120)
        b = rng.standard_normal(ds.d)
        for gamma in (0.0, 1.0, 3.0):
            ew = oracles.equal_weight_objective(ds, b, gamma)
            from anchorlab.estimators import anchor_objective

            assert ew == pytest.approx(anchor_objective(ds, b, gamma) / ds.n, abs=1e-10)

    def test_zero_residual(self):
        ds = _level_ds(13)
        beta = np.arange(1.0, ds.d + 1.0)
        noiseless = AnchorDataset(
            X=ds.X, Y=ds.X @ beta, A=ds.A, anchor_levels=ds.anchor_levels
        )
        assert oracles.equal_weight_objective(noiseless, beta, 5.0) == pytest.approx(0.0, abs=1e-20)

    def test_duplicating_a_level_changes_nothing(self):
        ds = _level_ds(14, n_per=(30, 30))
        rng = numkern.make_rng(140)
        b = rng.standard_normal(ds.d)
        rows_a = np.asarray(ds.anchor_levels["a"])
        reps = np.concatenate([np.arange(ds.n)] + [rows_a] * 9)
        labels = np.array(["a"] * 30 + ["b"] * 30)
        big = from_levels(ds.X[reps], ds.Y[reps], labels[reps])
        for gamma in (0.5, 2.0):
            assert oracles.equal_weight_objective(big, b, gamma) == pytest.approx(
                oracles.equal_weight_objective(ds, b, gamma), abs=1e-10
            )

    def test_unbalanced_mean_contributions_equal(self):
        # two levels of very different size contribute equally to the
        # between-level penalty when their mean residuals coincide
        rng = numkern.make_rng(15)
        x = np.concatenate([rng.standard_normal(10), rng.standard_normal(1000)])
        labels = np.array(["s"] * 10 + ["l"] * 1000)
        y = x * 0.0 + 1.0  # residual at b=0 is exactly 1 everywhere
        ds = from_levels(x[:, None], y, labels)
        _, level_means = oracles.equal_weight_breakdown(ds, np.zeros(1))
        assert level_means[0] == pytest.approx(level_means[1])
        contrib = [m * m for m in level_means]
        assert contrib[0] == pytest.approx(contrib[1])

    def test_balanced_fit_agrees_with_transformed_lasso(self):
        ds = center(_level_ds(16))
        lam = 0.1 * lambda_max(ds, 2.0)
        ew = fit_equal_weight_lasso(ds, 2.0, lam)
        std = fit_anchor_lasso(ds, 2.0, lam)
        assert np.max(np.abs(ew.coef - std.coef)) < 1e-6

    def test_huge_lambda_gives_zero(self):
        ds = _level_ds(17)
        fit = fit_equal_weight_lasso(ds, 1.0, 1e9)
        assert np.array_equal(fit.coef, np.zeros(ds.d))

    def test_missing_levels_rejected(self):
        ds = _random_ds(18)
        with pytest.raises(EmptyLevel):
            fit_equal_weight_lasso(ds, 1.0, 0.1)

    def test_population_equal_weight_is_uniform_worst_case(self):
        # nonuniform level probabilities: the equal-weight risk equals the
        # penalized criterion of the same model with uniform level weights
        levels = np.array([[-2.0], [0.5], [3.0]])
        probs = np.array([0.6, 0.3, 0.1])
        B = np.zeros((3, 3))
        B[0, 2] = 1.0
        B[1, 0] = 0.7
        B[1, 2] = 1.5
        M = np.array([[1.0], [0.0], [0.3]])
        skew = scm.LinearScm(
            d=1, r=1, B=B, M=M, noise_scales=np.ones(3),
            anchor=scm.AnchorDistribution.discrete(levels, probs),
        )
        uniform = scm.LinearScm(
            d=1, r=1, B=B, M=M, noise_scales=np.ones(3),
            anchor=scm.AnchorDistribution.discrete(levels),
        )
        for b, gamma in itertools.product((0.4, 1.0, 1.7), (0.0, 1.0, 6.0)):
            ours = oracles.population_equal_weight_risk(skew, np.array([b]), gamma)
            ref = scm.worst_case_risk(uniform, np.array([b]), gamma)
            assert ours == pytest.approx(ref, abs=1e-6)


EQUAL_WEIGHT_GAMMAS = (0.0, 1.0, 1e8)


def _scm_level_ds(seed, n, d):
    """`scm.sample` of a model with three anchor levels drawn with
    probabilities 0.6, 0.3 and 0.1: level sets but no level codes."""
    rng = numkern.make_rng(seed)
    p = d + 2  # d predictors, Y and one hidden variable
    B = np.zeros((p, p))
    B[d, :3] = [1.5, -2.0, 1.0]
    B[:d, d + 1] = 0.5
    B[d, d + 1] = 1.0
    model = scm.LinearScm(
        d=d, r=1, B=B, M=rng.standard_normal((p, 1)), noise_scales=np.ones(p),
        anchor=scm.AnchorDistribution.discrete([[-1.0], [0.5], [2.0]], [0.6, 0.3, 0.1]),
    )
    return center(scm.sample(model, n, rng))


def _equal_weight_case(seed, wide, sampled):
    """A centred dataset with unbalanced discrete anchor levels, n > d or
    n <= d, from `from_levels` or from `scm.sample`."""
    n, d = (12, 20) if wide else (40, 10)
    if sampled:
        return _scm_level_ds(seed, n, d)
    n_per = (2, 3, 7) if wide else (25, 4, 11)
    return center(_level_ds(seed, n_per=n_per, d=d, beta=np.r_[1.5, -2.0, 1.0, np.zeros(d - 3)]))


class TestEqualWeightDescent:
    """The solver over level-reweighted moments against the n-row descent
    on the stacked equal-weight system."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        wide=st.booleans(),
        sampled=st.booleans(),
        gamma=st.sampled_from(EQUAL_WEIGHT_GAMMAS),
        fraction=st.sampled_from((0.01, 0.2, 0.9)),
    )
    # cond(G) = 2.3e9: coordinate descent crawled to its sweep cap here with
    # the wrong support, and so did the reference before its active-set repair
    @example(seed=367, wide=False, sampled=False, gamma=1e8, fraction=0.01)
    def test_matches_stacked_descent(self, seed, wide, sampled, gamma, fraction):
        ds = _equal_weight_case(seed, wide, sampled)
        design, response = oracles.equal_weight_design(ds, gamma)
        lam = fraction * float(np.max(np.abs(design.T @ response)))
        fit = fit_equal_weight_lasso(ds, gamma, lam)
        ref, _, _, converged = oracles.row_lasso_descent(design, response, lam)
        assert fit.converged and converged
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(fit.coef - ref)) <= 1e-10 * scale

    @pytest.mark.parametrize("gamma", EQUAL_WEIGHT_GAMMAS)
    @pytest.mark.parametrize("sampled", [False, True])
    def test_zero_lambda_is_least_squares(self, gamma, sampled):
        # lam = 0 on n > d: the coordinates join one per solve, whatever the
        # signs of each solve, and the d-th solve on all of them ends the fit,
        # to the accuracy of the normal equations of the stacked system,
        # eps * cond(design)^2
        ds = _equal_weight_case(35, wide=False, sampled=sampled)
        design, response = oracles.equal_weight_design(ds, gamma)
        fit = fit_equal_weight_lasso(ds, gamma, 0.0)
        ref = oracles.qr_lstsq(design, response)
        assert fit.converged and fit.iterations == ds.d == 10
        bound = 1e-13 * np.linalg.cond(design) ** 2
        assert np.max(np.abs(fit.coef - ref)) <= bound * np.max(np.abs(ref))

    @pytest.mark.parametrize("gamma", EQUAL_WEIGHT_GAMMAS)
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_energy_is_n_times_equal_weight_risk(self, gamma, wide, sampled):
        ds = _equal_weight_case(33, wide, sampled)
        projection, data = sparse._equal_weight_data(ds)
        moments = numkern.anchor_moments if ds.n > ds.d else numkern.ColumnMoments
        gram = sparse._AnchorGram(moments(projection, data), gamma)
        rng = numkern.make_rng(330)
        for b in (np.zeros(ds.d), rng.standard_normal(ds.d)):
            risk = ds.n * oracles.equal_weight_objective(ds, b, gamma)
            assert gram.energy(b) == pytest.approx(risk, rel=1e-12, abs=0.0)

    def test_wide_data_forms_no_square_gram(self):
        # n <= d: the weighted columns are read one at a time, as for the
        # anchor lasso
        ds = center(_level_ds(34, n_per=(4, 6, 10), d=3000))
        design, response = oracles.equal_weight_design(ds, 1.0)
        lam = 0.5 * float(np.max(np.abs(design.T @ response)))
        del design
        tracemalloc.start()
        try:
            fit = fit_equal_weight_lasso(ds, 1.0, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.converged and np.count_nonzero(fit.coef) > 0
        assert peak < 0.05 * 8 * ds.d**2


class TestExcessRiskScaling:
    def test_replicates_validation(self):
        model = scm.example_iv_chain()
        with pytest.raises(InvalidConfig):
            oracles.excess_risk_scaling(model, 1.0, [100, 200], replicates=0)
        with pytest.raises(InvalidConfig):
            oracles.excess_risk_scaling(model, 1.0, [100], replicates=2)


GRAM_GAMMAS = (0.0, 1e-8, 1.0, 1e8)
GRAM_FRACTIONS = (0.01, 0.2, 0.9)


def _gram_case(seed, wide, categorical, ill_conditioned):
    """A centred dataset with n > d or n <= d, level-coded or continuous
    anchors, and optionally predictors on scales from 1e-3 to 1e3 with two
    of them correlated at ~0.995."""
    rng = numkern.make_rng(seed)
    n, d = (12, 20) if wide else (40, 10)
    x = rng.standard_normal((n, d))
    y = x[:, :3] @ np.array([1.5, -2.0, 1.0]) + 0.3 * rng.standard_normal(n)
    if ill_conditioned:
        x[:, 1] = x[:, 0] + 0.1 * x[:, 1]
        x *= np.logspace(-3.0, 3.0, d)
    if categorical:
        return center(from_levels(x, y, np.array([str(v) for v in rng.integers(0, 4, n)])))
    return center(AnchorDataset(X=x, Y=y, A=rng.standard_normal((n, 2))))


class TestGramDescent:
    """The solver over Gram columns read from the moments against the
    n-row descent on the gamma-transformed data."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        wide=st.booleans(),
        categorical=st.booleans(),
        ill_conditioned=st.booleans(),
        gamma=st.sampled_from(GRAM_GAMMAS),
        fraction=st.sampled_from(GRAM_FRACTIONS),
    )
    # columns of norm ~1e7: a move tolerance in coefficient units stopped the
    # warm fit at KKT 0.12 * lam
    @example(seed=3765, wide=True, categorical=False, ill_conditioned=True,
             gamma=1e8, fraction=0.01)
    # |S| > rank(G) at n <= d: G_SS singular
    @example(seed=40130, wide=True, categorical=True, ill_conditioned=False,
             gamma=0.0, fraction=0.01)
    def test_matches_row_descent(self, seed, wide, categorical, ill_conditioned, gamma, fraction):
        ds = _gram_case(seed, wide, categorical, ill_conditioned)
        lam = fraction * lambda_max(ds, gamma)
        fit = fit_anchor_lasso(ds, gamma, lam)
        xt, yt = oracles.qr_gamma_transform(ds, gamma)
        ref, _, _, converged = oracles.row_lasso_descent(xt, yt, lam)
        assert fit.converged and converged
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(fit.coef - ref)) <= 1e-10 * scale
        # warm starts from the neighbouring gamma's solution, and from the
        # neighbouring lambda's, as a fit along either grid starts
        other = GRAM_GAMMAS[(GRAM_GAMMAS.index(gamma) + 1) % len(GRAM_GAMMAS)]
        larger = GRAM_FRACTIONS[(GRAM_FRACTIONS.index(fraction) + 1) % len(GRAM_FRACTIONS)]
        starts = (
            fit_anchor_lasso(ds, other, fraction * lambda_max(ds, other)).coef,
            fit_anchor_lasso(ds, gamma, larger * lambda_max(ds, gamma)).coef,
        )
        for start in starts:
            assert np.array_equal(fit_anchor_lasso(ds, gamma, lam, start).coef, fit.coef)

    @pytest.mark.parametrize("gamma", GRAM_GAMMAS)
    @pytest.mark.parametrize("wide", [False, True])
    def test_lambda_grid_matches_row_form(self, gamma, wide):
        ds = _gram_case(31, wide, categorical=True, ill_conditioned=False)
        top = oracles.row_lambda_max(ds, gamma)
        assert lambda_max(ds, gamma) == pytest.approx(top, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, d", [(40, 10), (12, 20)])
    def test_tiny_response_converges(self, n, d):
        # ||y||^2 underflows below ~1e-162; the stop |g - Gb| <= lam has no
        # tolerance that could underflow, so the fit ends at the response's scale
        for seed in range(10):
            ds = _random_ds(seed, n=n, d=d)
            tiny = AnchorDataset(X=ds.X, Y=1e-165 * ds.Y, A=ds.A)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                fit = fit_anchor_lasso(tiny, 1.0, 0.01 * lambda_max(tiny, 1.0))
            ref = fit_anchor_lasso(ds, 1.0, 0.01 * lambda_max(ds, 1.0)).coef
            assert fit.converged
            scale = 1e-165 * float(np.max(np.abs(ref)))
            assert np.max(np.abs(fit.coef - 1e-165 * ref)) <= 1e-10 * scale

    def test_wide_data_forms_no_square_gram(self):
        # n <= d: the columns come from the off-anchor data and the anchor
        # coordinates, one per coordinate that joins, shared across gamma
        ds = _gram_case(32, wide=True, categorical=False, ill_conditioned=False)
        for gamma in (0.0, 1.0, 4.0):
            fit_anchor_lasso(ds, gamma, 0.2 * lambda_max(ds, gamma))
        assert "moments" not in vars(ds)
        assert isinstance(ds.gram_columns, numkern.ColumnMoments)
        assert len(ds.gram_columns._columns) < ds.d

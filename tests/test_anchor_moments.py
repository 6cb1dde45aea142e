"""The cached anchor projection and moments against the per-fit QR reference.

Every fit projects through `AnchorDataset.projection` (level sums for
categorical anchors, one thin SVD for any other anchor block) and every dense fit
solves from the Gram matrices in `AnchorDataset.moments`. These tests pin
both to the QR-based estimator in `oracles` on every anchor kind the library
builds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anchorlab import numkern, scm, sparse
from anchorlab.datamodel import AnchorDataset, center, from_levels
from anchorlab.estimators import anchor_objective, fit_anchor
from anchorlab.exceptions import SingularDesign, Underidentified
from anchorlab.modelsel import cv_gamma

import oracles

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GAMMAS = (0.0, 0.25, 1.0, 4.0, 1e3, 1e6, 1e9, math.inf)
COEF_RTOL = 1e-9


def _categorical(rng, d, strong=False):
    n, levels = int(rng.integers(80, 400)), int(rng.integers(d + 3, 15))
    labels = rng.integers(0, levels, size=n)
    hidden = rng.standard_normal(n)
    noise = 1e-4 if strong else 1.0
    x = 2.0 * rng.standard_normal((levels, d))[labels] + noise * (
        rng.standard_normal((n, d)) + hidden[:, None]
    )
    y = x @ rng.standard_normal(d) + 2.0 * hidden + rng.standard_normal(n)
    return from_levels(x, y, labels)


def _fold(rng, d):
    # a training fold: whole levels left out, so some indicator columns are zero
    ds = _categorical(rng, d)
    labels = sorted(ds.anchor_levels)
    kept = rng.choice(len(labels), size=d + 2, replace=False)
    rows = np.sort(np.concatenate([ds.anchor_levels[labels[k]] for k in kept]))
    return oracles.subset_rows(ds, rows)


def _continuous(rng, d, strong=False):
    n, q = int(rng.integers(60, 400)), d + int(rng.integers(0, 3))
    a = rng.standard_normal((n, q))
    hidden = rng.standard_normal(n)
    noise = 1e-4 if strong else 1.0
    x = a @ rng.standard_normal((q, d)) + noise * (
        rng.standard_normal((n, d)) + hidden[:, None]
    )
    y = x @ rng.standard_normal(d) + 2.0 * hidden + rng.standard_normal(n)
    return AnchorDataset(X=x, Y=y, A=a)


def _level_vectors(rng, d):
    # scm.sample keeps anchor_levels but A holds the level vectors, q columns
    q, p = d + 1, d + 2
    B = np.zeros((p, p))
    B[:d, d + 1] = rng.uniform(0.5, 1.5, d)
    B[d, :d] = rng.uniform(-1.0, 1.0, d)
    B[d, d + 1] = 1.5
    M = np.zeros((p, q))
    M[:d] = rng.uniform(-1.0, 1.0, (d, q))
    anchor = scm.AnchorDistribution.discrete(rng.standard_normal((int(rng.integers(q + 1, 12)), q)))
    model = scm.LinearScm(d=d, r=1, B=B, M=M, noise_scales=np.ones(p), anchor=anchor)
    return scm.sample(model, int(rng.integers(80, 400)), rng)


DESIGNS = {
    "categorical": _categorical,
    "fold": _fold,
    "continuous": _continuous,
    "level-vectors": _level_vectors,
    "strong-categorical": lambda rng, d: _categorical(rng, d, strong=True),
    "strong-continuous": lambda rng, d: _continuous(rng, d, strong=True),
}


def _relative_gap(got, ref):
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


@given(
    design=st.sampled_from(sorted(DESIGNS)),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=60, deadline=None)
# at gamma = 1e6 a reference that forms X + (sqrt(gamma) - 1) PX is 1.3e-9 off
@example(design="continuous", d=4, seed=187)
def test_coefficients_match_qr_reference(design, d, seed):
    ds = center(DESIGNS[design](numkern.make_rng(seed), d))
    for gamma in GAMMAS:
        got = fit_anchor(ds, gamma).coef
        assert _relative_gap(got, oracles.qr_fit_anchor(ds, gamma)) <= COEF_RTOL, gamma


@given(
    design=st.sampled_from(sorted(DESIGNS)),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=30, deadline=None)
def test_gamma_transform_matches_qr_reference(design, d, seed):
    # the dataset's cached projection against a fresh QR basis: both round at
    # the scale of the data they project, which the transform multiplies by
    # sqrt(gamma) on the anchor span
    ds = center(DESIGNS[design](numkern.make_rng(seed), d))
    for gamma in GAMMAS[:-1]:
        got = oracles.projection_gamma_transform(ds, gamma)
        pairs = zip(got, oracles.qr_gamma_transform(ds, gamma), (ds.X, ds.Y))
        for got, ref, raw in pairs:
            scale = max(np.sqrt(gamma), 1.0) * float(np.max(np.abs(raw)))
            assert float(np.max(np.abs(got - ref))) <= 1e-12 * scale, gamma


@given(
    design=st.sampled_from(sorted(DESIGNS)),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    noiseless=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_objective_matches_row_reference(design, d, seed, noiseless):
    # a noiseless Y = X beta leaves a zero residual at beta, which the Gram
    # form reaches only to round-off at the scale of the data
    rng = numkern.make_rng(seed)
    ds = DESIGNS[design](rng, d)
    beta = rng.standard_normal(d)
    if noiseless:
        ds = replace(ds, Y=ds.X @ beta)
    ds = center(ds)
    scale = float(np.trace(ds.moments.gram_off + ds.moments.gram_on))
    for gamma in (0.0, 0.5, 1.0, 7.0, 1e3):
        for b in (beta, rng.standard_normal(d), fit_anchor(ds, gamma).coef):
            got = anchor_objective(ds, b, gamma)
            ref = oracles.row_anchor_objective(ds, b, gamma)
            if noiseless:
                bound = 1e-12 * (1.0 + gamma) * scale * (1.0 + float(b @ b))
            else:
                bound = 1e-10 * ref
            assert abs(got - ref) <= bound, (gamma, got, ref)


def test_objectives_make_no_projection_call(monkeypatch):
    ds = center(_continuous(numkern.make_rng(4), 3))
    ds.moments  # the one projection of this dataset

    def refuse(*args):
        raise AssertionError("objective projected the data again")

    monkeypatch.setattr(numkern.AnchorProjection, "coordinates", refuse)
    monkeypatch.setattr(numkern.AnchorProjection, "expand", refuse)
    for gamma in GAMMAS[:-1]:
        fit = fit_anchor(ds, gamma)
        assert fit.objective == anchor_objective(ds, fit.coef, gamma)
    fit_anchor(ds, math.inf)


def test_strong_anchors_partial_out_to_round_off():
    # anchors explain all but 1e-8 of the variance of X
    for seed in range(20):
        ds = center(_categorical(numkern.make_rng(seed), 3, strong=True))
        got = fit_anchor(ds, 0.0).coef
        assert _relative_gap(got, oracles.qr_fit_anchor(ds, 0.0)) <= COEF_RTOL


def _outcome(fit, ds, gamma):
    try:
        fit(ds, gamma)
    except (SingularDesign, Underidentified) as exc:
        return type(exc)
    return None


def _few_rows(rng):
    return AnchorDataset(X=rng.standard_normal((4, 4)), Y=rng.standard_normal(4),
                         A=rng.standard_normal((4, 2)))


def _collinear(rng):
    ds = _continuous(rng, 2)
    return AnchorDataset(X=np.column_stack([ds.X, ds.X[:, 0]]), Y=ds.Y, A=ds.A)


def _one_anchor_direction(rng):
    ds = _continuous(rng, 3)
    return AnchorDataset(X=ds.X, Y=ds.Y, A=ds.A[:, :1])


def _two_levels(rng):
    ds = _categorical(rng, 2)
    labels = np.where(ds.level_codes % 2 == 0, "even", "odd")
    return from_levels(ds.X, ds.Y, labels)


def _in_span(rng):
    # a site-level predictor, constant within each anchor level: gamma = 0
    # partials it out entirely, every gamma > 0 identifies it
    ds = _categorical(rng, 2)
    site = rng.standard_normal(int(ds.level_codes.max()) + 1)[ds.level_codes]
    return from_levels(np.column_stack([ds.X, site]), ds.Y, ds.level_codes)


def _in_span_pair(rng):
    # two predictors that are multiples of the one anchor column: more
    # directions of X lie in the anchor span than it has dimensions
    ds = _one_anchor_direction(rng)
    return AnchorDataset(X=np.column_stack([ds.X[:, :1], ds.A @ [[2.0, -1.0]]]), Y=ds.Y, A=ds.A)


@pytest.mark.parametrize("build, expected", [
    (_few_rows, {SingularDesign, Underidentified}),
    (_collinear, {SingularDesign, Underidentified}),
    (_one_anchor_direction, {None, Underidentified}),
    (_two_levels, {None, Underidentified}),
    (_in_span, {SingularDesign, None}),
    (_in_span_pair, {SingularDesign, Underidentified}),
])
def test_errors_raised_exactly_where_reference_raises(build, expected):
    for seed in range(5):
        ds = center(build(numkern.make_rng(seed)))
        outcomes = {
            gamma: _outcome(fit_anchor, ds, gamma) for gamma in GAMMAS
        }
        assert outcomes == {
            gamma: _outcome(oracles.qr_fit_anchor, ds, gamma) for gamma in GAMMAS
        }
        assert set(outcomes.values()) == expected


DEGENERATE = {
    "few-rows": _few_rows,
    "collinear": _collinear,
    "one-anchor-direction": _one_anchor_direction,
    "two-levels": _two_levels,
    "in-span": _in_span,
}


@pytest.mark.parametrize("name", [*sorted(DESIGNS), *DEGENERATE])
def test_iv_fit_is_the_shared_split(name, monkeypatch):
    # the IV fit solves no Gram matrix: it takes the gamma = inf value of the one
    # factorisation of the moments, which the population IV limit reads too,
    # and raises where the QR reference raises
    def refuse(*args):
        raise AssertionError("the IV fit solved a Gram matrix")

    for seed in range(5):
        rng = numkern.make_rng(seed)
        ds = center(DESIGNS[name](rng, 3) if name in DESIGNS else DEGENERATE[name](rng))
        try:
            ref = oracles.qr_fit_iv(ds)
        except Underidentified:
            ref = None
        with monkeypatch.context() as patched:
            patched.setattr(numkern, "solve_spd", refuse)
            path = ds.moments.path
            try:
                fit = fit_anchor(ds, math.inf)
            except Underidentified as exc:
                assert ref is None
                assert f"rank {path.rank} < d={ds.d}" in str(exc)
                continue
        assert ref is not None
        assert _relative_gap(fit.coef, ref) <= COEF_RTOL
        assert np.array_equal(fit.coef, path.limit)
        assert fit.objective == numkern.residual_energy(ds.moments, fit.coef)[1]


@pytest.fixture
def qr_calls(monkeypatch):
    calls = []
    real = numkern.orthonormal_range

    def counted(basis):
        calls.append(np.shape(basis))
        return real(basis)

    monkeypatch.setattr(numkern, "orthonormal_range", counted)
    return calls


def test_categorical_anchors_run_no_qr(qr_calls):
    ds = _categorical(numkern.make_rng(1), 3)
    for gamma in GAMMAS:
        fit_anchor(center(ds), gamma)
    sparse.fit_anchor_lasso(center(ds), 2.0, 5.0)
    cv_gamma(ds, alphas=(0.5, 0.9), gamma_grid=(0.5, 1.0, 4.0), folds=3, lam=5.0)
    assert qr_calls == []


def test_one_qr_per_centred_dataset(qr_calls):
    for build in (_continuous, _level_vectors):
        ds = center(build(numkern.make_rng(2), 2))
        for gamma in GAMMAS:
            fit_anchor(ds, gamma)
        fit_anchor(ds, math.inf)
        sparse.fit_anchor_lasso(ds, 4.0, 1.0)
        sparse.lambda_max(ds, 0.5)
    assert len(qr_calls) == 2


def test_projection_needs_a_centred_dataset():
    with pytest.raises(ValueError):
        _continuous(numkern.make_rng(3), 2).projection

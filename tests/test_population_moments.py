"""The population oracle's anchor moments against covariance-block references.

`LinearScm.moments` holds the same two Gram matrices a dataset has, and every
population solve reads them through the sample side's kernels. These tests pin
the coefficients, the replicability sides and the projectability test to the
covariance-based solvers in `oracles` on random Gaussian- and discrete-anchor
models.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchorlab import numkern, scm
from anchorlab.batteries import random_scenario, random_scm
from anchorlab.exceptions import ProjectabilityViolated

import oracles

GAMMAS = (0.0, 0.5, 1.0, 7.0, 1e3, math.inf)
COEF_RTOL = 1e-9


def _model(seed, d, r, q, discrete):
    rng = numkern.make_rng(seed)
    model = random_scm(rng, d=d, r=r, q=q)
    if discrete:
        levels = rng.standard_normal((int(rng.integers(q + 1, 6)), q))
        probs = rng.dirichlet(np.ones(levels.shape[0]))
        model = replace(model, anchor=scm.AnchorDistribution.discrete(levels, probs))
    return model


def _relative_gap(got, ref, model):
    """Gap relative to |ref|, or for coefficients that vanish structurally to
    the model's unit sqrt(Var Y / lambda_min(Cov X)), at which they round."""
    sigma = oracles.population_covariance(model)[: model.d + 1, : model.d + 1]
    unit = math.sqrt(sigma[-1, -1] / np.linalg.eigvalsh(sigma[:-1, :-1])[0])
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), unit)


MODELS = dict(
    seed=st.integers(min_value=0, max_value=2**20),
    d=st.integers(min_value=1, max_value=3),
    r=st.integers(min_value=0, max_value=2),
    q=st.integers(min_value=1, max_value=3),
    discrete=st.booleans(),
)


def _holds_by_reference(model):
    """The reference's rank test, or None when a singular value it counts
    is at round-off level: below 1e-12 times the Cauchy-Schwarz bound
    sqrt(||E[AA']|| ||Sigma||) on the covariance block it belongs to."""
    _, _, sax, say, gram = oracles.covariance_blocks(model)
    sigma = oracles.population_covariance(model)[: model.d + 1, : model.d + 1]
    ranks = []
    for block, cov in ((sax, sigma[:-1, :-1]), (np.column_stack([sax, say]), sigma)):
        sv = np.linalg.svd(block, compute_uv=False)
        counted = sv[: oracles.covariance_rank(block)]
        floor = 1e-12 * math.sqrt(np.linalg.norm(gram, 2) * np.linalg.norm(cov, 2))
        if counted.size and counted[-1] <= floor:
            return None
        ranks.append(counted.size)
    return ranks[0] == ranks[1]


@given(**MODELS)
@settings(max_examples=80, deadline=None)
def test_coefficients_match_covariance_reference(seed, d, r, q, discrete):
    model = _model(seed, d, r, q, discrete)
    reference_holds = _holds_by_reference(model)
    for gamma in GAMMAS:
        if gamma == math.inf and reference_holds is not True:
            continue
        got = scm.population_anchor(model, gamma)
        ref = oracles.covariance_population_anchor(model, gamma)
        assert _relative_gap(got, ref, model) <= COEF_RTOL, gamma


@given(**MODELS)
@settings(max_examples=80, deadline=None)
def test_projectability_matches_whitened_reference(seed, d, r, q, discrete):
    model = _model(seed, d, r, q, discrete)
    got = scm.projectability_check(model)
    reference_holds = _holds_by_reference(model)
    if reference_holds is None:
        # the reference counted round-off as rank; the rank rule does not,
        # so the test and the penalty agree again
        assert got["holds"] == (got["penalty_min"] < 1e-8)
    else:
        assert got["holds"] == reference_holds
        ref = oracles.whitened_projectability(model)
        r_y = model.moments.on[:, -1]
        assert abs(got["penalty_min"] - ref["penalty_min"]) <= 1e-9 * float(r_y @ r_y)
    if not got["holds"]:
        try:
            scm.population_anchor(model, math.inf)
        except ProjectabilityViolated:
            pass
        else:
            raise AssertionError("IV limit returned without projectability")


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    d=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_replicability_sides_match_covariance_reference(seed, d):
    scen = random_scenario(numkern.make_rng(seed), d=d, q=2)
    out = scm.replicability_experiment(scen)
    ref_train, ref_test = oracles.covariance_replicability(scen)
    assert _relative_gap(out["b_train"], ref_train, scen.base) <= COEF_RTOL
    assert _relative_gap(out["b_test"], ref_test, scen.base) <= COEF_RTOL


@given(**MODELS)
@settings(max_examples=80, deadline=None)
def test_worst_case_risk_matches_structural_reference(seed, d, r, q, discrete):
    model = _model(seed, d, r, q, discrete)
    rng = numkern.make_rng(seed + 1)
    for gamma in GAMMAS[:-1]:
        for b in (rng.uniform(-2.0, 2.0, size=d), scm.population_anchor(model, gamma)):
            got = scm.worst_case_risk(model, b, gamma)
            ref = oracles.structural_worst_case_risk(model, b, gamma)
            assert abs(got - ref) <= 1e-12 * ref, gamma


def test_worst_case_risk_reads_the_moments(monkeypatch):
    model = random_scm(numkern.make_rng(7), d=2, r=1, q=2)
    b = np.array([0.5, -1.0])
    expected = oracles.structural_worst_case_risk(model, b, 3.0)
    monkeypatch.setattr(scm.LinearScm, "residual_weights", None)
    assert abs(scm.worst_case_risk(model, b, 3.0) - expected) <= 1e-12 * expected


def test_unmixing_is_inverted_once_and_read_only():
    model = random_scm(numkern.make_rng(6), d=2, r=1, q=2)
    inv = model.unmixing()
    assert model.unmixing() is inv
    assert not inv.flags.writeable
    assert np.allclose(inv @ (np.eye(model.p) - model.B), np.eye(model.p), atol=1e-12)


def test_moments_split_the_population_covariance():
    # gram_on + gram_off is the (X, Y) block of the joint covariance, and
    # gram_on is Cov(., A) E[AA']^-1 Cov(A, .)
    model = random_scm(numkern.make_rng(5), d=2, r=1, q=2)
    joint = oracles.population_covariance(model)
    p, k = model.p, model.d + 1
    cross = joint[p:, :k]
    moments = model.moments
    on = cross.T @ np.linalg.solve(model.anchor.second_moment(), cross)
    assert np.allclose(moments.gram_on, on, rtol=1e-12, atol=1e-12)
    assert np.allclose(moments.gram_on + moments.gram_off, joint[:k, :k], rtol=1e-12, atol=1e-12)
    assert model.moments is moments

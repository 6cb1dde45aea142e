import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anchorlab import numkern
from anchorlab.exceptions import DomainError, NotPositiveDefinite

import oracles


class TestSolveSpd:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        assert np.allclose(numkern.solve_spd(np.eye(3), rhs), rhs)

    def test_diagonal(self):
        g = np.diag([4.0, 9.0])
        out = numkern.solve_spd(g, np.array([2.0, 3.0]))
        assert np.allclose(out, [0.5, 1.0 / 3.0], atol=1e-14)

    def test_matches_qr_oracle(self):
        rng = numkern.make_rng(1)
        x = rng.standard_normal((50, 5))
        y = rng.standard_normal(50)
        ours = numkern.solve_spd(x.T @ x, x.T @ y)
        assert np.max(np.abs(ours - oracles.qr_lstsq(x, y))) < 1e-8

    def test_residual_bound(self):
        rng = numkern.make_rng(2)
        x = rng.standard_normal((40, 6))
        g = x.T @ x + np.eye(6)
        rhs = rng.standard_normal(6)
        sol = numkern.solve_spd(g, rhs)
        assert np.linalg.norm(g @ sol - rhs) / np.linalg.norm(rhs) <= 1e-10

    def test_rejects_singular(self):
        g = np.ones((3, 3))
        with pytest.raises(NotPositiveDefinite):
            numkern.solve_spd(g, np.ones(3))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            numkern.solve_spd(np.diag([1.0, -1.0]), np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteInput:
    @pytest.mark.parametrize("row, col", [(1, 2), (2, 2)])
    def test_solve_spd_rejects(self, bad, row, col):
        g = np.eye(3) + 0.1
        g[row, col] = g[col, row] = bad
        with pytest.raises(NotPositiveDefinite):
            numkern.solve_spd(g, np.ones(3))

    def test_orthonormal_range_rejects(self, bad):
        a = numkern.make_rng(9).standard_normal((20, 3))
        a[4, 1] = bad
        with pytest.raises(DomainError):
            numkern.orthonormal_range(a)


class TestProjectColumns:
    """`AnchorProjection(anchors).project`, the projection through one thin SVD."""

    def test_ones_column_gives_means(self):
        rng = numkern.make_rng(3)
        v = rng.standard_normal((20, 3))
        proj = numkern.AnchorProjection(np.ones((20, 1))).project(v)
        assert np.allclose(proj, np.broadcast_to(v.mean(axis=0), v.shape))

    def test_idempotent_on_column_space(self):
        rng = numkern.make_rng(4)
        a = rng.standard_normal((30, 4))
        v = a @ rng.standard_normal((4, 2))
        assert np.max(np.abs(numkern.AnchorProjection(a).project(v) - v)) < 1e-10

    def test_groupwise_mean_oracle(self):
        rng = numkern.make_rng(5)
        groups = rng.integers(0, 3, size=60)
        dummies = np.zeros((60, 3))
        dummies[np.arange(60), groups] = 1.0
        y = rng.standard_normal(60)
        proj = numkern.AnchorProjection(dummies).project(y)
        assert np.max(np.abs(proj - oracles.groupwise_means(y, groups))) < 1e-10

    def test_rank_deficient_anchor_handled(self):
        rng = numkern.make_rng(6)
        a = rng.standard_normal((25, 2))
        a = np.column_stack([a, a[:, 0] + a[:, 1]])  # exactly dependent
        v = rng.standard_normal(25)
        once = numkern.AnchorProjection(a).project(v)
        twice = numkern.AnchorProjection(a).project(once)
        assert np.max(np.abs(once - twice)) < 1e-10

    def test_self_adjoint(self):
        rng = numkern.make_rng(7)
        a = rng.standard_normal((30, 3))
        u, v = rng.standard_normal(30), rng.standard_normal(30)
        pu = numkern.AnchorProjection(a).project(u)
        pv = numkern.AnchorProjection(a).project(v)
        assert abs(pu @ v - u @ pv) < 1e-9

    def test_rank_rule_is_the_singular_value_rule(self):
        # Kahan's matrix: column pivoting keeps its order and every |R_ii|
        # stays above 2e-2 of |R_00|, yet sigma_min / sigma_max is ~1e-12,
        # so only the singular values reveal its rank (89, not 90)
        n, c = 90, 0.285
        kahan = np.diag(np.sqrt(1 - c * c) ** np.arange(n)) @ (
            np.eye(n) - c * np.triu(np.ones((n, n)), 1)
        )
        kahan[np.diag_indices(n)] += 1e3 * np.finfo(float).eps * (n - np.arange(n))
        sv = np.linalg.svd(kahan, compute_uv=False)
        rank = int(np.sum(sv > numkern.RANK_RTOL * sv[0]))
        assert rank < n
        assert numkern.orthonormal_range(kahan).shape == (n, rank)

    def test_residual_orthogonal_to_anchors(self):
        rng = numkern.make_rng(8)
        a = rng.standard_normal((40, 3))
        v = rng.standard_normal((40, 2))
        resid = v - numkern.AnchorProjection(a).project(v)
        assert np.max(np.abs(a.T @ resid)) < 1e-8


@pytest.mark.parametrize("extra", [-1, 0, 1, 2, 3])
@pytest.mark.parametrize("coded", [False, True])
def test_anchor_split_in_blocks_keeps_the_whole_product_bits(extra, coded):
    # one block more or less than whole, and a last block of one, two or
    # three rows: the off-anchor rows equal data - expand(on) bit for bit
    n = 2 * numkern.SPLIT_BLOCK_ROWS + extra
    rng = numkern.make_rng(10 + extra)
    data = rng.standard_normal((n, 11)) * 10.0 ** rng.integers(-3, 4, 11)
    if coded:
        proj = numkern.AnchorProjection(None, rng.integers(0, 40, n))
    else:
        anchors = rng.standard_normal((n, 10))
        proj = numkern.AnchorProjection(anchors - anchors.mean(axis=0))
    on = proj.coordinates(data)
    want = data - proj.expand(on)
    got_on, off = numkern.anchor_split(proj, data)
    assert off is data
    assert got_on.tobytes() == on.tobytes()
    assert off.tobytes() == want.tobytes()


class TestChi2Quantile:
    def test_median(self):
        assert abs(numkern.chi2_1_quantile(0.5) - 0.454936) < 1e-6

    def test_95(self):
        assert abs(numkern.chi2_1_quantile(0.95) - 3.841459) < 1e-6

    def test_matches_bisection_oracle(self):
        for alpha in (0.05, 0.3, 0.6827, 0.9, 0.99):
            ours = numkern.chi2_1_quantile(alpha)
            ref = oracles.chi2_1_quantile_bisection(alpha)
            assert abs(ours - ref) < 1e-9

    def test_small_alpha_limit(self):
        assert numkern.chi2_1_quantile(1e-12) < 1e-10

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                numkern.chi2_1_quantile(bad)

    @given(st.floats(min_value=0.01, max_value=0.98))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_cdf_roundtrip(self, alpha):
        lo = numkern.chi2_1_quantile(alpha)
        hi = numkern.chi2_1_quantile(alpha + 0.01)
        assert hi > lo
        assert abs(oracles.chi2_1_cdf(lo) - alpha) < 1e-8


class TestSampling:
    def test_seed_reproducibility(self):
        a = numkern.make_rng(11).standard_normal(100)
        b = numkern.make_rng(11).standard_normal(100)
        assert np.array_equal(a, b)

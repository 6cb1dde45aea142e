"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms than the production code:
accelerated proximal gradient and cyclic coordinate descent instead of
feature-sign steps on Gram columns, active-set solves by QR of the n-row
columns instead of Cholesky-tested solves of the Gram, explicit QR least
squares instead of Cholesky, undirected-trail enumeration instead of
Bayes-ball, a per-fit projection instead of cached anchor moments,
population covariance blocks, lstsq particular solutions and a
self-relative rank test instead of the population anchor moments, and the
row-wise objective and structural worst-case risk instead of the residual
energy of the moments, cross-validation folds copied into datasets of
their own (`subset_rows`) instead of index rows of the one dataset, the
l1 descent on the n-row gamma-transformed data instead of Gram columns read
from the moments, the equal-weight l1 descent on a stacked n-row copy
(`equal_weight_design`) instead of the level-reweighted moments, and the
certification battery's quantities scored one vector and one shift at a time
instead of as one stack per model, the equal-weight risk summed level
by level (`equal_weight_objective`) instead of read from the
level-reweighted moments, and a model's validation by an SVD of Id - B and a
list-based sink peel (`svd_rule_inverse`, `sink_peel_acyclic`) instead of a
norm certificate read from the inverse and an array peel, and a sample
mixed through a fresh array per step (`fresh_array_sample`) instead of in
place on the noise.

The last section holds the Monte-Carlo risk-scaling experiment that the
acceptance suite runs, and the equal-weight population risk it measures.
"""

import math

import numpy as np

from anchorlab import numkern
from anchorlab.batteries import random_stable_scm
from anchorlab.datamodel import AnchorDataset, center, level_blocks
from anchorlab.estimators import fit_anchor
from anchorlab.exceptions import (
    DomainError,
    InsufficientLevels,
    InvalidConfig,
    ProjectabilityViolated,
    SingularDesign,
    Underidentified,
)
from anchorlab.modelsel import (
    GammaCvResult,
    assign_level_folds,
    conditional_mse_quantiles,
)
from anchorlab.scm import (
    LinearScm,
    Shift,
    anchor_stability_causal_check,
    population_anchor,
    sample,
    shift_risk,
    worst_case_risk,
)
from anchorlab.sparse import fit_anchor_lasso, fit_equal_weight_lasso


def qr_lstsq(design, response):
    """Least squares through numpy's QR, independent of solve_spd."""
    q, r = np.linalg.qr(design)
    return np.linalg.solve(r, q.T @ response)


def proximal_gradient_lasso(design, response, lam, iterations=20_000, tol=1e-12):
    """FISTA for min ||y - Xb||^2 + 2*lam*||b||_1."""
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float).ravel()
    lip = 2.0 * np.linalg.eigvalsh(design.T @ design).max()
    b = np.zeros(design.shape[1])
    z = b.copy()
    t = 1.0
    for _ in range(iterations):
        grad = 2.0 * design.T @ (design @ z - response)
        step = z - grad / lip
        new = np.sign(step) * np.maximum(np.abs(step) - 2.0 * lam / lip, 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = new + (t - 1.0) / t_new * (new - b)
        if np.max(np.abs(new - b)) < tol:
            b = new
            break
        b, t = new, t_new
    return b


def residual_update_descent(design, response, lam, max_sweeps=100_000, rtol=1e-9):
    """Cold cyclic coordinate descent for min ||y - Xb||^2 + 2*lam*||b||_1
    that keeps the residual y - Xb current: O(n) work per coordinate, no
    Gram columns, no active set and no exact finish. Stops when a sweep
    moves every coordinate by less than rtol * std(y).

    Returns (coef, sweeps, final_move, converged).
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float).ravel()
    d = design.shape[1]
    col_sq = np.einsum("ij,ij->j", design, design)
    b = np.zeros(d)
    resid = response.copy()
    tol = rtol * max(float(response.std()), 1e-300)
    move = np.inf
    for sweeps in range(1, max_sweeps + 1):
        move = 0.0
        for k in range(d):
            if col_sq[k] == 0.0:
                continue
            old = b[k]
            z = design[:, k] @ resid + col_sq[k] * old
            new = np.sign(z) * max(abs(z) - lam, 0.0) / col_sq[k]
            if new != old:
                resid += design[:, k] * (old - new)
                b[k] = new
                move = max(move, abs(new - old))
        if move < tol:
            return b, sweeps, move, True
    return b, max_sweeps, move, False


def kkt_violation(design, response, b, lam):
    """Largest violation of the lasso stationarity conditions at b."""
    grad = design.T @ (response - design @ b)
    violation = np.where(
        b != 0.0, np.abs(grad - lam * np.sign(b)), np.maximum(np.abs(grad) - lam, 0.0)
    )
    return float(violation.max(initial=0.0))


def kkt_violation_loop(design, response, b, lam):
    """Largest lasso stationarity violation at b, one coordinate at a time."""
    grad = design.T @ (response - design @ b)
    worst = 0.0
    for k in range(b.shape[0]):
        if b[k] != 0.0:
            worst = max(worst, abs(grad[k] - lam * np.sign(b[k])))
        else:
            worst = max(worst, max(abs(grad[k]) - lam, 0.0))
    return worst


def lasso_objective(design, response, b, lam):
    resid = response - design @ b
    return float(resid @ resid + 2.0 * lam * np.abs(b).sum())


# --- the l1 descent on n-row data ------------------------------------------

def row_lasso_descent(design, response, lam, start=None, max_sweeps=100_000, rtol=1e-9):
    """Covariance-update coordinate descent on an n-row design, as the library
    ran it on the gamma-transformed data before it read Gram columns from the
    moments: Gram columns X'x_k formed per call, and active-set sweeps after
    each full sweep until no coordinate of a full sweep changes the fitted
    values by rtol * ||y - mean(y)|| or more. The sweeps then end in
    `row_active_set_repair`, exact active-set solves by QR of the n-row
    columns, so a descent that crawls on an ill-conditioned design still
    ends at the solution.

    Returns (coef, sweeps, final_move, converged), where converged means
    that `kkt_violation` on the n-row data is at most 1e-9 * lam.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float).ravel()
    d = design.shape[1]
    col_sq = np.einsum("ij,ij->j", design, design).tolist()
    norms = np.linalg.norm(design, axis=0).tolist()
    b = np.zeros(d) if start is None else np.array(start, dtype=float)
    grad = design.T @ (response - design @ b)
    columns = {}
    tol = rtol * max(float(np.linalg.norm(response - response.mean())), 1e-300)

    def column(k):
        if k not in columns:
            columns[k] = design.T @ design[:, k]
        return columns[k]

    def sweep(coords):
        move = 0.0
        for k in coords:
            sq = col_sq[k]
            if sq == 0.0:
                b[k] = 0.0
                continue
            old = b[k]
            z = grad[k] + sq * old
            new = math.copysign(max(abs(z) - lam, 0.0), z) / sq
            if new != old:
                np.subtract(grad, (new - old) * column(k), out=grad)
                b[k] = new
                move = max(move, abs(new - old) * norms[k])
        return move

    move = np.inf
    sweeps = 0
    while sweeps < max_sweeps:
        move = sweep(range(d))
        sweeps += 1
        if move < tol:
            break
        active = np.flatnonzero(b).tolist()
        while active and sweeps < max_sweeps:
            sweeps += 1
            if sweep(active) < tol:
                break
    b = row_active_set_repair(design, response, lam, b)
    return b, sweeps, move, kkt_violation(design, response, b, lam) <= 1e-9 * lam


def row_active_set_repair(design, response, lam, b, max_steps=10_000):
    """Active-set steps on the n-row data from b until its stationarity
    violation is at most 1e-9 * lam.

    Each step solves X_S'X_S x = X_S'y - lam*s on b's support S with signs
    s through a QR of the n-row X_S, never through X'X. When a sign of x
    flips, b moves toward x up to the first zero crossing, which leaves S;
    when X_S is rank deficient (|diag R| below 1e-12 of its largest), b
    moves along a right null vector of X_S, the direction that does not
    raise ||b||_1, to the first zero. Otherwise b = x, and the coordinate of
    largest |X'(y - Xb)| above lam is minimised over exactly, which enters
    it with its own sign.
    """
    b = np.array(b, dtype=float)
    for _ in range(max_steps):
        active = np.flatnonzero(b)
        signs = np.sign(b[active])
        direction = None
        if active.size:
            q, r = np.linalg.qr(design[:, active])
            pivots = np.abs(np.diag(r))
            if pivots.min() <= 1e-12 * pivots.max():
                direction = np.linalg.svd(design[:, active])[2][-1]
                direction = -direction if signs @ direction > 0.0 else direction
            else:
                x = np.linalg.solve(r, q.T @ response - np.linalg.solve(r.T, lam * signs))
                if not np.array_equal(np.sign(x), signs):
                    direction = x - b[active]
                else:
                    b[active] = x
        if direction is not None:
            shrinking = np.flatnonzero(signs * direction < 0.0)
            steps = -b[active[shrinking]] / direction[shrinking]
            b[active] += steps.min() * direction
            b[active[shrinking[np.argmin(steps)]]] = 0.0
            continue
        if kkt_violation(design, response, b, lam) <= 1e-9 * lam:
            return b
        grad = design.T @ (response - design @ b)
        grad[active] = 0.0
        k = int(np.argmax(np.abs(grad)))
        if not abs(grad[k]) > lam:
            return b
        b[k] = (grad[k] - math.copysign(lam, grad[k])) / (design[:, k] @ design[:, k])
    return b


def row_lambda_max(ds, gamma):
    """||Xt' Yt||_inf on `qr_gamma_transform`'s data, padded by a relative 1e-12."""
    xt, yt = qr_gamma_transform(ds, gamma)
    return float(np.max(np.abs(xt.T @ yt))) * (1.0 + 1e-12)


def equal_weight_breakdown(ds, b):
    """Per anchor level, in `level_blocks` order: the mean squared
    within-level-centred residual at b and the mean residual."""
    resid = ds.Y - ds.X @ np.asarray(b, dtype=float)
    within, means = [], []
    for _, idx in level_blocks(ds):
        r = resid[idx]
        mean = float(r.mean())
        means.append(mean)
        within.append(float(np.mean((r - mean) ** 2)))
    return within, means


def equal_weight_objective(ds, b, gamma):
    """Equal-weight empirical risk, every anchor level counting the same: the
    average over levels of the within-level moment plus gamma times the
    squared mean residual."""
    within, means = equal_weight_breakdown(ds, b)
    return sum(within) / len(within) + gamma * sum(m * m for m in means) / len(means)


def equal_weight_design(ds, gamma):
    """Row-rescaled stacked system whose residual energy is n * risk."""
    blocks = level_blocks(ds)
    n, k = ds.n, len(blocks)
    x_rows, y_rows = [], []
    for _, idx in blocks:
        xa, ya = ds.X[idx], ds.Y[idx]
        x_mean, y_mean = xa.mean(axis=0), ya.mean()
        within_scale = np.sqrt(n / (k * idx.size))
        x_rows.append((xa - x_mean) * within_scale)
        y_rows.append((ya - y_mean) * within_scale)
        mean_scale = np.sqrt(n * gamma / k)
        x_rows.append(x_mean[None, :] * mean_scale)
        y_rows.append(np.array([y_mean * mean_scale]))
    return np.vstack(x_rows), np.concatenate(y_rows)


def _qr_project(ds, values):
    basis = numkern.orthonormal_range(ds.anchor_matrix())
    return basis @ (basis.T @ values)


def qr_gamma_transform(ds, gamma):
    """The gamma-transform with a fresh orthonormal basis of the centred anchors
    per projected column block; no level sums, no cached moments."""
    ds = center(ds)
    shrink = np.sqrt(gamma) - 1.0
    return ds.X + shrink * _qr_project(ds, ds.X), ds.Y + shrink * _qr_project(ds, ds.Y)


def projection_gamma_transform(ds, gamma):
    """The gamma-transform through the dataset's cached anchor projection
    (level sums or one thin SVD), as the library formed it before every fit
    read the moments."""
    ds = center(ds)
    on = ds.projection.project(np.column_stack([ds.X, ds.Y]))
    on *= np.sqrt(gamma) - 1.0
    return ds.X + on[:, : ds.d], ds.Y + on[:, ds.d]


def qr_fit_anchor(ds, gamma):
    """Anchor-regression coefficients by QR least squares on the freshly
    projected data, [(Id - P)X; sqrt(gamma) PX] against the same stack of Y.

    The two blocks are formed apart: X + (sqrt(gamma) - 1) PX would cancel
    the off-anchor part at large gamma. Raises SingularDesign when n <= d or
    when the stack has rank < d, by its singular values relative to
    ||X||_2 max(1, sqrt(gamma)) (at gamma = 0 the stack is (Id - P)X, so a
    predictor in the anchor span is singular there), and Underidentified
    when rank(P X) < d relative to ||X||_2 at gamma = inf.
    """
    ds = center(ds)
    if gamma == math.inf:
        return qr_fit_iv(ds)
    if ds.n <= ds.d:
        raise SingularDesign("n <= d")
    x_on, y_on = _qr_project(ds, ds.X), _qr_project(ds, ds.Y)
    root = math.sqrt(gamma)
    design = np.vstack([ds.X - x_on, root * x_on])
    response = np.concatenate([ds.Y - y_on, root * y_on])
    sv = np.linalg.svd(design, compute_uv=False)
    scale = float(np.linalg.norm(ds.X, ord=2)) * max(1.0, root)
    if int(np.sum(sv > numkern.RANK_RTOL * scale)) < ds.d:
        raise SingularDesign("the stacked design has rank < d")
    return qr_lstsq(design, response)


def row_anchor_objective(ds, b, gamma):
    """Penalized criterion at b from the n-row residual, projected through
    the dataset's anchor projection, as `anchor_objective` computed it
    before it read the moments."""
    ds = center(ds)
    resid = ds.Y - ds.X @ b
    coords = ds.projection.coordinates(resid)
    off_anchor = resid - ds.projection.expand(coords)
    return float(off_anchor @ off_anchor + gamma * (coords @ coords))


def qr_fit_iv(ds):
    """Two-stage least squares by QR least squares on the freshly projected data.

    Not through the normal equations: they square the condition number of
    P X, which on weak-anchor designs costs more than the 1e-9 the tests
    allow. Raises Underidentified when rank(P X) < d relative to ||X||_2.
    """
    ds = center(ds)
    x_proj, y_proj = _qr_project(ds, ds.X), _qr_project(ds, ds.Y)
    sv = np.linalg.svd(x_proj, compute_uv=False)
    scale = max(float(np.linalg.norm(ds.X, ord=2)), 1e-300)
    if int(np.sum(sv > numkern.RANK_RTOL * scale)) < ds.d:
        raise Underidentified("rank(P X) < d")
    return qr_lstsq(x_proj, y_proj)


# --- population oracle from covariance blocks ------------------------------

# Singular values of a covariance block below this fraction of its own
# largest one are dropped by the reference rank test.
COVARIANCE_RANK_RTOL = 1e-9


def svd_rule_inverse(B):
    """(Id - B)^{-1} as a model was validated by the full SVD: DomainError
    when the smallest singular value of Id - B is at most 1e-10, else
    np.linalg.inv, which may still raise LinAlgError."""
    system = np.eye(len(B)) - B
    if np.linalg.svd(system, compute_uv=False).min() <= 1e-10:
        raise DomainError("Id - B is numerically singular")
    return np.linalg.inv(system)


def sink_peel_acyclic(B):
    """Acyclicity of B's graph by peeling sinks from a list of nodes, with
    self-cycles (diagonal entries) ignored."""
    adj = np.asarray(B) != 0
    np.fill_diagonal(adj, False)
    remaining = list(range(len(adj)))
    while remaining:
        sinks = [k for k in remaining if not adj[:, k][remaining].any()]
        if not sinks:
            return False
        for k in sinks:
            remaining.remove(k)
    return True


def population_covariance(model):
    """Exact joint covariance of (X, Y, H, A), in that block order."""
    inv = model.unmixing()
    gram = model.anchor.second_moment()
    sigma_v = inv @ (model.noise_covariance() + model.M @ gram @ model.M.T) @ inv.T
    cross = inv @ model.M @ gram  # Cov((X,Y,H), A)
    top = np.hstack([sigma_v, cross])
    bottom = np.hstack([cross.T, gram])
    return np.vstack([top, bottom])


def covariance_blocks(model):
    """Sigma_xx, Sigma_xy, Cov(A, X), Cov(A, Y) and E[AA'] of a LinearScm."""
    joint = population_covariance(model)
    d, p = model.d, model.p
    return joint[:d, :d], joint[:d, d], joint[p:, :d], joint[p:, d], model.anchor.second_moment()


def covariance_rank(mat):
    """Rank relative to the block's own largest singular value."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > COVARIANCE_RANK_RTOL * sv[0]))


def covariance_population_anchor(model, gamma):
    """Population coefficient from Sigma + (gamma - 1) Cov(.,A) G^-1 Cov(A,.)."""
    if gamma == math.inf:
        return covariance_population_iv(model)
    sxx, sxy, sax, say, gram = covariance_blocks(model)
    gram_inv_ax = np.linalg.solve(gram, sax)
    lhs = sxx + (gamma - 1.0) * sax.T @ gram_inv_ax
    rhs = sxy + (gamma - 1.0) * gram_inv_ax.T @ say
    return numkern.solve_spd(lhs, rhs)


def null_space_constrained_min(sxx, sxy, sax, say):
    """Minimum of b'Sxx b - 2b'Sxy subject to Sax b = Say: an lstsq
    particular solution plus a step in the SVD null space of Sax."""
    if covariance_rank(sax) != covariance_rank(np.column_stack([sax, say])):
        raise ProjectabilityViolated("constraint system E[A(Y - X'b)] = 0 infeasible")
    particular, *_ = np.linalg.lstsq(sax, say, rcond=None)
    _, sv, vt = np.linalg.svd(sax)
    rank = int(np.sum(sv > COVARIANCE_RANK_RTOL * (sv[0] if sv.size else 1.0)))
    null = vt[rank:].T
    if null.shape[1] == 0:
        return particular
    reduced = null.T @ sxx @ null
    z = numkern.solve_spd(reduced, null.T @ (sxy - sxx @ particular))
    return particular + null @ z


def covariance_population_iv(model):
    sxx, sxy, sax, say, _ = covariance_blocks(model)
    return null_space_constrained_min(sxx, sxy, sax, say)


def structural_worst_case_risk(model, b, gamma):
    """w' Sigma_eps w + gamma (M'w)' E[AA'] (M'w) with the residual weights
    w, as `worst_case_risk` computed it before it read the moments."""
    w = model.residual_weights(b)
    mw = model.M.T @ w
    return float(w @ model.noise_covariance() @ w) + gamma * float(
        mw @ model.anchor.second_moment() @ mw
    )


def loop_worst_case_report(model, pset, points, coefs):
    """`batteries._worst_case_report` one coefficient vector at a time."""
    exact, inside, grid = [], [], []
    for b in coefs:
        w = model.residual_weights(b)
        risk = worst_case_risk(model, b, pset.gamma)
        qw = pset.bound @ w
        energy = float(w @ qw)
        v_star = qw / np.sqrt(energy) if energy > 0.0 else np.zeros_like(qw)
        at_star = shift_risk(model, b, Shift(vector=v_star))
        exact.append(abs(at_star - risk) / max(abs(risk), 1e-300))
        inside.append(pset.contains(v_star))
        grid.append(shift_risk(model, b) + float(np.max((points @ w) ** 2)) - risk)
    return {
        "passed": max(exact) <= 1e-12 and all(inside) and max(grid) <= 1e-8,
        "exact_gap": max(exact),
        "min_gap": min(grid),
        "max_gap": max(grid),
    }


def loop_stability_chain(seed=0, n_models=50, n_shifts=100):
    """`batteries.check_stability_chain` scoring one shift at a time: the
    anchor loading |w'v| / (||w|| ||v||) of b_zero's residual weights w."""
    rng = numkern.make_rng(seed)
    gamma_grid = np.geomspace(1e-3, 1e3, 25)
    worst_end, worst_path, worst_effect, worst_load = 0.0, 0.0, 0.0, 0.0
    for _ in range(n_models):
        model = random_stable_scm(rng, d=int(rng.integers(1, 4)))
        report = anchor_stability_causal_check(model, gamma_grid)
        worst_end = max(worst_end, report["endpoint_gap"])
        worst_path = max(worst_path, report["path_gap"])
        worst_effect = max(worst_effect, report.get("effect_gap", math.inf))
        w = model.residual_weights(report["b_zero"])
        for _ in range(n_shifts):
            v = model.M @ rng.uniform(-3.0, 3.0, size=model.q)
            loading = abs(w @ v) / (np.linalg.norm(w) * np.linalg.norm(v))
            worst_load = max(worst_load, loading)
    return {
        "name": "stability_chain",
        "passed": (
            worst_end < 1e-8
            and worst_path < 1e-7
            and worst_effect < 1e-8
            and worst_load <= 1e-12
        ),
        "max_endpoint_gap": worst_end,
        "max_path_gap": worst_path,
        "max_effect_gap": worst_effect,
        "max_anchor_loading": worst_load,
    }


def covariance_side_blocks(model, anchor, kappa, xi_cov, noise_cov):
    """(Sxx, Sxy, Sax, Say) of one replicability side, anchor input
    kappa * A + xi."""
    gram = anchor.second_moment()
    q = gram.shape[0]
    delta_cov = kappa**2 * gram
    if xi_cov is not None:
        delta_cov = delta_cov + np.asarray(xi_cov, float).reshape(q, q)
    inv = model.unmixing()
    sigma_v = inv @ (noise_cov + model.M @ delta_cov @ model.M.T) @ inv.T
    cross = kappa * gram @ model.M.T @ inv.T
    d = model.d
    return sigma_v[:d, :d], sigma_v[:d, d], cross[:, :d], cross[:, d]


def covariance_replicability(scen):
    """(b_train, b_test) of a ReplicabilityScenario from covariance blocks."""
    model = scen.base
    train_noise = model.noise_covariance()
    if scen.test_noise_scales is not None:
        test_noise = np.diag(np.asarray(scen.test_noise_scales, float) ** 2)
    else:
        test_noise = scen.noise_factor * train_noise
    test_anchor = scen.test_anchor if scen.test_anchor is not None else model.anchor
    train = covariance_side_blocks(model, model.anchor, scen.kappa, scen.xi_cov, train_noise)
    test = covariance_side_blocks(model, test_anchor, scen.kappa_test, scen.xi_cov_test, test_noise)
    return null_space_constrained_min(*train), null_space_constrained_min(*test)


def whitened_projectability(model_or_ds):
    """Rank test on Cov(A, X) against [Cov(A, X) Cov(A, Y)], and the lstsq
    minimum of ||G^-1/2 (Cov(A, Y) - Cov(A, X) b)||^2, from exact covariances
    of a LinearScm or hand-centred sample covariances of a dataset."""
    if isinstance(model_or_ds, LinearScm):
        _, _, sax, say, gram = covariance_blocks(model_or_ds)
    else:
        ds = model_or_ds
        x = ds.X - ds.X.mean(axis=0)
        y = ds.Y - ds.Y.mean()
        A = ds.anchor_matrix()
        a = A - A.mean(axis=0)
        sax, say, gram = a.T @ x / ds.n, a.T @ y / ds.n, a.T @ a / ds.n
    holds = covariance_rank(sax) == covariance_rank(np.column_stack([sax, say]))
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > COVARIANCE_RANK_RTOL * max(float(vals.max()), 1e-300)
    white = vecs[:, keep] / np.sqrt(vals[keep])
    wax, way = white.T @ sax, white.T @ say
    sol, *_ = np.linalg.lstsq(wax, way, rcond=None)
    resid = way - wax @ sol
    return {"holds": bool(holds), "penalty_min": float(resid @ resid)}


def level_rows(codes, labels):
    """Each label's row indices, one pass over the codes per label: the
    level-set dict that datasets stored before `anchor_levels` was derived
    from the codes."""
    return {label: np.flatnonzero(codes == j) for j, label in enumerate(labels)}


def fresh_array_sample(model, n, rng, shift=None):
    """(X, Y, A, level codes) of `scm.sample`'s draw, each step into an array
    of its own: the scaled noise, the noise plus the anchor input, the shift
    vector or the drawn covariance shift, and the mix of those inputs. Codes
    number the drawn levels in ascending order."""
    inv = model.unmixing()
    noise = rng.standard_normal((n, model.p)) * model.noise_scales
    a_vals, labels = model.anchor.draw(rng, n)
    if shift is None:
        inputs = noise + a_vals @ model.M.T
    elif shift.vector is not None:
        inputs = noise + shift.vector
    else:
        cov = shift.covariance
        chol = np.linalg.cholesky(cov + 1e-15 * np.eye(model.p) * max(np.trace(cov), 1.0))
        inputs = noise + rng.standard_normal((n, model.p)) @ chol.T
    values = inputs @ inv.T
    codes = None if labels is None else np.unique(labels, return_inverse=True)[1]
    return values[:, : model.d], values[:, model.y_index], a_vals, codes


def subset_rows(ds, rows):
    """Row subset with anchor level bookkeeping rebuilt: levels left without
    rows are dropped and the codes of the rest renumbered in label order;
    centering is reset."""
    rows = np.asarray(rows, dtype=int)
    codes = labels = None
    if ds.level_codes is not None:
        kept = np.asarray(ds.level_codes)[rows]
        present = np.zeros(len(ds.level_labels), dtype=bool)
        present[kept] = True
        codes = (np.cumsum(present) - 1)[kept]
        labels = tuple(label for label, hit in zip(ds.level_labels, present) if hit)
    return AnchorDataset(
        X=ds.X[rows],
        Y=ds.Y[rows],
        A=None if ds.A is None else ds.A[rows],
        predictor_names=ds.predictor_names,
        level_codes=codes,
        level_labels=labels,
    )


def cv_gamma(ds, alphas, gamma_grid, folds=5, lam=None, seed=0):
    """Grouped cross-validation that copies each fold into a training and a
    held-out dataset with `subset_rows` and scores the held-out copy with
    `conditional_mse_quantiles`."""
    if ds.anchor_levels is None or len(ds.anchor_levels) < 2:
        raise InsufficientLevels("need at least two anchor levels")
    if folds < 2:
        raise InsufficientLevels("need at least two folds")
    alphas = tuple(float(a) for a in np.atleast_1d(alphas))
    gamma_grid = tuple(float(g) for g in np.atleast_1d(gamma_grid))
    fold_of_level = assign_level_folds(ds.anchor_levels, folds, seed)
    sums = np.zeros((len(alphas), len(gamma_grid)))
    for fold in range(folds):
        test_levels = [lab for lab, f in fold_of_level.items() if f == fold]
        train_levels = [lab for lab, f in fold_of_level.items() if f != fold]
        assert not set(test_levels) & set(train_levels)
        test_rows = np.concatenate([ds.anchor_levels[lab] for lab in test_levels])
        train_rows = np.concatenate([ds.anchor_levels[lab] for lab in train_levels])
        train = center(subset_rows(ds, np.sort(train_rows)))
        test = subset_rows(ds, np.sort(test_rows))
        for j, gamma in enumerate(gamma_grid):
            if lam is not None and lam > 0:
                fit = fit_anchor_lasso(train, gamma, lam)
            else:
                fit = fit_anchor(train, gamma)
            report = conditional_mse_quantiles(test, fit, alphas)
            sums[:, j] += np.array(report.quantiles)
        del train, test
    curves = sums / folds
    selected = {
        alpha: gamma_grid[int(np.argmin(curves[i]))] for i, alpha in enumerate(alphas)
    }
    return GammaCvResult(
        gamma_grid=gamma_grid,
        alphas=alphas,
        curves=curves,
        selected=selected,
        fold_of_level=fold_of_level,
    )


def groupwise_means(values, groups):
    """Per-row group means of `values` (1-d), an oracle for dummy projection."""
    out = np.empty_like(values, dtype=float)
    for g in np.unique(groups):
        mask = groups == g
        out[mask] = values[mask].mean()
    return out


def chi2_1_cdf(x):
    """CDF of the chi-squared distribution with 1 df."""
    if x <= 0.0:
        return 0.0
    return math.erf(math.sqrt(x / 2.0))


def chi2_1_quantile_bisection(alpha, tol=1e-12):
    """Quantile of chi-squared with 1 dof by bisection on the erf-based CDF."""
    from math import erf, sqrt

    def cdf(x):
        return erf(sqrt(x / 2.0))

    lo, hi = 0.0, 1.0
    while cdf(hi) < alpha:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def d_separated_bruteforce(parents, first, second, given):
    """Trail enumeration over all simple undirected paths.

    `parents` is a list of parent lists over node ids. Two sets are
    d-separated given a conditioning set iff no connecting trail is active.
    """
    n = len(parents)
    children = [[] for _ in range(n)]
    for node, pars in enumerate(parents):
        for par in pars:
            children[par].append(node)
    given = set(given)

    ancestors_of_given = set(given)
    frontier = list(given)
    while frontier:
        node = frontier.pop()
        for par in parents[node]:
            if par not in ancestors_of_given:
                ancestors_of_given.add(par)
                frontier.append(par)

    def neighbors(node):
        yield from parents[node]
        yield from children[node]

    def trail_active(path):
        # internal triples: non-colliders blocked by conditioning, colliders
        # open only with a conditioned descendant
        for i in range(1, len(path) - 1):
            prev_node, node, next_node = path[i - 1], path[i], path[i + 1]
            prev_to_node = prev_node in parents[node]
            next_to_node = next_node in parents[node]
            collider = prev_to_node and next_to_node
            if collider:
                if node not in ancestors_of_given:
                    return False
            else:
                if node in given:
                    return False
        return True

    def any_active_trail(src, dst):
        stack = [[src]]
        while stack:
            path = stack.pop()
            for nxt in neighbors(path[-1]):
                if nxt in path:
                    continue
                new_path = path + [nxt]
                if nxt == dst:
                    if trail_active(new_path):
                        return True
                else:
                    stack.append(new_path)
        return False

    for s in first:
        for t in second:
            if s == t:
                return False
            if s in given or t in given:
                continue
            if any_active_trail(s, t):
                return False
    return True


# --- Monte-Carlo risk scaling of the equal-weight lasso --------------------

def population_equal_weight_risk(model, b, gamma):
    """Equal-weight population risk for discrete anchors: every level of A
    contributes with weight 1/k regardless of its probability."""
    if model.anchor.kind != "discrete":
        raise DomainError("equal-weight risk requires a discrete anchor")
    level_means = model.anchor.levels @ (model.M.T @ model.residual_weights(b))
    return shift_risk(model, b) + gamma * float(np.mean(level_means**2))


def excess_risk_scaling(model, gamma, n_grid, replicates, seed=0, lam_scale=1.0):
    """Log-log slope of population excess equal-weight risk against n_min.

    For each n, fits the equal-weight lasso with lam proportional to
    sqrt((log d + log k)/n_min) and evaluates the population excess risk
    through the model oracle; returns the regression slope over the grid.
    """
    if replicates < 1:
        raise InvalidConfig("replicates must be positive")
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2:
        raise InvalidConfig("need at least two sample sizes")
    target = population_anchor(model, gamma)
    base_risk = population_equal_weight_risk(model, target, gamma)
    rng = numkern.make_rng(seed)
    log_n, log_excess = [], []
    mean_excess = []
    for n in n_grid:
        excesses = []
        for _ in range(replicates):
            ds = sample(model, n, rng)
            n_min = min(len(ix) for ix in ds.anchor_levels.values())
            k = len(ds.anchor_levels)
            lam_pop = lam_scale * np.sqrt((np.log(ds.d) + np.log(k)) / n_min)
            fit = fit_equal_weight_lasso(ds, gamma, n * lam_pop)
            excess = population_equal_weight_risk(model, fit.coef, gamma) - base_risk
            excesses.append(max(excess, 1e-15))
        log_n.append(np.log(n))
        mean = float(np.mean(excesses))
        mean_excess.append(mean)
        log_excess.append(np.log(mean))
    slope = float(np.polyfit(log_n, log_excess, 1)[0])
    return {
        "slope": slope,
        "n_grid": n_grid,
        "mean_excess": mean_excess,
    }

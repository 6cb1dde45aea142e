"""l1-penalized anchor regression via cyclic coordinate descent.

The penalized problem min ||Yt - Xt b||^2 + 2*lam*||b||_1 is solved on the
gamma-transformed data by soft-thresholded coordinate descent with
covariance updates, active-set sweeps and an exact finish on the active
set, with warm starts along the lambda grid. The equal-weight variant gives
every discrete anchor level the same weight regardless of its size; it
reduces to the same solver through row rescaling.

Note the penalty convention: the objective carries 2*lam*||b||_1, so lambda
values from halved conventions must be doubled before comparison.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numkern
from .datamodel import AnchorDataset, center, level_blocks
from .estimators import AnchorFit, fit_anchor, gamma_transform
from .exceptions import DomainError, InvalidConfig, NotPositiveDefinite

MAX_SWEEPS = 100_000
# stop when the largest coordinate move in a full sweep drops below
# CONVERGENCE_RTOL * std(transformed response)
CONVERGENCE_RTOL = 1e-9


def soft_threshold(z: float, threshold: float) -> float:
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


def lasso_coordinate_descent(
    design: np.ndarray,
    response: np.ndarray,
    lam: float,
    start: np.ndarray | None = None,
    max_sweeps: int = MAX_SWEEPS,
):
    """Cyclic coordinate descent for min ||y - Xb||^2 + 2*lam*||b||_1.

    Covariance updates (Friedman, Hastie & Tibshirani 2010): the gradient
    X'(y - Xb) is kept current from Gram columns X'x_k, each formed the first
    time coordinate k moves and kept for this call only, so memory grows with
    the number of coordinates that ever move, never as d^2. Each full sweep
    over all coordinates is followed by sweeps over its nonzero coordinates
    until they settle. The fit has converged when a full sweep moves every
    coordinate by less than CONVERGENCE_RTOL * std(response); the iterate is
    then replaced by the exact solution on its active set (`_exact_finish`).

    Returns (coef, sweeps, final_move, converged), where sweeps counts both
    kinds of sweep and final_move is the largest move of the last full
    sweep. Inactive coordinates are exact zeros. The objective is
    nonincreasing across sweeps.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float).ravel()
    d = design.shape[1]
    col_sq = np.einsum("ij,ij->j", design, design).tolist()
    b = np.zeros(d) if start is None else np.array(start, dtype=float)
    grad = design.T @ (response - design @ b)
    columns = {}
    # std(response) from the response scaled to a largest entry of 1: the
    # squares of a response below ~1e-154 underflow, and its std with them
    scale = float(np.max(np.abs(response), initial=0.0))
    spread = scale * float((response / scale).std()) if scale > 0.0 else 0.0
    tol = CONVERGENCE_RTOL * max(spread, 1e-300)

    def sweep(coords) -> float:
        move = 0.0
        for k in coords:
            sq = col_sq[k]
            if sq == 0.0:
                b[k] = 0.0
                continue
            old = b[k]
            new = soft_threshold(grad[k] + sq * old, lam) / sq
            if new != old:
                column = _gram_column(design, columns, k)
                np.subtract(grad, (new - old) * column, out=grad)
                b[k] = new
                move = max(move, abs(new - old))
        return move

    move = np.inf
    sweeps = 0
    while sweeps < max_sweeps:
        move = sweep(range(d))
        sweeps += 1
        if move < tol:
            return _exact_finish(design, response, lam, b, columns), sweeps, move, True
        active = np.flatnonzero(b).tolist()
        while active and sweeps < max_sweeps:
            sweeps += 1
            if sweep(active) < tol:
                break
    return b, sweeps, move, False


def _gram_column(design, columns: dict, k: int) -> np.ndarray:
    """X'x_k, formed on first use and kept in `columns`."""
    column = columns.get(k)
    if column is None:
        column = columns[k] = design.T @ design[:, k]
    return column


def _exact_finish(design, response, lam, b, columns):
    """The lasso solution on b's active set S with b's signs s, if it is one.

    Solves X_S'X_S b_S = X_S'y - lam*s from the Gram columns of S and
    X'y. The result is returned only when its signs are s and every
    coordinate outside S keeps |X'(y - Xb)| <= lam, that is when it
    satisfies the stationarity conditions; otherwise b is. Nothing is read
    from the descent's running gradient, so the result does not depend on
    the path the descent took to S. No n x |S| copy of the design is made.
    """
    active = np.flatnonzero(b)
    if active.size == 0:
        return b
    signs = np.sign(b[active])
    gram = np.stack([_gram_column(design, columns, k)[active] for k in active])
    try:
        exact = numkern.solve_spd(gram, (design.T @ response)[active] - lam * signs)
    except NotPositiveDefinite:
        return b
    out = np.zeros_like(b)
    out[active] = exact
    grad = design.T @ (response - design @ out)
    grad[active] = 0.0
    if not (np.array_equal(np.sign(exact), signs) and np.all(np.abs(grad) <= lam)):
        return b
    return out


def lambda_max(ds: AnchorDataset, gamma: float) -> float:
    """Smallest lambda with an all-zero solution: ||Xt' Yt||_inf.

    Padded by a relative 1e-12 so the zero solution survives rounding in the
    correlation recomputation inside the solver.
    """
    _require_finite_gamma(gamma)
    xt, yt = gamma_transform(ds, gamma)
    return float(np.max(np.abs(xt.T @ yt))) * (1.0 + 1e-12)


def _require_finite_gamma(gamma: float) -> None:
    if gamma == math.inf:
        raise DomainError("the l1-penalized fit needs a finite gamma")


def _finish_fit(ds, gamma, lam, design, response, b, sweeps, move, converged):
    if not converged:
        warnings.warn(
            f"coordinate descent stopped after {sweeps} sweeps "
            f"(last full-sweep move {move:.3e}); returning best iterate",
            RuntimeWarning,
        )
    resid = response - design @ b
    objective = float(resid @ resid + 2.0 * lam * np.abs(b).sum())
    return AnchorFit(
        gamma=float(gamma),
        lam=float(lam),
        coef=b,
        objective=objective,
        iterations=sweeps,
        converged=converged,
        x_means=ds.x_means,
        y_mean=ds.y_mean,
        predictor_names=ds.predictor_names,
    )


def fit_anchor_lasso(
    ds: AnchorDataset,
    gamma: float,
    lam: float,
    start: np.ndarray | None = None,
) -> AnchorFit:
    """Solve the transformed lasso min ||Yt - Xt b||^2 + 2*lam*||b||_1.

    The one choice of solver: lam = 0 is `fit_anchor`'s exact solve (which
    raises SingularDesign when n <= d) and ignores `start`.
    """
    if not (gamma >= 0 and lam >= 0):
        raise DomainError("gamma and lambda must be nonnegative")
    if lam == 0.0:
        return fit_anchor(ds, gamma)
    ds = center(ds)
    _require_finite_gamma(gamma)
    xt, yt = gamma_transform(ds, gamma)
    b, sweeps, move, converged = lasso_coordinate_descent(xt, yt, lam, start)
    return _finish_fit(ds, gamma, lam, xt, yt, b, sweeps, move, converged)


@dataclass(frozen=True)
class LambdaPath:
    """Warm-started solutions along a decreasing lambda grid."""

    lambdas: np.ndarray
    fits: tuple
    active_sizes: tuple


def lambda_path(
    ds: AnchorDataset,
    gamma: float,
    n_lambdas: int = 50,
    ratio: float = 1e-3,
) -> LambdaPath:
    """Log-spaced grid from lambda_max down to ratio * lambda_max."""
    if n_lambdas < 2:
        raise InvalidConfig("n_lambdas must be at least 2")
    if not 0.0 < ratio < 1.0:
        raise InvalidConfig("ratio must lie in (0, 1)")
    ds = center(ds)
    top = lambda_max(ds, gamma)
    grid = top * np.exp(np.linspace(0.0, np.log(ratio), n_lambdas))
    xt, yt = gamma_transform(ds, gamma)
    fits = []
    warm = None
    for lam in grid:
        b, sweeps, move, converged = lasso_coordinate_descent(xt, yt, lam, warm)
        fits.append(_finish_fit(ds, gamma, lam, xt, yt, b, sweeps, move, converged))
        warm = b
    return LambdaPath(
        lambdas=grid,
        fits=tuple(fits),
        active_sizes=tuple(int(np.count_nonzero(f.coef)) for f in fits),
    )


@dataclass(frozen=True)
class EqualWeightRisk:
    """Per-level breakdown of the equal-weight objective."""

    counts: tuple
    within_moments: tuple  # mean squared within-level-centered residual
    level_means: tuple  # mean residual per level
    gamma: float

    @property
    def value(self) -> float:
        k = len(self.counts)
        within = sum(self.within_moments) / k
        between = self.gamma * sum(m * m for m in self.level_means) / k
        return within + between


def equal_weight_breakdown(ds: AnchorDataset, b: np.ndarray, gamma: float) -> EqualWeightRisk:
    blocks = level_blocks(ds)
    resid = ds.Y - ds.X @ np.asarray(b, dtype=float)
    counts, within, means = [], [], []
    for _, idx in blocks:
        r = resid[idx]
        mean = float(r.mean())
        counts.append(idx.size)
        means.append(mean)
        within.append(float(np.mean((r - mean) ** 2)))
    return EqualWeightRisk(
        counts=tuple(counts),
        within_moments=tuple(within),
        level_means=tuple(means),
        gamma=float(gamma),
    )


def equal_weight_objective(ds: AnchorDataset, b: np.ndarray, gamma: float) -> float:
    """Equal-weight empirical risk: every anchor level counts the same."""
    return equal_weight_breakdown(ds, b, gamma).value


def _equal_weight_design(ds: AnchorDataset, gamma: float):
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


def fit_equal_weight_lasso(ds: AnchorDataset, gamma: float, lam: float) -> AnchorFit:
    """Minimize n * equal-weight risk + 2*lam*||b||_1 by coordinate descent."""
    if not (gamma >= 0 and lam >= 0):
        raise DomainError("gamma and lambda must be nonnegative")
    _require_finite_gamma(gamma)
    ds = center(ds)
    design, response = _equal_weight_design(ds, gamma)
    b, sweeps, move, converged = lasso_coordinate_descent(design, response, lam)
    return _finish_fit(ds, gamma, lam, design, response, b, sweeps, move, converged)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    norm = np.abs(v).sum()
    if norm <= radius:
        return v
    if radius <= 0.0:
        return np.zeros_like(v)
    # Duchi et al. simplex projection applied to |v|
    u = np.sort(np.abs(v))[::-1]
    cumsum = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (cumsum - radius))[0][-1]
    theta = (cumsum[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


def anchor_compatibility(
    ds: AnchorDataset,
    gamma: float,
    active: np.ndarray,
    stretch: float = 8.0,
    restarts: int = 50,
    iterations: int = 400,
    seed: int = 0,
) -> float:
    """Heuristic lower bound on the restricted-eigenvalue-type constant.

    Minimizes |S| b' G b over the cone {||b_S||_1 = 1, ||b_-S||_1 <= L} by
    projected subgradient descent with random restarts, where G pools the
    per-level second-moment matrices with equal level weights; the reported
    value is min(gamma, 1) times the best cone value found. This is a
    search-based bound, not a certificate, and is never used inside
    estimation.
    """
    active = np.asarray(active, dtype=int)
    if active.size == 0:
        raise DomainError("active set must be nonempty")
    ds = center(ds)
    blocks = level_blocks(ds)
    k = len(blocks)
    gram = np.zeros((ds.d, ds.d))
    for _, idx in blocks:
        xa = ds.X[idx]
        gram += xa.T @ xa / idx.size
    gram /= k
    rest = np.setdiff1d(np.arange(ds.d), active)
    lip = max(float(np.linalg.eigvalsh(gram).max()), 1e-12)
    rng = numkern.make_rng(seed)

    def cone_project(b):
        s_norm = np.abs(b[active]).sum()
        if s_norm < 1e-12:
            b[active] = 1.0 / active.size
            s_norm = 1.0
        b[active] /= s_norm
        if rest.size:
            b[rest] = _project_l1_ball(b[rest], stretch)
        return b

    best = np.inf
    for _ in range(restarts):
        b = rng.standard_normal(ds.d)
        b = cone_project(b)
        for it in range(iterations):
            step = 1.0 / (lip * (1.0 + it / 50.0))
            b = cone_project(b - step * 2.0 * (gram @ b))
        value = active.size * float(b @ gram @ b)
        best = min(best, value)
    return min(gamma, 1.0) * best


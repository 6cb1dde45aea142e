"""l1-penalized anchor regression via cyclic coordinate descent.

The penalized problem min ||Yt - Xt b||^2 + 2*lam*||b||_1 on the
gamma-transformed data is b'Gb - 2b'g + 2*lam*||b||_1 + const, with
G = G_off + gamma G_on and g = g_off + gamma g_on read from the dataset's
second moments off and on the anchor span (`AnchorDataset.gram_columns`),
shared by every gamma. It is solved by soft-thresholded coordinate descent
with covariance updates, active-set sweeps and an exact finish on the active
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
from .estimators import AnchorFit, fit_anchor
from .exceptions import DomainError, InvalidConfig, NotPositiveDefinite

MAX_SWEEPS = 100_000
# stop when no coordinate of a full sweep moves the fitted values, by
# ||x_k|| times the change of b_k, as much as CONVERGENCE_RTOL * ||y - mean(y)||.
# On columns of unit root mean square that is a coefficient move below
# CONVERGENCE_RTOL * std(y); measured in fitted values, the rule does not stop
# early on columns of large norm, whose coefficients are small.
CONVERGENCE_RTOL = 1e-9


def soft_threshold(z: float, threshold: float) -> float:
    if z > threshold:
        return z - threshold
    if z < -threshold:
        return z + threshold
    return 0.0


class _DesignGram:
    """G = X'X and g = X'y of an n-row design, G a column at a time: X'x_k
    is formed on first use and kept in `columns` (a new dict by default)."""

    def __init__(self, design, response, columns=None):
        self._design = design = np.asarray(design, dtype=float)
        response = np.asarray(response, dtype=float).ravel()
        self._columns = {} if columns is None else columns
        self.linear = design.T @ response
        self.diag = np.einsum("ij,ij->j", design, design)
        # ||y - mean(y)|| from the response scaled to a largest entry of 1:
        # the squares of a response below ~1e-154 underflow
        scale = float(np.max(np.abs(response), initial=0.0))
        unit = response / scale if scale > 0.0 else response
        self.spread = scale * float(np.linalg.norm(unit - unit.mean()))

    def column(self, k: int) -> np.ndarray:
        column = self._columns.get(k)
        if column is None:
            column = self._columns[k] = self._design.T @ self._design[:, k]
        return column


class _AnchorGram:
    """G = G_off + gamma G_on and g = g_off + gamma g_on of a centred dataset,
    restricted to its predictors, from `ds.gram_columns`: the columns of both
    blocks are shared by every gamma, and their combinations kept for this one."""

    def __init__(self, ds: AnchorDataset, gamma: float):
        _require_finite_gamma(gamma)
        self._moments = ds.gram_columns
        self._gamma = gamma
        self._columns = {}
        off, on = self._moments.column(ds.d)
        response = off + gamma * on
        self.linear = response[:-1]
        diag_off, diag_on = self._moments.diagonals
        self.diag = (diag_off + gamma * diag_on)[:-1]
        # the transformed response has mean zero
        self.spread = math.sqrt(max(float(response[-1]), 0.0))

    def column(self, k: int) -> np.ndarray:
        column = self._columns.get(k)
        if column is None:
            off, on = self._moments.column(k)
            column = self._columns[k] = (off + self._gamma * on)[:-1]
        return column

    def energy(self, b) -> float:
        """||Yt - Xt b||^2: the off-anchor plus gamma times the on-anchor energy."""
        off, on = numkern.residual_energy(self._moments, b)
        return off + self._gamma * on


def gram_coordinate_descent(gram, lam: float, start=None, max_sweeps: int = MAX_SWEEPS):
    """Cyclic coordinate descent for min b'Gb - 2b'g + 2*lam*||b||_1, which is
    ||y - Xb||^2 + 2*lam*||b||_1 up to a constant when G = X'X and g = X'y.

    `gram` supplies g (`linear`), the diagonal of G (`diag`), G a column at a
    time (`column(k)`) and ||y - mean(y)|| (`spread`). Covariance updates
    (Friedman, Hastie & Tibshirani 2010): the gradient g - Gb is kept current
    from the column of each coordinate that moves. After each full sweep over
    all coordinates the iterate is replaced by the exact solution on its
    active set (`_finish_on`) when that solution is stationary, which ends
    the fit; otherwise sweeps over the nonzero coordinates follow until they
    settle. The fit has also converged when no coordinate of a full sweep
    moves the fitted values by CONVERGENCE_RTOL * spread or more.

    Returns (coef, sweeps, final_move, converged), where sweeps counts both
    kinds of sweep and final_move is the largest such move of the last full
    sweep: ||x_k|| times the change of b_k. Inactive coordinates are exact
    zeros. The objective is nonincreasing across sweeps.
    """
    d = gram.linear.shape[0]
    col_sq = gram.diag.tolist()
    norms = np.sqrt(gram.diag).tolist()
    b = np.zeros(d) if start is None else np.array(start, dtype=float)
    grad = gram.linear.copy()
    for k in np.flatnonzero(b):
        np.subtract(grad, b[k] * gram.column(k), out=grad)
    tol = CONVERGENCE_RTOL * max(gram.spread, 1e-300)

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
                np.subtract(grad, (new - old) * gram.column(k), out=grad)
                b[k] = new
                move = max(move, abs(new - old) * norms[k])
        return move

    move = np.inf
    sweeps = 0
    while sweeps < max_sweeps:
        move = sweep(range(d))
        sweeps += 1
        exact = _finish_on(gram, lam, b)
        if exact is not b or move < tol:
            return exact, sweeps, move, True
        active = np.flatnonzero(b).tolist()
        while active and sweeps < max_sweeps:
            sweeps += 1
            if sweep(active) < tol:
                break
    return b, sweeps, move, False


def lasso_coordinate_descent(
    design: np.ndarray,
    response: np.ndarray,
    lam: float,
    start: np.ndarray | None = None,
    max_sweeps: int = MAX_SWEEPS,
):
    """`gram_coordinate_descent` for min ||y - Xb||^2 + 2*lam*||b||_1 on an
    n-row design. Gram columns X'x_k are formed the first time coordinate k
    moves and kept for this call only, so memory grows with the number of
    coordinates that ever move, never as d^2."""
    return gram_coordinate_descent(_DesignGram(design, response), lam, start, max_sweeps)


def _exact_finish(design, response, lam, b, columns):
    """`_finish_on` for an n-row design, its Gram columns kept in `columns`."""
    return _finish_on(_DesignGram(design, response, columns), lam, b)


def _finish_on(gram, lam, b):
    """The lasso solution on b's active set S with b's signs s, if it is one.

    Solves G_SS b_S = g_S - lam*s from the columns of S. The result is
    returned only when its signs are s and every coordinate outside S keeps
    |g - Gb| <= lam, that is when it satisfies the stationarity conditions;
    otherwise b is. Nothing is read from the descent's running gradient, and
    from b only S and s, so the result does not depend on the path the
    descent took to S.

    A singular G_SS means linearly dependent columns in S. Along a null
    vector v of G_SS the quadratic part is flat, so b_S first moves along v,
    in the direction that does not raise ||b||_1, until a coordinate reaches
    zero; S drops it and the solve is tried again. Only then is b read
    beyond S and s. Of many solutions, this returns one whose active
    columns are independent.
    """
    point = b
    while True:
        active = np.flatnonzero(point)
        if active.size == 0:
            return b
        signs = np.sign(point[active])
        columns = np.stack([gram.column(k) for k in active])
        try:
            exact = numkern.solve_spd(columns[:, active], gram.linear[active] - lam * signs)
            break
        except NotPositiveDefinite:
            point = _null_step(columns[:, active], point, active, signs)
    grad = gram.linear - exact @ columns
    grad[active] = 0.0
    if not (np.array_equal(np.sign(exact), signs) and np.all(np.abs(grad) <= lam)):
        return b
    out = np.zeros_like(b)
    out[active] = exact
    return out


def _null_step(gram_ss, point, active, signs):
    """point moved along a null vector v of gram_ss, oriented so that
    s'v <= 0, until its first active coordinate reaches zero."""
    v = np.linalg.eigh(gram_ss)[1][:, 0]
    if signs @ v > 0.0:
        v = -v
    # with s'v <= 0 and v != 0, some coordinate shrinks toward zero
    shrinking = np.flatnonzero(signs * v < 0.0)
    steps = -point[active[shrinking]] / v[shrinking]
    first = int(np.argmin(steps))
    point = point.copy()
    point[active] += steps[first] * v
    point[active[shrinking[first]]] = 0.0
    return point


def lambda_max(ds: AnchorDataset, gamma: float) -> float:
    """Smallest lambda with an all-zero solution: ||g||_inf, with
    g = Xt' Yt = g_off + gamma g_on.

    Padded by a relative 1e-12 so the zero solution survives rounding in the
    correlation recomputation inside the solver.
    """
    gram = _AnchorGram(center(ds), gamma)
    return float(np.max(np.abs(gram.linear))) * (1.0 + 1e-12)


def _require_finite_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise DomainError(f"gamma must be nonnegative, got {gamma}")
    if gamma == math.inf:
        raise DomainError("the l1-penalized fit needs a finite gamma")


def _finish_fit(ds, gamma, lam, energy, b, sweeps, move, converged):
    """The fit at b, whose residual energy ||Yt - Xt b||^2 is `energy`."""
    if not converged:
        warnings.warn(
            f"coordinate descent stopped after {sweeps} sweeps "
            f"(last full-sweep move {move:.3e}); returning best iterate",
            RuntimeWarning,
        )
    objective = energy + 2.0 * lam * float(np.abs(b).sum())
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
    gram = _AnchorGram(ds, gamma)
    b, sweeps, move, converged = gram_coordinate_descent(gram, lam, start)
    return _finish_fit(ds, gamma, lam, gram.energy(b), b, sweeps, move, converged)


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
    gram = _AnchorGram(ds, gamma)
    fits = []
    warm = None
    for lam in grid:
        b, sweeps, move, converged = gram_coordinate_descent(gram, lam, warm)
        fits.append(_finish_fit(ds, gamma, lam, gram.energy(b), b, sweeps, move, converged))
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
    resid = response - design @ b
    return _finish_fit(ds, gamma, lam, float(resid @ resid), b, sweeps, move, converged)


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


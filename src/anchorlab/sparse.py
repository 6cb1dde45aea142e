"""l1-penalized anchor regression via feature-sign search.

The penalized problem min ||Yt - Xt b||^2 + 2*lam*||b||_1 on the
gamma-transformed data is b'Gb - 2b'g + 2*lam*||b||_1 + const, with
G = G_off + gamma G_on and g = g_off + gamma g_on read from second moments
of [X Y] off and on the anchor span, shared by every gamma. Every l1 fit
runs the one solver, `feature_sign` on an `_AnchorGram`: exact solves on
an active set with fixed signs, which a sign flip shrinks and the largest
gradient above lambda grows, in finitely many steps, with warm starts along
the lambda grid. The anchor lasso reads the dataset's moments
(`AnchorDataset.gram_columns`). The equal-weight variant gives every
discrete anchor level the same weight regardless of its size: it reads the
moments of [X Y] with each row scaled by sqrt(n / (k n_l)) and the level
means as the anchor span, whose energy is n times the equal-weight risk.

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

MAX_STEPS = 100_000


class _AnchorGram:
    """G = G_off + gamma G_on and g = g_off + gamma g_on restricted to the
    predictors, from a column source of [X Y] (`AnchorMoments` or
    `ColumnMoments`): the columns of both blocks are shared by every gamma,
    and their combinations kept for this one."""

    def __init__(self, columns, gamma: float):
        if not gamma >= 0:
            raise DomainError(f"gamma must be nonnegative, got {gamma}")
        if gamma == math.inf:
            raise DomainError("the l1-penalized fit needs a finite gamma")
        self._moments = columns
        self._gamma = gamma
        self._columns = {}
        diag_off, diag_on = columns.diagonals
        off, on = columns.column(len(diag_off) - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            response = off + gamma * on
            diag = diag_off + gamma * diag_on
        if not (np.isfinite(response).all() and np.isfinite(diag).all()):
            raise DomainError(f"gamma = {gamma:g} overflows G_off + gamma G_on")
        self.linear = response[:-1]

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


def feature_sign(gram, lam: float, start=None, max_steps: int = MAX_STEPS):
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) for
    min b'Gb - 2b'g + 2*lam*||b||_1, which is ||y - Xb||^2 + 2*lam*||b||_1 up
    to a constant when G = X'X and g = X'y.

    `gram` supplies g (`linear`) and G a column at a time (`column(k)`).
    Each step solves G_SS x = g_S - lam*s on the active set S with signs s,
    from the columns of S. When x keeps the signs s (at lam = 0, any signs)
    it becomes the iterate b; when a sign flips, b moves toward x as far as
    the first zero crossing, and that coordinate leaves S. After b = x, the
    inactive coordinate with the largest |g - Gb| above lam joins S with the
    sign of that gradient; when there is none, b is a solution.

    Linearly dependent columns in S, as when |S| exceeds the rank of G, show
    as a singular G_SS or as a coordinate that joined S and comes back from
    the solve with the wrong sign; b then takes a `_null_step`. Every step
    lowers the objective, so no b = x recurs in exact arithmetic; when one
    does in floating point, no step lowers the objective any further, and
    the fit has converged.

    Returns (coef, steps, converged), where steps counts the solves. The
    result is the last solve, which reads only S and s, so a warm start
    from `start` gives the same bits as a cold one. Inactive coordinates
    are exact zeros.
    """
    b = np.zeros(gram.linear.shape[0]) if start is None else np.array(start, dtype=float)
    joined = None  # the coordinate that joins S at zero, and its sign
    seen = set()
    steps = 0
    while steps < max_steps:
        active = np.flatnonzero(b)
        signs = np.sign(b[active])
        grow = None
        if joined is not None:
            grow = int(np.searchsorted(active, joined[0]))
            active = np.insert(active, grow, joined[0])
            signs = np.insert(signs, grow, joined[1])
            joined = None
        grad = gram.linear
        if active.size:
            steps += 1
            columns = np.stack([gram.column(k) for k in active])
            gram_ss = columns[:, active]
            try:
                exact = numkern.solve_spd(gram_ss, gram.linear[active] - lam * signs)
            except NotPositiveDefinite:
                exact = None
            if exact is None or (grow is not None and exact[grow] * signs[grow] <= 0.0):
                b = _null_step(gram_ss, b, active, signs)
                continue
            if lam > 0.0 and not np.array_equal(np.sign(exact), signs):
                b = _to_first_zero(b, active, signs, exact - b[active])
                continue
            b = np.zeros_like(b)
            b[active] = exact
            grad = gram.linear - exact @ columns
            grad[active] = 0.0
        key = (active.tobytes(), np.sign(b[active]).tobytes())
        if key in seen:
            return b, steps, True
        seen.add(key)
        k = int(np.argmax(np.abs(grad)))
        if not abs(grad[k]) > lam:
            return b, steps, True
        joined = (k, np.sign(grad[k]))
    return b, steps, False


def _to_first_zero(b, active, signs, direction):
    """b moved along `direction` on `active` until the first coordinate that
    moves against its sign reaches zero, which leaves the active set."""
    shrinking = np.flatnonzero(signs * direction < 0.0)
    steps = -b[active[shrinking]] / direction[shrinking]
    first = int(np.argmin(steps))
    out = np.zeros_like(b)
    out[active] = b[active] + steps[first] * direction
    out[active[shrinking[first]]] = 0.0
    return out


def _null_step(gram_ss, b, active, signs):
    """b moved along a null vector v of gram_ss, on which the quadratic part
    is flat, until a coordinate reaches zero; v is oriented so that s'v <= 0,
    which does not raise ||b||_1."""
    v = np.linalg.eigh(gram_ss)[1][:, 0]
    if signs @ v > 0.0:
        v = -v
    # with s'v <= 0 and v != 0, some coordinate shrinks toward zero
    return _to_first_zero(b, active, signs, v)


def lambda_max(ds: AnchorDataset, gamma: float) -> float:
    """Smallest lambda with an all-zero solution: ||g||_inf, with
    g = Xt' Yt = g_off + gamma g_on.

    Padded by a relative 1e-12 so the zero solution survives rounding in the
    correlation recomputation inside the solver.
    """
    gram = _AnchorGram(center(ds).gram_columns, gamma)
    return float(np.max(np.abs(gram.linear))) * (1.0 + 1e-12)


def _l1_fit(ds, gram, gamma, lam, start=None) -> AnchorFit:
    """The fit of `feature_sign` on `gram`, the Gram of the centred `ds` at
    this gamma."""
    b, steps, converged = feature_sign(gram, lam, start)
    if not converged:
        warnings.warn(
            f"feature-sign search stopped after {steps} steps; returning best iterate",
            RuntimeWarning,
        )
    return AnchorFit(
        gamma=float(gamma),
        lam=float(lam),
        coef=b,
        objective=gram.energy(b) + 2.0 * lam * float(np.abs(b).sum()),
        iterations=steps,
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
    return _l1_fit(ds, _AnchorGram(ds.gram_columns, gamma), gamma, lam, start)


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
    gram = _AnchorGram(ds.gram_columns, gamma)
    fits = []
    for lam in grid:
        warm = fits[-1].coef if fits else None
        fits.append(_l1_fit(ds, gram, gamma, lam, warm))
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


def _equal_weight_data(ds: AnchorDataset):
    """The level-mean projection and [X Y] of the centred `ds`, row i scaled
    by sqrt(n / (k n_l)) for its level l of k with n_l rows. Off the anchor
    span plus gamma times on it, a residual's energy is then n times its
    equal-weight risk."""
    blocks = level_blocks(ds)
    codes = np.empty(ds.n, dtype=np.intp)
    scale = np.empty(ds.n)
    for level, (_, idx) in enumerate(blocks):
        codes[idx] = level
        scale[idx] = math.sqrt(ds.n / (len(blocks) * idx.size))
    data = np.column_stack([ds.X, ds.Y])
    data *= scale[:, None]
    return numkern.AnchorProjection(None, codes), data


def fit_equal_weight_lasso(ds: AnchorDataset, gamma: float, lam: float) -> AnchorFit:
    """Minimize n * equal-weight risk + 2*lam*||b||_1 by feature-sign search
    on the level-reweighted moments, held as `AnchorDataset.gram_columns`
    holds them: whole when n > d, a column at a time otherwise."""
    if not (gamma >= 0 and lam >= 0):
        raise DomainError("gamma and lambda must be nonnegative")
    ds = center(ds)
    moments = numkern.anchor_moments if ds.n > ds.d else numkern.ColumnMoments
    gram = _AnchorGram(moments(*_equal_weight_data(ds)), gamma)
    return _l1_fit(ds, gram, gamma, lam)


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
    # the level-reweighted [X Y]'[X Y] is n times the pooled Gram
    moments = numkern.anchor_moments(*_equal_weight_data(ds))
    gram = (moments.gram_off + moments.gram_on)[: ds.d, : ds.d] / ds.n
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


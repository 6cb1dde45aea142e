"""l1-penalized anchor regression via feature-sign search.

The penalized problem min ||Yt - Xt b||^2 + 2*lam*||b||_1 on the
gamma-transformed data is b'Gb - 2b'g + 2*lam*||b||_1 + const, with
G = G_off + gamma G_on and g = g_off + gamma g_on read from second moments
of [X Y] off and on the anchor span, shared by every gamma. Every l1 fit
runs the one solver, `feature_sign` on an `_AnchorGram`: exact solves on
an active set with fixed signs, which a sign flip shrinks and the largest
gradient above lambda grows, in finitely many steps; a warm start (`start`)
gives the cold fit's bits. The anchor lasso reads the dataset's moments
(`AnchorDataset.gram_columns`). The equal-weight variant gives every
discrete anchor level the same weight regardless of its size: it reads the
moments of the dataset's `LevelSplit`, the level means as the anchor span,
with each level's rows scaled by sqrt(n / (k n_l)), whose energy is n times
the equal-weight risk.

Note the penalty convention: the objective carries 2*lam*||b||_1, so lambda
values from halved conventions must be doubled before comparison.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import numkern
from .datamodel import AnchorDataset, LevelSplit, center, level_counts
from .estimators import AnchorFit, fit_anchor
from .exceptions import DomainError, NotPositiveDefinite

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


def _equal_weight_columns(ds: AnchorDataset):
    """The moments of the centred `ds` with the level means as the anchor
    span and each row of [X Y] scaled by sqrt(n / (k n_l)) for its level l
    of k with n_l rows: the rows of its `LevelSplit`, so scaled. Off the
    anchor span plus gamma times on it, a residual's energy is then n times
    its equal-weight risk."""
    counts = level_counts(ds)  # EmptyLevel unless every level holds rows
    split = LevelSplit(ds)
    weight = np.sqrt(ds.n / (counts.size * counts))
    split.off *= weight[split.codes, None]
    return numkern.moment_source(ds.n, split.on * weight[:, None], split.off)


def fit_equal_weight_lasso(ds: AnchorDataset, gamma: float, lam: float) -> AnchorFit:
    """Minimize n * equal-weight risk + 2*lam*||b||_1, where the equal-weight
    risk averages over the k anchor levels each level's within-level mean
    squared residual plus gamma times its squared mean residual, by
    feature-sign search on the level-reweighted moments
    (`_equal_weight_columns`)."""
    if not (gamma >= 0 and lam >= 0):
        raise DomainError("gamma and lambda must be nonnegative")
    ds = center(ds)
    return _l1_fit(ds, _AnchorGram(_equal_weight_columns(ds), gamma), gamma, lam)

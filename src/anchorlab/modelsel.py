"""Quantile-based gamma selection, stability diagnostics and rankings.

Cross-validation here is grouped at anchor-level granularity: a level never
appears in both the training and the held-out part of a fold. Every fold
reads its training moments from one `LevelSplit` of the data, summed over
its training levels, with no row copied into a dataset of its own.
Empirical quantiles use the nearest-rank (type-1) rule throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern, sparse
from .datamodel import AnchorDataset, LevelSplit, center, level_blocks
from .estimators import AnchorFit, fit_anchor, predict
from .exceptions import DomainError, InsufficientLevels, Underidentified
from .scm import projectability_check


def _quantile_levels(alphas) -> tuple:
    """`alphas` as a tuple of floats; DomainError unless each lies in [0, 1]."""
    alphas = tuple(float(a) for a in np.atleast_1d(alphas))
    if not all(0.0 <= a <= 1.0 for a in alphas):  # NaN fails too
        raise DomainError(f"quantile levels must lie in [0, 1], got {alphas}")
    return alphas


def nearest_rank_quantile(values: np.ndarray, alpha: float) -> float:
    """Type-1 empirical quantile: the ceil(alpha * k)-th order statistic;
    DomainError unless alpha lies in [0, 1]."""
    (alpha,) = _quantile_levels(alpha)
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise DomainError("quantile of empty sample")
    rank = max(int(math.ceil(alpha * values.size)), 1)
    return float(values[rank - 1])


@dataclass(frozen=True)
class ConditionalMseReport:
    """Per-anchor-level mean squared residuals and their quantiles."""

    level_mse: dict
    alphas: tuple
    quantiles: tuple


def _residuals(ds: AnchorDataset, b) -> np.ndarray:
    if isinstance(b, AnchorFit):
        return ds.Y - predict(b, ds.X)
    return ds.Y - ds.X @ np.asarray(b, dtype=float).ravel()


def conditional_mse_quantiles(ds: AnchorDataset, b, alphas) -> ConditionalMseReport:
    """Level-wise MSE of the residuals plus nearest-rank quantiles over levels;
    DomainError unless each level in `alphas` lies in [0, 1]."""
    alphas = _quantile_levels(alphas)
    blocks = level_blocks(ds)
    resid = _residuals(ds, b)
    level_mse = {label: float(np.mean(resid[idx] ** 2)) for label, idx in blocks}
    values = np.array(list(level_mse.values()))
    quantiles = tuple(nearest_rank_quantile(values, a) for a in alphas)
    return ConditionalMseReport(level_mse=level_mse, alphas=alphas, quantiles=quantiles)


def assign_level_folds(labels, n_folds: int, seed: int = 0) -> dict:
    """Shuffle the level labels with the given seed, then deal them round-robin."""
    labels = sorted(labels)
    if len(labels) < n_folds:
        raise InsufficientLevels(
            f"{len(labels)} levels cannot fill {n_folds} folds"
        )
    rng = numkern.make_rng(seed)
    order = [labels[i] for i in rng.permutation(len(labels))]
    return {label: j % n_folds for j, label in enumerate(order)}


@dataclass(frozen=True)
class GammaCvResult:
    """Averaged quantile curves over a gamma grid and the per-alpha argmin."""

    gamma_grid: tuple
    alphas: tuple
    curves: np.ndarray  # shape (len(alphas), len(gamma_grid))
    selected: dict  # alpha -> gamma
    fold_of_level: dict


def _level_anchors(ds: AnchorDataset, split: LevelSplit):
    """The row of A of each level of `split`, or None without A, whose level
    means are then the anchor span. DomainError when a level's rows differ."""
    if ds.A is None:
        return None
    first = [ds.anchor_levels[label][0] for label in split.labels]
    differ = np.flatnonzero((ds.A != ds.A[first][split.codes]).any(axis=1))
    if differ.size:
        label = split.labels[split.codes[differ[0]]]
        raise DomainError(f"anchor level {label!r} holds rows with different anchor values")
    return ds.A[first]


def _held_out_level_mse(ds, split, table, held, gamma_grid, lam) -> np.ndarray:
    """One fold of `cv_gamma`: each level flagged in `held` (rows) scored at
    each gamma (columns) by its mean squared residual under the fit on the
    other levels. Nothing of the fold outlives the call, and the held-out
    residuals are formed in place."""
    train = split.centred(~held, None if table is None else table[~held])
    coefs = np.stack([sparse.fit_anchor_lasso(train, g, lam).coef for g in gamma_grid])
    rows = held[split.codes]
    centred = ds.X[rows]
    centred -= train.x_means
    resid = centred @ coefs.T
    resid += train.y_mean
    np.subtract(ds.Y[rows, None], resid, out=resid)
    np.square(resid, out=resid)
    # each held-out level's mean square: its sum over sqrt(n_l), twice
    root = np.sqrt(split.counts[held])[:, None]
    return numkern.level_sums(split.codes[rows], resid, held.size)[held] / root / root


def cv_gamma(
    ds: AnchorDataset,
    alphas,
    gamma_grid,
    folds: int = 5,
    lam: float = 0.0,
    seed: int = 0,
) -> GammaCvResult:
    """Pick gamma by minimizing held-out conditional-MSE quantiles.

    Folds are assigned at anchor-level granularity, so no level is ever in
    both the training and the evaluation split of a fold. A held-out level
    with no rows is left out. Every fold's training moments come from one
    `LevelSplit` of the data, so each level must hold one anchor value
    (DomainError otherwise); all gamma of a fold are scored in one product.
    A quantile level outside [0, 1] is a DomainError, raised before any fit.
    """
    if ds.level_codes is None or len(ds.level_labels) < 2:
        raise InsufficientLevels("need at least two anchor levels")
    if folds < 2:
        raise InsufficientLevels("need at least two folds")
    alphas = _quantile_levels(alphas)
    gamma_grid = tuple(float(g) for g in np.atleast_1d(gamma_grid))
    fold_of_level = assign_level_folds(ds.level_labels, folds, seed)
    split = LevelSplit(ds)
    table = _level_anchors(ds, split)
    level_fold = np.array([fold_of_level[label] for label in split.labels])
    sums = np.zeros((len(alphas), len(gamma_grid)))
    for fold in range(folds):
        held = level_fold == fold
        level_mse = _held_out_level_mse(ds, split, table, held, gamma_grid, lam)
        for j in range(len(gamma_grid)):
            sums[:, j] += [nearest_rank_quantile(level_mse[:, j], a) for a in alphas]
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


def anchor_stability_test(
    ds: AnchorDataset,
    gamma_grid=(0.25, 0.5, 1.0, 2.0, 4.0, 16.0),
    tol: float = 0.05,
) -> dict:
    """Compare the whole fitted gamma path against its endpoints.

    Reports the maximum pairwise coefficient gap in absolute and relative
    (scaled by ||b_0||_inf) form, per-coordinate stability flags, and the
    sample projectability check. The IV endpoint is included only when it
    is identified.
    """
    ds = center(ds)
    gamma_grid = tuple(float(g) for g in np.atleast_1d(gamma_grid))
    fits = {0.0: fit_anchor(ds, 0.0)}
    for gamma in gamma_grid:
        fits.setdefault(gamma, fit_anchor(ds, gamma))
    proj = projectability_check(ds)
    iv_fit = None
    if proj["holds"]:
        try:
            iv_fit = fit_anchor(ds, math.inf)
            fits[math.inf] = iv_fit
        except Underidentified:
            proj = dict(proj, holds=False)
    coefs = np.stack([fit.coef for fit in fits.values()])
    gaps = np.abs(coefs[:, None, :] - coefs[None, :, :])
    max_gap = float(gaps.max())
    scale = max(float(np.max(np.abs(fits[0.0].coef))), 1e-12)
    per_coord = gaps.max(axis=(0, 1))
    report = {
        "gammas": tuple(fits),
        "fits": fits,
        "max_gap": max_gap,
        "relative_gap": max_gap / scale,
        "stable": max_gap / scale < tol,
        "coordinate_gaps": per_coord,
        "coordinate_stable": per_coord / scale < tol,
        "projectability": proj,
        "iv_included": iv_fit is not None,
    }
    if len(gamma_grid) < 2:
        report["warning"] = (
            "degenerate grid: only the endpoints b_0 and the supplied gamma "
            "were compared"
        )
    return report


@dataclass(frozen=True)
class RankingTable:
    """Stability scores a_k (min |coef| over the gamma range) next to the
    partialled-out lasso magnitudes l_k."""

    a_scores: np.ndarray
    l_scores: np.ndarray
    gamma_grid: tuple
    lam: float
    predictor_names: tuple = ()


def replicability_rank(
    ds: AnchorDataset,
    lam: float,
    gamma_range=(0.0, 1.0),
    grid_size: int = 21,
) -> RankingTable:
    """Score each coefficient by its smallest magnitude along a gamma grid.

    The grid is log-spaced inside the range with the endpoints included;
    a left endpoint of zero contributes the partialled-out fit itself, so
    the dominance a_k <= l_k is exact whenever 0 is in the range. Its other
    points span two decades below `high`, floored at 1e-3 unless high < 1e-3.
    """
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    low, high = (float(g) for g in gamma_range)
    if low < 0 or high < low:
        raise DomainError("gamma range must satisfy 0 <= low <= high")
    ds = center(ds)
    if low == 0.0:
        start = high / 100.0 if high < 1e-3 else max(high / 100.0, 1e-3)
        positive = np.geomspace(start, high, grid_size - 1) if high > 0 else []
        grid = [0.0, *positive]
    else:
        grid = list(np.geomspace(low, high, grid_size))
    fits = []
    for g in grid:
        # warm start; the last solve reads only the active set and signs,
        # so it agrees with a cold fit
        start = fits[-1].coef if fits else None
        fits.append(sparse.fit_anchor_lasso(ds, g, lam, start))
    mags = np.abs(np.stack([fit.coef for fit in fits]))
    a_scores = mags.min(axis=0)
    lasso_fit = fits[0] if grid[0] == 0.0 else sparse.fit_anchor_lasso(ds, 0.0, lam)
    return RankingTable(
        a_scores=a_scores,
        l_scores=np.abs(lasso_fit.coef),
        gamma_grid=tuple(grid),
        lam=float(lam),
        predictor_names=ds.predictor_names,
    )

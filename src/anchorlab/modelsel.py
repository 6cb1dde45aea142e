"""Quantile-based gamma selection, stability diagnostics and rankings.

Cross-validation here is grouped at anchor-level granularity: a level never
appears in both the training and the held-out part of a fold. Empirical
quantiles use the nearest-rank (type-1) rule throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern, sparse
from .datamodel import AnchorDataset, center, level_blocks
from .estimators import AnchorFit, fit_anchor, fit_iv, predict
from .exceptions import DomainError, InsufficientLevels, Underidentified
from .scm import projectability_check


def quantile_gamma(alpha: float) -> float:
    """Penalty weight whose objective is the alpha-quantile of the
    anchor-conditional MSE (Gaussian case): the chi-squared(1) quantile."""
    return numkern.chi2_1_quantile(alpha)


def nearest_rank_quantile(values: np.ndarray, alpha: float) -> float:
    """Type-1 empirical quantile: the ceil(alpha * k)-th order statistic."""
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
    """Level-wise MSE of the residuals plus nearest-rank quantiles over levels."""
    blocks = level_blocks(ds)
    resid = _residuals(ds, b)
    level_mse = {label: float(np.mean(resid[idx] ** 2)) for label, idx in blocks}
    values = np.array(list(level_mse.values()))
    alphas = tuple(float(a) for a in np.atleast_1d(alphas))
    quantiles = tuple(nearest_rank_quantile(values, a) for a in alphas)
    return ConditionalMseReport(level_mse=level_mse, alphas=alphas, quantiles=quantiles)


def assign_level_folds(levels, n_folds: int, seed: int = 0) -> dict:
    """Shuffle levels with the given seed, then deal them round-robin."""
    labels = sorted(levels)
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


def _level_rows(ds: AnchorDataset, labels) -> np.ndarray:
    """The rows of the given anchor levels, in ascending order."""
    return np.sort(np.concatenate([np.asarray(ds.anchor_levels[lab], dtype=int) for lab in labels]))


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
    with no rows is left out.
    """
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
        train_rows = _level_rows(ds, [lab for lab, f in fold_of_level.items() if f != fold])
        test_rows = _level_rows(ds, test_levels)
        # level codes keep the fold's projection free of an SVD; it needs no level sets
        codes = None if ds.level_codes is None else ds.level_codes[train_rows]
        train = center(AnchorDataset(ds.X[train_rows], ds.Y[train_rows], ds.A[train_rows],
                                     predictor_names=ds.predictor_names, level_codes=codes))
        # the held-out rows form one block, as BLAS may round a row's x'b
        # differently at another position; each level is a set of positions
        x_test, y_test = ds.X[test_rows], ds.Y[test_rows]
        positions = [np.searchsorted(test_rows, np.sort(ds.anchor_levels[lab]))
                     for lab in test_levels if len(ds.anchor_levels[lab])]
        for j, gamma in enumerate(gamma_grid):
            resid = y_test - predict(sparse.fit_anchor_lasso(train, gamma, lam), x_test)
            level_mse = [float(np.mean(resid[pos] ** 2)) for pos in positions]
            sums[:, j] += [nearest_rank_quantile(level_mse, a) for a in alphas]
        # free this fold's row copies before the next fold makes its own
        del train, x_test, y_test
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
            iv_fit = fit_iv(ds)
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
    the dominance a_k <= l_k is exact whenever 0 is in the range.
    """
    if lam < 0:
        raise DomainError("lambda must be nonnegative")
    low, high = (float(g) for g in gamma_range)
    if low < 0 or high < low:
        raise DomainError("gamma range must satisfy 0 <= low <= high")
    ds = center(ds)
    if low == 0.0:
        positive = np.geomspace(max(high / 100.0, 1e-3), high, grid_size - 1) if high > 0 else []
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

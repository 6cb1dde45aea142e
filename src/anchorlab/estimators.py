"""Low-dimensional anchor regression and its endpoints.

The estimator solves

    argmin_b ||(Id - P)(Y - Xb)||^2 + gamma ||P(Y - Xb)||^2,

with P the projection onto the anchor columns. gamma = 0 partials the
anchors out, gamma = 1 is OLS, gamma -> infinity is two-stage least squares.

Every fit projects through `AnchorDataset.projection`, built once per
centred dataset. The dense solves, the IV solve and the objectives read the
data only through `AnchorDataset.moments` and its one factorisation, shared
by all gamma values.

A scikit-learn style wrapper (`AnchorRegression`) is provided at the bottom
so the estimator composes with pipelines and grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern
from .datamodel import AnchorDataset, center
from .exceptions import (
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    SingularDesign,
    Underidentified,
)


@dataclass(frozen=True)
class AnchorFit:
    """Fitted coefficients with (gamma, lambda) provenance."""

    gamma: float
    lam: float
    coef: np.ndarray
    objective: float
    iterations: int = 0
    converged: bool = True
    x_means: np.ndarray | None = None
    y_mean: float = 0.0
    predictor_names: tuple = ()


def anchor_objective(ds: AnchorDataset, b: np.ndarray, gamma: float) -> float:
    """Penalized criterion at b from the moments: off-anchor + gamma on-anchor."""
    off, on = numkern.residual_energy(center(ds).moments, b)
    return off + gamma * on


def fit_anchor(ds: AnchorDataset, gamma: float) -> AnchorFit:
    """Plug-in estimator: OLS on the gamma-transformed data, whose Gram
    matrix X'(Id - P)X + gamma X'PX every gamma reads from the one `GammaPath`
    of the dataset's moments; gamma = inf is two-stage least squares. Raises
    SingularDesign where a finite-gamma minimizer is not unique (n <= d, or a
    predictor in the anchor span at gamma = 0), and Underidentified where the
    anchors identify fewer than d directions of X."""
    if not gamma >= 0:
        raise DomainError(f"gamma must be nonnegative, got {gamma}")
    ds = center(ds)
    if gamma == math.inf:
        path = ds.moments.path
        if path.rank < ds.d:
            raise Underidentified(f"anchor-projected design has rank {path.rank} < d={ds.d}")
        coef = path.limit
        objective = numkern.residual_energy(ds.moments, coef)[1]
    else:
        if ds.n <= ds.d:
            raise SingularDesign(
                f"n={ds.n} <= d={ds.d}; use the l1-penalized solver for this regime"
            )
        try:
            coef = ds.moments.path.coef(gamma)
        except NotPositiveDefinite as exc:
            raise SingularDesign(
                f"transformed design is singular: {exc}; add ridge or reduce d"
            ) from exc
        objective = anchor_objective(ds, coef, gamma)
    return AnchorFit(
        gamma=float(gamma),
        lam=0.0,
        coef=coef,
        objective=objective,
        x_means=ds.x_means,
        y_mean=ds.y_mean,
        predictor_names=ds.predictor_names,
    )


def predict(fit: AnchorFit, x_new: np.ndarray) -> np.ndarray:
    """ (x_new - training means) @ coef + training Y mean; a 1-d x_new is a
    column when the fit has one predictor, else a row."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim < 2:
        x_new = x_new.reshape((-1, 1) if fit.coef.shape[0] == 1 else (1, -1))
    if x_new.shape[1] != fit.coef.shape[0]:
        raise DimensionMismatch(
            f"expected {fit.coef.shape[0]} columns, got {x_new.shape[1]}"
        )
    x_means = fit.x_means if fit.x_means is not None else 0.0
    return (x_new - x_means) @ fit.coef + fit.y_mean


class AnchorRegression:
    """scikit-learn style front end for anchor regression.

    Parameters
    ----------
    gamma : float or math.inf, default 1.0
        Penalty weight on the anchor-projected residual.
    lam : float, default 0.0
        l1 penalty; `sparse.fit_anchor_lasso` solves 0 exactly and positive
        values by feature-sign search, which also covers n <= d.
    """

    def __init__(self, gamma: float = 1.0, lam: float = 0.0):
        self.gamma = gamma
        self.lam = lam

    def get_params(self, deep: bool = True) -> dict:
        return {"gamma": self.gamma, "lam": self.lam}

    def set_params(self, **params) -> "AnchorRegression":
        for key, value in params.items():
            if key not in ("gamma", "lam"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y, anchors) -> "AnchorRegression":
        from .sparse import fit_anchor_lasso

        ds = center(AnchorDataset(X=X, Y=y, A=anchors))
        self.fit_ = fit_anchor_lasso(ds, self.gamma, self.lam)
        self.coef_ = self.fit_.coef
        self.intercept_ = float(
            self.fit_.y_mean - self.fit_.x_means @ self.fit_.coef
        )
        return self

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "fit_"):
            raise RuntimeError("estimator is not fitted yet")
        return predict(self.fit_, X)

    def score(self, X, y) -> float:
        y = np.asarray(y, dtype=float).ravel()
        resid = y - self.predict(X)
        total = y - y.mean()
        return 1.0 - float(resid @ resid) / float(total @ total)

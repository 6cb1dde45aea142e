"""Deterministic numeric kernels: SPD solves, projections, quantiles, RNG.

Everything here is a pure function on immutable inputs. Random sampling goes
through an explicitly seeded generator; no global RNG state is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import ndtri

from .exceptions import DomainError, NotPositiveDefinite

# The one numerical-rank rule. Columns of a thin QR whose R diagonal falls
# below this fraction of the largest diagonal are dropped, and a singular
# value of anchor coordinates counts toward their rank only above this
# fraction of the spectral norm of the columns they project (`anchor_svd`);
# sample and population IV solves and the projectability test all use it.
QR_RANK_RTOL = 1e-10

# Cholesky pivots below trace/dim times this floor mean "not positive
# definite"; callers may retry after adding ridge ~1e-8 * Id.
SPD_PIVOT_RTOL = 1e-12


def make_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator (PCG64); same seed, same stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ s = rhs for symmetric positive definite gram.

    Raises NotPositiveDefinite when a Cholesky pivot falls below the floor
    SPD_PIVOT_RTOL * trace/dim, which signals (near-)singularity.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    dim = gram.shape[0]
    if gram.shape != (dim, dim):
        raise DomainError("gram matrix must be square")
    floor = SPD_PIVOT_RTOL * max(np.trace(gram), 0.0) / max(dim, 1)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    pivots = np.diag(chol) ** 2
    if pivots.min() <= floor:
        raise NotPositiveDefinite(
            f"pivot {pivots.min():.3e} below floor {floor:.3e}"
        )
    half = scipy.linalg.solve_triangular(chol, rhs, lower=True)
    return scipy.linalg.solve_triangular(chol.T, half, lower=False)


def orthonormal_range(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the numerical column space of `basis`.

    Thin QR with column pivoting; columns with |R_ii| below QR_RANK_RTOL
    times the largest diagonal are discarded, so exactly collinear inputs
    (e.g. a full dummy set after centering) are handled silently.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.ndim != 2:
        raise DomainError("expected a 2-d array")
    q_mat, r_mat, _ = scipy.linalg.qr(basis, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros((basis.shape[0], 0))
    rank = int(np.sum(diag >= QR_RANK_RTOL * diag[0]))
    return q_mat[:, :rank]


class AnchorProjection:
    """The projection Pi_A onto the anchors' column span, never formed as n x n.

    With integer `codes`, the anchor block must be the 0/1 indicator matrix
    of those codes (each row holds one 1, in column codes[i]), centred or
    not; Pi_A then replaces each row by its level mean and no QR runs. For
    a centred indicator block this holds on mean-zero columns, the only ones
    the estimators project; `anchors` is then not read. Any other block
    takes one pivoted QR.

    `coordinates` maps columns V to R with R'R = V' Pi_A V: the coefficients
    in an orthonormal basis of the span, or sqrt(n_l) times the level means
    of the levels that occur. `expand` maps R back to Pi_A V.
    """

    def __init__(self, anchors: np.ndarray, codes: np.ndarray | None = None):
        if codes is None:
            self._basis = orthonormal_range(anchors)
            return
        self._basis = None
        codes = np.asarray(codes, dtype=np.intp)
        counts = np.bincount(codes)
        present = counts > 0
        # renumber the levels that occur as 0..L-1; absent levels span nothing
        self._local = (np.cumsum(present) - 1)[codes]
        self._root_counts = np.sqrt(counts[present])

    def coordinates(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        flat = values if values.ndim > 1 else values[:, None]
        if self._basis is not None:
            out = self._basis.T @ flat
        else:
            sums = np.stack(
                [
                    np.bincount(self._local, weights=col, minlength=self._root_counts.size)
                    for col in flat.T
                ],
                axis=1,
            )
            out = sums / self._root_counts[:, None]
        return out if values.ndim > 1 else out[:, 0]

    def expand(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if self._basis is not None:
            return self._basis @ coords
        scale = self._root_counts if coords.ndim == 1 else self._root_counts[:, None]
        return (coords / scale)[self._local]

    def project(self, values: np.ndarray) -> np.ndarray:
        return self.expand(self.coordinates(values))


@dataclass(frozen=True)
class AnchorMoments:
    """Second moments of data columns Z on and off the anchor span.

    A dataset and a LinearScm (its population moments) both carry them.

    on:       R = coordinates of Z, so that R'R = Z' Pi_A Z;
    gram_on:  R'R;
    gram_off: Z'(Id - Pi_A)Z, formed from the residual columns. Forming it as
              Z'Z - gram_on instead loses the digits that anchors explaining
              most of Z leave in the residual.
    """

    on: np.ndarray
    gram_on: np.ndarray
    gram_off: np.ndarray

    def column(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Column k of gram_off and of gram_on (their row k: both are symmetric)."""
        return self.gram_off[k], self.gram_on[k]

    @property
    def diagonals(self) -> tuple[np.ndarray, np.ndarray]:
        return np.diag(self.gram_off), np.diag(self.gram_on)

    def off_energy(self, z: np.ndarray) -> float:
        """z' gram_off z."""
        return float(z @ self.gram_off @ z)


class ColumnMoments:
    """The Gram blocks of `AnchorMoments`, read one column at a time.

    Keeps the off-anchor columns Z_off = Z - Pi_A Z, written over `data`, and
    the anchor coordinates R of Z. Column k of gram_off is Z_off' z_off,k and
    of gram_on R' r_k; each is formed the first time it is read and kept, so
    memory grows with the columns read and no square matrix of Z's width is
    formed.
    """

    def __init__(self, projection: AnchorProjection, data: np.ndarray):
        self.on, self.off = _anchor_split(projection, data)
        self.diagonals = (
            np.einsum("ij,ij->j", self.off, self.off),
            np.einsum("ij,ij->j", self.on, self.on),
        )
        self._columns = {}

    def column(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        pair = self._columns.get(k)
        if pair is None:
            pair = self._columns[k] = (self.off.T @ self.off[:, k], self.on.T @ self.on[:, k])
        return pair

    def off_energy(self, z: np.ndarray) -> float:
        """||Z_off z||^2."""
        resid = self.off @ z
        return float(resid @ resid)


def _anchor_split(projection: AnchorProjection, data: np.ndarray):
    """The anchor coordinates of `data` and its columns off the anchor span,
    the latter in place of `data`, so that no second n-row copy is held."""
    on = projection.coordinates(data)
    data -= projection.expand(on)
    return on, data


def anchor_moments(projection: AnchorProjection, data: np.ndarray) -> AnchorMoments:
    """Split the columns of `data` on and off the anchor span; `data` is
    overwritten with its off-anchor columns."""
    on, off = _anchor_split(projection, data)
    return AnchorMoments(on=on, gram_on=on.T @ on, gram_off=off.T @ off)


def solve_gamma(moments: AnchorMoments, gamma: float) -> np.ndarray:
    """Coefficients of the last column on the others under
    gram_off + gamma * gram_on; raises NotPositiveDefinite when singular."""
    gram = moments.gram_off + gamma * moments.gram_on
    return solve_spd(gram[:-1, :-1], gram[:-1, -1])


def residual_energy(moments: AnchorMoments, b: np.ndarray) -> tuple[float, float]:
    """Off- and on-anchor energy of the residual Y - Xb: z' gram_off z and
    ||on z||^2 with z = (-b, 1), from AnchorMoments or ColumnMoments. The
    on-part reads the anchor coordinates, so it does not cancel."""
    z = np.append(-np.asarray(b, dtype=float), 1.0)
    on = moments.on @ z
    return moments.off_energy(z), float(on @ on)


def anchor_svd(moments: AnchorMoments, width: int):
    """SVD (u, s, vt) of the anchor coordinates of the first `width` columns,
    with vt square, and their rank: the singular values above QR_RANK_RTOL
    times the spectral norm of those columns themselves (the root of the top
    eigenvalue of gram_off + gram_on). Measured against the columns and not
    against their projection, an (almost) annihilated block reads as rank
    deficient rather than as full rank on its own round-off."""
    coords = moments.on[:, :width]
    # full matrices only when that keeps u no larger than coords itself
    u, sv, vt = np.linalg.svd(coords, full_matrices=coords.shape[0] < width)
    gram = moments.gram_off[:width, :width] + moments.gram_on[:width, :width]
    scale = max(float(np.sqrt(np.linalg.norm(gram, ord=2))), 1e-300)
    return u, sv, vt, int(np.sum(sv > QR_RANK_RTOL * scale))


def split_constraint(moments: AnchorMoments):
    """For R_x b = R_y: the particular solution from the truncated SVD of R_x,
    an orthonormal basis of its null space, and whether the system is
    consistent, all under the rank rule of `anchor_svd`.

    Appending R_y never lowers the rank, but its scale can hide a small
    singular value of R_x, so only a larger joint rank means inconsistent.
    """
    d = moments.on.shape[1] - 1
    u, sv, vt, rank = anchor_svd(moments, d)
    particular = vt[:rank].T @ (u[:, :rank].T @ moments.on[:, d] / sv[:rank])
    consistent = anchor_svd(moments, d + 1)[-1] <= rank
    return particular, vt[rank:].T, consistent


def normal_quantile(p: float) -> float:
    """Standard-normal quantile, |error| <= 1e-9 on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p}")
    return float(ndtri(p))


def chi2_1_quantile(alpha: float) -> float:
    """alpha-quantile of the chi-squared distribution with 1 df.

    Computed as the squared normal quantile of (1 + alpha)/2.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return normal_quantile((1.0 + alpha) / 2.0) ** 2

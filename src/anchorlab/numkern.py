"""Deterministic numeric kernels on numpy alone: anchor projections and
moments, the one factorisation of the gamma path, SPD solves, quantiles, RNG.

Everything here is a pure function on immutable inputs. Random sampling goes
through an explicitly seeded generator; no global RNG state is touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError, NotPositiveDefinite, ProjectabilityViolated

# The one numerical-rank rule: a singular value counts only above this
# fraction of a spectral norm, that of the anchor block in `orthonormal_range`
# (the projection) and that of the whitened design in `GammaPath` (the IV
# limit); a residual counts only above it times the norm of [X Y].
RANK_RTOL = 1e-10

# Cholesky pivots below trace/dim times this floor mean "not positive
# definite"; `GammaPath` takes the same floor, at gamma = 1, for a direction
# without off-anchor energy.
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
    # written so that a NaN pivot fails too
    if not pivots.min() > floor:
        raise NotPositiveDefinite(
            f"pivot {pivots.min():.3e} below floor {floor:.3e}"
        )
    return np.linalg.solve(gram, rhs)


def orthonormal_range(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the numerical column space of `basis`.

    Thin SVD; the left singular vectors whose singular value exceeds
    RANK_RTOL times the largest are kept, so exactly collinear inputs (e.g.
    a full dummy set after centering) are handled silently.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.ndim != 2:
        raise DomainError("expected a 2-d array")
    if not np.isfinite(basis).all():
        raise DomainError("the basis holds a non-finite entry")
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    return u[:, sv > RANK_RTOL * sv.max(initial=0.0)]


def present_levels(codes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(local, levels, counts): each row's code renumbered 0..L-1 over the L
    levels that hold rows, those levels' codes, ascending, and their counts."""
    codes = np.asarray(codes, dtype=np.intp)
    counts = np.bincount(codes)
    present = counts > 0
    return (np.cumsum(present) - 1)[codes], np.flatnonzero(present), counts[present]


class AnchorProjection:
    """The projection Pi_A onto the anchors' column span, never formed as n x n.

    An anchor block takes one thin SVD (`orthonormal_range`). Without one,
    integer `codes` stand for the 0/1 indicator matrix of those codes (each
    row holds one 1, in column codes[i]), centred or not; Pi_A then replaces
    each row by its level mean and no factorisation runs. For a centred
    indicator block this holds on mean-zero columns, the only ones the
    estimators project.

    `coordinates` maps columns V to R with R'R = V' Pi_A V: the coefficients
    in an orthonormal basis of the span, or sqrt(n_l) times the level means
    of the levels that occur. `expand` maps R back to Pi_A V, or to the
    slice `rows` of its rows.
    """

    def __init__(self, anchors: np.ndarray | None, codes: np.ndarray | None = None):
        if anchors is not None:
            self._basis = orthonormal_range(anchors)
            return
        self._basis = None
        self._local, _, counts = present_levels(codes)
        self._root_counts = np.sqrt(counts)

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

    def expand(self, coords: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if self._basis is not None:
            return self._basis[rows] @ coords
        scale = self._root_counts if coords.ndim == 1 else self._root_counts[:, None]
        return (coords / scale)[self._local[rows]]

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

    def off_energy(self, z: np.ndarray):
        """z' gram_off z, one per row of a (k, d + 1) stack z."""
        return unstack(np.vecdot(z @ self.gram_off, z))

    @cached_property
    def path(self) -> "GammaPath":
        """The one factorisation behind every dense solve on these moments."""
        return GammaPath(self)


class ColumnMoments:
    """The Gram blocks of `AnchorMoments`, read one column at a time.

    Keeps the anchor coordinates R of Z and the off-anchor columns Z_off of
    an (on, off) split. Column k of gram_off is Z_off' z_off,k and of
    gram_on R' r_k; each is formed the first time it is read and kept, so
    memory grows with the columns read and no square matrix of Z's width is
    formed.
    """

    def __init__(self, on: np.ndarray, off: np.ndarray):
        self.on, self.off = on, off
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


# rows of `anchor_split`'s expansion held at once
SPLIT_BLOCK_ROWS = 8192


def anchor_split(projection: AnchorProjection, data: np.ndarray):
    """(on, off): the anchor coordinates of `data` and its columns off the
    anchor span, the latter in place of `data` and expanded a block of rows
    at a time, so that no second n-row array is held. A last block of one
    row joins the block before it: numpy multiplies a single row by another
    BLAS routine, whose rounding can differ from the whole product's."""
    on = projection.coordinates(data)
    starts = list(range(0, max(len(data) - 1, 1), SPLIT_BLOCK_ROWS))
    for start, stop in zip(starts, starts[1:] + [len(data)]):
        data[start:stop] -= projection.expand(on, slice(start, stop))
    return on, data


def anchor_moments(on: np.ndarray, off: np.ndarray) -> AnchorMoments:
    """The whole Gram blocks of an (on, off) split."""
    return AnchorMoments(on=on, gram_on=on.T @ on, gram_off=off.T @ off)


def moment_source(n: int, on: np.ndarray, off: np.ndarray):
    """The blocks of an (on, off) split of n rows of [X Y] as the l1 solver
    reads them: whole (`anchor_moments`) when n exceeds the d columns of X,
    else a column at a time (`ColumnMoments`), so that no (d+1) x (d+1)
    matrix is formed for data wider than long."""
    return anchor_moments(on, off) if n > off.shape[1] - 1 else ColumnMoments(on, off)


def unstack(values):
    """The Python scalar of a one-row result, or the array of a stack's rows."""
    return values.item() if np.ndim(values) == 0 else values


def residual_energy(moments: AnchorMoments, b: np.ndarray):
    """Off- and on-anchor energy of the residual Y - Xb: z' gram_off z and
    ||on z||^2 with z = (-b, 1), from AnchorMoments (per row of a stack b)
    or ColumnMoments. The on-part reads the anchor coordinates, so it does
    not cancel."""
    b = np.asarray(b, dtype=float)
    z = np.concatenate((-b, np.ones(b.shape[:-1] + (1,))), axis=-1)
    on = z @ moments.on.T
    return moments.off_energy(z), unstack(np.vecdot(on, on))


class GammaPath:
    """Every dense solve of `AnchorMoments`: the coefficients of the last
    column on the others at any gamma in [0, inf], from one factorisation.

    The SVD R_x = U S V' rotates X so that each row of S is rounded at its
    own scale. Eigenvectors of V'G_off,xx V at or below the pivot floor of
    gamma = 1 span N, the directions inside the anchor span; they only fit
    the on-anchor residual, and one with no more anchor energy than the
    floor has none (`degenerate`). The rest, K with eigenvalues L, are
    whitened, and the SVD C = S V'K L^(-1/2) = P Sigma Q' (N's span taken
    out) diagonalises every gamma, with u = L^(-1/2) K'V' G_off,xy:

        b = V K L^(-1/2) Q (Id + gamma Sigma^2)^-1 (Q'u + gamma Sigma P'U'R_y)

    plus the N part. At gamma = inf a sigma above RANK_RTOL ||[Id; C]||_2 is
    identified, and the other directions keep their off-anchor minimum
    (`limit`). `penalty` is the on-anchor energy of its identified part, and
    the constraints are `consistent` when it is at most (RANK_RTOL ||[X Y]||_2)^2.
    """

    def __init__(self, moments: AnchorMoments):
        d = moments.gram_off.shape[0] - 1
        g_xx, g_xy = moments.gram_off[:d, :d], moments.gram_off[:d, d]
        u, s, vt = np.linalg.svd(moments.on[:, :d], full_matrices=moments.on.shape[0] < d)
        anchored = np.eye(s.size, d) * s[:, None]
        r_y = u[:, : s.size].T @ moments.on[:, d]
        vals, vecs = np.linalg.eigh(vt @ g_xx @ vt.T)
        floor = SPD_PIVOT_RTOL * (np.trace(g_xx) + np.trace(moments.gram_on[:d, :d])) / max(d, 1)
        inside = vals <= floor
        q, t, wt = np.linalg.svd(anchored @ vecs[:, inside], full_matrices=False)
        fits = t**2 > floor
        q = q[:, fits]
        lift = (vecs[:, inside] @ wt[fits].T / t[fits]) @ q.T
        whiten = vecs[:, ~inside] / np.sqrt(vals[~inside])
        coords = anchored @ whiten
        coords -= q @ (q.T @ coords)
        p, sv, qt = np.linalg.svd(coords, full_matrices=coords.shape[0] < coords.shape[1])
        self._sv, self._on = np.zeros((2, whiten.shape[1]))
        self._sv[: sv.size] = sv
        self._on[: sv.size] = p[:, : sv.size].T @ (r_y - q @ (q.T @ r_y))
        self._off = qt @ (whiten.T @ (vt @ g_xy))
        basis = whiten @ qt.T
        self._basis = vt.T @ (basis - lift @ (anchored @ basis))
        self._offset = vt.T @ (lift @ r_y)
        self.in_span, self.degenerate = int(inside.sum()), int(inside.sum() - fits.sum())
        kept = self._sv > RANK_RTOL * math.sqrt(1.0 + sv.max(initial=0.0) ** 2)
        self.rank = int(kept.sum() + fits.sum())
        identified = self._offset + self._basis @ np.divide(
            self._on, self._sv, out=np.zeros_like(self._sv), where=kept
        )
        self.limit = identified + self._basis @ np.where(kept, 0.0, self._off)
        self.penalty = residual_energy(moments, identified)[1]
        scale = np.linalg.eigvalsh(moments.gram_off + moments.gram_on)[-1]
        self.consistent = self.penalty <= RANK_RTOL**2 * scale

    def coef(self, gamma: float) -> np.ndarray:
        """The minimiser of the off- plus gamma times the on-anchor energy,
        `limit` at gamma = inf. Raises NotPositiveDefinite where it is not
        unique (X has a degenerate direction, or gamma = 0 leaves a direction
        in the anchor span free), and ProjectabilityViolated at gamma = inf
        when the constraints R_x b = R_y are inconsistent."""
        if self.degenerate:
            raise NotPositiveDefinite(f"{self.degenerate} direction(s) of X carry no energy")
        if gamma == 0.0 and self.in_span:
            raise NotPositiveDefinite(f"{self.in_span} direction(s) of X lie in the anchor span")
        if gamma == math.inf:
            if not self.consistent:
                raise ProjectabilityViolated(
                    "rank(Cov(A,X)) < rank([Cov(A,X) | Cov(A,Y)]); the penalty "
                    "cannot be driven to zero"
                )
            return self.limit
        # divided through by max(1, gamma), so that gamma sigma^2 is never formed
        a, b = (1.0, gamma) if gamma <= 1.0 else (1.0 / gamma, 1.0)
        weights = (a * self._off + b * self._sv * self._on) / (a + b * self._sv**2)
        return self._basis @ weights + self._offset


def normal_quantile(p: float) -> float:
    """Standard-normal quantile, |error| <= 1e-9 on (0, 1)."""
    from statistics import NormalDist  # on first use, not with the CLI
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


def chi2_1_quantile(alpha: float) -> float:
    """alpha-quantile of the chi-squared distribution with 1 df.

    Computed as the squared normal quantile of (1 + alpha)/2.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return normal_quantile((1.0 + alpha) / 2.0) ** 2

"""Linear structural-causal-model oracle.

A model is the equation system (X, Y, H) = B (X, Y, H) + noise + M A with
component order (X_1..X_d, Y, H_1..H_r). Everything downstream — sampling,
exact covariances, population coefficients, shift risks, worst-case sets,
replicability scenarios and causal effects — is derived from (B, M, noise
scales, anchor distribution). The equilibrium reading requires Id - B to be
invertible; for cyclic graphs with spectral radius >= 1 a warning is issued
because the iterate-to-equilibrium interpretation no longer applies.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkern
from .datamodel import AnchorDataset, center
from .exceptions import AssumptionViolated, CyclicGraph, DomainError

# PerturbationSet drops eigenvalues of its bound below this fraction of the
# largest. Eigenvalues are squared singular values, so numkern.RANK_RTOL
# would sit below their round-off.
RANK_TOL = 1e-9


def _finite(value, name: str) -> np.ndarray:
    """`value` as a float array of finite numbers, or DomainError naming
    `name`: every array of a model passes here, whether it comes from a
    caller or from a model file."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a rectangular array of numbers")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} has a non-finite entry")
    return arr.astype(float)


@dataclass(frozen=True)
class AnchorDistribution:
    """Distribution of the exogenous anchor vector A.

    kind "gaussian" draws N(0, gram); kind "discrete" draws rows of `levels`
    with probabilities `probs` (uniform by default). Rademacher anchors are
    the discrete two-level case {-1, +1}.
    """

    kind: str
    gram: np.ndarray | None = None
    levels: np.ndarray | None = None
    probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "gaussian":
            gram = np.atleast_2d(_finite(self.gram, "anchor gram"))
            if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
                raise DomainError(f"anchor gram must be square, got shape {gram.shape}")
            object.__setattr__(self, "gram", gram)
        elif self.kind == "discrete":
            levels = np.atleast_2d(_finite(self.levels, "anchor levels"))
            if levels.ndim != 2 or 0 in levels.shape:
                raise DomainError(f"anchor levels must be a nonempty table, got shape {levels.shape}")
            k = levels.shape[0]
            probs = np.full(k, 1.0 / k) if self.probs is None else _finite(self.probs, "anchor probs")
            if probs.shape != (k,) or abs(probs.sum() - 1.0) > 1e-12 or (probs < 0).any():
                raise DomainError("level probabilities must be a distribution")
            object.__setattr__(self, "levels", levels)
            object.__setattr__(self, "probs", probs)
        else:
            raise DomainError(f"unknown anchor kind {self.kind!r}")

    @staticmethod
    def rademacher() -> "AnchorDistribution":
        return AnchorDistribution.discrete([[-1.0], [1.0]])

    @staticmethod
    def gaussian(gram) -> "AnchorDistribution":
        return AnchorDistribution(kind="gaussian", gram=gram)

    @staticmethod
    def discrete(levels, probs=None) -> "AnchorDistribution":
        return AnchorDistribution(kind="discrete", levels=levels, probs=probs)

    @property
    def q(self) -> int:
        if self.kind == "gaussian":
            return self.gram.shape[0]
        return self.levels.shape[1]

    def second_moment(self) -> np.ndarray:
        """E[A A'] (the Gram matrix of the anchor)."""
        if self.kind == "gaussian":
            return self.gram
        return (self.levels * self.probs[:, None]).T @ self.levels

    def draw(self, rng: np.random.Generator, n: int):
        """Returns (values n x q, labels or None)."""
        if self.kind == "gaussian":
            chol = np.linalg.cholesky(
                self.gram + 1e-15 * np.eye(self.q) * max(np.trace(self.gram), 1.0)
            )
            return rng.standard_normal((n, self.q)) @ chol.T, None
        idx = rng.choice(self.levels.shape[0], size=n, p=self.probs)
        return self.levels[idx], idx


@dataclass(frozen=True)
class Shift:
    """Deterministic shift vector (or a (k, p) stack) or a mean-zero random shift covariance."""

    vector: np.ndarray | None = None
    covariance: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.covariance is None):
            raise DomainError("specify exactly one of vector or covariance")
        if self.vector is not None:
            object.__setattr__(self, "vector", np.atleast_1d(np.asarray(self.vector, float)))
        else:
            object.__setattr__(self, "covariance", np.atleast_2d(np.asarray(self.covariance, float)))


def _require_nonsingular(system: np.ndarray) -> None:
    """DomainError unless the smallest singular value of Id - B exceeds 1e-10."""
    if np.linalg.svd(system, compute_uv=False).min() <= 1e-10:
        raise DomainError("Id - B is numerically singular")


def _certified_nonsingular(system: np.ndarray, inverse: np.ndarray) -> bool:
    """Whether the computed inverse Z of S = Id - B shows, with no SVD,
    that S passes `_require_nonsingular` with a 100x margin. Since
    ||Z||_2 <= sqrt(||Z||_1 ||Z||_inf) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 6), sigma_min(S) >= 1e-8 once that root is at
    most 1e8, provided Z is accurate, which the condition bound
    sqrt(||S||_1 ||S||_inf) sqrt(||Z||_1 ||Z||_inf) <= 1e8 ensures. A
    non-finite norm certifies nothing."""
    norms = []
    with np.errstate(over="ignore"):
        for mat in (system, inverse):
            size = np.abs(mat)
            norms.append(math.sqrt(size.sum(axis=0).max() * size.sum(axis=1).max()))
    return norms[1] <= 1e8 and norms[0] * norms[1] <= 1e8


@dataclass(frozen=True)
class LinearScm:
    """Structural system over (X_1..X_d, Y, H_1..H_r) driven by anchors A."""

    d: int
    r: int
    B: np.ndarray
    M: np.ndarray
    noise_scales: np.ndarray
    anchor: AnchorDistribution

    def __post_init__(self):
        for name, least in (("d", 1), ("r", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))
        p = self.p
        for name, shape in (("B", (p, p)), ("M", (p, self.q)), ("noise_scales", (p,))):
            arr = _finite(getattr(self, name), name)
            if arr.shape != shape:
                raise DomainError(
                    f"{name} must have shape {shape} for d={self.d}, r={self.r}, "
                    f"q={self.q}, got {arr.shape}"
                )
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        system = np.eye(p) - self.B
        try:
            inverse = np.linalg.inv(system)
        except np.linalg.LinAlgError:
            _require_nonsingular(system)
            raise
        if not _certified_nonsingular(system, inverse):
            _require_nonsingular(system)
        inverse.flags.writeable = False
        object.__setattr__(self, "_inverse", inverse)
        if not self.is_acyclic:
            rho = np.max(np.abs(np.linalg.eigvals(self.B)))
            if rho >= 1.0:
                warnings.warn(
                    f"cyclic system with spectral radius {rho:.3f} >= 1: the "
                    "iterate-to-equilibrium interpretation does not apply",
                    RuntimeWarning,
                )

    @property
    def p(self) -> int:
        return self.d + 1 + self.r

    @property
    def q(self) -> int:
        return self.anchor.q

    @property
    def y_index(self) -> int:
        return self.d

    @cached_property
    def parents(self) -> np.ndarray:
        """The model's graph over its p + q nodes, (X, Y, H) then the
        anchors, read-only: entry [k, l] is true when node l is a parent of
        node k, from B off its diagonal (self-cycles are dropped) and from M.
        Anchors have no parents."""
        p = self.p
        graph = np.zeros((p + self.q, p + self.q), dtype=bool)
        graph[:p, :p] = self.B != 0
        graph[:p, p:] = self.M != 0
        np.fill_diagonal(graph, False)
        graph.flags.writeable = False
        return graph

    @cached_property
    def is_acyclic(self) -> bool:
        """Whether the graph of B has no directed cycle; self-cycles are
        ignored. Sinks are peeled off a round at a time (Kahn's sort), each
        row of the (X, Y, H) block of `parents` read once."""
        edges = self.parents[: self.p, : self.p]
        children = edges.sum(axis=0)
        sinks = (children == 0).nonzero()[0]
        peeled = 0
        while sinks.size:
            peeled += sinks.size
            children -= edges[sinks].sum(axis=0)
            children[sinks] = -1  # peeled: a sink loses no more children
            sinks = (children == 0).nonzero()[0]
        return peeled == self.p

    def unmixing(self) -> np.ndarray:
        """(Id - B)^{-1}, inverted once per model and read-only; maps
        structural inputs to equilibrium values."""
        return self._inverse

    def noise_covariance(self) -> np.ndarray:
        return np.diag(self.noise_scales**2)

    @cached_property
    def moments(self) -> numkern.AnchorMoments:
        """[X Y] on and off the anchor span, as `AnchorDataset.moments`."""
        return _population_moments(self, self.anchor, 1.0, None, self.noise_covariance())

    def residual_weights(self, b: np.ndarray) -> np.ndarray:
        """Vector w with Y - X'b = w'(noise + M A) at equilibrium, a row per row of b."""
        inv = self.unmixing()
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return inv[self.y_index, :] - b @ inv[: self.d, :]


def example_iv_chain() -> LinearScm:
    """Classic one-predictor IV setting with a hidden confounder.

    A -> X, H -> X, H -> Y (weight 2), X -> Y; Rademacher anchor, unit
    noise. Partialling out gives 2, OLS 5/3, the IV endpoint 1.
    """
    B = np.zeros((3, 3))
    B[0, 2] = 1.0  # X <- H
    B[1, 0] = 1.0  # Y <- X
    B[1, 2] = 2.0  # Y <- 2H
    M = np.array([[1.0], [0.0], [0.0]])
    return LinearScm(
        d=1, r=1, B=B, M=M,
        noise_scales=np.ones(3),
        anchor=AnchorDistribution.rademacher(),
    )


def example_confounder_shift() -> LinearScm:
    """A -> H -> {X, Y}, X -> Y; shifts act on the hidden confounder."""
    B = np.zeros((3, 3))
    B[0, 2] = 1.0  # X <- H
    B[1, 0] = 1.0  # Y <- X
    B[1, 2] = 2.0  # Y <- 2H
    M = np.array([[0.0], [0.0], [1.0]])
    return LinearScm(
        d=1, r=1, B=B, M=M,
        noise_scales=np.ones(3),
        anchor=AnchorDistribution.rademacher(),
    )


def sample(
    scm: LinearScm,
    n: int,
    rng: np.random.Generator,
    shift: Shift | None = None,
) -> AnchorDataset:
    """Draw n equilibrium rows; under a shift, v replaces the anchor input.

    The anchor column is filled either way; under a shift it does not enter
    the system. A discrete anchor's rows also carry level codes over the
    levels drawn, labelled by their row in the model's level table.

    The noise array becomes the inputs in place, so at its peak `sample`
    holds the n x p inputs, the n x p mixed values and the n x q anchors
    (or, while one is added, a draw's n x p term); the inputs are dropped
    before the dataset is built. A drawn value that is not finite, as from
    a NaN shift or one so large that the system overflows, is a DomainError.
    """
    if n < 1:
        raise DomainError("n must be positive")
    inv = scm.unmixing()
    inputs = rng.standard_normal((n, scm.p))
    inputs *= scm.noise_scales
    a_vals, labels = scm.anchor.draw(rng, n)
    # an overflow shows as a value that is not finite, checked once below
    with np.errstate(over="ignore", invalid="ignore"):
        if shift is None:
            inputs += a_vals @ scm.M.T
        elif shift.vector is not None:
            if shift.vector.ndim != 1:
                raise DomainError("sample takes one shift vector, not a stack")
            inputs += shift.vector
        else:
            chol = np.linalg.cholesky(
                shift.covariance + 1e-15 * np.eye(scm.p) * max(np.trace(shift.covariance), 1.0)
            )
            inputs += rng.standard_normal((n, scm.p)) @ chol.T
        values = inputs @ inv.T
    del inputs
    if not np.isfinite(values).all():
        raise DomainError("the draw overflows: a value of the system is not finite")
    codes = drawn = None
    if labels is not None:
        codes, drawn, _ = numkern.present_levels(labels)
        drawn = tuple(drawn.tolist())
    return AnchorDataset(
        X=values[:, : scm.d],
        Y=values[:, scm.y_index],
        A=a_vals,
        level_codes=codes,
        level_labels=drawn,
    )


def _anchor_root(anchor: AnchorDistribution) -> np.ndarray:
    """Symmetric square root G^{1/2} of the anchor's second moment."""
    vals, vecs = np.linalg.eigh(anchor.second_moment())
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _population_moments(scm, anchor, kappa, xi_cov, noise_cov) -> numkern.AnchorMoments:
    """Population moments of (X, Y) when the anchor input is kappa * A + xi.

    The anchor coordinates R = kappa G^{1/2} M'(Id - B)^{-T}, restricted to
    the (X, Y) columns, satisfy R'R = Cov(., A) G^{-1} Cov(A, .). What the
    anchor leaves is the noise and xi pushed through the system, so the
    off-anchor Gram is formed from them and never as Sigma - R'R.
    """
    root = _anchor_root(anchor)
    inv = scm.unmixing()[: scm.d + 1]
    on = kappa * root @ scm.M.T @ inv.T
    shocks = noise_cov
    if xi_cov is not None:
        q = root.shape[0]
        shocks = shocks + scm.M @ np.asarray(xi_cov, float).reshape(q, q) @ scm.M.T
    return numkern.AnchorMoments(on=on, gram_off=inv @ shocks @ inv.T)


def population_anchor(scm: LinearScm, gamma: float) -> np.ndarray:
    """Population coefficient for penalty weight gamma. gamma = inf is the IV
    limit, the training-MSE minimizer subject to E[A (Y - X'b)] = 0; it
    exists only under projectability, and ProjectabilityViolated is raised
    otherwise."""
    if not gamma >= 0:
        raise DomainError(f"gamma must be nonnegative, got {gamma}")
    return scm.moments.path.coef(gamma)


def shift_risk(scm: LinearScm, b: np.ndarray, shift: Shift | None = None):
    """Exact population MSE of b under the shifted distribution: the risk
    w' Sigma_eps w with no anchor input (the off-anchor part of
    `worst_case_risk`) plus the energy of the shift along w. Stacks of b and
    of shift vectors give a risk per row, paired when both are stacks."""
    w = scm.residual_weights(b)
    risk = np.vecdot(w * scm.noise_scales**2, w)
    if shift is not None and shift.vector is not None:
        risk = risk + np.vecdot(w, shift.vector) ** 2
    elif shift is not None:
        risk = risk + np.vecdot(w @ shift.covariance, w)
    return numkern.unstack(risk)


def worst_case_risk(scm: LinearScm, b: np.ndarray, gamma: float):
    """Penalized criterion at b (or each row of a stack) from the model's
    moments, off-anchor + gamma on-anchor; equals the supremum of shift_risk
    over the gamma-ellipsoid."""
    if not gamma >= 0:
        raise DomainError(f"gamma must be nonnegative, got {gamma}")
    off, on = numkern.residual_energy(scm.moments, b)
    return off + gamma * on


@dataclass(frozen=True)
class PerturbationSet:
    """Ellipsoid of shifts {v : v v' <= Q} with Q = gamma * M G M'."""

    gamma: float
    bound: np.ndarray

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors, kept) of `bound`: `kept` masks the
        eigenvalues above RANK_TOL times the largest, which span range(Q)."""
        vals, vecs = np.linalg.eigh(self.bound)
        return vals, vecs, vals > RANK_TOL * max(float(vals.max()), 1e-300)

    @property
    def half(self) -> np.ndarray:
        """Q^{1/2} on range(Q), sqrt(lambda_k) v_k over the kept eigenpairs."""
        vals, vecs, keep = self._eigen
        return vecs[:, keep] * np.sqrt(vals[keep])

    def contains(self, v, tol: float = 1e-9):
        """v is inside iff v lies in range(Q) and v' Q^+ v <= 1, per row of a stack."""
        vals, vecs, keep = self._eigen
        v = np.asarray(v, dtype=float)
        coords = v @ vecs
        off_range = np.abs(coords[..., ~keep]).max(axis=-1, initial=0.0)
        quad = np.sum(coords[..., keep] ** 2 / vals[keep], axis=-1)
        in_range = off_range <= tol * np.maximum(1.0, np.sqrt(np.vecdot(v, v)))
        return numkern.unstack(in_range & (quad <= 1.0 + tol))

    def boundary_grid(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Points v = Q^{1/2} u with u uniform on the sphere in range(Q)."""
        half = self.half
        if half.shape[1] == 0:
            return np.zeros((count, self.bound.shape[0]))
        u = rng.standard_normal((count, half.shape[1]))
        # a column at a time: a norm over rows of length k costs more than
        # the whole grid product
        norm = u[:, 0] * u[:, 0]
        for column in u.T[1:]:
            norm += column * column
        u /= np.sqrt(norm)[:, None]
        return u @ half.T


def perturbation_set(scm: LinearScm, gamma: float) -> PerturbationSet:
    if not 0 <= gamma < math.inf:
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma}")
    gram = scm.anchor.second_moment()
    return PerturbationSet(gamma=float(gamma), bound=gamma * scm.M @ gram @ scm.M.T)


def projectability_check(model_or_ds) -> dict:
    """Rank test: can the anchor-projected residual be driven to zero?

    Works on a LinearScm (population moments) or an AnchorDataset (the
    moments of the centred sample, per row). Returns {"holds": bool,
    "penalty_min": float}, the consistency of R_x b = R_y and the on-anchor
    energy ||R_y - R_x b||^2 at the IV limit of `numkern.GammaPath`.
    """
    if isinstance(model_or_ds, LinearScm):
        moments, rows = model_or_ds.moments, 1
    else:
        ds = center(model_or_ds)
        moments, rows = ds.moments, ds.n
    path = moments.path
    return {"holds": bool(path.consistent), "penalty_min": path.penalty / rows}


@dataclass(frozen=True)
class ReplicabilityScenario:
    """Train/test pair sharing (B, M) but with rescaled anchors and noise.

    The anchor input is kappa * A + xi with xi mean-zero noise independent
    of A; the test side uses its own anchor distribution, kappa and xi, and
    noise covariance L times the training one (unless overridden to create
    a counterexample).
    """

    base: LinearScm
    kappa: float = 1.0
    xi_cov: np.ndarray | None = None
    test_anchor: AnchorDistribution | None = None
    kappa_test: float = 1.0
    xi_cov_test: np.ndarray | None = None
    noise_factor: float = 1.0
    test_noise_scales: np.ndarray | None = None

    def __post_init__(self):
        if self.kappa == 0.0 or self.kappa_test == 0.0:
            raise DomainError("kappa must be nonzero on both sides")
        if self.noise_factor <= 0.0:
            raise DomainError("noise factor must be positive")


def replicability_experiment(scen: ReplicabilityScenario) -> dict:
    """Population IV-limit coefficients on both sides and their gap."""
    scm = scen.base
    train_noise = scm.noise_covariance()
    if scen.test_noise_scales is not None:
        test_noise = np.diag(np.asarray(scen.test_noise_scales, float) ** 2)
    else:
        test_noise = scen.noise_factor * train_noise
    train = _population_moments(scm, scm.anchor, scen.kappa, scen.xi_cov, train_noise)
    test_anchor = scen.test_anchor if scen.test_anchor is not None else scm.anchor
    test = _population_moments(scm, test_anchor, scen.kappa_test, scen.xi_cov_test, test_noise)
    b_train = train.path.coef(math.inf)
    b_test = test.path.coef(math.inf)
    return {
        "b_train": b_train,
        "b_test": b_test,
        "discrepancy": float(np.max(np.abs(b_train - b_test))),
    }


def total_causal_effect(scm: LinearScm) -> np.ndarray:
    """Gradient of E[Y | do(X = x)]: cut all edges into X, re-solve."""
    if not scm.is_acyclic:
        raise CyclicGraph("total causal effects require an acyclic graph")
    cut = scm.B.copy()
    cut[: scm.d, :] = 0.0
    inv = np.linalg.inv(np.eye(scm.p) - cut)
    return inv[scm.y_index, : scm.d].copy()


# --- graph machinery -------------------------------------------------------

def _reach(adj: np.ndarray, start: np.ndarray, blocked: np.ndarray | None = None) -> np.ndarray:
    """Mask of the nodes reached from the `start` mask by steps from node k
    to each l with adj[k, l], never entering a `blocked` node; the start
    nodes that are not blocked count as reached. On `LinearScm.parents` a
    step goes to a parent, on its transpose to a child."""
    open_ = np.ones(len(adj), dtype=bool) if blocked is None else ~blocked
    seen = frontier = start & open_
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & open_ & ~seen
        seen = seen | frontier
    return seen


def _node_mask(scm: LinearScm, nodes) -> np.ndarray:
    """Mask over the p + q nodes of the ids in `nodes`, or DomainError unless
    each is an integer in 0..p+q-1."""
    size = scm.p + scm.q
    try:
        ids = np.asarray(nodes)
    except ValueError:  # ragged nesting
        ids = None
    if ids is None or ids.size and (
        ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= size
    ):
        raise DomainError(f"node ids must be integers in 0..{size - 1}, got {nodes!r}")
    mask = np.zeros(size, dtype=bool)
    mask[ids.astype(np.intp)] = True
    return mask


def d_separated(scm: LinearScm, first, second, given=()) -> bool:
    """Whether `given` d-separates the node sets `first` and `second`, read
    on the moral ancestral graph (Lauritzen, Dawid, Larsen & Leimer 1990):
    the ancestors of all three sets, with the parents of each common child
    joined, must leave no node of `second` reachable from `first` once the
    nodes of `given` are removed. A node in `given` is separated from all.

    Node ids: 0..d-1 the predictors, d the response, d+1..p-1 the hidden
    variables, p..p+q-1 the anchors.
    """
    if not scm.is_acyclic:
        raise CyclicGraph("d-separation is defined on acyclic graphs only")
    first, second, given = (_node_mask(scm, nodes) for nodes in (first, second, given))
    ancestral = scm.parents & _reach(scm.parents, first | second | given)[:, None]
    moral = ancestral | ancestral.T | (ancestral.T @ ancestral)
    return not (_reach(moral, first, given) & second).any()


def _hidden_confounder(scm: LinearScm) -> bool:
    """Whether some hidden node is a common cause of X and Y: it has a
    directed path into some X_k and one into Y that runs through no X."""
    children = scm.parents.T
    nodes = np.arange(len(children))
    predictors = nodes < scm.d
    return any(
        _reach(children, nodes == h, predictors)[scm.y_index]
        and _reach(children, nodes == h)[predictors].any()
        for h in range(scm.d + 1, scm.p)
    )


def anchor_stability_causal_check(
    scm: LinearScm,
    gamma_grid=(0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0),
    tol: float = 1e-6,
) -> dict:
    """Certify the stability-implies-causality chain on a population model.

    Preconditions: acyclic graph, projectability, and every predictor is
    directly shifted by some anchor. Reports the full gamma path, whether
    it collapses to a single vector, agreement with the do-gradient, and
    absence of hidden X-Y confounders.
    """
    if not scm.is_acyclic:
        raise AssumptionViolated("graph must be acyclic", which="acyclic")
    if not scm.moments.path.consistent:
        raise AssumptionViolated("projectability fails", which="projectability")
    if not scm.parents[: scm.d, scm.p :].any(axis=1).all():
        raise AssumptionViolated(
            "every predictor needs a direct anchor shift", which="anchor_coverage"
        )
    b_zero = population_anchor(scm, 0.0)
    b_inf = population_anchor(scm, math.inf)
    path = {float(g): population_anchor(scm, g) for g in gamma_grid}
    scale = max(float(np.max(np.abs(b_zero))), 1.0)
    endpoint_gap = float(np.max(np.abs(b_zero - b_inf)))
    path_gap = max(
        (float(np.max(np.abs(bg - b_zero))) for bg in path.values()), default=0.0
    )
    stable = endpoint_gap < tol * scale and path_gap < tol * scale
    report = {
        "stable": stable,
        "endpoint_gap": endpoint_gap,
        "path_gap": path_gap,
        "b_zero": b_zero,
        "b_infinity": b_inf,
        "gamma_path": path,
    }
    if stable:
        effect = total_causal_effect(scm)
        report["total_effect"] = effect
        report["effect_gap"] = float(np.max(np.abs(b_zero - effect)))
        report["matches_total_effect"] = report["effect_gap"] < tol * scale
        report["hidden_confounder"] = _hidden_confounder(scm)
    return report


# --- serialization ---------------------------------------------------------

def scm_to_dict(scm: LinearScm) -> dict:
    anchor = {"kind": scm.anchor.kind}
    if scm.anchor.kind == "gaussian":
        anchor["gram"] = scm.anchor.gram.tolist()
    else:
        anchor["levels"] = scm.anchor.levels.tolist()
        anchor["probs"] = scm.anchor.probs.tolist()
    return {
        "d": scm.d,
        "r": scm.r,
        "q": scm.q,
        "B": scm.B.tolist(),
        "M": scm.M.tolist(),
        "noise_scales": scm.noise_scales.tolist(),
        "anchor": anchor,
    }


def scm_from_dict(spec: dict) -> LinearScm:
    """The model a parsed JSON spec describes. A missing top-level field or
    anchor kind raises KeyError; any other malformed field raises
    DomainError naming it. `q` may be left out; if present it must be the
    anchor's width."""
    if not isinstance(spec, dict):
        raise DomainError("a model spec must be a JSON object")
    anchor_spec = spec["anchor"]
    if not isinstance(anchor_spec, dict):
        raise DomainError("anchor must be a JSON object")
    kind = anchor_spec["kind"]
    if kind == "rademacher":
        anchor = AnchorDistribution.rademacher()
    else:
        anchor = AnchorDistribution(
            kind=kind,
            gram=anchor_spec.get("gram"),
            levels=anchor_spec.get("levels"),
            probs=anchor_spec.get("probs"),
        )
    q = spec.get("q", anchor.q)
    if isinstance(q, bool) or not isinstance(q, int) or q != anchor.q:
        raise DomainError(f"q must be the anchor's width {anchor.q}, got {q!r}")
    return LinearScm(
        d=spec["d"],
        r=spec["r"],
        B=spec["B"],
        M=spec["M"],
        noise_scales=spec["noise_scales"],
        anchor=anchor,
    )


def load_scm(path) -> LinearScm:
    with open(path, encoding="utf-8") as fh:
        return scm_from_dict(json.load(fh))


def save_scm(path, scm: LinearScm) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scm_to_dict(scm), fh, indent=2)

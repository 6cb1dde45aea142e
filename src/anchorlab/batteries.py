"""Seeded random-model generators and the certification battery.

The battery re-derives the library's population-level guarantees on freshly
drawn models: the worst-case-risk identity, its random-shift variant, the
projectability equivalence, replicability of the IV limit, and the
stability-implies-causality chain. Each model's coefficient vectors, grid
and shifts are scored as one stack, drawn in the RNG order of one at a time.
The CLI `verify` subcommand runs it and fails hard when any check misses its
tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from . import numkern
from .scm import (
    AnchorDistribution,
    LinearScm,
    ReplicabilityScenario,
    Shift,
    anchor_stability_causal_check,
    perturbation_set,
    projectability_check,
    replicability_experiment,
    shift_risk,
    worst_case_risk,
)


def random_acyclic_matrix(rng, p: int, density: float = 0.6, scale: float = 1.2) -> np.ndarray:
    """Strictly lower-triangular in a random node order, so always acyclic."""
    order = rng.permutation(p)
    mat = np.zeros((p, p))
    for i in range(p):
        for j in range(i):
            if rng.random() < density:
                mat[order[i], order[j]] = rng.uniform(-scale, scale)
    return mat


def random_scm(
    rng,
    d: int = 1,
    r: int = 1,
    q: int = 1,
    density: float = 0.6,
    anchor_kind: str = "gaussian",
) -> LinearScm:
    p = d + 1 + r
    B = random_acyclic_matrix(rng, p, density)
    M = np.where(
        rng.random((p, q)) < 0.7, rng.uniform(-1.5, 1.5, size=(p, q)), 0.0
    )
    if not M.any():
        M[rng.integers(p), rng.integers(q)] = rng.uniform(0.5, 1.5)
    if anchor_kind == "rademacher" and q == 1:
        anchor = AnchorDistribution.rademacher()
    else:
        root = rng.uniform(-1.0, 1.0, size=(q, q))
        anchor = AnchorDistribution.gaussian(root @ root.T + 0.3 * np.eye(q))
    return LinearScm(
        d=d,
        r=r,
        B=B,
        M=M,
        noise_scales=rng.uniform(0.5, 1.5, size=p),
        anchor=anchor,
    )


def random_stable_scm(rng, d: int = 2) -> LinearScm:
    """Anchors feed each predictor, predictors feed the response, no hidden
    variables: the whole coefficient path collapses to the causal effect."""
    p = d + 1
    B = np.zeros((p, p))
    B[d, :d] = rng.uniform(-1.5, 1.5, size=d)  # Y <- X
    M = np.zeros((p, d))
    for k in range(d):
        M[k, k] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
    return LinearScm(
        d=d,
        r=0,
        B=B,
        M=M,
        noise_scales=rng.uniform(0.5, 1.5, size=p),
        anchor=AnchorDistribution.gaussian(np.eye(d)),
    )


def random_scenario(rng, d: int = 2, q: int = 2) -> ReplicabilityScenario:
    """Replicability scenario whose base model satisfies projectability."""
    q = min(q, d)
    while True:
        base = random_scm(rng, d=d, r=1, q=q)
        if projectability_check(base)["holds"]:
            break
    xi_root = rng.uniform(-0.7, 0.7, size=(q, q))
    xi_root_t = rng.uniform(-0.7, 0.7, size=(q, q))
    root = rng.uniform(-1.0, 1.0, size=(q, q))
    return ReplicabilityScenario(
        base=base,
        kappa=rng.uniform(0.3, 2.0),
        xi_cov=xi_root @ xi_root.T,
        test_anchor=AnchorDistribution.gaussian(root @ root.T + 0.2 * np.eye(q)),
        kappa_test=rng.uniform(0.3, 2.0),
        xi_cov_test=xi_root_t @ xi_root_t.T,
        noise_factor=rng.uniform(0.3, 3.0),
    )


def _bounded_random_shift_cov(rng, half: np.ndarray) -> np.ndarray:
    """Random covariance dominated by Q = half @ half.T in the PSD order."""
    p, k = half.shape
    if k == 0:
        return np.zeros((p, p))
    raw = rng.standard_normal((k, k))
    inner = raw @ raw.T
    top = float(np.linalg.eigvalsh(inner).max())
    inner *= rng.uniform(0.1, 1.0) / max(top, 1e-300)
    return half @ inner @ half.T


def _worst_case_report(model: LinearScm, pset, points: np.ndarray, coefs: np.ndarray) -> dict:
    """worst_case_risk against the shift risk at each row b of `coefs`.

    The supremum of (w'v)^2 over {v v' <= Q} is w'Qw, attained at
    v* = Qw / sqrt(w'Qw) (v* = 0 when w'Qw = 0). Passes when the risk at v*
    matches to 1e-12 relative, v* lies in the set, and no grid point, which
    may undershoot, exceeds the supremum by more than 1e-8.
    """
    w = model.residual_weights(coefs)
    risk = worst_case_risk(model, coefs, pset.gamma)
    qw = w @ pset.bound.T
    energy = np.vecdot(w, qw)
    root = np.sqrt(np.maximum(energy, 0.0))[:, None]
    v_star = np.divide(qw, root, out=np.zeros_like(qw), where=root > 0.0)
    at_star = shift_risk(model, coefs, Shift(vector=v_star))
    exact = np.abs(at_star - risk) / np.maximum(np.abs(risk), 1e-300)
    along = w @ points.T  # reducing the (count, n_b) product down its columns is far slower
    reach = np.maximum(along.max(axis=1), -along.min(axis=1)) ** 2
    grid = shift_risk(model, coefs) + reach - risk
    return {
        "passed": bool(exact.max() <= 1e-12 and pset.contains(v_star).all() and grid.max() <= 1e-8),
        "exact_gap": float(exact.max()),
        "min_gap": float(grid.min()),
        "max_gap": float(grid.max()),
    }


def check_worst_case_identity(
    seed: int = 0,
    n_models: int = 100,
    n_b: int = 10,
    grid_points: int = 10_000,
) -> dict:
    """Penalized criterion vs. the shift risk at the maximizing shift v*,
    and vs. a boundary grid that must never exceed it."""
    rng = numkern.make_rng(seed)
    reports = []
    for _ in range(n_models):
        d = int(rng.integers(1, 3))
        r = int(rng.integers(0, 3 - d + 1))
        q = int(rng.integers(1, 3))
        model = random_scm(rng, d=d, r=r, q=q)
        gamma = float(rng.uniform(0.1, 8.0))
        pset = perturbation_set(model, gamma)
        points = pset.boundary_grid(grid_points, rng)
        coefs = rng.uniform(-2.0, 2.0, size=(n_b, d))
        reports.append(_worst_case_report(model, pset, points, coefs))
    return {
        "name": "worst_case_identity",
        "passed": all(rep["passed"] for rep in reports),
        "exact_gap": max(rep["exact_gap"] for rep in reports),
        "min_gap": min(rep["min_gap"] for rep in reports),
        "max_gap": max(rep["max_gap"] for rep in reports),
        "tolerance": "exact_gap <= 1e-12 relative at v* in the set, max_gap <= 1e-8",
    }


def check_random_shift_bound(seed: int = 0, n_models: int = 50, n_b: int = 5) -> dict:
    """Random shifts with second moment inside the ellipsoid never exceed
    the worst-case risk (up to 1e-9)."""
    rng = numkern.make_rng(seed)
    worst = -np.inf
    for _ in range(n_models):
        model = random_scm(
            rng, d=int(rng.integers(1, 3)), r=1, q=int(rng.integers(1, 3))
        )
        gamma = float(rng.uniform(0.1, 8.0))
        cov = _bounded_random_shift_cov(rng, perturbation_set(model, gamma).half)
        coefs = rng.uniform(-2.0, 2.0, size=(n_b, model.d))
        excess = shift_risk(model, coefs, Shift(covariance=cov)) - worst_case_risk(model, coefs, gamma)
        worst = max(worst, float(excess.max(initial=-np.inf)))
    return {
        "name": "random_shift_bound",
        "passed": worst <= 1e-9,
        "max_excess": worst,
        "tolerance": "<= 1e-9",
    }


def check_projectability_equivalence(seed: int = 0, n_models: int = 50) -> dict:
    """Rank condition agrees with penalty_min < 1e-8 on random models."""
    rng = numkern.make_rng(seed)
    agreements = 0
    for i in range(n_models):
        if i % 2 == 0:
            model = random_scm(rng, d=2, r=1, q=int(rng.integers(1, 3)))
        else:
            # q > d with an independent anchor channel into Y: often fails
            model = random_scm(rng, d=1, r=1, q=2, density=0.8)
        check = projectability_check(model)
        agreements += check["holds"] == (check["penalty_min"] < 1e-8)
    return {
        "name": "projectability_equivalence",
        "passed": agreements == n_models,
        "agreements": agreements,
        "total": n_models,
    }


def check_replicability(seed: int = 0, n_scenarios: int = 20) -> dict:
    """IV-limit coefficients agree across scenario sides to 1e-8."""
    rng = numkern.make_rng(seed)
    worst = 0.0
    for _ in range(n_scenarios):
        scen = random_scenario(rng, d=int(rng.integers(2, 4)), q=2)
        worst = max(worst, replicability_experiment(scen)["discrepancy"])
    return {
        "name": "replicability",
        "passed": worst < 1e-8,
        "max_discrepancy": worst,
        "tolerance": "< 1e-8",
    }


def check_stability_chain(seed: int = 0, n_models: int = 50, n_shifts: int = 100) -> dict:
    """On stable constructions: endpoint equality, whole-path collapse,
    agreement with the do-gradient (read from anchor_stability_causal_check),
    and shift-risk constancy on span(M)."""
    rng = numkern.make_rng(seed)
    gamma_grid = np.geomspace(1e-3, 1e3, 25)
    worst_end, worst_path, worst_effect, worst_const = 0.0, 0.0, 0.0, 0.0
    for _ in range(n_models):
        model = random_stable_scm(rng, d=int(rng.integers(1, 4)))
        report = anchor_stability_causal_check(model, gamma_grid)
        worst_end = max(worst_end, report["endpoint_gap"])
        worst_path = max(worst_path, report["path_gap"])
        # the library compares with the do-gradient only on a stable path
        worst_effect = max(worst_effect, report.get("effect_gap", math.inf))
        b_zero = report["b_zero"]
        shifts = rng.uniform(-3.0, 3.0, size=(n_shifts, model.q)) @ model.M.T
        change = shift_risk(model, b_zero, Shift(vector=shifts)) - shift_risk(model, b_zero)
        worst_const = max(worst_const, float(np.max(np.abs(change), initial=0.0)))
    return {
        "name": "stability_chain",
        "passed": (
            worst_end < 1e-8
            and worst_path < 1e-7
            and worst_effect < 1e-8
            and worst_const < 1e-9
        ),
        "max_endpoint_gap": worst_end,
        "max_path_gap": worst_path,
        "max_effect_gap": worst_effect,
        "max_risk_variation": worst_const,
    }


def check_quantile_identity(seed: int = 0, n_draws: int = 10_000) -> dict:
    """Monte-Carlo check that conditional-MSE quantiles match the penalized
    objective with the chi-squared(1) weight on a Gaussian model."""
    rng = numkern.make_rng(seed)
    model = random_scm(rng, d=2, r=1, q=2, anchor_kind="gaussian")
    b = rng.uniform(-2.0, 2.0, size=model.d)
    w = model.residual_weights(b)
    gram = model.anchor.second_moment()
    chol = np.linalg.cholesky(gram + 1e-15 * np.eye(model.q))
    draws = rng.standard_normal((n_draws, model.q)) @ chol.T
    cond_mse = shift_risk(model, b) + (draws @ (model.M.T @ w)) ** 2
    worst_rel = 0.0
    details = {}
    for alpha in (0.5, 0.9, 0.95):
        gamma = numkern.chi2_1_quantile(alpha)
        predicted = worst_case_risk(model, b, gamma)
        empirical = float(np.quantile(cond_mse, alpha))
        se = _quantile_mc_se(cond_mse, alpha)
        gap = abs(empirical - predicted)
        details[str(alpha)] = {"gap": gap, "three_se": 3 * se}
        worst_rel = max(worst_rel, gap / max(3 * se, 1e-300))
    return {
        "name": "quantile_identity",
        "passed": worst_rel <= 1.0,
        "worst_gap_over_3se": worst_rel,
        "per_alpha": details,
    }


def _quantile_mc_se(sample: np.ndarray, alpha: float) -> float:
    """Bootstrap-free quantile standard error via the density estimate."""
    n = sample.size
    order = np.sort(sample)
    k = int(alpha * n)
    lo, hi = max(k - n // 50, 0), min(k + n // 50, n - 1)
    density = (hi - lo) / n / max(order[hi] - order[lo], 1e-300)
    return float(np.sqrt(alpha * (1 - alpha) / n) / max(density, 1e-300))


DEFAULT_BATTERY = (
    check_worst_case_identity,
    check_random_shift_bound,
    check_projectability_equivalence,
    check_replicability,
    check_stability_chain,
    check_quantile_identity,
)


def run_battery(seed: int = 0, checks=DEFAULT_BATTERY) -> dict:
    results = [check(seed=seed) for check in checks]
    return {
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }


def run_scm_checks(scm: LinearScm, seed: int = 0) -> dict:
    """Model-specific certification for a user-supplied system."""
    rng = numkern.make_rng(seed)
    results = []
    gamma = 5.0
    pset = perturbation_set(scm, gamma)
    points = pset.boundary_grid(10_000, rng)
    coefs = rng.uniform(-2.0, 2.0, size=(10, scm.d))
    results.append({"name": "worst_case_identity", **_worst_case_report(scm, pset, points, coefs)})
    check = projectability_check(scm)
    results.append(
        {
            "name": "projectability_equivalence",
            "passed": check["holds"] == (check["penalty_min"] < 1e-8),
            **check,
        }
    )
    return {"seed": seed, "passed": all(r["passed"] for r in results), "checks": results}

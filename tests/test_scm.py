import math
import re

import numpy as np
import pytest

from anchorlab import numkern
from anchorlab.batteries import random_acyclic_matrix, random_scm, random_stable_scm
from anchorlab.exceptions import (
    AssumptionViolated,
    CyclicGraph,
    DomainError,
    ProjectabilityViolated,
)
from anchorlab.scm import (
    AnchorDistribution,
    LinearScm,
    ReplicabilityScenario,
    Shift,
    anchor_stability_causal_check,
    d_separated,
    example_confounder_shift,
    example_iv_chain,
    graph_parents,
    load_scm,
    perturbation_set,
    population_anchor,
    projectability_check,
    replicability_experiment,
    sample,
    save_scm,
    scm_from_dict,
    scm_to_dict,
    shift_risk,
    total_causal_effect,
    worst_case_risk,
)

import oracles


class TestSampling:
    def test_example_covariances(self):
        model = example_iv_chain()
        ds = sample(model, 10**6, numkern.make_rng(0))
        assert np.var(ds.X[:, 0]) == pytest.approx(3.0, abs=0.02)
        assert np.cov(ds.X[:, 0], ds.Y)[0, 1] == pytest.approx(5.0, abs=0.02)

    def test_no_anchor_effect_when_m_zero(self):
        model = example_iv_chain()
        zero_m = LinearScm(
            d=1, r=1, B=model.B, M=np.zeros((3, 1)),
            noise_scales=model.noise_scales, anchor=model.anchor,
        )
        ds = sample(zero_m, 50_000, numkern.make_rng(1))
        corr = np.cov(ds.A[:, 0], ds.X[:, 0])[0, 1]
        assert abs(corr) < 3.0 * np.sqrt(np.var(ds.X) / ds.n)

    def test_zero_shift_matches_noise_only_moments(self):
        model = example_iv_chain()
        ds = sample(model, 10**6, numkern.make_rng(2), shift=Shift(vector=np.zeros(3)))
        inv = model.unmixing()
        target = inv @ model.noise_covariance() @ inv.T
        assert np.var(ds.X[:, 0]) == pytest.approx(target[0, 0], abs=0.02)
        assert np.var(ds.Y) == pytest.approx(target[1, 1], abs=0.05)

    def test_discrete_anchor_levels_partition(self):
        ds = sample(example_iv_chain(), 1000, numkern.make_rng(3))
        sizes = [len(ix) for ix in ds.anchor_levels.values()]
        assert sum(sizes) == 1000

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample(example_iv_chain(), 0, numkern.make_rng(0))


class TestPopulationCovariance:
    def test_example_values(self):
        joint = oracles.population_covariance(example_iv_chain())
        # order (X, Y, H, A)
        assert joint[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert joint[0, 1] == pytest.approx(5.0, abs=1e-12)
        assert joint[1, 1] == pytest.approx(12.0, abs=1e-12)
        assert joint[3, 0] == pytest.approx(1.0, abs=1e-12)
        assert joint[3, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_components(self):
        model = LinearScm(
            d=1, r=1, B=np.zeros((3, 3)), M=np.zeros((3, 1)),
            noise_scales=np.array([1.0, 2.0, 3.0]),
            anchor=AnchorDistribution.rademacher(),
        )
        joint = oracles.population_covariance(model)
        assert np.allclose(joint[:3, :3], np.diag([1.0, 4.0, 9.0]))
        assert np.allclose(joint[:3, 3], 0.0)

    def test_cyclic_neumann_series(self):
        # spectral radius 0.5 cycle: covariance equals the series limit
        B = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        model = LinearScm(
            d=1, r=1, B=B, M=np.zeros((3, 1)),
            noise_scales=np.ones(3),
            anchor=AnchorDistribution.rademacher(),
        )
        series = np.zeros((3, 3))
        power = np.eye(3)
        for _ in range(200):
            series += power
            power = power @ B
        target = series @ np.eye(3) @ series.T
        joint = oracles.population_covariance(model)
        assert np.max(np.abs(joint[:3, :3] - target)) < 1e-10

    def test_sample_agreement(self):
        model = example_iv_chain()
        joint = oracles.population_covariance(model)
        ds = sample(model, 10**6, numkern.make_rng(4))
        values = np.column_stack([ds.X[:, 0], ds.Y, ds.A[:, 0]])
        emp = np.cov(values.T)
        pop = joint[np.ix_([0, 1, 3], [0, 1, 3])]
        assert np.max(np.abs(emp - pop)) < 0.06  # ~4 MC standard errors


class TestPopulationAnchor:
    def test_closed_form(self):
        model = example_iv_chain()
        for gamma in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 1e6):
            assert population_anchor(model, gamma)[0] == pytest.approx(
                (4.0 + gamma) / (2.0 + gamma), abs=1e-10
            )

    def test_endpoints(self):
        model = example_iv_chain()
        assert population_anchor(model, 0.0)[0] == pytest.approx(2.0, abs=1e-12)
        assert population_anchor(model, 1.0)[0] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert population_anchor(model, math.inf)[0] == pytest.approx(1.0, abs=1e-12)

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            population_anchor(example_iv_chain(), -2.0)


class TestShiftRisk:
    def test_iv_flat_under_anchor_shifts(self):
        model = example_iv_chain()
        for t in range(-10, 11):
            risk = shift_risk(model, np.array([1.0]), Shift(vector=np.array([t, 0.0, 0.0])))
            assert abs(risk - 5.0) < 1e-12

    def test_ols_base_risk(self):
        assert shift_risk(example_iv_chain(), np.array([5.0 / 3.0])) == pytest.approx(
            29.0 / 9.0, abs=1e-12
        )

    def test_zero_shift_equals_noise_risk(self):
        model = example_iv_chain()
        rng = numkern.make_rng(5)
        inv = model.unmixing()
        noise_cov = inv @ model.noise_covariance() @ inv.T
        for _ in range(5):
            b = rng.uniform(-2, 2, size=1)
            expected = noise_cov[1, 1] - 2 * b[0] * noise_cov[0, 1] + b[0] ** 2 * noise_cov[0, 0]
            assert shift_risk(model, b) == pytest.approx(expected, abs=1e-10)


class TestWorstCaseRisk:
    def test_example_closed_form(self):
        model = example_iv_chain()
        rng = numkern.make_rng(6)
        for _ in range(10):
            b = float(rng.uniform(-2, 3))
            gamma = float(rng.uniform(0, 10))
            expected = (3 - b) ** 2 + (1 - b) ** 2 + 1 + gamma * (1 - b) ** 2
            assert worst_case_risk(model, np.array([b]), gamma) == pytest.approx(
                expected, abs=1e-10
            )

    def test_gamma_one_is_training_mse(self):
        model = example_iv_chain()
        joint = oracles.population_covariance(model)
        rng = numkern.make_rng(7)
        for _ in range(5):
            b = float(rng.uniform(-2, 3))
            mse = joint[1, 1] - 2 * b * joint[0, 1] + b * b * joint[0, 0]
            assert worst_case_risk(model, np.array([b]), 1.0) == pytest.approx(mse, abs=1e-10)

    def test_grid_supremum_certification(self):
        rng = numkern.make_rng(8)
        for seed in range(5):
            model = random_scm(rng, d=2, r=1, q=2)
            gamma = float(rng.uniform(0.2, 6.0))
            pset = perturbation_set(model, gamma)
            points = pset.boundary_grid(10_000, rng)
            noise_cov = model.noise_covariance()
            for _ in range(3):
                b = rng.uniform(-2, 2, size=2)
                w = model.residual_weights(b)
                base = float(w @ noise_cov @ w)
                grid_sup = base + float(np.max((points @ w) ** 2))
                wc = worst_case_risk(model, b, gamma)
                assert grid_sup <= wc + 1e-8
                assert grid_sup >= wc - 1e-4 * max(wc, 1.0)

    def test_stacks_score_row_by_row(self):
        model = random_scm(numkern.make_rng(11), d=2, r=1, q=2)
        rng = numkern.make_rng(12)
        coefs = rng.uniform(-2, 2, size=(6, 2))
        shifts = rng.uniform(-1, 1, size=(6, model.p))
        cov = Shift(covariance=np.diag(rng.uniform(0, 1, size=model.p)))
        b = coefs[0]
        cases = [
            (shift_risk(model, coefs), [shift_risk(model, c) for c in coefs]),
            (shift_risk(model, coefs, cov), [shift_risk(model, c, cov) for c in coefs]),
            (
                shift_risk(model, coefs, Shift(vector=shifts)),
                [shift_risk(model, c, Shift(vector=v)) for c, v in zip(coefs, shifts)],
            ),
            (
                shift_risk(model, b, Shift(vector=shifts)),
                [shift_risk(model, b, Shift(vector=v)) for v in shifts],
            ),
            (worst_case_risk(model, coefs, 3.0), [worst_case_risk(model, c, 3.0) for c in coefs]),
        ]
        for stacked, rows in cases:
            assert all(type(risk) is float for risk in rows)
            np.testing.assert_allclose(stacked, rows, rtol=1e-13)
        pset = perturbation_set(model, 3.0)
        candidates = np.vstack([pset.boundary_grid(4, rng) * 0.99, shifts])
        inside = [pset.contains(v) for v in candidates]
        assert all(type(answer) is bool for answer in inside)
        assert pset.contains(candidates).tolist() == inside == [True] * 4 + [False] * 6

    def test_nan_gamma_is_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            worst_case_risk(example_iv_chain(), np.array([1.0]), math.nan)


class TestPerturbationSet:
    def test_anchor_into_x_only(self):
        # shifts allowed exactly on the X coordinate up to strength gamma
        model = example_iv_chain()
        for gamma in (0.5, 1.0, 4.0):
            pset = perturbation_set(model, gamma)
            root = np.sqrt(gamma)
            assert pset.contains([0.999 * root, 0.0, 0.0])
            assert not pset.contains([1.01 * root, 0.0, 0.0])
            assert not pset.contains([0.1, 0.1, 0.0])

    def test_rank_one_tied_components(self):
        # single anchor feeding two components with weights (1, 2): members
        # must keep that ratio
        model = LinearScm(
            d=2, r=1, B=np.zeros((4, 4)),
            M=np.array([[1.0], [0.0], [0.0], [2.0]]),
            noise_scales=np.ones(4),
            anchor=AnchorDistribution.rademacher(),
        )
        pset = perturbation_set(model, 1.0)
        assert pset.contains([1.0, 0.0, 0.0, 2.0])
        assert not pset.contains([1.0, 0.0, 0.0, 0.0])

    def test_zero_always_inside(self):
        model = example_iv_chain()
        for gamma in (0.0, 1.0, 9.0):
            assert perturbation_set(model, gamma).contains(np.zeros(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma_must_be_finite_and_nonnegative(self, gamma):
        with pytest.raises(DomainError, match="nonnegative and finite"):
            perturbation_set(example_iv_chain(), gamma)

    def test_boundary_points_members(self):
        model = example_confounder_shift()
        pset = perturbation_set(model, 2.0)
        pts = pset.boundary_grid(50, numkern.make_rng(9))
        for v in pts:
            assert pset.contains(v, tol=1e-6)


class TestInvarianceSet:
    def test_members_have_invariant_risk(self):
        model = example_iv_chain()
        rng = numkern.make_rng(10)
        b = np.array([1.0])
        base = shift_risk(model, b, Shift(vector=model.M[:, 0]))
        for _ in range(100):
            v = model.M @ rng.uniform(-5, 5, size=1)
            assert shift_risk(model, b, Shift(vector=v)) == pytest.approx(base, abs=1e-10)


class TestProjectability:
    def test_full_rank_holds(self):
        check = projectability_check(example_iv_chain())
        assert check["holds"]
        assert check["penalty_min"] < 1e-12

    def test_direct_anchor_to_y_fails(self):
        # second anchor hits Y through an independent channel: rank 1 vs 2
        model = LinearScm(
            d=1, r=1, B=example_iv_chain().B,
            M=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            noise_scales=np.ones(3),
            anchor=AnchorDistribution.gaussian(np.eye(2)),
        )
        check = projectability_check(model)
        assert not check["holds"]
        assert check["penalty_min"] > 1e-4

    def test_no_anchor_path_into_x_fails(self):
        # X has no parents, so Cov(A, X) = 0; inverting Id - B leaves a
        # round-off entry of 4e-17 in R_x, which must not count as rank
        B = np.zeros((3, 3))
        B[1, 0], B[1, 2], B[2, 0] = 1.19, -1.03, -1.14
        model = LinearScm(
            d=1, r=1, B=B, M=np.array([[0.0, 0.0], [0.0, -0.4], [0.18, -1.07]]),
            noise_scales=np.ones(3),
            anchor=AnchorDistribution.gaussian(np.eye(2)),
        )
        r_y = model.moments.on[:, 1]
        check = projectability_check(model)
        assert not check["holds"]
        assert check["penalty_min"] == float(r_y @ r_y)
        with pytest.raises(ProjectabilityViolated):
            population_anchor(model, math.inf)

    def test_large_y_scale_does_not_hide_a_weak_anchor(self):
        # Y = 1e6 X_1: against ||[X Y]|| the weak anchor on X_2 (1e-8) would
        # fall under the rank cut; against the whitened design of X it does
        # not, and the system is consistent with b = (1e6, 0)
        B = np.zeros((3, 3))
        B[2, 0] = 1e6
        model = LinearScm(
            d=2, r=0, B=B, M=np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]]),
            noise_scales=np.ones(3),
            anchor=AnchorDistribution.gaussian(np.eye(2)),
        )
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(numkern, "solve_spd", None)
            b = population_anchor(model, math.inf)
        path = model.moments.path
        assert path.rank == 2 and path.consistent
        assert projectability_check(model)["holds"]
        assert np.array_equal(b, path.coef(math.inf))
        np.testing.assert_allclose(b, [1e6, 0.0], rtol=1e-12, atol=1e-6)

    def test_sample_version_agrees(self):
        model = example_iv_chain()
        ds = sample(model, 100_000, numkern.make_rng(11))
        check = projectability_check(ds)
        assert check["holds"]

    def test_sample_penalty_matches_whitened_covariances(self):
        rng = numkern.make_rng(19)
        for _ in range(5):
            model = random_scm(rng, d=1, r=1, q=2, density=0.8)
            ds = sample(model, 2000, rng)
            got, ref = projectability_check(ds), oracles.whitened_projectability(ds)
            assert got["holds"] == ref["holds"]
            assert got["penalty_min"] == pytest.approx(ref["penalty_min"], rel=1e-9, abs=1e-15)


class TestReplicability:
    def test_identical_sides_no_gap(self):
        scen = ReplicabilityScenario(base=example_iv_chain())
        out = replicability_experiment(scen)
        assert out["discrepancy"] < 1e-12

    def test_rescaled_anchors_and_noise_replicate(self):
        base = random_scm(numkern.make_rng(12), d=2, r=1, q=2)
        assert projectability_check(base)["holds"]
        scen = ReplicabilityScenario(
            base=base,
            kappa=1.7,
            xi_cov=0.3 * np.eye(2),
            test_anchor=AnchorDistribution.gaussian([[2.0, 0.4], [0.4, 1.0]]),
            kappa_test=0.6,
            xi_cov_test=0.1 * np.eye(2),
            noise_factor=2.5,
        )
        assert replicability_experiment(scen)["discrepancy"] < 1e-8

    def test_nonproportional_noise_breaks_replicability(self):
        # q < d leaves slack in the invariance set; changing the noise shape
        # (not a common factor) moves the constrained minimizer
        B = np.zeros((4, 4))
        B[0, 3] = 1.0  # X1 <- H
        B[1, 3] = 1.0  # X2 <- H
        B[2, 0] = 1.0  # Y <- X1
        B[2, 1] = 1.0  # Y <- X2
        B[2, 3] = 1.0  # Y <- H (confounding)
        base = LinearScm(
            d=2, r=1, B=B, M=np.array([[1.0], [0.5], [0.0], [0.0]]),
            noise_scales=np.ones(4),
            anchor=AnchorDistribution.rademacher(),
        )
        scen = ReplicabilityScenario(
            base=base, test_noise_scales=np.array([1.0, 3.0, 1.0, 1.0])
        )
        assert replicability_experiment(scen)["discrepancy"] > 0.01

    def test_invalid_kappa(self):
        with pytest.raises(DomainError):
            ReplicabilityScenario(base=example_iv_chain(), kappa=0.0)


class TestTotalCausalEffect:
    def test_example_direct_effect(self):
        assert total_causal_effect(example_iv_chain())[0] == pytest.approx(1.0)

    def test_effect_through_hidden_mediator(self):
        # X -> W -> Y with W hidden: path product 1 * 1 = 1
        B = np.zeros((3, 3))
        B[2, 0] = 1.0  # W <- X
        B[1, 2] = 1.0  # Y <- W
        model = LinearScm(
            d=1, r=1, B=B, M=np.array([[1.0], [0.0], [0.0]]),
            noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
        )
        assert total_causal_effect(model)[0] == pytest.approx(1.0)

    def test_joint_do_severs_predictor_mediator(self):
        # W observed in the X block: do(X) fixes W too, so only W's direct
        # edge into Y survives
        B = np.zeros((3, 3))
        B[1, 0] = 1.0  # W <- X
        B[2, 1] = 1.0  # Y <- W
        model = LinearScm(
            d=2, r=0, B=B, M=np.eye(3)[:, :2] * 0.8,
            noise_scales=np.ones(3), anchor=AnchorDistribution.gaussian(np.eye(2)),
        )
        assert np.allclose(total_causal_effect(model), [0.0, 1.0])

    def test_no_path_zero_effect(self):
        B = np.zeros((3, 3))
        B[1, 2] = 1.0  # Y <- H only
        model = LinearScm(
            d=1, r=1, B=B, M=np.array([[1.0], [0.0], [0.0]]),
            noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
        )
        assert total_causal_effect(model)[0] == 0.0

    def test_finite_difference_simulation(self):
        model = example_iv_chain()
        cut = model.B.copy()
        cut[: model.d, :] = 0.0
        surgical = LinearScm(
            d=model.d, r=model.r, B=cut, M=np.zeros_like(model.M),
            noise_scales=model.noise_scales, anchor=model.anchor,
        )
        rng = numkern.make_rng(13)
        delta = 1.0
        lo = sample(surgical, 400_000, rng, shift=Shift(vector=np.zeros(3)))
        hi = sample(surgical, 400_000, rng, shift=Shift(vector=np.array([delta, 0.0, 0.0])))
        fd = (hi.Y.mean() - lo.Y.mean()) / delta
        se = np.sqrt(np.var(hi.Y) / hi.n + np.var(lo.Y) / lo.n)
        assert abs(fd - total_causal_effect(model)[0]) < 3 * se

    def test_cyclic_rejected(self):
        B = np.array([[0.0, 0.8, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, 0.0]])
        model = LinearScm(
            d=1, r=1, B=B, M=np.zeros((3, 1)),
            noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
        )
        with pytest.raises(CyclicGraph):
            total_causal_effect(model)


class TestDSeparation:
    def _chain(self):
        # A -> X -> Y
        B = np.zeros((2, 2))
        B[1, 0] = 1.0
        return LinearScm(
            d=1, r=0, B=B, M=np.array([[1.0], [0.0]]),
            noise_scales=np.ones(2), anchor=AnchorDistribution.rademacher(),
        )

    def test_chain_blocking(self):
        model = self._chain()
        anchor_node = model.p  # node id of A
        assert d_separated(model, [anchor_node], [1], given=[0])
        assert not d_separated(model, [anchor_node], [1])

    def test_collider_opens_when_conditioned(self):
        # X -> Y <- H: X and H marginally independent, dependent given Y
        B = np.zeros((3, 3))
        B[1, 0] = 1.0
        B[1, 2] = 1.0
        model = LinearScm(
            d=1, r=1, B=B, M=np.array([[1.0], [0.0], [0.0]]),
            noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
        )
        assert d_separated(model, [0], [2])
        assert not d_separated(model, [0], [2], given=[1])

    def test_against_bruteforce_oracle(self):
        rng = numkern.make_rng(14)
        cases = 0
        while cases < 200:
            model = random_scm(rng, d=3, r=2, q=1, density=0.4)
            parents = graph_parents(model)
            nodes = len(parents)
            first = int(rng.integers(nodes))
            second = int(rng.integers(nodes))
            if second == first:
                continue
            k = int(rng.integers(0, 3))
            given = [
                int(v)
                for v in rng.choice(
                    [n for n in range(nodes) if n not in (first, second)],
                    size=k,
                    replace=False,
                )
            ]
            ours = d_separated(model, [first], [second], given)
            ref = oracles.d_separated_bruteforce(parents, [first], [second], given)
            assert ours == ref, (model.B, model.M, first, second, given)
            cases += 1


class TestStabilityCausalCheck:
    def test_stable_construction(self):
        model = random_stable_scm(numkern.make_rng(15), d=3)
        report = anchor_stability_causal_check(model)
        assert report["stable"]
        assert report["matches_total_effect"]
        assert not report["hidden_confounder"]

    def test_confounded_example_unstable(self):
        report = anchor_stability_causal_check(example_iv_chain())
        assert not report["stable"]
        assert report["b_zero"][0] == pytest.approx(2.0, abs=1e-10)
        assert report["b_infinity"][0] == pytest.approx(1.0, abs=1e-10)
        assert report["endpoint_gap"] == pytest.approx(1.0, abs=1e-10)

    def test_missing_anchor_coverage_rejected(self):
        model = example_confounder_shift()  # anchors hit only H
        with pytest.raises(AssumptionViolated) as err:
            anchor_stability_causal_check(model)
        assert err.value.which == "anchor_coverage"

    def test_hidden_confounder_detected_when_stable(self):
        # H drives X and Y but with compensating structure is still unstable
        # here; instead check the flag on a stable model with an H that only
        # feeds Y (not a confounder)
        B = np.zeros((3, 3))
        B[1, 0] = 1.0  # Y <- X
        B[1, 2] = 0.5  # Y <- H
        model = LinearScm(
            d=1, r=1, B=B, M=np.array([[1.0], [0.0], [0.0]]),
            noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
        )
        report = anchor_stability_causal_check(model)
        assert report["stable"]
        assert not report["hidden_confounder"]


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = random_scm(numkern.make_rng(16), d=2, r=1, q=2)
        path = tmp_path / "model.json"
        save_scm(path, model)
        back = load_scm(path)
        assert np.allclose(back.B, model.B)
        assert np.allclose(back.M, model.M)
        assert np.allclose(back.noise_scales, model.noise_scales)
        assert back.anchor.kind == model.anchor.kind

    def test_rademacher_alias(self):
        spec = scm_to_dict(example_iv_chain())
        spec["anchor"] = {"kind": "rademacher"}
        model = scm_from_dict(spec)
        assert np.allclose(model.anchor.levels, [[-1.0], [1.0]])

    def test_unknown_anchor_kind(self):
        spec = scm_to_dict(example_iv_chain())
        spec["anchor"] = {"kind": "mystery"}
        with pytest.raises(DomainError):
            scm_from_dict(spec)

    @pytest.mark.parametrize("change, message", [
        ({"d": 2}, "B must have shape (4, 4) for d=2, r=1, q=1, got (3, 3)"),
        ({"d": "one"}, "d must be an integer >= 1, got 'one'"),
        ({"d": 0, "r": 2}, "d must be an integer >= 1, got 0"),
        ({"r": 1.0}, "r must be an integer >= 0, got 1.0"),
        ({"M": [[math.nan], [0.0], [0.0]]}, "M has a non-finite entry"),
        ({"M": [[1.0], [0.0]]}, "M must have shape (3, 1) for d=1, r=1, q=1, got (2, 1)"),
        ({"noise_scales": [1.0, "x", 1.0]}, "noise_scales must be a rectangular array"),
        ({"anchor": {"kind": "gaussian", "gram": [[1.0, 0.0], [0.0]]}},
         "anchor gram must be a rectangular array"),
        ({"anchor": {"kind": "gaussian", "gram": [[1.0, 0.0]]}}, "anchor gram must be square"),
        ({"anchor": {"kind": "discrete", "levels": [[1.0], [math.inf]]}},
         "anchor levels has a non-finite entry"),
        ({"anchor": {"kind": "discrete", "levels": [[1.0], [2.0]], "probs": [0.5, math.nan]}},
         "anchor probs has a non-finite entry"),
        ({"anchor": [{"kind": "rademacher"}]}, "anchor must be a JSON object"),
    ])
    def test_malformed_spec_names_its_field(self, change, message):
        spec = {**scm_to_dict(example_iv_chain()), **change}
        with pytest.raises(DomainError, match=re.escape(message)):
            scm_from_dict(spec)

    def test_spec_must_be_an_object(self):
        with pytest.raises(DomainError, match="a model spec must be a JSON object"):
            scm_from_dict([scm_to_dict(example_iv_chain())])


class TestModelValidation:
    def test_singular_system_rejected(self):
        B = np.eye(3)  # Id - B singular
        with pytest.raises(DomainError):
            LinearScm(
                d=1, r=1, B=B, M=np.zeros((3, 1)),
                noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
            )

    def test_cyclic_spectral_radius_warns(self):
        B = np.array([[0.0, 1.2, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            LinearScm(
                d=1, r=1, B=B, M=np.zeros((3, 1)),
                noise_scales=np.ones(3), anchor=AnchorDistribution.rademacher(),
            )

    def test_random_acyclic_matrix_is_acyclic(self):
        rng = numkern.make_rng(17)
        for _ in range(20):
            B = random_acyclic_matrix(rng, 6)
            model = LinearScm(
                d=3, r=2, B=B, M=np.zeros((6, 1)),
                noise_scales=np.ones(6), anchor=AnchorDistribution.rademacher(),
            )
            assert model.is_acyclic


class TestStableMinimizerCertificates:
    def test_stable_minimizer_gradient_vanishes(self):
        rng = numkern.make_rng(18)
        for _ in range(5):
            model = random_stable_scm(rng, d=2)
            b0 = population_anchor(model, 0.0)
            v = model.M @ rng.uniform(-2, 2, size=model.q)
            shift = Shift(vector=v)

            def risk(b):
                return shift_risk(model, b, shift)

            eps = 1e-6
            grad = np.array(
                [
                    (risk(b0 + eps * e) - risk(b0 - eps * e)) / (2 * eps)
                    for e in np.eye(model.d)
                ]
            )
            assert np.max(np.abs(grad)) < 1e-6

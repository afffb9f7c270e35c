"""Tests for normalization, risk aggregation, robust selection, and its certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdesign import (
    ConfigurationError,
    PlanningWeights,
    RiskSurface,
    dominance_audit,
    risk_surface,
    robust_select,
    weight_winner_search,
)
from xdesign.risk import N_CHANNELS

W = PlanningWeights()
WEIGHT_VECTOR = np.array([1.00, 0.80, 0.75, 0.45, 0.45, 0.65])


def per_rep_from_raw(raw: np.ndarray) -> np.ndarray:
    """A one-replication score array: each cell's six components plus a zero bias."""
    return np.concatenate([raw[:, :, None, :], np.zeros(raw.shape[:2] + (1, 1))], axis=3)


def surface_from_array(raw: np.ndarray) -> RiskSurface:
    return risk_surface(per_rep_from_raw(raw), W)


class TestNormalize:
    def test_divides_by_component_max(self):
        raw = np.zeros((2, 1, 6))
        raw[0, 0] = [2, 2, 2, 2, 2, 2]
        raw[1, 0] = [4, 4, 4, 4, 4, 4]
        out = surface_from_array(raw).normalized
        assert np.allclose(out[0, 0], 0.5)
        assert np.allclose(out[1, 0], 1.0)

    def test_zero_component_stays_zero(self):
        raw = np.random.default_rng(3).uniform(0.1, 2.0, size=(2, 2, 6))
        raw[..., 3] = 0.0
        out = surface_from_array(raw).normalized
        assert np.all(out[..., 3] == 0.0)
        assert np.all(out[..., :3] > 0.0) and np.all(out[..., 4:] > 0.0)
        assert np.all(surface_from_array(np.zeros((2, 2, 6))).normalized == 0.0)

    def test_preserves_within_component_order(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-5, 5, size=(4, 3, 6))
        out = surface_from_array(raw).normalized
        assert np.all(np.abs(out) <= 1.0)
        for comp in range(6):
            flat_raw = raw[:, :, comp].ravel()
            flat_out = out[:, :, comp].ravel()
            assert np.array_equal(np.argsort(flat_raw), np.argsort(flat_out))

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            risk_surface(np.zeros((2, 3)), W)


class TestRiskSurface:
    def test_weighted_sum_recomputable(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.1, 3.0, size=(3, 4, 6))
        surface = surface_from_array(raw)
        manual = surface.normalized @ WEIGHT_VECTOR
        assert np.max(np.abs(surface.risks - manual)) < 1e-12

    def test_all_ones_sum_to_weight_total(self):
        raw = np.ones((2, 2, 6))
        surface = surface_from_array(raw)
        assert np.allclose(surface.risks, 4.10)

    def test_geometry_only_weights(self):
        raw = np.random.default_rng(2).uniform(0.5, 2.0, size=(3, 2, 6))
        w = PlanningWeights(geometry=1.0, variance=0, mde=0, contamination=0, op_cost=0, mismatch=0)
        surface = risk_surface(per_rep_from_raw(raw), w)
        assert np.allclose(surface.risks, surface.normalized[:, :, 0])

    def test_zero_vector_zero_risk(self):
        raw = np.zeros((2, 1, 6))
        assert np.all(surface_from_array(raw).risks == 0.0)

    def test_wrong_shape_rejected(self):
        # Wrong ndim, wrong channel count, or no cells at all.
        for shape in [(2, 3, 7), (2, 3, 1, 1, 7), (2, 3, 1, 6), (2, 3, 1, 8), (0, 3, 1, 7)]:
            with pytest.raises(ConfigurationError, match="shape"):
                risk_surface(np.ones(shape), W)

    def test_non_finite_scores_rejected(self):
        per_rep = per_rep_from_raw(np.ones((2, 1, 6)))
        per_rep[1, 0, 0, 2] = np.inf
        with pytest.raises(ConfigurationError, match="finite"):
            risk_surface(per_rep, W)


class TestRobustSelect:
    def test_dominating_design_selected_and_shortlisted(self):
        raw = np.ones((3, 4, 6))
        raw[1] = 0.2  # design 1 lowest everywhere
        decision = robust_select(surface_from_array(raw))
        assert decision.selected == 1
        assert 1 in decision.shortlist

    def test_shortlist_arithmetic(self):
        # Worst-case risks {1.0, 1.15, 1.5} and fraction 0.10: cutoff 1.2.
        surface = RiskSurface(
            raw=np.zeros((3, 1, 6)),
            normalized=np.zeros((3, 1, 6)),
            risks=np.array([[1.0], [1.15], [1.5]]),
            weights=W,
            scale=np.ones(6),
        )
        decision = robust_select(surface, shortlist_fraction=0.10)
        assert decision.selected == 0
        assert decision.epsilon_t == pytest.approx(0.1)
        assert decision.shortlist == (0, 1)
        assert decision.separation_margin == pytest.approx(0.15)

    def test_tie_breaks_by_catalog_order(self):
        surface = RiskSurface(
            raw=np.zeros((3, 1, 6)),
            normalized=np.zeros((3, 1, 6)),
            risks=np.array([[2.0], [1.0], [1.0]]),
            weights=W,
            scale=np.ones(6),
        )
        decision = robust_select(surface)
        assert decision.selected == 1
        assert decision.shortlist[0] == 1
        assert 2 in decision.shortlist

    def test_worst_theta_recorded(self):
        risks = np.array([[1.0, 3.0, 2.0], [2.5, 0.5, 1.0]])
        surface = RiskSurface(
            raw=np.zeros((2, 3, 6)), normalized=np.zeros((2, 3, 6)),
            risks=risks, weights=W, scale=np.ones(6),
        )
        decision = robust_select(surface)
        assert decision.worst_theta == (1, 0)
        assert decision.q == (3.0, 2.5)

    def test_explicit_epsilon_overrides_fraction(self):
        surface = RiskSurface(
            raw=np.zeros((2, 1, 6)), normalized=np.zeros((2, 1, 6)),
            risks=np.array([[1.0], [1.05]]), weights=W, scale=np.ones(6),
        )
        tight = robust_select(surface, epsilon_t=0.01)
        assert tight.shortlist == (0,)
        loose = robust_select(surface, epsilon_t=0.5)
        assert loose.shortlist == (0, 1)

    def test_non_finite_epsilon_rejected(self):
        # A large finite fraction overflows the budget, which no artifact may carry.
        surface = RiskSurface(
            raw=np.zeros((2, 1, 6)), normalized=np.zeros((2, 1, 6)),
            risks=np.array([[2.0], [3.0]]), weights=W, scale=np.ones(6),
        )
        with pytest.raises(ConfigurationError, match="shortlist_fraction"):
            robust_select(surface, shortlist_fraction=1e308)

    def test_stderr_epsilon_mode(self):
        # Four replications per cell; only the variance varies, as level +/- c
        # with c = se * sqrt(3), so its replication standard error is exactly
        # se. Geometry, op cost and mismatch are read as constants.
        per_rep = np.zeros((2, 1, 4, 7))
        for d, (level, se) in enumerate(((1.0, 0.1), (2.0, 0.3))):
            per_rep[d, 0, :, :6] = level
            per_rep[d, 0, :, 1] += se * np.sqrt(3.0) * np.array([-1.0, -1.0, 1.0, 1.0])
        surface = risk_surface(per_rep, W)
        assert surface.se[:, 0, 1] == pytest.approx([0.05, 0.15])
        assert np.all(np.delete(surface.se, 1, axis=2) == 0.0)
        decision = robust_select(surface, epsilon_mode="stderr")
        # max normalized variance se = 0.3 / 2 = 0.15, weighted by w_v.
        assert decision.epsilon_t == pytest.approx(0.15 * W.variance)


class TestDominanceAudit:
    def test_componentwise_minimum_detected(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.5, 1.5, size=(4, 5, 6))
        raw[2] = raw.min(axis=0) - 0.1
        assert dominance_audit(raw) == 2

    def test_crossing_components_return_none(self):
        raw = np.ones((2, 1, 6))
        raw[0, 0, 0], raw[0, 0, 1] = 0.1, 2.0
        raw[1, 0, 0], raw[1, 0, 1] = 2.0, 0.1
        assert dominance_audit(raw) is None

    def test_weight_search_finds_multiple_winners_on_crossing(self):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0.4, 1.2, size=(3, 6, 6))
        raw[0, :, 0] = 0.01
        raw[0, :, 1] = 3.0
        raw[1, :, 0] = 3.0
        raw[1, :, 1] = 0.01
        assert dominance_audit(raw) is None
        winners = weight_winner_search(raw, n_samples=1000, seed=0)
        assert len(winners) >= 2

    def test_weight_search_single_winner_under_dominance(self):
        raw = np.ones((3, 2, 6))
        raw[1] = 0.1
        winners = weight_winner_search(raw, n_samples=500, seed=1)
        assert winners == {1}


class TestSelectorCertificate:
    """Perturbed-surface guarantees: excess risk, exact recovery, shortlist coverage."""

    def run_trials(self, n_trials=200, seed=0):
        rng = np.random.default_rng(seed)
        results = []
        for _ in range(n_trials):
            n_designs, n_grid = 6, 10
            true_comps = rng.uniform(0.0, 1.0, size=(n_designs, n_grid, 6))
            eps_components = rng.uniform(0.005, 0.03, size=6)
            noise = rng.uniform(-1.0, 1.0, size=true_comps.shape) * eps_components
            observed = true_comps + noise

            true_risks = true_comps @ WEIGHT_VECTOR
            true_q = true_risks.max(axis=1)
            eps_t = float(WEIGHT_VECTOR @ eps_components)

            surface = RiskSurface(
                raw=observed, normalized=observed,
                risks=observed @ WEIGHT_VECTOR, weights=W, scale=np.ones(6),
            )
            decision = robust_select(surface, epsilon_t=eps_t)
            true_best = int(true_q.argmin())
            margin = float(np.sort(true_q)[1] - true_q.min())
            results.append(
                {
                    "excess": float(true_q[decision.selected] - true_q[true_best]),
                    "eps_t": eps_t,
                    "margin": margin,
                    "recovered": decision.selected == true_best,
                    "covered": true_best in decision.shortlist,
                }
            )
        return results

    def test_excess_risk_bounded_by_2eps(self):
        for r in self.run_trials():
            assert r["excess"] <= 2 * r["eps_t"] + 1e-12

    def test_exact_recovery_under_margin(self):
        trials = self.run_trials()
        with_margin = [r for r in trials if r["margin"] > 2 * r["eps_t"]]
        assert len(with_margin) >= 50  # construction sanity: margins do occur
        assert all(r["recovered"] for r in with_margin)

    def test_shortlist_always_covers_true_optimum(self):
        assert all(r["covered"] for r in self.run_trials())


class TestDeterminism:
    def test_risk_surface_independent_of_grid_order(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(0.2, 2.0, size=(3, 5, 6))
        surface = surface_from_array(raw)
        perm = rng.permutation(5)
        permuted = surface_from_array(raw[:, perm, :])
        assert np.allclose(np.sort(surface.risks, axis=1), np.sort(permuted.risks, axis=1))
        d1 = robust_select(surface)
        d2 = robust_select(permuted)
        assert d1.selected == d2.selected
        assert d1.q == d2.q


class TestSelectorInvariants:
    # Invariants of risk_surface and robust_select on a random per-replication
    # array. They hold at the selector only: reordering the grid or catalog of
    # a pipeline run changes the seed indices (d, k), and so the draws.
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 4)),
        seed=st.integers(0, 2**16),
        epsilon_mode=st.sampled_from(("fraction", "stderr")),
        data=st.data(),
    )
    def test_grid_permutation(self, shape, seed, epsilon_mode, data):
        per_rep = np.random.default_rng(seed).uniform(0.0, 2.0, size=shape + (N_CHANNELS,))
        perm = np.array(data.draw(st.permutations(range(shape[1]))))
        base = robust_select(risk_surface(per_rep, W), epsilon_mode=epsilon_mode)
        moved = robust_select(risk_surface(per_rep[:, perm], W), epsilon_mode=epsilon_mode)
        assert moved.q == base.q
        assert moved.selected == base.selected
        assert moved.shortlist == base.shortlist
        assert moved.epsilon_t == base.epsilon_t
        # Grid point k of the permuted surface is point perm[k] of the original.
        assert tuple(int(perm[k]) for k in moved.worst_theta) == base.worst_theta

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 4)),
        seed=st.integers(0, 2**16),
        component=st.integers(0, 5),
        factor=st.floats(1e-3, 1e3),
    )
    def test_component_scale(self, shape, seed, component, factor):
        per_rep = np.random.default_rng(seed).uniform(0.0, 2.0, size=shape + (N_CHANNELS,))
        scaled = per_rep.copy()
        scaled[..., component] *= factor
        base = risk_surface(per_rep, W)
        moved = risk_surface(scaled, W)
        assert np.max(np.abs(moved.normalized - base.normalized)) <= 1e-12
        assert np.max(np.abs(moved.risks - base.risks)) <= 1e-12

"""Tests for the theorem-level stress checks and the regime sweep."""

import numpy as np
import pytest

from xdesign import (
    AmbiguityGrid,
    DesignSpec,
    PlanningWeights,
    SyntheticPanelConfig,
    default_catalog,
    generate_synthetic_panel,
    risk_surface,
    score_grid,
)
from xdesign.diagnostics import (
    SweepConfig,
    TransportScenario,
    catalog_approximation_check,
    default_sweep_mapping,
    default_transport_scenarios,
    dominance_check,
    mde_grid,
    minimax_tightness_check,
    oracle_comparison,
    random_smooth_surface,
    regime_sweep,
    transport_bound_check,
)
from xdesign.errors import ConfigurationError
from xdesign.panel import calibrate_scales
from xdesign.risk import score_groups

from reference import group_stream, replay, variance_component


class TestTransportBound:
    def test_zero_shift_zero_bias(self):
        report = transport_bound_check([TransportScenario(shift=0.0)], seed=1)
        assert report["passed"]
        assert report["cases"][0]["bias"] <= 1e-9

    def test_hundred_beta_scenarios_pass(self):
        report = transport_bound_check(default_transport_scenarios(100, seed=7), seed=3)
        assert report["passed"]
        assert len(report["cases"]) == 100

    def test_forced_negative_tolerance_can_fail(self):
        # Tightness harness: an impossible tolerance must be reported as
        # failure. A zero shift has bias and bound both 0.
        report = transport_bound_check([TransportScenario(shift=0.0)], seed=0, tolerance=-1e-6)
        assert not report["passed"]


class TestMinimaxTightness:
    def test_ratios_are_one(self):
        report = minimax_tightness_check((0.5, 1.0, 2.0), (0.1, 0.3, 0.6))
        assert report["passed"]
        for case in report["cases"]:
            assert case["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_shift_convention(self):
        report = minimax_tightness_check((1.0,), (0.0,))
        assert report["cases"][0]["ratio"] == 1.0

    def test_scaling_lipschitz_keeps_ratio(self):
        report = minimax_tightness_check((0.01, 100.0), (0.5,))
        assert all(c["ratio"] == pytest.approx(1.0, abs=1e-9) for c in report["cases"])


class TestCatalogApproximation:
    def test_exact_minimizer_in_catalog(self):
        report = catalog_approximation_check(lambda x: (np.asarray(x) - 0.5) ** 2, 1.0, (3,))
        assert report["cases"][0]["gap"] == pytest.approx(0.0, abs=1e-9)

    def test_absolute_value_worked_example(self):
        report = catalog_approximation_check(lambda x: np.abs(np.asarray(x) - 0.37), 1.0, (3,))
        case = report["cases"][0]
        assert case["gap"] == pytest.approx(0.13, abs=1e-4)
        assert case["bound"] == pytest.approx(0.25, abs=1e-12)
        assert case["pass"]

    def test_random_smooth_surfaces_pass(self):
        for seed in range(20):
            surface, lipschitz = random_smooth_surface(seed)
            report = catalog_approximation_check(surface, lipschitz, (5, 10, 20, 40))
            assert report["passed"], seed

    def test_radius_shrinks_with_size(self):
        surface, lipschitz = random_smooth_surface(1)
        report = catalog_approximation_check(surface, lipschitz, (5, 10, 20, 40))
        radii = [c["radius"] for c in report["cases"]]
        assert radii == sorted(radii, reverse=True)

    def test_small_catalog_rejected(self):
        with pytest.raises(ConfigurationError):
            catalog_approximation_check(lambda x: x, 1.0, (1,))


@pytest.fixture(scope="module")
def small_panel():
    return generate_synthetic_panel(
        SyntheticPanelConfig(n_units=120, n_clusters=6, n_budget_groups=4, n_regions=2, n_periods=8),
        seed=4,
    )


class TestMdeGrid:
    def test_switchback_duration_scaling(self, small_panel):
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        designs = default_catalog()
        report = mde_grid(designs, small_panel, weights, durations=(1, 2, 4), seed=0)
        sb = next(r for r in report["rows"] if r["design"] == "switchback")
        # Doubling duration doubles blocks: MDE falls by 1/sqrt(2).
        assert sb["mde"][2] == pytest.approx(sb["mde"][1] / np.sqrt(2), rel=1e-9)
        assert sb["mde"][4] == pytest.approx(sb["mde"][1] / 2, rel=1e-9)

    def test_user_mde_duration_constant(self, small_panel):
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        report = mde_grid(default_catalog(), small_panel, weights, durations=(1, 2, 4, 8), seed=0)
        user = next(r for r in report["rows"] if r["design"] == "user")
        values = list(user["mde"].values())
        assert values == [values[0]] * 4

    @pytest.mark.parametrize("seed", [0, 7])
    def test_variance_matches_reference_replay(self, small_panel, seed):
        # Design d's variance is the kernel's, over the replay that draw group
        # 0 of design d takes (mixed labels included), to 1e-12 relative. That
        # replay is the one the seed (seed, d) drew before mde_grid went
        # through the kernel: trailing zero seed words do not change a draw.
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        catalog = default_catalog() + [
            DesignSpec(kind="switchback", block_length=3),
            DesignSpec(kind="two_stage", saturation_levels=(1.0,), name="launch"),
        ]
        report = mde_grid(catalog, small_panel, weights, durations=(1,), seed=seed)
        for d_idx, (design, row) in enumerate(zip(catalog, report["rows"])):
            table = replay(design, small_panel, seed=group_stream(seed, d_idx, 0))
            expected = variance_component(small_panel.baseline, table)
            assert row["variance"] == pytest.approx(expected, rel=1e-12), design.name
            old = np.random.default_rng(np.random.SeedSequence(entropy=(seed, d_idx)))
            assert np.array_equal(group_stream(seed, d_idx, 0).random(64), old.random(64))

    def test_empty_catalog_rejected(self, small_panel):
        with pytest.raises(ConfigurationError, match="catalog must be non-empty"):
            mde_grid([], small_panel, PlanningWeights(), durations=(1,))

    @pytest.mark.parametrize("durations", [(), (0, 1)])
    def test_bad_durations_rejected(self, small_panel, durations):
        with pytest.raises(ConfigurationError, match="durations must be non-empty, each >= 1 week"):
            mde_grid(default_catalog(), small_panel, PlanningWeights(), durations=durations)

    def test_monotone_nonincreasing_in_duration(self, small_panel):
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        report = mde_grid(default_catalog(), small_panel, weights, durations=(1, 2, 4, 8), seed=0)
        for row in report["rows"]:
            values = [row["mde"][d] for d in (1, 2, 4, 8)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), row["design"]


class TestSweepMapping:
    def test_regime_order(self):
        # Graph ramps first, budget peaks mid-sweep, carryover rises last.
        g0, b0, l0 = default_sweep_mapping(0.0)
        assert (g0, b0, l0) == (0.0, 0.0, 0.0)
        g_mid, b_mid, l_mid = default_sweep_mapping(0.5)
        assert g_mid == pytest.approx(0.3)
        assert b_mid > 0
        assert l_mid == 0.0
        g1, b1, l1 = default_sweep_mapping(1.0)
        assert l1 == pytest.approx(0.2)
        assert b1 < max(default_sweep_mapping(0.7)[1], b_mid)

    @pytest.mark.parametrize("gamma", [1.2, 1.5, 10.0])
    def test_budget_channel_stays_at_zero_above_its_recession(self, gamma):
        theta = SweepConfig().theta(gamma)
        assert theta.budget_spill == 0.0
        assert (theta.graph_spill, theta.carryover) == pytest.approx((0.3, 0.2))

    def test_strictly_increasing_grid_required(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(gamma_grid=(0.0, 0.0, 1.0))


class TestRegimeSweepSmall:
    def test_winner_map_deterministic(self, small_panel):
        calib = calibrate_scales(small_panel, direct_effect=1.0)
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        cfg = SweepConfig(gamma_grid=(0.0, 0.5, 1.0), reps=3, seed=2)
        a = regime_sweep(cfg, small_panel, calib, default_catalog(), weights)
        b = regime_sweep(cfg, small_panel, calib, default_catalog(), weights)
        assert a.winners == b.winners
        assert np.array_equal(a.risks, b.risks)
        assert a.risks.shape == (3, 6)
        # Per-point normalization keeps each column a valid ranking.
        assert np.all(a.risks > 0)

    def test_one_draw_group_matches_per_gamma_grids(self, small_panel):
        # The sweep scores all gammas from one replay per (design, rep); each
        # gamma on its own one-point grid with seed index 0 has the same draws.
        calib = calibrate_scales(small_panel, direct_effect=1.0)
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        catalog = default_catalog()
        cfg = SweepConfig(reps=4, seed=6)
        result = regime_sweep(cfg, small_panel, calib, catalog, weights)
        for g_idx, gamma in enumerate(cfg.gamma_grid):
            grid = AmbiguityGrid((cfg.theta(gamma),))
            per_gamma = score_grid(small_panel, catalog, grid, calib, weights, reps=cfg.reps, master_seed=cfg.seed)
            risks = risk_surface(per_gamma, weights).risks[:, 0]
            assert np.all(np.abs(result.risks[g_idx] - risks) <= 1e-12 * np.maximum(1.0, np.abs(risks)))
            assert result.winners[g_idx] == int(risks.argmin())

    @pytest.mark.parametrize("reps", [1, 4])
    def test_risks_equal_per_gamma_surfaces_bitwise(self, small_panel, reps):
        # The sweep reduces all its gammas in one risk_surface call, as a
        # stack of one-point surfaces; each gamma's slice of the same scores,
        # reduced on its own, gives the same risks to the bit.
        calib = calibrate_scales(small_panel, direct_effect=1.0)
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        catalog = default_catalog()
        cfg = SweepConfig(reps=reps, seed=3)
        result = regime_sweep(cfg, small_panel, calib, catalog, weights)
        thetas = [cfg.theta(gamma) for gamma in cfg.gamma_grid]
        scores = score_groups(small_panel, catalog, [thetas], calib, weights, reps=cfg.reps, master_seed=cfg.seed)
        expected = np.array([risk_surface(scores[:, g : g + 1], weights).risks[:, 0] for g in range(len(thetas))])
        assert np.array_equal(result.risks, expected)
        assert result.winners == tuple(int(row.argmin()) for row in expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_component_is_named_at_the_first_gamma_with_one(self, small_panel):
        # A huge spillover scale overflows some designs' scores from one gamma
        # on and others' from a later one. The error names the first design
        # that fails at the first gamma with a non-finite component, as
        # scoring each gamma on its own would; here the first design with
        # one at any gamma is another.
        calib = calibrate_scales(small_panel, direct_effect=1.0, spill_scale=1e155)
        weights = PlanningWeights(t_weeks=2, periods_per_week=4)
        catalog = default_catalog()[::-1]
        cfg = SweepConfig(reps=2, seed=1)
        thetas = [cfg.theta(gamma) for gamma in cfg.gamma_grid]
        scores = score_groups(small_panel, catalog, [thetas], calib, weights, reps=cfg.reps, master_seed=cfg.seed)
        names = tuple(design.name for design in catalog)
        first = next(g for g in range(len(thetas)) if not np.isfinite(scores[:, g, :, :-1]).all())
        with pytest.raises(ConfigurationError) as expected:
            risk_surface(scores[:, first : first + 1], weights, names, "sweep")
        with pytest.raises(ConfigurationError) as anywhere:
            risk_surface(scores, weights, names, "sweep")
        assert str(anywhere.value) != str(expected.value)
        with pytest.raises(ConfigurationError) as error:
            regime_sweep(cfg, small_panel, calib, catalog, weights)
        assert str(error.value) == str(expected.value)


class TestOracleComparison:
    def test_identical_rep_counts_identical_decision(self):
        report = oracle_comparison(low_reps=8, high_reps=8, seed=3)
        assert report["selected_low"] == report["selected_high"]
        assert report["risk_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_shipped_default_matches(self):
        report = oracle_comparison(seed=0)
        assert report["passed"]
        assert report["selected_low"] == report["selected_high"]

    @pytest.mark.parametrize("low, high", [(10, 5), (0, 5)])
    def test_low_reps_must_be_a_prefix(self, low, high):
        with pytest.raises(ConfigurationError, match="low_reps"):
            oracle_comparison(low_reps=low, high_reps=high)


class TestDominanceCheck:
    def test_constructed_fixtures(self):
        report = dominance_check(seed=0)
        assert report["passed"]
        assert report["dominating_audit"] == 0
        assert report["crossing_audit"] is None
        assert len(report["distinct_weight_winners"]) >= 2

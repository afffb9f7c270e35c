"""Tests for the scoring kernel and the six risk components.

The per-point reference pipeline in ``reference.py`` is unit-tested here, and
the kernel's scores are checked against its ``hand_row`` to 1e-12.
"""

import dataclasses
import importlib.util
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xdesign
from xdesign import (
    CalibrationScales,
    AmbiguityGrid,
    ConfigurationError,
    DesignSpec,
    MechanismPoint,
    Panel,
    PlanningError,
    PlanningWeights,
    SyntheticPanelConfig,
    default_grid,
    ess_share,
    generate_synthetic_panel,
    mde,
    risk_surface,
    score_grid,
)
from xdesign import designs, diagnostics, risk, selector
from xdesign.designs import KINDS
from xdesign.diagnostics import default_sweep_mapping, mde_grid
from xdesign.risk import COMPONENT_NAMES, CONSTANT, N_CHANNELS, score_groups

from reference import (
    AssignmentTable,
    ExposurePanel,
    contamination,
    estimand_mismatch,
    exposure_features,
    geometry_score,
    group_stream,
    hand_row,
    hand_rows,
    labelled_panel,
    launch_effect,
    launch_share,
    noise_variance,
    outcome_strengths,
    replay,
    simulate_outcomes,
    variance_component,
)

GEOMETRY, VARIANCE, MDE, CONTAMINATION, OP_COST, MISMATCH = range(len(COMPONENT_NAMES))
BIAS = N_CHANNELS - 1


def tiny_panel(n_units, n_periods, baseline=None, **groups) -> Panel:
    base = baseline if baseline is not None else np.zeros((n_units, n_periods))
    return labelled_panel(
        unit_ids=tuple(f"u{i}" for i in range(n_units)),
        cluster_ids=tuple(groups.get("cluster", ["c0"] * n_units)),
        budget_ids=tuple(groups.get("budget", ["b0"] * n_units)),
        region_ids=tuple(groups.get("region", ["r0"] * n_units)),
        n_periods=n_periods,
        baseline=np.asarray(base, dtype=float),
    )


def manual_table(z) -> AssignmentTable:
    z = np.asarray(z, dtype=np.int8)
    labels = np.repeat(np.arange(z.shape[0], dtype=np.int64)[:, None], z.shape[1], axis=1)
    return AssignmentTable(z=z, labels=labels)


def normal_quantile_oracle(p: float) -> float:
    """Independent standard-normal inverse CDF by bisection on erf."""

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSimulateOutcomes:
    def test_no_treatment_no_noise_returns_baseline(self):
        panel = tiny_panel(3, 2, baseline=np.arange(6).reshape(3, 2))
        theta = MechanismPoint(0, 0, 0)
        calib = CalibrationScales(0.5, 1.0, 1.0, noise_sd=0.0)
        expo = exposure_features(manual_table(np.zeros((3, 2))), panel, theta)
        y = simulate_outcomes(panel, expo, theta, calib, seed=0)
        assert np.array_equal(y, panel.baseline)

    def test_full_launch_adds_launch_effect_everywhere(self):
        panel = tiny_panel(3, 2)
        theta = MechanismPoint(0.3, 0.5, 0.2)
        calib = CalibrationScales(0.2, 1.0, 1.0, noise_sd=0.0)
        expo = exposure_features(manual_table(np.ones((3, 2))), panel, theta)
        y = simulate_outcomes(panel, expo, theta, calib, seed=0)
        assert np.allclose(y - panel.baseline, launch_effect(theta, calib))

    def test_direct_effect_shifts_only_treated_cells(self):
        panel = tiny_panel(2, 2, budget=["b0", "b1"], cluster=["c0", "c1"])
        theta = MechanismPoint(0, 0, 0)
        z = [[1, 0], [0, 0]]
        expo = exposure_features(manual_table(z), panel, theta)
        lo = simulate_outcomes(panel, expo, theta, CalibrationScales(0.4, 1, 1, noise_sd=0.0))
        hi = simulate_outcomes(panel, expo, theta, CalibrationScales(0.8, 1, 1, noise_sd=0.0))
        diff = hi - lo
        assert diff[0, 0] == pytest.approx(0.4)
        assert diff[0, 1] == diff[1, 0] == diff[1, 1] == 0.0

    def test_exact_linearity_in_strengths(self):
        # Noise-free outcomes are linear in each calibrated strength; finite
        # differences must match analytic increments to 1e-12.
        rng = np.random.default_rng(5)
        panel = tiny_panel(4, 3, baseline=rng.normal(size=(4, 3)),
                           cluster=["c0", "c0", "c1", "c1"], budget=["b0", "b1", "b0", "b1"])
        theta = MechanismPoint(0.3, 0.5, 0.2)
        z = (rng.random((4, 3)) < 0.5).astype(np.int8)
        expo = exposure_features(manual_table(z), panel, theta)
        base_calib = CalibrationScales(0.2, 1.0, 1.0, noise_sd=0.0)
        y0 = simulate_outcomes(panel, expo, theta, base_calib)
        strengths = outcome_strengths(theta, base_calib)

        bumped = CalibrationScales(0.2 + 0.7, 1.0, 1.0, noise_sd=0.0)
        dy = simulate_outcomes(panel, expo, theta, bumped) - y0
        assert np.max(np.abs(dy - 0.7 * expo.direct)) < 1e-12

        bumped = CalibrationScales(0.2, 2.0, 1.0, noise_sd=0.0)
        dy = simulate_outcomes(panel, expo, theta, bumped) - y0
        expected = strengths.graph * expo.graph_share + strengths.budget * expo.budget_share
        assert np.max(np.abs(dy - expected)) < 1e-12

        bumped = CalibrationScales(0.2, 1.0, 3.0, noise_sd=0.0)
        dy = simulate_outcomes(panel, expo, theta, bumped) - y0
        assert np.max(np.abs(dy - 2.0 * strengths.carry * expo.lag)) < 1e-12

    def test_deterministic_in_seed(self):
        panel = tiny_panel(3, 3)
        theta = MechanismPoint(0.1, 0.1, 0.1)
        calib = CalibrationScales(0.2, 1.0, 1.0, noise_sd=0.5)
        expo = exposure_features(manual_table(np.zeros((3, 3))), panel, theta)
        a = simulate_outcomes(panel, expo, theta, calib, seed=9)
        b = simulate_outcomes(panel, expo, theta, calib, seed=9)
        assert np.array_equal(a, b)


class TestVarianceComponent:
    def test_equal_unit_means_zero(self):
        outcomes = np.array([[2.0, 2.0], [2.0, 2.0]])
        assert variance_component(outcomes, manual_table(np.zeros((2, 2)))) == 0.0

    def test_hand_sample_variance(self):
        # Unit means {0, 2}: sample variance 2.
        outcomes = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert variance_component(outcomes, manual_table(np.zeros((2, 2)))) == pytest.approx(2.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        outcomes = rng.normal(size=(5, 4))
        t = manual_table(np.zeros((5, 4)))
        base = variance_component(outcomes, t)
        assert variance_component(outcomes + 13.7, t) == pytest.approx(base, abs=1e-9)

    def test_single_unit_errors(self):
        z = np.zeros((3, 2), dtype=np.int8)
        labels = np.zeros((3, 2), dtype=np.int64)
        with pytest.raises(PlanningError):
            variance_component(np.ones((3, 2)), AssignmentTable(z=z, labels=labels))

    def test_sparse_label_values_handled(self):
        # Hand-built tables may use arbitrary label codes; grouping must not
        # depend on the codes being dense.
        z = np.zeros((2, 2), dtype=np.int8)
        sparse = AssignmentTable(z=z, labels=np.array([[10**9, 10**9], [5, 5]], dtype=np.int64))
        dense = AssignmentTable(z=z, labels=np.array([[1, 1], [0, 0]], dtype=np.int64))
        outcomes = np.array([[0.0, 0.0], [2.0, 2.0]])
        assert variance_component(outcomes, sparse) == variance_component(outcomes, dense) == 2.0


class TestMde:
    def test_zero_variance_zero_mde(self):
        assert mde(0.0, 10, PlanningWeights()) == 0.0

    @pytest.mark.parametrize(
        "alpha, beta", [(0.05, 0.2), (0.01, 0.1), (0.001, 0.01), (0.1, 0.5), (0.2, 0.05)]
    )
    def test_against_independent_quantile_oracle(self, alpha, beta):
        w = PlanningWeights(alpha=alpha, beta=beta)
        expected = (
            normal_quantile_oracle(1 - alpha / 2) + normal_quantile_oracle(1 - beta)
        ) * math.sqrt(2 / 8)
        assert mde(1.0, 8, w) == pytest.approx(expected, abs=1e-12)
        if (alpha, beta) == (0.05, 0.2):
            assert expected == pytest.approx(1.400792, abs=1e-5)
            assert mde(1.0, 8, w) == pytest.approx(1.400792, abs=1e-5)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.9), (0.4, 0.8)])
    def test_non_positive_quantile_sum_rejected(self, alpha, beta):
        # alpha/2 + beta >= 1 makes the MDE negative or zero.
        with pytest.raises(ConfigurationError, match="alpha.*beta"):
            PlanningWeights(alpha=alpha, beta=beta)

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, xdesign, xdesign.cli, xdesign.config, xdesign.diagnostics, xdesign.svg; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        src = str(Path(xdesign.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_quadrupling_units_halves_mde(self):
        w = PlanningWeights()
        assert mde(1.0, 400, w) == pytest.approx(mde(1.0, 100, w) / 2, abs=1e-12)

    def test_errors(self):
        with pytest.raises(PlanningError):
            mde(1.0, 1, PlanningWeights())
        with pytest.raises(ConfigurationError):
            mde(-1.0, 8, PlanningWeights())
        with pytest.raises(ConfigurationError):
            mde(np.array([1.0, -1e-300]), 8, PlanningWeights())

    def test_array_is_elementwise(self):
        # The kernel fills its mde channel from the variance channel in one call.
        w = PlanningWeights()
        v = np.array([[0.0, 1.0], [2.5, 1e-3]])
        got = mde(v, 8, w)
        assert got.shape == v.shape
        assert got.tolist() == [[mde(float(x), 8, w) for x in row] for row in v]


class TestContamination:
    def test_zero_intensities_zero(self):
        panel = tiny_panel(2, 2)
        theta = MechanismPoint(0, 0, 0)
        t = manual_table([[1, 1], [0, 0]])
        expo = exposure_features(t, panel, theta)
        assert contamination(expo, t, theta) == 0.0

    def test_fully_exposed_control_unit(self):
        # Control unit whose whole neighborhood is treated, graph channel only.
        panel = tiny_panel(3, 1, cluster=["c0", "c0", "c0"], budget=["b0", "b1", "b2"])
        theta = MechanismPoint(0.3, 0.0, 0.0, "cluster")
        t = manual_table([[1], [1], [0]])
        expo = exposure_features(t, panel, theta)
        # Control cell's graph share is 2/3 (self included): C = (0.3 * 2/3) / 0.3 = 2/3.
        assert contamination(expo, t, theta) == pytest.approx(2 / 3, abs=1e-12)

    def test_control_with_half_exposed_budget(self):
        # Shared budget pair, one treated: the control cell sees share 0.5, so
        # the budget-only contamination is exactly 0.5.
        panel = tiny_panel(2, 1)
        t = manual_table([[1], [0]])
        theta = MechanismPoint(0.0, 0.3, 0.0)
        expo = exposure_features(t, panel, theta)
        assert contamination(expo, t, theta) == pytest.approx(0.5, abs=1e-12)

    def test_saturated_control_cell_scores_one(self):
        # Hand-built exposure: a single control cell with graph share 1 under a
        # graph-only mechanism, no switching, no support stress.
        theta = MechanismPoint(0.3, 0.0, 0.0)
        z = np.array([[1], [0]], dtype=np.int8)
        expo = ExposurePanel(
            direct=z,
            budget_share=np.array([[1.0], [0.0]]),
            graph_share=np.array([[1.0], [1.0]]),
            lag=z.copy(),
        )
        t = manual_table(z)
        assert contamination(expo, t, theta) == pytest.approx(1.0, abs=1e-12)

    def test_full_launch_with_ess_stress_only(self):
        panel = tiny_panel(2, 1)
        theta = MechanismPoint(0.3, 0.5, 0.2)
        t = manual_table([[1], [1]])
        expo = exposure_features(t, panel, theta)
        assert contamination(expo, t, theta, ess=0.0517) == pytest.approx(0.9483, abs=1e-12)

    def test_switch_rate_channel(self):
        # One unit alternating over 5 periods: switch rate 1; carryover only.
        panel = tiny_panel(2, 5, cluster=["c0", "c1"], budget=["b0", "b1"])
        theta = MechanismPoint(0, 0, 0.2)
        z = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=np.int8)
        t = manual_table(z)
        expo = exposure_features(t, panel, theta)
        assert contamination(expo, t, theta) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one_plus_stress(self):
        rng = np.random.default_rng(7)
        panel = tiny_panel(6, 4, cluster=["c0"] * 3 + ["c1"] * 3, budget=["b0", "b1"] * 3)
        for _ in range(20):
            theta = MechanismPoint(*rng.uniform(0, 0.5, 3))
            t = manual_table((rng.random((6, 4)) < rng.uniform(0.2, 0.8)).astype(np.int8))
            expo = exposure_features(t, panel, theta)
            ess = float(rng.uniform(0.05, 1.0))
            stress = 1.0 - ess
            c = contamination(expo, t, theta, ess)
            assert 0.0 <= c <= 1.0 + stress + 1e-12
            e = estimand_mismatch(expo, ess)
            assert 0.0 <= e <= 1.0 + stress + 1e-12


class TestEstimandMismatch:
    def test_full_launch_zero(self):
        panel = tiny_panel(2, 2)
        theta = MechanismPoint(0.1, 0.1, 0.1)
        expo = exposure_features(manual_table(np.ones((2, 2))), panel, theta)
        assert estimand_mismatch(expo) == 0.0

    def test_isolated_control_cell_is_one(self):
        panel = tiny_panel(2, 1, cluster=["c0", "c1"], budget=["b0", "b1"], region=["r0", "r1"])
        theta = MechanismPoint(0.1, 0.1, 0.1)
        solo = exposure_features(manual_table([[0], [0]]), panel, theta)
        assert estimand_mismatch(solo) == pytest.approx(1.0, abs=1e-12)

    def test_half_launch_half_dark_is_half(self):
        # Two isolated units: one fully treated, one fully dark -> mean gap 0.5.
        panel = tiny_panel(2, 2, cluster=["c0", "c1"], budget=["b0", "b1"], region=["r0", "r1"])
        theta = MechanismPoint(0.1, 0.1, 0.1)
        expo = exposure_features(manual_table([[1, 1], [0, 0]]), panel, theta)
        assert estimand_mismatch(expo) == pytest.approx(0.5, abs=1e-12)

    def test_stress_added(self):
        panel = tiny_panel(2, 1)
        theta = MechanismPoint(0, 0, 0)
        expo = exposure_features(manual_table([[1], [1]]), panel, theta)
        assert estimand_mismatch(expo, ess=0.8) == pytest.approx(0.2, abs=1e-12)


@pytest.fixture()
def setup():
    panel = generate_synthetic_panel(
        SyntheticPanelConfig(n_units=80, n_clusters=8, n_budget_groups=4, n_regions=2, n_periods=6),
        seed=3,
    )
    calib = CalibrationScales(0.5, 0.4, 0.3, noise_sd=0.2)
    weights = PlanningWeights(t_weeks=2, periods_per_week=3)
    return panel, calib, weights


def assert_matches_reference(fast, ref):
    """Closed-form scores agree with the reference to 1e-12 relative (absolute below 1)."""
    err = np.abs(fast - ref)
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref))), (fast, ref)


class TestComponentScores:
    def test_single_rep_matches_manual_pipeline(self, setup):
        panel, calib, weights = setup
        design = DesignSpec(kind="cluster")
        theta = MechanismPoint(0.3, 0.2, 0.1)
        got = score_grid(panel, [design], AmbiguityGrid((theta,)), calib, weights, reps=1, master_seed=11)[0, 0]
        assert got.shape == (1, N_CHANNELS)
        expected = hand_row(design, theta, panel, calib, weights, group_stream(11, 0, 0))
        assert_matches_reference(got[0], expected)

    def test_full_launch_zero_geometry(self, setup):
        # One saturation level of 1 treats every atom, so π = 1.
        panel, calib, weights = setup
        design = DesignSpec(kind="two_stage", saturation_levels=(1.0,))
        theta = MechanismPoint(0, 0, 0)
        calib0 = CalibrationScales(calib.direct_effect, calib.spill_scale, calib.carry_scale, noise_sd=0.0)
        got = score_grid(panel, [design], AmbiguityGrid((theta,)), calib0, weights, reps=2, master_seed=1)[0, 0]
        assert np.all(got[:, GEOMETRY] == 0.0)
        assert np.all(got[:, MISMATCH] == 0.0)  # no propensities -> no stress
        assert np.all(got[:, CONTAMINATION] == 0.0)

    def test_averaging_matches_explicit_seed_schedule(self, setup):
        # Every row, not just the mean, matches replication r run by hand:
        # the r-th draw of the group's stream.
        panel, calib, weights = setup
        design = DesignSpec(kind="mixed")
        theta = MechanismPoint(0.1, 0.2, 0.05, "budget")
        rows = score_grid(panel, [design], AmbiguityGrid((theta,)), calib, weights, reps=4, master_seed=21)[0, 0]
        assert rows.shape == (4, N_CHANNELS)
        rng = group_stream(21, 0, 0)
        for r in range(4):
            assert_matches_reference(rows[r], hand_row(design, theta, panel, calib, weights, rng))

    def test_full_launch_bias_vanishes_with_noise(self, setup):
        panel, _, weights = setup
        design = DesignSpec(kind="two_stage", saturation_levels=(1.0,))
        theta = MechanismPoint(0.3, 0.5, 0.2)
        for noise_sd in (0.4, 0.04):
            calib = CalibrationScales(0.5, 0.4, 0.3, noise_sd=noise_sd)
            got = score_grid(panel, [design], AmbiguityGrid((theta,)), calib, weights, reps=1, master_seed=5)[0, 0]
            cells = panel.n_units * panel.n_periods
            assert abs(got[0, BIAS]) <= 4.0 * noise_sd / math.sqrt(cells)

    def test_transport_bound_on_single_channel_case(self):
        # Budget-only channel, no direct effect or noise: the average realized
        # outcome shift minus the launch effect is bounded by the per-channel
        # response slope times the intensity-scaled exposure gap.
        panel = tiny_panel(4, 1)
        theta = MechanismPoint(0.0, 0.5, 0.0)
        calib = CalibrationScales(0.0, 1.0, 0.0, graph_frac=0.0, noise_sd=0.0)
        z = np.array([[1], [1], [0], [0]], dtype=np.int8)
        t = manual_table(z)
        expo = exposure_features(t, panel, theta)
        y = simulate_outcomes(panel, expo, theta, calib)
        realized_gap = abs(float((y - panel.baseline).mean()) - launch_effect(theta, calib))
        strengths = outcome_strengths(theta, calib)
        lipschitz = strengths.budget / theta.budget_spill  # slope per scaled coordinate
        scaled_distance = geometry_score(expo, theta) * (1 + theta.graph_spill + theta.budget_spill + theta.carryover)
        assert realized_gap <= lipschitz * scaled_distance + 1e-12

    def test_op_cost_independent_of_mechanism(self, setup):
        panel, calib, weights = setup
        design = DesignSpec(kind="switchback")
        grid = AmbiguityGrid((MechanismPoint(0, 0, 0), MechanismPoint(0.3, 0.5, 0.2)))
        a, b = score_grid(panel, [design], grid, calib, weights, reps=3)[0]
        assert np.all(a[:, OP_COST] == design.op_cost_level)
        assert np.array_equal(a[:, OP_COST], b[:, OP_COST])

    def test_rep_validation(self, setup):
        panel, calib, weights = setup
        with pytest.raises(ConfigurationError):
            score_grid(panel, [DesignSpec(kind="user")], AmbiguityGrid((MechanismPoint(0, 0, 0),)), calib, weights,
                       reps=0)


SMALL_CATALOG = [DesignSpec(kind="user"), DesignSpec(kind="cluster"), DesignSpec(kind="switchback")]
SMALL_GRID = AmbiguityGrid.from_axes(
    graph_spill=(0.0, 0.3), budget_spill=(0.5,), carryover=(0.2,), localities=("cluster", "budget")
)


class TestScoreGrid:
    def test_cells_follow_the_seed_schedule(self, setup):
        # Cell (d, k, r) is replication r of design d at grid point k: the
        # r-th replay of the stream seeded (master_seed, d, k).
        panel, calib, weights = setup
        per_rep = score_grid(panel, SMALL_CATALOG, SMALL_GRID, calib, weights, reps=3, master_seed=4)
        assert per_rep.shape == (len(SMALL_CATALOG), len(SMALL_GRID), 3, N_CHANNELS)
        for d, design in enumerate(SMALL_CATALOG):
            for k, theta in enumerate(SMALL_GRID):
                rng = group_stream(4, d, k)
                for r in range(3):
                    assert_matches_reference(per_rep[d, k, r], hand_row(design, theta, panel, calib, weights, rng))

    def test_negative_master_seed_rejected(self, setup):
        panel, calib, weights = setup
        with pytest.raises(ConfigurationError, match="master_seed"):
            score_groups(panel, SMALL_CATALOG, [SMALL_GRID.points], calib, weights, master_seed=-1)

    def test_fewer_reps_are_a_prefix(self, setup):
        panel, calib, weights = setup
        few = score_grid(panel, SMALL_CATALOG, SMALL_GRID, calib, weights, reps=5, master_seed=2)
        many = score_grid(panel, SMALL_CATALOG, SMALL_GRID, calib, weights, reps=12, master_seed=2)
        assert np.array_equal(few, many[:, :, :5])

    @pytest.mark.parametrize("reps", [1, 12])
    def test_risk_surface_reduces_each_pair(self, setup, reps):
        # The 4-D reduction must equal, bit for bit, the mean and
        # std(ddof=1) / sqrt(reps) of each pair's contiguous (reps, 3) block of
        # replicated components, with geometry, the op cost and mismatch
        # taken as is and their standard errors exactly zero.
        panel, calib, weights = setup
        per_rep = score_grid(panel, SMALL_CATALOG, SMALL_GRID, calib, weights, reps=reps, master_seed=8)
        surface = risk_surface(per_rep, weights)
        scale = np.where(surface.scale > 0, surface.scale, 1.0)
        replicated = [c for c in range(BIAS) if c not in CONSTANT]
        for d, design in enumerate(SMALL_CATALOG):
            for k in range(len(SMALL_GRID)):
                pair = np.ascontiguousarray(per_rep[d, k][:, replicated])
                assert np.array_equal(surface.raw[d, k, replicated], pair.mean(axis=0))
                assert np.array_equal(surface.raw[d, k, CONSTANT], per_rep[d, k, 0, CONSTANT])
                assert surface.raw[d, k, OP_COST] == design.op_cost_level
                ses = pair.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(len(replicated))
                assert np.array_equal(surface.se[d, k, replicated], ses / scale[replicated])
                assert np.all(surface.se[d, k, CONSTANT] == 0.0)


# Every design kind, single-arm replays that treat every atom and none, and a
# two-period switchback block.
REFERENCE_CATALOG = [DesignSpec(kind=kind) for kind in KINDS] + [
    DesignSpec(kind="two_stage", saturation_levels=(1.0,), name="launch"),
    DesignSpec(kind="two_stage", saturation_levels=(0.0,), name="dark"),
    DesignSpec(kind="switchback", block_length=2),
]
REFERENCE_GROUPS = [
    # One point per locality.
    (MechanismPoint(0.3, 0.2, 0.05, "cluster"),),
    (MechanismPoint(0.1, 0.5, 0.2, "budget"),),
    (MechanismPoint(0.3, 0.0, 0.2, "region"),),
    # Localities mixed within one group.
    (
        MechanismPoint(0.0, 0.0, 0.0, "region"),
        MechanismPoint(0.3, 0.5, 0.2, "cluster"),
        MechanismPoint(0.1, 0.2, 0.0, "budget"),
        MechanismPoint(0.3, 0.1, 0.05, "region"),
    ),
    # Sweep points with duplicates: gammas 0.0 and 0.1 both map to (0, 0, 0).
    tuple(MechanismPoint(*default_sweep_mapping(g), "cluster") for g in (0.0, 0.1, 0.5, 0.9)),
]


# Single-point groups of every locality, interleaved so that each layout's
# groups are not contiguous.
MIXED_GRID = AmbiguityGrid.from_axes(
    graph_spill=(0.0, 0.3), budget_spill=(0.2, 0.5), carryover=(0.1,), localities=("cluster", "budget", "region")
)


def user_slot_bytes(panel: Panel, localities: tuple[str, ...]) -> int:
    """Chunk bytes per slot of a ``user`` design over a batch of draw groups with these localities.

    Its atoms are the units and it draws one uniform per unit, so per unit a
    slot holds the uniform, the treatment and the treatment's class key. A
    class holds the units alike in every grouping of the batch. Every label
    is a single unit, so there are no group labels, and per class a slot
    holds two values of each feature.
    """
    n_features = risk._BUDGET + len(localities)
    n_classes = len(set(zip(*(panel.group_codes(grouping).tolist() for grouping in localities))))
    return (3 * panel.n_units + 2 * n_features * n_classes) * 8


def record_chunks(monkeypatch) -> list[list[int]]:
    """The chunk sizes of every ``_score_batch`` call, in call order.

    A chunk's size is the number of replays whose draws one ``_assign_atoms``
    call maps. The chunk's one reduction, from counts on unit atoms or from
    feature rows on switchback atoms, must take exactly those replays.
    """
    calls = []
    score_batch, assign_atoms = risk._score_batch, risk._assign_atoms

    def recording_batch(*args, **kwargs):
        calls.append([])
        return score_batch(*args, **kwargs)

    def recording_assign(rule, uniforms, *args):
        calls[-1].append(uniforms.shape[0])
        return assign_atoms(rule, uniforms, *args)

    def checked(reduce, z_index):
        def reduction(*args):
            assert args[z_index].shape[0] == calls[-1][-1]
            return reduce(*args)
        return reduction

    monkeypatch.setattr(risk, "_score_batch", recording_batch)
    monkeypatch.setattr(risk, "_assign_atoms", recording_assign)
    monkeypatch.setattr(risk, "_count_stats", checked(risk._count_stats, 3))
    monkeypatch.setattr(risk, "_row_stats", checked(risk._row_stats, 2))
    return calls


def assert_chunked(calls: list[list[int]], n_designs: int, groups, calib: CalibrationScales, reps: int) -> None:
    """Each design's call over each batch covers the batch's slots in equal chunks but a shorter last one."""
    slots = [batch.seed_index.size * reps for batch in risk._batches(groups, calib)]
    assert [sum(sizes) for sizes in calls] == slots * n_designs
    for sizes in calls:
        assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]


class TestDrawGroups:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(
            st.integers(6, 40), st.integers(2, 6), st.integers(2, 5), st.integers(1, 3), st.integers(3, 6)
        ),
        panel_seed=st.integers(0, 2**16),
        master_seed=st.integers(0, 2**16),
        noise_sd=st.sampled_from((0.0, 0.3)),
        with_propensities=st.booleans(),
    )
    def test_every_point_matches_per_point_pipeline(
        self, shape, panel_seed, master_seed, noise_sd, with_propensities
    ):
        n_units, n_clusters, n_budget, n_regions, n_periods = shape
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(n_units, n_clusters, n_budget, n_regions, n_periods), seed=panel_seed
        )
        if with_propensities:
            rng = np.random.default_rng(panel_seed)
            panel = dataclasses.replace(panel, propensities=rng.uniform(0.05, 1.0, panel.baseline.shape))
        calib = CalibrationScales(0.7, 0.4, 0.3, noise_sd=noise_sd)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        reps = 2
        per_rep = score_groups(
            panel, REFERENCE_CATALOG, REFERENCE_GROUPS, calib, weights, reps=reps, master_seed=master_seed
        )
        n_points = sum(len(group) for group in REFERENCE_GROUPS)
        assert per_rep.shape == (len(REFERENCE_CATALOG), n_points, reps, N_CHANNELS)
        for d, design in enumerate(REFERENCE_CATALOG):
            expected = np.concatenate([
                hand_rows(design, group, panel, calib, weights, group_stream(master_seed, d, g), reps)
                for g, group in enumerate(REFERENCE_GROUPS)
            ])
            assert_matches_reference(per_rep[d], expected)

    @pytest.mark.parametrize("graph_frac", [0.2, 0.9])
    def test_uneven_spillover_split_matches_per_point_pipeline(self, setup, graph_frac):
        # graph_frac splits the spillover scale between the graph and budget
        # channels. Off its even default, with spill_scale unlike carry_scale
        # and points whose graph and budget intensities differ, every channel
        # of every point, the bias included, matches the per-point pipeline,
        # which writes the strengths out on its own.
        panel, _, weights = setup
        calib = CalibrationScales(0.7, 0.4, 0.3, graph_frac=graph_frac, noise_sd=0.2)
        reps = 2
        per_rep = score_groups(panel, REFERENCE_CATALOG, REFERENCE_GROUPS, calib, weights, reps=reps, master_seed=3)
        for d, design in enumerate(REFERENCE_CATALOG):
            expected = np.concatenate([
                hand_rows(design, group, panel, calib, weights, group_stream(3, d, g), reps)
                for g, group in enumerate(REFERENCE_GROUPS)
            ])
            assert_matches_reference(per_rep[d], expected)

    @pytest.mark.parametrize("noise_sd", [0.0, 0.3])
    def test_chunk_size_does_not_change_scores(self, setup, monkeypatch, noise_sd):
        # The kernel scores the replications of draw groups of one layout in
        # shared chunks of slots, sized per design and batch. Chunks of 1
        # slot, of 7 slots for user and of all a batch's slots must give the
        # same bits: all six kinds, single-point groups of every locality
        # (budget ones have one feature fewer), so that a chunk spans groups,
        # a group's replications straddle chunks and the last chunk is short,
        # plus the reference groups, one of them with mixed localities.
        panel, _, weights = setup
        calib = CalibrationScales(0.7, 0.4, 0.3, noise_sd=noise_sd)
        groups = [(theta,) for theta in MIXED_GRID] + REFERENCE_GROUPS
        reps = 3
        # Groups of any size share a batch when their localities match.
        batches = risk._batches(groups, calib)
        assert len(batches) == len({frozenset(("budget", *(p.locality for p in group))) for group in groups})
        scores = {}
        every = len(groups) * reps
        calls = record_chunks(monkeypatch)
        for slots, chunk_bytes in ((1, 1), (7, 7 * user_slot_bytes(panel, ("budget", "cluster", "region"))), (every, 2**62)):
            calls.clear()
            monkeypatch.setattr(risk, "_CHUNK_BYTES", chunk_bytes)
            scores[slots] = score_groups(panel, REFERENCE_CATALOG, groups, calib, weights, reps=reps, master_seed=6)
            assert_chunked(calls, len(REFERENCE_CATALOG), groups, calib, reps)
            if slots == 1:
                assert all(sizes == [1] * len(sizes) for sizes in calls)
            elif slots == 7:
                assert any(sizes[0] > reps and sizes[-1] < sizes[0] for sizes in calls)
            else:
                assert all(len(sizes) == 1 for sizes in calls)
        assert np.array_equal(scores[1], scores[every])
        assert np.array_equal(scores[7], scores[every])

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(
            st.integers(9, 30), st.integers(2, 12), st.integers(2, 4), st.integers(2, 3), st.sampled_from((1, 3))
        ),
        mixture_prob=st.sampled_from((0.0, 0.1, 0.9, 1.0)),
        panel_seed=st.integers(0, 2**16),
        master_seed=st.integers(0, 2**16),
    )
    def test_dense_label_sums_match_reference_in_any_chunk(self, shape, mixture_prob, panel_seed, master_seed):
        # mixed's coins make each cluster one label or split it into single
        # units, so its labels mix both kinds (all split at mixture_prob 0,
        # all whole at 1). One period makes every region atom its own
        # predecessor, so the kernel folds the lag row into the direct one.
        # Chunks of 1 slot, of 7 slots for user and of all a batch's slots
        # give the same bits, and those match the per-point pipeline.
        groups = [(theta,) for theta in MIXED_GRID] + REFERENCE_GROUPS
        n_units, n_clusters, n_budget, n_regions, n_periods = shape
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(n_units, n_clusters, n_budget, n_regions, n_periods), seed=panel_seed
        )
        calib = CalibrationScales(0.7, 0.4, 0.3, noise_sd=0.3)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        catalog = [DesignSpec(kind=kind) for kind in KINDS] + [
            DesignSpec(kind="mixed", mixture_prob=mixture_prob, name="mixed-drawn"),
            DesignSpec(kind="switchback", block_length=2, name="switchback-2"),
        ]
        reps = 3
        every = len(groups) * reps
        scores = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = record_chunks(monkeypatch)
            for slots, chunk_bytes in ((1, 1), (7, 7 * user_slot_bytes(panel, ("budget", "cluster", "region"))), (every, 2**62)):
                monkeypatch.setattr(risk, "_CHUNK_BYTES", chunk_bytes)
                scores[slots] = score_groups(panel, catalog, groups, calib, weights, reps=reps, master_seed=master_seed)
        assert {1, 7} <= {size for sizes in calls for size in sizes}
        assert np.array_equal(scores[1], scores[every])
        assert np.array_equal(scores[7], scores[every])
        for d, design in enumerate(catalog):
            expected = np.concatenate([
                hand_rows(design, group, panel, calib, weights, group_stream(master_seed, d, g), reps)
                for g, group in enumerate(groups)
            ])
            assert_matches_reference(scores[every][d], expected)

    def test_chunks_across_groups_match_reference(self, setup, monkeypatch):
        # Chunks of 7 slots span grid points; each cell still matches the
        # per-point pipeline under its own seeds.
        panel, calib, weights = setup
        calls = record_chunks(monkeypatch)
        monkeypatch.setattr(risk, "_CHUNK_BYTES", 7 * user_slot_bytes(panel, ("budget", "cluster")))
        catalog = [DesignSpec(kind=kind) for kind in KINDS]
        per_rep = score_grid(panel, catalog, MIXED_GRID, calib, weights, reps=3, master_seed=9)
        assert_chunked(calls, len(catalog), [(theta,) for theta in MIXED_GRID], calib, 3)
        assert [7, 5] in calls
        for d, design in enumerate(catalog):
            for k, theta in enumerate(MIXED_GRID):
                rng = group_stream(9, d, k)
                for r in range(3):
                    assert_matches_reference(per_rep[d, k, r], hand_row(design, theta, panel, calib, weights, rng))

    def test_unwritten_buffer_cells_are_never_computed_on(self, setup, monkeypatch):
        # Every float buffer the library allocates with np.empty starts as a
        # signaling NaN, which raises "invalid value" in any arithmetic (a
        # quiet NaN would pass silently). No arithmetic may touch a cell
        # before it is written, such as a covariance cell that its chunk has
        # not filled yet.
        panel, calib, weights = setup
        empty = np.empty

        def signaling_empty(*args, **kwargs):
            buffer = empty(*args, **kwargs)
            if buffer.dtype == np.float64:
                buffer.view(np.uint64).fill(0x7FF0000000000001)
            return buffer

        monkeypatch.setattr(np, "empty", signaling_empty)
        assert np.isnan(np.empty(3)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = score_groups(panel, REFERENCE_CATALOG, REFERENCE_GROUPS, calib, weights, reps=3, master_seed=2)
        assert np.isfinite(scores).all()

    def test_single_assignment_unit_rejected(self):
        # A switchback on one region and one period has one occupied label.
        panel = tiny_panel(4, 1, baseline=np.arange(4.0)[:, None])
        grid = AmbiguityGrid((MechanismPoint(0.3, 0.2, 0.1),))
        calib = CalibrationScales(0.5, 0.4, 0.3, noise_sd=0.2)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        with pytest.raises(PlanningError, match="variance needs at least 2 assignment units"):
            score_grid(panel, [DesignSpec(kind="switchback")], grid, calib, weights, reps=3)

    def test_empty_group_rejected(self, setup):
        panel, calib, weights = setup
        with pytest.raises(ConfigurationError):
            score_groups(panel, SMALL_CATALOG, [SMALL_GRID.points, ()], calib, weights)


class TestCountPathEdges:
    # On unit atoms the kernel scores a replay from counts: treated units per
    # class, group and label, and mixed's whole clusters. These panels take
    # the counts to their edges, and every kind, mixed with all clusters
    # split and with all whole among them, matches the per-point pipeline.
    @pytest.mark.parametrize(
        "shape, baseline_mean, kinds",
        [
            # Label means near 1e6 that differ by about 1: a sum of squares
            # less n times the squared mean would keep none of their spread.
            ((40, 5, 3, 2, 4), 1e6, KINDS),
            # Every cluster one unit, so cluster's labels are single units.
            ((24, 24, 3, 2, 4), 10.0, KINDS),
            # One budget group, which budget_split cannot split.
            ((40, 5, 1, 2, 4), 10.0, tuple(kind for kind in KINDS if kind != "budget_split")),
            ((40, 5, 3, 2, 1), 10.0, KINDS),
        ],
        ids=["baseline-huge", "one-unit-per-cluster", "one-budget-group", "one-period"],
    )
    def test_every_kind_matches_per_point_pipeline(self, shape, baseline_mean, kinds):
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(*shape, baseline_mean=baseline_mean, baseline_sd=1.0), seed=4
        )
        # Every score is unchanged by a constant shift of the baseline. The
        # shift is exact on these cells, and the reference, which sums cells
        # as they are, keeps their digits only near zero.
        shifted = dataclasses.replace(panel, baseline=panel.baseline - baseline_mean)
        catalog = [DesignSpec(kind=kind) for kind in kinds] + [
            DesignSpec(kind="mixed", mixture_prob=0.0, name="mixed-split"),
            DesignSpec(kind="mixed", mixture_prob=1.0, name="mixed-whole"),
        ]
        calib = CalibrationScales(0.7, 0.4, 0.3, noise_sd=0.3)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        reps = 3
        per_rep = score_groups(panel, catalog, REFERENCE_GROUPS, calib, weights, reps=reps, master_seed=8)
        for d, design in enumerate(catalog):
            expected = np.concatenate([
                hand_rows(design, group, shifted, calib, weights, group_stream(8, d, g), reps)
                for g, group in enumerate(REFERENCE_GROUPS)
            ])
            assert_matches_reference(per_rep[d], expected)


class TestZeroIntensityJump:
    def test_any_pure_graph_spill_scores_full_contamination(self, setup):
        # Contamination divides each channel's control-arm exposure by the
        # intensity sum. A pure graph spill therefore weighs its exposure by
        # graph_spill / intensity_sum = 1 however small it is, while zero
        # intensity leaves only the support stress: the channel jumps at 0.
        panel, calib, weights = setup
        rng = np.random.default_rng(0)
        panel = dataclasses.replace(panel, propensities=rng.uniform(0.2, 1.0, panel.baseline.shape))
        stress = 1.0 - ess_share(panel.propensities)
        assert stress > 0.0
        group = (MechanismPoint(0.0, 0.0, 0.0), MechanismPoint(1e-6, 0.0, 0.0), MechanismPoint(0.5, 0.0, 0.0))
        catalog = [DesignSpec(kind=kind) for kind in KINDS]
        per_rep = score_groups(panel, catalog, [group], calib, weights, reps=3, master_seed=5)
        contamination = per_rep[..., CONTAMINATION]
        assert np.all(contamination[:, 0] == stress)
        assert np.array_equal(contamination[:, 1], contamination[:, 2])
        # User randomization leaves treated units in every cluster, so its
        # control cells see a treated share well above zero.
        assert np.all(contamination[KINDS.index("user"), 1] > stress + 0.1)


class TestVarianceIsNonNegative:
    # The kernel's variance is the quadratic form o' C o of a replication's
    # label-mean covariance C, which rounding could take below the zero that
    # the direct form of a constant outcome gives; the kernel clamps it. On
    # unit atoms the direct and lag features are equal, so a direct effect at
    # or near -carry cancels them; with zero baseline sd and zero noise the
    # outcome is then (nearly) constant over labels.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(KINDS),
        treat_prob=st.sampled_from((0.5, 0.2)),
        carryover=st.sampled_from((0.05, 0.2)),
        carry_scale=st.sampled_from((0.3, 1.7)),
        offset=st.sampled_from((0.0, 1e-12, -1e-9, 1e-6)),
        baseline_sd=st.sampled_from((0.0, 1.0)),
        noise_sd=st.sampled_from((0.0, 0.3)),
        graph_spill=st.sampled_from((0.0, 0.3)),
        master_seed=st.integers(0, 2**16),
    )
    def test_near_cancelling_calibrations(
        self, kind, treat_prob, carryover, carry_scale, offset, baseline_sd, noise_sd, graph_spill, master_seed
    ):
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(24, 4, 3, 2, 5, baseline_mean=10.3, baseline_sd=baseline_sd), seed=master_seed
        )
        theta = MechanismPoint(graph_spill, 0.0, carryover)
        carry = outcome_strengths(theta, CalibrationScales(0.0, 0.5, carry_scale)).carry
        calib = CalibrationScales(-carry * (1.0 + offset), 0.5, carry_scale, noise_sd=noise_sd)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        design = DesignSpec(kind=kind, treat_prob=treat_prob)
        rows = score_grid(panel, [design], AmbiguityGrid((theta,)), calib, weights, reps=2, master_seed=master_seed)
        rows = rows[0, 0]
        assert np.all(rows[:, VARIANCE] >= 0.0)
        assert np.all(np.isfinite(rows[:, MDE]))
        rng = group_stream(master_seed, 0, 0)
        for row in rows:
            assert_matches_reference(row, hand_row(design, theta, panel, calib, weights, rng))


# Designs whose π is not the default 0.5: skewed saturation levels (mean 0.4),
# other treatment probabilities, and a two_stage whose one level treats every atom.
SKEWED_CATALOG = [
    DesignSpec(kind="two_stage", saturation_levels=(0.1, 0.2, 0.9), name="two_stage-skewed"),
    DesignSpec(kind="user", treat_prob=0.3),
    DesignSpec(kind="mixed", treat_prob=0.7),
    DesignSpec(kind="switchback", treat_prob=0.2, block_length=2),
    DesignSpec(kind="two_stage", saturation_levels=(1.0,), name="two_stage-all"),
]


class TestClosedForms:
    # The kernel draws only the assignment. It scores the outcome noise by
    # its expected share of the variance, and geometry and mismatch by their
    # expectation 1 - π. These tests check those expectations against draws,
    # and the kernel against the reference where π is not 0.5.

    @pytest.mark.parametrize("kind", ["user", "two_stage", "mixed", "switchback"])
    def test_noise_share_is_the_mean_of_drawn_noisy_variances(self, setup, kind):
        # For one fixed assignment, the variance of label means of outcomes
        # with independent cell noise, averaged over many noise draws, is the
        # noise-free variance plus noise_sd**2 * mean_l(1 / m_l). Without the
        # noise term it is not.
        panel, _, _ = setup
        calib = CalibrationScales(0.5, 0.4, 0.3, noise_sd=1.0)
        theta = MechanismPoint(0.3, 0.5, 0.2)
        table = replay(DesignSpec(kind=kind), panel, seed=17)
        expo = exposure_features(table, panel, theta)
        noise_free = variance_component(simulate_outcomes(panel, expo, theta, dataclasses.replace(calib, noise_sd=0.0)),
                                        table)
        closed = noise_free + noise_variance(table, calib)
        drawn = np.array([
            variance_component(simulate_outcomes(panel, expo, theta, calib, seed=s), table) for s in range(2000)
        ])
        se = drawn.std(ddof=1) / math.sqrt(drawn.size)
        assert abs(drawn.mean() - closed) <= 4.0 * se
        assert abs(drawn.mean() - noise_free) > 4.0 * se

    @pytest.mark.parametrize("design", [DesignSpec(kind=kind) for kind in KINDS] + SKEWED_CATALOG[:1],
                             ids=list(KINDS) + ["two_stage-skewed"])
    def test_drawn_pooled_gaps_average_to_one_minus_pi(self, setup, design):
        # Geometry and mismatch average the pooled gaps to launch of the
        # direct, lag and share features, with weights that sum to 1. Over
        # replays each averages to 1 - π; skewed levels put π at 0.4, away
        # from treat_prob.
        panel, _, _ = setup
        theta = MechanismPoint(0.3, 0.5, 0.2, "region")
        rng = np.random.default_rng(23)
        gaps = np.empty((400, 2))
        for r in range(len(gaps)):
            expo = exposure_features(replay(design, panel, seed=rng), panel, theta)
            gaps[r] = geometry_score(expo, theta), estimand_mismatch(expo)
        mean, se = gaps.mean(axis=0), gaps.std(axis=0, ddof=1) / math.sqrt(len(gaps))
        assert np.all(np.abs(mean - (1.0 - launch_share(design))) <= 4.0 * se), (mean, se)
        if design.name == "two_stage-skewed":
            # treat_prob would put the expectation at 0.5, which the draws rule out.
            assert np.all(np.abs(mean - (1.0 - design.treat_prob)) > 4.0 * se), (mean, se)

    def test_kernel_matches_reference_away_from_half(self, setup):
        # Geometry, mismatch and the full-launch constants follow π, which
        # for two_stage is the mean saturation level, not treat_prob.
        panel, calib, weights = setup
        rng = np.random.default_rng(4)
        panel = dataclasses.replace(panel, propensities=rng.uniform(0.2, 1.0, panel.baseline.shape))
        reps = 3
        per_rep = score_groups(panel, SKEWED_CATALOG, REFERENCE_GROUPS, calib, weights, reps=reps, master_seed=12)
        for d, design in enumerate(SKEWED_CATALOG):
            expected = np.concatenate([
                hand_rows(design, group, panel, calib, weights, group_stream(12, d, g), reps)
                for g, group in enumerate(REFERENCE_GROUPS)
            ])
            assert_matches_reference(per_rep[d], expected)
        stress = 1.0 - ess_share(panel.propensities)
        assert np.allclose(per_rep[0, ..., GEOMETRY], 0.6)
        assert np.allclose(per_rep[0, ..., MISMATCH], 0.6 + stress)
        assert np.all(per_rep[-1, ..., GEOMETRY] == 0.0)
        assert np.all(per_rep[-1, ..., MISMATCH] == stress)


class TestTransportIdentity:
    @pytest.mark.parametrize("panel_seed", [0, 1, 2])
    def test_two_arm_bias_is_minus_the_transport_term(self, panel_seed):
        # With a zero baseline and no noise, the bias of every two-arm
        # replication is minus the paper's transport term, the bound holding
        # with equality: sum over the graph, budget and carry channels of the
        # strength times the W1 distances of the treated arm's exposure to
        # launch (1 - its mean) and of the control arm's to all-control (its
        # mean). The exposures come from the per-point path under the kernel's
        # seed schedule.
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(60, 6, 4, 2, 5, baseline_mean=0.0, baseline_sd=0.0), seed=panel_seed
        )
        assert not panel.baseline.any()
        calib = CalibrationScales(0.7, 0.4, 0.3, noise_sd=0.0)
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        catalog = [DesignSpec(kind=kind) for kind in KINDS]
        grid = default_grid()
        reps = 2
        per_rep = score_grid(panel, catalog, grid, calib, weights, reps=reps, master_seed=panel_seed)
        two_arm = 0
        for d, design in enumerate(catalog):
            for k, theta in enumerate(grid):
                s = outcome_strengths(theta, calib)
                rng = group_stream(panel_seed, d, k)
                for r in range(reps):
                    table = replay(design, panel, seed=rng)
                    treated = table.z == 1
                    if treated.all() or not treated.any():
                        continue
                    expo = exposure_features(table, panel, theta)
                    transport = sum(
                        strength * ((1.0 - share[treated].mean()) + share[~treated].mean())
                        for strength, share in (
                            (s.graph, expo.graph_share), (s.budget, expo.budget_share), (s.carry, expo.lag)
                        )
                    )
                    assert abs(per_rep[d, k, r, BIAS] + transport) <= 1e-12, (design.name, theta, r)
                    two_arm += 1
        assert two_arm > 0.9 * len(catalog) * len(grid) * reps


class TestPublicSurface:
    @pytest.mark.parametrize(
        "module", ["xdesign"] + [f"xdesign.{m.name}" for m in pkgutil.iter_modules(xdesign.__path__)]
    )
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(module)
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == []

    @pytest.mark.parametrize("name", ["simulate_outcomes", "variance_component", "contamination",
                                      "estimand_mismatch"])
    def test_per_point_pipeline_is_not_shipped(self, name):
        # The per-point pipeline is the tests' reference, not part of the library.
        assert not hasattr(xdesign, name)
        assert not hasattr(risk, name)

    @pytest.mark.parametrize("name", ["OpCostInputs", "operational_cost"])
    def test_op_cost_is_one_number(self, name):
        # A design's operational cost is DesignSpec.op_cost_level; neither the
        # subscore type nor its weighted mean is shipped.
        for module in (xdesign, designs, risk):
            assert not hasattr(module, name), module.__name__

    @pytest.mark.parametrize("name", ["AssignmentTable", "replay", "ExposurePanel", "exposure_features",
                                      "geometry_score", "_group_share", "normalize", "_cells"])
    def test_test_only_names_are_not_shipped(self, name):
        # The library scores on assignment atoms. The per-cell view of a
        # replay is the tests' reference, and the tests read normalized
        # scores from risk_surface.
        for module in (xdesign, designs, diagnostics, risk, selector):
            assert not hasattr(module, name), module.__name__

    def test_exposure_module_and_panel_outcome_are_gone(self):
        assert importlib.util.find_spec("xdesign.exposure") is None
        assert not hasattr(Panel, "outcome")
        assert xdesign.wasserstein1_1d is diagnostics.wasserstein1_1d

    def test_mde_grid_rejects_one_occupied_label(self):
        # A switchback on one region and one period has one occupied label.
        panel = tiny_panel(4, 1, baseline=np.arange(4.0)[:, None])
        weights = PlanningWeights(t_weeks=2, periods_per_week=3)
        with pytest.raises(PlanningError, match="design 'switchback': variance needs at least 2 assignment units"):
            mde_grid([DesignSpec(kind="switchback")], panel, weights, durations=(1,))

    def test_mde_grid_reports_effective_units_before_variance(self):
        # One period per week gives the one-region switchback a single
        # effective unit as well as a single label; the kernel counts
        # effective units first, at the shortest duration.
        panel = tiny_panel(4, 1, baseline=np.arange(4.0)[:, None])
        weights = PlanningWeights(t_weeks=2, periods_per_week=1)
        with pytest.raises(PlanningError, match=r"insufficient assignment units for design 'switchback' \(n=1\)"):
            mde_grid([DesignSpec(kind="switchback")], panel, weights, durations=(2, 1))

"""Tests for the reference exposure features and geometry score, and for 1-D optimal transport."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from xdesign import ConfigurationError, DesignSpec, MechanismPoint, Panel, wasserstein1_1d

from reference import AssignmentTable, _group_share, exposure_features, geometry_score, labelled_panel, replay


def tiny_panel(n_units=2, n_periods=1, cluster=None, budget=None, region=None) -> Panel:
    return labelled_panel(
        unit_ids=tuple(f"u{i}" for i in range(n_units)),
        cluster_ids=tuple(cluster or ["c0"] * n_units),
        budget_ids=tuple(budget or ["b0"] * n_units),
        region_ids=tuple(region or ["r0"] * n_units),
        n_periods=n_periods,
        baseline=np.zeros((n_units, n_periods)),
    )


def table(z, panel) -> AssignmentTable:
    z = np.asarray(z, dtype=np.int8)
    labels = np.repeat(np.arange(z.shape[0], dtype=np.int64)[:, None], z.shape[1], axis=1)
    return AssignmentTable(z=z, labels=labels)


class TestExposureFeatures:
    def test_full_launch_gives_all_ones(self):
        panel = tiny_panel(3, 2)
        expo = exposure_features(table(np.ones((3, 2)), panel), panel, MechanismPoint(0.1, 0.1, 0.1))
        for coord in (expo.direct, expo.budget_share, expo.graph_share, expo.lag):
            assert np.all(coord == 1)

    def test_isolated_untreated_unit_all_zero(self):
        panel = tiny_panel(2, 3, cluster=["c0", "c1"], budget=["b0", "b1"], region=["r0", "r1"])
        expo = exposure_features(table(np.zeros((2, 3)), panel), panel, MechanismPoint(0.1, 0.1, 0.1))
        assert np.all(expo.direct == 0)
        assert np.all(expo.budget_share == 0)
        assert np.all(expo.graph_share == 0)
        assert np.all(expo.lag == 0)  # lag at t=1 copies direct

    def test_shared_budget_share_is_half(self):
        panel = tiny_panel(2, 2)
        expo = exposure_features(table([[1, 1], [0, 0]], panel), panel, MechanismPoint(0, 0, 0))
        assert np.all(expo.budget_share == 0.5)

    def test_locality_selects_grouping(self):
        panel = tiny_panel(2, 1, cluster=["c0", "c0"], budget=["b0", "b1"], region=["r0", "r1"])
        z = [[1], [0]]
        by_cluster = exposure_features(table(z, panel), panel, MechanismPoint(0, 0, 0, "cluster"))
        by_region = exposure_features(table(z, panel), panel, MechanismPoint(0, 0, 0, "region"))
        assert np.allclose(by_cluster.graph_share, 0.5)
        assert np.array_equal(by_region.graph_share, [[1.0], [0.0]])

    def test_lag_shifts_treatment(self):
        panel = tiny_panel(2, 3)
        expo = exposure_features(table([[1, 0, 1], [0, 0, 0]], panel), panel, MechanismPoint(0, 0, 0))
        assert expo.lag[0].tolist() == [1, 1, 0]
        assert expo.lag[1].tolist() == [0, 0, 0]


class TestGeometryScore:
    def test_full_launch_scores_zero(self):
        panel = tiny_panel(3, 2)
        expo = exposure_features(table(np.ones((3, 2)), panel), panel, MechanismPoint(0.3, 0.5, 0.2))
        assert geometry_score(expo, MechanismPoint(0.3, 0.5, 0.2)) == 0.0

    def test_single_untreated_cell_zero_intensities(self):
        panel = tiny_panel(2, 1, cluster=["c0", "c1"], budget=["b0", "b1"], region=["r0", "r1"])
        theta = MechanismPoint(0, 0, 0)
        z = np.array([[0], [1]], dtype=np.int8)
        expo = exposure_features(table(z, panel), panel, theta)
        # direct-only gap: mean(|1-z|) = 0.5 at these two cells; for the worked
        # single-cell value restrict to one untreated unit:
        solo = exposure_features(table([[0], [0]], panel), panel, theta)
        assert geometry_score(solo, theta) == pytest.approx(1.0, abs=1e-12)

    def test_worked_budget_pair_example(self):
        # Two units, one period, one shared budget group, z = (1, 0),
        # intensities (0, 0.5, 0): score = (1/1.5) * mean{0.25, 1.25} = 0.5.
        panel = tiny_panel(2, 1)
        theta = MechanismPoint(0.0, 0.5, 0.0)
        expo = exposure_features(table([[1], [0]], panel), panel, theta)
        assert geometry_score(expo, theta) == pytest.approx(0.5, abs=1e-12)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        cfg_panel = tiny_panel(6, 4, cluster=["c0", "c0", "c1", "c1", "c2", "c2"],
                               budget=["b0", "b1", "b0", "b1", "b0", "b1"],
                               region=["r0"] * 6)
        theta = MechanismPoint(0.17, 0.41, 0.09, "cluster")
        z = (rng.random((6, 4)) < 0.5).astype(np.int8)
        expo = exposure_features(table(z, cfg_panel), cfg_panel, theta)
        # Independent scalar-loop recomputation of the weighted L1 gap.
        total = 0.0
        for i in range(6):
            for t in range(4):
                total += (
                    abs(1 - expo.direct[i, t])
                    + theta.budget_spill * abs(1 - expo.budget_share[i, t])
                    + theta.graph_spill * abs(1 - expo.graph_share[i, t])
                    + theta.carryover * abs(1 - expo.lag[i, t])
                )
        expected = total / 24 / (1 + theta.graph_spill + theta.budget_spill + theta.carryover)
        assert geometry_score(expo, theta) == pytest.approx(expected, abs=1e-12)

    def test_monotone_toward_launch(self):
        # Moving every coordinate toward 1 cannot increase the score.
        panel = tiny_panel(4, 3)
        theta = MechanismPoint(0.3, 0.5, 0.2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            z_lo = (rng.random((4, 3)) < 0.3).astype(np.int8)
            z_hi = np.maximum(z_lo, (rng.random((4, 3)) < 0.5).astype(np.int8))
            lo = geometry_score(exposure_features(table(z_lo, panel), panel, theta), theta)
            hi = geometry_score(exposure_features(table(z_hi, panel), panel, theta), theta)
            assert hi <= lo + 1e-12


def brute_force_w1(p, q) -> float:
    """Minimum mean-cost bijective matching between two equal-size samples."""
    best = np.inf
    for perm in itertools.permutations(range(len(q))):
        cost = float(np.mean([abs(p[i] - q[j]) for i, j in enumerate(perm)]))
        best = min(best, cost)
    return best


class TestWasserstein1D:
    def test_identical_samples_zero(self):
        assert wasserstein1_1d([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_two_point_example(self):
        # Oracle: exhaustive matching over both couplings of {0,1} and {1,2}.
        assert brute_force_w1([0, 1], [1, 2]) == pytest.approx(1.0)
        assert wasserstein1_1d([0, 1], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_translation_property(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=50)
        for c in (-2.5, 0.4, 10.0):
            assert wasserstein1_1d(p, p + c) == pytest.approx(abs(c), abs=1e-9)

    def test_matches_brute_force_oracle_up_to_six(self):
        rng = np.random.default_rng(2)
        for n in range(1, 7):
            for _ in range(8):
                p = rng.uniform(-3, 3, n)
                q = rng.uniform(-3, 3, n)
                assert wasserstein1_1d(p, q) == pytest.approx(brute_force_w1(p, q), abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        p, q, r = rng.normal(size=(3, 20))
        d_pq = wasserstein1_1d(p, q)
        assert d_pq >= 0
        assert d_pq == pytest.approx(wasserstein1_1d(q, p), abs=1e-15)
        assert d_pq <= wasserstein1_1d(p, r) + wasserstein1_1d(r, q) + 1e-12

    def test_unequal_lengths_error(self):
        with pytest.raises(ConfigurationError, match="equal length"):
            wasserstein1_1d([1.0], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            wasserstein1_1d([], [])


class TestExposureOnReplays:
    def test_replayed_designs_have_valid_shares(self):
        from xdesign import SyntheticPanelConfig, generate_synthetic_panel

        panel = generate_synthetic_panel(
            SyntheticPanelConfig(n_units=60, n_clusters=6, n_budget_groups=4, n_regions=2, n_periods=5),
            seed=1,
        )
        theta = MechanismPoint(0.3, 0.5, 0.2, "budget")
        for kind in ("user", "cluster", "switchback", "budget_split", "two_stage", "mixed"):
            expo = exposure_features(replay(DesignSpec(kind=kind), panel, seed=3), panel, theta)
            assert expo.budget_share.min() >= 0 and expo.budget_share.max() <= 1
            assert expo.graph_share.min() >= 0 and expo.graph_share.max() <= 1
            assert np.array_equal(expo.lag[:, 0], expo.direct[:, 0])


def loop_group_share(z, codes):
    """Per-period bincount loop: the reference for the one-bincount group share."""
    n_groups = int(codes.max()) + 1
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    sums = np.empty((n_groups, z.shape[1]))
    zf = z.astype(float)
    for t in range(z.shape[1]):
        sums[:, t] = np.bincount(codes, weights=zf[:, t], minlength=n_groups)
    return sums[codes] / counts[codes][:, None]


class TestGroupShare:
    @pytest.mark.parametrize("config_name", ["select_demo.json", "sweep_demo.json"])
    def test_one_bincount_equals_per_period_loop(self, config_name):
        from xdesign.config import load_config

        config = load_config(Path(__file__).resolve().parents[1] / "configs" / config_name)
        panel = config.build_panel()
        for d_idx, design in enumerate(config.build_catalog()):
            z = replay(design, panel, seed=d_idx).z
            for locality in ("cluster", "budget", "region"):
                codes = panel.group_codes(locality)
                assert np.array_equal(_group_share(z, codes), loop_group_share(z, codes)), (design.name, locality)

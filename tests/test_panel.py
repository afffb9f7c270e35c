"""Tests for panel construction, CSV ingestion, calibration, and ESS support."""

import io
import math

import numpy as np
import pytest

from xdesign import (
    CalibrationError,
    ConfigurationError,
    CsvSchema,
    IngestionError,
    Panel,
    SyntheticPanelConfig,
    calibrate_scales,
    ess_share,
    generate_synthetic_panel,
    ingest_log_csv,
)


def check_panel_invariants(panel: Panel) -> None:
    assert len(set(panel.unit_ids)) == panel.n_units >= 2
    assert panel.n_periods >= 1
    assert panel.baseline.shape == (panel.n_units, panel.n_periods)
    assert all(panel.cluster_ids) and all(panel.budget_ids) and all(panel.region_ids)
    if panel.propensities is not None:
        assert np.all((panel.propensities > 0) & (panel.propensities <= 1))


class TestSyntheticPanel:
    def test_zero_sd_means_constant_baseline(self):
        cfg = SyntheticPanelConfig(n_units=10, n_periods=3, baseline_mean=4.2, baseline_sd=0.0)
        panel = generate_synthetic_panel(cfg, seed=1)
        assert np.all(panel.baseline == 4.2)

    def test_determinism(self):
        cfg = SyntheticPanelConfig(n_units=30, n_clusters=3, n_periods=4)
        a = generate_synthetic_panel(cfg, seed=9)
        b = generate_synthetic_panel(cfg, seed=9)
        assert a.unit_ids == b.unit_ids
        assert a.cluster_ids == b.cluster_ids
        assert np.array_equal(a.baseline, b.baseline)

    def test_round_robin_balances_clusters(self):
        cfg = SyntheticPanelConfig(n_units=100, n_clusters=10, n_periods=2)
        panel = generate_synthetic_panel(cfg, seed=3)
        counts = np.bincount(panel.cluster_codes)
        assert counts.size == 10
        assert np.all(counts == 10)

    def test_invalid_counts_name_the_field(self):
        with pytest.raises(ConfigurationError, match="n_units"):
            SyntheticPanelConfig(n_units=1)
        with pytest.raises(ConfigurationError, match="n_clusters"):
            SyntheticPanelConfig(n_clusters=0)
        with pytest.raises(ConfigurationError, match="baseline_sd"):
            SyntheticPanelConfig(baseline_sd=-1.0)

    def test_random_configs_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            cfg = SyntheticPanelConfig(
                n_units=int(rng.integers(2, 40)),
                n_clusters=int(rng.integers(1, 8)),
                n_budget_groups=int(rng.integers(1, 6)),
                n_regions=int(rng.integers(1, 4)),
                n_periods=int(rng.integers(1, 6)),
                baseline_sd=float(rng.uniform(0, 2)),
            )
            check_panel_invariants(generate_synthetic_panel(cfg, seed=int(rng.integers(1000))))


CSV_HEADER = "unit_id,period,outcome,cluster_id,budget_id,region_id,propensity\n"


class TestIngestLogCsv:
    def test_empty_stream_errors(self):
        with pytest.raises(IngestionError, match="no data rows"):
            ingest_log_csv(io.StringIO(""))
        with pytest.raises(IngestionError, match="no data rows"):
            ingest_log_csv(io.StringIO("unit_id,period,outcome\n"))

    def test_minimal_two_units_no_propensity(self):
        text = "unit_id,period,outcome\nA,1,2.0\nB,1,3.5\n"
        panel = ingest_log_csv(io.StringIO(text))
        assert panel.n_units == 2
        assert panel.n_periods == 1
        assert panel.propensities is None
        assert panel.baseline[panel.unit_ids.index("A"), 0] == 2.0
        # Missing group columns collapse everyone into one shared group.
        assert panel.n_clusters == panel.n_budget_groups == panel.n_regions == 1

    def test_zero_propensity_cites_row(self):
        text = CSV_HEADER + "A,1,2.0,c1,b1,r1,0.5\nB,1,3.0,c1,b1,r1,0\n"
        with pytest.raises(IngestionError, match="row 3"):
            ingest_log_csv(io.StringIO(text))

    def test_non_numeric_outcome_cites_row(self):
        text = "unit_id,period,outcome\nA,1,2.0\nB,1,oops\n"
        with pytest.raises(IngestionError, match="row 3"):
            ingest_log_csv(io.StringIO(text))

    def test_missing_required_column(self):
        with pytest.raises(IngestionError, match="outcome"):
            ingest_log_csv(io.StringIO("unit_id,period\nA,1\n"))

    def test_periods_remapped_contiguously(self):
        text = "unit_id,period,outcome\nA,10,1\nA,30,2\nB,10,3\nB,30,4\n"
        panel = ingest_log_csv(io.StringIO(text))
        assert panel.n_periods == 2
        assert panel.baseline[panel.unit_ids.index("A"), 1] == 2.0

    def test_duplicate_observation_rejected(self):
        text = "unit_id,period,outcome\nA,1,1\nA,1,2\nB,1,3\n"
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_log_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, row",
        [
            # NaN once marked an unfilled cell, so a duplicate row went unnoticed.
            ("unit_id,period,outcome\nA,1,nan\nA,1,2\nB,1,3\n", 2),
            ("unit_id,period,outcome\nA,1,1\nB,1,inf\n", 3),
            ("unit_id,period,outcome\nA,1,1\nB,1,nan\n", 3),
        ],
        ids=["nan-then-duplicate", "inf", "lone-nan"],
    )
    def test_non_finite_outcome_cites_row(self, text, row):
        with pytest.raises(IngestionError, match=f"row {row}: non-finite outcome"):
            ingest_log_csv(io.StringIO(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("unit_id,period,outcome\nA,1,1\nB,1\n", "row 3: expected 3 fields, got 2"),
            ("unit_id,period,outcome\nA,1,1,9\nB,1,2\n", "row 2: expected 3 fields, got 4"),
        ],
        ids=["short", "long"],
    )
    def test_row_width_must_match_header(self, text, message):
        with pytest.raises(IngestionError, match=f"^{message}$"):
            ingest_log_csv(io.StringIO(text))

    def test_duplicate_column_rejected(self):
        text = "unit_id,period,outcome,outcome\nA,1,1,5\nB,1,2,6\n"
        with pytest.raises(IngestionError, match="^duplicate column 'outcome'$"):
            ingest_log_csv(io.StringIO(text))
        # Names are compared after stripping, as columns are looked up.
        with pytest.raises(IngestionError, match="^duplicate column 'period'$"):
            ingest_log_csv(io.StringIO("unit_id,period, period,outcome\nA,1,1,5\nB,1,1,6\n"))

    def test_incomplete_panel_rejected(self):
        text = "unit_id,period,outcome\nA,1,1\nA,2,2\nB,1,3\n"
        with pytest.raises(IngestionError, match="incomplete"):
            ingest_log_csv(io.StringIO(text))

    def test_custom_schema(self):
        text = "uid,week,clicks\nA,1,2.0\nB,1,3.5\n"
        schema = CsvSchema(unit_id="uid", period="week", outcome="clicks")
        panel = ingest_log_csv(io.StringIO(text), schema)
        assert panel.n_units == 2

    def test_random_logs_satisfy_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n, t = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            lines = [CSV_HEADER.strip()]
            for i in range(n):
                for period in range(1, t + 1):
                    lines.append(
                        f"u{i},{period},{rng.normal():.4f},c{i % 3},b{i % 2},r0,{rng.uniform(0.1, 1):.3f}"
                    )
            check_panel_invariants(ingest_log_csv(io.StringIO("\n".join(lines) + "\n")))


class TestCalibrateScales:
    def _panel(self, values) -> Panel:
        arr = np.asarray(values, dtype=float)
        n = arr.shape[0]
        return Panel(
            unit_ids=tuple(f"u{i}" for i in range(n)),
            cluster_ids=("c",) * n,
            budget_ids=("b",) * n,
            region_ids=("r",) * n,
            n_periods=arr.shape[1],
            baseline=arr,
        )

    def test_full_overrides_returned_verbatim(self):
        panel = self._panel([[1.0], [1.0]])  # zero-sd panel: defaults would fail
        scales = calibrate_scales(
            panel, direct_effect=0.3, spill_scale=0.7, carry_scale=0.2,
            graph_frac=0.6, noise_sd=0.05,
        )
        assert scales.direct_effect == 0.3
        assert scales.spill_scale == 0.7
        assert scales.carry_scale == 0.2
        assert scales.graph_frac == 0.6
        assert scales.noise_sd == 0.05

    def test_default_formulas_at_known_sd(self):
        # Four outcomes {1, 1, 1 + sqrt(6), 1 - sqrt(6)} have sample sd exactly 2.
        panel = self._panel([[1.0, 1.0], [1.0 + math.sqrt(6), 1.0 - math.sqrt(6)]])
        sd = float(np.std(panel.baseline, ddof=1))
        assert sd == pytest.approx(2.0, abs=1e-12)
        scales = calibrate_scales(panel)
        assert scales.spill_scale == pytest.approx(1.0, abs=1e-12)
        assert scales.carry_scale == pytest.approx(0.5, abs=1e-12)
        assert scales.direct_effect == pytest.approx(0.2, abs=1e-12)
        assert scales.graph_frac == 0.5

    def test_constant_outcomes_error(self):
        panel = self._panel([[3.0], [3.0]])
        with pytest.raises(CalibrationError):
            calibrate_scales(panel)

    def test_idempotent_on_own_output(self):
        panel = self._panel([[0.0, 1.0], [2.0, 3.0]])
        first = calibrate_scales(panel)
        second = calibrate_scales(
            panel,
            direct_effect=first.direct_effect,
            spill_scale=first.spill_scale,
            carry_scale=first.carry_scale,
            graph_frac=first.graph_frac,
            noise_sd=first.noise_sd,
        )
        assert first == second


class TestEssShare:
    def test_constant_propensities_exactly_one(self):
        assert ess_share([0.37] * 50 ) == 1.0
        assert ess_share([1.0, 1.0]) == 1.0

    def test_hand_computed_example(self):
        # w = {2, 4}: (2+4)^2 / (2 * (4+16)) = 36/40 = 0.9
        assert ess_share([0.5, 0.25]) == pytest.approx(0.9, abs=1e-12)

    def test_single_element(self):
        assert ess_share([0.123]) == 1.0

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            ess_share([])
        with pytest.raises(ConfigurationError):
            ess_share([0.5, 0.0])
        with pytest.raises(ConfigurationError):
            ess_share([0.5, -0.1])

    def test_scale_invariance_of_weights(self):
        # Scaling all weights 1/pi by kappa >= 1 keeps propensities valid and
        # must leave the share unchanged.
        rng = np.random.default_rng(11)
        pi = rng.uniform(0.01, 1.0, 40)
        base = ess_share(pi)
        for kappa in (1.5, 7.0, 1234.5):
            assert ess_share(pi / kappa) == pytest.approx(base, abs=1e-12)

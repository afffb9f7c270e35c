"""Tests for panel construction, CSV ingestion, calibration, and ESS support."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xdesign import (
    CalibrationError,
    ConfigurationError,
    CsvSchema,
    IngestionError,
    Panel,
    SyntheticPanelConfig,
    calibrate_scales,
    code_labels,
    ess_share,
    generate_synthetic_panel,
    ingest_log_csv,
)

from xdesign import panel as panel_module
from xdesign.panel import LOCALITIES

from reference import group_labels, labelled_panel, reference_ingest_log_csv, reference_synthetic_panel


def check_panel_invariants(panel: Panel) -> None:
    assert len(set(panel.unit_ids)) == panel.n_units >= 2
    assert panel.n_periods >= 1
    assert panel.baseline.shape == (panel.n_units, panel.n_periods)
    assert all(all(group_labels(panel, grouping)) for grouping in LOCALITIES)
    if panel.propensities is not None:
        assert np.all((panel.propensities > 0) & (panel.propensities <= 1))


def assert_same_panel(a: Panel, b: Panel) -> None:
    assert a.unit_ids == b.unit_ids
    for grouping in LOCALITIES:
        (codes_a, names_a), (codes_b, names_b) = a.groups[grouping], b.groups[grouping]
        assert names_a == names_b, grouping
        assert codes_a.dtype == codes_b.dtype == np.int64 and np.array_equal(codes_a, codes_b), grouping
    assert a.n_periods == b.n_periods
    assert a.baseline.dtype == b.baseline.dtype == np.float64
    assert a.baseline.tobytes() == b.baseline.tobytes()
    if a.propensities is None or b.propensities is None:
        assert a.propensities is None and b.propensities is None
    else:
        assert a.propensities.tobytes() == b.propensities.tobytes()


class TestGroupCodes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(labels=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=40))
    def test_code_labels_matches_np_unique(self, labels):
        names, inverse = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
        codes, got = code_labels(labels)
        assert got == tuple(names)
        assert codes.dtype == np.int64 and codes.tolist() == inverse.reshape(-1).tolist()

    def test_label_views_are_derived_from_the_codes(self):
        panel = labelled_panel(("u0", "u1", "u2"), ("c2", "c10", "c2"), ("b",) * 3, ("r1", "r0", "r0"),
                               n_periods=1, baseline=np.zeros((3, 1)))
        codes, names = panel.groups["cluster"]
        assert names == ("c10", "c2")
        assert codes.tolist() == [1, 0, 1]
        assert group_labels(panel, "cluster") == ("c2", "c10", "c2")
        assert group_labels(panel, "region") == ("r1", "r0", "r0")
        with pytest.raises(AttributeError):
            panel.groups = {}

    @pytest.mark.parametrize(
        "codes, names, message",
        [
            ([0, 2], ("a", "b"), "cluster_codes must use each of the 2 names"),
            ([0, 0], ("a", "b"), "cluster_codes must use each of the 2 names"),
            ([-1, 0], ("a",), "cluster_codes must use each of the 1 names"),
            ([0, 1], ("b", "a"), "cluster_names must be sorted and distinct"),
            ([0, 1], ("a", "a"), "cluster_names must be sorted and distinct"),
            ([0], ("a",), "cluster_codes must hold one integer per unit"),
            ([0.0, 0.0], ("a",), "cluster_codes must hold one integer per unit"),
            ([0, 0], ("",), "cluster_id labels must be non-empty"),
        ],
        ids=["out-of-range", "unused-name", "negative", "unsorted", "repeated", "short", "float", "empty-name"],
    )
    def test_malformed_grouping_rejected(self, codes, names, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            Panel(unit_ids=("u0", "u1"),
                  groups={"cluster": (np.asarray(codes), names), "budget": (np.zeros(2, dtype=np.int64), ("b",)),
                          "region": (np.zeros(2, dtype=np.int64), ("r",))},
                  n_periods=1, baseline=np.zeros((2, 1)))

    def test_panel_is_frozen_all_the_way_down(self):
        # Construction checks the groupings and arrays once, so nothing may
        # change them afterwards: not the groupings table, not a code array,
        # not the baseline or propensities. The caller's arrays stay writeable.
        codes, baseline = np.array([0, 1, 0]), np.zeros((3, 2))
        panel = Panel(unit_ids=("u0", "u1", "u2"),
                      groups={"cluster": (codes, ("a", "b")), "budget": (np.zeros(3, dtype=np.int64), ("b",)),
                              "region": (np.zeros(3, dtype=np.int64), ("r",))},
                      n_periods=2, baseline=baseline, propensities=np.ones((3, 2)))
        with pytest.raises(TypeError):
            panel.groups["cluster"] = (np.zeros(3, dtype=np.int64), ("a",))
        with pytest.raises(TypeError):
            del panel.groups["region"]
        for array in (panel.group_codes("cluster"), panel.group_codes("budget"), panel.baseline, panel.propensities):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 99
        assert panel.group_codes("cluster").tolist() == [0, 1, 0]
        assert codes.flags.writeable and baseline.flags.writeable

    @pytest.mark.parametrize("names", [("cluster", "budget"), ("cluster", "budget", "region", "market")],
                             ids=["missing", "extra"])
    def test_groupings_other_than_the_three_rejected(self, names):
        one = (np.zeros(2, dtype=np.int64), ("g",))
        with pytest.raises(ConfigurationError, match="^groups must hold exactly the groupings cluster, budget, region$"):
            Panel(unit_ids=("u0", "u1"), groups=dict.fromkeys(names, one), n_periods=1, baseline=np.zeros((2, 1)))


class TestSyntheticPanel:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.fixed_dictionaries({
            "n_units": st.integers(2, 1500),
            "n_clusters": st.integers(1, 1300),
            "n_budget_groups": st.integers(1, 40),
            "n_regions": st.integers(1, 5),
            "n_periods": st.integers(1, 3),
        }),
        seed=st.integers(0, 2**32),
    )
    @example(shape={"n_units": 2000, "n_clusters": 50, "n_budget_groups": 6, "n_regions": 1, "n_periods": 40}, seed=0)
    @example(shape={"n_units": 30, "n_clusters": 1200, "n_budget_groups": 5, "n_regions": 2, "n_periods": 2}, seed=1)
    @example(shape={"n_units": 1500, "n_clusters": 1200, "n_budget_groups": 1100, "n_regions": 3, "n_periods": 1},
             seed=2)
    def test_matches_the_string_reference(self, shape, seed):
        # The same generator calls give the same codes, names and baseline as
        # labelling every unit with a string and coding the strings.
        cfg = SyntheticPanelConfig(**shape)
        assert_same_panel(generate_synthetic_panel(cfg, seed=seed), reference_synthetic_panel(cfg, seed=seed))

    def test_names_sort_as_strings_and_empty_groups_get_none(self):
        panel = generate_synthetic_panel(SyntheticPanelConfig(n_units=1100, n_clusters=1100, n_periods=1), seed=0)
        names = panel.groups["cluster"][1]
        assert names.index("c1000") < names.index("c101")
        panel = generate_synthetic_panel(SyntheticPanelConfig(n_units=5, n_clusters=9, n_periods=1), seed=0)
        assert panel.groups["cluster"][1] == ("c000", "c001", "c002", "c003", "c004")


    @pytest.mark.parametrize("count", ["n_clusters", "n_budget_groups", "n_regions"])
    def test_count_above_the_units_deals_as_one_group_per_unit(self, count):
        # Round-robin over more groups than units gives each unit its own
        # group, however large the count, so 2**70 deals as n_units does.
        shape = {"n_units": 40, "n_clusters": 4, "n_budget_groups": 3, "n_regions": 2, "n_periods": 2}
        huge = generate_synthetic_panel(SyntheticPanelConfig(**{**shape, count: 2**70}), seed=5)
        assert_same_panel(huge, generate_synthetic_panel(SyntheticPanelConfig(**{**shape, count: 40}), seed=5))

    def test_zero_sd_means_constant_baseline(self):
        cfg = SyntheticPanelConfig(n_units=10, n_periods=3, baseline_mean=4.2, baseline_sd=0.0)
        panel = generate_synthetic_panel(cfg, seed=1)
        assert np.all(panel.baseline == 4.2)

    def test_determinism(self):
        cfg = SyntheticPanelConfig(n_units=30, n_clusters=3, n_periods=4)
        a = generate_synthetic_panel(cfg, seed=9)
        b = generate_synthetic_panel(cfg, seed=9)
        assert a.unit_ids == b.unit_ids
        assert group_labels(a, "cluster") == group_labels(b, "cluster")
        assert np.array_equal(a.baseline, b.baseline)

    def test_round_robin_balances_clusters(self):
        cfg = SyntheticPanelConfig(n_units=100, n_clusters=10, n_periods=2)
        panel = generate_synthetic_panel(cfg, seed=3)
        counts = np.bincount(panel.group_codes("cluster"))
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


    def test_earlier_bad_row_is_reported(self):
        # Each column is checked at once, but the error still names the
        # first bad row, whatever check it fails.
        text = "unit_id,period,outcome,propensity\nA,1,oops,0.5\nB,1,2.0,0\n"
        with pytest.raises(IngestionError, match="^row 2: non-numeric outcome 'oops'$"):
            ingest_log_csv(io.StringIO(text))
        text = "unit_id,period,outcome\nA,1,inf\nB,1,oops\nC,1\n"
        with pytest.raises(IngestionError, match="^row 2: non-finite outcome 'inf'$"):
            ingest_log_csv(io.StringIO(text))

    def test_nan_period_rejected(self):
        # NaN has no place in the period order, so the lags would depend on
        # the process's string hashing.
        text = "unit_id,period,outcome\nA,3,1\nA,nan,2\nA,1,3\nA,2,4\n"
        with pytest.raises(IngestionError, match="^row 3: period 'nan' is NaN$"):
            ingest_log_csv(io.StringIO(text))

    def test_one_period_written_two_ways_rejected(self):
        text = "unit_id,period,outcome\nA,1,1\nB,1,2\nA,2,3\nB,1.0,4\n"
        with pytest.raises(IngestionError, match="^row 5: period '1.0' is period '1' written differently$"):
            ingest_log_csv(io.StringIO(text))

    def test_units_keep_first_seen_order_and_names_sort(self):
        text = "unit_id,period,outcome,cluster_id\nz,2,1,c2\na,2,2,c10\nz,1,3, c2\na,1,4,c10\n"
        panel = ingest_log_csv(io.StringIO(text))
        assert panel.unit_ids == ("z", "a")
        codes, names = panel.groups["cluster"]
        assert names == ("c10", "c2") and codes.tolist() == [1, 0]
        assert panel.baseline.tolist() == [[3.0, 1.0], [4.0, 2.0]]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), block=st.sampled_from([1, 2, 3, 1 << 14]))
    def test_matches_the_row_by_row_reference(self, data, block):
        # Random logs, some with bad fields, missing, repeated, blank or
        # ragged rows, read in blocks of a few rows: the panel, or the error
        # message and the row it names, match the row-by-row reference.
        text = data.draw(csv_logs())
        with mock.patch.object(panel_module, "_BLOCK_ROWS", block):
            got = outcome_of(lambda: ingest_log_csv(io.StringIO(text)))
        want = outcome_of(lambda: reference_ingest_log_csv(text))
        if isinstance(want, Panel) and isinstance(got, Panel):
            assert_same_panel(got, want)
        else:
            assert got == want


def outcome_of(ingest):
    try:
        return ingest()
    except (IngestionError, ConfigurationError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def csv_logs(draw) -> str:
    """A unit-by-period log with up to three faults."""
    n_units, n_periods = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    periods = draw(st.lists(st.sampled_from(["1", "2", "10", "1.0", " 2", "x", "b", "-0", "0", "3"]),
                            min_size=n_periods, max_size=n_periods, unique=True))
    groups, propensity = draw(st.booleans()), draw(st.booleans())
    header = ["unit_id", "period", "outcome"] + ["cluster_id", "budget_id", "region_id"] * groups
    header += ["propensity"] * propensity
    rows = []
    for i in range(n_units):
        for period in periods:
            row = [f"u{i}", period, draw(st.sampled_from(["1.5", "-2", "0", "1e3", " 7 "]))]
            row += [f"c{i % 3}", f"b{i % 2}", "r"] * groups
            row += [draw(st.sampled_from(["0.5", "1", "0.25"]))] * propensity
            rows.append(row)
    rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["field", "field", "label", "drop", "repeat", "blank", "width"]))
        at = draw(st.integers(0, len(rows)))
        row = rows[min(at, len(rows) - 1)] if rows else []
        if fault == "field" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(
                ["", " ", "oops", "nan", "inf", "0", "1.5", "1.0", "c9", " u0", "u1", "2"]))
        elif fault == "label" and groups and len(row) > 5:
            row[draw(st.integers(3, 5))] = draw(st.sampled_from(["c9", " c1", "b0", "b1"]))
        elif fault == "drop" and rows:
            rows.remove(row)
        elif fault == "repeat" and rows:
            rows.insert(at, list(rows[draw(st.integers(0, len(rows) - 1))]))
        elif fault == "blank":
            rows.insert(at, draw(st.sampled_from([[], [" "] * len(header)])))
        elif fault == "width" and row:
            row[:] = row[:-1] if draw(st.booleans()) else row + ["9"]
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


class TestCalibrateScales:
    def _panel(self, values) -> Panel:
        arr = np.asarray(values, dtype=float)
        n = arr.shape[0]
        return labelled_panel(
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

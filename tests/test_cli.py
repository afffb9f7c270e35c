"""End-to-end tests for the command-line surface and its artifacts."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from xdesign import ConfigurationError, DesignSpec, SyntheticPanelConfig, generate_synthetic_panel, ingest_log_csv
from xdesign import cli
from xdesign.cli import _Emitter, _write_json, main, run_select, run_simulate, run_sweep
from xdesign.config import RunConfig, config_digest, load_config
from xdesign.diagnostics import SweepConfig, regime_sweep
from xdesign.panel import LOCALITIES
from xdesign.risk import score_grid
from xdesign.selector import risk_surface

from reference import group_labels, labelled_panel, reference_panel_csv, reference_surface_csv, reference_sweep_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "xdesign" / "schemas"


def small_select_config(out_dir: Path, **extra) -> dict:
    data = {
        "panel": {
            "synthetic": {
                "n_units": 80, "n_clusters": 4, "n_budget_groups": 3,
                "n_regions": 2, "n_periods": 6,
            }
        },
        "calibration": {"direct_effect": 1.0},
        "grid": {
            "graph_spill": [0.0, 0.3], "budget_spill": [0.0, 0.5],
            "carryover": [0.0, 0.2], "localities": ["cluster"],
        },
        "weights": {"t_weeks": 2, "periods_per_week": 3},
        "reps": 3,
        "seed": 7,
        "out": str(out_dir),
        "formats": ["json", "csv", "svg"],
    }
    data.update(extra)
    return data


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run_cli(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run the CLI on ``argv`` in a fresh process, with ``env`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = "import sys; from xdesign.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", run, *argv], env=env, capture_output=True, text=True, timeout=300)


def validate(schema_name: str, payload: dict) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
    Draft202012Validator(schema).validate(payload)


class TestSelectCommand:
    def test_decision_report_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out"))
        assert main(["select", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "decision.json").read_text())
        validate("decision.schema.json", report)
        assert report["decision"]["selected"] in report["decision"]["shortlist"]
        assert (out / "surface.csv").exists()
        assert (out / "ranking.svg").exists()
        # Surface CSV covers the full catalog x grid.
        lines = (out / "surface.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 8
        assert "selected=" in capsys.readouterr().out

    def test_dominated_two_design_catalog_singleton_shortlist(self, tmp_path):
        catalog = [
            {"kind": "user", "op_cost_level": 0.1},
            {"kind": "budget_split", "op_cost_level": 1.0},
        ]
        data = small_select_config(tmp_path / "out", catalog=catalog)
        config = RunConfig(data)
        report = run_select(config)
        decision = report["decision"]
        assert decision["selected"] == "user"
        q = decision["q"]
        # One design clearly dominates: the margin exceeds the 2-epsilon band.
        assert q["budget_split"] - q["user"] > 2 * decision["epsilon_t"]
        assert decision["shortlist"] == ["user"]

    def test_byte_identical_across_thread_caps(self, tmp_path, monkeypatch):
        # XDESIGN_THREADS is not read: any integer cap writes the same bytes as
        # a run with the variable unset.
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out"))

        def run() -> dict:
            assert main(["select", "--config", str(cfg)]) == 0
            return {
                name: (tmp_path / "out" / name).read_bytes()
                for name in ("decision.json", "surface.csv", "ranking.svg")
            }

        monkeypatch.delenv("XDESIGN_THREADS", raising=False)
        unset = run()
        for threads in ("1", "3"):
            monkeypatch.setenv("XDESIGN_THREADS", threads)
            assert run() == unset, threads

    def test_flag_overrides(self, tmp_path):
        data = small_select_config(tmp_path / "out")
        cfg = write_config(tmp_path, data)
        out2 = tmp_path / "alt"
        assert main(["select", "--config", str(cfg), "--out", str(out2), "--reps", "2", "--format", "json"]) == 0
        assert os.listdir(out2) == ["decision.json"]
        assert json.loads((out2 / "decision.json").read_text())["surface_path"] is None

    @pytest.mark.parametrize(
        "extra, flags, message",
        [
            ({}, ["--format", ""], "formats must be non-empty"),
            ({}, ["--format", ","], "formats must be non-empty"),
            ({"epsilon_mode": "stderr"}, ["--reps", "1"], "epsilon_mode 'stderr' needs reps >= 2"),
            ({}, ["--out", ""], "out must be non-empty"),
        ],
        ids=["format-empty", "format-only-commas", "stderr-epsilon-one-rep", "out-empty"],
    )
    def test_flag_override_is_checked_like_the_config(self, tmp_path, capsys, extra, flags, message):
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out", **extra))
        assert main(["select", "--config", str(cfg), *flags]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_missing_csv_panel_is_single_line_error(self, tmp_path, capsys):
        data = {"panel": {"csv": {"path": str(tmp_path / "nope.csv")}}, "out": str(tmp_path / "out")}
        cfg = write_config(tmp_path, data)
        assert main(["select", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "panel.csv.path" in err and "nope.csv" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_single_line_error(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["select", "--config", str(path)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: cannot read config {path}: No such file or directory"
        ]

    def test_byte_order_mark_in_csv_panel_is_ignored(self, tmp_path):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        data = small_select_config(tmp_path / "sim")
        assert main(["simulate", "--config", str(write_config(tmp_path, data))]) == 0
        plain = tmp_path / "sim" / "panel.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        decisions = []
        for path in (plain, marked):
            out = tmp_path / path.stem
            cfg = write_config(tmp_path, {**data, "panel": {"csv": {"path": str(path)}}, "out": str(out), "reps": 1})
            assert main(["select", "--config", str(cfg), "--format", "json"]) == 0
            decisions.append(json.loads((out / "decision.json").read_text())["decision"])
        assert decisions[0] == decisions[1]

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"unit_id,period,outcome\nA,1,1,9\nB,1,2\n", "error: row 2: expected 3 fields, got 4"),
            (b"unit_id,period,outcome,outcome\nA,1,1,5\nB,1,2,6\n", "error: duplicate column 'outcome'"),
            (b"unit_id,period,outcome\nA,1,\xff\nB,1,2\n", "error: cannot read panel.csv.path {path}: not UTF-8 text"),
        ],
        ids=["long-row", "duplicate-column", "not-utf8"],
    )
    def test_malformed_csv_panel_is_single_line_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        cfg = write_config(tmp_path, {"panel": {"csv": {"path": str(path)}}, "out": str(tmp_path / "out")})
        assert main(["select", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [message.format(path=path)]
        assert not (tmp_path / "out").exists()

    def test_single_assignment_unit_is_one_line_error(self, tmp_path, capsys):
        # One region and one period leave the switchback a single assignment
        # unit, so its variance is undefined: one error line, no outputs.
        data = small_select_config(tmp_path / "out")
        data["panel"]["synthetic"].update(n_regions=1, n_periods=1)
        cfg = write_config(tmp_path, data)
        assert main(["select", "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == ["error: design 'switchback': variance needs at least 2 assignment units"]
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = small_select_config(tmp_path / "out")
        data["pannel"] = {}  # typo key
        cfg = write_config(tmp_path, data)
        assert main(["select", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_thread_cap_is_clean_error(self, tmp_path, capsys, monkeypatch):
        # A non-integer XDESIGN_THREADS used to fail the run with one error
        # line. The variable is no longer read, so the run now succeeds: no
        # error and no traceback on stderr, and the same bytes as with it unset.
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out"))
        names = ("decision.json", "surface.csv", "ranking.svg")

        monkeypatch.delenv("XDESIGN_THREADS", raising=False)
        assert main(["select", "--config", str(cfg)]) == 0
        unset = {name: (tmp_path / "out" / name).read_bytes() for name in names}
        capsys.readouterr()

        monkeypatch.setenv("XDESIGN_THREADS", "many")
        assert main(["select", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert {name: (tmp_path / "out" / name).read_bytes() for name in names} == unset

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS and OpenMP read their thread counts when numpy loads, so each
        # count runs in a fresh process.
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out"))
        snapshots = []
        for threads in ("1", "2"):
            result = run_cli(["select", "--config", str(cfg)], OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            result.check_returncode()
            snapshots.append({name: (tmp_path / "out" / name).read_bytes() for name in ("decision.json", "surface.csv")})
        assert snapshots[0] == snapshots[1]


class TestSweepCommand:
    def test_small_sweep_artifacts(self, tmp_path):
        data = small_select_config(tmp_path / "out")
        data["sweep"] = {"gamma_grid": [0.0, 0.5, 1.0], "reps": 2, "seed": 1}
        cfg = write_config(tmp_path, data)
        assert main(["sweep", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "sweep.json").read_text())
        validate("sweep.schema.json", report)
        assert len(report["winners"]) == 3
        csv_lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert csv_lines[0].endswith(",winner")
        assert len(csv_lines) == 4
        assert (out / "sweep.svg").exists()

    def test_gamma_past_the_budget_recession_runs(self, tmp_path, capsys):
        # Above gamma 1.2 the budget channel stays at 0 instead of going negative.
        data = small_select_config(tmp_path / "out")
        data["sweep"] = {"gamma_grid": [0.0, 1.5], "reps": 2}
        assert main(["sweep", "--config", str(write_config(tmp_path, data))]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert rows[2].split(",")[:4] == ["1.5", "0.3", "0.0", "0.2"]

    def test_sweep_section_defaults(self):
        # Without a sweep section the sweep takes the run's reps and seed and
        # the SweepConfig defaults; a section overrides key by key.
        assert RunConfig({"reps": 3, "seed": 5}).build_sweep() == SweepConfig(reps=3, seed=5)
        sweep = RunConfig({"reps": 3, "sweep": {"gamma_grid": [0.0, 1.0], "seed": 2}}).build_sweep()
        assert sweep == SweepConfig(gamma_grid=(0.0, 1.0), reps=3, seed=2)

    def test_seed_and_reps_flags_reach_the_sweep_section(self, tmp_path):
        # The shipped sweep config sets seed and reps in its sweep section as
        # well; the flags must replace both levels.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "sweep_demo.json"
        flags = ["--seed", "7", "--reps", "3", "--out", str(tmp_path / "flags")]
        assert main(["sweep", "--config", str(shipped), *flags]) == 0
        data = json.loads(shipped.read_text(encoding="utf-8"))
        data["seed"] = data["sweep"]["seed"] = 7
        data["reps"] = data["sweep"]["reps"] = 3
        data["out"] = str(tmp_path / "config")
        assert main(["sweep", "--config", str(write_config(tmp_path, data))]) == 0
        flags, config = (json.loads((tmp_path / name / "sweep.json").read_text()) for name in ("flags", "config"))
        assert flags["risks"] == config["risks"]
        assert flags["winners"] == config["winners"]


class TestDiagnoseCommand:
    def test_fast_subset_passes(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "out")})
        assert main(["diagnose", "--config", str(cfg), "--checks", "transport,minimax,catalog,dominance"]) == 0
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        validate("diagnostics.schema.json", report)
        assert report["passed"]
        assert [c["check"] for c in report["checks"]] == [
            "transport_bound", "minimax_tightness", "catalog_approximation", "dominance_audit",
        ]

    def test_seed_flag_reaches_the_diagnostics_section(self, tmp_path):
        checks = "transport,catalog,dominance"
        for name, flags, section_seed in (("flag", ["--seed", "3"], 0), ("config", [], 3)):
            data = {"out": str(tmp_path / name), "diagnostics": {"seed": section_seed}}
            cfg = write_config(tmp_path, data)
            assert main(["diagnose", "--config", str(cfg), "--checks", checks, *flags]) == 0
        flag, config = (json.loads((tmp_path / name / "diagnostics.json").read_text()) for name in ("flag", "config"))
        assert flag["checks"] == config["checks"]

    def test_forced_failure_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        # The config sets no tolerance, so the check itself gets an impossible one.
        check = cli.minimax_tightness_check
        monkeypatch.setattr(cli, "minimax_tightness_check", lambda *args, **kw: check(*args, **{**kw, "tolerance": -1.0}))
        cfg = write_config(tmp_path, {"out": str(tmp_path / "out")})
        assert main(["diagnose", "--config", str(cfg), "--checks", "minimax"]) == 1
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert not report["passed"]
        assert "FAIL" in capsys.readouterr().out

    @staticmethod
    def rejected_like_the_config(tmp_path, capsys, flag: str, checks: list[str], message: str) -> None:
        # The flag sets diagnostics.checks, so it gets that key's message.
        for args, data in (
            (["--checks", flag], {}),
            ([], {"diagnostics": {"checks": checks}}),
        ):
            cfg = write_config(tmp_path, {"out": str(tmp_path / "out"), **data})
            assert main(["diagnose", "--config", str(cfg), *args]) == 1
            assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
            assert not (tmp_path / "out").exists()

    def test_empty_selection_errors(self, tmp_path, capsys):
        self.rejected_like_the_config(tmp_path, capsys, "", [], "diagnostics.checks must be non-empty")

    def test_unknown_check_errors(self, tmp_path, capsys):
        self.rejected_like_the_config(tmp_path, capsys, "transport,warp", ["transport", "warp"],
                                      "diagnostics.checks has unknown diagnostic 'warp'")

    def test_mde_check_writes_heat_table(self, tmp_path):
        data = small_select_config(tmp_path / "out")
        cfg = write_config(tmp_path, data)
        assert main(["diagnose", "--config", str(cfg), "--checks", "mde"]) == 0
        assert (tmp_path / "out" / "mde.svg").exists()

    @pytest.mark.parametrize(
        "checks, section, values, message",
        [
            # The panel loads, but label means of baselines near 1e300 have no finite variance.
            ("mde", "panel", {"synthetic": {"baseline_mean": 1e300}},
             "design 'user': variance or MDE is not finite (variance=inf)"),
            ("mde", "weights", {"alpha": 1e-300}, "weights.alpha is too small for a finite normal quantile (1e-300)"),
            # A check that passed before the failing one writes nothing either.
            ("transport,mde", "panel", {"synthetic": {"baseline_mean": 1e300}},
             "design 'user': variance or MDE is not finite (variance=inf)"),
        ],
        ids=["baseline_mean-huge", "alpha-tiny", "baseline_mean-huge-after-transport"],
    )
    def test_mde_check_without_a_finite_mde_writes_nothing(self, tmp_path, capsys, checks, section, values, message):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "out"), section: values})
        assert main(["diagnose", "--config", str(cfg), "--checks", checks]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_all_checks_on_defaults_exit_zero(self, tmp_path):
        data = small_select_config(tmp_path / "out")
        cfg = write_config(tmp_path, data)
        assert main(["diagnose", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert report["passed"]
        assert len(report["checks"]) == 6
        # Each check also lands in its own JSON report.
        for name in ("transport", "minimax", "catalog", "mde", "oracle", "dominance"):
            assert (tmp_path / "out" / f"{name}.json").exists()


class TestSimulateCommand:
    def test_panel_dump_round_trips(self, tmp_path, capsys):
        # simulate does not read formats, so it writes panel.csv whatever they list.
        data = small_select_config(tmp_path / "out", formats=["svg"])
        cfg = write_config(tmp_path, data)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert "panel: 80 units x 6 periods" in capsys.readouterr().out
        with open(tmp_path / "out" / "panel.csv", encoding="utf-8", newline="") as handle:
            panel = ingest_log_csv(handle)
        assert panel.n_units == 80
        assert panel.n_periods == 6
        assert panel.n_clusters == 4

    def test_panel_csv_matches_the_row_writer_byte_for_byte(self, tmp_path):
        # The shipped demo panel, then a panel with propensities read back
        # from CSV: simulate's columnar writer gives the bytes of one row
        # list per cell formatted with repr.
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "select_demo.json")
        config = RunConfig({**config.data, "out": str(tmp_path / "demo")})
        run_simulate(config)
        expected = reference_panel_csv(config.build_panel())
        assert (tmp_path / "demo" / "panel.csv").read_bytes() == expected.encode("utf-8")

        built = generate_synthetic_panel(SyntheticPanelConfig(n_units=30, n_clusters=4, n_periods=5), seed=3)
        rng = np.random.default_rng(3)
        with_propensities = dataclasses.replace(built, propensities=rng.uniform(0.05, 1.0, built.baseline.shape))
        source = tmp_path / "source.csv"
        source.write_text(reference_panel_csv(with_propensities), encoding="utf-8")
        config = RunConfig({"panel": {"csv": {"path": str(source)}}, "out": str(tmp_path / "csv")})
        run_simulate(config)
        panel = config.build_panel()
        assert panel.propensities is not None
        assert (tmp_path / "csv" / "panel.csv").read_bytes() == reference_panel_csv(panel).encode("utf-8")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shape=st.fixed_dictionaries({
            "n_units": st.integers(2, 12),
            "n_clusters": st.integers(1, 4),
            "n_budget_groups": st.integers(1, 4),
            "n_regions": st.integers(1, 3),
            "n_periods": st.integers(1, 5),
            "baseline_mean": st.floats(-1e6, 1e6),
            "baseline_sd": st.floats(0.0, 1e3),
        }),
        seed=st.integers(0, 2**32),
    )
    def test_simulate_then_ingest_is_the_built_panel(self, shape, seed):
        # The CSV that simulate writes ingests back to the panel it was
        # built from: the same ids, group codes, names and labels and
        # periods, and a baseline equal bit for bit.
        built = generate_synthetic_panel(SyntheticPanelConfig(**shape), seed=seed)
        with tempfile.TemporaryDirectory() as out:
            run_simulate(RunConfig({"panel": {"synthetic": shape}, "seed": seed, "out": out}))
            with open(Path(out) / "panel.csv", encoding="utf-8", newline="") as handle:
                ingested = ingest_log_csv(handle)
        assert ingested.unit_ids == built.unit_ids and ingested.n_periods == built.n_periods
        for grouping in LOCALITIES:
            assert group_labels(ingested, grouping) == group_labels(built, grouping), grouping
            (codes, names), (built_codes, built_names) = ingested.groups[grouping], built.groups[grouping]
            assert names == built_names and codes.tolist() == built_codes.tolist(), grouping
        assert ingested.baseline.dtype == built.baseline.dtype == np.float64
        assert ingested.baseline.tobytes() == built.baseline.tobytes()
        assert ingested.propensities is None and built.propensities is None

    def test_names_with_csv_specials_round_trip(self, tmp_path):
        # Unit and group names that hold commas, quotes and line breaks are
        # quoted in panel.csv, which ingests back to the same panel.
        names = ['u,1', 'u"2"', "u\r\n3", "u4"]
        built = labelled_panel(names, ['c,"x"', 'c,"x"', "c\ny", "c\ny"], ["b,1", "b,1", "b,1", 'b"'],
                               ["r", "r", "r", "r"], 2, np.arange(8.0).reshape(4, 2))
        source = tmp_path / "source.csv"
        source.write_bytes(reference_panel_csv(built).encode("utf-8"))
        config = RunConfig({"panel": {"csv": {"path": str(source)}}, "out": str(tmp_path / "out")})
        run_simulate(config)
        written = (tmp_path / "out" / "panel.csv").read_bytes()
        assert written == source.read_bytes()
        with open(tmp_path / "out" / "panel.csv", encoding="utf-8", newline="") as handle:
            assert {len(row) for row in csv.reader(handle)} == {6}
            handle.seek(0)
            ingested = ingest_log_csv(handle)
        assert ingested.unit_ids == built.unit_ids
        for grouping in LOCALITIES:
            assert group_labels(ingested, grouping) == group_labels(built, grouping), grouping
            assert ingested.groups[grouping][1] == built.groups[grouping][1], grouping
        assert ingested.baseline.tobytes() == built.baseline.tobytes()


class TestCsvArtifacts:
    def test_surface_and_sweep_csv_match_the_row_writer_byte_for_byte(self, tmp_path):
        # select and sweep write their CSVs a column at a time; the bytes are
        # those of one row list per line, floats formatted with repr and the
        # rest with str. The shipped configs, then a grid given as integers,
        # which stay integers in the grid points.
        configs = Path(__file__).resolve().parents[1] / "configs"
        small = small_select_config(tmp_path, grid={"graph_spill": [0, 0.3], "budget_spill": [0.5],
                                                   "carryover": [0, 1], "localities": ["budget", "region"]})
        for data in (load_config(configs / "select_demo.json").data, small):
            config = RunConfig({**data, "out": str(tmp_path / "select")})
            run_select(config)
            panel, grid, weights = config.build_panel(), config.build_grid(), config.build_weights()
            scores = score_grid(panel, config.build_catalog(), grid, config.build_calibration(panel), weights,
                                reps=config.reps, master_seed=config.seed)
            expected = reference_surface_csv(risk_surface(scores, weights), grid,
                                             [d.name for d in config.build_catalog()])
            assert (tmp_path / "select" / "surface.csv").read_bytes() == expected.encode("utf-8")

        config = load_config(configs / "sweep_demo.json")
        config = RunConfig({**config.data, "out": str(tmp_path / "sweep")})
        run_sweep(config)
        panel = config.build_panel()
        result = regime_sweep(config.build_sweep(), panel, config.build_calibration(panel), config.build_catalog(),
                              config.build_weights())
        assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == reference_sweep_csv(result).encode("utf-8")

    def test_names_with_csv_and_xml_specials(self, tmp_path):
        # Design names that hold commas, quotes and line breaks are quoted in
        # surface.csv and sweep.csv, whose rows then all have the header's
        # width, and names that hold &, < and > leave both SVGs well-formed.
        names = ['user, "p=0.5"', "cluster<A&B>", "switch\r\nback"]
        catalog = [{"kind": kind, "name": name} for kind, name in zip(("user", "cluster", "switchback"), names)]
        data = small_select_config(tmp_path / "out", catalog=catalog, reps=2,
                                   sweep={"gamma_grid": [0.0, 0.5], "reps": 2})
        config = RunConfig(data)
        run_select(config)
        report = run_sweep(config)
        out = tmp_path / "out"
        for name, name_column in (("surface.csv", "design"), ("sweep.csv", "winner")):
            with open(out / name, encoding="utf-8", newline="") as handle:
                header, *rows = csv.reader(handle)
            assert {len(row) for row in rows} == {len(header)}, name
            assert {row[header.index(name_column)] for row in rows} <= set(names), name
        assert header[4:-1] == names
        assert report["design_names"] == names
        for name in ("ranking.svg", "sweep.svg"):
            text = (out / name).read_text(encoding="utf-8")
            minidom.parseString(text)
            assert "cluster&lt;A&amp;B&gt;" in text


class TestEmissionCleanup:
    @staticmethod
    def write_then_fail(out: Path, error: BaseException) -> _Emitter:
        """An emitter whose second write fails after its first one succeeded."""

        def failing_write(path: Path) -> None:
            path.write_text("partial", encoding="utf-8")
            raise error

        emitter = _Emitter(RunConfig({"out": str(out), "formats": ["json", "csv"]}), "select")
        assert emitter.add("first.json", _write_json, {"ok": True})
        assert emitter.add("second.csv", failing_write)
        return emitter

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        # Both files go, and so do the directories the writer made, but not
        # the one that was there.
        out = tmp_path / "made" / "out"
        emitter = self.write_then_fail(out, OSError(28, "No space left on device"))
        message = f"cannot write out {out}: No space left on device"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            emitter.write()
        assert os.listdir(tmp_path) == []

    def test_other_write_errors_are_raised_as_they_are(self, tmp_path):
        emitter = self.write_then_fail(tmp_path / "out", RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="^boom$"):
            emitter.write()
        assert os.listdir(tmp_path) == []


class TestConfigDigest:
    def test_digest_stable_and_sensitive(self, tmp_path):
        a = RunConfig(small_select_config(tmp_path))
        b = RunConfig(small_select_config(tmp_path))
        assert config_digest(a, "select") == config_digest(b, "select")
        c = a.with_overrides(seed=99)
        assert config_digest(a, "select") != config_digest(c, "select")

    def test_digest_ignores_output_location_and_formats(self, tmp_path):
        a = RunConfig(small_select_config(tmp_path / "one"))
        b = RunConfig(small_select_config(tmp_path / "two", formats=["json"]))
        assert config_digest(a, "select") == config_digest(b, "select")
        assert config_digest(a, "select") != config_digest(a.with_overrides(reps=4), "select")
        # Which diagnostics run chooses reports, not what any one holds.
        assert config_digest(a, "select") == config_digest(a.with_overrides(checks=("minimax",)), "select")

    @pytest.mark.parametrize(
        "command, unread",
        [
            ("select", {"sweep": {"gamma_grid": [0.0, 0.5], "reps": 2}, "diagnostics": {"seed": 3}}),
            ("sweep", {"grid": {"graph_spill": [0.1]}, "shortlist_fraction": 0.3, "epsilon_mode": "stderr"}),
            ("diagnose", {"reps": 4, "calibration": {"direct_effect": 2.0}, "grid": {"carryover": [0.5]}}),
        ],
    )
    def test_digest_covers_only_the_keys_the_command_reads(self, tmp_path, command, unread):
        data = small_select_config(tmp_path)
        a = RunConfig(data)
        assert config_digest(RunConfig({**data, **unread}), command) == config_digest(a, command)
        assert config_digest(a.with_overrides(seed=99), command) != config_digest(a, command)
        panel = {"synthetic": {**data["panel"]["synthetic"], "n_units": 90}}
        assert config_digest(RunConfig({**data, "panel": panel}), command) != config_digest(a, command)

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("select", "6c09d62726d8471cf9d6511e3f553411a538d063ac7d7e7bbde31d014328f156"),
            ("sweep", "f3042047f3d3712a08a865835727447e0ef7a1e6d16b5e86cc5796db7d6226aa"),
        ],
    )
    def test_shipped_configs_keep_their_digests(self, command, digest):
        # Each shipped config holds only keys that its own command reads.
        root = Path(__file__).resolve().parents[1]
        assert config_digest(load_config(root / "configs" / f"{command}_demo.json"), command) == digest

    def test_shipped_demo_configs_load(self):
        root = Path(__file__).resolve().parents[1]
        for name in ("select_demo.json", "sweep_demo.json"):
            cfg = load_config(root / "configs" / name)
            cfg.build_catalog()
            cfg.build_weights()
            cfg.build_grid()


class TestUsage:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("select", {"--config", "--seed", "--reps", "--out", "--format"}),
            ("sweep", {"--config", "--seed", "--reps", "--out", "--format"}),
            ("diagnose", {"--config", "--seed", "--out", "--format", "--checks"}),
            ("simulate", {"--config", "--seed", "--out"}),
        ],
    )
    def test_help_lists_the_flags_of_the_keys_the_command_reads(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == flags | {"--help"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--reps", "3"],
            ["simulate", "--reps", "1"],
            ["simulate", "--format", "json"],
            ["select", "--reps", "x"],
            ["select", "--bogus", "1"],
        ],
        ids=["diagnose-reps", "simulate-reps", "simulate-format", "select-reps-not-int", "select-unknown-flag"],
    )
    def test_usage_error_is_one_line_and_exit_2(self, tmp_path, argv):
        out = tmp_path / "out"
        result = run_cli([*argv, "--out", str(out)])
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in result.stderr
        assert not out.exists()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("reps",), "x", "reps"),
            (("reps",), 2.7, "reps"),
            (("seed",), 1.5, "seed"),
            (("panel", "synthetic", "n_units"), "200", "n_units"),
            (("grid", "graph_spill"), 0.3, "graph_spill"),
            (("catalog",), [{"kind": "user", "treat_prob": "0.5"}], "treat_prob"),
            (("weights",), {"alpha": 0.5, "beta": 0.9}, "alpha/2 + beta"),
            (("calibration", "budget_frac"), 0.5, "budget_frac"),
            (("catalog",), [{"kind": "user", "op_cost_level": 1.5}], "op_cost_level"),
            (("catalog",), [{"kind": "user", "op_cost": {"effort": 0.1}}], "catalog[0] key 'op_cost'"),
            (("sweep", "seed"), -1, "sweep.seed"),
            (("diagnostics", "seed"), -1, "diagnostics.seed"),
            (("diagnostics", "transport_count"), 0, "unknown diagnostics key 'transport_count'"),
            (("catalog",), [], "catalog must be non-empty"),
            (("sweep", "reps"), 0, "sweep.reps must be >= 1"),
            (("shortlist_fraction",), float("nan"), "shortlist_fraction must be a finite number"),
            (("diagnostics", "tolerance"), float("inf"), "unknown diagnostics key 'tolerance'"),
            (("diagnostics", "tolerance"), float("nan"), "unknown diagnostics key 'tolerance'"),
            (("diagnostics", "tolerance"), -1e-9, "unknown diagnostics key 'tolerance'"),
            (("calibration", "noise_sd"), float("inf"), "calibration.noise_sd must be a finite number"),
            (("grid", "graph_spill"), [0.0, float("nan")], "grid.graph_spill[1] must be a finite number"),
            (("catalog",), [{"kind": "user", "treat_prob": float("nan")}], "catalog[0].treat_prob must be a finite"),
            (("weights", "alpha"), float("-inf"), "weights.alpha must be a finite number"),
            (("sweep", "gamma_grid"), [float("inf")], "sweep.gamma_grid[0] must be a finite number"),
            (("grid", "graph_spill"), [], "grid.graph_spill must be non-empty"),
            (("sweep", "gamma"), [0.0, 1.0], "unknown sweep key 'gamma'"),
            (("formats",), [], "formats must be non-empty"),
            (("out",), "", "out must be non-empty"),
            ((), {"epsilon_mode": "stderr", "reps": 1}, "epsilon_mode 'stderr' needs reps >= 2"),
            (("shortlist_fraction",), 1e308, "epsilon_t is not finite (shortlist_fraction=1e+308)"),
            # Huge magnitudes end as one line, with no numpy warnings before it.
            (("calibration",), {"direct_effect": 1e308, "spill_scale": 1e308}, "component scores must be finite"),
            (("panel", "synthetic", "baseline_sd"), 1e200,
             "calibration: panel outcome standard deviation is not finite"),
        ],
        ids=["reps-string", "reps-float", "seed-float", "n_units-string", "graph_spill-scalar",
             "treat_prob-string", "alpha-beta-negative-mde", "budget_frac-removed",
             "op_cost_level-above-1", "op_cost-removed", "sweep-seed-negative", "diagnostics-seed-negative",
             "transport_count-zero", "catalog-empty", "sweep-reps-zero", "shortlist_fraction-nan",
             "tolerance-infinity", "tolerance-nan", "tolerance-negative", "noise_sd-infinity", "graph_spill-nan",
             "treat_prob-nan", "alpha-negative-infinity", "gamma_grid-infinity", "graph_spill-empty",
             "sweep-unknown-key", "formats-empty", "out-empty", "stderr-epsilon-one-rep", "shortlist_fraction-overflows",
             "calibration-huge", "baseline_sd-huge"],
    )
    # Outside pytest, which captures warnings, each would print lines of its own.
    @pytest.mark.filterwarnings("error")
    def test_mistyped_value_is_one_line_error(self, tmp_path, capsys, path, value, field):
        # An empty path sets several top-level keys at once.
        data = small_select_config(tmp_path / "out", **({} if path else value))
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        if path:
            section[path[-1]] = value
        cfg = write_config(tmp_path, data)
        assert main(["select", "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert field in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_weights_run_without_warnings(self, tmp_path, capsys):
        # Huge weights are valid while their sum is finite, which bounds every
        # cell's risk, and no numpy warning is printed.
        weights = {"geometry": 1e307, "variance": 1e307, "t_weeks": 2, "periods_per_week": 3}
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out", weights=weights))
        assert main(["select", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "command, path, value, message",
        [
            ("select", ("weights", "alpha"), 2, "weights.alpha must lie in (0, 1)"),
            ("select", ("weights", "mde"), -1.0, "weights: component weights must be >= 0"),
            # Each normalized component lies in [-1, 1], so a finite sum of weights rules out overflow.
            ("select", ("weights",), {"geometry": 1e308, "variance": 1e308},
             "weights: component weights must have a finite sum"),
            ("select", ("weights",), {"geometry": 1e308, "mismatch": 1e308},
             "weights: component weights must have a finite sum"),
            ("sweep", ("sweep", "locality"), "street", "sweep.locality must be one of"),
            ("sweep", ("sweep", "gamma_grid"), [0.5, 0.1], "sweep.gamma_grid must be strictly increasing"),
            ("select", ("grid", "graph_spill"), [-0.1], "grid.graph_spill must be finite and >= 0"),
            ("select", ("catalog",), [{"kind": "user"}, {"kind": "cluster", "treat_prob": 1.5}],
             "catalog[1].treat_prob must lie in (0, 1)"),
            ("select", ("catalog",), [{"kind": "cluster", "saturation_levels": [1.5]}],
             "catalog[0].saturation_levels must lie in [0, 1]"),
            ("select", ("catalog",), [{"treat_prob": 0.5}], "catalog[0] needs a 'kind'"),
            ("select", ("panel", "synthetic", "baseline_sd"), -1.0, "panel.synthetic.baseline_sd must be >= 0"),
            ("select", ("calibration", "noise_sd"), -1.0, "calibration.noise_sd must be >= 0"),
            # Arrays of petabytes, which numpy refuses at once, end as one line too.
            ("select", ("reps",), 10**12, "out of memory: Unable to allocate 2.39 PiB"),
            ("sweep", ("reps",), 10**12, "out of memory: Unable to allocate 3.28 PiB"),
            ("select", ("panel", "synthetic", "n_units"), 10**15, "out of memory: Unable to allocate 7.11 PiB"),
            # Sizes numpy cannot represent at all end in the same line.
            ("select", ("reps",), 2**70, "out of memory: Maximum allowed dimension exceeded"),
            ("select", ("reps",), 2**62, "out of memory: array is too big"),
            ("sweep", ("reps",), 2**62, "out of memory: array is too big"),
            ("select", ("panel", "synthetic", "n_units"), 2**70, "out of memory: Maximum allowed size exceeded"),
            ("select", ("panel", "synthetic", "n_periods"), 2**62, "out of memory: array is too big"),
            # A block longer than the panel is one block, however long.
            ("select", ("catalog",), [{"kind": "switchback", "block_length": 2**70}],
             "insufficient assignment units for design 'switchback' (n=0)"),
            # 1 - alpha/2 and 1 - beta round to 1, whose normal quantile is infinite.
            ("select", ("weights", "alpha"), 1e-300, "weights.alpha is too small for a finite normal quantile"),
            ("sweep", ("weights", "beta"), 1e-300, "weights.beta is too small for a finite normal quantile"),
            # numpy squares the noise sd to inf, which the selector rejects.
            ("select", ("calibration", "noise_sd"), 1e200, "component scores must be finite"),
            ("sweep", ("calibration", "noise_sd"), 1e200, "component scores must be finite"),
            # An output directory that is a regular file, or lies under one, cannot be made.
            ("select", ("out",), "afile", "cannot write out afile: File exists"),
            ("sweep", ("out",), "afile/x", "cannot write out afile/x: Not a directory"),
        ],
        ids=["weights", "weights-unnamed-field", "weights-geometry-variance-sum-overflows",
             "weights-geometry-mismatch-sum-overflows", "sweep-locality", "sweep-gamma_grid", "grid", "catalog",
             "catalog-saturation_levels", "catalog-kind", "panel-synthetic", "calibration",
             "select-reps-out-of-memory", "sweep-reps-out-of-memory", "n_units-out-of-memory",
             "reps-beyond-any-dimension", "select-reps-beyond-any-size", "sweep-reps-beyond-any-size",
             "n_units-beyond-any-size", "n_periods-beyond-any-size", "block_length-beyond-int64",
             "alpha-tiny", "beta-tiny", "select-noise_sd-huge", "sweep-noise_sd-huge", "out-a-file",
             "out-under-a-file"],
    )
    def test_rejected_value_names_its_section(self, tmp_path, capsys, monkeypatch, command, path, value, message):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("", encoding="utf-8")
        data = small_select_config(tmp_path / "out")
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {message}")
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json"]
        assert Path("afile").read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize(
        "command, path, value, message",
        [
            ("sweep", ("grid", "graph_spill"), [-0.1], "grid.graph_spill must be finite and >= 0"),
            ("select", ("sweep", "locality"), "street", "sweep.locality must be one of"),
            ("simulate", ("weights", "alpha"), 2, "weights.alpha must lie in (0, 1)"),
            ("simulate", ("catalog",), [{"kind": "user", "treat_prob": 1.5}], "catalog[0].treat_prob must lie in (0, 1)"),
            ("sweep", ("shortlist_fraction",), -1, "shortlist_fraction must be >= 0"),
            ("select", ("diagnostics", "checks"), ["bogus"], "diagnostics.checks has unknown diagnostic 'bogus'"),
            ("sweep", ("diagnostics", "checks"), [], "diagnostics.checks must be non-empty"),
        ],
        ids=["sweep-bad-grid", "select-bad-sweep", "simulate-bad-weights", "simulate-bad-catalog",
             "sweep-negative-shortlist_fraction", "select-unknown-diagnostic", "sweep-no-diagnostics"],
    )
    def test_every_section_is_checked_by_every_command(self, tmp_path, capsys, command, path, value, message):
        # A section that a command does not read is still checked when the
        # config loads, so a mistake in it is not noticed only later.
        data = small_select_config(tmp_path / "out")
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("catalog", [{"kind": "user", "name": "a\u0001b"}], "catalog[0].name must not hold the character U+0001"),
            ("catalog", [{"kind": "user", "name": "a\ud800b"}], "catalog[0].name must not hold the character U+D800"),
            ("out", "a\u0000b", "out must not hold a NUL character"),
            ("panel", {"csv": {"path": "x\u0000y.csv"}}, "panel.csv.path must not hold a NUL character"),
            ("out", "a\ud800b", "out must not hold the character U+D800"),
            ("panel", {"csv": {"path": "x\udbffy.csv"}}, "panel.csv.path must not hold the character U+DBFF"),
        ],
        ids=["name-control-character", "name-lone-surrogate", "out-nul", "csv-path-nul", "out-lone-surrogate",
             "csv-path-lone-surrogate"],
    )
    def test_string_no_artifact_or_path_can_hold_is_one_line_error(self, tmp_path, capsys, key, value, message):
        # A control character in a design name would make the SVGs malformed
        # and a lone surrogate is not UTF-8; no file name holds a NUL or a
        # character that the file system encoding cannot encode.
        if key == "out":
            value = str(tmp_path / value)
        cfg = write_config(tmp_path, small_select_config(tmp_path / "out", **{key: value}))
        assert main(["select", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert os.listdir(tmp_path) == ["config.json"]

    def test_csv_panel_source_is_checked_at_load(self, tmp_path):
        with pytest.raises(ConfigurationError, match="^csv panel source needs a 'path'$"):
            RunConfig({"panel": {"csv": {}}})
        with pytest.raises(ConfigurationError, match="^unknown panel.csv.schema key 'unit'$"):
            RunConfig({"panel": {"csv": {"path": "p.csv", "schema": {"unit": "u"}}}})
        # The file is read by each run, not at load.
        RunConfig({"panel": {"csv": {"path": str(tmp_path / "absent.csv")}}})

    def test_every_design_and_sweep_field_is_a_config_key(self):
        design = DesignSpec(
            kind="switchback", treat_prob=0.3, block_length=2, saturation_levels=(0.1, 0.9),
            mixture_prob=0.2, op_cost_level=0.6, name="sb2",
        )
        sweep = SweepConfig(gamma_grid=(0.0, 0.5), locality="region", reps=2, seed=3)

        def entry(spec) -> dict:
            return {key: list(v) if isinstance(v, tuple) else v for key, v in dataclasses.asdict(spec).items()}

        config = RunConfig({"catalog": [entry(design)], "sweep": entry(sweep)})
        assert config.build_catalog() == [design]
        assert config.build_sweep() == sweep

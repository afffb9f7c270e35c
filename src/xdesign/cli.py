"""Command-line entry points: select | sweep | diagnose | simulate.

Every run is driven by one JSON config (see :mod:`xdesign.config`); flags only
override seed, replication count, output directory, formats and the
diagnostics to run, and are checked like the config keys they set. Scoring runs
in one thread, and artifacts are deterministic for identical (config, seed).
The ``XDESIGN_THREADS`` environment variable is not read: any value is ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from collections.abc import Iterable, Sequence
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, config_digest, load_config
from .diagnostics import (
    DIAGNOSTIC_NAMES,
    catalog_approximation_check,
    default_transport_scenarios,
    dominance_check,
    mde_grid,
    minimax_tightness_check,
    oracle_comparison,
    random_smooth_surface,
    regime_sweep,
    transport_bound_check,
)
from .errors import XDesignError
from .mechanisms import MechanismPoint
from .risk import COMPONENT_NAMES, score_grid
from .selector import risk_surface, robust_select
from .svg import write_bar_chart, write_heat_table, write_line_chart, write_scatter

SCHEMA_VERSION = 1
_THETA_FIELDS = tuple(f.name for f in fields(MechanismPoint))

__all__ = ["main", "run_select", "run_sweep", "run_diagnose", "run_simulate"]


class _Emitter:
    """Tracks written artifacts so a failed run leaves no partial outputs."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.written.append(p)
        return p

    def write_json(self, name: str, payload: dict) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
        return p

    def write_rows(self, name: str, header: list[str], rows: Iterable[Sequence[str]]) -> Path:
        """Write rows of formatted cells."""
        p = self.path(name)
        p.write_text("\n".join(map(",".join, itertools.chain([header], rows))) + "\n", encoding="utf-8")
        return p

    def cleanup(self) -> None:
        for p in self.written:
            with contextlib.suppress(OSError):
                p.unlink(missing_ok=True)


@contextlib.contextmanager
def _emission(out_dir: Path):
    """Yield an emitter; remove everything it wrote if the run fails."""
    emitter = _Emitter(out_dir)
    try:
        yield emitter
    except BaseException:
        emitter.cleanup()
        raise


def run_select(config: RunConfig) -> dict:
    """Full pipeline: panel -> grid scores -> risk surface -> worst-case decision."""
    panel = config.build_panel()
    calib = config.build_calibration(panel)
    grid = config.build_grid()
    catalog = config.build_catalog()
    weights = config.build_weights()
    scores = score_grid(panel, catalog, grid, calib, weights, reps=config.reps, master_seed=config.seed)
    surface = risk_surface(scores, weights)
    decision = robust_select(surface, config.shortlist_fraction, epsilon_mode=config.epsilon_mode)

    names = [d.name for d in catalog]
    with _emission(config.out_dir) as emitter:
        surface_path = None
        if "csv" in config.formats:
            header = (
                ["design", "design_index", "theta_index", *_THETA_FIELDS]
                + [f"raw_{name}" for name in COMPONENT_NAMES]
                + [f"norm_{name}" for name in COMPONENT_NAMES]
                + ["risk"]
            )
            # One column of formatted cells each, in (design, grid point)
            # order. A grid value is a float or int from the config, and str
            # of a float is its repr.
            n_designs, n_grid = surface.n_designs, surface.n_grid
            values = (*surface.raw.transpose(2, 0, 1), *surface.normalized.transpose(2, 0, 1), surface.risks)
            columns = [
                [name for name in names for _ in range(n_grid)],
                [str(d) for d in range(n_designs) for _ in range(n_grid)],
                list(map(str, range(n_grid))) * n_designs,
                *([str(getattr(theta, name)) for theta in grid] * n_designs for name in _THETA_FIELDS),
                *(map(repr, column.ravel().tolist()) for column in values),
            ]
            surface_path = emitter.write_rows("surface.csv", header, zip(*columns))

        report = {
            "schema_version": SCHEMA_VERSION,
            "config_digest": config_digest(config),
            "decision": {
                "selected": names[decision.selected],
                "q": {name: decision.q[i] for i, name in enumerate(names)},
                "epsilon_t": decision.epsilon_t,
                "shortlist": [names[i] for i in decision.shortlist],
                "margin": decision.separation_margin,
                "worst_theta": {name: asdict(grid[decision.worst_theta[i]]) for i, name in enumerate(names)},
                # Normalized component breakdown at each design's worst grid point.
                "components": {
                    name: {
                        comp: float(surface.normalized[i, decision.worst_theta[i], j])
                        for j, comp in enumerate(COMPONENT_NAMES)
                    }
                    for i, name in enumerate(names)
                },
            },
            "surface_path": surface_path.name if surface_path else None,
        }
        if "json" in config.formats:
            emitter.write_json("decision.json", report)
        if "svg" in config.formats:
            write_bar_chart(
                emitter.path("ranking.svg"),
                names,
                list(decision.q),
                "Worst-case planning risk by design",
                y_label="robust risk",
                highlight=decision.selected,
            )
    return report


def run_sweep(config: RunConfig) -> dict:
    """Mechanism-intensity sweep with per-point normalization and winner map."""
    panel = config.build_panel()
    calib = config.build_calibration(panel)
    catalog = config.build_catalog()
    weights = config.build_weights()
    result = regime_sweep(config.build_sweep(), panel, calib, catalog, weights)

    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": config_digest(config),
        "gammas": list(result.gammas),
        "design_names": list(result.design_names),
        "risks": [[float(x) for x in row] for row in result.risks],
        "winners": [result.design_names[w] for w in result.winners],
        "distinct_winners": list(result.distinct_winners),
    }
    with _emission(config.out_dir) as emitter:
        if "csv" in config.formats:
            header = ["gamma", "graph_spill", "budget_spill", "carryover"] + list(result.design_names) + ["winner"]
            # One column of formatted cells each, one row per gamma; the
            # sweep's gammas and intensities are floats.
            columns = [
                map(repr, result.gammas),
                *([repr(getattr(theta, name)) for theta in result.thetas] for name in header[1:4]),
                *(map(repr, column.tolist()) for column in result.risks.T),
                [result.design_names[w] for w in result.winners],
            ]
            emitter.write_rows("sweep.csv", header, zip(*columns))
        if "json" in config.formats:
            emitter.write_json("sweep.json", report)
        if "svg" in config.formats:
            envelope = [float(result.risks[i].min()) for i in range(len(result.gammas))]
            write_line_chart(
                emitter.path("sweep.svg"),
                list(result.gammas),
                [(name, [float(r) for r in result.risks[:, d]]) for d, name in enumerate(result.design_names)],
                "Planning risk across the mechanism sweep",
                x_label="mechanism intensity",
                y_label="normalized risk",
                envelope=envelope,
            )
    return report


def run_diagnose(config: RunConfig) -> dict:
    """Run the configured theorem-level checks; any failure is a non-zero exit."""
    which = config.checks
    seed = config.diagnostics_seed
    checks: list[dict] = []

    with _emission(config.out_dir) as emitter:

        def record(name: str, check_report: dict) -> None:
            checks.append(check_report)
            if "json" in config.formats:
                emitter.write_json(f"{name}.json", check_report)

        if "transport" in which:
            report = transport_bound_check(default_transport_scenarios(seed=seed + 1), seed=seed)
            record("transport", report)
            if "svg" in config.formats:
                write_scatter(
                    emitter.path("transport.svg"),
                    [(c["bound"], c["bias"]) for c in report["cases"]],
                    "Exposure-response bias vs transport bound",
                    x_label="L * W1 bound",
                    y_label="observed bias",
                )
        if "minimax" in which:
            record("minimax", minimax_tightness_check((0.5, 1.0, 2.0), (0.1, 0.3, 0.6)))
        if "catalog" in which:
            surface, lipschitz = random_smooth_surface(seed)
            report = catalog_approximation_check(surface, lipschitz, (5, 10, 20, 40))
            record("catalog", report)
            if "svg" in config.formats:
                sizes = [c["size"] for c in report["cases"]]
                write_line_chart(
                    emitter.path("catalog.svg"),
                    sizes,
                    [
                        ("observed gap", [c["gap"] for c in report["cases"]]),
                        ("net bound", [c["bound"] for c in report["cases"]]),
                    ],
                    "Catalog approximation gap vs net bound",
                    x_label="catalog size",
                    y_label="risk gap",
                )
        if "mde" in which:
            panel = config.build_panel()
            weights = config.build_weights()
            catalog = config.build_catalog()
            durations = (1, 2, 4, 8)
            report = mde_grid(catalog, panel, weights, durations, seed=seed)
            record("mde", report)
            if "svg" in config.formats:
                write_heat_table(
                    emitter.path("mde.svg"),
                    [row["design"] for row in report["rows"]],
                    [f"{d}w" for d in durations],
                    [[row["mde"][d] for d in durations] for row in report["rows"]],
                    "Planning MDE by design and duration",
                )
        if "oracle" in which:
            record("oracle", oracle_comparison(seed=seed))
        if "dominance" in which:
            record("dominance", dominance_check(seed=seed))

        passed = all(c["passed"] for c in checks)
        report = {
            "schema_version": SCHEMA_VERSION,
            "config_digest": config_digest(config),
            "passed": passed,
            "checks": checks,
        }
        if "json" in config.formats:
            emitter.write_json("diagnostics.json", report)
    return report


def run_simulate(config: RunConfig) -> dict:
    """Build the configured panel and dump it in the ingestible CSV schema."""
    panel = config.build_panel()
    header = ["unit_id", "period", "outcome", "cluster_id", "budget_id", "region_id"]
    if panel.propensities is not None:
        header.append("propensity")
    # One column of formatted cells each, in unit-major row order; the three
    # group names of a unit share one column.
    n_periods = panel.n_periods
    groups = map(",".join, zip(panel.cluster_ids, panel.budget_ids, panel.region_ids))
    columns = [
        [unit for unit in panel.unit_ids for _ in range(n_periods)],
        list(map(str, range(1, n_periods + 1))) * panel.n_units,
        map(repr, panel.baseline.ravel().tolist()),
        [group for group in groups for _ in range(n_periods)],
    ]
    if panel.propensities is not None:
        columns.append(map(repr, panel.propensities.ravel().tolist()))
    with _emission(config.out_dir) as emitter:
        emitter.write_rows("panel.csv", header, zip(*columns))
    return {
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "n_clusters": panel.n_clusters,
        "n_budget_groups": panel.n_budget_groups,
        "n_regions": panel.n_regions,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdesign",
        description="Robust randomization-design selection under uncertain interference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("select", "evaluate the catalog over the ambiguity grid and pick the robust design"),
        ("sweep", "winner map over a mechanism-intensity sweep"),
        ("diagnose", "run theorem-level stress checks"),
        ("simulate", "generate and dump the configured panel"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="path to a JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--reps", type=int, default=None, help="override the replication count")
        cmd.add_argument("--out", type=str, default=None, help="override the output directory")
        cmd.add_argument(
            "--format", type=str, default=None,
            help="comma-separated artifact formats (json,csv,svg)",
        )
        if name == "diagnose":
            cmd.add_argument(
                "--checks", type=str, default=None,
                help="comma-separated subset of: " + ",".join(DIAGNOSTIC_NAMES),
            )
    return parser


def _split(flag: str | None) -> tuple[str, ...] | None:
    """The non-empty items of a comma-separated flag; None if it is not given."""
    return None if flag is None else tuple(item for item in flag.split(",") if item)


# Overflow and invalid results are checked downstream, where the error names
# the field; numpy's warnings would only add lines before that one.
@np.errstate(over="ignore", invalid="ignore")
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config).with_overrides(
            seed=args.seed, reps=args.reps, out=args.out,
            formats=_split(args.format), checks=_split(getattr(args, "checks", None)),
        )
        if args.command == "select":
            report = run_select(config)
            print(
                f"selected={report['decision']['selected']} "
                f"shortlist={','.join(report['decision']['shortlist'])} "
                f"epsilon_t={report['decision']['epsilon_t']:.6g}"
            )
            return 0
        if args.command == "sweep":
            report = run_sweep(config)
            print("winners: " + " ".join(report["winners"]))
            return 0
        if args.command == "diagnose":
            report = run_diagnose(config)
            for check in report["checks"]:
                print(f"{check['check']}: {'PASS' if check['passed'] else 'FAIL'}")
            return 0 if report["passed"] else 1
        if args.command == "simulate":
            summary = run_simulate(config)
            print(
                f"panel: {summary['n_units']} units x {summary['n_periods']} periods "
                f"({summary['n_clusters']} clusters, {summary['n_budget_groups']} budget groups, "
                f"{summary['n_regions']} regions)"
            )
            return 0
        raise XDesignError(f"unknown command {args.command!r}")  # pragma: no cover
    except (XDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

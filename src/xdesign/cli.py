"""Command-line entry points: select | sweep | diagnose | simulate.

Every run is driven by one JSON config (see :mod:`xdesign.config`). Every
command takes ``--config`` and ``--out``; it takes ``--seed``, ``--reps`` or
``--checks`` only if it reads the config key that the flag overrides
(``seed``, ``reps`` or ``diagnostics``), as :data:`xdesign.config.READS`
lists. A flag is checked like the config key it sets, and a usage error
prints one ``error:`` line and exits 2. Each command writes every artifact it
builds. Scoring runs in one thread, and artifacts are deterministic for
identical (config, seed).
The ``XDESIGN_THREADS`` environment variable is not read: any value is ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .config import READS, RunConfig, config_digest, load_config
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
from .errors import ConfigurationError, XDesignError
from .mechanisms import LOCALITIES, MechanismPoint
from .risk import COMPONENT_NAMES, score_grid
from .selector import risk_surface, robust_select
from .svg import write_bar_chart, write_heat_table, write_line_chart, write_scatter

SCHEMA_VERSION = 1
# How numpy refuses a size too big to represent, where a merely huge one raises MemoryError.
_TOO_BIG = ("Maximum allowed dimension exceeded", "Maximum allowed size exceeded", "array is too big")
_THETA_FIELDS = tuple(f.name for f in fields(MechanismPoint))

__all__ = ["main", "run_select", "run_sweep", "run_diagnose", "run_simulate"]


def _csv_cell(name: str) -> str:
    """A name as a CSV cell, quoted as ``csv.QUOTE_MINIMAL`` quotes it.

    A name that holds a comma, a quote or a line break is wrapped in quotes,
    its own quotes doubled; any other name is its cell as it is.
    """
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


def _write_rows(path: Path, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """Write rows of formatted cells, names already quoted by :func:`_csv_cell`."""
    path.write_text("\n".join(map(",".join, itertools.chain([header], rows))) + "\n", encoding="utf-8")


class _Emitter:
    """The one writer of a run's output directory.

    A run hands over every artifact it writes, and the emitter writes them
    all in one step, once the run has computed them. If a write fails, it
    removes the files it wrote and the directories it made, so a run leaves
    either all its outputs or none.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.artifacts: dict[str, tuple[Callable[..., None], tuple, dict]] = {}

    def add(self, name: str, write: Callable[..., None], *args, **kwargs) -> None:
        """Take artifact ``name``, which :meth:`write` writes as ``write(path, *args, **kwargs)``."""
        self.artifacts[name] = write, args, kwargs

    def write(self) -> None:
        missing = [d for d in (self.out_dir, *self.out_dir.parents) if not os.path.exists(d)]
        written: list[Path] = []
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for name, (write, args, kwargs) in self.artifacts.items():
                path = self.out_dir / name
                written.append(path)
                write(path, *args, **kwargs)
        except BaseException as exc:
            for path in written:
                with contextlib.suppress(OSError):
                    path.unlink(missing_ok=True)
            # Innermost first, so that each directory is empty when its turn comes.
            for directory in missing:
                with contextlib.suppress(OSError):
                    directory.rmdir()
            if isinstance(exc, OSError):
                raise ConfigurationError(f"cannot write out {self.out_dir}: {exc.strerror or exc}") from None
            raise


def run_select(config: RunConfig) -> dict:
    """Full pipeline: panel -> grid scores -> risk surface -> worst-case decision."""
    panel = config.build_panel()
    calib = config.build_calibration(panel)
    grid = config.build_grid()
    catalog = config.build_catalog()
    weights = config.build_weights()
    scores = score_grid(panel, catalog, grid, calib, weights, reps=config.reps, master_seed=config.seed)
    surface = risk_surface(scores, weights, [d.name for d in catalog])
    decision = robust_select(surface, config.shortlist_fraction, epsilon_mode=config.epsilon_mode)

    names = [d.name for d in catalog]
    emitter = _Emitter(config.out_dir)
    header = (
        ["design", "design_index", "theta_index", *_THETA_FIELDS]
        + [f"raw_{name}" for name in COMPONENT_NAMES]
        + [f"norm_{name}" for name in COMPONENT_NAMES]
        + ["risk"]
    )
    # One column of formatted cells each, in (design, grid point) order. A
    # grid value is a float or int from the config, and str of a float is its
    # repr.
    n_designs, n_grid = surface.n_designs, surface.n_grid
    values = (*surface.raw.transpose(2, 0, 1), *surface.normalized.transpose(2, 0, 1), surface.risks)
    columns = [
        [cell for cell in map(_csv_cell, names) for _ in range(n_grid)],
        [str(d) for d in range(n_designs) for _ in range(n_grid)],
        list(map(str, range(n_grid))) * n_designs,
        *([str(getattr(theta, name)) for theta in grid] * n_designs for name in _THETA_FIELDS),
        *(map(repr, column.ravel().tolist()) for column in values),
    ]
    emitter.add("surface.csv", _write_rows, header, zip(*columns))

    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": config_digest(config, "select"),
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
        # Every select run writes surface.csv; the field stays so that decision.json keeps its bytes.
        "surface_path": "surface.csv",
    }
    emitter.add("decision.json", _write_json, report)
    emitter.add(
        "ranking.svg", write_bar_chart, names, list(decision.q), "Worst-case planning risk by design",
        y_label="robust risk", highlight=decision.selected,
    )
    emitter.write()
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
        "config_digest": config_digest(config, "sweep"),
        "gammas": list(result.gammas),
        "design_names": list(result.design_names),
        "risks": [[float(x) for x in row] for row in result.risks],
        "winners": [result.design_names[w] for w in result.winners],
        "distinct_winners": list(result.distinct_winners),
    }
    emitter = _Emitter(config.out_dir)
    cells = list(map(_csv_cell, result.design_names))
    header = ["gamma", "graph_spill", "budget_spill", "carryover"] + cells + ["winner"]
    # One column of formatted cells each, one row per gamma; the sweep's
    # gammas and intensities are floats.
    columns = [
        map(repr, result.gammas),
        *([repr(getattr(theta, name)) for theta in result.thetas] for name in header[1:4]),
        *(map(repr, column.tolist()) for column in result.risks.T),
        [cells[w] for w in result.winners],
    ]
    emitter.add("sweep.csv", _write_rows, header, zip(*columns))
    emitter.add("sweep.json", _write_json, report)
    emitter.add(
        "sweep.svg",
        write_line_chart,
        list(result.gammas),
        [(name, [float(r) for r in result.risks[:, d]]) for d, name in enumerate(result.design_names)],
        "Planning risk across the mechanism sweep",
        x_label="mechanism intensity",
        y_label="normalized risk",
        envelope=[float(row.min()) for row in result.risks],
    )
    emitter.write()
    return report


def run_diagnose(config: RunConfig) -> dict:
    """Run the configured theorem-level checks; any failure is a non-zero exit."""
    which = config.checks
    seed = config.seed
    emitter = _Emitter(config.out_dir)
    # Each check's report, in the order the checks run.
    checks: dict[str, dict] = {}
    if "transport" in which:
        report = checks["transport"] = transport_bound_check(default_transport_scenarios(seed=seed + 1), seed=seed)
        emitter.add(
            "transport.svg",
            write_scatter,
            [(c["bound"], c["bias"]) for c in report["cases"]],
            "Exposure-response bias vs transport bound",
            x_label="L * W1 bound",
            y_label="observed bias",
        )
    if "minimax" in which:
        checks["minimax"] = minimax_tightness_check((0.5, 1.0, 2.0), (0.1, 0.3, 0.6))
    if "catalog" in which:
        surface, lipschitz = random_smooth_surface(seed)
        report = checks["catalog"] = catalog_approximation_check(surface, lipschitz, (5, 10, 20, 40))
        emitter.add(
            "catalog.svg",
            write_line_chart,
            [c["size"] for c in report["cases"]],
            [
                ("observed gap", [c["gap"] for c in report["cases"]]),
                ("net bound", [c["bound"] for c in report["cases"]]),
            ],
            "Catalog approximation gap vs net bound",
            x_label="catalog size",
            y_label="risk gap",
        )
    if "mde" in which:
        durations = (1, 2, 4, 8)
        report = checks["mde"] = mde_grid(
            config.build_catalog(), config.build_panel(), config.build_weights(), durations, seed=seed
        )
        emitter.add(
            "mde.svg",
            write_heat_table,
            [row["design"] for row in report["rows"]],
            [f"{d}w" for d in durations],
            [[row["mde"][d] for d in durations] for row in report["rows"]],
            "Planning MDE by design and duration",
        )
    if "oracle" in which:
        checks["oracle"] = oracle_comparison(seed=seed)
    if "dominance" in which:
        checks["dominance"] = dominance_check(seed=seed)

    for name, check in checks.items():
        emitter.add(f"{name}.json", _write_json, check)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": config_digest(config, "diagnose"),
        "passed": all(c["passed"] for c in checks.values()),
        "checks": list(checks.values()),
    }
    emitter.add("diagnostics.json", _write_json, report)
    emitter.write()
    return report


def run_simulate(config: RunConfig) -> dict:
    """Build the configured panel and dump it in the ingestible CSV schema."""
    panel = config.build_panel()
    header = ["unit_id", "period", "outcome", "cluster_id", "budget_id", "region_id"]
    if panel.propensities is not None:
        header.append("propensity")

    def unit_cells(grouping: str) -> list[str]:
        """Each unit's group name as a cell, each distinct name quoted once."""
        cells = [_csv_cell(name) for name in panel.groups[grouping][1]]
        return [cells[code] for code in panel.group_codes(grouping).tolist()]

    # One column of formatted cells each, in unit-major row order; the three
    # group names of a unit share one column.
    n_periods = panel.n_periods
    groups = map(",".join, zip(*map(unit_cells, LOCALITIES)))
    columns = [
        [unit for unit in map(_csv_cell, panel.unit_ids) for _ in range(n_periods)],
        list(map(str, range(1, n_periods + 1))) * panel.n_units,
        map(repr, panel.baseline.ravel().tolist()),
        [group for group in groups for _ in range(n_periods)],
    ]
    if panel.propensities is not None:
        columns.append(map(repr, panel.propensities.ravel().tolist()))
    emitter = _Emitter(config.out_dir)
    emitter.add("panel.csv", _write_rows, header, zip(*columns))
    emitter.write()
    return {
        "n_units": panel.n_units,
        "n_periods": panel.n_periods,
        "n_clusters": panel.n_clusters,
        "n_budget_groups": panel.n_budget_groups,
        "n_regions": panel.n_regions,
    }


def _split(flag: str) -> tuple[str, ...]:
    """The non-empty items of a comma-separated flag."""
    return tuple(item for item in flag.split(",") if item)


# Each flag, in --help order, with the config key it overrides; a command
# takes a flag without a key always, and one with a key only if it reads it.
_FLAGS = (
    (None, "--config", {"help": "path to a JSON run config"}),
    ("seed", "--seed", {"type": int, "help": "override the master seed"}),
    ("reps", "--reps", {"type": int, "help": "override the replication count"}),
    (None, "--out", {"help": "override the output directory"}),
    ("diagnostics", "--checks", {"type": _split, "help": "comma-separated subset of: " + ",".join(DIAGNOSTIC_NAMES)}),
)


class _Parser(argparse.ArgumentParser):
    """A usage error prints one ``error:`` line, without the usage, and exits 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xdesign",
        description="Robust randomization-design selection under uncertain interference.",
    )
    # A flag that a command does not take reads as not given.
    parser.set_defaults(**{flag[2:]: None for _, flag, _ in _FLAGS})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("select", "evaluate the catalog over the ambiguity grid and pick the robust design"),
        ("sweep", "winner map over a mechanism-intensity sweep"),
        ("diagnose", "run theorem-level stress checks"),
        ("simulate", "generate and dump the configured panel"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        for key, flag, options in _FLAGS:
            if key is None or key in READS[name]:
                cmd.add_argument(flag, **options)
    return parser


# Overflow and invalid results are checked downstream, where the error names
# the field; numpy's warnings would only add lines before that one.
@np.errstate(over="ignore", invalid="ignore")
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config).with_overrides(
            seed=args.seed, reps=args.reps, out=args.out, checks=args.checks,
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
    except (XDesignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

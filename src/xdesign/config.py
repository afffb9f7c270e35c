"""Run configuration: one nested JSON document describing a reproducible run.

The config names the panel source (synthetic spec or CSV path), calibration
overrides, the ambiguity grid, catalog overrides, planning weights, replication
count, the master seed, which seeds every command's draws, the output
directory and the diagnostics to run. Every key and the type of its value are
checked when the config is built, whichever command runs; a bad one raises an
error that names its field. :data:`READS` says which top-level keys each command
reads: it decides which keys a command's flags may override and which keys
its config digest covers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .designs import DesignSpec, default_catalog
from .diagnostics import DIAGNOSTIC_NAMES, SweepConfig
from .errors import CalibrationError, ConfigurationError
from .mechanisms import AmbiguityGrid, default_grid
from .panel import CalibrationScales, CsvSchema, Panel, SyntheticPanelConfig, calibrate_scales, generate_synthetic_panel, ingest_log_csv
from .risk import PlanningWeights

__all__ = ["READS", "RunConfig", "load_config", "config_digest"]


# The config value type of each dataclass field annotation; None is never a
# config value, and a tuple field takes a list.
_FIELD_TYPES = {
    "int": int, "float": float, "str": str, "bool": bool, "float | None": float, "tuple[float, ...]": [float],
}


def _fields(cls) -> dict:
    """Config keys of a flat dataclass: its field names, typed by their annotations."""
    return {f.name: _FIELD_TYPES[f.type] for f in fields(cls)}


def _tuples(spec: dict) -> dict:
    """``spec`` with its list values as tuples, as the dataclasses take them."""
    return {key: tuple(value) if isinstance(value, list) else value for key, value in spec.items()}


# Every config key and the type of its value: ``float`` accepts any number, a
# dict is a nested object and a one-element list a list of such values.
_SCHEMA = {
    "panel": {"synthetic": _fields(SyntheticPanelConfig), "csv": {"path": str, "schema": _fields(CsvSchema)}},
    "calibration": _fields(CalibrationScales),
    "grid": {"graph_spill": [float], "budget_spill": [float], "carryover": [float], "localities": [str]},
    "catalog": [_fields(DesignSpec)],
    "weights": _fields(PlanningWeights),
    "reps": int,
    "seed": int,
    "out": str,
    "shortlist_fraction": float,
    "epsilon_mode": str,
    "sweep": _fields(SweepConfig),
    "diagnostics": {"checks": [str]},
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}

# The top-level keys that each command reads, besides ``out``, which every
# command reads.
READS = {
    "select": ("panel", "calibration", "grid", "catalog", "weights", "reps", "seed", "shortlist_fraction",
               "epsilon_mode"),
    "sweep": ("panel", "calibration", "catalog", "weights", "sweep", "reps", "seed"),
    "diagnose": ("panel", "catalog", "weights", "seed", "diagnostics"),
    "simulate": ("panel", "seed"),
}


def _is_type(value: Any, kind: type) -> bool:
    # JSON true/false load as bool, an int subclass: accept them only as bool.
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _validate(where: str, value: Any, spec: Any) -> None:
    """Check ``value`` against ``spec``; errors name the dotted field path."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where} must be an object, got {value!r}")
        unknown = set(value) - set(spec)
        if unknown:
            raise ConfigurationError(f"unknown {where} key {sorted(unknown)[0]!r}")
        for key, item in value.items():
            _validate(f"{where}.{key}" if where != "config" else key, item, spec[key])
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _validate(f"{where}[{i}]", item, spec[0])
    elif not _is_type(value, spec):
        raise ConfigurationError(f"{where} must be {_TYPE_NAMES[spec]}, got {value!r}")
    # Python's json reads NaN and Infinity, which no field means.
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
    # No file name holds a NUL or a character that the file system encoding
    # cannot encode, such as a lone surrogate, and no field needs one.
    elif isinstance(value, str):
        if "\0" in value:
            raise ConfigurationError(f"{where} must not hold a NUL character")
        try:
            os.fsencode(value)
        except UnicodeEncodeError as exc:
            raise ConfigurationError(f"{where} must not hold the character U+{ord(value[exc.start]):04X}") from None


def _in_section(where: str, spec: dict, build, /, **values):
    """``build(**values)``, whose errors name the config section ``where`` that ``spec`` describes.

    A message that starts with a key of ``spec`` (or with a ratio of it, as
    in ``alpha/2``) gets that key's dotted path, as in ``weights.alpha must
    lie in (0, 1)``; any other gets the section, as in ``weights: component
    weights must be >= 0``.
    """
    try:
        return build(**values)
    except (ConfigurationError, CalibrationError) as exc:
        message = str(exc)
        joint = "." if message.split(" ", 1)[0].partition("/")[0] in spec else ": "
        raise type(exc)(f"{where}{joint}{message}") from None


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration.

    Every section is checked when the config is built: the grid, catalog,
    weights and sweep are built then, and the panel source's settings are
    checked. The panel itself and the calibration, which reads it, are built
    by each run.
    """

    data: dict = field(default_factory=dict)
    _built: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate("config", self.data, _SCHEMA)
        if len(self.data.get("panel", {"synthetic": {}})) != 1:
            raise ConfigurationError("panel must have exactly one source: 'synthetic' or 'csv'")
        if self.reps < 1:
            raise ConfigurationError("reps must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        # An absent catalog means the default one; an empty one is a mistake.
        if "catalog" in self.data and not self.data["catalog"]:
            raise ConfigurationError("catalog must be non-empty")
        for key, values in self.data.get("grid", {}).items():
            if not values:
                raise ConfigurationError(f"grid.{key} must be non-empty")
        if not self.checks:
            raise ConfigurationError("diagnostics.checks must be non-empty")
        for name in self.checks:
            if name not in DIAGNOSTIC_NAMES:
                raise ConfigurationError(f"diagnostics.checks has unknown diagnostic {name!r}")
        if self.shortlist_fraction < 0:
            raise ConfigurationError("shortlist_fraction must be >= 0")
        # An empty path would write the artifacts into the working directory.
        if not self.data.get("out", "out"):
            raise ConfigurationError("out must be non-empty")
        if self.epsilon_mode not in ("fraction", "stderr"):
            raise ConfigurationError("epsilon_mode must be 'fraction' or 'stderr'")
        # One replication has no spread, so its standard errors would read 0.
        if self.epsilon_mode == "stderr" and self.reps < 2:
            raise ConfigurationError("epsilon_mode 'stderr' needs reps >= 2")
        object.__setattr__(self, "_built", {
            "panel": self._panel_source(),
            "grid": self._grid(),
            "catalog": self._catalog(),
            "weights": _in_section("weights", _SCHEMA["weights"], PlanningWeights, **self.data.get("weights", {})),
            # The sweep's reps and seed default to the run's.
            "sweep": _in_section("sweep", _SCHEMA["sweep"], SweepConfig,
                                 **_tuples({"reps": self.reps, "seed": self.seed, **self.data.get("sweep", {})})),
        })

    @property
    def reps(self) -> int:
        return self.data.get("reps", 10)

    @property
    def seed(self) -> int:
        return self.data.get("seed", 0)

    @property
    def out_dir(self) -> Path:
        return Path(self.data.get("out", "out"))

    @property
    def shortlist_fraction(self) -> float:
        return float(self.data.get("shortlist_fraction", 0.10))

    @property
    def epsilon_mode(self) -> str:
        return self.data.get("epsilon_mode", "fraction")

    @property
    def checks(self) -> tuple[str, ...]:
        """The diagnostics that ``diagnose`` runs."""
        return tuple(self.data.get("diagnostics", {}).get("checks", DIAGNOSTIC_NAMES))

    def with_overrides(
        self,
        seed: int | None = None,
        reps: int | None = None,
        out: str | None = None,
        checks: tuple[str, ...] | None = None,
    ) -> "RunConfig":
        """A copy with the given values replaced.

        ``seed`` and ``reps`` also replace the ``seed`` and ``reps`` that the
        ``sweep`` section sets, so a flag reaches every command that reads
        it; ``checks`` replaces ``diagnostics.checks``.
        """
        data = dict(self.data)
        for key, value in (("seed", seed), ("reps", reps)):
            if value is not None:
                data[key] = value
                if key in data.get("sweep", {}):
                    data["sweep"] = {**data["sweep"], key: value}
        if out is not None:
            data["out"] = out
        if checks is not None:
            data["diagnostics"] = {**data.get("diagnostics", {}), "checks": list(checks)}
        return RunConfig(data)

    def _panel_source(self) -> SyntheticPanelConfig | tuple[str, CsvSchema]:
        source = self.data.get("panel", {"synthetic": {}})
        if "synthetic" in source:
            return _in_section(
                "panel.synthetic", _SCHEMA["panel"]["synthetic"], SyntheticPanelConfig, **source["synthetic"]
            )
        spec = source["csv"]
        if "path" not in spec:
            raise ConfigurationError("csv panel source needs a 'path'")
        return spec["path"], CsvSchema(**spec.get("schema", {}))

    def _grid(self) -> AmbiguityGrid:
        spec = self.data.get("grid")
        if not spec:
            return default_grid()
        return _in_section("grid", _SCHEMA["grid"], AmbiguityGrid.from_axes, **_tuples(spec))

    def _catalog(self) -> tuple[DesignSpec, ...]:
        if "catalog" not in self.data:
            return tuple(default_catalog())
        catalog = []
        for i, entry in enumerate(self.data["catalog"]):
            if "kind" not in entry:
                raise ConfigurationError(f"catalog[{i}] needs a 'kind'")
            catalog.append(_in_section(f"catalog[{i}]", _SCHEMA["catalog"][0], DesignSpec, **_tuples(entry)))
        names = [d.name for d in catalog]
        if len(set(names)) != len(names):
            raise ConfigurationError("catalog design names must be unique")
        return tuple(catalog)

    # Builders -------------------------------------------------------------

    def build_panel(self) -> Panel:
        source = self._built["panel"]
        if isinstance(source, SyntheticPanelConfig):
            return generate_synthetic_panel(source, seed=self.seed)
        path, schema = source
        try:
            # utf-8-sig drops the byte-order mark that spreadsheet exports often start with.
            with open(path, "r", encoding="utf-8-sig", newline="") as handle:
                return ingest_log_csv(handle, schema)
        except OSError as exc:
            raise ConfigurationError(f"cannot read panel.csv.path {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigurationError(f"cannot read panel.csv.path {path}: not UTF-8 text") from None

    def build_calibration(self, panel: Panel) -> CalibrationScales:
        return _in_section("calibration", _SCHEMA["calibration"], calibrate_scales, panel=panel,
                           **self.data.get("calibration", {}))

    def build_grid(self) -> AmbiguityGrid:
        return self._built["grid"]

    def build_catalog(self) -> list[DesignSpec]:
        return list(self._built["catalog"])

    def build_weights(self) -> PlanningWeights:
        return self._built["weights"]

    def build_sweep(self) -> SweepConfig:
        """The ``sweep`` section; its reps and seed default to the run's."""
        return self._built["sweep"]


def load_config(path: str | Path | None) -> RunConfig:
    """Read a JSON run config; a missing path falls back to the built-in defaults."""
    if path is None:
        return RunConfig({})
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    return RunConfig(data)


def config_digest(config: RunConfig, command: str) -> str:
    """Stable digest of the configuration that affects ``command``'s computation.

    It covers the keys that ``command`` reads (:data:`READS`), less the
    ``diagnostics`` section, and never the output directory: the checks to
    run, the section's only key, and the directory choose which artifacts
    are written and where, not what any one holds. So one run written to two
    places, or one check run alone or with others, has one digest, and a key
    the command does not read changes none.
    """
    computed = {k: v for k, v in config.data.items() if k in READS[command] and k != "diagnostics"}
    canonical = json.dumps(computed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

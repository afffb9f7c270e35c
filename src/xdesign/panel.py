"""Unit-by-period panels: synthetic generation, CSV ingestion, calibration, support diagnostics.

A :class:`Panel` is the substrate every candidate design is replayed on. It holds
baseline (pre-experiment) outcomes for ``n_units`` units over ``n_periods``
periods together with three group memberships per unit: a graph/producer
cluster, a shared-budget (pacing) pool, and a market region. Logged propensities
are optional and only feed the support-stress diagnostics.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CalibrationError, ConfigurationError, IngestionError

__all__ = [
    "Panel",
    "SyntheticPanelConfig",
    "CalibrationScales",
    "CsvSchema",
    "generate_synthetic_panel",
    "ingest_log_csv",
    "calibrate_scales",
    "code_labels",
    "ess_share",
]


def code_labels(labels: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes of string group labels and their distinct names, sorted.

    ``names[codes[i]] == labels[i]``; the names come out in the order of
    ``np.unique``, as Python sorts strings.
    """
    index = dict.fromkeys(labels)
    names = tuple(sorted(index))
    index.update(zip(names, range(len(names))))
    return np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=len(labels)), names


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through; ``array`` itself stays as it is."""
    view = array.view()
    view.flags.writeable = False
    return view


# The unit groupings a panel stores; each is also a mechanism locality, the
# grouping that defines exposure neighborhoods.
LOCALITIES = ("cluster", "budget", "region")


@dataclass(frozen=True)
class Panel:
    """Immutable unit-by-period log the selector replays designs on.

    ``baseline[i, t]`` is the baseline outcome of unit ``i`` in period ``t + 1``
    (periods are 1-based externally, contiguous). ``propensities`` has the same
    shape when present; all values must lie in (0, 1].

    ``groups`` maps each grouping in :data:`LOCALITIES` to ``(codes, names)``:
    one int64 code per unit and the sorted, distinct group names, each naming
    at least one unit. Unit ``i`` is in cluster ``names[codes[i]]`` of
    ``groups["cluster"]``; :func:`code_labels` makes the pair from per-unit
    labels.

    A panel is frozen all the way down: ``groups`` is a read-only mapping and
    every array it holds is a read-only view, checked once at construction.
    """

    unit_ids: tuple[str, ...]
    groups: Mapping[str, tuple[np.ndarray, tuple[str, ...]]]
    n_periods: int
    baseline: np.ndarray
    propensities: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.unit_ids)
        if n < 2:
            raise ConfigurationError("panel needs at least 2 units")
        if self.n_periods < 1:
            raise ConfigurationError("panel needs at least 1 period")
        if len(set(self.unit_ids)) != n:
            raise ConfigurationError("unit_id values must be unique")
        if set(self.groups) != set(LOCALITIES):
            raise ConfigurationError(f"groups must hold exactly the groupings {', '.join(LOCALITIES)}")
        groups = {}
        for grouping in LOCALITIES:
            codes, names = self.groups[grouping]
            codes, names = np.asarray(codes), tuple(names)
            if codes.shape != (n,) or not np.issubdtype(codes.dtype, np.integer):
                raise ConfigurationError(f"{grouping}_codes must hold one integer per unit")
            codes = codes.astype(np.int64, copy=False)
            if any(not str(x) for x in names):
                raise ConfigurationError(f"{grouping}_id labels must be non-empty")
            if any(b <= a for a, b in zip(names, names[1:])):
                raise ConfigurationError(f"{grouping}_names must be sorted and distinct")
            if codes.min() < 0 or codes.max() >= len(names) or not np.bincount(codes, minlength=len(names)).all():
                raise ConfigurationError(f"{grouping}_codes must use each of the {len(names)} names")
            groups[grouping] = _read_only(codes), names
        object.__setattr__(self, "groups", MappingProxyType(groups))
        baseline = np.asarray(self.baseline, dtype=float)
        if baseline.shape != (n, self.n_periods):
            raise ConfigurationError(
                f"baseline shape {baseline.shape} != (n_units, n_periods) = {(n, self.n_periods)}"
            )
        if not np.all(np.isfinite(baseline)):
            raise ConfigurationError("baseline outcomes must be finite")
        object.__setattr__(self, "baseline", _read_only(baseline))
        if self.propensities is not None:
            prop = np.asarray(self.propensities, dtype=float)
            if prop.shape != baseline.shape:
                raise ConfigurationError("propensities shape must match baseline")
            if not np.all((prop > 0.0) & (prop <= 1.0)):
                raise ConfigurationError("propensities must lie in (0, 1]")
            object.__setattr__(self, "propensities", _read_only(prop))

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.groups["cluster"][1])

    @property
    def n_budget_groups(self) -> int:
        return len(self.groups["budget"][1])

    @property
    def n_regions(self) -> int:
        return len(self.groups["region"][1])

    def group_codes(self, which: str) -> np.ndarray:
        """Integer group codes per unit for ``which`` in {cluster, budget, region}."""
        return self.groups[which][0]


@dataclass(frozen=True)
class SyntheticPanelConfig:
    """Shape of a synthetic platform panel."""

    n_units: int = 200
    n_clusters: int = 10
    n_budget_groups: int = 5
    n_regions: int = 2
    n_periods: int = 8
    baseline_mean: float = 1.0
    baseline_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.n_units < 2:
            raise ConfigurationError("n_units must be >= 2")
        for name in ("n_clusters", "n_budget_groups", "n_regions"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.n_periods < 1:
            raise ConfigurationError("n_periods must be >= 1")
        if self.baseline_sd < 0:
            raise ConfigurationError("baseline_sd must be >= 0")


def generate_synthetic_panel(cfg: SyntheticPanelConfig, seed: int | np.random.SeedSequence = 0) -> Panel:
    """Build a synthetic panel with round-robin-with-shuffle group memberships.

    Units are shuffled independently for each grouping, then dealt round-robin,
    so group sizes are balanced (exactly equal when counts divide evenly) and
    the three groupings are crossed. Baseline outcomes are i.i.d. Normal draws
    per cell. Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)

    def deal(n_groups: int, prefix: str) -> tuple[np.ndarray, tuple[str, ...]]:
        # Round-robin fills groups 0..min(n_units, n_groups)-1, so a count
        # above n_units deals as n_units does; only those groups get a name,
        # and the names sort as strings ("c1000" before "c101").
        n_groups = min(cfg.n_units, n_groups)
        order = rng.permutation(cfg.n_units)
        assign = np.empty(cfg.n_units, dtype=np.int64)
        assign[order] = np.arange(cfg.n_units) % n_groups
        group_codes, names = code_labels([f"{prefix}{g:03d}" for g in range(n_groups)])
        return group_codes[assign], names

    # Dealt in LOCALITIES order, which fixes the draws; names start with the grouping's initial.
    groups = {g: deal(n, g[0]) for g, n in zip(LOCALITIES, (cfg.n_clusters, cfg.n_budget_groups, cfg.n_regions))}
    baseline = rng.normal(cfg.baseline_mean, cfg.baseline_sd, size=(cfg.n_units, cfg.n_periods))
    return Panel(
        unit_ids=tuple(map("u{:05d}".format, range(cfg.n_units))),
        groups=groups,
        n_periods=cfg.n_periods,
        baseline=baseline,
    )


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for log ingestion. Group and propensity columns are optional."""

    unit_id: str = "unit_id"
    period: str = "period"
    outcome: str = "outcome"
    cluster_id: str = "cluster_id"
    budget_id: str = "budget_id"
    region_id: str = "region_id"
    propensity: str = "propensity"


# Rows are coded a block at a time, so memory holds one block of parsed rows.
_BLOCK_ROWS = 1 << 14


class _Coder:
    """First-seen integer codes of one column's stripped values, across blocks."""

    def __init__(self) -> None:
        self.raw: dict[str, int] = {}
        self.names: dict[str, int] = {}  # stripped value -> code, in first-seen order

    def __call__(self, values: list[str]) -> np.ndarray:
        raw, names = self.raw, self.names
        for value in dict.fromkeys(values):
            if value not in raw:
                raw[value] = names.setdefault(value.strip(), len(names))
        return np.fromiter(map(raw.__getitem__, values), dtype=np.int64, count=len(values))


def _floats(values: list[str]) -> tuple[np.ndarray, int]:
    """``float`` of each value up to the first that is not a number, and that one's index."""
    try:
        return np.fromiter(map(float, values), dtype=float, count=len(values)), len(values)
    except ValueError:
        parsed = []
        for value in values:
            try:
                parsed.append(float(value))
            except ValueError:
                break
        return np.array(parsed, dtype=float), len(parsed)


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _period_key(value: str):
    try:
        return (0, float(value), "")
    except ValueError:
        return (1, 0.0, value)


def ingest_log_csv(stream: Iterable[str] | io.TextIOBase | str, schema: CsvSchema | None = None) -> Panel:
    """Parse a unit-by-period log into a :class:`Panel`.

    The stream must have a header row of distinct column names, rows with as
    many fields as the header, and complete (unit, period) coverage.
    Missing group columns collapse every unit into one shared group; a missing
    propensity column leaves propensities absent. Raw period values are
    re-mapped to contiguous 1..T preserving their sorted order: numbers first,
    by value, then other strings. A NaN period, or one number written two ways
    (``1`` and ``1.0``), is rejected. Units keep the order they first appear in.

    Rows are checked in file order: when several rows are bad, the error names
    the earliest one.
    """
    schema = schema or CsvSchema()
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError("no data rows") from None
    header = [h.strip() for h in header]
    col: dict[str, int] = {}
    for idx, name in enumerate(header):
        if name in col:
            raise IngestionError(f"duplicate column {name!r}")
        col[name] = idx
    for required in (schema.unit_id, schema.period, schema.outcome):
        if required not in col:
            raise IngestionError(f"missing required column {required!r}")
    groupings = {g: c for g, c in zip(LOCALITIES, (schema.cluster_id, schema.budget_id, schema.region_id)) if c in col}
    has_propensity = schema.propensity in col

    units, periods = _Coder(), _Coder()
    groups = {g: _Coder() for g in groupings}
    numeric_periods: dict[float, str] = {}  # period value -> its first spelling
    chunks: dict[str, list[np.ndarray]] = {key: [] for key in ("unit", "period", "outcome", "propensity", *groupings)}

    def flush(block: list[list[str]], lines: list[int], width_error: str | None = None) -> None:
        """Code one block of rows, or raise the error of its earliest bad row.

        A row's checks keep the order of a row-by-row reading: width, empty
        unit or period, outcome, propensity, then the period's value.
        """
        found: list[tuple[int, int, str]] = []  # (row in block, check, message)
        if width_error is not None:
            found.append((len(block), 0, width_error))

        def check(order: int, row: int | None, message) -> None:
            if row is not None:
                found.append((row, order, message(row)))

        def column(name: str) -> list[str]:
            return list(map(operator.itemgetter(col[name]), block))

        n_known = len(periods.names)
        u, p = units(column(schema.unit_id)), periods(column(schema.period))
        empty = (u == units.names.get("", -1)) | (p == periods.names.get("", -1))
        check(1, _first(empty), lambda i: "empty unit_id or period")
        raw_outcome = column(schema.outcome)
        outcome, parsed = _floats(raw_outcome)
        check(2, parsed if parsed < len(block) else None, lambda i: f"non-numeric outcome {raw_outcome[i]!r}")
        check(3, _first(~np.isfinite(outcome)), lambda i: f"non-finite outcome {raw_outcome[i]!r}")
        if has_propensity:
            raw_propensity = column(schema.propensity)
            propensity, parsed = _floats(raw_propensity)
            check(4, parsed if parsed < len(block) else None,
                  lambda i: f"non-numeric propensity {raw_propensity[i]!r}")
            check(5, _first(~((propensity > 0.0) & (propensity <= 1.0))),
                  lambda i: f"propensity {float(propensity[i])} outside (0, 1]")
        for name, code in itertools.islice(periods.names.items(), n_known, None):
            try:
                value = float(name)
            except ValueError:
                continue
            if math.isnan(value):
                check(6, _first(p == code), lambda i: f"period {name!r} is NaN")
            elif value in numeric_periods:
                first = numeric_periods[value]
                check(7, _first(p == code), lambda i: f"period {name!r} is period {first!r} written differently")
            else:
                numeric_periods[value] = name
        if found:
            row, _, message = min(found, key=lambda error: error[:2])
            raise IngestionError(f"row {lines[row]}: {message}")
        chunks["unit"].append(u)
        chunks["period"].append(p)
        chunks["outcome"].append(outcome)
        if has_propensity:
            chunks["propensity"].append(propensity)
        for g in groupings:
            chunks[g].append(groups[g](column(groupings[g])))

    width = len(header)
    block: list[list[str]] = []
    lines: list[int] = []
    for lineno, raw in enumerate(reader, start=2):  # line 1 is the header
        # A blank row has the wrong width or a blank first field.
        if len(raw) != width or not raw[0].strip():
            if not "".join(raw).strip():
                continue
            if len(raw) != width:
                flush(block, lines + [lineno], f"expected {width} fields, got {len(raw)}")
        block.append(raw)
        lines.append(lineno)
        if len(block) == _BLOCK_ROWS:
            flush(block, lines)
            block, lines = [], []
    if block:
        flush(block, lines)
    if not chunks["unit"]:
        raise IngestionError("no data rows")
    unit_order = list(units.names)
    period_names = list(periods.names)
    period_order = sorted(range(len(period_names)), key=lambda c: _period_key(period_names[c]))
    period_values = [period_names[c] for c in period_order]
    n, n_periods = len(unit_order), len(period_values)
    rank = np.empty(n_periods, dtype=np.int64)
    rank[period_order] = np.arange(n_periods)
    u, p = np.concatenate(chunks["unit"]), rank[np.concatenate(chunks["period"])]
    cells = u * n_periods + p
    counts = np.bincount(cells, minlength=n * n_periods)

    # The checks across rows, in the order a row-by-row reading meets them:
    # a repeated cell, then each grouping's label against the unit's first one.
    found: list[tuple[int, int, str]] = []  # (row, check, message)
    if counts.max() > 1:
        order = np.argsort(cells, kind="stable")
        row = int(order[1:][cells[order[1:]] == cells[order[:-1]]].min())
        found.append((row, 0, f"duplicate observation for unit {unit_order[u[row]]!r}, period {period_values[p[row]]!r}"))
    # Units are coded in first-seen order, so a unit's first row is where its
    # code first exceeds every code before it.
    first_rows = np.flatnonzero(np.concatenate(([True], u[1:] > np.maximum.accumulate(u)[:-1])))
    groups_of_units: dict[str, tuple[np.ndarray, tuple[str, ...]]] = {}
    for check, g in enumerate(groupings, start=1):
        codes = np.concatenate(chunks[g])
        unit_codes = codes[first_rows]
        row = _first(codes != unit_codes[u])
        if row is not None:
            found.append((row, check, f"unit {unit_order[u[row]]!r} has conflicting {g} labels"))
        sorted_codes, names = code_labels(list(groups[g].names))
        groups_of_units[g] = sorted_codes[unit_codes], names
    if found:
        raise IngestionError(min(found, key=lambda error: error[:2])[2])
    if counts.min() == 0:
        i, t = divmod(int(np.flatnonzero(counts == 0)[0]), n_periods)
        raise IngestionError(
            f"incomplete panel: unit {unit_order[i]!r} has no row for period {period_values[t]!r}"
        )

    def cell_table(values: np.ndarray) -> np.ndarray:
        table = np.empty(n * n_periods)
        table[cells] = values
        return table.reshape(n, n_periods)

    return Panel(
        unit_ids=tuple(unit_order),
        groups={g: groups_of_units.get(g, (np.zeros(n, dtype=np.int64), ("all",))) for g in LOCALITIES},
        n_periods=n_periods,
        baseline=cell_table(np.concatenate(chunks["outcome"])),
        propensities=cell_table(np.concatenate(chunks["propensity"])) if has_propensity else None,
    )


@dataclass(frozen=True)
class CalibrationScales:
    """Outcome-scale constants used by the interference simulator.

    ``graph_frac`` of the spillover scale goes to the graph-side channel and
    the rest, ``1 - graph_frac``, to the budget-side channel.
    """

    direct_effect: float
    spill_scale: float
    carry_scale: float
    graph_frac: float = 0.5
    noise_sd: float = 0.0

    def __post_init__(self) -> None:
        for name in ("direct_effect", "spill_scale", "carry_scale", "graph_frac", "noise_sd"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise CalibrationError(f"{name} must be finite")
        for name in ("spill_scale", "carry_scale", "noise_sd"):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} must be >= 0")
        if not 0.0 <= self.graph_frac <= 1.0:
            raise CalibrationError("graph_frac must lie in [0, 1]")


def calibrate_scales(
    panel: Panel,
    *,
    direct_effect: float | None = None,
    spill_scale: float | None = None,
    carry_scale: float | None = None,
    graph_frac: float = 0.5,
    noise_sd: float | None = None,
) -> CalibrationScales:
    """Derive outcome scales from the panel's outcome dispersion.

    Any override is returned verbatim. Defaults are fixed multiples of the
    sample standard deviation of the baseline outcomes: direct effect 0.1*sd,
    spillover scale 0.5*sd, carryover scale 0.25*sd, noise sd 0.5*sd, with the
    spillover scale split evenly (``graph_frac`` 0.5) between the graph and
    budget channels.
    """
    sd_needed = any(v is None for v in (direct_effect, spill_scale, carry_scale, noise_sd))
    sigma = 0.0
    if sd_needed:
        sigma = float(np.std(panel.baseline, ddof=1))
        if sigma <= 0.0:
            raise CalibrationError(
                "panel outcome standard deviation is 0; supply explicit scale overrides"
            )
        if not math.isfinite(sigma):
            raise CalibrationError("panel outcome standard deviation is not finite; rescale the outcomes")
    return CalibrationScales(
        direct_effect=0.1 * sigma if direct_effect is None else float(direct_effect),
        spill_scale=0.5 * sigma if spill_scale is None else float(spill_scale),
        carry_scale=0.25 * sigma if carry_scale is None else float(carry_scale),
        graph_frac=float(graph_frac),
        noise_sd=0.5 * sigma if noise_sd is None else float(noise_sd),
    )


def ess_share(propensities: Sequence[float] | np.ndarray) -> float:
    """Normalized inverse-propensity effective-sample-size share.

    With weights w = 1/pi, returns (sum w)^2 / (n * sum w^2), which is 1 exactly
    when all propensities are equal and drops toward 0 as the weights
    concentrate on a few observations.
    """
    pi = np.asarray(propensities, dtype=float).ravel()
    if pi.size == 0:
        raise ConfigurationError("propensity list must be non-empty")
    if not np.all((pi > 0.0) & (pi <= 1.0)):
        raise ConfigurationError("propensities must lie in (0, 1]")
    w = 1.0 / pi
    w = w / w.max()  # scale-free; makes the constant case exact
    total = float(w.sum())
    return total * total / (w.size * float(np.square(w).sum()))

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
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
    "ess_share",
]


def _codes(labels: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    names, inverse = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    return inverse.astype(np.int64), tuple(str(x) for x in names)


@dataclass(frozen=True)
class Panel:
    """Immutable unit-by-period log the selector replays designs on.

    ``baseline[i, t]`` is the baseline outcome of unit ``i`` in period ``t + 1``
    (periods are 1-based externally, contiguous). ``propensities`` has the same
    shape when present; all values must lie in (0, 1].
    """

    unit_ids: tuple[str, ...]
    cluster_ids: tuple[str, ...]
    budget_ids: tuple[str, ...]
    region_ids: tuple[str, ...]
    n_periods: int
    baseline: np.ndarray
    propensities: np.ndarray | None = None

    # Derived integer codes, filled in __post_init__.
    cluster_codes: np.ndarray = field(init=False, repr=False)
    budget_codes: np.ndarray = field(init=False, repr=False)
    region_codes: np.ndarray = field(init=False, repr=False)
    cluster_names: tuple[str, ...] = field(init=False, repr=False)
    budget_names: tuple[str, ...] = field(init=False, repr=False)
    region_names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.unit_ids)
        if n < 2:
            raise ConfigurationError("panel needs at least 2 units")
        if self.n_periods < 1:
            raise ConfigurationError("panel needs at least 1 period")
        if len(set(self.unit_ids)) != n:
            raise ConfigurationError("unit_id values must be unique")
        for name, labels in (
            ("cluster_id", self.cluster_ids),
            ("budget_id", self.budget_ids),
            ("region_id", self.region_ids),
        ):
            if len(labels) != n:
                raise ConfigurationError(f"{name} list length must match unit count")
            if any(not str(x) for x in labels):
                raise ConfigurationError(f"{name} labels must be non-empty")
        baseline = np.asarray(self.baseline, dtype=float)
        if baseline.shape != (n, self.n_periods):
            raise ConfigurationError(
                f"baseline shape {baseline.shape} != (n_units, n_periods) = {(n, self.n_periods)}"
            )
        if not np.all(np.isfinite(baseline)):
            raise ConfigurationError("baseline outcomes must be finite")
        object.__setattr__(self, "baseline", baseline)
        if self.propensities is not None:
            prop = np.asarray(self.propensities, dtype=float)
            if prop.shape != baseline.shape:
                raise ConfigurationError("propensities shape must match baseline")
            if not np.all((prop > 0.0) & (prop <= 1.0)):
                raise ConfigurationError("propensities must lie in (0, 1]")
            object.__setattr__(self, "propensities", prop)
        for attr, labels in (
            ("cluster", self.cluster_ids),
            ("budget", self.budget_ids),
            ("region", self.region_ids),
        ):
            codes, names = _codes(labels)
            object.__setattr__(self, f"{attr}_codes", codes)
            object.__setattr__(self, f"{attr}_names", names)

    @property
    def n_units(self) -> int:
        return len(self.unit_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_names)

    @property
    def n_budget_groups(self) -> int:
        return len(self.budget_names)

    @property
    def n_regions(self) -> int:
        return len(self.region_names)

    def group_codes(self, which: str) -> np.ndarray:
        """Integer group codes per unit for ``which`` in {cluster, budget, region}."""
        try:
            return {"cluster": self.cluster_codes, "budget": self.budget_codes, "region": self.region_codes}[which]
        except KeyError:
            raise ConfigurationError(f"unknown grouping {which!r}") from None


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

    def deal(n_groups: int, prefix: str) -> list[str]:
        order = rng.permutation(cfg.n_units)
        assign = np.empty(cfg.n_units, dtype=np.int64)
        assign[order] = np.arange(cfg.n_units) % n_groups
        return [f"{prefix}{g:03d}" for g in assign]

    clusters = deal(cfg.n_clusters, "c")
    budgets = deal(cfg.n_budget_groups, "b")
    regions = deal(cfg.n_regions, "r")
    baseline = rng.normal(cfg.baseline_mean, cfg.baseline_sd, size=(cfg.n_units, cfg.n_periods))
    return Panel(
        unit_ids=tuple(f"u{i:05d}" for i in range(cfg.n_units)),
        cluster_ids=tuple(clusters),
        budget_ids=tuple(budgets),
        region_ids=tuple(regions),
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


def ingest_log_csv(stream: Iterable[str] | io.TextIOBase | str, schema: CsvSchema | None = None) -> Panel:
    """Parse a unit-by-period log into a :class:`Panel`.

    The stream must have a header row of distinct column names, rows with as
    many fields as the header, and complete (unit, period) coverage.
    Missing group columns collapse every unit into one shared group; a missing
    propensity column leaves propensities absent. Raw period values are
    re-mapped to contiguous 1..T preserving their sorted order.
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
    has = {
        "cluster": schema.cluster_id in col,
        "budget": schema.budget_id in col,
        "region": schema.region_id in col,
        "propensity": schema.propensity in col,
    }

    rows: list[tuple[str, str, float, str, str, str, float | None]] = []
    for lineno, raw in enumerate(reader, start=2):  # line 1 is the header
        if not raw or all(not c.strip() for c in raw):
            continue
        if len(raw) != len(header):
            raise IngestionError(f"row {lineno}: expected {len(header)} fields, got {len(raw)}")
        unit = raw[col[schema.unit_id]].strip()
        period = raw[col[schema.period]].strip()
        if not unit or not period:
            raise IngestionError(f"row {lineno}: empty unit_id or period")
        try:
            outcome = float(raw[col[schema.outcome]])
        except ValueError:
            raise IngestionError(
                f"row {lineno}: non-numeric outcome {raw[col[schema.outcome]]!r}"
            ) from None
        if not math.isfinite(outcome):
            # NaN also marks an unfilled cell below, so it must never get that far.
            raise IngestionError(f"row {lineno}: non-finite outcome {raw[col[schema.outcome]]!r}")
        cluster = raw[col[schema.cluster_id]].strip() if has["cluster"] else "all"
        budget = raw[col[schema.budget_id]].strip() if has["budget"] else "all"
        region = raw[col[schema.region_id]].strip() if has["region"] else "all"
        prop: float | None = None
        if has["propensity"]:
            try:
                prop = float(raw[col[schema.propensity]])
            except ValueError:
                raise IngestionError(
                    f"row {lineno}: non-numeric propensity {raw[col[schema.propensity]]!r}"
                ) from None
            if not 0.0 < prop <= 1.0:
                raise IngestionError(f"row {lineno}: propensity {prop} outside (0, 1]")
        rows.append((unit, period, outcome, cluster, budget, region, prop))

    if not rows:
        raise IngestionError("no data rows")

    def period_key(value: str):
        try:
            return (0, float(value), "")
        except ValueError:
            return (1, 0.0, value)

    period_values = sorted({r[1] for r in rows}, key=period_key)
    period_index = {v: i for i, v in enumerate(period_values)}
    n_periods = len(period_values)

    unit_order: list[str] = []
    seen: set[str] = set()
    for r in rows:
        if r[0] not in seen:
            seen.add(r[0])
            unit_order.append(r[0])
    unit_index = {u: i for i, u in enumerate(unit_order)}
    n = len(unit_order)

    baseline = np.full((n, n_periods), np.nan)
    props = np.full((n, n_periods), np.nan) if has["propensity"] else None
    groups: dict[str, list[str | None]] = {k: [None] * n for k in ("cluster", "budget", "region")}
    for unit, period, outcome, cluster, budget, region, prop in rows:
        i, t = unit_index[unit], period_index[period]
        if not np.isnan(baseline[i, t]):
            raise IngestionError(f"duplicate observation for unit {unit!r}, period {period!r}")
        baseline[i, t] = outcome
        if props is not None:
            props[i, t] = prop
        for key, value in (("cluster", cluster), ("budget", budget), ("region", region)):
            if groups[key][i] is None:
                groups[key][i] = value
            elif groups[key][i] != value:
                raise IngestionError(f"unit {unit!r} has conflicting {key} labels")

    missing = np.argwhere(np.isnan(baseline))
    if missing.size:
        i, t = missing[0]
        raise IngestionError(
            f"incomplete panel: unit {unit_order[i]!r} has no row for period {period_values[t]!r}"
        )

    return Panel(
        unit_ids=tuple(unit_order),
        cluster_ids=tuple(groups["cluster"]),  # type: ignore[arg-type]
        budget_ids=tuple(groups["budget"]),  # type: ignore[arg-type]
        region_ids=tuple(groups["region"]),  # type: ignore[arg-type]
        n_periods=n_periods,
        baseline=baseline,
        propensities=props,
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

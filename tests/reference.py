"""Slow references for the library's fast paths, and panels built from string labels.

``xdesign.risk.score_groups`` scores every mechanism point of a draw group in
closed form on assignment atoms. This module scores one replication of one
(design, mechanism) point step by step on cells instead: replay, exposure
features, noise-free outcomes, then each risk component from the outcome
panel. The tests compare the kernel with ``hand_row`` to 1e-12 relative.
It writes the interference model out itself, the strengths and the launch
effect of ``outcome_strengths`` and ``launch_effect`` included, the planning
MDE ``(z(1 - alpha/2) + z(1 - beta)) * sqrt(2 v / n)``, and the expectations
that the kernel scores in place of draws: the noise's share of the variance
(``noise_variance``) and geometry and mismatch at ``1 - π``
(``launch_share``). So the comparison checks the kernel's model rather than
sharing it, and the tests check those expectations against draws.
``allocating_draw_atoms`` writes each design's atom map out with fresh arrays
per replay; the tests compare the kernel's draws with it bit for bit, and
``replay`` draws through it, so the reference never shares the kernel's draws.

``reference_synthetic_panel`` builds a synthetic panel the way the library
once did, from one string label per unit coded with ``np.unique``, and
``reference_ingest_log_csv`` parses a CSV log one row at a time; the tests
compare ``generate_synthetic_panel`` and ``ingest_log_csv`` with them.
``reference_panel_csv`` writes a panel one Python row per cell, as
``xdesign simulate`` once did, and ``reference_surface_csv`` and
``reference_sweep_csv`` write one row per design and grid point or per gamma,
as ``select`` and ``sweep`` once did; the tests compare their bytes with the
commands'.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from xdesign import (
    CalibrationScales,
    ConfigurationError,
    CsvSchema,
    DesignSpec,
    IngestionError,
    MechanismPoint,
    Panel,
    PlanningError,
    SyntheticPanelConfig,
    code_labels,
    effective_units,
    ess_share,
)
from xdesign.designs import _AtomRule


def labelled_panel(unit_ids, cluster_ids, budget_ids, region_ids, n_periods, baseline, propensities=None) -> Panel:
    """A panel whose groupings are given as one string label per unit."""
    groups = {"cluster": code_labels(cluster_ids), "budget": code_labels(budget_ids), "region": code_labels(region_ids)}
    return Panel(
        unit_ids=tuple(unit_ids), groups=groups, n_periods=n_periods, baseline=baseline, propensities=propensities
    )


def group_labels(panel: Panel, grouping: str) -> tuple[str, ...]:
    """Each unit's group name in ``grouping``, one string per unit."""
    codes, names = panel.groups[grouping]
    return tuple(names[c] for c in codes.tolist())


def reference_panel_csv(panel: Panel) -> str:
    """The text of ``simulate``'s panel.csv, built from one list of values per cell."""
    header = ["unit_id", "period", "outcome", "cluster_id", "budget_id", "region_id"]
    if panel.propensities is not None:
        header.append("propensity")
    rows = []
    groups = zip(*(group_labels(panel, g) for g in ("cluster", "budget", "region")))
    for i, (unit, (cluster, budget, region)) in enumerate(zip(panel.unit_ids, groups)):
        for t in range(panel.n_periods):
            row = [unit, t + 1, float(panel.baseline[i, t]), cluster, budget, region]
            if panel.propensities is not None:
                row.append(float(panel.propensities[i, t]))
            rows.append(row)
    return _row_csv(header, rows)


def _row_csv(header: list[str], rows: list[list]) -> str:
    """CSV text of rows of values, floats as ``repr`` and everything else as ``str``.

    Each row is one line as ``csv.writer`` writes it, which quotes a cell
    holding a comma, a quote or a line break; lines end in ``\\n``.
    """
    lines = []
    for row in [header, *rows]:
        line = io.StringIO()
        csv.writer(line).writerow([repr(x) if isinstance(x, float) else str(x) for x in row])
        lines.append(line.getvalue().removesuffix("\r\n"))
    return "\n".join(lines) + "\n"


def reference_surface_csv(surface, grid, names: list[str]) -> str:
    """The text of ``select``'s surface.csv, built from one list of values per (design, grid point)."""
    fields = ("graph_spill", "budget_spill", "carryover", "locality")
    components = ("geometry", "variance", "mde", "contamination", "op_cost", "mismatch")
    header = (["design", "design_index", "theta_index", *fields] + [f"raw_{name}" for name in components]
              + [f"norm_{name}" for name in components] + ["risk"])
    rows = [
        [names[d], d, k, *(getattr(grid[k], name) for name in fields)]
        + [float(x) for x in surface.raw[d, k]]
        + [float(x) for x in surface.normalized[d, k]]
        + [float(surface.risks[d, k])]
        for d in range(surface.n_designs)
        for k in range(surface.n_grid)
    ]
    return _row_csv(header, rows)


def reference_sweep_csv(result) -> str:
    """The text of ``sweep``'s sweep.csv, built from one list of values per gamma."""
    header = ["gamma", "graph_spill", "budget_spill", "carryover", *result.design_names, "winner"]
    rows = [
        [gamma, theta.graph_spill, theta.budget_spill, theta.carryover]
        + [float(x) for x in risks]
        + [result.design_names[winner]]
        for gamma, theta, risks, winner in zip(result.gammas, result.thetas, result.risks, result.winners)
    ]
    return _row_csv(header, rows)


def reference_synthetic_panel(cfg: SyntheticPanelConfig, seed=0) -> Panel:
    """``generate_synthetic_panel`` by strings: one label per unit, coded with ``np.unique``."""
    rng = np.random.default_rng(seed)

    def deal(n_groups: int, prefix: str) -> tuple[np.ndarray, tuple[str, ...]]:
        order = rng.permutation(cfg.n_units)
        assign = np.empty(cfg.n_units, dtype=np.int64)
        assign[order] = np.arange(cfg.n_units) % n_groups
        labels = [f"{prefix}{g:03d}" for g in assign]
        names, inverse = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
        return inverse.reshape(-1).astype(np.int64), tuple(str(x) for x in names)

    cluster = deal(cfg.n_clusters, "c")
    budget = deal(cfg.n_budget_groups, "b")
    region = deal(cfg.n_regions, "r")
    baseline = rng.normal(cfg.baseline_mean, cfg.baseline_sd, size=(cfg.n_units, cfg.n_periods))
    return Panel(
        unit_ids=tuple(f"u{i:05d}" for i in range(cfg.n_units)),
        groups={"cluster": cluster, "budget": budget, "region": region},
        n_periods=cfg.n_periods,
        baseline=baseline,
    )


def reference_ingest_log_csv(text: str, schema: CsvSchema | None = None) -> Panel:
    """``ingest_log_csv`` one row at a time: each row's checks run before the next row's.

    The period checks (no NaN; one spelling per number) run last in a row.
    The checks across rows then run in row order, and completeness last.
    """
    schema = schema or CsvSchema()
    reader = csv.reader(io.StringIO(text))
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
    groupings = {"cluster": schema.cluster_id, "budget": schema.budget_id, "region": schema.region_id}

    rows = []
    spellings: dict[float, str] = {}
    for lineno, raw in enumerate(reader, start=2):
        if not raw or all(not c.strip() for c in raw):
            continue
        if len(raw) != len(header):
            raise IngestionError(f"row {lineno}: expected {len(header)} fields, got {len(raw)}")
        unit, period = raw[col[schema.unit_id]].strip(), raw[col[schema.period]].strip()
        if not unit or not period:
            raise IngestionError(f"row {lineno}: empty unit_id or period")
        outcome_text = raw[col[schema.outcome]]
        try:
            outcome = float(outcome_text)
        except ValueError:
            raise IngestionError(f"row {lineno}: non-numeric outcome {outcome_text!r}") from None
        if not math.isfinite(outcome):
            raise IngestionError(f"row {lineno}: non-finite outcome {outcome_text!r}")
        prop = None
        if schema.propensity in col:
            prop_text = raw[col[schema.propensity]]
            try:
                prop = float(prop_text)
            except ValueError:
                raise IngestionError(f"row {lineno}: non-numeric propensity {prop_text!r}") from None
            if not 0.0 < prop <= 1.0:
                raise IngestionError(f"row {lineno}: propensity {prop} outside (0, 1]")
        try:
            value = float(period)
        except ValueError:
            value = None
        if value is not None and math.isnan(value):
            raise IngestionError(f"row {lineno}: period {period!r} is NaN")
        if value is not None and spellings.setdefault(value, period) != period:
            raise IngestionError(f"row {lineno}: period {period!r} is period {spellings[value]!r} written differently")
        labels = {g: raw[col[name]].strip() if name in col else "all" for g, name in groupings.items()}
        rows.append((unit, period, outcome, labels, prop))
    if not rows:
        raise IngestionError("no data rows")

    def period_key(value: str):
        try:
            return (0, float(value), "")
        except ValueError:
            return (1, 0.0, value)

    period_values = sorted({r[1] for r in rows}, key=period_key)
    period_index = {v: i for i, v in enumerate(period_values)}
    unit_order = list(dict.fromkeys(r[0] for r in rows))
    unit_index = {u: i for i, u in enumerate(unit_order)}
    baseline = np.full((len(unit_order), len(period_values)), np.nan)
    props = np.full(baseline.shape, np.nan) if schema.propensity in col else None
    unit_labels: list[dict | None] = [None] * len(unit_order)
    for unit, period, outcome, labels, prop in rows:
        i, t = unit_index[unit], period_index[period]
        if not np.isnan(baseline[i, t]):
            raise IngestionError(f"duplicate observation for unit {unit!r}, period {period!r}")
        baseline[i, t] = outcome
        if props is not None:
            props[i, t] = prop
        if unit_labels[i] is None:
            unit_labels[i] = labels
        for g in groupings:
            if unit_labels[i][g] != labels[g]:
                raise IngestionError(f"unit {unit!r} has conflicting {g} labels")
    missing = np.argwhere(np.isnan(baseline))
    if missing.size:
        i, t = missing[0]
        raise IngestionError(
            f"incomplete panel: unit {unit_order[i]!r} has no row for period {period_values[t]!r}"
        )
    return labelled_panel(
        unit_order, *([labels[g] for labels in unit_labels] for g in groupings),
        n_periods=len(period_values), baseline=baseline, propensities=props,
    )


@dataclass(frozen=True)
class AssignmentTable:
    """A replayed assignment: per-cell treatment and assignment-unit labels.

    ``z[i, t]`` is 0/1 treatment, ``labels[i, t]`` an integer code identifying
    the cell's assignment unit, the unit whose cells are averaged together for
    the variance. For most designs the cells of one label share one draw, but
    not for ``two_stage``: its labels are clusters, and each unit draws its own
    treatment at its cluster's saturation level.
    """

    z: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=np.int8)
        labels = np.asarray(self.labels, dtype=np.int64)
        if z.shape != labels.shape or z.ndim != 2:
            raise ConfigurationError("z and labels must share one (n_units, n_periods) shape")
        if not np.all((z == 0) | (z == 1)):
            raise ConfigurationError("z must be 0/1")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "labels", labels)


def replay(
    design: DesignSpec, panel: Panel, seed: int | np.random.SeedSequence | np.random.Generator = 0
) -> AssignmentTable:
    """The cell view of one replay: every cell of an atom gets the atom's treatment and label.

    ``seed`` goes through ``np.random.default_rng``, so a ``Generator`` is
    used as is and draws from its current state, which it advances. The
    atoms come from ``allocating_draw_atoms``, not from the kernel's draws.
    """
    z, labels = allocating_draw_atoms(design, panel, np.random.default_rng(seed))
    if labels is None:
        labels = _AtomRule.build(design, panel).labels
    atoms = atom_of_cell(design, panel)
    return AssignmentTable(z[atoms], labels[atoms])


def allocating_draw_atoms(design: DesignSpec, panel, rng: np.random.Generator):
    """Each rule written with fresh arrays per replay, returning int8 treatment per atom and ``mixed``'s labels.

    The kernel makes the generator calls of a run of replays from one stream
    with ``_draw_uniforms`` into buffers sized for each design and batch of
    draw groups, then maps a chunk of replays at once with ``_assign_atoms``;
    together they must draw these bits, in this order. Group and block
    counts come from the panel.
    """
    n, p = panel.n_units, design.treat_prob
    labels = None
    if design.kind == "user":
        z = rng.random(n) < p
    elif design.kind in ("cluster", "budget_split"):
        codes = panel.group_codes("cluster" if design.kind == "cluster" else "budget")
        z = (rng.random(codes.max() + 1) < p)[codes]
    elif design.kind == "switchback":
        n_blocks = (panel.n_periods + design.block_length - 1) // design.block_length
        draws = rng.random((panel.n_regions, n_blocks)) < p
        z = draws[:, np.arange(panel.n_periods) // design.block_length].ravel()
    elif design.kind == "two_stage":
        codes = panel.group_codes("cluster")
        levels = np.asarray(design.saturation_levels, dtype=float)
        level_idx = rng.integers(0, len(levels), size=codes.max() + 1)
        z = rng.random(n) < levels[level_idx][codes]
    else:
        codes = panel.group_codes("cluster")
        n_clusters = codes.max() + 1
        whole_cluster = (rng.random(n_clusters) < design.mixture_prob)[codes]
        cluster_draws = rng.random(n_clusters) < p
        unit_draws = rng.random(n) < p
        z = np.where(whole_cluster, cluster_draws[codes], unit_draws)
        labels = np.where(whole_cluster, codes, n_clusters + np.arange(n, dtype=np.int64))
    return z.astype(np.int8), labels


@dataclass(frozen=True)
class ExposurePanel:
    """Per-cell exposure coordinates derived from one assignment table.

    Under full launch every coordinate equals one. Shares include the unit
    itself, so a unit alone in its group sees exactly its own treatment.
    ``lag`` at the first period equals the first-period treatment (no
    pre-experiment history is assumed).
    """

    direct: np.ndarray
    budget_share: np.ndarray
    graph_share: np.ndarray
    lag: np.ndarray

    def __post_init__(self) -> None:
        for name in ("direct", "budget_share", "graph_share", "lag"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        shape = self.direct.shape
        for name in ("budget_share", "graph_share", "lag"):
            if getattr(self, name).shape != shape:
                raise ConfigurationError("exposure coordinate shapes must match")
        for name in ("budget_share", "graph_share"):
            arr = getattr(self, name)
            if arr.size and (arr.min() < -1e-12 or arr.max() > 1.0 + 1e-12):
                raise ConfigurationError(f"{name} must lie in [0, 1]")


def _group_share(z: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-cell treated share of the unit's group in the same period (self included)."""
    n_groups = int(codes.max()) + 1
    n_periods = z.shape[1]
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    # One bincount over the (group, period) key. It adds each bin's weights in
    # unit order, as one bincount per period would, so the sums are the same.
    key = codes[:, None] * n_periods + np.arange(n_periods)
    sums = np.bincount(key.ravel(), weights=z.ravel(), minlength=n_groups * n_periods)
    return (sums.reshape(n_groups, n_periods) / counts[:, None])[codes]


def exposure_features(assignment: AssignmentTable, panel: Panel, theta: MechanismPoint) -> ExposurePanel:
    """Compute the four exposure coordinates for every (unit, period) cell.

    The graph-share neighborhood is the grouping named by ``theta.locality``;
    the budget share always uses the shared-budget grouping.
    """
    z = assignment.z
    if z.shape != (panel.n_units, panel.n_periods):
        raise ConfigurationError("assignment table does not cover the panel")
    budget_share = _group_share(z, panel.group_codes("budget"))
    graph_share = _group_share(z, panel.group_codes(theta.locality))
    lag = np.empty_like(z)
    lag[:, 0] = z[:, 0]
    lag[:, 1:] = z[:, :-1]
    return ExposurePanel(direct=z, budget_share=budget_share, graph_share=graph_share, lag=lag)


def geometry_score(exposure: ExposurePanel, theta: MechanismPoint) -> float:
    """Intensity-weighted mean L1 gap between the exposure profile and full launch.

    Zero exactly when every cell is treated (and, for each active spillover
    channel, fully exposed); the 1/(1 + sum of intensities) factor puts grid
    points with different channel weights on one scale.
    """
    g, b, lam = theta.graph_spill, theta.budget_spill, theta.carryover
    gap = (
        np.abs(1.0 - exposure.direct)
        + b * np.abs(1.0 - exposure.budget_share)
        + g * np.abs(1.0 - exposure.graph_share)
        + lam * np.abs(1.0 - exposure.lag)
    )
    return float(gap.mean() / (1.0 + g + b + lam))


@dataclass(frozen=True)
class Strengths:
    """Outcome-scale interference strengths of one mechanism point."""

    graph: float
    budget: float
    carry: float


def outcome_strengths(theta: MechanismPoint, calib: CalibrationScales) -> Strengths:
    """Each channel's strength: its share of the calibrated scale times its intensity over the grid's top.

    The audit grid tops out at graph 0.3, budget 0.5 and carryover 0.2.
    ``graph_frac`` of the spillover scale goes to the graph channel, the rest
    to the budget channel.
    """
    return Strengths(
        graph=calib.spill_scale * calib.graph_frac * theta.graph_spill / 0.3,
        budget=calib.spill_scale * (1.0 - calib.graph_frac) * theta.budget_spill / 0.5,
        carry=calib.carry_scale * theta.carryover / 0.2,
    )


def launch_effect(theta: MechanismPoint, calib: CalibrationScales) -> float:
    """The effect of treating every cell: the direct effect plus every channel at full exposure."""
    s = outcome_strengths(theta, calib)
    return calib.direct_effect + s.graph + s.budget + s.carry


def simulate_outcomes(
    panel: Panel,
    exposure: ExposurePanel,
    theta: MechanismPoint,
    calib: CalibrationScales,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Simulate outcomes: baseline plus direct, spillover, and carryover terms plus noise.

    Linear in the calibrated strengths; deterministic in ``seed``. Returns an
    (n_units, n_periods) array.
    """
    s = outcome_strengths(theta, calib)
    y = (
        panel.baseline
        + calib.direct_effect * exposure.direct
        + s.graph * exposure.graph_share
        + s.budget * exposure.budget_share
        + s.carry * exposure.lag
    )
    if calib.noise_sd > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, calib.noise_sd, size=y.shape)
    else:
        y = y.astype(float, copy=True)
    return y


def variance_component(outcomes: np.ndarray, assignment: AssignmentTable) -> float:
    """Sample variance of mean outcomes across assignment units."""
    labels = assignment.labels.ravel()
    values = np.asarray(outcomes, dtype=float).ravel()
    # Replay label codes are dense, so bincount beats a sort-based unique; fall
    # back for hand-built tables with sparse label values.
    if labels.min() < 0 or labels.max() >= 4 * labels.size:
        _, labels = np.unique(labels, return_inverse=True)
    counts = np.bincount(labels)
    occupied = counts > 0
    if int(occupied.sum()) < 2:
        raise PlanningError("variance needs at least 2 assignment units")
    sums = np.bincount(labels, weights=values)
    means = sums[occupied] / counts[occupied]
    return float(np.var(means, ddof=1))


def _switch_rate(z: np.ndarray) -> float:
    if z.shape[1] < 2:
        return 0.0
    return float((z[:, 1:] != z[:, :-1]).mean())


def contamination(
    exposure: ExposurePanel,
    assignment: AssignmentTable,
    theta: MechanismPoint,
    ess: float | None = None,
) -> float:
    """Control-arm spillover exposure plus switching, normalized by total intensity.

    Averages the treated shares seen by control cells, weighted per channel,
    plus the carryover-weighted treatment switch rate; a (1 - ess) support
    stress is added when an effective-sample share is supplied. Falls back to
    the stress alone when intensities are all zero or no control cells exist.
    """
    stress = (1.0 - ess) if ess is not None else 0.0
    total = theta.graph_spill + theta.budget_spill + theta.carryover
    control = assignment.z == 0
    if total == 0.0 or not control.any():
        return stress
    num = (
        theta.graph_spill * float(exposure.graph_share[control].mean())
        + theta.budget_spill * float(exposure.budget_share[control].mean())
        + theta.carryover * _switch_rate(assignment.z)
    )
    return num / total + stress


def estimand_mismatch(exposure: ExposurePanel, ess: float | None = None) -> float:
    """Unweighted mean L1 gap per coordinate between exposure and the launch profile.

    Unlike the geometry score this treats all four coordinates equally, so it
    captures how far the design's estimand sits from the launch estimand even
    for channels the current mechanism happens to switch off, and it does not
    depend on the mechanism at all. Support stress is added as in
    :func:`contamination`.
    """
    stress = (1.0 - ess) if ess is not None else 0.0
    gap = (
        np.abs(1.0 - exposure.direct)
        + np.abs(1.0 - exposure.budget_share)
        + np.abs(1.0 - exposure.graph_share)
        + np.abs(1.0 - exposure.lag)
    )
    return float(gap.mean()) / 4.0 + stress


def group_stream(master_seed: int, design_index: int, seed_index: int) -> np.random.Generator:
    """The generator whose draws design ``design_index`` takes, rep after rep, over draw group ``seed_index``."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, design_index, seed_index)))


def atom_of_cell(design, panel: Panel) -> np.ndarray:
    """The (n_units, n_periods) atom index of each cell.

    An atom is a unit over all its periods, or a (region, period) pair in
    region-major order for switchbacks.
    """
    if design.kind == "switchback":
        return panel.group_codes("region")[:, None] * panel.n_periods + np.arange(panel.n_periods)
    return np.broadcast_to(np.arange(panel.n_units)[:, None], (panel.n_units, panel.n_periods))


def launch_share(design: DesignSpec) -> float:
    """π, the probability that a replay treats any one cell, which is every feature's expected mean.

    Each design treats a cell with probability ``treat_prob``, or, for
    ``two_stage``, with its cluster's saturation level, drawn uniformly from
    ``saturation_levels``.
    """
    if design.kind == "two_stage":
        return sum(design.saturation_levels) / len(design.saturation_levels)
    return design.treat_prob


def noise_variance(table: AssignmentTable, calib: CalibrationScales) -> float:
    """The outcome noise's expected share of the variance of the label means.

    Each cell's noise is independent with sd ``noise_sd``, so label ``l`` of
    ``m_l`` cells has a mean whose noise has variance ``noise_sd**2 / m_l``,
    and the ddof=1 variance of independent label means averages those.
    """
    _, counts = np.unique(table.labels, return_counts=True)
    return calib.noise_sd**2 * float(np.mean(1.0 / counts))


def hand_row(design, theta, panel, calib, weights, rng) -> np.ndarray:
    """One replication run step by step through the per-point pipeline.

    The slow reference for the closed-form scoring kernel: it draws the
    replay from ``rng``, builds the exposure panel and the noise-free
    outcomes for this one mechanism point, and adds the noise's expected
    share to the variance. Geometry and mismatch take their expectation
    ``1 - π``.
    """
    table = replay(design, panel, seed=rng)
    expo = exposure_features(table, panel, theta)
    y = simulate_outcomes(panel, expo, theta, dataclasses.replace(calib, noise_sd=0.0))
    v = variance_component(y, table) + noise_variance(table, calib)
    n_eff = effective_units(design, panel, weights.t_weeks, weights.periods_per_week)
    z = NormalDist().inv_cdf
    mde = (z(1.0 - weights.alpha / 2.0) + z(1.0 - weights.beta)) * math.sqrt(2.0 * v / n_eff)
    ess = ess_share(panel.propensities) if panel.propensities is not None else None
    stress = 1.0 - ess if ess is not None else 0.0
    treated = table.z == 1
    if treated.all() or not treated.any():
        estimate = float((y - panel.baseline).mean())
    else:
        estimate = float(y[treated].mean() - y[~treated].mean())
    gap = 1.0 - launch_share(design)
    return np.array([
        gap,
        v,
        mde,
        contamination(expo, table, theta, ess),
        design.op_cost_level,
        gap + stress,
        estimate - launch_effect(theta, calib),
    ])


def hand_rows(design, points, panel, calib, weights, rng, reps: int) -> np.ndarray:
    """A (points, reps, 7) array: ``reps`` replications of one draw group, each drawn once from ``rng``.

    Every point of the group is scored on the same draws of each replication.
    """
    rows = np.empty((len(points), reps, 7))
    for r in range(reps):
        start = rng.bit_generator.state
        for k, theta in enumerate(points):
            rng.bit_generator.state = start
            rows[k, r] = hand_row(design, theta, panel, calib, weights, rng)
    return rows

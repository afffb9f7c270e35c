"""Outcome simulation and the six raw planning-risk components.

For one (design, mechanism) pair the pipeline replays the assignment rule,
derives exposure features, simulates outcomes under the calibrated
interference model, and scores geometry, assignment-unit variance, planning
MDE, contamination, operational cost, and estimand mismatch for each seeded
replication. Scores stay per replication in one float array whose last axis
holds the six components in ``COMPONENT_NAMES`` order followed by the
difference-in-means bias; the selector reduces it over replications.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtri

from .designs import AssignmentTable, DesignSpec, OpCostInputs, effective_units, replay
from .errors import ConfigurationError, PlanningError
from .exposure import ExposurePanel, exposure_features, geometry_score
from .mechanisms import AmbiguityGrid, MechanismPoint, launch_effect, outcome_strengths
from .panel import CalibrationScales, Panel, ess_share

__all__ = [
    "PlanningWeights",
    "simulate_outcomes",
    "variance_component",
    "mde",
    "contamination",
    "operational_cost",
    "estimand_mismatch",
    "replication_seed",
    "component_scores",
    "score_grid",
]

COMPONENT_NAMES = ("geometry", "variance", "mde", "contamination", "op_cost", "mismatch")
# Channels of a per-replication score row: the components, then the bias.
N_CHANNELS = len(COMPONENT_NAMES) + 1
OP_COST = COMPONENT_NAMES.index("op_cost")


@dataclass(frozen=True)
class PlanningWeights:
    """Risk-component weights plus the power-analysis horizon parameters."""

    geometry: float = 1.00
    variance: float = 0.80
    mde: float = 0.75
    contamination: float = 0.45
    op_cost: float = 0.45
    mismatch: float = 0.65
    alpha: float = 0.05
    beta: float = 0.20
    t_weeks: int = 4
    periods_per_week: int = 7

    def __post_init__(self) -> None:
        vec = self.as_vector()
        if np.any(vec < 0):
            raise ConfigurationError("component weights must be >= 0")
        if vec.sum() <= 0:
            raise ConfigurationError("at least one component weight must be > 0")
        for name in ("alpha", "beta"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1)")
        if self.t_weeks < 1 or self.periods_per_week < 1:
            raise ConfigurationError("t_weeks and periods_per_week must be >= 1")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.geometry, self.variance, self.mde, self.contamination, self.op_cost, self.mismatch]
        )


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


@lru_cache(maxsize=64)
def _quantile_sum(alpha: float, beta: float) -> float:
    return float(ndtri(1.0 - alpha / 2.0) + ndtri(1.0 - beta))


def mde(v: float, n_units: int, weights: PlanningWeights) -> float:
    """Planning minimum detectable effect for a two-arm comparison.

    (z_{1-alpha/2} + z_{1-beta}) * sqrt(2 v / N) with standard-normal quantiles.
    """
    if v < 0:
        raise ConfigurationError("variance must be >= 0")
    if n_units < 2:
        raise PlanningError("mde needs at least 2 assignment units")
    return _quantile_sum(weights.alpha, weights.beta) * float(np.sqrt(2.0 * v / n_units))


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
    total = theta.intensity_sum
    control = assignment.z == 0
    if total == 0.0 or not control.any():
        return stress
    num = (
        theta.graph_spill * float(exposure.graph_share[control].mean())
        + theta.budget_spill * float(exposure.budget_share[control].mean())
        + theta.carryover * _switch_rate(assignment.z)
    )
    return num / total + stress


def operational_cost(inputs: OpCostInputs) -> float:
    """Weighted mean of the four pre-registered operational subscores."""
    weights = np.array([inputs.w_effort, inputs.w_orchestration, inputs.w_rollback, inputs.w_platform])
    scores = np.array([inputs.effort, inputs.orchestration, inputs.rollback, inputs.platform])
    return float(weights @ scores / weights.sum())


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


def replication_seed(
    master_seed: int, design_index: int, theta_index: int, rep: int
) -> np.random.SeedSequence:
    """Deterministic per-replication seed; independent of evaluation order."""
    return np.random.SeedSequence(entropy=(master_seed, design_index, theta_index, rep))


def _diff_in_means(y: np.ndarray, baseline: np.ndarray, z: np.ndarray) -> float:
    treated = z == 1
    if treated.all() or not treated.any():
        # Single-arm replay: estimate the realized launch effect against baseline.
        return float((y - baseline).mean())
    return float(y[treated].mean() - y[~treated].mean())


def component_scores(
    design: DesignSpec,
    theta: MechanismPoint,
    panel: Panel,
    calib: CalibrationScales,
    weights: PlanningWeights,
    reps: int = 1,
    master_seed: int = 0,
    design_index: int = 0,
    theta_index: int = 0,
) -> np.ndarray:
    """Replicated replay -> exposure -> outcome pipeline for one (design, mechanism) pair.

    Returns a (reps, N_CHANNELS) array: one row of component scores plus the
    difference-in-means bias per replication. The pre-registered op cost is
    the same in every row. Replication ``r`` uses a seed derived from
    (master_seed, design_index, theta_index, r), so grid evaluations are
    reproducible regardless of scheduling order.
    """
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    n_eff = effective_units(design, panel, weights.t_weeks, weights.periods_per_week)
    ess = ess_share(panel.propensities) if panel.propensities is not None else None
    target = launch_effect(theta, calib)
    op_cost = operational_cost(design.op_cost_inputs)

    rows = np.empty((reps, N_CHANNELS))
    for r in range(reps):
        replay_seed, noise_seed = replication_seed(master_seed, design_index, theta_index, r).spawn(2)
        table = replay(design, panel, seed=replay_seed)
        expo = exposure_features(table, panel, theta)
        y = simulate_outcomes(panel, expo, theta, calib, seed=noise_seed)
        v = variance_component(y, table)
        rows[r] = (
            geometry_score(expo, theta),
            v,
            mde(v, n_eff, weights),
            contamination(expo, table, theta, ess),
            op_cost,
            estimand_mismatch(expo, ess),
            _diff_in_means(y, panel.baseline, table.z) - target,
        )
    return rows


def resolve_workers() -> int:
    """Worker count for grid evaluation: ``XDESIGN_THREADS`` when set, else 1.

    Defaults to serial: per-pair tasks are dominated by small-array numpy ops
    that hold the GIL, so extra threads only pay off on large panels. Results
    are identical for any worker count.
    """
    env = os.environ.get("XDESIGN_THREADS", "")
    if not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigurationError(f"XDESIGN_THREADS must be an integer, got {env!r}") from None


def score_grid(
    panel: Panel,
    catalog: list[DesignSpec],
    grid: AmbiguityGrid,
    calib: CalibrationScales,
    weights: PlanningWeights,
    reps: int = 1,
    master_seed: int = 0,
) -> np.ndarray:
    """Score every (design, mechanism) pair; returns a (designs, grid, reps, N_CHANNELS) array.

    Pairs are independent, so they run in a thread pool when
    ``XDESIGN_THREADS`` asks for more than one worker. The per-pair seed
    schedule makes the result identical for any worker count, and the first
    ``k`` replications identical for any ``reps >= k``.
    """
    if not catalog:
        raise ConfigurationError("catalog must be non-empty")
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    out = np.empty((len(catalog), len(grid), reps, N_CHANNELS))

    def run(pair: tuple[int, int]) -> None:
        d_idx, t_idx = pair
        out[d_idx, t_idx] = component_scores(
            catalog[d_idx],
            grid[t_idx],
            panel,
            calib,
            weights,
            reps=reps,
            master_seed=master_seed,
            design_index=d_idx,
            theta_index=t_idx,
        )

    tasks = [(d_idx, t_idx) for d_idx in range(len(catalog)) for t_idx in range(len(grid))]
    workers = resolve_workers()
    if workers == 1:
        for pair in tasks:
            run(pair)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, tasks))
    return out

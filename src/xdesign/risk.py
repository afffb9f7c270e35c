"""The scoring kernel: the six raw planning-risk components of every design.

For each design and seeded replication the kernel replays the assignment rule
and draws the outcome noise, then scores geometry, assignment-unit variance,
planning MDE, contamination, operational cost and estimand mismatch in closed
form. Scores stay per replication in one float array whose last axis holds the
six components in ``COMPONENT_NAMES`` order followed by the difference-in-means
bias; the selector reduces it over replications.

Mechanism points are scored in draw groups: the points of one group share the
replay and the noise of each replication. Outcomes are linear in the channel
strengths and exposures depend on the mechanism only through its locality, so
one replication's per-feature means give every point of its group in closed
form. ``score_grid`` makes each audit-grid point a group of its own, so grid
points never share draws; ``score_groups`` takes any grouping, and the regime
sweep scores all its intensities as one group. ``score_groups`` is the one
scoring path, and it runs serially in one thread. The tests check it, point by
point, against a per-point reference pipeline to 1e-12.

Within one (design, group) only the random draws run one replication at a
time: each replication's seeds, replay and noise go into stacked buffers.
The exposure features, the label, arm and overall means, and every point's
channels are then computed once for a chunk of replications, whose feature
block stays within ``_CHUNK_CELLS`` cells. No replication's arithmetic depends
on the chunk it falls in, so the chunk size never changes a score.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .designs import DesignSpec, effective_units, replay
from .errors import ConfigurationError, PlanningError
from .exposure import _group_share
from .mechanisms import AmbiguityGrid, MechanismPoint, launch_effect, outcome_strengths
from .panel import CalibrationScales, Panel, ess_share

__all__ = [
    "PlanningWeights",
    "mde",
    "replication_seed",
    "score_groups",
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
        # z_{1-alpha/2} + z_{1-beta} > 0 exactly when 1 - alpha/2 > beta.
        if self.alpha / 2.0 + self.beta >= 1.0:
            raise ConfigurationError(
                f"alpha/2 + beta must be < 1 for a positive MDE (alpha={self.alpha}, beta={self.beta})"
            )
        if self.t_weeks < 1 or self.periods_per_week < 1:
            raise ConfigurationError("t_weeks and periods_per_week must be >= 1")

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.geometry, self.variance, self.mde, self.contamination, self.op_cost, self.mismatch]
        )


def _quantile_sum(alpha: float, beta: float) -> float:
    z = NormalDist().inv_cdf
    return z(1.0 - alpha / 2.0) + z(1.0 - beta)


def mde(v: float, n_units: int, weights: PlanningWeights) -> float:
    """Planning minimum detectable effect for a two-arm comparison.

    (z_{1-alpha/2} + z_{1-beta}) * sqrt(2 v / N) with standard-normal quantiles.
    """
    if v < 0:
        raise ConfigurationError("variance must be >= 0")
    if n_units < 2:
        raise PlanningError("mde needs at least 2 assignment units")
    return _quantile_sum(weights.alpha, weights.beta) * float(np.sqrt(2.0 * v / n_units))


def replication_seed(
    master_seed: int, design_index: int, theta_index: int, rep: int
) -> np.random.SeedSequence:
    """Deterministic per-replication seed; independent of evaluation order."""
    return np.random.SeedSequence(entropy=(master_seed, design_index, theta_index, rep))


def _child_seeds(
    master_seed: int, design_index: int, seed_index: int, rep: int
) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """The replay and noise seeds of one replication.

    Equal to ``replication_seed(...).spawn(2)``, built without mixing the
    parent's pool or keeping its spawn count.
    """
    entropy = (master_seed, design_index, seed_index, rep)
    return np.random.SeedSequence(entropy, spawn_key=(0,)), np.random.SeedSequence(entropy, spawn_key=(1,))


# Feature rows of one replication. The graph shares of the draw group's
# localities follow from _BUDGET on; the budget locality's graph share is the
# budget share itself, so it has no row of its own.
_BASE, _DIRECT, _LAG, _BUDGET = range(4)

# Float feature cells (4 MB) in one chunk of replications. Select's 200x8
# panel fits all its replications in one chunk; the sweep's 2000x40 panel
# takes one replication per chunk, so its working set does not grow.
_CHUNK_CELLS = 2**19


@dataclass(frozen=True)
class _DrawGroup:
    """Mechanism points scored with one replay and one noise draw per replication.

    Every channel of a point is linear in per-feature means of the replication:
    each matrix maps those means to one channel, with one column per point.
    """

    seed_index: int
    localities: tuple[str, ...]  # graph-share column of each, from _BUDGET on
    outcome: np.ndarray  # feature means -> mean outcome
    geometry: np.ndarray  # mean gaps to launch (1 - mean) -> geometry score
    mismatch: np.ndarray  # mean gaps to launch -> mismatch before stress
    contamination: np.ndarray  # control-arm means -> contamination before switching and stress
    switching: np.ndarray  # (points,) weight of the treatment switch rate in contamination
    target: np.ndarray  # (points,) launch effects


def _draw_group(seed_index: int, points: Sequence[MechanismPoint], calib: CalibrationScales) -> _DrawGroup:
    """The channel maps of ``points``, scored with seed index ``seed_index``."""
    points = tuple(points)
    if not points:
        raise ConfigurationError("draw groups must be non-empty")
    localities = ("budget",) + tuple(dict.fromkeys(p.locality for p in points if p.locality != "budget"))
    shape = (_BUDGET + len(localities), len(points))
    outcome, geometry, mismatch, contam = (np.zeros(shape) for _ in range(4))
    switching = np.zeros(len(points))
    for k, p in enumerate(points):
        s = outcome_strengths(p, calib)
        cols = [_BASE, _DIRECT, _LAG, _BUDGET, _BUDGET + localities.index(p.locality)]
        # add.at, because a budget-locality point has its graph share in the budget column.
        np.add.at(outcome[:, k], cols, (1.0, calib.direct_effect, s.carry, s.budget, s.graph))
        scale = 1.0 + p.intensity_sum
        np.add.at(geometry[:, k], cols, (0.0, 1.0 / scale, p.carryover / scale, p.budget_spill / scale,
                                         p.graph_spill / scale))
        np.add.at(mismatch[:, k], cols, (0.0, 0.25, 0.25, 0.25, 0.25))
        total = p.intensity_sum
        if total > 0:
            np.add.at(contam[:, k], cols, (0.0, 0.0, 0.0, p.budget_spill / total, p.graph_spill / total))
            switching[k] = p.carryover / total
    target = np.array([launch_effect(p, calib) for p in points])
    return _DrawGroup(seed_index, localities, outcome, geometry, mismatch, contam, switching, target)


def _support_stress(panel: Panel) -> float:
    return 1.0 - ess_share(panel.propensities) if panel.propensities is not None else 0.0


def _project(maps: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``maps.T @ values``: (features, points) maps applied to (features, ...) values.

    Sums in feature order with elementwise products rather than BLAS, so no
    result depends on how many others share the call, and a replication scores
    the same in any chunk.
    """
    total = maps[0][:, None] * values[0]
    for f in range(1, len(maps)):
        total += maps[f][:, None] * values[f]
    return total


def _score_group(
    design: DesignSpec,
    group: _DrawGroup,
    panel: Panel,
    calib: CalibrationScales,
    *,
    reps: int,
    master_seed: int,
    design_index: int,
    n_eff: int,
    stress: float,
    quantile_sum: float,
    features: np.ndarray,
    arms: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """(points, reps, N_CHANNELS) scores of one design over one draw group.

    Only the draws run one replication at a time: the replay and the noise of
    each replication are written into the stacked buffers ``features``
    (features, chunk, units, periods), ``arms`` (chunk, 2, cells) and
    ``labels`` (chunk, cells). Everything after them runs once per chunk of
    replications: the exposure features, then the per-label, per-arm and
    overall means, which give every point's channels in closed form. No
    replication's arithmetic depends on the chunk it falls in.
    """
    n_features = _BUDGET + len(group.localities)
    n_cells = panel.n_units * panel.n_periods
    chunk = len(labels)
    share_codes = [panel.group_codes(locality) for locality in group.localities]
    out = np.empty((group.target.size, reps, N_CHANNELS))
    for start in range(0, reps, chunk):
        n_reps = min(chunk, reps - start)
        block = features[:n_features, :n_reps]
        for i in range(n_reps):
            replay_seed, noise_seed = _child_seeds(master_seed, design_index, group.seed_index, start + i)
            table = replay(design, panel, seed=replay_seed)
            block[_DIRECT, i] = table.z
            labels[i] = table.labels.ravel()
            # Standard normals; scaled below, they are the draws of rng.normal(0, noise_sd).
            np.random.default_rng(noise_seed).standard_normal(out=block[_BASE, i])

        del table  # free the last replay before the chunk's temporaries
        z = block[_DIRECT]
        # A zero noise_sd scales every draw to +-0, which leaves the baseline exact.
        block[_BASE] *= calib.noise_sd
        noise_mean = block[_BASE].reshape(n_reps, n_cells).mean(axis=1)
        block[_BASE] += panel.baseline
        block[_LAG, :, :, 0] = z[:, :, 0]
        block[_LAG, :, :, 1:] = z[:, :, :-1]
        for row, codes in enumerate(share_codes, _BUDGET):
            _group_share(z, codes, out=block[row])
        flat = block.reshape(n_features, n_reps, n_cells)

        # Label means from one bincount per feature over rep-offset label
        # codes; each label adds its cells in cell order whatever its offset.
        key = labels[:n_reps]
        n_labels = int(key.max()) + 1
        key += (np.arange(n_reps) * n_labels)[:, None]
        key = key.ravel()
        counts = np.bincount(key, minlength=n_reps * n_labels)
        occupied = np.flatnonzero(counts)
        per_rep = np.bincount(occupied // n_labels, minlength=n_reps)
        if per_rep.min() < 2:
            raise PlanningError(f"design {design.name!r}: variance needs at least 2 assignment units")
        rows = flat.reshape(n_features, -1)
        label_sums = np.stack([np.bincount(key, weights=row)[occupied] for row in rows])
        label_y = _project(group.outcome, label_sums / counts[occupied])
        # ddof=1 variance of each replication's occupied-label means.
        first = np.cumsum(per_rep) - per_rep
        label_mean = np.add.reduceat(label_y, first, axis=1) / per_rep
        centered = label_y - np.repeat(label_mean, per_rep, axis=1)
        v = np.add.reduceat(centered * centered, first, axis=1) / (per_rep - 1)

        # Arm sums: one BLAS product (features, cells) @ (cells, 2) per replication.
        arm = arms[:n_reps]
        arm[:, 0] = flat[_DIRECT]
        np.subtract(1.0, flat[_DIRECT], out=arm[:, 1])
        arm_sums = np.matmul(flat.transpose(1, 0, 2), arm.transpose(0, 2, 1))
        treated_sums, control_sums = arm_sums.transpose(2, 1, 0)
        n_treated = treated_sums[_DIRECT]
        n_control = n_cells - n_treated
        # A switch is a treated cell whose lag is 0 or a control cell whose lag
        # is 1 (the first period's lag is the cell itself). Sums of 0/1 products
        # are exact integers, so the rate equals the per-cell count.
        n_switches = n_treated - treated_sums[_LAG] + control_sums[_LAG]
        switch_rate = n_switches / (panel.n_units * (panel.n_periods - 1)) if panel.n_periods > 1 else 0.0
        means = (treated_sums + control_sums) / n_cells
        launch_gap = 1.0 - means
        control = control_sums / np.maximum(n_control, 1.0)
        # A single-arm replay estimates the realized launch effect against baseline.
        means[_BASE] = noise_mean
        two_arm = (n_treated > 0) & (n_control > 0)
        contrast = np.where(two_arm, treated_sums / np.maximum(n_treated, 1.0) - control, means)
        estimate = _project(group.outcome, contrast)

        scores = out[:, start : start + n_reps]
        scores[..., 0] = _project(group.geometry, launch_gap)
        scores[..., 1] = v
        scores[..., 2] = quantile_sum * np.sqrt(2.0 * v / n_eff)
        scores[..., 3] = (
            _project(group.contamination, control) + group.switching[:, None] * switch_rate + stress
        )
        scores[..., 4] = design.op_cost_level
        scores[..., 5] = _project(group.mismatch, launch_gap) + stress
        scores[..., 6] = estimate - group.target[:, None]
    return out


def score_groups(
    panel: Panel,
    catalog: list[DesignSpec],
    groups: Sequence[Sequence[MechanismPoint]],
    calib: CalibrationScales,
    weights: PlanningWeights,
    reps: int = 1,
    master_seed: int = 0,
) -> np.ndarray:
    """Score every design over draw groups; returns a (designs, points, reps, N_CHANNELS) array.

    A draw group is a sequence of mechanism points (duplicates allowed) that
    share their draws: replication ``r`` of design ``d`` over group ``g``
    replays the assignment and draws the noise from
    ``replication_seed(master_seed, d, g, r)``, once for all the group's
    points. Points are numbered in group order, across groups. Scoring runs
    serially in one thread; the first ``k`` replications are identical for
    any ``reps >= k``.
    """
    if not catalog:
        raise ConfigurationError("catalog must be non-empty")
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    draw_groups = [_draw_group(g, points, calib) for g, points in enumerate(groups)]
    starts = np.cumsum([0] + [group.target.size for group in draw_groups])
    stress = _support_stress(panel)
    quantile_sum = _quantile_sum(weights.alpha, weights.beta)
    out = np.empty((len(catalog), starts[-1], reps, N_CHANNELS))
    # Buffers for one chunk of replications, reused by every design and group.
    # A chunk holds at most _CHUNK_CELLS feature cells.
    n_features = _BUDGET + max((len(group.localities) for group in draw_groups), default=1)
    n_cells = panel.n_units * panel.n_periods
    chunk = max(1, min(reps, _CHUNK_CELLS // (n_features * n_cells)))
    buffers = dict(
        features=np.empty((n_features, chunk, panel.n_units, panel.n_periods)),
        arms=np.empty((chunk, 2, n_cells)),  # treated and control indicators
        labels=np.empty((chunk, n_cells), dtype=np.int64),
    )
    for d, design in enumerate(catalog):
        n_eff = effective_units(design, panel, weights.t_weeks, weights.periods_per_week)
        for g, group in enumerate(draw_groups):
            out[d, starts[g] : starts[g + 1]] = _score_group(
                design,
                group,
                panel,
                calib,
                reps=reps,
                master_seed=master_seed,
                design_index=d,
                n_eff=n_eff,
                stress=stress,
                quantile_sum=quantile_sum,
                **buffers,
            )
    return out


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

    Grid point ``k`` is a draw group of its own with seed index ``k`` (see
    :func:`score_groups`), so no two grid points share draws: replication
    ``r`` of pair ``(d, k)`` uses ``replication_seed(master_seed, d, k, r)``.
    """
    return score_groups(panel, catalog, [(theta,) for theta in grid], calib, weights, reps, master_seed)

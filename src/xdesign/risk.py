"""The scoring kernel: the six raw planning-risk components of every design.

For each design and seeded replication the kernel replays the assignment rule,
then scores geometry, assignment-unit variance, planning MDE, contamination,
operational cost and estimand mismatch in closed form. Scores stay per
replication in one float array whose last axis holds the six components in
``COMPONENT_NAMES`` order followed by the difference-in-means bias; the
selector reduces it over replications.

The assignment is the only draw; the kernel scores the rest by its exact
expectation given the assignment. Cell noise of sd ``noise_sd`` adds
``noise_sd**2 / m_l`` to the variance of the mean of a label of ``m_l`` cells
and nothing to any mean, so the variance is the noise-free one plus
``noise_sd**2 * mean_l(1 / m_l)`` and the bias is the noise-free contrast.
Geometry and mismatch average the pooled gaps ``1 - mean`` of the direct,
lag and share features with weights summing to 1, and every feature mean is
π in expectation, where π is the probability that the design treats an atom
(``_AtomRule.marginal``). So geometry is ``1 - π`` and mismatch ``1 - π``
plus the support stress, constants of the design like its operational cost.

Mechanism points are scored in draw groups: the points of one group share the
replay of each replication. Outcomes are linear in the channel strengths and
exposures depend on the mechanism only through its locality, so a few
sufficient statistics of one replication give every point of its group in
closed form. ``score_grid`` makes each audit-grid point a group of its own, so
grid points never share draws; the regime sweep scores all its intensities as
one group. ``score_groups``, the one scoring path, runs serially in one
thread; the tests check it, point by point, against a per-point reference
pipeline to 1e-12.

``_batch`` alone holds the interference model: from the points' intensities
it builds their outcome strengths, each linear from 0 to its calibrated scale
at the audit grid's top (``mechanisms.GRAPH_TOP``, ``BUDGET_TOP`` and
``CARRY_TOP``), with ``graph_frac`` of the spillover scale on the graph
channel; their launch effects, the direct effect plus the three strengths; and
their contamination and switching weights.

Every assignment treats the cells of an atom alike: a unit over all its
periods, or a (region, period) pair for switchbacks. So the kernel works on
per-atom sums over the atom's ``m`` cells: the baseline, ``m * z`` for direct
treatment, ``m * z[prev]`` for the lag, and the group shares.

Each (design, draw group) has one generator, seeded from ``(master_seed,
design index, group index)``, and its replications take their replays from it
in order. Draw groups with the same localities form one batch, and a design's
replications over a batch are slots (group, rep). A chunk of slots, which may
span groups and whose arrays stay within ``_CHUNK_BYTES``, has all its
draws mapped to per-atom treatment at once and is reduced to each slot's
sufficient statistics: the treated and overall sums of its features; the
(features, features) ddof=1 covariance ``C`` of its occupied labels' feature
means, so that a point whose outcome map is ``o`` has the label-mean
variance ``o' C o``; and the mean of ``1 / m_l`` over those labels. Every
point's channels follow once per batch from the statistics of its group's
slots. No (points, labels) array is built, and no slot's arithmetic depends
on the chunk it falls in, so the chunk size never changes a score.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .designs import DesignSpec, _AtomRule, _assign_atoms, _draw_uniforms, effective_units
from .errors import ConfigurationError, PlanningError
from .mechanisms import BUDGET_TOP, CARRY_TOP, GRAPH_TOP, LOCALITIES, AmbiguityGrid, MechanismPoint
from .panel import CalibrationScales, Panel, ess_share

__all__ = [
    "PlanningWeights",
    "mde",
    "score_groups",
    "score_grid",
]

COMPONENT_NAMES = ("geometry", "variance", "mde", "contamination", "op_cost", "mismatch")
# Channels of a per-replication score row: the components, then the bias.
N_CHANNELS = len(COMPONENT_NAMES) + 1
# The components that are constants of the design, the same in every replication.
CONSTANT = tuple(COMPONENT_NAMES.index(name) for name in ("geometry", "op_cost", "mismatch"))


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
        # Every normalized component lies in [-1, 1], so a finite sum bounds every cell's risk.
        if not np.isfinite(vec.sum()):
            raise ConfigurationError("component weights must have a finite sum")
        for name, level in (("alpha", 1.0 - self.alpha / 2.0), ("beta", 1.0 - self.beta)):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1)")
            # A tiny alpha or beta rounds its level to 1, whose normal quantile is infinite.
            if level >= 1.0:
                raise ConfigurationError(f"{name} is too small for a finite normal quantile ({getattr(self, name)!r})")
        # z_{1-alpha/2} + z_{1-beta} > 0 exactly when 1 - alpha/2 > beta.
        if self.alpha / 2.0 + self.beta >= 1.0:
            raise ConfigurationError(
                f"alpha/2 + beta must be < 1 for a positive MDE (alpha={self.alpha}, beta={self.beta})"
            )
        if self.t_weeks < 1 or self.periods_per_week < 1:
            raise ConfigurationError("t_weeks and periods_per_week must be >= 1")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COMPONENT_NAMES])


def mde(v: float | np.ndarray, n_units: int, weights: PlanningWeights) -> float | np.ndarray:
    """Planning minimum detectable effect for a two-arm comparison, elementwise in ``v``.

    (z_{1-alpha/2} + z_{1-beta}) * sqrt(2 v / N) with standard-normal quantiles.
    """
    if np.any(v < 0):
        raise ConfigurationError("variance must be >= 0")
    if n_units < 2:
        raise PlanningError("mde needs at least 2 assignment units")
    z = NormalDist().inv_cdf
    return (z(1.0 - weights.alpha / 2.0) + z(1.0 - weights.beta)) * np.sqrt(2.0 * v / n_units)


# Feature rows of one replication, each a per-atom sum over the atom's cells.
# The graph shares of the draw group's localities follow from _BUDGET on; the
# budget locality's graph share is the budget share itself, so it has no row
# of its own. The lag row comes first, so that a layout whose lag sums equal
# its direct ones reduces the contiguous rest.
_LAG, _BASE, _DIRECT, _BUDGET = range(4)

# Bytes of one chunk's per-slot arrays, sized for each (design, batch): the
# atoms-sized features, treatment, drawn labels and label keys; the per-feature
# label sums, label sizes and occupancy mask, over the label axis but at least
# atoms-wide as the label keys and gathers are; one replay's row of draws. A
# slot of select's 200x8 panel takes 25.4 KB over unit atoms (20 per chunk)
# and 3 KB over its 24 switchback atoms (170 per chunk); one of the sweep's
# 2000x40 panel takes 254 KB (two per chunk).
_CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class _Atoms:
    """The atoms of one layout and the fixed maps from per-atom draws to features.

    Atoms are units, or (region, period) pairs in region-major order when
    ``regions`` is set (see :func:`xdesign.designs._assign_atoms`). ``cells`` is each
    atom's cell count ``m`` and ``baseline`` its baseline sum; ``prev`` is
    the atom of the period before (itself in the first period), so the lag
    sum is ``m * z[prev]``, or None when every atom is its own (units, or one
    period), whose lag sums are the direct ones. ``shares`` maps each
    grouping to what its per-atom share sums need: for units, the units in
    group order, each group's first position in it, ``n_periods`` over each
    group's size and the unit codes; for (region, period) atoms, the
    (regions, regions) matrix ``M[r, s]`` of the share sum that a treated
    region ``s`` adds to region ``r`` in one period.
    """

    regions: bool
    cells: np.ndarray
    baseline: np.ndarray
    prev: np.ndarray | None
    shares: dict

    @classmethod
    def build(cls, panel: Panel, regions: bool) -> "_Atoms":
        n_units, n_periods = panel.n_units, panel.n_periods
        shares = {}
        if regions:
            n_regions, region_codes = panel.n_regions, panel.group_codes("region")
            per_region = np.bincount(region_codes, minlength=n_regions)
            cells = np.repeat(per_region.astype(float), n_periods)
            atom = np.arange(cells.size)
            prev = atom - (atom % n_periods > 0) if n_periods > 1 else None
            cell_atom = (region_codes[:, None] * n_periods + np.arange(n_periods)).ravel()
            baseline = np.bincount(cell_atom, weights=panel.baseline.ravel(), minlength=cells.size)
            for grouping in LOCALITIES:
                codes = panel.group_codes(grouping)
                n_groups = int(codes.max()) + 1
                # Units per (group, region); a treated region s gives each
                # group the share overlap[g, s] / size[g], which each of
                # region r's overlap[g, r] units sees.
                overlap = np.bincount(codes * n_regions + region_codes, minlength=n_groups * n_regions)
                overlap = overlap.reshape(n_groups, n_regions).astype(float)
                seen = overlap / overlap.sum(axis=1, keepdims=True)
                shares[grouping] = (overlap[:, :, None] * seen[:, None, :]).sum(axis=0)
        else:
            cells = np.full(n_units, float(n_periods))
            prev = None
            baseline = panel.baseline.sum(axis=1)
            for grouping in LOCALITIES:
                codes = panel.group_codes(grouping)
                order = np.argsort(codes, kind="stable")
                sizes = np.bincount(codes)
                shares[grouping] = (order, np.cumsum(sizes) - sizes, n_periods / sizes, codes)
        return cls(regions, cells, baseline, prev, shares)

    def share_sums(self, grouping: str, z: np.ndarray, out: np.ndarray) -> None:
        """Per-atom sums of each cell's treated group share, for a (slots, atoms) stack of 0/1 ``z``.

        A cell's share is the treated fraction of its group in its period,
        itself included. Every sum is taken in a fixed order, so a slot's
        sums do not depend on the others in the stack.
        """
        if self.regions:
            matrix = self.shares[grouping]
            n_slots, n_regions = z.shape[0], matrix.shape[0]
            by_region = z.reshape(n_slots, n_regions, -1)
            total = out.reshape(by_region.shape)
            np.multiply(matrix[None, :, 0, None], by_region[:, None, 0], out=total)
            for source in range(1, n_regions):
                total += matrix[None, :, source, None] * by_region[:, None, source]
        else:
            order, starts, scale, codes = self.shares[grouping]
            # Sums of 0/1 values are exact integers in any order.
            treated = np.add.reduceat(np.take(z, order, axis=1), starts, axis=1)
            # Every code is a valid group; "clip" only spares take a buffered copy of out.
            np.take(treated * scale, codes, axis=1, out=out, mode="clip")


@dataclass(frozen=True)
class _Batch:
    """Draw groups of one layout: the same localities.

    Every channel of a point is linear in per-feature means of a replication:
    each map sends those means to one channel, with one column per point.
    The groups' replications share chunks.
    """

    seed_index: np.ndarray  # (groups,)
    group: np.ndarray  # (points,) position of each point's draw group in seed_index
    points: np.ndarray  # (points,) output index of each point
    localities: tuple[str, ...]  # graph-share column of each, from _BUDGET on
    outcome: np.ndarray  # feature means -> mean outcome
    contamination: np.ndarray  # control-arm means -> contamination before switching and stress
    switching: np.ndarray  # (points,) weight of the treatment switch rate in contamination
    target: np.ndarray  # (points,) launch effects


def _batches(groups: Sequence[Sequence[MechanismPoint]], calib: CalibrationScales) -> list[_Batch]:
    """The draw groups by localities, in first-seen order; group ``g`` has seed index ``g``."""
    groups = [tuple(points) for points in groups]
    if not all(groups):
        raise ConfigurationError("draw groups must be non-empty")
    starts = np.cumsum([0] + [len(points) for points in groups])
    layouts: dict[tuple[str, ...], list[int]] = {}
    for g, points in enumerate(groups):
        localities = ("budget",) + tuple(dict.fromkeys(p.locality for p in points if p.locality != "budget"))
        layouts.setdefault(localities, []).append(g)
    return [
        _batch(localities, np.array(members), [groups[g] for g in members], starts, calib)
        for localities, members in layouts.items()
    ]


def _batch(
    localities: tuple[str, ...],
    seed_index: np.ndarray,
    groups: list[tuple[MechanismPoint, ...]],
    starts: np.ndarray,
    calib: CalibrationScales,
) -> _Batch:
    """The channel maps of the points of ``groups``, whose first points have output index ``starts[seed_index]``."""
    points = [p for group in groups for p in group]
    graph, budget, carry = np.array([(p.graph_spill, p.budget_spill, p.carryover) for p in points]).T
    column = _BUDGET + np.array([localities.index(p.locality) for p in points])
    index = np.arange(len(points))
    total = graph + budget + carry

    def channel_map(lag, base, direct, budget_share, graph_share) -> np.ndarray:
        values = np.zeros((_BUDGET + len(localities), len(points)))
        for row, value in ((_LAG, lag), (_BASE, base), (_DIRECT, direct), (_BUDGET, budget_share)):
            values[row] += value
        # A budget-locality point's graph share is the budget share, so its column adds both.
        values[column, index] += graph_share
        return values

    s_graph = calib.spill_scale * calib.graph_frac * graph / GRAPH_TOP
    s_budget = calib.spill_scale * (1.0 - calib.graph_frac) * budget / BUDGET_TOP
    s_carry = calib.carry_scale * carry / CARRY_TOP
    # Zero intensity leaves contamination to the stress alone: every weight is 0 / inf.
    weight = np.where(total > 0, total, np.inf)
    return _Batch(
        seed_index=seed_index,
        group=np.repeat(np.arange(len(groups)), [len(group) for group in groups]),
        points=np.concatenate([np.arange(starts[g], starts[g + 1]) for g in seed_index.tolist()]),
        localities=localities,
        outcome=channel_map(s_carry, 1.0, calib.direct_effect, s_budget, s_graph),
        contamination=channel_map(0.0, 0.0, 0.0, budget / weight, graph / weight),
        switching=carry / weight,
        target=calib.direct_effect + ((s_graph + s_budget) + s_carry),
    )


def _support_stress(panel: Panel) -> float:
    return 1.0 - ess_share(panel.propensities) if panel.propensities is not None else 0.0


def _project(maps: Iterable[np.ndarray], values: np.ndarray) -> np.ndarray:
    """Per-feature (points, n) maps applied to (features, n) values: a (points, n) array.

    Sums in feature order with elementwise products rather than BLAS, so no
    result depends on how many others share the call, and a replication scores
    the same in any chunk.
    """
    products = (m * v for m, v in zip(maps, values))
    total = next(products)
    for product in products:
        total += product
    return total


def _label_index(labels: np.ndarray, cells: np.ndarray, n_labels: int) -> tuple[np.ndarray | None, ...]:
    """Keys and per-label statistics of a (slots, atoms) stack of labels below ``n_labels``.

    Returns (slots, ...) arrays: each atom's key, its label plus ``n_labels``
    times its slot; each label's cell count plus 1 if it holds none; a 0/1
    mask of the labels that hold cells, or None if all do; each slot's count
    of such labels; and each slot's mean over them of one over their cell
    counts. Atom ``a`` holds ``cells[a]`` cells.
    """
    n_slots = labels.shape[0]
    key = labels + (np.arange(n_slots) * n_labels)[:, None]
    sizes = np.bincount(key.ravel(), weights=np.tile(cells, n_slots), minlength=n_slots * n_labels)
    occupied = (sizes > 0).astype(float).reshape(n_slots, n_labels)
    divisor = sizes.reshape(n_slots, n_labels) + (1.0 - occupied)
    count = occupied.sum(axis=1)
    inverse_size = (occupied / divisor).sum(axis=1) / count
    return key, divisor, None if occupied.all() else occupied, count, inverse_size


def _score_batch(
    rule: _AtomRule,
    batch: _Batch,
    atoms: _Atoms,
    panel: Panel,
    calib: CalibrationScales,
    out: np.ndarray,
    *,
    reps: int,
    master_seed: int,
    design_index: int,
    stress: float,
) -> None:
    """Write the scores of one design over one batch, but the mde, into ``out`` (points, reps, N_CHANNELS).

    The batch's slots (group, rep) run in group-major order, each group's from
    its own generator. In each chunk, every run of one group's slots fills its
    rows of ``draws`` with one :func:`_draw_uniforms` call, and one call maps
    the chunk's draws to per-atom treatment and, for ``mixed``, labels. The
    buffers hold one chunk, sized for this design and batch; a short last
    chunk takes their first slots. The baseline row and labels that do not
    depend on the draws are set up once.
    """
    n_features = _BUDGET + len(batch.localities)
    # The rows that the chunk loop fills and reduces: all, or all but the lag.
    first = _BASE if atoms.prev is None else _LAG
    n_atoms, n_labels = atoms.cells.size, rule.n_labels
    n_cells = panel.n_units * panel.n_periods
    n_total = batch.seed_index.size * reps
    streams = [np.random.default_rng(np.random.SeedSequence((master_seed, design_index, g)))
               for g in batch.seed_index.tolist()]
    # Per-feature treated and overall sums of every slot's atoms.
    arm_sums = np.empty((2, n_features, n_total))
    # Each slot's covariance times its degrees of freedom.
    cov = np.empty((n_features, n_features, n_total))
    dof = np.empty(n_total)
    inverse_size = np.empty(n_total)

    # One chunk's buffers, for as many slots as _CHUNK_BYTES holds of this design and batch.
    slot_bytes = ((n_features + 3) * n_atoms + (n_features + 2) * max(n_labels, n_atoms) + rule.n_draws) * 8
    chunk = max(1, min(n_total, _CHUNK_BYTES // slot_bytes))
    features = np.empty((n_features, chunk, n_atoms))
    features[_BASE] = atoms.baseline
    treated = np.empty((chunk, n_atoms))
    labels = np.empty((chunk, n_atoms), dtype=np.int64)
    label_sums = np.empty((n_features, chunk, n_labels))
    draws = np.empty((chunk, rule.n_draws))
    fixed_labels = None
    if rule.labels is not None:
        fixed_labels = _label_index(np.broadcast_to(rule.labels, labels.shape), atoms.cells, n_labels)

    for start in range(0, n_total, chunk):
        stop = min(start + chunk, n_total)
        n_slots = stop - start
        block, z, sums = features[:, :n_slots], treated[:n_slots], label_sums[:, :n_slots]
        drawn_labels, drawn = labels[:n_slots], draws[:n_slots]
        for g in range(start // reps, (stop - 1) // reps + 1):
            lo, hi = max(start, g * reps) - start, min(stop, (g + 1) * reps) - start
            _draw_uniforms(rule, streams[g], drawn[lo:hi])
        _assign_atoms(rule, drawn, z, drawn_labels)

        np.multiply(z, atoms.cells, out=block[_DIRECT])
        if atoms.prev is not None:
            np.take(block[_DIRECT], atoms.prev, axis=1, out=block[_LAG], mode="clip")
        for row, grouping in enumerate(batch.localities, _BUDGET):
            atoms.share_sums(grouping, z, out=block[row])

        index = fixed_labels or _label_index(drawn_labels, atoms.cells, n_labels)
        key, divisor, occupied, count, inverse = (a if a is None else a[:n_slots] for a in index)
        inverse_size[start:stop] = inverse
        if count.min() < 2:
            raise PlanningError(f"design {rule.design.name!r}: variance needs at least 2 assignment units")
        # Per-(slot, label) sums from one bincount per feature; each label
        # adds its atoms in atom order whatever its slot.
        key = key.ravel()
        for f in range(first, n_features):
            sums[f] = np.bincount(key, weights=block[f].ravel(), minlength=sums[f].size).reshape(sums[f].shape)
        live = sums[first:]
        # Treated sums over each slot's atoms; einsum without optimize never
        # calls BLAS, so no thread count can reach a score. Overall sums add
        # each slot's labels.
        np.einsum("fsa,sa->fs", block[first:], z, out=arm_sums[0, first:, start:stop])
        live.sum(axis=-1, out=arm_sums[1, first:, start:stop])
        # Label means, centred per slot over its occupied labels; an
        # unoccupied label's zero sum stays out of every mean and product.
        live /= divisor
        live -= (live.sum(axis=-1) / count)[..., None]
        if occupied is not None:
            live *= occupied
        np.einsum("fsl,gsl->fgs", live, live, out=cov[first:, first:, start:stop])
        dof[start:stop] = count - 1

    # A skipped lag row takes the direct row's statistics.
    if first != _LAG:
        arm_sums[:, _LAG] = arm_sums[:, _DIRECT]
        cov[_LAG] = cov[_DIRECT]
        cov[:, _LAG] = cov[:, _DIRECT]
    cov /= dof

    # The statistics of each point's replications, (points, reps) per feature.
    slots = batch.group[:, None] * reps + np.arange(reps)
    arm_sums, cov, inverse_size = arm_sums[..., slots], cov[..., slots], inverse_size[slots]
    outcome = batch.outcome[..., None]

    # o' C o, summed in feature order. Rounding can take it just below the
    # zero that a constant outcome has, which the variance cannot be. The
    # noise adds noise_sd**2 / m_l to the variance of label l's mean.
    v = _project(outcome, [_project(outcome, row) for row in cov])
    np.maximum(v, 0.0, out=v)
    v += np.square(calib.noise_sd) * inverse_size

    treated_sums, totals = arm_sums
    n_treated = treated_sums[_DIRECT]
    n_control = n_cells - n_treated
    # Exact where the arm is empty, whatever the rounding of the two sums.
    control_sums = np.where(n_control > 0, totals - treated_sums, 0.0)
    # A switch is a treated cell whose lag is 0 or a control cell whose lag
    # is 1 (the first period's lag is the cell itself). Sums of 0/1 products
    # are exact integers, so the rate equals the per-cell count.
    n_switches = n_treated - treated_sums[_LAG] + control_sums[_LAG]
    switch_rate = n_switches / (panel.n_units * (panel.n_periods - 1)) if panel.n_periods > 1 else 0.0
    control = control_sums / np.maximum(n_control, 1.0)
    # A single-arm replay estimates the launch effect against baseline: the
    # mean shift of every feature but the baseline.
    shift = totals / n_cells
    shift[_BASE] = 0.0
    two_arm = (n_treated > 0) & (n_control > 0)
    contrast = np.where(two_arm, treated_sums / np.maximum(n_treated, 1.0) - control, shift)
    estimate = _project(outcome, contrast)

    scores = np.empty(estimate.shape + (N_CHANNELS,))
    scores[..., 0] = 1.0 - rule.marginal
    scores[..., 1] = v
    scores[..., 3] = _project(batch.contamination[..., None], control) + batch.switching[:, None] * switch_rate + stress
    scores[..., 4] = rule.design.op_cost_level
    scores[..., 5] = 1.0 - rule.marginal + stress
    scores[..., 6] = estimate - batch.target[:, None]
    out[batch.points] = scores


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
    share their draws. Design ``d`` over group ``g`` draws from one generator,
    ``default_rng(SeedSequence((master_seed, d, g)))``: replication ``r``
    takes the ``r``-th replay from it, once for all the group's points. Points
    are numbered in group order, across groups. Scoring runs serially in one
    thread; the first ``k`` replications are identical for any ``reps >= k``.
    """
    if not catalog:
        raise ConfigurationError("catalog must be non-empty")
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if master_seed < 0:
        raise ConfigurationError("master_seed must be >= 0")
    batches = _batches(groups, calib)
    stress = _support_stress(panel)
    out = np.empty((len(catalog), sum(batch.points.size for batch in batches), reps, N_CHANNELS))
    rules = [_AtomRule.build(design, panel) for design in catalog]
    layouts = {regions: _Atoms.build(panel, regions) for regions in {rule.regions for rule in rules}}
    for d, (design, rule) in enumerate(zip(catalog, rules)):
        n_eff = effective_units(design, panel, weights.t_weeks, weights.periods_per_week)
        for batch in batches:
            _score_batch(rule, batch, layouts[rule.regions], panel, calib, out[d], reps=reps,
                         master_seed=master_seed, design_index=d, stress=stress)
        out[d, ..., 2] = mde(out[d, ..., 1], n_eff, weights)
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
    :func:`score_groups`), so no two grid points share draws: the
    replications of pair ``(d, k)`` are consecutive draws of
    ``default_rng(SeedSequence((master_seed, d, k)))``.
    """
    return score_groups(panel, catalog, [(theta,) for theta in grid], calib, weights, reps, master_seed)

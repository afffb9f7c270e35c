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
periods, or a (region, period) pair for switchbacks. A replication's features
are, per cell, the baseline, direct treatment, the lag and the group shares;
the variance needs each label's feature means, and the bias each arm's
feature sums. On unit atoms, those of every kind but ``switchback``, they
follow from counts. The units that share their group in each grouping of a
batch's localities and a design's labels form a class, so a replay's treated
units per class give every group's treated share ``phi_k``. A label that is
a group (``cluster``'s, ``budget_split``'s and ``two_stage``'s, and
``mixed``'s whole clusters) has means ``N_l / n_l`` from its treated count,
and the mean of ``phi_k`` over its units; labels of one unit (``user``'s, and
``mixed``'s in split clusters) add up class by class. The baseline enters as
fixed per-unit sums, less the panel's cell nearest its mean, which one
centring per run shares with the switchback atoms. Switchback atoms keep
per-atom feature rows: the shipped panels have only 24 to 40 (region,
period) atoms, and their lags and region shares link atoms across periods
and regions, which no unit atom's do. The rows hold the baseline, ``m * z``
for direct treatment, ``m * z[prev]`` for the lag of an atom of ``m`` cells,
and share sums from fixed (regions, regions) matrices, and are summed over
each region-block label.

Each (design, draw group) has one generator, seeded from ``(master_seed,
design index, group index)``, and its replications take their replays from it
in order. Draw groups with the same localities form one batch, and a design's
replications over a batch are slots (group, rep). A chunk of slots, which may
span groups and whose arrays stay within ``_CHUNK_BYTES``, has all its
draws mapped to per-atom treatment at once and is reduced to each slot's
sufficient statistics: the treated and overall sums of its features; the
(features, features) ddof=1 covariance ``C`` of its occupied labels' feature
means, so that a point whose outcome map is ``o`` has the label-mean
variance ``o' C o``; and the mean of ``1 / m_l`` over those labels. Once
every design's slots of a batch are reduced, one pass scores the channels of
every (design, point) of the batch, from the designs' statistics stacked on
a leading axis. No (points, labels) array is built, and no slot's arithmetic
depends on the chunk it falls in, so the chunk size never changes a score.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
        # A switchback's units are its region-blocks over the horizon, a count
        # the MDE divides by as a float: 1e100 periods keep it finite on any panel.
        if self.t_weeks * self.periods_per_week > 1e100:
            raise ConfigurationError("t_weeks * periods_per_week must be at most 1e100")

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
    # Imported on first use: statistics, with the fractions module it loads,
    # would add about 2.5 ms to every import of xdesign.
    from statistics import NormalDist

    z = NormalDist().inv_cdf
    return (z(1.0 - weights.alpha / 2.0) + z(1.0 - weights.beta)) * np.sqrt(2.0 * v / n_units)


# The features of a replication, which index the rows of its statistics. The
# graph shares of the draw group's localities follow from _BUDGET on; the
# budget locality's graph share is the budget share itself, so it has no row
# of its own. The lag row comes first, so that a layout whose lag sums equal
# its direct ones reduces the contiguous rest.
_LAG, _BASE, _DIRECT, _BUDGET = range(4)

# Bytes of one chunk's per-slot arrays, sized for each (design, batch). On unit
# atoms, which are reduced from counts: one replay's row of draws; the
# treatment and its (slot, class) bin keys, one value per unit; two values of
# each feature per class and per group label. On switchback atoms, which are
# reduced from feature rows: the draws; the features and the treatment, one
# value per atom; each feature's label sums. A slot of select's 200x8 panel
# takes 3.7-9.8 KB over unit atoms (52-140 per chunk) and 2 KB over its 24
# switchback atoms (227-270 per chunk); one of the sweep's 2000x40 panel takes
# 55-75 KB over unit atoms (6-9 per chunk), and its switchback's 20 slots of
# 3.8 KB share one chunk. Budgets of 2**18 and 2**21 both run the shipped
# select and sweep slower.
_CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class _Units:
    """Unit atoms in classes: the units that share their group in each of some groupings.

    The count path scores unit atoms from a replay's treated units per class.
    Over the groupings of a batch's localities and a design's labels, the
    units of a class see the same share in every grouping and lie in one
    group label, so those counts give every group's treated count and every
    group label's sums. ``code`` is each unit's class and ``size`` each
    class's unit count. ``groups`` maps each grouping to each class's group
    and each group's unit count and sum of ``beta``. ``beta`` is each unit's
    mean cell of the ``centred`` baseline, which is less a cell near the
    panel's mean so that no common mean enters a sum of squares;
    ``beta_sums`` and ``beta_squares`` add it and its square over each class.
    """

    n_periods: int
    code: np.ndarray
    size: np.ndarray
    groups: dict
    beta: np.ndarray
    beta_sums: np.ndarray
    beta_squares: np.ndarray

    @classmethod
    def build(cls, panel: Panel, groupings: tuple[str, ...], centred: np.ndarray) -> "_Units":
        codes = np.stack([panel.group_codes(grouping) for grouping in groupings])
        order = np.lexsort(codes[::-1])
        codes = codes[:, order]
        first = np.ones(panel.n_units, dtype=bool)
        first[1:] = (codes[:, 1:] != codes[:, :-1]).any(axis=0)
        code = np.empty(panel.n_units, dtype=np.int64)
        code[order] = np.cumsum(first) - 1
        size = np.bincount(code).astype(float)
        beta = centred.sum(axis=1) / panel.n_periods
        beta_sums = np.bincount(code, weights=beta)
        groups = {}
        for grouping, group in zip(groupings, codes[:, first]):
            groups[grouping] = (group, np.bincount(group, weights=size), np.bincount(group, weights=beta_sums))
        return cls(panel.n_periods, code, size, groups, beta, beta_sums, np.bincount(code, weights=np.square(beta)))


def _bin_sums(values: np.ndarray, code: np.ndarray, n_bins: int) -> np.ndarray:
    """Sums of (..., n) ``values`` into the ``n_bins`` bins that the (n,) ``code`` gives, row by row.

    Each bin adds its values in order, so no row's sums depend on the others.
    """
    rows = values.size // code.size
    key = (code + n_bins * np.arange(rows)[:, None]).ravel()
    return np.bincount(key, weights=values.ravel(), minlength=rows * n_bins).reshape(values.shape[:-1] + (n_bins,))


@dataclass(frozen=True)
class _Regions:
    """Switchback atoms, the (region, period) pairs in region-major order, and their fixed feature maps.

    ``cells`` is each atom's cell count ``m`` and ``baseline`` its sum of
    the ``centred`` baseline; ``prev`` is the atom of the period before
    (itself in the first period), so the lag sum is ``m * z[prev]``, or None
    for one period, whose lag sums are the direct ones. ``shares`` maps each
    grouping to the (regions, regions) matrix ``M[r, s]`` of the share sum
    that a treated region ``s`` adds to region ``r`` in one period.
    """

    cells: np.ndarray
    baseline: np.ndarray
    prev: np.ndarray | None
    shares: dict

    @classmethod
    def build(cls, panel: Panel, centred: np.ndarray) -> "_Regions":
        n_periods, n_regions, region_codes = panel.n_periods, panel.n_regions, panel.group_codes("region")
        per_region = np.bincount(region_codes, minlength=n_regions)
        cells = np.repeat(per_region.astype(float), n_periods)
        atom = np.arange(cells.size)
        prev = atom - (atom % n_periods > 0) if n_periods > 1 else None
        # Each (region, period) sum adds its region's units in order, as a
        # per-cell bincount does; one region over one period is one sum over
        # the units, which numpy takes pairwise.
        in_region = (region_codes[:, None] == np.arange(n_regions))[:, :, None]
        by_region = np.broadcast_to(centred[:, None], (panel.n_units, n_regions, n_periods))
        baseline = by_region.sum(axis=0, where=in_region).ravel()
        shares = {}
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
        return cls(cells, baseline, prev, shares)

    def share_sums(self, grouping: str, z: np.ndarray, out: np.ndarray) -> None:
        """Per-atom sums of each cell's treated group share, for a (slots, atoms) stack of 0/1 ``z``.

        A cell's share is the treated fraction of its group in its period,
        itself included. Every sum is taken in a fixed order, so a slot's
        sums do not depend on the others in the stack.
        """
        matrix = self.shares[grouping]
        n_slots, n_regions = z.shape[0], matrix.shape[0]
        by_region = z.reshape(n_slots, n_regions, -1)
        total = out.reshape(by_region.shape)
        np.multiply(matrix[None, :, 0, None], by_region[:, None, 0], out=total)
        for source in range(1, n_regions):
            total += matrix[None, :, source, None] * by_region[:, None, source]


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


def _count_stats(rule: _AtomRule, units: _Units, localities: tuple[str, ...], z: np.ndarray, keys: np.ndarray,
                 whole: np.ndarray | None) -> tuple:
    """The statistics of a (slots, units) stack of 0/1 treatment ``z`` on unit atoms, from counts.

    Rows are the features from ``_BASE`` on; the lag feature of a unit atom
    is its direct one. Returns the (2, features, slots) treated and overall
    sums over cells; the (features, features, slots) sums of products of the
    occupied labels' feature means about their mean; the count of occupied
    labels and the sum over them of one over their cell counts, per slot or
    for all slots. ``keys`` holds each (slot, unit)'s bin, its class plus
    the class count times its slot, for at least ``z``'s slots. ``whole``
    holds 1 for each of ``mixed``'s clusters that is one label and 0 for
    each split into single units, or is None.

    A group label's means follow from its treated count ``N_l`` and the
    classes' shares: ``N_l / n_l``, and for each grouping ``k`` the mean of
    ``phi_k`` over its units, where ``phi_k`` is each group's treated count
    over its size. A single-unit label's means are the unit's ``beta``, its
    treatment and its ``phi_k``, so sums over such units add up class by
    class: ``sum z phi_k = sum_c T_c phi_k[c]``, ``sum phi_j phi_k = sum_c
    n_c phi_j[c] phi_k[c]`` and ``sum beta phi_k = sum_c B_c phi_k[c]``,
    with ``T_c`` treated units, ``n_c`` units and ``B_c`` the sum of
    ``beta`` of class ``c``. Products are taken about the labels' mean, as
    few group labels can have means close together.
    """
    n_slots, n_rows, n_classes = z.shape[0], 2 + len(localities), units.size.size
    # Treated units per class: sums of 0/1 values are exact integers in any order.
    treated = np.bincount(keys[: z.size], weights=z.ravel(), minlength=n_slots * n_classes).reshape(n_slots, n_classes)
    phi = np.empty((len(localities),) + treated.shape)
    for k, grouping in enumerate(localities):
        code, size = units.groups[grouping][:2]
        np.take(_bin_sums(treated, code, size.size) / size, code, axis=1, out=phi[k])
    z_beta = np.einsum("su,u->s", z, units.beta)
    n_treated = treated.sum(axis=1)
    # einsum without optimize never calls BLAS, so no thread count can reach a score.
    arm = np.empty((2, n_rows, n_slots))
    arm[0, 0] = z_beta
    arm[0, 1] = n_treated
    np.einsum("sc,ksc->ks", treated, phi, out=arm[0, 2:])
    arm[1, 0] = units.beta_sums.sum()
    # Each unit's shares in a grouping sum to its treated units.
    arm[1, 1:] = n_treated
    arm *= units.n_periods

    # The occupied labels' sums of means: the group labels', whole ones only
    # for mixed, then the single units', class by class.
    sums = np.zeros((n_rows, n_slots))
    count = inverse = 0.0
    if rule.grouping is not None:
        code, size, beta_sums = units.groups[rule.grouping]
        means = np.empty((n_rows, n_slots, size.size))
        means[0] = beta_sums / size
        means[1] = _bin_sums(treated, code, size.size) / size
        means[2:] = _bin_sums(units.size * phi, code, size.size) / size
        if whole is None:
            means.sum(axis=-1, out=sums)
            count, inverse = float(size.size), (1.0 / size).sum()
        else:
            np.einsum("fsl,sl->fs", means, whole, out=sums)
            count, inverse = whole.sum(axis=1), (whole / size).sum(axis=1)
    singles = rule.grouping is None or whole is not None
    if singles:
        values = np.empty((n_rows,) + treated.shape)
        values[0] = units.beta_sums
        values[1] = treated
        np.multiply(units.size, phi, out=values[2:])
        n_single, beta_squares, z_beta_single = units.size, units.beta_squares.sum(), z_beta
        if whole is not None:
            # The units of split clusters only.
            keep = 1.0 - np.take(whole, code, axis=1)
            values *= keep
            n_single = keep * units.size
            beta_squares = np.einsum("sc,c->s", keep, units.beta_squares)
            z_beta_single = np.einsum("su,su,u->s", z, np.take(keep, units.code, axis=1), units.beta)
        single_sums = values.sum(axis=-1)
        sums += single_sums
        n_singles = n_single.sum(axis=-1)
        count, inverse = count + n_singles, inverse + n_singles
    mean = sums / count

    products = np.zeros((n_rows, n_rows, n_slots))
    if rule.grouping is not None:
        means -= mean[..., None]
        if whole is not None:
            means *= whole
        np.einsum("fsl,gsl->fgs", means, means, out=products)
    if singles:
        # The single units' baseline and treatment block: sum (a - m_a)(b - m_b)
        # = sum ab - m_a sum b - m_b sum a + n m_a m_b.
        block = np.empty((2, 2, n_slots))
        block[0, 0] = beta_squares
        block[0, 1] = block[1, 0] = z_beta_single
        block[1, 1] = single_sums[1]
        m, s = mean[:2], single_sums[:2]
        block -= m[:, None] * s + s[:, None] * m - n_singles * m[:, None] * m
        products[:2, :2] += block
        # Share columns: per class, the sums of each mean less its label mean,
        # times the class's shares less theirs.
        values -= n_single * mean[..., None]
        phi -= mean[2:, :, None]
        shares = np.einsum("fsc,ksc->fks", values, phi)
        products[:, 2:] += shares
        products[2:, :2] += shares[:2].swapaxes(0, 1)
    return arm, products, count, inverse / units.n_periods


def _row_stats(regions: _Regions, localities: tuple[str, ...], z: np.ndarray, block: np.ndarray, first: int,
               label_starts: np.ndarray, label_cells: np.ndarray) -> tuple:
    """The statistics of a (slots, atoms) stack of 0/1 treatment ``z`` on (region, period) atoms, from feature rows.

    Fills the (features, slots, atoms) ``block``, whose baseline row is set,
    with per-atom sums, and reduces its rows from ``first`` on to what
    :func:`_count_stats` returns. Each label is a run of atoms starting at
    ``label_starts`` and holding ``label_cells`` cells.
    """
    np.multiply(z, regions.cells, out=block[_DIRECT])
    if regions.prev is not None:
        np.take(block[_DIRECT], regions.prev, axis=1, out=block[_LAG], mode="clip")
    for row, grouping in enumerate(localities, _BUDGET):
        regions.share_sums(grouping, z, out=block[row])
    live = block[first:]
    means = np.add.reduceat(live, label_starts, axis=-1)
    arm = np.empty((2,) + means.shape[:2])
    np.einsum("fsa,sa->fs", live, z, out=arm[0])
    means.sum(axis=-1, out=arm[1])
    means /= label_cells
    means -= means.sum(axis=-1, keepdims=True) / label_cells.size
    return arm, np.einsum("fsl,gsl->fgs", means, means), float(label_cells.size), (1.0 / label_cells).sum()


def _score_batch(
    rule: _AtomRule,
    batch: _Batch,
    layout: _Units | _Regions,
    panel: Panel,
    *,
    reps: int,
    master_seed: int,
    design_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The statistics of one design's slots over one batch.

    Returns, per slot, the (2, features, slots) treated and overall feature
    sums, the (features, features, slots) covariance of the occupied labels'
    feature means and the (slots,) mean over those labels of ``1 / m_l``.
    The batch's slots (group, rep) run in group-major order, each group's from
    its own generator. In each chunk, every run of one group's slots fills its
    rows of ``draws`` with one :func:`_draw_uniforms` call, and one call maps
    the chunk's draws to per-atom treatment and, for ``mixed``, its whole
    clusters. Unit atoms are reduced from counts (:func:`_count_stats`),
    switchback atoms from feature rows (:func:`_row_stats`). The buffers hold
    one chunk, sized for this design and batch; a short last chunk takes
    their first slots.
    """
    n_features = _BUDGET + len(batch.localities)
    n_atoms = layout.cells.size if rule.regions else panel.n_units
    n_total = batch.seed_index.size * reps
    streams = [np.random.default_rng(np.random.SeedSequence((master_seed, design_index, g)))
               for g in batch.seed_index.tolist()]
    arm_sums = np.empty((2, n_features, n_total))
    # Each slot's covariance times its degrees of freedom.
    cov = np.empty((n_features, n_features, n_total))
    dof = np.empty(n_total)
    inverse_size = np.empty(n_total)

    # The rows that the chunk loop fills: all, or all but a lag row that equals the direct one.
    first = _LAG if rule.regions and layout.prev is not None else _BASE
    if rule.regions:
        # A switchback's labels, its region-blocks, are runs of atoms.
        label_starts = np.flatnonzero(np.diff(rule.labels, prepend=-1))
        label_cells = np.add.reduceat(layout.cells, label_starts)
        slot_floats = (n_features + 1) * n_atoms + n_features * label_starts.size
    else:
        n_labels = 0 if rule.grouping is None else layout.groups[rule.grouping][1].size
        slot_floats = 2 * n_atoms + 2 * n_features * (layout.size.size + n_labels)
    # One chunk's buffers, for as many slots as _CHUNK_BYTES holds of this design and batch.
    chunk = max(1, min(n_total, _CHUNK_BYTES // ((slot_floats + rule.n_draws) * 8)))
    treated = np.empty((chunk, n_atoms))
    whole = np.empty((chunk, rule.n_groups)) if rule.labels is None else None
    draws = np.empty((chunk, rule.n_draws))
    if rule.regions:
        features = np.empty((n_features, chunk, n_atoms))
        features[_BASE] = layout.baseline
    else:
        keys = (layout.code + layout.size.size * np.arange(chunk)[:, None]).ravel()

    for start in range(0, n_total, chunk):
        stop = min(start + chunk, n_total)
        n_slots = stop - start
        z, drawn = treated[:n_slots], draws[:n_slots]
        coins = None if whole is None else whole[:n_slots]
        for g in range(start // reps, (stop - 1) // reps + 1):
            lo, hi = max(start, g * reps) - start, min(stop, (g + 1) * reps) - start
            _draw_uniforms(rule, streams[g], drawn[lo:hi])
        _assign_atoms(rule, drawn, z, coins)
        if rule.regions:
            stats = _row_stats(layout, batch.localities, z, features[:, :n_slots], first, label_starts, label_cells)
        else:
            stats = _count_stats(rule, layout, batch.localities, z, keys, coins)
        arm, products, count, inverse = stats
        if np.min(count) < 2:
            raise PlanningError(f"design {rule.design.name!r}: variance needs at least 2 assignment units")
        arm_sums[:, first:, start:stop] = arm
        cov[first:, first:, start:stop] = products
        dof[start:stop] = count - 1
        inverse_size[start:stop] = inverse / count

    # A skipped lag row takes the direct row's statistics.
    if first != _LAG:
        arm_sums[:, _LAG] = arm_sums[:, _DIRECT]
        cov[_LAG] = cov[_DIRECT]
        cov[:, _LAG] = cov[:, _DIRECT]
    cov /= dof
    return arm_sums, cov, inverse_size


def _channels(
    batch: _Batch,
    rules: list[_AtomRule],
    stats: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    panel: Panel,
    calib: CalibrationScales,
    reps: int,
    stress: float,
) -> np.ndarray:
    """The (designs, points, reps, N_CHANNELS) scores, but the mde, of every design over one batch.

    ``stats`` holds each design's slot statistics from :func:`_score_batch`;
    they are stacked on a leading design axis and scored at once.
    """
    # The statistics of each point's replications, (designs, ..., points, reps).
    slots = batch.group[:, None] * reps + np.arange(reps)
    arm_sums, cov, inverse_size = (np.stack(stat)[..., slots] for stat in zip(*stats))
    n_cells = panel.n_units * panel.n_periods

    # o' (C o): the inner products first, so that outcome weights that
    # cancel, such as a direct effect near minus the carryover on features
    # whose covariances agree, cancel before the outer sum. Rounding can take
    # it just below the zero that a constant outcome has, which the variance
    # cannot be. The noise adds noise_sd**2 / m_l to the variance of label
    # l's mean.
    v = np.einsum("fp,dfpr->dpr", batch.outcome, np.einsum("gp,dfgpr->dfpr", batch.outcome, cov))
    np.maximum(v, 0.0, out=v)
    v += np.square(calib.noise_sd) * inverse_size

    treated_sums, totals = arm_sums[:, 0], arm_sums[:, 1]
    n_treated = treated_sums[:, _DIRECT]
    n_control = n_cells - n_treated
    # Exact where the arm is empty, whatever the rounding of the two sums.
    control_sums = np.where(n_control[:, None] > 0, totals - treated_sums, 0.0)
    # A switch is a treated cell whose lag is 0 or a control cell whose lag
    # is 1 (the first period's lag is the cell itself). Sums of 0/1 products
    # are exact integers, so the rate equals the per-cell count.
    n_switches = n_treated - treated_sums[:, _LAG] + control_sums[:, _LAG]
    switch_rate = n_switches / (panel.n_units * (panel.n_periods - 1)) if panel.n_periods > 1 else 0.0
    control = control_sums / np.maximum(n_control[:, None], 1.0)
    # A single-arm replay estimates the launch effect against baseline: the
    # mean shift of every feature but the baseline.
    shift = totals / n_cells
    shift[:, _BASE] = 0.0
    two_arm = (n_treated > 0) & (n_control > 0)
    contrast = np.where(two_arm[:, None], treated_sums / np.maximum(n_treated[:, None], 1.0) - control, shift)
    estimate = np.einsum("fp,dfpr->dpr", batch.outcome, contrast)

    marginal = np.array([rule.marginal for rule in rules])[:, None, None]
    scores = np.empty(estimate.shape + (N_CHANNELS,))
    scores[..., 0] = 1.0 - marginal
    scores[..., 1] = v
    contamination = np.einsum("fp,dfpr->dpr", batch.contamination, control)
    scores[..., 3] = contamination + batch.switching[:, None] * switch_rate + stress
    scores[..., 4] = np.array([rule.design.op_cost_level for rule in rules])[:, None, None]
    scores[..., 5] = 1.0 - marginal + stress
    scores[..., 6] = estimate - batch.target[:, None]
    return scores


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
    # The baseline less its cell nearest the mean: on a constant panel every
    # residue is then exactly 0, where a mean that rounds off the cells would
    # leave residues whose squares overflow. One buffer holds the distances
    # to the mean, then the centred baseline.
    baseline = panel.baseline
    centred = baseline - baseline.mean()
    np.abs(centred, out=centred)
    np.subtract(baseline, baseline.flat[centred.argmin()], out=centred)
    # One layout of switchback atoms, keyed (), and one of unit classes per
    # set of groupings that a batch's shares and a design's labels need.
    layouts = {}
    # Designs run one at a time, in catalog order, so an error names the first
    # design that fails. Each batch keeps every design's slot statistics for
    # one scoring pass over all designs.
    stats = [[] for _ in batches]
    n_eff = []
    for d, (design, rule) in enumerate(zip(catalog, rules)):
        n_eff.append(effective_units(design, panel, weights.t_weeks, weights.periods_per_week))
        for batch, batch_stats in zip(batches, stats):
            needed = () if rule.regions else batch.localities + (rule.grouping,)
            key = tuple(grouping for grouping in LOCALITIES if grouping in needed)
            if key not in layouts:
                layouts[key] = _Units.build(panel, key, centred) if key else _Regions.build(panel, centred)
            batch_stats.append(_score_batch(rule, batch, layouts[key], panel, reps=reps,
                                            master_seed=master_seed, design_index=d))
    for batch, batch_stats in zip(batches, stats):
        out[:, batch.points] = _channels(batch, rules, batch_stats, panel, calib, reps, stress)
    for d, n in enumerate(n_eff):
        out[d, ..., 2] = mde(out[d, ..., 1], n, weights)
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

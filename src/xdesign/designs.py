"""The six-design catalog and its assignment replay rules.

Each design is an implementable randomization scheme: it draws treatment for
its own assignment unit (user, cluster, budget pool, region-time block, or a
mixture) and replays that assignment over a panel. The effective number of
assignment units drives power; the operational cost is a pre-registered score,
not a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PlanningError
from .panel import Panel

__all__ = [
    "DesignSpec",
    "effective_units",
    "default_catalog",
]

KINDS: tuple[str, ...] = ("user", "cluster", "switchback", "budget_split", "two_stage", "mixed")


# Pre-registered operational-cost levels per design kind: user randomization is
# routine; blocking/scheduling designs are mid-cost; new allocation machinery
# (budget splits, saturation, multi-axis mixtures) is expensive.
_OP_COST_LEVELS = {
    "user": 0.10,
    "cluster": 0.40,
    "switchback": 0.40,
    "budget_split": 0.80,
    "two_stage": 0.80,
    "mixed": 0.80,
}


@dataclass(frozen=True)
class DesignSpec:
    """One candidate design in the catalog."""

    kind: str
    treat_prob: float = 0.5
    block_length: int = 1
    saturation_levels: tuple[float, ...] = (0.25, 0.75)
    mixture_prob: float = 0.5
    op_cost_level: float | None = None  # None takes the kind's preset
    all_treated: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown design kind {self.kind!r}")
        if self.op_cost_level is None:
            object.__setattr__(self, "op_cost_level", _OP_COST_LEVELS[self.kind])
        if not 0.0 <= self.op_cost_level <= 1.0:
            raise ConfigurationError("op_cost_level must lie in [0, 1]")
        if not 0.0 < self.treat_prob < 1.0:
            raise ConfigurationError("treat_prob must lie in (0, 1)")
        if self.block_length < 1:
            raise ConfigurationError("block_length must be >= 1")
        if not self.saturation_levels:
            raise ConfigurationError("saturation_levels must be non-empty")
        if any(not 0.0 <= s <= 1.0 for s in self.saturation_levels):
            raise ConfigurationError("saturation_levels must lie in [0, 1]")
        if not 0.0 <= self.mixture_prob <= 1.0:
            raise ConfigurationError("mixture_prob must lie in [0, 1]")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


# Every assignment rule treats the cells of an atom alike. An atom is a unit
# over all its periods, except for switchbacks, whose atoms are the
# (region, period) pairs in region-major order.


@dataclass(frozen=True)
class _AtomRule:
    """One design's assignment rule on one panel, with the constants its draws need.

    The atoms are (region, period) pairs if ``regions`` is set, else units.
    ``source`` indexes the one uniform of a replay that each atom reads, and
    ``labels`` is each atom's int64 assignment-unit label, or None for
    ``mixed``, whose labels are drawn; every label lies below ``n_labels``,
    ``n_groups + n_units`` for ``mixed``. ``codes`` maps each unit to the
    cluster or budget group that the rule draws for, ``n_groups`` counts
    those groups and ``levels`` are the saturation levels. A replay draws
    ``n_level_draws`` level indices (one per group for ``two_stage``, else
    none), then ``n_uniform`` uniforms; see :func:`_draw_uniforms`.
    """

    design: DesignSpec
    regions: bool
    source: np.ndarray
    labels: np.ndarray | None
    n_labels: int
    codes: np.ndarray
    n_groups: int
    levels: np.ndarray
    n_level_draws: int
    n_uniform: int

    @classmethod
    def build(cls, design: DesignSpec, panel: Panel) -> "_AtomRule":
        codes = panel.budget_codes if design.kind == "budget_split" else panel.cluster_codes
        n_groups = int(codes.max()) + 1
        units = np.arange(panel.n_units, dtype=np.int64)
        source, labels = units, codes
        if design.kind == "user":
            labels = units
        elif design.kind in ("cluster", "budget_split"):
            source = codes
        elif design.kind == "switchback":
            n_blocks = (panel.n_periods - 1) // design.block_length + 1
            blocks = np.arange(panel.n_periods) // design.block_length
            source = labels = (np.arange(panel.n_regions)[:, None] * n_blocks + blocks).ravel()
        elif design.kind == "mixed":
            source, labels = 2 * n_groups + units, None
        return cls(
            design=design,
            regions=design.kind == "switchback",
            source=source,
            labels=labels,
            n_labels=n_groups + panel.n_units if labels is None else int(labels.max()) + 1,
            codes=codes,
            n_groups=n_groups,
            levels=np.asarray(design.saturation_levels, dtype=float),
            n_level_draws=n_groups if design.kind == "two_stage" else 0,
            n_uniform=int(source.max()) + 1,
        )


def _draw_uniforms(rule: _AtomRule, rng: np.random.Generator, uniforms: np.ndarray, level_draws: np.ndarray) -> None:
    """Make one replay's generator calls: its level indices into ``level_draws``, then its uniforms.

    ``uniforms`` is a C-contiguous float row of ``n_uniform`` and
    ``level_draws`` an int64 row of ``n_level_draws``, which only
    ``two_stage`` fills with each group's saturation-level index. The uniforms
    are, in draw order, one per unit (``user``, ``two_stage``), per group
    (``cluster``, ``budget_split``) or per region-block in region-major order
    (``switchback``); ``mixed`` takes one per group for the whole-cluster
    coin, one per group for the cluster draw and one per unit. Its one call
    draws the same doubles as three calls of those sizes, since each double
    takes one 64-bit output of the bit generator. No draw depends on the
    interference mechanism, so one replay serves every grid point.
    """
    if rule.n_level_draws:
        level_draws[:] = rng.integers(0, rule.levels.size, size=rule.n_level_draws)
    rng.random(out=uniforms)


def _assign_atoms(
    rule: _AtomRule, uniforms: np.ndarray, level_draws: np.ndarray, z: np.ndarray, labels: np.ndarray
) -> None:
    """Map a stack of replays' draws to 0/1 treatment per atom in ``z``, and ``mixed``'s labels in ``labels``.

    ``uniforms`` and ``level_draws`` are (slots, n_uniform) and (slots,
    n_level_draws) stacks of :func:`_draw_uniforms` rows; ``z`` and
    ``labels`` are (slots, atoms), and ``labels`` is left alone for every
    kind but ``mixed``. An atom is treated when the uniform at its source
    falls below ``treat_prob``, or below its group's drawn saturation level
    for ``two_stage``. A slot's treatment depends only on its own rows.
    ``all_treated`` keeps the kind's draws and labels and treats every atom.
    """
    design = rule.design
    # np.take along axis 1 gathers the same values as fancy indexing, faster.
    threshold = np.take(rule.levels[level_draws], rule.codes, axis=1) if rule.n_level_draws else design.treat_prob
    drawn = np.take(uniforms, rule.source, axis=1)
    if design.kind == "mixed":
        # A whole-cluster unit reads its cluster's uniform, n_groups past the
        # coins, and takes its cluster as its label; any other is its own.
        whole_cluster = np.take(uniforms, rule.codes, axis=1) < design.mixture_prob
        np.copyto(drawn, np.take(uniforms, rule.n_groups + rule.codes, axis=1), where=whole_cluster)
        np.subtract(rule.source, rule.n_groups, out=labels)
        np.copyto(labels, rule.codes, where=whole_cluster)
    np.less(drawn, threshold, out=z)
    if design.all_treated:
        z.fill(1)


def effective_units(
    design: DesignSpec,
    panel: Panel,
    t_weeks: int,
    periods_per_week: int,
) -> int:
    """Effective count of independent randomization draws over a ``t_weeks`` horizon.

    Only switchbacks accrue units with duration: one per region-block. The
    other designs are bounded by the panel's group structure.
    """
    if t_weeks < 1:
        raise ConfigurationError("t_weeks must be >= 1")
    if design.kind == "user":
        n = panel.n_units
    elif design.kind in ("cluster", "two_stage"):
        n = panel.n_clusters
    elif design.kind == "budget_split":
        n = panel.n_budget_groups
    elif design.kind == "switchback":
        n = panel.n_regions * int(periods_per_week * t_weeks // design.block_length)
    else:  # mixed
        n = int(design.mixture_prob * panel.n_clusters + (1.0 - design.mixture_prob) * panel.n_units)
    if n < 2:
        raise PlanningError(f"insufficient assignment units for design {design.name!r} (n={n})")
    return n


def default_catalog() -> list[DesignSpec]:
    """The six-design catalog with pre-registered op-cost presets."""
    return [DesignSpec(kind=kind) for kind in KINDS]

"""The six-design catalog and its assignment replay rules.

Each design is an implementable randomization scheme: it draws treatment for
its own assignment unit (user, cluster, budget pool, region-time block, or a
mixture) and replays that assignment over a panel. The effective number of
assignment units drives power; the operational cost is a pre-registered score,
not a measurement.
"""

from __future__ import annotations

import re
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

# What XML 1.0 text cannot hold, escaped or not: C0 controls but tab, LF and CR,
# surrogates, U+FFFE and U+FFFF. A design name labels the SVGs, so it holds none.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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
        if bad := _NOT_XML.search(self.name):
            raise ConfigurationError(f"name must not hold the character U+{ord(bad.group()):04X}")


# Every assignment rule treats the cells of an atom alike. An atom is a unit
# over all its periods, except for switchbacks, whose atoms are the
# (region, period) pairs in region-major order.


@dataclass(frozen=True)
class _AtomRule:
    """One design's assignment rule on one panel, with the constants its draws need.

    The atoms are (region, period) pairs if ``regions`` is set, else units.
    A replay is one row of ``n_draws`` doubles; see :func:`_draw_uniforms`.
    ``source`` indexes the draw of the row that each atom compares with its
    threshold, and ``labels`` is each atom's int64 assignment-unit label, or
    None for ``mixed``, whose labels are drawn. ``codes`` maps each unit to
    its group in ``grouping``, the clusters or budget groups that the rule
    draws for, ``n_groups`` counts those groups and ``levels`` are the
    saturation levels. On unit atoms, the labels are the groups of
    ``grouping``, or for ``mixed`` those clusters that its coins make whole
    and the other clusters' units; ``grouping`` is None where every unit is
    its own label (``user``, and ``switchback``, whose atoms are not units).
    """

    design: DesignSpec
    regions: bool
    source: np.ndarray
    labels: np.ndarray | None
    grouping: str | None
    codes: np.ndarray
    n_groups: int
    levels: np.ndarray
    n_draws: int
    marginal: float  # π, each atom's treatment probability: treat_prob, or the mean level for two_stage

    @classmethod
    def build(cls, design: DesignSpec, panel: Panel) -> "_AtomRule":
        grouping = "budget" if design.kind == "budget_split" else "cluster"
        codes = panel.group_codes(grouping)
        n_groups = int(codes.max()) + 1
        units = np.arange(panel.n_units, dtype=np.int64)
        source, labels = units, codes
        if design.kind == "user":
            labels = units
        elif design.kind in ("cluster", "budget_split"):
            source = codes
        elif design.kind == "switchback":
            # A block that outlasts the panel is one block, whatever its length.
            length = min(design.block_length, panel.n_periods)
            n_blocks = (panel.n_periods - 1) // length + 1
            blocks = np.arange(panel.n_periods) // length
            source = labels = (np.arange(panel.n_regions)[:, None] * n_blocks + blocks).ravel()
        elif design.kind == "two_stage":
            source = n_groups + units
        elif design.kind == "mixed":
            source, labels = 2 * n_groups + units, None
        return cls(
            design=design,
            regions=design.kind == "switchback",
            source=source,
            labels=labels,
            grouping=None if design.kind in ("user", "switchback") else grouping,
            codes=codes,
            n_groups=n_groups,
            levels=np.asarray(design.saturation_levels, dtype=float),
            n_draws=int(source.max()) + 1,
            marginal=float(np.mean(design.saturation_levels)) if design.kind == "two_stage" else design.treat_prob,
        )


def _draw_uniforms(rule: _AtomRule, rng: np.random.Generator, draws: np.ndarray) -> None:
    """Fill each row of the ``draws`` stack with one replay's draws from ``rng``, in order.

    A replay's uniforms are one per unit (``user``), per group (``cluster``,
    ``budget_split``) or per region-block in region-major order
    (``switchback``); ``mixed`` takes one per group for the whole-cluster
    coin, one per group for the cluster draw and one per unit. Each double
    takes one 64-bit output of the bit generator, so one call fills the whole
    C-contiguous stack with the doubles of one call per replay. Only
    ``two_stage`` draws row by row: a row starts with each cluster's
    saturation level, drawn uniformly from ``levels`` by one ``integers``
    call, and one uniform per unit follows. No draw depends on the mechanism.
    """
    if rule.design.kind != "two_stage":
        rng.random(out=draws)
        return
    for row in draws:
        # Every drawn index is valid; "clip" only spares take a buffered copy of out.
        np.take(rule.levels, rng.integers(0, rule.levels.size, rule.n_groups), out=row[: rule.n_groups], mode="clip")
        rng.random(out=row[rule.n_groups :])


def _assign_atoms(rule: _AtomRule, draws: np.ndarray, z: np.ndarray, whole: np.ndarray | None) -> None:
    """Map a stack of replays' draws to 0/1 treatment per atom in ``z``, and ``mixed``'s whole clusters in ``whole``.

    ``draws`` is a (slots, n_draws) stack that :func:`_draw_uniforms` filled
    and ``z`` is (slots, atoms). For ``mixed``, ``whole`` is (slots,
    n_groups) and takes 1 for each cluster that its coin makes one label and
    0 for each whose units are labels of their own; every other kind leaves
    it alone. An atom is treated when the draw at its source falls below its
    threshold: ``treat_prob``, or for ``two_stage`` its cluster's drawn
    saturation level at the start of the row. A slot's treatment depends only
    on its own row.
    """
    design = rule.design
    # np.take along axis 1 gathers the same values as fancy indexing, faster.
    threshold = np.take(draws, rule.codes, axis=1) if design.kind == "two_stage" else design.treat_prob
    drawn = np.take(draws, rule.source, axis=1)
    if design.kind == "mixed":
        # A whole cluster's units read its uniform, n_groups past the coins.
        np.less(draws[:, : rule.n_groups], design.mixture_prob, out=whole)
        np.copyto(drawn, np.take(draws, rule.n_groups + rule.codes, axis=1),
                  where=np.take(whole, rule.codes, axis=1) == 1)
    np.less(drawn, threshold, out=z)


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

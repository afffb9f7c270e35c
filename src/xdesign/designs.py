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
            raise ConfigurationError("saturation levels must lie in [0, 1]")
        if not 0.0 <= self.mixture_prob <= 1.0:
            raise ConfigurationError("mixture_prob must lie in [0, 1]")
        if not self.name:
            object.__setattr__(self, "name", self.kind)


# Every assignment rule treats the cells of an atom alike. An atom is a unit
# over all its periods, except for switchbacks, whose atoms are the
# (region, period) pairs in region-major order.


def _atom_labels(design: DesignSpec, panel: Panel) -> np.ndarray | None:
    """The int64 assignment-unit label of each atom, or None for ``mixed``, whose labels are drawn."""
    if design.kind == "user":
        return np.arange(panel.n_units, dtype=np.int64)
    if design.kind in ("cluster", "two_stage"):
        return panel.cluster_codes
    if design.kind == "budget_split":
        return panel.budget_codes
    if design.kind == "switchback":
        n_blocks = (panel.n_periods + design.block_length - 1) // design.block_length
        block_of_period = np.arange(panel.n_periods) // design.block_length
        return (np.arange(panel.n_regions)[:, None] * n_blocks + block_of_period).ravel()
    return None


def _draw_atoms(design: DesignSpec, panel: Panel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """One replay's int8 treatment per atom, and its drawn labels for ``mixed`` (None otherwise).

    No rule depends on the interference mechanism, so one replay serves every
    grid point. ``all_treated`` keeps the kind's labels and treats every atom.
    """
    n, p = panel.n_units, design.treat_prob
    labels = None
    if design.kind == "user":
        z = rng.random(n) < p
    elif design.kind in ("cluster", "budget_split"):
        codes = panel.cluster_codes if design.kind == "cluster" else panel.budget_codes
        z = (rng.random(codes.max() + 1) < p)[codes]
    elif design.kind == "switchback":
        n_blocks = (panel.n_periods + design.block_length - 1) // design.block_length
        draws = rng.random((panel.n_regions, n_blocks)) < p
        z = draws[:, np.arange(panel.n_periods) // design.block_length].ravel()
    elif design.kind == "two_stage":
        codes = panel.cluster_codes
        levels = np.asarray(design.saturation_levels, dtype=float)
        level_idx = rng.integers(0, len(levels), size=codes.max() + 1)
        z = rng.random(n) < levels[level_idx][codes]
    elif design.kind == "mixed":
        codes = panel.cluster_codes
        n_clusters = codes.max() + 1
        whole_cluster = (rng.random(n_clusters) < design.mixture_prob)[codes]
        cluster_draws = rng.random(n_clusters) < p
        unit_draws = rng.random(n) < p
        z = np.where(whole_cluster, cluster_draws[codes], unit_draws)
        labels = np.where(whole_cluster, codes, n_clusters + np.arange(n, dtype=np.int64))
    else:  # pragma: no cover - guarded by DesignSpec
        raise ConfigurationError(f"unknown design kind {design.kind!r}")
    if design.all_treated:
        return np.ones(z.size, dtype=np.int8), labels
    return z.astype(np.int8), labels


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
    elif design.kind == "mixed":
        n = int(design.mixture_prob * panel.n_clusters + (1.0 - design.mixture_prob) * panel.n_units)
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown design kind {design.kind!r}")
    if n < 2:
        raise PlanningError(f"insufficient assignment units for design {design.name!r} (n={n})")
    return n


def default_catalog() -> list[DesignSpec]:
    """The six-design catalog with pre-registered op-cost presets."""
    return [DesignSpec(kind=kind) for kind in KINDS]

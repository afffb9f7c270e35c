"""The ambiguity set: a finite audit grid of interference mechanisms.

Each grid point carries three unit-free intensities (graph spillover, budget
spillover, temporal carryover) plus a locality label naming the grouping that
defines exposure neighborhoods. The intensities are mapped to outcome-scale
strengths through the panel's calibration scales.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .panel import LOCALITIES, CalibrationScales

__all__ = [
    "LOCALITIES",
    "MechanismPoint",
    "AmbiguityGrid",
    "OutcomeStrengths",
    "default_grid",
    "outcome_strengths",
    "launch_effect",
]

# Grid maxima used to rescale intensities into outcome units; the audit grid
# tops out at these values per channel.
_GRAPH_REF = 0.3
_BUDGET_REF = 0.5
_CARRY_REF = 0.2


@dataclass(frozen=True, order=True)
class MechanismPoint:
    """One exposure mechanism: channel intensities plus neighborhood locality."""

    graph_spill: float
    budget_spill: float
    carryover: float
    locality: str = "cluster"

    def __post_init__(self) -> None:
        for name in ("graph_spill", "budget_spill", "carryover"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.locality not in LOCALITIES:
            raise ConfigurationError(f"locality must be one of {LOCALITIES}, got {self.locality!r}")

    @property
    def intensity_sum(self) -> float:
        return self.graph_spill + self.budget_spill + self.carryover


@dataclass(frozen=True)
class AmbiguityGrid:
    """Ordered, duplicate-free collection of mechanism points."""

    points: tuple[MechanismPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError("ambiguity grid must be non-empty")
        if len(set(self.points)) != len(self.points):
            raise ConfigurationError("ambiguity grid contains duplicate points")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, idx: int) -> MechanismPoint:
        return self.points[idx]

    @classmethod
    def from_axes(
        cls,
        graph_spill: tuple[float, ...] = (0.0, 0.1, 0.3),
        budget_spill: tuple[float, ...] = (0.0, 0.2, 0.5),
        carryover: tuple[float, ...] = (0.0, 0.05, 0.2),
        localities: tuple[str, ...] = LOCALITIES,
    ) -> "AmbiguityGrid":
        """Cross product of the per-coordinate lists, ordered lexicographically."""
        points = tuple(
            MechanismPoint(g, b, c, loc)
            for g, b, c, loc in itertools.product(
                sorted(graph_spill), sorted(budget_spill), sorted(carryover), localities
            )
        )
        return cls(points)


def default_grid() -> AmbiguityGrid:
    """The full 3x3x3x3 audit grid (81 points) over the default stress values."""
    return AmbiguityGrid.from_axes()


@dataclass(frozen=True)
class OutcomeStrengths:
    """Outcome-scale interference strengths for one mechanism point."""

    graph: float
    budget: float
    carry: float

    @property
    def total(self) -> float:
        return self.graph + self.budget + self.carry


def outcome_strengths(theta: MechanismPoint, calib: CalibrationScales) -> OutcomeStrengths:
    """Map grid intensities to outcome units.

    Each channel scales linearly from zero at intensity 0 to its calibrated
    outcome scale at the top of the audit grid (0.3 / 0.5 / 0.2 per channel).
    """
    return OutcomeStrengths(
        graph=calib.spill_scale * calib.graph_frac * theta.graph_spill / _GRAPH_REF,
        budget=calib.spill_scale * (1.0 - calib.graph_frac) * theta.budget_spill / _BUDGET_REF,
        carry=calib.carry_scale * theta.carryover / _CARRY_REF,
    )


def launch_effect(theta: MechanismPoint, calib: CalibrationScales) -> float:
    """Full-launch effect: direct effect plus all interference strengths at exposure 1."""
    s = outcome_strengths(theta, calib)
    return calib.direct_effect + s.total

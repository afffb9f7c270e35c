"""The ambiguity set: a finite audit grid of interference mechanisms.

Each grid point carries three unit-free intensities (graph spillover, budget
spillover, temporal carryover) plus a locality label naming the grouping that
defines exposure neighborhoods. What a point does to outcomes, through the
panel's calibration scales, is the scoring kernel's: see :mod:`xdesign.risk`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .panel import LOCALITIES

__all__ = [
    "LOCALITIES",
    "MechanismPoint",
    "AmbiguityGrid",
    "default_grid",
]


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


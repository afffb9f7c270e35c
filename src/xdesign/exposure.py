"""Exposure features induced by an assignment, and distances to the launch profile.

Under full launch every unit is treated in every period, so every exposure
coordinate (direct treatment, treated budget share, treated neighborhood
share, lagged treatment) equals one. The geometry score measures how far a
replayed assignment sits from that profile, weighting each spillover
coordinate by its mechanism intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import AssignmentTable
from .errors import ConfigurationError
from .mechanisms import MechanismPoint
from .panel import Panel

__all__ = [
    "ExposurePanel",
    "exposure_features",
    "geometry_score",
    "wasserstein1_1d",
]


@dataclass(frozen=True)
class ExposurePanel:
    """Per-cell exposure coordinates derived from one assignment table.

    Shares include the unit itself, so a unit alone in its group sees exactly
    its own treatment. ``lag`` at the first period equals the first-period
    treatment (no pre-experiment history is assumed).
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
    budget_share = _group_share(z, panel.budget_codes)
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


def wasserstein1_1d(p, q) -> float:
    """Exact Wasserstein-1 distance between two equal-size 1-D empirical samples.

    For equal-size samples the optimal transport plan matches order statistics,
    so the distance is the mean absolute difference of the sorted samples.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    if p.size == 0 or q.size == 0:
        raise ConfigurationError("samples must be non-empty")
    if p.size != q.size:
        raise ConfigurationError(f"samples must have equal length, got {p.size} and {q.size}")
    return float(np.abs(np.sort(p) - np.sort(q)).mean())

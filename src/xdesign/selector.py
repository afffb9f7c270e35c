"""Normalization, risk aggregation, and the robust (worst-case) design decision."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .risk import COMPONENT_NAMES, CONSTANT, N_CHANNELS, PlanningWeights

__all__ = [
    "RiskSurface",
    "RobustDecision",
    "risk_surface",
    "robust_select",
    "dominance_audit",
    "weight_winner_search",
]


@dataclass(frozen=True)
class RiskSurface:
    """Raw and normalized component scores plus the aggregated risk per cell."""

    raw: np.ndarray  # (..., n_designs, n_grid, 6) replication means
    normalized: np.ndarray  # same shape, each component in [-1, 1] within its surface
    risks: np.ndarray  # (..., n_designs, n_grid)
    weights: PlanningWeights
    scale: np.ndarray  # (..., 6) per-component normalizers of each surface
    se: np.ndarray | None = None  # normalized replication standard errors

    @property
    def n_designs(self) -> int:
        return self.raw.shape[-3]

    @property
    def n_grid(self) -> int:
        return self.raw.shape[-2]


def risk_surface(
    per_rep: np.ndarray, weights: PlanningWeights, names: Sequence[str] | None = None, points: str = "grid"
) -> RiskSurface:
    """Reduce per-replication scores to normalized, weighted risks.

    ``per_rep`` is the (n_designs, n_grid, reps, N_CHANNELS) array from
    :func:`xdesign.risk.score_grid`, or a stack of them with leading axes
    (..., n_designs, n_grid, reps, N_CHANNELS); each leading index is a
    surface of its own. Each component is averaged over replications, with
    standard error std(ddof=1) / sqrt(reps) (zero for a single replication).
    Geometry, the op cost and mismatch are the same in every replication, so
    they are read from the first one and their standard errors are exactly
    zero. Each surface divides each component by its largest absolute value
    over its designs and points (by 1 where that is 0, so a zero component
    stays zero), then weights the six. The bias channel does not enter the
    risk. A component that is not finite is reported with the first design
    that has one in the first surface that has one (C order), named from
    ``names``, and the config sections that scale it: ``calibration`` and
    the one that set the mechanism ``points``.
    """
    per_rep = np.asarray(per_rep, dtype=float)
    if per_rep.ndim < 4 or per_rep.shape[-1] != N_CHANNELS or per_rep.size == 0:
        raise ConfigurationError(
            f"per-replication scores must have shape (..., n_designs, n_grid, reps, {N_CHANNELS})"
        )
    components = per_rep[..., : N_CHANNELS - 1]
    reps = per_rep.shape[-2]
    raw = components.mean(axis=-2)
    raw[..., CONSTANT] = per_rep[..., 0, CONSTANT]
    bad = ~np.isfinite(raw)
    if bad.any():
        # C order: the first bad surface, its first bad design, that design's first bad component.
        *_, design, component = np.argwhere(bad.any(axis=-2))[0]
        name = design if names is None else repr(names[design])
        raise ConfigurationError(
            f"component scores must be finite: the {COMPONENT_NAMES[component]} of design {name} is not"
            f" (calibration and {points} scale it)"
        )
    se = components.std(axis=-2, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros_like(raw)
    se[..., CONSTANT] = 0.0
    scale = np.abs(raw).max(axis=(-3, -2))
    safe = np.where(scale > 0, scale, 1.0)[..., None, None, :]
    normalized = raw / safe
    return RiskSurface(
        raw=raw,
        normalized=normalized,
        risks=normalized @ weights.as_vector(),
        weights=weights,
        scale=scale,
        se=se / safe,
    )


@dataclass(frozen=True)
class RobustDecision:
    """Worst-case risks, the selected design, and the certified shortlist."""

    q: tuple[float, ...]
    selected: int
    epsilon_t: float
    shortlist: tuple[int, ...]
    worst_theta: tuple[int, ...]
    separation_margin: float


def robust_select(
    surface: RiskSurface,
    shortlist_fraction: float = 0.10,
    epsilon_t: float | None = None,
    epsilon_mode: str = "fraction",
) -> RobustDecision:
    """Pick the design minimizing worst-case risk over the grid.

    The planning-error budget defaults to ``shortlist_fraction`` times the best
    worst-case risk; ``epsilon_mode="stderr"`` instead plugs the worst
    normalized replication standard error per component into the weighted
    budget, and an explicit ``epsilon_t`` overrides both. The shortlist
    contains every design within twice the budget of the winner, ordered by
    worst-case risk (ties by catalog order).
    """
    if shortlist_fraction < 0:
        raise ConfigurationError("shortlist_fraction must be >= 0")
    if epsilon_mode not in ("fraction", "stderr"):
        raise ConfigurationError(f"unknown epsilon_mode {epsilon_mode!r}")
    risks = surface.risks
    if risks.ndim != 2:
        raise ConfigurationError(
            f"robust_select takes one surface, with risks of shape (n_designs, n_grid), not {risks.shape}"
        )
    if not np.all(np.isfinite(risks)):
        raise ConfigurationError("risk surface contains non-finite cells")
    q = risks.max(axis=1)
    worst = risks.argmax(axis=1)
    selected = int(q.argmin())  # argmin takes the first (catalog-order) minimizer

    if epsilon_t is not None:
        eps = float(epsilon_t)
    elif epsilon_mode == "stderr":
        if surface.se is None:
            raise ConfigurationError("stderr epsilon mode needs replication standard errors")
        eps = float(surface.weights.as_vector() @ surface.se.max(axis=(0, 1)))
    else:
        eps = shortlist_fraction * float(q[selected])
    if not np.isfinite(eps):
        raise ConfigurationError(f"epsilon_t is not finite (shortlist_fraction={shortlist_fraction:g})")

    cutoff = float(q[selected]) + 2.0 * eps
    members = [d for d in range(len(q)) if q[d] <= cutoff]
    members.sort(key=lambda d: (q[d], d))
    if len(q) > 1:
        margin = float(np.sort(q)[1] - q[selected])
    else:
        margin = 0.0
    return RobustDecision(
        q=tuple(float(x) for x in q),
        selected=selected,
        epsilon_t=eps,
        shortlist=tuple(members),
        worst_theta=tuple(int(w) for w in worst),
        separation_margin=margin,
    )


def dominance_audit(raw: np.ndarray) -> int | None:
    """Return the design that weakly dominates all others on every raw component
    at every grid point, or None when no such design exists."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 3:
        raise ConfigurationError("raw surface must have shape (n_designs, n_grid, 6)")
    for d in range(raw.shape[0]):
        if np.all(raw[d][None, :, :] <= raw + 1e-15):
            return d
    return None


def weight_winner_search(
    raw: np.ndarray, n_samples: int = 1000, seed: int = 0
) -> set[int]:
    """Winners of random nonnegative weightings at random grid points.

    When no design componentwise-dominates, distinct winners appear for
    different weightings; a singleton result is evidence of dominance.
    """
    raw = np.asarray(raw, dtype=float)
    rng = np.random.default_rng(seed)
    winners: set[int] = set()
    n_grid = raw.shape[1]
    for _ in range(n_samples):
        w = rng.random(raw.shape[2])
        k = int(rng.integers(0, n_grid))
        winners.add(int((raw[:, k, :] @ w).argmin()))
    return winners

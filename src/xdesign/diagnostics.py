"""Executable stress tests for the selector's guarantees.

Each check constructs a controlled scenario in which the relevant bound or
equality can be verified numerically: transport bias bounds, minimax tightness
of the geometry penalty, finite-catalog approximation, MDE scaling with
duration, the mechanism-intensity regime sweep, and the low-vs-high
replication oracle comparison. Every check is deterministic given its seed and
returns a JSON-ready report dict with a top-level ``passed`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .designs import DesignSpec, default_catalog, effective_units
from .errors import ConfigurationError, PlanningError
from .mechanisms import BUDGET_TOP, CARRY_TOP, GRAPH_TOP, LOCALITIES, AmbiguityGrid, MechanismPoint
from .panel import CalibrationScales, Panel, SyntheticPanelConfig, calibrate_scales, generate_synthetic_panel
from .risk import COMPONENT_NAMES, PlanningWeights, mde, score_grid, score_groups
from .selector import dominance_audit, risk_surface, robust_select, weight_winner_search

__all__ = [
    "TransportScenario",
    "SweepConfig",
    "SweepResult",
    "default_transport_scenarios",
    "transport_bound_check",
    "minimax_tightness_check",
    "random_smooth_surface",
    "catalog_approximation_check",
    "mde_grid",
    "default_sweep_mapping",
    "regime_sweep",
    "oracle_comparison",
    "dominance_check",
    "wasserstein1_1d",
]

TOLERANCE = 1e-9
TRANSPORT_COUNT = 100
# The checks that ``xdesign diagnose`` runs, by the names that select them.
DIAGNOSTIC_NAMES = ("transport", "minimax", "catalog", "mde", "oracle", "dominance")


# ---------------------------------------------------------------------------
# Transport bound and minimax tightness


@dataclass(frozen=True)
class TransportScenario:
    """One bias-vs-bound case: a Beta(*params) sample of size n, its shift, and a slope bound."""

    params: tuple[float, float] = (2.0, 5.0)
    shift: float = 0.3
    lipschitz: float = 1.0
    n: int = 400

    def __post_init__(self) -> None:
        if self.lipschitz <= 0:
            raise ConfigurationError("lipschitz must be > 0")
        if self.n < 1:
            raise ConfigurationError("sample size must be >= 1")


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


def _make_response(
    scenario: TransportScenario, lo: float, hi: float, rng: np.random.Generator
) -> Callable[[np.ndarray], np.ndarray]:
    L = scenario.lipschitz
    # Piecewise-linear with slopes clipped to [-L, L]: Lipschitz by construction.
    n_knots = 9
    xs = np.linspace(lo - 1e-9, hi + 1e-9, n_knots)
    slopes = rng.uniform(-L, L, n_knots - 1)
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return lambda x: np.interp(x, xs, ys)


def default_transport_scenarios(count: int = TRANSPORT_COUNT, seed: int = 2024) -> list[TransportScenario]:
    """Seeded beta-shift scenarios with random Lipschitz constants."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            TransportScenario(
                params=(float(rng.uniform(0.6, 5.0)), float(rng.uniform(0.6, 5.0))),
                shift=float(rng.uniform(-1.0, 1.0)),
                lipschitz=float(rng.uniform(0.25, 4.0)),
                n=400,
            )
        )
    return out


def transport_bound_check(
    scenarios: Sequence[TransportScenario], seed: int = 0, tolerance: float = TOLERANCE
) -> dict:
    """Verify |mean r(P) - mean r(Q)| <= L * W1(P, Q) per scenario.

    P is the scenario's Beta sample and Q its shift; r is a random
    piecewise-linear response with slopes in [-L, L].
    """
    cases = []
    for i, sc in enumerate(scenarios):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        p = rng.beta(*sc.params, sc.n)
        q = p + sc.shift
        r = _make_response(sc, float(min(p.min(), q.min())), float(max(p.max(), q.max())), rng)
        bias = abs(float(r(p).mean()) - float(r(q).mean()))
        bound = sc.lipschitz * wasserstein1_1d(p, q)
        cases.append(
            {
                "shift": sc.shift,
                "lipschitz": sc.lipschitz,
                "bias": bias,
                "bound": bound,
                "pass": bias <= bound + tolerance,
            }
        )
    return {
        "check": "transport_bound",
        "passed": all(c["pass"] for c in cases),
        "tolerance": tolerance,
        "cases": cases,
    }


def minimax_tightness_check(
    L_values: Sequence[float],
    delta_values: Sequence[float],
    tolerance: float = TOLERANCE,
) -> dict:
    """Point-mass construction attaining the geometry penalty exactly.

    With P a point mass (64 draws at 0.2), Q its shift by delta, and the
    steepest admissible linear response, the attained gap equals the penalty,
    so every ratio is 1. A zero shift is reported as ratio 1 by convention
    (0/0 guard).
    """
    cases = []
    for L in L_values:
        for delta in delta_values:
            p = np.full(64, 0.2)
            q = p + delta
            gap = abs(float(L * p.mean()) - float(L * q.mean()))
            penalty = L * wasserstein1_1d(p, q)
            ratio = gap / penalty if penalty > 0 else 1.0
            cases.append(
                {
                    "lipschitz": float(L),
                    "shift": float(delta),
                    "ratio": ratio,
                    "pass": abs(ratio - 1.0) <= tolerance,
                }
            )
    return {
        "check": "minimax_tightness",
        "passed": all(c["pass"] for c in cases),
        "tolerance": tolerance,
        "cases": cases,
    }


# ---------------------------------------------------------------------------
# Finite-catalog approximation


def random_smooth_surface(seed: int = 0) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """A random low-frequency Fourier surface on [0, 1] and a bound on its slope."""
    rng = np.random.default_rng(seed)
    n_terms = int(rng.integers(3, 7))
    freqs = rng.integers(1, 5, n_terms)
    amps = rng.uniform(0.1, 1.0, n_terms)
    phases = rng.uniform(0.0, 2.0 * math.pi, n_terms)
    offset = float(rng.uniform(0.0, 2.0))

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = np.full_like(x, offset)
        for a, k, ph in zip(amps, freqs, phases):
            total = total + a * np.sin(2.0 * math.pi * k * x + ph)
        return total

    lipschitz = float(np.sum(2.0 * math.pi * freqs * amps))
    return f, lipschitz


def catalog_approximation_check(
    surface: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    catalog_sizes: Sequence[int],
    tolerance: float = TOLERANCE,
) -> dict:
    """Compare uniform-grid catalog gaps with the Lipschitz-net bound.

    The global minimum is approximated by a 100 000-point scan; a size-k
    uniform grid is a net of radius 1 / (2 (k - 1)), so the observed gap must
    stay below lipschitz * radius.
    """
    if any(k < 2 for k in catalog_sizes):
        raise ConfigurationError("catalog sizes must be >= 2")
    dense = np.linspace(0.0, 1.0, 100_000)
    global_min = float(surface(dense).min())
    cases = []
    for k in catalog_sizes:
        catalog = np.linspace(0.0, 1.0, int(k))
        gap = float(surface(catalog).min()) - global_min
        radius = 1.0 / (2.0 * (k - 1))
        cases.append(
            {
                "size": int(k),
                "radius": radius,
                "gap": gap,
                "bound": lipschitz * radius,
                "pass": gap <= lipschitz * radius + tolerance,
            }
        )
    return {
        "check": "catalog_approximation",
        "passed": all(c["pass"] for c in cases),
        "lipschitz": lipschitz,
        "tolerance": tolerance,
        "cases": cases,
    }


# ---------------------------------------------------------------------------
# MDE grid


def mde_grid(
    designs: Sequence[DesignSpec],
    panel: Panel,
    weights: PlanningWeights,
    durations: Sequence[int],
    seed: int = 0,
) -> dict:
    """Planning MDE per design and duration.

    Each design's assignment-unit variance is the kernel's ``variance``
    channel for one replication over the panel's baseline alone: no effects,
    no noise and one mechanism point, so design ``d`` replays from seed
    ``(seed, d, 0)``. The kernel counts effective units at the shortest
    duration, which has the fewest. Duration enters the MDE only through the
    effective assignment-unit count.
    """
    if min(durations, default=0) < 1:
        raise ConfigurationError("durations must be non-empty, each >= 1 week")
    designs = list(designs)
    scores = score_groups(
        panel,
        designs,
        [[MechanismPoint(0.0, 0.0, 0.0)]],
        CalibrationScales(0.0, 0.0, 0.0),
        replace(weights, t_weeks=int(min(durations))),
        reps=1,
        master_seed=seed,
    )
    rows = []
    for design, v in zip(designs, scores[:, 0, 0, COMPONENT_NAMES.index("variance")].tolist()):
        cells = {}
        for t_weeks in durations:
            n_eff = effective_units(design, panel, int(t_weeks), weights.periods_per_week)
            cells[int(t_weeks)] = mde(v, n_eff, weights)
        if not np.isfinite([v, *cells.values()]).all():
            raise PlanningError(f"design {design.name!r}: variance or MDE is not finite (variance={v!r})")
        rows.append({"design": design.name, "variance": v, "mde": cells})
    return {"check": "mde_grid", "durations": [int(d) for d in durations], "rows": rows, "passed": True}


# ---------------------------------------------------------------------------
# Regime sweep


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def default_sweep_mapping(gamma: float) -> tuple[float, float, float]:
    """Piecewise schedule from a scalar intensity to the three channel intensities.

    Ordered so that graph spillover ramps first, budget spillover peaks
    mid-sweep and recedes to 0 at gamma 1.2, where it stays, and carryover
    dominates the top of the range.
    """
    g = GRAPH_TOP * _clamp01(3.0 * gamma - 0.5)
    b = BUDGET_TOP * _clamp01(2.0 * gamma - 0.4) * _clamp01(1.0 - max(0.0, 2.0 * gamma - 1.4))
    lam = CARRY_TOP * _clamp01(2.0 * gamma - 1.0)
    return g, b, lam


@dataclass(frozen=True)
class SweepConfig:
    """Mechanism-intensity sweep: grid, neighborhood locality, replications."""

    gamma_grid: tuple[float, ...] = tuple(round(0.1 * i, 2) for i in range(11))
    locality: str = "cluster"
    reps: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.gamma_grid) < 2 or any(
            b <= a for a, b in zip(self.gamma_grid, self.gamma_grid[1:])
        ):
            raise ConfigurationError("gamma_grid must be strictly increasing with >= 2 points")
        if self.locality not in LOCALITIES:
            raise ConfigurationError(f"locality must be one of {LOCALITIES}")
        if self.reps < 1:
            raise ConfigurationError("reps must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def theta(self, gamma: float) -> MechanismPoint:
        g, b, lam = default_sweep_mapping(gamma)
        return MechanismPoint(g, b, lam, self.locality)


@dataclass(frozen=True)
class SweepResult:
    gammas: tuple[float, ...]
    thetas: tuple[MechanismPoint, ...]
    design_names: tuple[str, ...]
    risks: np.ndarray  # (n_gammas, n_designs), normalized within each gamma
    winners: tuple[int, ...]

    @property
    def distinct_winners(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.design_names[w] for w in self.winners))


def regime_sweep(
    cfg: SweepConfig,
    panel: Panel,
    calib: CalibrationScales,
    catalog: Sequence[DesignSpec],
    weights: PlanningWeights,
) -> SweepResult:
    """Winner map over the intensity sweep.

    All sweep points are one draw group (see :func:`xdesign.risk.score_groups`):
    each (design, replication) is replayed once with seed index 0 and scores
    every intensity. Components are normalized within each sweep point across
    the catalog, so each column of the risk table is a self-contained design
    ranking.
    """
    catalog = list(catalog)
    names = tuple(d.name for d in catalog)
    thetas = [cfg.theta(gamma) for gamma in cfg.gamma_grid]
    scores = score_groups(panel, catalog, [thetas], calib, weights, reps=cfg.reps, master_seed=cfg.seed)
    risks = np.empty((len(thetas), len(catalog)))
    for g_idx in range(len(thetas)):
        risks[g_idx] = risk_surface(scores[:, g_idx : g_idx + 1], weights, names, "sweep").risks[:, 0]
    winners = [int(row.argmin()) for row in risks]
    return SweepResult(
        gammas=tuple(float(g) for g in cfg.gamma_grid),
        thetas=tuple(thetas),
        design_names=names,
        risks=risks,
        winners=tuple(winners),
    )


# ---------------------------------------------------------------------------
# Oracle comparison


def oracle_comparison(low_reps: int = 45, high_reps: int = 260, seed: int = 0) -> dict:
    """Compare a few-replay selection against a high-replication oracle run.

    The setup is fixed: a 200x8 synthetic panel with five clusters, a
    cluster-locality 2x2x2 grid, a direct effect of 1 and a 0.10 shortlist
    fraction. It is shaped so the robust winner is decisively separated (few
    clusters make the cluster-unit designs power-starved), keeping the
    few-replay selection stable across seeds.

    Both runs share the panel and the replication seed schedule, so the
    low-rep run is the first ``low_reps`` replications of the oracle's draws
    and is scored once, as a prefix. Passes when both runs select the same
    design and the worst-case risk gap stays inside the oracle run's
    certificate band (twice its planning tolerance).
    """
    if not 1 <= low_reps <= high_reps:
        raise ConfigurationError("oracle comparison needs 1 <= low_reps <= high_reps")
    panel = generate_synthetic_panel(
        SyntheticPanelConfig(n_units=200, n_clusters=5, n_budget_groups=4, n_regions=3, n_periods=8), seed=seed
    )
    calib = calibrate_scales(panel, direct_effect=1.0)
    grid = AmbiguityGrid.from_axes(
        graph_spill=(0.0, GRAPH_TOP), budget_spill=(0.0, BUDGET_TOP), carryover=(0.0, CARRY_TOP), localities=("cluster",)
    )
    weights = PlanningWeights(t_weeks=2, periods_per_week=4)
    catalog = default_catalog()
    per_rep = score_grid(panel, catalog, grid, calib, weights, reps=high_reps, master_seed=seed)
    low, high = (
        robust_select(risk_surface(scores, weights), 0.10) for scores in (per_rep[:, :, :low_reps], per_rep)
    )
    risk_gap = abs(low.q[low.selected] - high.q[high.selected])
    passed = low.selected == high.selected and risk_gap <= 2.0 * high.epsilon_t
    return {
        "check": "oracle_comparison",
        "passed": passed,
        "selected_low": catalog[low.selected].name,
        "selected_high": catalog[high.selected].name,
        "low_reps": low_reps,
        "high_reps": high_reps,
        "risk_gap": risk_gap,
        "epsilon_t": high.epsilon_t,
        "q_low": dict(zip((d.name for d in catalog), low.q)),
        "q_high": dict(zip((d.name for d in catalog), high.q)),
    }


# ---------------------------------------------------------------------------
# Dominance audit fixtures


def dominance_check(seed: int = 0) -> dict:
    """Exercise the dominance audit on constructed crossing and dominating surfaces."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 1.0, size=(4, 5, 6))
    dominating = base.copy()
    dominating[0] = base.min(axis=0) - 0.05  # strictly below every competitor

    crossing = base.copy()
    # Force a trade: design 0 best on the first component, worst on the second.
    crossing[0, :, 0] = 0.01
    crossing[0, :, 1] = 2.0
    crossing[1, :, 0] = 2.0
    crossing[1, :, 1] = 0.01

    dom_result = dominance_audit(dominating)
    cross_result = dominance_audit(crossing)
    winners = weight_winner_search(crossing, seed=seed)
    passed = dom_result == 0 and cross_result is None and len(winners) >= 2
    return {
        "check": "dominance_audit",
        "passed": passed,
        "dominating_audit": dom_result,
        "crossing_audit": cross_result,
        "distinct_weight_winners": sorted(int(w) for w in winners),
    }

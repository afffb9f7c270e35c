"""The per-point scoring pipeline, kept as the slow reference for the kernel.

``xdesign.risk.score_groups`` scores every mechanism point of a draw group in
closed form. This module scores one replication of one (design, mechanism)
point step by step instead: replay, exposure features, simulated outcomes,
then each risk component from the outcome panel. The tests compare the kernel
with ``hand_row`` to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np

from xdesign import (
    AssignmentTable,
    CalibrationScales,
    ExposurePanel,
    MechanismPoint,
    Panel,
    PlanningError,
    effective_units,
    ess_share,
    exposure_features,
    geometry_score,
    launch_effect,
    mde,
    outcome_strengths,
    replay,
)


def simulate_outcomes(
    panel: Panel,
    exposure: ExposurePanel,
    theta: MechanismPoint,
    calib: CalibrationScales,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Simulate outcomes: baseline plus direct, spillover, and carryover terms plus noise.

    Linear in the calibrated strengths; deterministic in ``seed``. Returns an
    (n_units, n_periods) array.
    """
    s = outcome_strengths(theta, calib)
    y = (
        panel.baseline
        + calib.direct_effect * exposure.direct
        + s.graph * exposure.graph_share
        + s.budget * exposure.budget_share
        + s.carry * exposure.lag
    )
    if calib.noise_sd > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, calib.noise_sd, size=y.shape)
    else:
        y = y.astype(float, copy=True)
    return y


def variance_component(outcomes: np.ndarray, assignment: AssignmentTable) -> float:
    """Sample variance of mean outcomes across assignment units."""
    labels = assignment.labels.ravel()
    values = np.asarray(outcomes, dtype=float).ravel()
    # Replay label codes are dense, so bincount beats a sort-based unique; fall
    # back for hand-built tables with sparse label values.
    if labels.min() < 0 or labels.max() >= 4 * labels.size:
        _, labels = np.unique(labels, return_inverse=True)
    counts = np.bincount(labels)
    occupied = counts > 0
    if int(occupied.sum()) < 2:
        raise PlanningError("variance needs at least 2 assignment units")
    sums = np.bincount(labels, weights=values)
    means = sums[occupied] / counts[occupied]
    return float(np.var(means, ddof=1))


def _switch_rate(z: np.ndarray) -> float:
    if z.shape[1] < 2:
        return 0.0
    return float((z[:, 1:] != z[:, :-1]).mean())


def contamination(
    exposure: ExposurePanel,
    assignment: AssignmentTable,
    theta: MechanismPoint,
    ess: float | None = None,
) -> float:
    """Control-arm spillover exposure plus switching, normalized by total intensity.

    Averages the treated shares seen by control cells, weighted per channel,
    plus the carryover-weighted treatment switch rate; a (1 - ess) support
    stress is added when an effective-sample share is supplied. Falls back to
    the stress alone when intensities are all zero or no control cells exist.
    """
    stress = (1.0 - ess) if ess is not None else 0.0
    total = theta.intensity_sum
    control = assignment.z == 0
    if total == 0.0 or not control.any():
        return stress
    num = (
        theta.graph_spill * float(exposure.graph_share[control].mean())
        + theta.budget_spill * float(exposure.budget_share[control].mean())
        + theta.carryover * _switch_rate(assignment.z)
    )
    return num / total + stress


def estimand_mismatch(exposure: ExposurePanel, ess: float | None = None) -> float:
    """Unweighted mean L1 gap per coordinate between exposure and the launch profile.

    Unlike the geometry score this treats all four coordinates equally, so it
    captures how far the design's estimand sits from the launch estimand even
    for channels the current mechanism happens to switch off, and it does not
    depend on the mechanism at all. Support stress is added as in
    :func:`contamination`.
    """
    stress = (1.0 - ess) if ess is not None else 0.0
    gap = (
        np.abs(1.0 - exposure.direct)
        + np.abs(1.0 - exposure.budget_share)
        + np.abs(1.0 - exposure.graph_share)
        + np.abs(1.0 - exposure.lag)
    )
    return float(gap.mean()) / 4.0 + stress


def hand_row(design, theta, panel, calib, weights, seed) -> np.ndarray:
    """One replication run step by step through the per-point pipeline.

    The slow reference for the closed-form scoring kernel: it replays, builds
    the exposure panel and simulates outcomes for this one mechanism point.
    """
    replay_seed, noise_seed = seed.spawn(2)
    table = replay(design, panel, seed=replay_seed)
    expo = exposure_features(table, panel, theta)
    y = simulate_outcomes(panel, expo, theta, calib, seed=noise_seed)
    v = variance_component(y, table)
    n_eff = effective_units(design, panel, weights.t_weeks, weights.periods_per_week)
    ess = ess_share(panel.propensities) if panel.propensities is not None else None
    treated = table.z == 1
    if treated.all() or not treated.any():
        estimate = float((y - panel.baseline).mean())
    else:
        estimate = float(y[treated].mean() - y[~treated].mean())
    return np.array([
        geometry_score(expo, theta),
        v,
        mde(v, n_eff, weights),
        contamination(expo, table, theta, ess),
        design.op_cost_level,
        estimand_mismatch(expo, ess),
        estimate - launch_effect(theta, calib),
    ])

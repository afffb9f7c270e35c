"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from xdesign import (
    MechanismPoint,
    PlanningWeights,
    RiskSurface,
    dominance_audit,
    ess_share,
    mde,
    robust_select,
    weight_winner_search,
)
from xdesign.cli import run_sweep
from xdesign.config import RunConfig, load_config
from xdesign.diagnostics import (
    catalog_approximation_check,
    default_transport_scenarios,
    minimax_tightness_check,
    oracle_comparison,
    random_smooth_surface,
    transport_bound_check,
)

from reference import AssignmentTable, exposure_features, geometry_score, labelled_panel

ROOT = Path(__file__).resolve().parents[1]
WEIGHT_VECTOR = np.array([1.00, 0.80, 0.75, 0.45, 0.45, 0.65])


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


class TestAcceptance:
    def test_transport_bound(self):
        start = time.monotonic()
        scenarios = default_transport_scenarios(100, seed=2024)
        result = transport_bound_check(scenarios, seed=0, tolerance=1e-9)
        elapsed = time.monotonic() - start
        assert len(result["cases"]) == 100
        for case in result["cases"]:
            assert case["bias"] <= case["bound"] + 1e-9
        assert elapsed < 10.0, f"transport check took {elapsed:.1f}s"
        report(f"transport bound (100 scenarios, {elapsed:.2f}s)")

    def test_minimax_tightness(self):
        result = minimax_tightness_check((0.5, 1.0, 2.0), (0.1, 0.3, 0.6), tolerance=1e-9)
        assert len(result["cases"]) == 9
        for case in result["cases"]:
            assert abs(case["ratio"] - 1.0) <= 1e-9
        report("minimax tightness (9 (L, delta) pairs)")

    def test_catalog_approximation(self):
        for seed in range(20):
            surface, lipschitz = random_smooth_surface(seed)
            result = catalog_approximation_check(surface, lipschitz, (5, 10, 20, 40), tolerance=1e-9)
            for case in result["cases"]:
                assert case["gap"] <= case["bound"] + 1e-9, (seed, case)
        report("catalog approximation (20 surfaces x 4 sizes)")

    def test_selector_certificate(self):
        rng = np.random.default_rng(17)
        weights = PlanningWeights()
        n_margin = 0
        for _ in range(200):
            true_comps = rng.uniform(0.0, 1.0, size=(6, 12, 6))
            eps_components = rng.uniform(0.005, 0.03, size=6)
            observed = true_comps + rng.uniform(-1, 1, size=true_comps.shape) * eps_components
            eps_t = float(WEIGHT_VECTOR @ eps_components)

            true_q = (true_comps @ WEIGHT_VECTOR).max(axis=1)
            surface = RiskSurface(
                raw=observed, normalized=observed,
                risks=observed @ WEIGHT_VECTOR, weights=weights, scale=np.ones(6),
            )
            decision = robust_select(surface, epsilon_t=eps_t)

            true_best = int(true_q.argmin())
            excess = float(true_q[decision.selected] - true_q[true_best])
            assert excess <= 2 * eps_t + 1e-12
            assert true_best in decision.shortlist
            margin = float(np.sort(true_q)[1] - true_q.min())
            if margin > 2 * eps_t:
                n_margin += 1
                assert decision.selected == true_best
        assert n_margin >= 50  # the margin sub-claim is exercised, not vacuous
        report(f"selector certificate (200 trials, {n_margin} with margin)")

    def test_regime_sweep(self, tmp_path):
        config = load_config(ROOT / "configs" / "sweep_demo.json").with_overrides(out=str(tmp_path))
        panel_spec = config.data["panel"]["synthetic"]
        assert panel_spec["n_units"] == 2000 and panel_spec["n_periods"] == 40
        assert config.data["sweep"]["reps"] == 20
        start = time.monotonic()
        result = run_sweep(config)
        elapsed = time.monotonic() - start
        winners = result["winners"]
        assert winners[0] == "user", winners
        assert winners[-1] == "switchback", winners
        assert len(set(winners)) >= 3, winners
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        report(f"regime sweep (winners {'>'.join(dict.fromkeys(winners))}, {elapsed:.1f}s)")

    def test_oracle_comparison(self):
        shipped = oracle_comparison(seed=0, low_reps=45, high_reps=260)
        assert shipped["selected_low"] == shipped["selected_high"]
        passes = sum(
            oracle_comparison(seed=seed, low_reps=45, high_reps=260)["passed"]
            for seed in range(20)
        )
        assert passes >= 19, f"only {passes}/20 seeds inside the certificate"
        report(f"oracle comparison (45 vs 260 reps, {passes}/20 seeds)")

    def test_formula_regressions(self):
        # MDE against an independent bisection quantile oracle.
        def quantile(p: float) -> float:
            lo, hi = -10.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        oracle = (quantile(0.975) + quantile(0.8)) * math.sqrt(2.0 / 8.0)
        got = mde(1.0, 8, PlanningWeights(alpha=0.05, beta=0.2))
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(1.400792, abs=1e-5)

        # Geometry score worked example: shared budget pair, intensities (0, 0.5, 0).
        panel = labelled_panel(
            unit_ids=("u0", "u1"), cluster_ids=("c0", "c0"), budget_ids=("b0", "b0"),
            region_ids=("r0", "r0"), n_periods=1, baseline=np.zeros((2, 1)),
        )
        theta = MechanismPoint(0.0, 0.5, 0.0)
        z = np.array([[1], [0]], dtype=np.int8)
        assignment = AssignmentTable(z=z, labels=np.array([[0], [1]], dtype=np.int64))
        expo = exposure_features(assignment, panel, theta)
        assert geometry_score(expo, theta) == pytest.approx(0.5, abs=1e-12)

        # Effective-sample-size share regressions.
        assert ess_share([0.5, 0.25]) == pytest.approx(0.9, abs=1e-12)
        assert ess_share([0.2] * 17) == 1.0
        report("formula regressions (mde, geometry, ess)")

    def test_determinism_across_thread_caps(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "panel": {"synthetic": {"n_units": 100, "n_clusters": 5, "n_budget_groups": 4,
                                            "n_regions": 2, "n_periods": 6}},
                    "calibration": {"direct_effect": 1.0},
                    "grid": {"graph_spill": [0.0, 0.3], "budget_spill": [0.0, 0.5],
                             "carryover": [0.0, 0.2], "localities": ["cluster", "region"]},
                    "weights": {"t_weeks": 2, "periods_per_week": 3},
                    "reps": 4,
                    "seed": 3,
                    "out": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        # OpenBLAS and OpenMP read their thread counts when numpy loads, so
        # each cap runs select in a fresh process.
        run = "import sys; from xdesign.cli import main; sys.exit(main(sys.argv[1:]))"
        snapshots = []
        for threads in ("1", "4"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
            )
            subprocess.run(
                [sys.executable, "-c", run, "select", "--config", str(config_path)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            snapshots.append(
                {
                    name: (tmp_path / "out" / name).read_bytes()
                    for name in ("decision.json", "surface.csv")
                }
            )
        assert snapshots[0] == snapshots[1]
        report("determinism (BLAS/OpenMP thread caps 1 vs 4, byte-identical artifacts)")

    def test_dominance_audit(self):
        rng = np.random.default_rng(23)
        crossing = rng.uniform(0.4, 1.2, size=(4, 8, 6))
        crossing[0, :, 0], crossing[0, :, 1] = 0.01, 3.0
        crossing[1, :, 0], crossing[1, :, 1] = 3.0, 0.01
        assert dominance_audit(crossing) is None
        winners = weight_winner_search(crossing, n_samples=1000, seed=0)
        assert len(winners) >= 2

        dominating = rng.uniform(0.4, 1.2, size=(4, 8, 6))
        dominating[2] = dominating.min(axis=0) - 0.05
        assert dominance_audit(dominating) == 2
        report(f"dominance audit (crossing: none + {len(winners)} winners; dominator found)")

"""Tests for the ambiguity grid and the kernel's intensity-to-outcome calibration map."""

from types import SimpleNamespace

import pytest

from xdesign import AmbiguityGrid, CalibrationScales, ConfigurationError, MechanismPoint, default_grid, risk

CAL = CalibrationScales(direct_effect=0.2, spill_scale=1.0, carry_scale=1.0)


def outcome_strengths(theta: MechanismPoint, calib: CalibrationScales) -> SimpleNamespace:
    """The strengths in the kernel's outcome map of ``theta``, a cluster-locality point.

    Its graph share is the feature row after the budget share's.
    """
    assert theta.locality == "cluster"
    outcome = risk._batches([(theta,)], calib)[0].outcome[:, 0]
    return SimpleNamespace(graph=outcome[risk._BUDGET + 1], budget=outcome[risk._BUDGET], carry=outcome[risk._LAG])


def launch_effect(theta: MechanismPoint, calib: CalibrationScales) -> float:
    """The kernel's launch effect of ``theta``."""
    return risk._batches([(theta,)], calib)[0].target[0]


class TestDefaultGrid:
    def test_full_audit_grid_size(self):
        assert len(default_grid()) == 81

    def test_lexicographic_order(self):
        points = list(default_grid())
        keys = [(p.graph_spill, p.budget_spill, p.carryover, p.locality) for p in points]
        # Localities rotate fastest, then carryover, budget, graph.
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], ("cluster", "budget", "region").index(k[3])))

    def test_contains_origin_for_each_locality(self):
        points = set(default_grid())
        for locality in ("cluster", "budget", "region"):
            assert MechanismPoint(0.0, 0.0, 0.0, locality) in points

    def test_contains_max_point(self):
        points = set(default_grid())
        for locality in ("cluster", "budget", "region"):
            assert MechanismPoint(0.3, 0.5, 0.2, locality) in points

    def test_all_points_valid(self):
        for p in default_grid():
            assert p.graph_spill >= 0 and p.budget_spill >= 0 and p.carryover >= 0
            assert p.locality in ("cluster", "budget", "region")

    def test_duplicates_rejected(self):
        p = MechanismPoint(0.1, 0.1, 0.1)
        with pytest.raises(ConfigurationError):
            AmbiguityGrid((p, p))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            MechanismPoint(-0.1, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            MechanismPoint(0.0, 0.0, 0.0, "galaxy")


class TestOutcomeStrengths:
    def test_zero_point_maps_to_zero(self):
        s = outcome_strengths(MechanismPoint(0.0, 0.0, 0.0), CAL)
        assert (s.graph, s.budget, s.carry) == (0.0, 0.0, 0.0)

    def test_grid_maximum_with_unit_scales(self):
        s = outcome_strengths(MechanismPoint(0.3, 0.5, 0.2), CAL)
        assert s.graph == pytest.approx(0.5)
        assert s.budget == pytest.approx(0.5)
        assert s.carry == pytest.approx(1.0)

    def test_spill_scale_doubles_spillovers_only(self):
        theta = MechanismPoint(0.15, 0.25, 0.1)
        base = outcome_strengths(theta, CAL)
        doubled = outcome_strengths(
            theta, CalibrationScales(direct_effect=0.2, spill_scale=2.0, carry_scale=1.0)
        )
        assert doubled.graph == pytest.approx(2 * base.graph)
        assert doubled.budget == pytest.approx(2 * base.budget)
        assert doubled.carry == pytest.approx(base.carry)

    def test_componentwise_linearity_in_intensities(self):
        base = MechanismPoint(0.12, 0.3, 0.08)
        s0 = outcome_strengths(base, CAL)
        for scale in (0.5, 2.0, 3.7):
            s_g = outcome_strengths(MechanismPoint(scale * base.graph_spill, base.budget_spill, base.carryover), CAL)
            assert s_g.graph == pytest.approx(scale * s0.graph)
            assert s_g.budget == pytest.approx(s0.budget)
            s_c = outcome_strengths(MechanismPoint(base.graph_spill, base.budget_spill, scale * base.carryover), CAL)
            assert s_c.carry == pytest.approx(scale * s0.carry)


class TestLaunchEffect:
    def test_zero_intensities_give_direct_effect(self):
        assert launch_effect(MechanismPoint(0.0, 0.0, 0.0), CAL) == pytest.approx(0.2)

    def test_max_point_sums_components(self):
        assert launch_effect(MechanismPoint(0.3, 0.5, 0.2), CAL) == pytest.approx(2.2)

    def test_additive_in_direct_effect(self):
        theta = MechanismPoint(0.1, 0.2, 0.05)
        lo = launch_effect(theta, CalibrationScales(0.0, 1.0, 1.0))
        hi = launch_effect(theta, CalibrationScales(0.7, 1.0, 1.0))
        assert hi - lo == pytest.approx(0.7)

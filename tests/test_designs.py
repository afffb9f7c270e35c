"""Tests for the design catalog, replay rules, and effective assignment-unit counts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xdesign import (
    ConfigurationError,
    DesignSpec,
    PlanningError,
    SyntheticPanelConfig,
    default_catalog,
    effective_units,
    generate_synthetic_panel,
)
from xdesign.config import RunConfig
from xdesign.designs import KINDS, _AtomRule, _assign_atoms, _draw_uniforms

from reference import AssignmentTable, allocating_draw_atoms, replay


@pytest.fixture(scope="module")
def panel():
    cfg = SyntheticPanelConfig(
        n_units=240, n_clusters=12, n_budget_groups=6, n_regions=3, n_periods=12
    )
    return generate_synthetic_panel(cfg, seed=5)


# The second setting of each replay test: treat_prob 0.5, or 0.2 when skewed.
SKEWED_PROB = {False: 0.5, True: 0.2}


def kernel_atoms(rule: _AtomRule, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One replay's atoms as the kernel draws them: (n_atoms,) treatment and ``mixed``'s labels, else -1."""
    draws = np.empty((1, rule.n_draws))
    _draw_uniforms(rule, rng, draws)
    z, whole = np.empty((1, rule.source.size)), np.full((1, rule.n_groups), -1.0)
    _assign_atoms(rule, draws, z, whole)
    return z[0], whole_cluster_labels(rule, whole[0])


def whole_cluster_labels(rule: _AtomRule, whole: np.ndarray) -> np.ndarray:
    """Each unit's label under the kernel's whole clusters, or -1 for every atom where ``whole`` is untouched (-1).

    A unit of a whole cluster takes its cluster as its label; any other is
    its own, ``n_groups`` past the clusters.
    """
    if np.all(whole == -1):
        return np.full(rule.source.size, -1, dtype=np.int64)
    units = np.arange(rule.source.size, dtype=np.int64)
    return np.where(np.take(whole, rule.codes) == 1, rule.codes, rule.n_groups + units)


class TestReplayRules:
    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_one_saturation_level_treats_no_atom_or_every_atom(self, panel, level):
        # The ordinary rule reaches a single-arm replay with no override: a
        # two_stage design whose one level is 1 treats every atom (π = 1),
        # one whose level is 0 treats none (π = 0). Labels stay the clusters.
        design = DesignSpec(kind="two_stage", saturation_levels=(level,))
        assert _AtomRule.build(design, panel).marginal == level
        for seed in range(3):
            table = replay(design, panel, seed=seed)
            assert np.all(table.z == level)
            assert np.array_equal(table.labels, np.repeat(panel.group_codes("cluster")[:, None], panel.n_periods, 1))
        # The kernel draws the same atoms.
        assert_chunked_draws_match(design, panel)

    def test_same_seed_identical(self, panel):
        for kind in ("user", "cluster", "switchback", "budget_split", "two_stage", "mixed"):
            design = DesignSpec(kind=kind, block_length=3)
            a = replay(design, panel, seed=42)
            b = replay(design, panel, seed=42)
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.labels, b.labels)

    def test_user_constant_over_periods(self, panel):
        table = replay(DesignSpec(kind="user"), panel, seed=1)
        assert np.all(table.z == table.z[:, :1])

    def test_cluster_units_share_assignment(self, panel):
        table = replay(DesignSpec(kind="cluster"), panel, seed=2)
        for code in range(panel.n_clusters):
            members = panel.group_codes("cluster") == code
            assert len(np.unique(table.z[members])) == 1

    def test_budget_split_groups_share_assignment(self, panel):
        table = replay(DesignSpec(kind="budget_split"), panel, seed=3)
        for code in range(panel.n_budget_groups):
            members = panel.group_codes("budget") == code
            assert len(np.unique(table.z[members])) == 1

    def test_switchback_constant_within_region_block(self, panel):
        design = DesignSpec(kind="switchback", block_length=4)
        table = replay(design, panel, seed=4)
        for region in range(panel.n_regions):
            members = panel.group_codes("region") == region
            for block_start in range(0, panel.n_periods, 4):
                block = table.z[members, block_start : block_start + 4]
                assert len(np.unique(block)) == 1

    def test_assignment_constant_within_labels(self, panel):
        # For label-randomized designs one draw covers the whole label. The
        # two-stage design draws a saturation level per cluster label and then
        # randomizes units inside, so it is exempt by construction.
        for kind in ("user", "cluster", "switchback", "budget_split"):
            table = replay(DesignSpec(kind=kind, block_length=3), panel, seed=7)
            z, labels = table.z.ravel(), table.labels.ravel()
            treated_labels = set(labels[z == 1])
            control_labels = set(labels[z == 0])
            assert not treated_labels & control_labels, kind

    def test_two_stage_cluster_shares_match_a_saturation_level(self, panel):
        design = DesignSpec(kind="two_stage", saturation_levels=(0.0, 1.0))
        table = replay(design, panel, seed=7)
        # Degenerate levels make within-cluster shares exactly 0 or 1.
        for code in range(panel.n_clusters):
            share = table.z[panel.group_codes("cluster") == code].mean()
            assert share in (0.0, 1.0)

    def test_mixed_branches(self, panel):
        # mixture_prob 1 behaves like cluster assignment, 0 like user assignment.
        all_cluster = replay(DesignSpec(kind="mixed", mixture_prob=1.0), panel, seed=8)
        for code in range(panel.n_clusters):
            members = panel.group_codes("cluster") == code
            assert len(np.unique(all_cluster.z[members])) == 1
        all_unit = replay(DesignSpec(kind="mixed", mixture_prob=0.0), panel, seed=8)
        assert len(np.unique(all_unit.labels)) == panel.n_units


def assert_chunked_draws_match(design: DesignSpec, panel) -> None:
    """Draw as the kernel does and compare every slot with ``allocating_draw_atoms``, bit for bit.

    The kernel's way: chunks of slots whose draws come from two generators,
    interleaved, into buffers that hold the previous chunk; the last chunk is
    short. Each run of consecutive slots on one generator makes its generator
    calls at once, then the whole chunk is mapped at once. The atom count
    comes from the panel, not from the rule.
    """
    rule = _AtomRule.build(design, panel)
    n_atoms = panel.n_regions * panel.n_periods if design.kind == "switchback" else panel.n_units
    assert rule.source.shape == (n_atoms,)
    assert 0 <= rule.source.min() and rule.source.max() < rule.n_draws
    chunk, slot_stream = 3, [0, 1, 1, 0, 0, 1, 0]
    draws = np.full((chunk, rule.n_draws), np.nan)
    z, whole = np.full((chunk, n_atoms), np.nan), np.full((chunk, rule.n_groups), -1.0)
    ours = [np.random.default_rng(seed) for seed in (3, 8)]
    theirs = [np.random.default_rng(seed) for seed in (3, 8)]
    for start in range(0, len(slot_stream), chunk):
        streams = slot_stream[start : start + chunk]
        n_slots = len(streams)
        lo = 0
        for s, run in itertools.groupby(streams):
            hi = lo + len(list(run))
            _draw_uniforms(rule, ours[s], draws[lo:hi])
            lo = hi
        _assign_atoms(rule, draws[:n_slots], z[:n_slots], whole[:n_slots])
        for i, s in enumerate(streams):
            expected_z, expected_labels = allocating_draw_atoms(design, panel, theirs[s])
            assert np.array_equal(z[i], expected_z)
            if design.kind == "mixed":
                assert np.array_equal(whole_cluster_labels(rule, whole[i]), expected_labels)
            else:
                assert expected_labels is None
                assert np.all(whole[i] == -1)
        for mine, reference in zip(ours, theirs):
            assert mine.bit_generator.state == reference.bit_generator.state
    assert n_slots < chunk


class TestAtoms:
    # Every rule draws per atom: a unit over all its periods, or a
    # (region, period) pair in region-major order for switchbacks.

    @pytest.mark.parametrize("block_length", [1, 3])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_draws_match_the_allocating_rule_bit_for_bit(self, panel, kind, skewed, block_length):
        design = DesignSpec(
            kind=kind, treat_prob=SKEWED_PROB[skewed], block_length=block_length, saturation_levels=(0.1, 0.5, 0.9)
        )
        assert_chunked_draws_match(design, panel)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        treat_prob=st.sampled_from((0.5, 0.2)),
        block_length=st.integers(1, 12),
        mixture_prob=st.sampled_from((0.0, 0.5, 1.0)),
        shape=st.tuples(st.integers(2, 12), st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 9)),
        panel_seed=st.integers(0, 2**16),
    )
    def test_draws_match_the_allocating_rule_on_random_panels(
        self, kind, treat_prob, block_length, mixture_prob, shape, panel_seed
    ):
        # Small clusters, one to four regions, and blocks that may outlast the panel.
        n_units, n_clusters, n_budget, n_regions, n_periods = shape
        panel = generate_synthetic_panel(
            SyntheticPanelConfig(n_units, n_clusters, n_budget, n_regions, n_periods), seed=panel_seed
        )
        design = DesignSpec(
            kind=kind, treat_prob=treat_prob, block_length=block_length, mixture_prob=mixture_prob,
            saturation_levels=(0.1, 0.5, 0.9),
        )
        assert_chunked_draws_match(design, panel)

    def test_one_uniform_call_draws_what_three_calls_draw(self, panel):
        # mixed draws its whole-cluster coins, cluster draws and unit draws
        # with one random(2G + n) into a row of its buffer; three calls of
        # sizes G, G and n draw the same doubles and leave the same state.
        rule = _AtomRule.build(DesignSpec(kind="mixed"), panel)
        n_groups, n_units = rule.n_groups, panel.n_units
        assert rule.n_draws == 2 * n_groups + n_units
        row = np.empty((2, rule.n_draws))[1]
        for seed in range(3):
            one, three = np.random.default_rng(seed), np.random.default_rng(seed)
            one.random(out=row)
            calls = [three.random(n_groups), three.random(n_groups), three.random(n_units)]
            assert np.array_equal(row, np.concatenate(calls))
            assert one.bit_generator.state == three.bit_generator.state

    @pytest.mark.parametrize("block_length", [1, 3])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_replay_is_the_cell_view_of_its_atoms(self, panel, kind, skewed, block_length):
        # The reference replay draws on its own; spread over cells, its
        # atoms are the kernel's.
        design = DesignSpec(kind=kind, treat_prob=SKEWED_PROB[skewed], block_length=block_length)
        units = np.arange(panel.n_units)[:, None]
        periods = np.arange(panel.n_periods)
        if kind == "switchback":
            atom_of_cell = panel.group_codes("region")[:, None] * panel.n_periods + periods
        else:
            atom_of_cell = np.broadcast_to(units, (panel.n_units, panel.n_periods))
        rule = _AtomRule.build(design, panel)
        assert (rule.labels is None) == (kind == "mixed")
        for seed in range(5):
            table = replay(design, panel, seed=seed)
            z, labels = kernel_atoms(rule, np.random.default_rng(seed))
            if rule.labels is not None:
                labels = rule.labels
            assert np.array_equal(table.z, z[atom_of_cell])
            assert np.array_equal(table.labels, labels[atom_of_cell])

    @pytest.mark.parametrize("block_length", [1, 3])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_replay_is_constant_on_each_atom(self, panel, kind, skewed, block_length):
        design = DesignSpec(kind=kind, treat_prob=SKEWED_PROB[skewed], block_length=block_length)
        for seed in range(5):
            table = replay(design, panel, seed=seed)
            for cells in (table.z, table.labels):
                if kind == "switchback":
                    for region in range(panel.n_regions):
                        members = cells[panel.group_codes("region") == region]
                        assert np.all(members == members[:1])
                else:
                    assert np.all(cells == cells[:, :1])


class TestAssignmentTable:
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_replay_tables_pass_validation(self, panel, kind, skewed):
        # The reference replay spreads its atom draws over cells; the table
        # it builds must hold the cell view's dtypes and shape.
        table = replay(DesignSpec(kind=kind, block_length=3, treat_prob=SKEWED_PROB[skewed]), panel, seed=4)
        assert table.z.dtype == np.int8 and table.labels.dtype == np.int64
        assert table.z.shape == table.labels.shape == (panel.n_units, panel.n_periods)
        checked = AssignmentTable(z=table.z, labels=table.labels)
        assert np.array_equal(checked.z, table.z) and np.array_equal(checked.labels, table.labels)

    def test_user_tables_are_validated(self):
        labels = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="0/1"):
            AssignmentTable(z=np.array([[0, 2], [1, 0]]), labels=labels)
        with pytest.raises(ConfigurationError, match="shape"):
            AssignmentTable(z=np.zeros((2, 3)), labels=labels)
        table = AssignmentTable(z=[[0, 1], [1, 0]], labels=[[0, 0], [1, 1]])
        assert table.z.dtype == np.int8 and table.labels.dtype == np.int64


class TestTreatedFraction:
    def test_concentration_near_treat_prob(self):
        cfg = SyntheticPanelConfig(n_units=2000, n_clusters=100, n_budget_groups=50, n_regions=10, n_periods=20)
        big = generate_synthetic_panel(cfg, seed=6)
        draws = {"user": 2000, "cluster": 100, "budget_split": 50, "switchback": 10 * 20}
        for kind, n_draws in draws.items():
            design = DesignSpec(kind=kind, treat_prob=0.5)
            frac = replay(design, big, seed=11).z.mean()
            tol = 4.0 * np.sqrt(0.25 / n_draws)
            assert abs(frac - 0.5) < tol, (kind, frac, tol)

    def test_two_stage_near_mean_saturation(self):
        cfg = SyntheticPanelConfig(n_units=3000, n_clusters=150, n_periods=4)
        big = generate_synthetic_panel(cfg, seed=7)
        design = DesignSpec(kind="two_stage", saturation_levels=(0.2, 0.6))
        frac = replay(design, big, seed=12).z.mean()
        # Mean saturation 0.4; dominant noise is the per-cluster level draw.
        tol = 4.0 * 0.2 / np.sqrt(150)
        assert abs(frac - 0.4) < tol


class TestEffectiveUnits:
    def test_user_counts_units(self, panel):
        assert effective_units(DesignSpec(kind="user"), panel, 2, periods_per_week=5) == panel.n_units

    def test_switchback_formula(self, panel):
        # 1-region panel analog: 3 regions, 20 periods/week, 2 weeks, blocks of 4.
        design = DesignSpec(kind="switchback", block_length=4)
        assert effective_units(design, panel, 2, periods_per_week=20) == 3 * 10

    def test_switchback_single_region_worked_example(self):
        cfg = SyntheticPanelConfig(n_units=20, n_regions=1, n_periods=8)
        single = generate_synthetic_panel(cfg, seed=1)
        design = DesignSpec(kind="switchback", block_length=4)
        assert effective_units(design, single, 2, periods_per_week=20) == 10

    def test_mixed_expected_count(self):
        cfg = SyntheticPanelConfig(n_units=100, n_clusters=10, n_periods=2)
        p = generate_synthetic_panel(cfg, seed=2)
        design = DesignSpec(kind="mixed", mixture_prob=0.5)
        assert effective_units(design, p, 1, periods_per_week=2) == 55

    def test_monotone_in_duration(self, panel):
        for kind in ("user", "cluster", "budget_split", "two_stage", "mixed"):
            design = DesignSpec(kind=kind)
            counts = [effective_units(design, panel, t, periods_per_week=5) for t in (1, 2, 4, 8)]
            assert counts == [counts[0]] * 4
        sb = DesignSpec(kind="switchback", block_length=2)
        counts = [effective_units(sb, panel, t, periods_per_week=5) for t in (1, 2, 4, 8)]
        assert counts == sorted(counts)

    def test_insufficient_units_error(self):
        cfg = SyntheticPanelConfig(n_units=10, n_clusters=1, n_periods=2)
        p = generate_synthetic_panel(cfg, seed=3)
        with pytest.raises(PlanningError, match="insufficient assignment units"):
            effective_units(DesignSpec(kind="cluster"), p, 1, periods_per_week=2)


class TestDefaultCatalog:
    def test_six_designs(self):
        names = [d.kind for d in default_catalog()]
        assert names == ["user", "cluster", "switchback", "budget_split", "two_stage", "mixed"]

    def test_op_cost_presets(self):
        costs = {d.kind: d.op_cost_level for d in default_catalog()}
        assert costs["user"] == pytest.approx(0.10)
        assert 0.35 <= costs["cluster"] <= 0.45
        assert 0.35 <= costs["switchback"] <= 0.45
        for kind in ("budget_split", "two_stage", "mixed"):
            assert 0.70 <= costs[kind] <= 0.90

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignSpec(kind="user", treat_prob=0.0)
        with pytest.raises(ConfigurationError):
            DesignSpec(kind="switchback", block_length=0)
        with pytest.raises(ConfigurationError):
            DesignSpec(kind="two_stage", saturation_levels=())
        with pytest.raises(ConfigurationError, match="op_cost_level"):
            DesignSpec(kind="user", op_cost_level=1.5)
        with pytest.raises(ConfigurationError, match="op_cost_level"):
            DesignSpec(kind="user", op_cost_level=-0.1)

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x1f", "\ud800", "\udfff",
                                      "\ufffe", "\uffff"], ids=lambda char: f"U+{ord(char):04X}")
    def test_name_xml_cannot_hold_rejected(self, char):
        with pytest.raises(ConfigurationError, match=f"^name must not hold the character U\\+{ord(char):04X}$"):
            DesignSpec(kind="user", name=f"a{char}b")

    def test_name_with_csv_and_markup_specials_accepted(self):
        # XML escapes these, CSV quotes them, and tab, LF, CR, DEL and
        # characters past U+FFFF are XML 1.0 text.
        for name in ('a,b', 'a"b', "a<b", "a&b", "a\nb", "a\r\nb", "a\tb", "a\x7fb", "a\U0001F600b"):
            assert DesignSpec(kind="user", name=name).name == name

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_op_cost_default_per_kind(self, kind):
        # A bare DesignSpec, the default catalog and a config entry that sets
        # only the kind all take the kind's preset.
        preset = DesignSpec(kind=kind).op_cost_level
        assert preset in (0.10, 0.40, 0.80)
        assert {d.kind: d.op_cost_level for d in default_catalog()}[kind] == preset
        [design] = RunConfig({"catalog": [{"kind": kind}]}).build_catalog()
        assert design.op_cost_level == preset

    def test_explicit_op_cost_level_kept(self):
        assert DesignSpec(kind="mixed", op_cost_level=0.0).op_cost_level == 0.0
        assert DesignSpec(kind="user", op_cost_level=1.0).op_cost_level == 1.0

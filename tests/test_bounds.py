"""Closed-form bound arithmetic against an independent high-precision oracle.

Pinned decimal constants in this file were produced by the mpmath oracle in
``oracles.py`` at 50 significant digits.
"""
import math

import numpy as np
import pytest

from graphbandits import (
    BanditInstance,
    ExperimentConfig,
    InputError,
    alpha_log_factor,
    bound_report,
    complete,
    confidence_scale,
    edgeless,
    gap_free_regret_bound,
    gaps,
    hardness,
    log_alpha_bound,
    log_horizon_bound,
    star,
    ucbn_regret_bound,
)
from graphbandits.bounds import report_csv_header, report_csv_row

from oracles import hp_bound_values, hp_confidence_scale, random_instance


class TestConfidenceScale:
    def test_pinned_value(self):
        assert confidence_scale(100, 5, 0.01) == pytest.approx(
            92.103403719761827361, rel=1e-15
        )

    def test_matches_oracle_on_grid(self):
        for horizon in (1, 10, 1000, 10**6):
            for num_arms in (1, 2, 64):
                for delta in (0.5, 0.01, 1e-6):
                    got = confidence_scale(horizon, num_arms, delta)
                    want = hp_confidence_scale(horizon, num_arms, delta)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_default_delta_equals_squared_horizon_form(self):
        # delta = 1/T collapses the scale to 8 * ln(2 * K * T^2)
        for horizon, num_arms in ((100, 5), (10**4, 3), (7, 1)):
            got = confidence_scale(horizon, num_arms, 1.0 / horizon)
            want = 8.0 * math.log(2.0 * num_arms * horizon * horizon)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_delta_domain(self, delta):
        with pytest.raises(InputError):
            confidence_scale(100, 5, delta)

    def test_delta_whose_ratio_overflows(self):
        # 2 * T * K / delta is inf below about 1e-305 here; a tiny delta
        # whose ratio is still finite keeps its finite scale
        with pytest.raises(InputError, match="delta 1e-320 is too small"):
            confidence_scale(100, 5, 1e-320)
        assert math.isfinite(confidence_scale(100, 5, 1e-300))

    def test_horizon_past_the_decimal_conversion_limit(self):
        # str() refuses more than 4,300 digits; the message counts them without it
        inst = BanditInstance([0.9, 0.6], edgeless(2))
        needle = "horizon of 5001 digits is beyond float range"
        with pytest.raises(InputError, match=needle):
            bound_report(inst, 10**5000)
        with pytest.raises(InputError, match=needle):
            ExperimentConfig(inst, "ucb-n", 10**5000)

    def test_other_domains(self):
        with pytest.raises(InputError):
            confidence_scale(0, 5, 0.1)
        with pytest.raises(InputError):
            confidence_scale(100, 0, 0.1)


class TestAlphaLogFactor:
    def test_values(self):
        assert alpha_log_factor(1) == 3.0
        assert alpha_log_factor(2) == 4.0
        assert alpha_log_factor(8) == 6.0

    def test_domain(self):
        with pytest.raises(InputError):
            alpha_log_factor(0)


class TestHardness:
    def test_complete_graph_picks_single_best(self):
        inst = BanditInstance(np.array([0.9, 0.5, 0.2]), complete(3))
        assert hardness(inst) == pytest.approx(2.5)

    def test_edgeless_graph_sums_all(self):
        inst = BanditInstance(np.array([0.9, 0.4, 0.4]), edgeless(3))
        assert hardness(inst) == pytest.approx(4.0)

    def test_all_optimal(self):
        inst = BanditInstance(np.array([0.6, 0.6]), complete(2))
        assert hardness(inst) == 0.0

    def test_optimal_arms_are_removed_from_graph(self):
        # both leaves of the star are suboptimal and mutually nonadjacent
        inst = BanditInstance(np.array([0.9, 0.4, 0.4]), star(3))
        assert hardness(inst) == pytest.approx(4.0)

    def test_gap_too_small_to_invert_names_the_arm(self):
        inst = BanditInstance(np.array([1.0e-310, 0.0, 0.0]), edgeless(3))
        with pytest.raises(InputError, match="arm 1: gap .* too small"):
            hardness(inst)

    def test_dominates_every_single_arm(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            inst = random_instance(rng)
            profile = gaps(inst)
            h = hardness(inst)
            for arm in profile.suboptimal_arms():
                assert h >= 1.0 / float(profile.gaps[arm]) - 1e-12


class TestLogHorizonBound:
    def test_pinned_value(self):
        got = log_horizon_bound(92.103403719761827361, 100, 2.5)
        assert got == pytest.approx(4242.5184883827184084, rel=1e-12)

    def test_zero_hardness(self):
        assert log_horizon_bound(50.0, 1000, 0.0) == 1.0

    def test_unit_horizon(self):
        assert log_horizon_bound(50.0, 1, 3.0) == 1.0

    def test_hardness_domain(self):
        with pytest.raises(InputError):
            log_horizon_bound(50.0, 100, -1.0)


class TestLogAlphaBound:
    def test_alpha_one_factor_is_three(self):
        for scale, h in ((92.1, 2.5), (10.0, 1.0), (3.0, 0.25)):
            assert log_alpha_bound(scale, 1, h) == pytest.approx(
                12.0 * scale * h + 1.0, rel=1e-15
            )

    def test_pinned_value(self):
        got = log_alpha_bound(92.103403719761827361, 2, 2.5)
        assert got == pytest.approx(3685.1361487904730944, rel=1e-12)

    def test_exact_integer_case(self):
        assert log_alpha_bound(10.0, 8, 1.0) == 241.0


class TestUcbnRegretBound:
    def test_pinned_value(self):
        got = ucbn_regret_bound(1000, 10, 2, 10.0)
        assert got == pytest.approx(5381.5977060858448312, rel=1e-12)

    def test_zero_hardness(self):
        assert ucbn_regret_bound(1000, 10, 2, 0.0) == 2.0

    def test_matches_oracle_on_grid(self):
        for horizon in (100, 10**4):
            for num_arms in (2, 64):
                for alpha in (1, 8):
                    for h in (0.5, 10.0):
                        want = hp_bound_values(horizon, num_arms, alpha, h)["theorem"]
                        got = ucbn_regret_bound(horizon, num_arms, alpha, h)
                        assert got == pytest.approx(want, rel=1e-12)


class TestGapFreeRegretBound:
    def test_pinned_values(self):
        assert gap_free_regret_bound(10**4, 10, 2) == pytest.approx(
            7406.4592864581457264, rel=1e-12
        )
        assert gap_free_regret_bound(1, 1, 1) == pytest.approx(
            10.157335921350471742, rel=1e-12
        )

    def test_monotone_in_each_argument(self):
        base = gap_free_regret_bound(1000, 10, 4)
        assert gap_free_regret_bound(2000, 10, 4) >= base
        assert gap_free_regret_bound(1000, 20, 4) >= base
        assert gap_free_regret_bound(1000, 10, 8) >= base


class TestCrossFormulaRelationships:
    def test_improved_budget_beats_horizon_budget_for_long_runs(self):
        # whenever log2(alpha) + 3 < ln(T) the alpha form is smaller
        for horizon, alpha in ((10**4, 2), (10**6, 8), (10**5, 1)):
            scale = confidence_scale(horizon, 10, 1.0 / horizon)
            assert math.log2(alpha) + 3.0 < math.log(horizon)
            assert log_alpha_bound(scale, alpha, 5.0) < log_horizon_bound(
                scale, horizon, 5.0
            )

    def test_quadrupled_theorem_margin_equals_improved_budget_margin(self):
        # the two displays share the factor ln(2KT^2)*(log2(alpha)+3)*H but
        # weight it 8 versus 4*8; stripping the additive constants exposes
        # the exact factor of 4
        for horizon, num_arms, alpha, h in (
            (1000, 10, 2, 10.0),
            (10**6, 64, 8, 0.5),
            (100, 2, 1, 2.5),
        ):
            theorem = ucbn_regret_bound(horizon, num_arms, alpha, h)
            scale = confidence_scale(horizon, num_arms, 1.0 / horizon)
            improved = log_alpha_bound(scale, alpha, h)
            assert 4.0 * (theorem - 2.0) == pytest.approx(improved - 1.0, rel=1e-12)

    def test_theorem_equals_improved_budget_plus_one(self):
        # the two closed forms as implemented do NOT compose this way: the
        # theorem's leading coefficient is 8*ln(...) while the improved
        # budget at delta=1/T carries 4*(8*ln(...)). This strict identity
        # is retained unpatched (see README); it fails by that factor of 4.
        horizon, num_arms, alpha, h = 1000, 10, 2, 10.0
        theorem = ucbn_regret_bound(horizon, num_arms, alpha, h)
        scale = confidence_scale(horizon, num_arms, 1.0 / horizon)
        improved = log_alpha_bound(scale, alpha, h)
        assert theorem == pytest.approx(improved + 1.0, rel=1e-9)


class TestBoundReport:
    def test_fields_delegate_to_formulas(self):
        inst = BanditInstance(np.array([0.9, 0.5, 0.2]), complete(3))
        report = bound_report(inst, 1000)
        assert report.horizon == 1000
        assert report.num_arms == 3
        assert report.delta == pytest.approx(1e-3)
        assert report.alpha == 1
        assert report.hardness == pytest.approx(2.5)
        assert report.scale == pytest.approx(confidence_scale(1000, 3, 1e-3))
        assert report.log_horizon_value == pytest.approx(
            log_horizon_bound(report.scale, 1000, 2.5)
        )
        assert report.log_alpha_value == pytest.approx(
            log_alpha_bound(report.scale, 1, 2.5)
        )
        assert report.ucbn_bound == pytest.approx(ucbn_regret_bound(1000, 3, 1, 2.5))
        assert report.gap_free_bound == pytest.approx(
            gap_free_regret_bound(1000, 3, 1)
        )

    def test_explicit_delta(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        report = bound_report(inst, 100, delta=0.05)
        assert report.delta == 0.05
        assert report.scale == pytest.approx(confidence_scale(100, 2, 0.05))

    def test_csv_shape(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        report = bound_report(inst, 100)
        header = report_csv_header()
        row = report_csv_row(report)
        assert header == "T,K,delta,alpha,H,L,lemma_original,lemma_improved,theorem,corollary"
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[0] == "100"
        assert cells[1] == "2"
        assert float(cells[4]) == pytest.approx(2.5)

    def test_all_entries_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng)
            report = bound_report(inst, int(rng.integers(1, 10**5)))
            for value in (
                report.hardness,
                report.scale,
                report.log_horizon_value,
                report.log_alpha_value,
                report.ucbn_bound,
                report.gap_free_bound,
            ):
                assert value >= 0.0

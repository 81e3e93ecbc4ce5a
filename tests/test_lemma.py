"""Band-budget inequality: single sequences, box certificates, instances."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbandits import (
    BanditInstance,
    CapabilityError,
    InputError,
    SequenceInstance,
    all_max_sequence,
    complete,
    decompose,
    disjoint_cliques,
    edgeless,
    exhaustive_verify,
    verify_decomposition,
    verify_instance,
    verify_sequence,
)
from graphbandits import lemma
from graphbandits.bounds import alpha_log_factor
from graphbandits.kernels import scan_sequences_range
from graphbandits.lemma import MAX_CERTIFICATE_WORK, RATIO_SLACK, VerificationReport

from oracles import random_instance


def _decode(index, alpha, num_phases):
    """Counts of the sequence at a mixed-radix index, phase 1 least significant."""
    return tuple((index // (alpha + 1) ** p) % (alpha + 1) for p in range(num_phases))


def _scan_report(alpha, num_phases):
    """The report of a brute-force scan over every sequence of the box."""
    size = (alpha + 1) ** num_phases
    nonzero, n_viol, recorded, ratio, index = scan_sequences_range(
        alpha, num_phases, 0, size, alpha_log_factor(alpha), RATIO_SLACK
    )
    return VerificationReport(
        alpha=alpha,
        num_phases=num_phases,
        instances_checked=size,
        nonzero_checked=nonzero,
        violation_count=n_viol,
        violations=tuple(_decode(i, alpha, num_phases) for i in recorded),
        tightest_ratio=ratio,
        tight_witness=_decode(index, alpha, num_phases),
        exhaustive=True,
    )


def _extremal_report(alpha, num_phases):
    """The certificate's report, built from ``all_max_sequence`` one by one."""
    candidates = [
        all_max_sequence(alpha, num_phases, m, c)
        for m in range(1, num_phases + 1)
        for c in range(1, alpha + 1)
    ]
    failing = {inst.counts for inst in candidates if not verify_sequence(inst)[0]}
    # exact ratio, then the lowest mixed-radix index
    best = max(
        candidates,
        key=lambda inst: (
            Fraction(sum(inst.terms()), max(inst.terms())),
            [-count for count in inst.counts[::-1]],
        ),
    )
    size = (alpha + 1) ** num_phases
    return VerificationReport(
        alpha=alpha,
        num_phases=num_phases,
        instances_checked=size,
        nonzero_checked=size - 1,
        violation_count=len(failing),
        violations=tuple(sorted(failing, key=lambda counts: counts[::-1])),
        tightest_ratio=sum(best.terms()) / max(best.terms()),
        tight_witness=best.counts,
        exhaustive=True,
    )


class TestSequenceInstance:
    def test_terms_are_dyadic(self):
        inst = SequenceInstance(alpha=4, counts=(4, 2, 1))
        assert inst.terms() == (8, 8, 8)

    def test_validation(self):
        with pytest.raises(InputError):
            SequenceInstance(alpha=0, counts=(1,))
        with pytest.raises(InputError):
            SequenceInstance(alpha=2, counts=())
        with pytest.raises(InputError):
            SequenceInstance(alpha=2, counts=(3,))
        with pytest.raises(InputError):
            SequenceInstance(alpha=2, counts=(-1,))


class TestVerifySequence:
    def test_ratio_examples(self):
        holds, ratio = verify_sequence(SequenceInstance(1, (1, 1, 1)))
        assert holds and ratio == pytest.approx(1.75)
        holds, ratio = verify_sequence(SequenceInstance(4, (4, 2, 1)))
        assert holds and ratio == pytest.approx(3.0)
        holds, ratio = verify_sequence(SequenceInstance(1, (1,)))
        assert holds and ratio == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            verify_sequence(SequenceInstance(2, (0, 0, 0)))

    def test_zero_padding_does_not_change_ratio(self):
        _, base = verify_sequence(SequenceInstance(3, (3, 1)))
        _, padded = verify_sequence(SequenceInstance(3, (3, 1, 0, 0)))
        assert base == padded

    def test_long_sequence_does_not_overflow(self):
        # the total is about 2^1101, past the largest float
        holds, ratio = verify_sequence(SequenceInstance(1, (1,) * 1100))
        assert holds
        assert ratio == 2.0

    @pytest.mark.parametrize(
        "alpha, total, peak, holds",
        [
            (1, 12, 4, True),
            (1, 13, 4, False),
            (4, 20, 4, True),
            (4, 21, 4, False),
            (1, 3 << 1100, 1 << 1100, True),
            (1, (3 << 1100) + 1, 1 << 1100, False),
        ],
    )
    def test_threshold_boundary_is_exact(self, alpha, total, peak, holds):
        # alpha 1 and 4 have the exact factors 3 and 5: equality holds, one
        # more fails, also where the integers are far past the float range
        assert lemma._within_factor(alpha, total, peak) is holds


class TestAllMaxSequence:
    def test_structure(self):
        inst = all_max_sequence(alpha=4, num_phases=5, peak_phase=3, peak_count=2)
        # below the peak the count doubles per band until alpha caps it;
        # above the peak it halves with integer floor
        assert inst.counts == (4, 4, 2, 1, 0)

    def test_peak_preserved(self):
        for alpha in range(1, 7):
            for num_phases in range(1, 9):
                for m in range(1, num_phases + 1):
                    for k_m in range(1, alpha + 1):
                        inst = all_max_sequence(alpha, num_phases, m, k_m)
                        terms = inst.terms()
                        assert max(terms) == k_m << m
                        assert terms[m - 1] == k_m << m

    def test_worst_cases_respect_budget(self):
        for alpha in range(1, 7):
            threshold = math.log2(alpha) + 3.0
            for num_phases in range(1, 9):
                for m in range(1, num_phases + 1):
                    for k_m in range(1, alpha + 1):
                        holds, ratio = verify_sequence(
                            all_max_sequence(alpha, num_phases, m, k_m)
                        )
                        assert holds
                        assert ratio <= threshold + 1e-9

    @given(st.integers(1, 40), st.integers(1, 12))
    def test_counts_are_a_nondecreasing_function_of_the_peak_term(
        self, alpha, num_phases
    ):
        by_peak = {}
        for m in range(1, num_phases + 1):
            for c in range(1, alpha + 1):
                counts = all_max_sequence(alpha, num_phases, m, c).counts
                assert by_peak.setdefault(c << m, counts) == counts
        ordered = [by_peak[peak] for peak in sorted(by_peak)]
        for low, high in zip(ordered, ordered[1:]):
            assert all(a <= b for a, b in zip(low, high))

    def test_validation(self):
        with pytest.raises(InputError):
            all_max_sequence(2, 3, 0, 1)
        with pytest.raises(InputError):
            all_max_sequence(2, 3, 4, 1)
        with pytest.raises(InputError):
            all_max_sequence(2, 3, 1, 3)
        with pytest.raises(InputError):
            all_max_sequence(2, 3, 1, 0)


class TestExhaustiveVerify:
    def test_tiny_box(self):
        report = exhaustive_verify(alpha=1, num_phases=3)
        assert report.exhaustive
        assert report.instances_checked == 8
        assert report.nonzero_checked == 7
        assert report.violation_count == 0
        assert report.passed

    def test_eighty_one_sequences(self):
        report = exhaustive_verify(alpha=2, num_phases=4)
        assert report.instances_checked == 81
        assert report.nonzero_checked == 80
        assert report.violation_count == 0
        assert report.violations == ()
        assert report.tightest_ratio == pytest.approx(2.75)
        assert report.tight_witness == (2, 2, 2, 1)
        assert report.tightest_ratio <= math.log2(2) + 3.0

    def test_single_band_box(self):
        report = exhaustive_verify(alpha=3, num_phases=1)
        assert report.instances_checked == 4
        assert report.tightest_ratio == pytest.approx(1.0)
        # all three nonzero sequences tie at ratio 1: the lowest index wins
        assert report.tight_witness == (1,)

    def test_witness_ratio_is_reproducible(self):
        report = exhaustive_verify(alpha=4, num_phases=5)
        _, ratio = verify_sequence(
            SequenceInstance(alpha=4, counts=report.tight_witness)
        )
        assert ratio == pytest.approx(report.tightest_ratio)

    def test_validation(self):
        with pytest.raises(InputError):
            exhaustive_verify(0, 3)
        with pytest.raises(InputError):
            exhaustive_verify(2, 0)

    @given(st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=40)
    # several extremal sequences tie at the tightest ratio of these boxes
    @example(4, 1)
    @example(12, 2)
    @example(15, 3)
    # and the longest box of one count
    @example(1, 12)
    def test_matches_scan_of_the_whole_box(self, alpha, num_phases):
        assert exhaustive_verify(alpha, num_phases) == _scan_report(alpha, num_phases)

    @pytest.mark.parametrize(
        "alpha, num_phases",
        [(1, 40), (2, 25), (5, 12), (20, 30), (37, 9), (100, 3), (1000, 2), (999, 1)],
    )
    @pytest.mark.parametrize("factor", [None, 2.0, 3.5])
    def test_matches_extremal_sequences_built_in_full(
        self, monkeypatch, alpha, num_phases, factor
    ):
        # long boxes, where the closed-form totals cut bands at both ends
        if factor is not None:
            monkeypatch.setattr(lemma, "alpha_log_factor", lambda alpha: factor)
        report = exhaustive_verify(alpha, num_phases)
        assert report == _extremal_report(alpha, num_phases)

    def test_long_box_witness_is_exact(self):
        # 2^70 overflows int64 terms; the witness's exact ratio must be the
        # reported one
        report = exhaustive_verify(alpha=1, num_phases=70)
        assert report.instances_checked == 2**70
        assert report.nonzero_checked == 2**70 - 1
        assert report.passed
        holds, ratio = verify_sequence(SequenceInstance(1, report.tight_witness))
        assert holds
        assert ratio == report.tightest_ratio
        assert report.tight_witness == (1,) * 70

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.0, 2.5])
    def test_violations_come_from_failing_extremal_sequences(
        self, monkeypatch, factor
    ):
        # no real counterexample exists, so lower the factor; the box then
        # has a violation exactly when an extremal sequence fails. At alpha 4
        # two peaks build the same (2, 1, 0), which must be listed once.
        monkeypatch.setattr(lemma, "alpha_log_factor", lambda alpha: factor)
        for alpha, num_phases in ((1, 3), (2, 3), (4, 3), (3, 4)):
            report = exhaustive_verify(alpha, num_phases)
            scanned = scan_sequences_range(
                alpha, num_phases, 0, (alpha + 1) ** num_phases, factor, RATIO_SLACK
            )[1]
            assert report.passed == (scanned == 0)
            assert report.violation_count == len(report.violations)
            keys = [counts[::-1] for counts in report.violations]
            assert keys == sorted(set(keys))
            extremal = {
                all_max_sequence(alpha, num_phases, m, c).counts
                for m in range(1, num_phases + 1)
                for c in range(1, alpha + 1)
            }
            failing = {
                counts for counts in extremal
                if not verify_sequence(SequenceInstance(alpha, counts))[0]
            }
            assert set(report.violations) == failing

    def test_over_limit_box_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built a candidate above the limit")

        monkeypatch.setattr(lemma, "_factor_test", fail)
        monkeypatch.setattr(lemma, "_extremal_counts", fail)
        alpha = MAX_CERTIFICATE_WORK // (1000 * (8 + 1000 // 64)) + 1
        with pytest.raises(CapabilityError, match="above the limit"):
            exhaustive_verify(alpha, 1000)
        with pytest.raises(CapabilityError):
            exhaustive_verify(MAX_CERTIFICATE_WORK, 1)


class TestVerifyDecomposition:
    def test_two_band_example(self):
        inst = BanditInstance(np.array([0.9, 0.6, 0.6, 0.6]), edgeless(4))
        report = verify_decomposition(decompose(inst, 10**6))
        # single nonzero band: both partial sums are zero
        assert report.peak_phase == 2
        assert report.peak_term == 12
        assert report.upper_sum == 0
        assert report.lower_sum == 0
        assert report.total == 12
        assert report.upper_budget == 12  # j1 = 1
        assert report.lower_budget == 24  # j2 = 1
        assert report.all_hold

    def test_single_phase(self):
        inst = BanditInstance(np.array([0.9, 0.5]), edgeless(2))
        report = verify_decomposition(decompose(inst, 100))
        assert report.upper_sum == 0
        assert report.lower_sum == 0
        assert report.all_hold

    def test_equal_terms_tie(self):
        # bands 1 and 2 tie at term 4; the peak resolves to band 1, whose
        # upper budget j1 * peak needs j1 >= 1, true because K_m = 2
        inst = BanditInstance(
            np.array([1.0, 0.4, 0.3, 0.7]), disjoint_cliques((2, 2))
        )
        d = decompose(inst, 100)
        assert d.peak_phase == 1
        assert d.band(1).independent_size == 2
        assert d.log2_peak_size == 1
        assert d.log2_alpha_ratio == 0
        report = verify_decomposition(d)
        assert report.upper_sum == report.peak_term == 4
        assert report.upper_budget == 4
        assert report.combined_budget == 12
        assert report.all_hold

    def test_empty_decomposition_rejected(self):
        inst = BanditInstance(np.array([0.5, 0.5]), complete(2))
        with pytest.raises(InputError):
            verify_decomposition(decompose(inst, 100))

    def test_random_instances_all_hold(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 200:
            inst = random_instance(rng)
            d = decompose(inst, 10**5)
            if d.is_empty:
                continue
            report = verify_decomposition(d)
            assert report.all_hold
            assert report.total == d.weighted_total
            checked += 1


class TestVerifyInstance:
    def test_complete_three_arm_example(self):
        # weighted total 6 against budget 2 * 3 * 2.5 = 15
        inst = BanditInstance(np.array([0.9, 0.5, 0.2]), complete(3))
        assert verify_instance(inst, 10**6)

    def test_vacuous_on_all_optimal(self):
        inst = BanditInstance(np.array([0.4, 0.4]), complete(2))
        assert verify_instance(inst, 10**6)

    def test_random_instances(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            assert verify_instance(random_instance(rng), 10**5)

"""Exact certification of the dyadic band-budget inequality.

The core claim: for per-band counts K_1..K_P with every K_p <= alpha, the
total of the terms K_p * 2^p never exceeds (log2(alpha) + 3) times the
largest term. This module checks it three ways: on single sequences, over
the whole constraint box through its extremal sequences, and on concrete
bandit instances through their phase decompositions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bounds import alpha_log_factor, hardness
from .env import BanditInstance
from .errors import CapabilityError, InputError, at_least, int_text
from .graph import DEFAULT_EXACT_LIMIT
from .phases import PhaseDecomposition, decompose, log2_alpha_ratio

# absolute slack absorbing the floating-point log2 on the integer side
RATIO_SLACK = 1e-9

# Largest box certified, in steps. Each of the alpha * phases candidate
# sequences is totalled and compared in a few operations on integers of
# about `phases` bits: 8 steps of interpreter overhead plus one per 64-bit
# word. On a 2-vCPU host the slowest boxes at the limit, (3, 12800) and
# (2, 15700), take about 2.2 s, the one-phase box (1000000, 1) 1.8 s and
# (3, 5000), at a sixth of the limit, 0.34 s.
MAX_CERTIFICATE_WORK = 8_000_000

__all__ = [
    "BandBudgetReport",
    "MAX_CERTIFICATE_WORK",
    "RATIO_SLACK",
    "SequenceInstance",
    "VerificationReport",
    "all_max_sequence",
    "exhaustive_verify",
    "verify_decomposition",
    "verify_instance",
    "verify_sequence",
]


@dataclass(frozen=True)
class SequenceInstance:
    """Counts K_1..K_P of one abstract band sequence, each in 0..alpha."""

    alpha: int
    counts: tuple[int, ...]

    def __post_init__(self):
        alpha = at_least("alpha", self.alpha)
        counts = tuple(int(c) for c in self.counts)
        if not counts:
            raise InputError("need at least one band count")
        for c in counts:
            if c < 0 or c > alpha:
                raise InputError(f"count {c} outside 0..alpha={alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "counts", counts)

    def terms(self) -> tuple[int, ...]:
        """Band terms K_p * 2^p, exact integers."""
        return tuple(c << (p + 1) for p, c in enumerate(self.counts))


def _factor_test(alpha: int) -> tuple[int, int, int]:
    """(scale, lean, slack) with total <= (log2(alpha) + 3) * peak + RATIO_SLACK
    exactly when total * scale <= lean * peak + slack.

    The factor and the slack are the float values, but the comparison is
    made exactly in integers: it agrees with the float comparison wherever
    the float arithmetic is exact, and it never converts a long sequence's
    integers to float, which would overflow.
    """
    f_num, f_den = alpha_log_factor(alpha).as_integer_ratio()
    s_num, s_den = RATIO_SLACK.as_integer_ratio()
    return f_den * s_den, f_num * s_den, s_num * f_den


def _within_factor(alpha: int, total: int, peak: int) -> bool:
    """Whether total <= (log2(alpha) + 3) * peak + RATIO_SLACK, exactly."""
    scale, lean, slack = _factor_test(alpha)
    return total * scale <= lean * peak + slack


def verify_sequence(inst: SequenceInstance) -> tuple[bool, float]:
    """Check one sequence; returns (holds, total / peak term).

    The integer side is exact; the comparison against the irrational
    threshold log2(alpha) + 3 carries RATIO_SLACK of absolute slack.
    """
    terms = inst.terms()
    peak = max(terms)
    if peak == 0:
        raise InputError("sequence has no nonzero count")
    total = sum(terms)
    return _within_factor(inst.alpha, total, peak), total / peak


def all_max_sequence(
    alpha: int, num_phases: int, peak_phase: int, peak_count: int
) -> SequenceInstance:
    """The extremal sequence pinned at (peak_phase, peak_count).

    Every band takes the largest count that respects both the alpha cap
    and the peak term T = peak_count * 2^peak_phase:
    K_p = min(alpha, floor(T / 2^p)). The sequence depends on T alone.
    These are the worst cases of the budget argument.
    """
    alpha = int(alpha)
    num_phases = int(num_phases)
    peak_phase = int(peak_phase)
    peak_count = int(peak_count)
    if not 1 <= peak_phase <= num_phases:
        raise InputError(f"peak_phase {peak_phase} outside 1..{num_phases}")
    if not 1 <= peak_count <= alpha:
        raise InputError(f"peak_count {peak_count} outside 1..alpha={alpha}")
    return SequenceInstance(
        alpha, _extremal_counts(alpha, num_phases, peak_count << peak_phase)
    )


def _extremal_counts(alpha, num_phases, peak):
    """Counts min(alpha, peak >> p) of the peak term's extremal sequence."""
    return tuple(min(alpha, peak >> p) for p in range(1, num_phases + 1))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of certifying the constraint box {0..alpha}^num_phases."""

    alpha: int
    num_phases: int
    instances_checked: int
    nonzero_checked: int
    violation_count: int
    violations: tuple[tuple[int, ...], ...]
    tightest_ratio: float
    tight_witness: tuple[int, ...]
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def exhaustive_verify(alpha: int, num_phases: int) -> VerificationReport:
    """Certify the whole box {0..alpha}^num_phases from its extremal sequences.

    A nonzero sequence of peak term T has K_p <= alpha and K_p * 2^p <= T,
    so K_p <= min(alpha, floor(T / 2^p)): the counts of the extremal
    sequence of T, whose peak term is T too. Its ratio total / T is thus at
    most that sequence's, with equality only for the sequence itself, and
    checking the alpha * num_phases extremal sequences, T = c * 2^m, with
    exact integers certifies every sequence of the box.

    ``instances_checked`` and ``nonzero_checked`` count the box, in closed
    form. ``tightest_ratio`` is the float total / peak of the sequence of
    largest exact ratio, and ``tight_witness`` that sequence; of equal
    ratios the one of lowest mixed-radix index wins (the count of phase 1
    is the least significant digit), as in an in-order scan of the box;
    each extremal count is nondecreasing in T, so that is the smallest T.
    An extremal sequence that breaks the inequality disproves it, so
    ``violation_count`` and ``violations`` count and list the distinct
    failing extremal sequences, in index order, not every failing sequence
    of the box. Raises CapabilityError before any work when the box costs
    more than MAX_CERTIFICATE_WORK.
    """
    alpha = at_least("alpha", alpha)
    num_phases = at_least("num_phases", num_phases)
    work = alpha * num_phases * (8 + num_phases // 64)
    if work > MAX_CERTIFICATE_WORK:
        raise CapabilityError(
            f"certifying alpha={int_text(alpha)} over {int_text(num_phases)} "
            f"phases costs {int_text(work)} steps, above the limit of "
            f"{MAX_CERTIFICATE_WORK}"
        )
    scale, lean, slack = _factor_test(alpha)
    best_total, best_peak = 0, 1
    failing = set()
    for c in range(1, alpha + 1):
        # band p = m - j at or below the peak takes count c * 2^j, a term
        # equal to the peak's, while that is below alpha, i.e. for j < lift,
        # and count alpha, a term alpha * 2^p, from there down
        lift = log2_alpha_ratio(alpha, c)
        # above[i]: sum of (c >> j) << j for j = 1..i, the terms of the i
        # bands above the peak divided by 2^m; all but the first
        # bit_length(c) - 1 of them are 0
        above = [0]
        for j in range(1, min(c.bit_length(), num_phases)):
            above.append(above[-1] + ((c >> j) << j))
        for m in range(1, num_phases + 1):
            peak = c << m
            if m > lift:
                total = lift * peak + (alpha << (m - lift + 1)) - 2 * alpha
            else:
                total = m * peak
            total += above[min(num_phases - m, len(above) - 1)] << m
            if total * scale > lean * peak + slack:
                failing.add(peak)
            gain = total * best_peak - best_total * peak
            if gain > 0 or gain == 0 and peak < best_peak:
                best_total, best_peak = total, peak
    size = (alpha + 1) ** num_phases
    return VerificationReport(
        alpha=alpha,
        num_phases=num_phases,
        instances_checked=size,
        nonzero_checked=size - 1,
        violation_count=len(failing),
        violations=tuple(
            _extremal_counts(alpha, num_phases, peak) for peak in sorted(failing)
        ),
        tightest_ratio=best_total / best_peak,
        tight_witness=_extremal_counts(alpha, num_phases, best_peak),
        exhaustive=True,
    )


@dataclass(frozen=True)
class BandBudgetReport:
    """The budget inequalities of one concrete decomposition.

    Bands above the peak must fit in log2_peak_size peak terms, bands
    below it in log2_alpha_ratio + 1 peak terms, and the whole total in
    (log2_peak_size + log2_alpha_ratio + 2) peak terms, itself at most
    (log2(alpha) + 3) peak terms.
    """

    peak_phase: int
    peak_term: int
    upper_sum: int
    lower_sum: int
    total: int
    upper_budget: int
    lower_budget: int
    combined_budget: int
    log_budget: float
    upper_holds: bool
    lower_holds: bool
    total_holds: bool
    factor_holds: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.upper_holds
            and self.lower_holds
            and self.total_holds
            and self.factor_holds
        )


def verify_decomposition(decomp: PhaseDecomposition) -> BandBudgetReport:
    """Check the three budget inequalities on a concrete decomposition."""
    if decomp.is_empty:
        raise InputError("cannot verify an empty decomposition")
    peak_phase = decomp.peak_phase
    peak_term = decomp.peak_term
    upper_sum = sum(b.term for b in decomp.bands if b.phase > peak_phase)
    lower_sum = sum(b.term for b in decomp.bands if b.phase < peak_phase)
    total = upper_sum + lower_sum + peak_term
    j_high = decomp.log2_peak_size
    j_low = decomp.log2_alpha_ratio
    upper_budget = j_high * peak_term
    lower_budget = (j_low + 1) * peak_term
    combined_budget = (j_high + j_low + 2) * peak_term
    log_budget = alpha_log_factor(decomp.alpha) * float(peak_term)
    return BandBudgetReport(
        peak_phase=peak_phase,
        peak_term=peak_term,
        upper_sum=upper_sum,
        lower_sum=lower_sum,
        total=total,
        upper_budget=upper_budget,
        lower_budget=lower_budget,
        combined_budget=combined_budget,
        log_budget=log_budget,
        upper_holds=upper_sum <= upper_budget,
        lower_holds=lower_sum <= lower_budget,
        total_holds=total <= combined_budget,
        factor_holds=_within_factor(decomp.alpha, combined_budget, peak_term),
    )


def verify_instance(
    instance: BanditInstance,
    horizon: int,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> bool:
    """Check the end-to-end chain on one instance.

    The decomposition's weighted total must be at most
    2 * (log2(alpha) + 3) * hardness. Vacuously true when the
    decomposition is empty.
    """
    decomp = decompose(
        instance, horizon, exact_limit=exact_limit, allow_approximate=allow_approximate
    )
    if decomp.is_empty:
        return True
    h = hardness(instance, exact_limit=exact_limit, allow_approximate=allow_approximate)
    bound = 2.0 * alpha_log_factor(decomp.alpha) * h
    return float(decomp.weighted_total) <= bound + RATIO_SLACK

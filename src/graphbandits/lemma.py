"""Brute-force certification of the dyadic band-budget inequality.

The core claim: for per-band counts K_1..K_P with every K_p <= alpha, the
total of the terms K_p * 2^p never exceeds (log2(alpha) + 3) times the
largest term. This module checks it three ways: on single sequences, by
exhaustive or sampled enumeration over the whole constraint box, and on
concrete bandit instances through their phase decompositions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bounds import alpha_log_factor, hardness
from .env import BanditInstance
from .errors import InputError
from .graph import DEFAULT_EXACT_LIMIT
from .phases import PhaseDecomposition, decompose

# absolute slack absorbing the floating-point log2 on the integer side
RATIO_SLACK = 1e-9

__all__ = [
    "BandBudgetReport",
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
        alpha = int(self.alpha)
        if alpha < 1:
            raise InputError(f"alpha must be at least 1, got {alpha}")
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
    threshold = alpha_log_factor(inst.alpha)
    holds = float(total) <= threshold * float(peak) + RATIO_SLACK
    return holds, total / peak


def all_max_sequence(
    alpha: int, num_phases: int, peak_phase: int, peak_count: int
) -> SequenceInstance:
    """The extremal sequence pinned at (peak_phase, peak_count).

    Every other band takes the largest count that respects both the alpha
    cap and the peak term: K_p = min(alpha, peak_count * 2^(m-p)), with the
    ratio floored for bands above the peak. These are the worst cases of
    the budget argument.
    """
    alpha = int(alpha)
    num_phases = int(num_phases)
    peak_phase = int(peak_phase)
    peak_count = int(peak_count)
    if not 1 <= peak_phase <= num_phases:
        raise InputError(f"peak_phase {peak_phase} outside 1..{num_phases}")
    if not 1 <= peak_count <= alpha:
        raise InputError(f"peak_count {peak_count} outside 1..alpha={alpha}")
    counts = []
    for p in range(1, num_phases + 1):
        if p <= peak_phase:
            c = min(alpha, peak_count << (peak_phase - p))
        else:
            c = peak_count >> (p - peak_phase)
        counts.append(c)
    return SequenceInstance(alpha=alpha, counts=tuple(counts))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an enumeration or sampling sweep over sequences."""

    alpha: int
    num_phases: int
    instances_checked: int
    nonzero_checked: int
    violation_count: int
    violations: tuple[tuple[int, ...], ...]
    tightest_ratio: float
    tight_witness: tuple[int, ...] | None
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def _decode_index(index: int, alpha: int, num_phases: int) -> tuple[int, ...]:
    base = alpha + 1
    out = []
    for _ in range(num_phases):
        out.append(index % base)
        index //= base
    return tuple(out)


def exhaustive_verify(
    alpha: int,
    num_phases: int,
    budget: int = 10_000_000,
    seed: int = 0,
) -> VerificationReport:
    """Sweep the constraint box {0..alpha}^num_phases.

    Enumerates every sequence when the box fits in ``budget``; otherwise
    draws ``budget`` sequences uniformly from the box using ``seed``.
    All-zero sequences count toward ``instances_checked`` but are skipped
    by the ratio and violation logic.
    """
    alpha = int(alpha)
    num_phases = int(num_phases)
    if alpha < 1:
        raise InputError(f"alpha must be at least 1, got {alpha}")
    if num_phases < 1:
        raise InputError(f"num_phases must be at least 1, got {num_phases}")
    budget = int(budget)
    if budget < 1:
        raise InputError(f"budget must be positive, got {budget}")
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    threshold = alpha_log_factor(alpha)
    total = (alpha + 1) ** num_phases
    if total <= budget:
        nonzero, n_viol, recorded, best_ratio, best_index = kernels.scan_sequences_range(
            alpha, num_phases, 0, total, threshold, RATIO_SLACK
        )
        checked = total
        violations = tuple(_decode_index(i, alpha, num_phases) for i in recorded)
        witness = (
            _decode_index(best_index, alpha, num_phases) if best_index >= 0 else None
        )
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, alpha + 1, size=(budget, num_phases), dtype=np.int64)
        nonzero, n_viol, recorded, best_ratio, best_index = kernels.scan_sequence_rows(
            rows, threshold, RATIO_SLACK
        )
        checked = budget
        violations = tuple(tuple(int(x) for x in rows[i]) for i in recorded)
        witness = (
            tuple(int(x) for x in rows[best_index]) if best_index >= 0 else None
        )
        exhaustive = False
    return VerificationReport(
        alpha=alpha,
        num_phases=num_phases,
        instances_checked=checked,
        nonzero_checked=nonzero,
        violation_count=n_viol,
        violations=violations,
        tightest_ratio=float(best_ratio),
        tight_witness=witness,
        exhaustive=exhaustive,
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
        factor_holds=float(combined_budget) <= log_budget + RATIO_SLACK,
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
    h = hardness(
        instance, exact_limit=exact_limit, allow_approximate=allow_approximate
    )
    bound = 2.0 * alpha_log_factor(decomp.alpha) * h
    return float(decomp.weighted_total) <= bound + RATIO_SLACK

"""Hot numeric loops: the fused episode loops and the band-sequence scans.

Episode loops draw, per round, one uniform per arm (the reward vector) and,
for Thompson sampling, one Beta sample per arm, in arm order. The policy
objects in ``policies`` follow the same protocol, which keeps the fused
loops and the step-by-step path on identical trajectories.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "run_episode_arrays",
    "scan_sequence_rows",
    "scan_sequences_range",
]


# ---------------------------------------------------------------------------
# episode loops


def _ucb_episode(means, adj, horizon, bonus, neighbor_updates, gen):
    num_arms = means.shape[0]
    counts = np.zeros(num_arms, dtype=np.float64)
    sums = np.zeros(num_arms, dtype=np.float64)
    pulls = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        u = gen.random(num_arms)
        denom = np.maximum(counts, 1.0)
        index = sums / denom + np.sqrt(bonus / denom)
        index[counts == 0.0] = np.inf
        arm = int(np.argmax(index))
        pulls[t] = arm
        if neighbor_updates:
            row = adj[arm]
            counts[row] += 1.0
            sums[row] += u[row] < means[row]
        else:
            counts[arm] += 1.0
            if u[arm] < means[arm]:
                sums[arm] += 1.0
    return pulls, counts, sums


def _ts_episode(means, adj, horizon, gen):
    num_arms = means.shape[0]
    succ = np.zeros(num_arms, dtype=np.float64)
    fail = np.zeros(num_arms, dtype=np.float64)
    pulls = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        u = gen.random(num_arms)
        theta = gen.beta(succ + 1.0, fail + 1.0)
        arm = int(np.argmax(theta))
        pulls[t] = arm
        row = adj[arm]
        wins = (u[row] < means[row]).astype(np.float64)
        succ[row] += wins
        fail[row] += 1.0 - wins
    return pulls, succ, fail


def run_episode_arrays(
    policy: str,
    means: np.ndarray,
    adj: np.ndarray,
    horizon: int,
    gen: np.random.Generator,
    bonus: float = 0.0,
):
    """Run one episode and return (pulls, per-arm state A, per-arm state B).

    For the UCB policies the state arrays are observation counts and reward
    sums; for Thompson sampling they are success and failure counts. ``bonus``
    is the squared exploration width times n and is ignored by ``ts-n``.
    """
    means = np.ascontiguousarray(means, dtype=np.float64)
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    horizon = int(horizon)
    if horizon < 1:
        raise InputError(f"horizon must be positive, got {horizon}")
    if policy == "ucb-n" or policy == "ucb1":
        return _ucb_episode(means, adj, horizon, float(bonus), policy == "ucb-n", gen)
    if policy == "ts-n":
        return _ts_episode(means, adj, horizon, gen)
    raise InputError(f"unknown policy {policy!r}")


# ---------------------------------------------------------------------------
# sequence scans
#
# A sequence assigns a count in 0..alpha to each phase p = 1..num_phases.
# Its terms are count * 2^p; a scan totals the terms, finds the peak term,
# and flags sequences whose total exceeds (log2(alpha) + 3 + slack) peaks.
# Sequences are indexed in mixed radix: digit p (base alpha + 1) holds the
# count of phase p + 1, least significant digit first.

_CHUNK = 1 << 16


def _scan_rows(rows, threshold, slack, max_record):
    num_phases = rows.shape[1]
    pow2 = np.int64(2) ** np.arange(1, num_phases + 1, dtype=np.int64)
    terms = rows * pow2
    totals = terms.sum(axis=1)
    peaks = terms.max(axis=1)
    live = peaks > 0
    nonzero = int(np.count_nonzero(live))
    ratios = np.where(live, totals / np.maximum(peaks, 1), -1.0)
    best_index = int(np.argmax(ratios))
    best_ratio = float(ratios[best_index])
    if best_ratio < 0.0:
        best_index = -1
    bad = live & (totals > threshold * peaks + slack)
    total_violations = int(np.count_nonzero(bad))
    violations = [int(i) for i in np.flatnonzero(bad)[:max_record]]
    return nonzero, total_violations, violations, best_ratio, best_index


def _scan_range(alpha, num_phases, start, stop, threshold, slack, max_record):
    base = alpha + 1
    radix = base ** np.arange(num_phases, dtype=np.int64)
    nonzero = 0
    violations: list[int] = []
    total_violations = 0
    best_ratio = -1.0
    best_index = -1
    for lo in range(start, stop, _CHUNK):
        rows = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64)[:, None] // radix
        rows %= base
        room = max(max_record - len(violations), 0)
        live, n_bad, recorded, ratio, pos = _scan_rows(rows, threshold, slack, room)
        nonzero += live
        total_violations += n_bad
        violations.extend(lo + i for i in recorded)
        if ratio > best_ratio:
            best_ratio = ratio
            best_index = lo + pos
    return nonzero, total_violations, violations, best_ratio, best_index


def _check_scan_args(alpha, num_phases):
    if alpha < 1:
        raise InputError(f"alpha must be at least 1, got {alpha}")
    if num_phases < 1:
        raise InputError(f"num_phases must be at least 1, got {num_phases}")


def scan_sequences_range(
    alpha: int,
    num_phases: int,
    start: int,
    stop: int,
    threshold: float,
    slack: float,
    max_record: int = 16,
):
    """Scan sequence indices [start, stop) in mixed-radix order.

    Returns (nonzero_count, violation_count, recorded_violation_indices,
    best_ratio, best_ratio_index). The best index is the first one attaining
    the maximum total/peak ratio; all-zero sequences are skipped.
    """
    _check_scan_args(alpha, num_phases)
    total = (alpha + 1) ** num_phases
    if not 0 <= start <= stop <= total:
        raise InputError(
            f"scan range [{start}, {stop}) outside [0, {total}]"
        )
    if start == stop:
        return 0, 0, [], -1.0, -1
    return _scan_range(alpha, num_phases, start, stop, threshold, slack, max_record)


def scan_sequence_rows(
    rows: np.ndarray,
    threshold: float,
    slack: float,
    max_record: int = 16,
):
    """Scan explicit sequences (one per row); indices refer to row numbers."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
        raise InputError(f"expected a nonempty 2-d array of counts, got {rows.shape}")
    if rows.min() < 0:
        raise InputError("sequence counts must be nonnegative")
    return _scan_rows(rows, threshold, slack, max_record)

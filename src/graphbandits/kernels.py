"""Hot numeric loops: the batched episode loops and a band-sequence scan.

An episode batch advances ``num_runs`` runs on each of G graphs together,
one numpy step per round on (G, runs, K) state arrays. Each run reads its
own generator. Every round draws one uniform per arm (the reward vector)
and, for Thompson sampling, one Beta sample per arm, in arm order; the
policy objects in ``policies`` follow the same protocol, which keeps the
batched loops and the step-by-step path on identical trajectories.

The UCB policies draw no other randomness, so a run takes its uniforms in
``(n, K)`` blocks, which use the same stream as n calls of ``random(K)``,
and every graph of the batch reads the same block: matched seeds mean
matched rewards. The last block stops at the horizon, so a generator ends
where the one-round-at-a-time loop would leave it. Thompson sampling keeps
the per-round interleave of ``random(K)`` and the Beta draw on each
(graph, run) generator; only its argmax and its updates are batched.

For an arm with a > 1 or b > 1, ``Generator.beta`` draws
``standard_gamma(a)``, then ``standard_gamma(b)``, and returns
Ga / (Ga + Gb). The loop therefore keeps the Beta parameters interleaved
per arm, draws an episode's round with one ``standard_gamma`` call on them,
and forms the whole batch's samples with one add and one divide: the same
bits, and the generator left where ``beta`` would leave it, with one
argument check per call instead of two and a broadcast. An arm never
observed (a = b = 1) is drawn by Johnk's algorithm instead, so an episode
that still has one keeps ``beta`` for that round.

Each episode still makes two generator calls per round, about 14 us at
K = 10 and 22 us at K = 100, that batching cannot share, so a large
Thompson-sampling batch splits its runs across the usable CPUs: this
process runs the first share and a forked child (``workers``) each other
one, and the shares are joined along the run axis, bit-identical to one
process.

The sequence scan enumerates a box of band sequences by brute force. The
package itself does not call it; the tests compare ``lemma.exhaustive_verify``,
which certifies a box from its extremal sequences alone, against it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import InputError

__all__ = [
    "EpisodeBatch",
    "run_episode_arrays",
    "run_episode_batch",
    "scan_sequences_range",
]


# ---------------------------------------------------------------------------
# episode loops

# Uniform doubles held per block of rounds, summed over the runs of a batch.
_BLOCK_DOUBLES = 1 << 15

# A Thompson-sampling batch is split across CPUs only above this many
# episode rounds (graphs x runs x horizon). Forking a worker and reading its
# answer costs about 4-5 ms, and each episode round handed to it saves
# about 12-14 us at K = 10 (2 shared vCPUs, Python 3.11, numpy 2.4, median
# of 15): split in two, a T = 10, R = 2 batch took 5.2-5.6 ms against
# 0.8-0.9 ms in one process, T = 256 14-17 ms against 13-14 ms, T = 1024
# 42-46 ms against 49 ms, and T = 4096 149-155 ms against 199-201 ms. The
# floor stays well above that break-even, as the other CPUs may be busy.
_SPLIT_FLOOR = 1 << 13


@dataclass(frozen=True, eq=False)
class EpisodeBatch:
    """Outcome of a batch of episodes, indexed (graph, run, ...).

    ``marked`` holds the cumulative pseudo-regret after each marked round,
    ``final`` the regret after the last round. ``pulls`` has shape
    (horizon, graphs, runs) and is kept only when asked for. The state
    arrays are counts and reward sums for the UCB policies, success and
    failure counts for Thompson sampling.
    """

    marked: np.ndarray
    final: np.ndarray
    pulls: np.ndarray | None
    state_a: np.ndarray
    state_b: np.ndarray


class _Regret:
    """Pulled arms of one block of rounds, folded into running regret.

    The loops write each round's arms into ``arms``; ``fold`` prepends the
    running regret to the block's gaps and takes their cumulative sum along
    the rounds, which adds in the order ``np.cumsum`` over a whole episode
    does, so the values kept at the marked rounds match it bit for bit.
    """

    def __init__(self, gaps, marks, shape, block, pulls):
        self.gaps = gaps
        self.marks = marks
        self.pulls = pulls
        self.arms = np.empty((block, *shape), dtype=np.int64)
        self.steps = np.zeros((block + 1, *shape), dtype=np.float64)
        self.marked = np.empty((*shape, len(marks)), dtype=np.float64)
        self._next = 0

    def fold(self, start, n):
        steps = self.steps[: n + 1]
        steps[0] = self.steps[-1]
        np.take(self.gaps, self.arms[:n], out=steps[1:])
        np.cumsum(steps, axis=0, out=steps)
        self.steps[-1] = steps[n]
        marks = self.marks
        while self._next < len(marks) and marks[self._next] < start + n:
            self.marked[..., self._next] = steps[marks[self._next] - start + 1]
            self._next += 1
        if self.pulls is not None:
            self.pulls[start : start + n] = self.arms[:n]

    @property
    def running(self):
        return self.steps[-1]


def _blocks(horizon, block):
    """(first round, length) of each block, the last one cut at the horizon."""
    return ((t, min(block, horizon - t)) for t in range(0, horizon, block))


def _ucb_batch(means, adj, horizon, bonus, neighbor_updates, gens, regret):
    num_graphs, num_arms = adj.shape[0], adj.shape[1]
    num_runs = len(gens)
    shape = (num_graphs, num_runs, num_arms)
    counts = np.zeros(shape, dtype=np.float64)
    sums = np.zeros(shape, dtype=np.float64)
    index = np.empty(shape, dtype=np.float64)
    floor = np.empty(shape, dtype=np.float64)
    width = np.empty(shape, dtype=np.float64)
    unseen = np.empty(shape, dtype=np.bool_)
    rows = adj.reshape(num_graphs * num_arms, num_arms)
    # offsets of graph g's rows in the stacked adjacency, and of episode
    # (g, run)'s arms in the flat state arrays
    row_base = (np.arange(num_graphs, dtype=np.int64) * num_arms)[:, None]
    state_base = np.arange(num_graphs * num_runs, dtype=np.int64).reshape(
        num_graphs, num_runs
    ) * num_arms
    run_index = np.arange(num_runs, dtype=np.int64)
    flat_counts = counts.reshape(-1)
    flat_sums = sums.reshape(-1)
    block = regret.arms.shape[0]
    uniforms = np.empty((num_runs, block, num_arms), dtype=np.float64)
    # wins[i, run] is run's reward vector in round i of the block
    wins = np.empty((block, num_runs, num_arms), dtype=np.bool_)
    arms = regret.arms
    for start, n in _blocks(horizon, block):
        for run, gen in enumerate(gens):
            gen.random(out=uniforms[run, :n])
        np.less(uniforms[:, :n].transpose(1, 0, 2), means, out=wins[:n])
        for i in range(n):
            # each of the first K rounds pulls an arm nobody has seen yet,
            # if one is left, so from round K on every count is at least 1
            early = start + i < num_arms
            denom = np.maximum(counts, 1.0, out=floor) if early else counts
            np.divide(sums, denom, out=index)
            np.divide(bonus, denom, out=width)
            np.sqrt(width, out=width)
            index += width
            if early:
                np.equal(counts, 0.0, out=unseen)
                index[unseen] = np.inf
            arm = index.argmax(axis=2)
            if neighbor_updates:
                observed = rows.take(row_base + arm, axis=0)
                counts += observed
                observed &= wins[i]
                sums += observed
            else:
                at = state_base + arm
                flat_counts[at] += 1.0
                flat_sums[at] += wins[i][run_index, arm]
            arms[i] = arm
        regret.fold(start, n)
    return counts, sums


def _ts_batch(means, adj, horizon, gens, regret):
    num_graphs, num_arms = adj.shape[0], adj.shape[1]
    num_runs = len(gens) // num_graphs
    shape = (num_graphs, num_runs, num_arms)
    # Beta parameters, successes + 1 and failures + 1 (exact in float64),
    # interleaved per arm as (a, b): the order in which ``Generator.beta``
    # draws its two gammas for an arm with a > 1 or b > 1
    ab = np.ones((*shape, 2), dtype=np.float64)
    a, b = ab[..., 0], ab[..., 1]
    # the gamma draws, ones until drawn: rows of an episode still on
    # ``beta`` then divide 1 by 2, never 0 by 0
    gammas = np.ones_like(ab)
    gamma_a, gamma_b = gammas[..., 0], gammas[..., 1]
    u = np.empty(shape, dtype=np.float64)
    theta = np.empty(shape, dtype=np.float64)
    rows = adj.reshape(num_graphs * num_arms, num_arms)
    row_base = (np.arange(num_graphs, dtype=np.int64) * num_arms)[:, None]
    flat_u = u.reshape(-1, num_arms)
    flat_ab = ab.reshape(-1, 2 * num_arms)
    flat_gammas = gammas.reshape(-1, 2 * num_arms)
    flat_theta = theta.reshape(-1, num_arms)
    # Episodes with an arm never observed (a = b = 1), for which ``beta``
    # uses Johnk's algorithm instead of two gammas; counts only grow, so an
    # episode that leaves this set never comes back.
    fresh = set(range(len(gens)))
    draws = list(zip(gens, flat_u, flat_ab, flat_gammas))
    arms = regret.arms
    for start, n in _blocks(horizon, arms.shape[0]):
        for i in range(n):
            drawn = []
            for e, (gen, u_row, ab_row, g_row) in enumerate(draws):
                gen.random(out=u_row)
                if e in fresh:
                    drawn.append((e, gen.beta(ab_row[0::2], ab_row[1::2])))
                else:
                    gen.standard_gamma(ab_row, out=g_row)
            np.add(gamma_a, gamma_b, out=theta)
            np.divide(gamma_a, theta, out=theta)
            for e, row in drawn:
                flat_theta[e] = row
            arm = theta.argmax(axis=2)
            observed = rows.take(row_base + arm, axis=0)
            win = u < means
            lose = ~win
            win &= observed
            lose &= observed
            a += win
            b += lose
            arms[i] = arm
            if fresh:
                unseen = (a + b == 2.0).any(axis=2).reshape(-1)
                fresh = set(np.flatnonzero(unseen).tolist())
        regret.fold(start, n)
    return a - 1.0, b - 1.0


def _share_count(policy, num_episodes, num_runs, horizon, keep_pulls):
    """How many processes share a batch's runs; 1 keeps it in this one.

    Only Thompson sampling splits: its per-(graph, run) generator calls are
    a fixed cost per episode round that only more CPUs can share, while the
    UCB loops pay per round for all runs at once.
    """
    if (
        policy != "ts-n"
        or keep_pulls
        or num_runs < 2
        or not hasattr(os, "fork")
        or num_episodes * horizon <= _SPLIT_FLOOR
    ):
        return 1
    return min(num_runs, workers.usable_cpus())


def _run_share(
    policy, means, adj, horizon, stream, runs, bonus, gaps, marks, keep_pulls
):
    """The episodes of ``runs`` (global run indices) on every graph."""
    num_graphs, num_arms = adj.shape[0], means.shape[0]
    shape = (num_graphs, len(runs))
    block = max(1, min(horizon, _BLOCK_DOUBLES // (shape[1] * num_arms)))
    pulls = np.empty((horizon, *shape), dtype=np.int64) if keep_pulls else None
    regret = _Regret(gaps, marks, shape, block, pulls)
    if policy == "ts-n":
        gens = [stream(run) for _ in range(num_graphs) for run in runs]
        state = _ts_batch(means, adj, horizon, gens, regret)
    else:
        gens = [stream(run) for run in runs]
        state = _ucb_batch(
            means, adj, horizon, bonus, policy == "ucb-n", gens, regret
        )
    return EpisodeBatch(regret.marked, regret.running.copy(), pulls, *state)


def run_episode_batch(
    policy: str,
    means: np.ndarray,
    adj: np.ndarray,
    horizon: int,
    stream,
    num_runs: int,
    bonus: float = 0.0,
    gaps: np.ndarray | None = None,
    marks=(),
    keep_pulls: bool = False,
) -> EpisodeBatch:
    """Run ``num_runs`` episodes on each graph of ``adj`` (shape (G, K, K)).

    ``stream(run)`` returns a fresh generator for run ``run``. The UCB
    policies call it once per run and share the run's uniforms across the
    graphs; ``ts-n`` calls it once per (graph, run). Regret adds up
    ``gaps`` of the pulled arms (zero when not given) and is recorded after
    each round listed in ``marks`` (0-based, increasing). ``bonus`` is the
    squared exploration width times n and is ignored by ``ts-n``.

    A large ``ts-n`` batch that keeps no pulls splits its runs into
    contiguous shares, one per usable CPU: this process runs the first and
    a forked child each other one, with the same generators, so the result
    is the same bit for bit. ``stream`` is then called in the child for the
    child's runs, and a generator it hands out there advances only in that
    child: one the caller keeps is not moved by those runs.
    """
    means = np.ascontiguousarray(means, dtype=np.float64)
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    horizon = int(horizon)
    if horizon < 1:
        raise InputError(f"horizon must be positive, got {horizon}")
    if policy not in ("ucb-n", "ucb1", "ts-n"):
        raise InputError(f"unknown policy {policy!r}")
    marks = [int(m) for m in marks]
    if marks != sorted(set(marks)) or not all(0 <= m < horizon for m in marks):
        raise InputError(
            f"marks must be increasing rounds in [0, {horizon - 1}], got {marks}"
        )
    num_runs = int(num_runs)
    if gaps is None:
        gaps = np.zeros(means.shape[0], dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)

    def share(runs):
        return lambda: _run_share(
            policy, means, adj, horizon, stream, runs, float(bonus), gaps,
            marks, keep_pulls,
        )

    num_shares = _share_count(
        policy, adj.shape[0] * num_runs, num_runs, horizon, keep_pulls
    )
    if num_shares == 1:
        return share(range(num_runs))()
    parts = workers.run_shares(
        [share(runs) for runs in workers.split(num_runs, num_shares)]
    )

    def join(name):
        return np.concatenate([getattr(part, name) for part in parts], axis=1)

    return EpisodeBatch(
        join("marked"), join("final"), None, join("state_a"), join("state_b")
    )


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
    This is the one-graph, one-run call of ``run_episode_batch``; it leaves
    ``gen`` where ``horizon`` rounds of the draw protocol leave it.
    """
    batch = run_episode_batch(
        policy,
        means,
        np.asarray(adj)[None],
        horizon,
        lambda run: gen,
        1,
        bonus=bonus,
        keep_pulls=True,
    )
    return batch.pulls[:, 0, 0], batch.state_a[0, 0], batch.state_b[0, 0]


# ---------------------------------------------------------------------------
# reference sequence scan
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
    the maximum total/peak ratio; all-zero sequences are skipped. Terms and
    totals are int64, so results hold only while alpha * 2^(num_phases + 1)
    is below 2^63.
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

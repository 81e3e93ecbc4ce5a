"""Hot numeric loops: the batched episode loops and a band-sequence scan.

An episode batch advances ``num_runs`` runs on each of G graphs together,
one numpy step per round on (G, runs, K) state arrays. Each run reads its
own generator. Every round draws one uniform per arm (the reward vector)
and, for Thompson sampling, one Beta sample per arm, in arm order; the
policy objects in ``policies`` follow the same protocol, which keeps the
batched loops and the step-by-step path on identical trajectories.

Every elementwise step of a round reads the state through flat 1-D views
(an interleaved pair as its ``[0::2]`` and ``[1::2]`` slices), so numpy
runs it as one inner loop, about 0.5 us a call, where a strided or
broadcast 3-D operand makes it build an iterator first (1-2 us); only the
adds of bool flags into float state still pay for a cast, about 1 us.
Only the argmax over the arms reads the 3-D view. The pulled arms'
adjacency rows are taken into one bool buffer.

The UCB policies draw no other randomness, so a run takes its uniforms in
``(n, K)`` blocks, the same stream as n calls of ``random(K)``, and every
graph of the batch reads the same block: matched seeds mean matched
rewards. The block's reward flags are repeated per graph, so that a round
reads them flat. The last block stops at the horizon, where the one-round
loop would leave the generator. A round forms the index (two divides, a
square root, an add), writes its argmax into the block's arms and adds the
pulled arms' adjacency rows to the counts and, masked by the rewards, to
the sums. ucb1 is ucb-n on the edgeless graph, where a pull observes only
its own arm: whatever graphs it is given, its batch runs one graph, a
contiguous K x K identity, and repeats the result for the others. That
identity costs K^2 bytes, 1 MiB at K = 1024 and 256 MiB at
``graph.MAX_ARMS``, as much as the instance's own adjacency.

Thompson sampling keeps the per-round interleave of ``random(K)`` and the
Beta draw on each (graph, run) generator. For an arm with a > 1 or b > 1,
``Generator.beta`` draws ``standard_gamma(a)``, then ``standard_gamma(b)``,
and returns Ga / (Ga + Gb); with (a, b) interleaved per arm, one
``standard_gamma`` call draws an episode's round, the same bits with the
generator left where ``beta`` leaves it. An episode with an arm never
observed (a = b = 1: Johnk's algorithm) calls ``beta`` until it has none.
Eight batched calls finish the round: Ga / (Ga + Gb) (an add, a divide),
its argmax into the block's arms, the pulled rows, the rewards against the
means tiled once per batch, the success and failure flags, and one add of
them to the interleaved (a, b).

A UCB round of one episode costs about 4.4-4.6 us at K = 10 and 4.9-5.0
us at K = 100, for either policy (2 shared vCPUs, numpy 2.4, best of seven
4096-round episodes on a cycle). A Thompson-sampling round costs about
13 us at K = 10 and 20 us at K = 100, of which the two generator calls,
8 and 16 us, cannot be shared by batching, so a large batch splits its
runs across the usable CPUs: this process runs the first share and a
forked child (``workers``) each other one, and the shares are joined along
the run axis, bit-identical to one process.

The sequence scan enumerates a box of band sequences by brute force. The
package itself does not call it; the tests compare ``lemma.exhaustive_verify``,
which certifies a box from its extremal sequences alone, against it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import InputError, at_least, integer, within
from .policies import check_policy

__all__ = [
    "EpisodeBatch",
    "run_episode_arrays",
    "run_episode_batch",
    "scan_sequences_range",
]


# ---------------------------------------------------------------------------
# episode loops

# Reward flags held per block of rounds (rounds x graphs x runs x arms); the
# block's uniforms, one per round, run and arm, are at most as many doubles.
_BLOCK_DOUBLES = 1 << 15

# A Thompson-sampling batch is split across CPUs only above this many
# episode rounds (graphs x runs x horizon). Forking a worker and reading its
# answer costs about 4-5 ms, and each episode round handed to it saves up to
# 13 us at K = 10 (2 shared vCPUs, Python 3.11, numpy 2.4, median of 16,
# three runs): split in two, a T = 10, R = 2 batch took 5.1-6.0 ms against
# 0.8-1.0 ms in one process, T = 256 11-18 ms against 10 ms, T = 1024
# 30-51 ms against 36-39 ms, and T = 4096 101-104 ms against 140-158 ms.
# The floor stays well above that break-even, as the other CPUs may be busy.
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


def _ucb_batch(means, adj, horizon, bonus, gens, regret):
    num_graphs, num_arms = adj.shape[:2]
    num_runs = len(gens)
    shape = (num_graphs, num_runs, num_arms)
    size = num_graphs * num_runs * num_arms
    counts, sums, index, floor, width = np.zeros((5, size))
    unseen, observed = np.empty((2, size), dtype=np.bool_)
    # 0-d operands: a Python number is converted again on every call
    one, zero, bonus = np.array(1.0), np.array(0.0), np.array(bonus)
    take_rows = _row_taker(adj, num_runs, observed)
    index_3d = index.reshape(shape)
    block = regret.arms.shape[0]
    uniforms = np.empty((num_runs, block, num_arms), dtype=np.float64)
    # wins[i] is round i's reward vectors, one per run, repeated per graph
    wins = np.empty((block, *shape), dtype=np.bool_)
    flat_wins = wins.reshape(block, -1)
    arms = regret.arms
    for start, n in _blocks(horizon, block):
        for run, gen in enumerate(gens):
            gen.random(out=uniforms[run, :n])
        np.less(uniforms[:, None, :n].transpose(2, 1, 0, 3), means, out=wins[:n])
        for i in range(n):
            # each of the first K rounds pulls an arm nobody has seen yet,
            # if one is left, so from round K on every count is at least 1
            early = start + i < num_arms
            denom = np.maximum(counts, one, out=floor) if early else counts
            np.divide(sums, denom, out=index)
            np.divide(bonus, denom, out=width)
            np.sqrt(width, out=width)
            index += width
            if early:
                np.equal(counts, zero, out=unseen)
                index[unseen] = np.inf
            take_rows(index_3d.argmax(axis=2, out=arms[i]))
            counts += observed
            observed &= flat_wins[i]
            sums += observed
        regret.fold(start, n)
    return counts.reshape(shape), sums.reshape(shape)


def _row_taker(adj, num_runs, out):
    """Maps the arms pulled, shape (G, runs), to their rows of ``adj``,
    written into ``out``, the flat (G x runs x K) bool buffer; one graph's
    arms are already its row numbers. The arms are in range, so
    ``mode="clip"`` only spares ``take`` a copy of ``out``."""
    num_graphs, num_arms = adj.shape[:2]
    rows = adj.reshape(num_graphs * num_arms, num_arms)
    out = out.reshape(num_graphs, num_runs, num_arms)
    if num_graphs == 1:
        return lambda arm: rows.take(arm, axis=0, out=out, mode="clip")
    row_base = np.repeat(np.arange(num_graphs) * num_arms, num_runs)
    row_base = row_base.reshape(num_graphs, num_runs)
    at = np.empty_like(row_base)
    return lambda arm: rows.take(
        np.add(row_base, arm, out=at), axis=0, out=out, mode="clip"
    )


def _ts_batch(means, adj, horizon, gens, regret):
    num_graphs, num_arms = adj.shape[:2]
    num_runs = len(gens) // num_graphs
    shape = (num_graphs, num_runs, num_arms)
    size = len(gens) * num_arms
    # Beta parameters, successes + 1 and failures + 1 (exact in float64),
    # interleaved per arm as (a, b), and the gamma draws, ones until drawn:
    # rows of an episode still on ``beta`` divide 1 by 2, never 0 by 0
    ab, gammas = np.ones((2, 2 * size))
    a, b = ab[0::2], ab[1::2]
    gamma_a, gamma_b = gammas[0::2], gammas[1::2]
    # a round's (success, failure) per arm, added to ``ab`` in one pass
    outcome = np.empty(2 * size, dtype=np.bool_)
    success, failure = outcome[0::2], outcome[1::2]
    u, theta = np.empty((2, size))
    win, observed = np.empty((2, size), dtype=np.bool_)
    tiled_means = np.tile(means, len(gens))
    take_rows = _row_taker(adj, num_runs, observed)
    theta_3d = theta.reshape(shape)
    flat_u, flat_theta = u.reshape(-1, num_arms), theta.reshape(-1, num_arms)
    flat_ab = ab.reshape(-1, 2 * num_arms)
    draws = [
        (gen.random, gen.standard_gamma, *bufs)
        for gen, *bufs in zip(gens, flat_u, flat_ab, gammas.reshape(flat_ab.shape))
    ]
    # Episodes still on ``beta``, and the others; counts only grow, so an
    # episode that leaves ``fresh`` never comes back.
    fresh, plain = list(range(len(gens))), []
    arms = regret.arms
    for start, n in _blocks(horizon, arms.shape[0]):
        for i in range(n):
            for random, gamma, u_row, ab_row, g_row in plain:
                random(out=u_row)
                gamma(ab_row, out=g_row)
            np.add(gamma_a, gamma_b, out=theta)
            np.divide(gamma_a, theta, out=theta)
            for e in fresh:
                gens[e].random(out=flat_u[e])
                flat_theta[e] = gens[e].beta(flat_ab[e, 0::2], flat_ab[e, 1::2])
            take_rows(theta_3d.argmax(axis=2, out=arms[i]))
            np.less(u, tiled_means, out=win)
            np.logical_and(win, observed, out=success)
            np.greater(observed, win, out=failure)
            ab += outcome
            if fresh:
                unseen = (a + b == 2.0).reshape(-1, num_arms).any(axis=1)
                fresh = np.flatnonzero(unseen).tolist()
                plain = [draws[e] for e in np.flatnonzero(~unseen)]
        regret.fold(start, n)
    return (a - 1.0).reshape(shape), (b - 1.0).reshape(shape)


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
    num_graphs = adj.shape[0]
    block = _BLOCK_DOUBLES // (num_graphs * len(runs) * means.size)
    block = max(1, min(horizon, block))
    if policy == "ucb1":
        # ucb1 is ucb-n on the edgeless graph, and every graph reads the
        # run's uniforms, so one graph's episodes are every graph's
        adj = np.eye(means.size, dtype=np.bool_)[None]
    shape = (adj.shape[0], len(runs))
    pulls = np.empty((horizon, *shape), dtype=np.int64) if keep_pulls else None
    regret = _Regret(gaps, marks, shape, block, pulls)
    if policy == "ts-n":
        gens = [stream(run) for _ in range(num_graphs) for run in runs]
        state = _ts_batch(means, adj, horizon, gens, regret)
    else:
        gens = [stream(run) for run in runs]
        state = _ucb_batch(means, adj, horizon, bonus, gens, regret)
    arrays = [regret.marked, regret.running.copy(), *state]
    if adj.shape[0] < num_graphs:
        arrays = [np.repeat(x, num_graphs, axis=0) for x in arrays]
        if pulls is not None:
            pulls = np.repeat(pulls, num_graphs, axis=1)
    marked, final, state_a, state_b = arrays
    return EpisodeBatch(marked, final, pulls, state_a, state_b)


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
    """Run ``num_runs`` episodes on each graph of ``adj`` (shape (G, K, K),
    G >= 1, True on the diagonal).

    ``stream(run)`` returns a fresh generator for run ``run``. The UCB
    policies call it once per run and share the run's uniforms across the
    graphs; ``ts-n`` calls it once per (graph, run). Regret adds up
    ``gaps`` of the pulled arms (zero when not given) and is recorded after
    each round listed in ``marks`` (0-based, increasing). ``bonus`` is the
    squared exploration width times n and is ignored by ``ts-n``. Means
    outside [0, 1], and a bonus or gaps negative or not finite, are refused.

    A large ``ts-n`` batch that keeps no pulls splits its runs into
    contiguous shares, one per usable CPU: this process runs the first and
    a forked child each other one, with the same generators, so the result
    is the same bit for bit. ``stream`` is then called in the child for the
    child's runs, and a generator it hands out there advances only in that
    child: one the caller keeps is not moved by those runs.
    """
    means = np.ascontiguousarray(within("means", means, 0.0, 1.0))
    adj = np.ascontiguousarray(adj, dtype=np.bool_)
    k = means.shape[0] if means.ndim == 1 else -1
    if k < 1:
        raise InputError(f"means must be a nonempty 1-D array, got shape {means.shape}")
    if adj.ndim != 3 or adj.shape[1:] != (k, k) or adj.shape[0] < 1:
        raise InputError(
            f"adj must have shape (G, {k}, {k}) with G >= 1, got {adj.shape}"
        )
    if not adj.diagonal(axis1=1, axis2=2).all():
        raise InputError("adj must be True on its diagonal: a pull observes its own arm")
    horizon = at_least("horizon", horizon)
    policy = check_policy(policy)
    marks = [integer("marks", m) for m in marks]
    if marks != sorted(set(marks)) or not all(0 <= m < horizon for m in marks):
        raise InputError(
            f"marks must be increasing rounds in [0, {horizon - 1}], got {marks}"
        )
    num_runs = at_least("num_runs", num_runs)
    bonus = float(within("bonus", bonus, 0.0))
    gaps = np.zeros(k) if gaps is None else within("gaps", gaps, 0.0)
    if gaps.shape != (k,):
        raise InputError(f"gaps must have shape ({k},), got {gaps.shape}")

    def share(runs):
        return lambda: _run_share(
            policy, means, adj, horizon, stream, runs, bonus, gaps,
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

    This is the one-graph, one-run call of ``run_episode_batch``, whose
    ``EpisodeBatch`` describes the state arrays; it leaves ``gen`` where
    ``horizon`` rounds of the draw protocol leave it.
    """
    batch = run_episode_batch(
        policy, means, np.asarray(adj)[None], horizon, lambda run: gen, 1,
        bonus=bonus, keep_pulls=True,
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
    alpha = at_least("alpha", alpha)
    num_phases = at_least("num_phases", num_phases)
    total = (alpha + 1) ** num_phases
    if not 0 <= start <= stop <= total:
        raise InputError(
            f"scan range [{start}, {stop}) outside [0, {total}]"
        )
    if start == stop:
        return 0, 0, [], -1.0, -1
    return _scan_range(alpha, num_phases, start, stop, threshold, slack, max_record)

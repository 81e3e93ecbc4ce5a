"""Independent reference implementations used to pin expected test values.

Nothing here calls the package's search or kernel code paths: the
independent-set oracle enumerates every subset, the bound oracle evaluates
the closed forms at 50 decimal digits, the episode oracle composes the
public per-step operations into the round protocol, and the graph oracles
build every family pair by pair over Python sets.
"""
from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from graphbandits import (
    BanditInstance,
    FeedbackGraph,
    gaps,
    make_policy,
    observe,
    sample_round,
)


def brute_force_mis(num_arms, edges, weights=None):
    """Enumerate all 2^num_arms subsets.

    Returns (best value, lexicographically smallest best set as a sorted
    tuple). Near-ties within 1e-9 relative are grouped before the
    tie-break, mirroring the tolerance the package applies.
    """
    if num_arms == 0:
        return (0 if weights is None else 0.0), ()
    masks = np.arange(1 << num_arms, dtype=np.int64)
    independent = np.ones(masks.size, dtype=bool)
    for a, b in edges:
        if a != b:
            both = ((masks >> a) & 1).astype(bool) & ((masks >> b) & 1).astype(bool)
            independent &= ~both
    w = (
        np.ones(num_arms, dtype=np.float64)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    values = np.zeros(masks.size, dtype=np.float64)
    for v in range(num_arms):
        values += ((masks >> v) & 1) * w[v]
    values[~independent] = -1.0
    best = float(values.max())
    eps = 1e-9 * abs(best)
    candidates = np.flatnonzero(values >= best - eps)
    sets = sorted(
        tuple(v for v in range(num_arms) if (int(m) >> v) & 1) for m in candidates
    )
    if weights is None:
        return int(round(best)), sets[0]
    return best, sets[0]


def hp_confidence_scale(horizon, num_arms, delta):
    """8 * ln(2 * T * K / delta) at 50 decimal digits, as a float."""
    with mp.workdps(50):
        value = 8 * mp.log(2 * mp.mpf(horizon) * num_arms / mp.mpf(delta))
        return float(value)


def hp_bound_values(horizon, num_arms, alpha, hardness):
    """Every displayed bound at 50 decimal digits, returned as floats.

    The scale entry uses delta = 1 / horizon computed without rounding.
    """
    with mp.workdps(50):
        T = mp.mpf(horizon)
        K = mp.mpf(num_arms)
        a = mp.mpf(alpha)
        H = mp.mpf(hardness)
        factor = mp.log(a, 2) + 3
        log_term = mp.log(2 * K * T * T)
        scale = 8 * log_term  # delta = 1/T exactly
        return {
            "L": float(scale),
            "lemma_original": float(4 * scale * mp.log(T) * H + 1),
            "lemma_improved": float(4 * scale * factor * H + 1),
            "theorem": float(8 * log_term * factor * H + 2),
            "corollary": float(2 + 4 * mp.sqrt(2 * a * T * log_term * factor)),
        }


def episode_by_hand(instance, policy_name, horizon, rng, delta=None):
    """Compose the public per-step operations into one full episode.

    Round protocol: draw the reward vector, let the policy select, reveal
    the pulled arm's neighborhood, update. Returns (pulls, cumulative
    pseudo-regret, final policy object).
    """
    policy = make_policy(policy_name, instance.num_arms, horizon, delta)
    profile = gaps(instance)
    pulls = np.empty(horizon, dtype=np.int64)
    regret = np.empty(horizon, dtype=np.float64)
    running = 0.0
    for t in range(horizon):
        rewards = sample_round(instance, rng)
        arm = policy.select(rng)
        pulls[t] = arm
        observations = observe(instance, rewards, arm)
        policy.update(observations, pulled=arm, rng=rng)
        running += float(profile.gaps[arm])
        regret[t] = running
    return pulls, regret, policy


def random_edges(rng, num_arms, p):
    """Edge list of one G(num_arms, p) draw from ``rng``."""
    return [
        (a, b)
        for a in range(num_arms)
        for b in range(a + 1, num_arms)
        if rng.random() < p
    ]


def random_instance(rng, min_arms=2, max_arms=12):
    """Random graph + random Bernoulli means."""
    k = int(rng.integers(min_arms, max_arms + 1))
    p = float(rng.uniform(0.1, 0.9))
    graph = FeedbackGraph(k, random_edges(rng, k, p))
    means = rng.uniform(0.0, 1.0, size=k)
    return BanditInstance(means, graph)


def family_edges(spec):
    """(num_arms, edge list) of a family spec, built one pair at a time.

    These are the original pair-by-pair generators: the numpy-built
    families must give the same graphs, and ``er`` must read its stream in
    the same (a, b) row-major order.
    """
    name, _, rest = spec.partition(":")
    if name == "cliques":
        sizes = [int(s) for s in rest.split(",")]
        edges, offset = [], 0
        for s in sizes:
            edges += [(offset + a, offset + b) for a in range(s) for b in range(a + 1, s)]
            offset += s
        return offset, edges
    if name == "er":
        k, p, seed = rest.split(",")
        k, p = int(k), float(p)
        rng = np.random.default_rng(int(seed))
        return k, [
            (a, b) for a in range(k) for b in range(a + 1, k) if rng.random() < p
        ]
    k = int(rest)
    pairs = {
        "complete": [(a, b) for a in range(k) for b in range(a + 1, k)],
        "edgeless": [],
        "cycle": [(a, (a + 1) % k) for a in range(k)],
        "star": [(0, a) for a in range(1, k)],
    }
    return k, pairs[name]


def neighbor_sets(num_arms, edges):
    """Closed neighborhoods as frozensets, one per vertex."""
    sets = [{a} for a in range(num_arms)]
    for a, b in edges:
        sets[a].add(b)
        sets[b].add(a)
    return [frozenset(s) for s in sets]


def neighbor_bits(sets):
    """Per-vertex neighbour bitmasks, self excluded, set one bit at a time."""
    masks = []
    for a, s in enumerate(sets):
        m = 0
        for b in s:
            if b != a:
                m |= 1 << b
        masks.append(m)
    return masks


def greedy_by_hand(sets, weights=None):
    """Greedy independent set vertex by vertex: heaviest first, then the
    smallest neighborhood, then the lowest id. Returns (sorted vertices,
    value)."""
    k = len(sets)
    w = [1.0] * k if weights is None else [float(x) for x in weights]
    order = sorted(range(k), key=lambda v: (-w[v], len(sets[v]), v))
    chosen, blocked = [], set()
    for v in order:
        if v not in blocked:
            chosen.append(v)
            blocked |= sets[v]
    chosen.sort()
    value = len(chosen) if weights is None else math.fsum(w[v] for v in chosen)
    return chosen, value

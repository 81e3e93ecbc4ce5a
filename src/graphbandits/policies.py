"""Arm-selection policies operating on neighborhood observations.

Each policy exposes ``select`` and ``update``. ``update`` takes the
observation list produced by ``env.observe`` so that policies never touch
unobserved rewards. These objects are the step-by-step reference path; the
batched episode loops in ``kernels`` consume the same random stream and make
identical decisions.
"""
from __future__ import annotations

import numpy as np

from .bounds import confidence_scale, default_delta
from .errors import InputError, at_least

__all__ = [
    "POLICY_NAMES",
    "TsNPolicy",
    "Ucb1Policy",
    "UcbNPolicy",
    "exploration_bonus",
    "make_policy",
]


def exploration_bonus(num_arms: int, horizon: int, delta: float | None = None) -> float:
    """Squared exploration width times n: 2 * ln(2 * horizon * num_arms / delta).

    An arm with n observations gets the index mean + sqrt(bonus / n);
    ``delta`` defaults to 1 / horizon. This is a quarter of
    ``bounds.confidence_scale``, exactly, as the factor is a power of two.
    """
    return confidence_scale(horizon, num_arms, default_delta(horizon, delta)) / 4


def _check_observations(observations, num_arms: int):
    pairs = []
    seen = set()
    for arm, reward in observations:
        arm = int(arm)
        if not 0 <= arm < num_arms:
            raise InputError(f"observed arm {arm} outside range 0..{num_arms - 1}")
        if arm in seen:
            raise InputError(f"arm {arm} appears twice in one observation batch")
        seen.add(arm)
        reward = float(reward)
        if not 0.0 <= reward <= 1.0:
            raise InputError(f"reward {reward} for arm {arm} outside [0, 1]")
        pairs.append((arm, reward))
    return pairs


class UcbNPolicy:
    """Optimistic index policy that absorbs every observed neighbor reward.

    The index of an arm with n observations and empirical mean m is
    m + sqrt(2 * log(2 * horizon * num_arms / delta) / n); unobserved arms
    have an infinite index. Ties resolve to the lowest arm id.
    """

    def __init__(self, num_arms: int, horizon: int, delta: float | None = None):
        self.num_arms = at_least("num_arms", num_arms)
        self.horizon = at_least("horizon", horizon)
        self.delta = default_delta(self.horizon, delta)
        self.bonus = exploration_bonus(self.num_arms, self.horizon, self.delta)
        self.counts = np.zeros(self.num_arms, dtype=np.float64)
        self.sums = np.zeros(self.num_arms, dtype=np.float64)

    def indices(self) -> np.ndarray:
        """Current optimistic index of every arm (inf when unobserved)."""
        denom = np.maximum(self.counts, 1.0)
        idx = self.sums / denom + np.sqrt(self.bonus / denom)
        idx[self.counts == 0.0] = np.inf
        return idx

    def select(self, rng=None) -> int:
        return int(np.argmax(self.indices()))

    def update(self, observations, pulled: int | None = None, rng=None):
        for arm, reward in _check_observations(observations, self.num_arms):
            self.counts[arm] += 1.0
            self.sums[arm] += reward


class Ucb1Policy(UcbNPolicy):
    """Same index as UcbNPolicy but ignores every reward except the pull's own."""

    def update(self, observations, pulled: int | None = None, rng=None):
        if pulled is None:
            raise InputError("Ucb1Policy.update needs the pulled arm id")
        pulled = int(pulled)
        own = [
            (arm, reward)
            for arm, reward in _check_observations(observations, self.num_arms)
            if arm == pulled
        ]
        super().update(own)


class TsNPolicy:
    """Thompson sampling with Beta posteriors fed by neighbor observations."""

    def __init__(self, num_arms: int, horizon: int | None = None, delta=None):
        self.num_arms = at_least("num_arms", num_arms)
        self.successes = np.zeros(self.num_arms, dtype=np.float64)
        self.failures = np.zeros(self.num_arms, dtype=np.float64)

    def posterior_means(self) -> np.ndarray:
        return (self.successes + 1.0) / (self.successes + self.failures + 2.0)

    def select(self, rng: np.random.Generator) -> int:
        if rng is None:
            raise InputError("TsNPolicy.select needs a random generator")
        theta = rng.beta(self.successes + 1.0, self.failures + 1.0)
        return int(np.argmax(theta))

    def update(self, observations, pulled: int | None = None, rng=None):
        for arm, reward in _check_observations(observations, self.num_arms):
            if reward == 1.0:
                win = 1.0
            elif reward == 0.0:
                win = 0.0
            else:
                # fractional rewards are binarized by an auxiliary coin flip
                if rng is None:
                    raise InputError(
                        f"fractional reward {reward} needs a random generator"
                    )
                win = 1.0 if rng.random() < reward else 0.0
            self.successes[arm] += win
            self.failures[arm] += 1.0 - win


POLICY_NAMES = ("ucb-n", "ucb1", "ts-n")


def check_policy(name: str, delta: float | None = None) -> str:
    """The canonical (stripped, lower-case) form of ``name``, a known policy
    that accepts ``delta``."""
    key = str(name).strip().lower()
    if key not in POLICY_NAMES:
        raise InputError(
            f"unknown policy {name!r}; expected one of {', '.join(POLICY_NAMES)}"
        )
    if key == "ts-n" and delta is not None:
        raise InputError("ts-n does not take a delta parameter")
    return key


def episode_bonus(
    name: str, num_arms: int, horizon: int, delta: float | None = None
) -> float:
    """The ``bonus`` the episode kernels take: ``exploration_bonus`` for the
    UCB policies, 0.0 for ``ts-n``, which has no exploration width."""
    if check_policy(name, delta) == "ts-n":
        return 0.0
    return exploration_bonus(num_arms, horizon, delta)


def make_policy(name: str, num_arms: int, horizon: int, delta: float | None = None):
    """Instantiate a policy by its command-line name."""
    key = check_policy(name, delta)
    if key == "ts-n":
        return TsNPolicy(num_arms)
    cls = UcbNPolicy if key == "ucb-n" else Ucb1Policy
    return cls(num_arms, horizon, delta)

"""Stochastic reward environment and the neighborhood observation rule."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, InputError, within
from .graph import FeedbackGraph

BERNOULLI = "bernoulli"
SUPPORTED_FAMILIES = (BERNOULLI,)

__all__ = [
    "BERNOULLI",
    "SUPPORTED_FAMILIES",
    "BanditInstance",
    "GapProfile",
    "gaps",
    "observe",
    "sample_round",
]


@dataclass(frozen=True, eq=False)
class BanditInstance:
    """A fixed reward vector plus the graph describing what a pull reveals."""

    means: np.ndarray
    graph: FeedbackGraph
    family: str = BERNOULLI
    # computed once and kept: the gap profile, by ``gaps``; by ``phases``, the
    # graph's labelling per weighting and each independent set per request
    _gaps: GapProfile | None = field(default=None, init=False, repr=False)
    _labels: dict = field(default_factory=dict, init=False, repr=False)
    _sets: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        means = np.array(self.means, dtype=np.float64)
        if means.ndim != 1 or means.size == 0:
            raise InputError("means must be a nonempty one-dimensional vector")
        within("means", means, 0.0, 1.0)
        if not isinstance(self.graph, FeedbackGraph):
            raise InputError("graph must be a FeedbackGraph")
        if self.graph.num_arms != means.size:
            raise InputError(
                f"graph has {self.graph.num_arms} arms but means has "
                f"{means.size} entries"
            )
        if self.family not in SUPPORTED_FAMILIES:
            raise CapabilityError(
                f"unsupported reward family {self.family!r}; supported: "
                f"{', '.join(SUPPORTED_FAMILIES)}"
            )
        means.setflags(write=False)
        object.__setattr__(self, "means", means)

    @property
    def num_arms(self) -> int:
        return int(self.means.size)


@dataclass(frozen=True, eq=False)
class GapProfile:
    """Suboptimality gaps: best mean minus each arm's mean."""

    gaps: np.ndarray
    delta_min: float | None
    optimal_arms: frozenset

    def suboptimal_arms(self) -> tuple[int, ...]:
        return tuple(
            a for a in range(self.gaps.size) if a not in self.optimal_arms
        )


def gaps(instance: BanditInstance) -> GapProfile:
    """Gap of every arm; ``delta_min`` is None when all arms are optimal.

    Computed once per instance and kept on it; the profile is read-only.
    """
    if instance._gaps is None:
        g = instance.means.max() - instance.means
        g.setflags(write=False)
        positive = g[g > 0.0]
        delta_min = float(positive.min()) if positive.size else None
        optimal = frozenset(int(a) for a in np.flatnonzero(g == 0.0))
        profile = GapProfile(gaps=g, delta_min=delta_min, optimal_arms=optimal)
        object.__setattr__(instance, "_gaps", profile)
    return instance._gaps


def sample_round(instance: BanditInstance, rng: np.random.Generator) -> np.ndarray:
    """Draw one reward per arm; Bernoulli rewards are 0.0 or 1.0.

    Exactly ``num_arms`` uniforms are consumed from ``rng`` regardless of
    what is later observed, so streams stay aligned across policies.
    """
    if instance.family != BERNOULLI:
        raise CapabilityError(f"unsupported reward family {instance.family!r}")
    u = rng.random(instance.num_arms)
    return (u < instance.means).astype(np.float64)


def observe(instance: BanditInstance, rewards, pulled: int) -> list[tuple[int, float]]:
    """Reveal the rewards of the pulled arm's neighborhood, sorted by arm id."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.shape != (instance.num_arms,):
        raise InputError(
            f"expected {instance.num_arms} rewards, got shape {rewards.shape}"
        )
    neighborhood = instance.graph.neighborhood(pulled)
    return [(a, float(rewards[a])) for a in sorted(neighborhood)]

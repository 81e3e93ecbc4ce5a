"""Gap-phase decomposition.

Suboptimal arms are bucketed into dyadic gap bands: band p holds the arms
whose gap lies in (2^-p, 2^-p+1]. Each band's induced subgraph is measured
by its exact maximum-independent-set size, and the band maximizing
size * 2^p drives the downstream budget arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .env import BanditInstance, gaps
from .errors import InputError, at_least
from .graph import DEFAULT_EXACT_LIMIT, _Labels

__all__ = [
    "PhaseBand",
    "PhaseDecomposition",
    "RegretMass",
    "decompose",
    "log2_alpha_ratio",
    "max_phase_index",
    "phase_of",
    "regret_mass",
]


def _weights(weighting, gap):
    """Every arm's weight: None for unit weights, else its entry in the gap
    vector ``gap`` or its inverse (0 for a gap of 0); an inverse that
    overflows is refused."""
    if weighting is None:
        return None
    weights = gap.tolist()
    if weighting == "1/gap":
        weights = [1.0 / w if w else 0.0 for w in weights]
        if math.inf in weights:
            arm = weights.index(math.inf)
            raise InputError(
                f"arm {arm}: gap {float(gap[arm]):.3g} is too small, "
                "its inverse overflows"
            )
    return weights


def _solve(instance, arms, weighting, exact_limit, allow_approximate, gap=None):
    """Independent set of the sorted arm ids ``arms``, in those ids.

    ``weighting`` is None (unit weights), ``"gap"`` or ``"1/gap"`` of each
    arm's entry in the gap vector ``gap``. The instance keeps a ``_Labels``
    of its graph per weighting, weighting every arm (an optimal arm's inverse
    gap as 0), whose ``solve`` answers ``arms``: exactly within ``exact_limit``
    arms, else greedily if ``allow_approximate``, else by a refusal. Answers,
    never refusals, are kept on the instance per key."""
    key = (arms, weighting, exact_limit, allow_approximate)
    found = instance._sets.get(key)
    if found is None:
        labels = instance._labels.get(weighting)
        if labels is None:
            adj = instance.graph.adjacency_matrix()
            labels = instance._labels[weighting] = _Labels(adj, _weights(weighting, gap))
        found = instance._sets[key] = labels.solve(arms, exact_limit, allow_approximate)
    return found


def phase_of(gap: float) -> int:
    """The unique integer p >= 1 with 2^-p < gap <= 2^-(p-1).

    Implemented with frexp so gaps sitting exactly on a power of two
    classify into the correct band with no floating-point slop.
    """
    gap = float(gap)
    if math.isnan(gap) or not 0.0 < gap <= 1.0:
        raise InputError(f"gap must lie in (0, 1], got {gap}")
    mantissa, exponent = math.frexp(gap)  # gap = mantissa * 2**exponent
    if mantissa == 0.5:
        return 2 - exponent
    return 1 - exponent


def max_phase_index(horizon: int, delta_min: float | None) -> int:
    """Largest band index worth tracking for this horizon.

    Bands beyond the smallest gap are empty by construction, and bands
    finer than the horizon resolves (index above floor(ln horizon)) are
    dropped. ``delta_min`` of None (no suboptimal arm) yields 0: nothing
    to decompose.
    """
    horizon = at_least("horizon", horizon)
    if delta_min is None:
        return 0
    return min(int(math.log(horizon)), phase_of(delta_min))


def log2_alpha_ratio(alpha: int, count: int) -> int:
    """The smallest j >= 0 with count * 2^j >= alpha, i.e.
    ceil(log2(alpha / count)), in exact integers; ``count`` is positive."""
    return ((alpha + count - 1) // count - 1).bit_length()


@dataclass(frozen=True)
class PhaseBand:
    """One dyadic gap band and its independence measurement."""

    phase: int
    arms: tuple[int, ...]
    independent_size: int
    witness: frozenset

    @property
    def term(self) -> int:
        """This band's budget contribution, independent_size * 2^phase."""
        return self.independent_size << self.phase


@dataclass(frozen=True)
class PhaseDecomposition:
    """All bands of an instance plus the peak-band arithmetic.

    ``log2_peak_size`` is floor(log2) of the peak band's independent size;
    ``log2_alpha_ratio`` is ``log2_alpha_ratio(alpha, peak size)``. Both
    are None for an empty decomposition (no band has any arms).
    """

    alpha: int
    max_phase: int
    bands: tuple[PhaseBand, ...]
    peak_phase: int | None
    log2_peak_size: int | None
    log2_alpha_ratio: int | None

    @property
    def is_empty(self) -> bool:
        return self.peak_phase is None

    def band(self, phase: int) -> PhaseBand:
        for b in self.bands:
            if b.phase == phase:
                return b
        raise InputError(f"no phase {phase} in this decomposition")

    @property
    def weighted_total(self) -> int:
        """Sum over bands of independent_size * 2^phase (exact integer)."""
        return sum(b.term for b in self.bands)

    @property
    def peak_term(self) -> int:
        return 0 if self.peak_phase is None else self.band(self.peak_phase).term


def decompose(
    instance: BanditInstance,
    horizon: int,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> PhaseDecomposition:
    """Bucket suboptimal arms into bands and measure each induced subgraph.

    Every arm with a positive gap whose band index is at most
    ``max_phase_index`` lands in exactly one band. Alpha and band sizes are
    solved once per instance, exactly unless ``allow_approximate`` is set.
    The peak band maximizes size * 2^phase, ties going to the smallest phase.
    """
    profile = gaps(instance)
    top = max_phase_index(horizon, profile.delta_min)
    alpha = int(_solve(
        instance, range(instance.num_arms), None, exact_limit, allow_approximate
    ).value)
    buckets: dict[int, list[int]] = {}
    for arm, gap in enumerate(profile.gaps.tolist()):
        if gap > 0.0:
            p = phase_of(gap)
            if p <= top:
                buckets.setdefault(p, []).append(arm)
    bands = []
    for p in range(1, top + 1):
        arms = tuple(buckets.get(p, ()))
        size, witness = 0, frozenset()
        if arms:
            found = _solve(instance, arms, None, exact_limit, allow_approximate)
            size, witness = int(found.value), found.vertices
        bands.append(PhaseBand(phase=p, arms=arms, independent_size=size, witness=witness))
    peak = max(bands, key=lambda band: band.term, default=None)
    if peak is None or peak.term == 0:
        return PhaseDecomposition(alpha, top, tuple(bands), None, None, None)
    return PhaseDecomposition(
        alpha=alpha,
        max_phase=top,
        bands=tuple(bands),
        peak_phase=peak.phase,
        log2_peak_size=peak.independent_size.bit_length() - 1,
        log2_alpha_ratio=log2_alpha_ratio(alpha, peak.independent_size),
    )


@dataclass(frozen=True)
class RegretMass:
    """Exact band-weighted mass and the dyadic cap that dominates it."""

    value: float
    cap: float


def regret_mass(
    instance: BanditInstance,
    horizon: int,
    scale: float,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> RegretMass:
    """Per-band gap-weighted independence mass.

    The value is the sum over bands of scale * 4^phase * (maximum weighted
    independent set with the arms' gaps as weights). Because every gap in
    band p is at most 2^-(p-1), each band term is dominated by
    2 * scale * size * 2^p, so the total is capped by 2 * scale times the
    decomposition's weighted total; the cap is returned alongside and the
    ordering is checked. It reads the instance's kept gap profile, and
    solves each band's gap-weighted set once per instance.
    """
    scale = float(scale)
    if not math.isfinite(scale) or scale <= 0.0:
        raise InputError(f"scale must be positive and finite, got {scale}")
    decomp = decompose(
        instance, horizon, exact_limit=exact_limit, allow_approximate=allow_approximate
    )
    gap = gaps(instance).gaps
    value = 0.0
    for band in decomp.bands:
        if not band.arms:
            continue
        found = _solve(instance, band.arms, "gap", exact_limit, allow_approximate, gap)
        value += scale * 4.0 ** band.phase * found.value
    cap = 2.0 * scale * float(decomp.weighted_total)
    if value > cap * (1.0 + 1e-9) + 1e-12:
        raise RuntimeError(
            f"band mass {value} exceeded its dyadic cap {cap}; "
            "this indicates a bug in the band arithmetic"
        )
    return RegretMass(value=value, cap=cap)

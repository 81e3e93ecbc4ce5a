"""Closed-form regret bounds and the instance hardness functional."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .env import BanditInstance, gaps
from .errors import InputError, at_least, decimal_digits
from .graph import DEFAULT_EXACT_LIMIT
from .phases import _solve

__all__ = [
    "BoundReport",
    "alpha_log_factor",
    "bound_report",
    "confidence_scale",
    "gap_free_regret_bound",
    "hardness",
    "log_alpha_bound",
    "log_horizon_bound",
    "report_csv_header",
    "report_csv_row",
    "ucbn_regret_bound",
]


def _check_hardness(value) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise InputError(f"hardness must be finite and nonnegative, got {value}")
    return value


def alpha_log_factor(alpha: int) -> float:
    """The independence factor log2(alpha) + 3 shared by the improved bounds."""
    return math.log2(at_least("alpha", alpha)) + 3.0


def default_delta(horizon: int, delta: float | None = None) -> float:
    """``delta``, or 1 / horizon when it is None (and the horizon exceeds 1)."""
    if delta is not None:
        return float(delta)
    if at_least("horizon", horizon) == 1:
        raise InputError(
            "run.horizon must be at least 2 when no delta is given: the "
            "default delta 1/horizon would be 1.0, outside (0, 1)"
        )
    return 1.0 / _real_horizon(horizon)


def _real_horizon(horizon: int) -> float:
    """The horizon as a float, refused beyond the float range."""
    try:
        return float(horizon)
    except OverflowError:
        raise InputError(
            f"horizon of {decimal_digits(horizon)} digits is beyond float range"
        ) from None


def confidence_scale(horizon: int, num_arms: int, delta: float) -> float:
    """The sample-threshold scale 8 * ln(2 * horizon * num_arms / delta)."""
    horizon = at_least("horizon", horizon)
    num_arms = at_least("num_arms", num_arms)
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise InputError(f"delta must lie in the open interval (0, 1), got {delta}")
    ratio = 2.0 * _real_horizon(horizon) * num_arms / delta
    if math.isinf(ratio):
        # below the default 1/horizon the delta is to blame, else the horizon
        culprit = (
            f"delta {delta:.3g} is too small" if delta < 1.0 / horizon
            else f"horizon {horizon:.3g} is too large"
        )
        raise InputError(f"{culprit}, 2 * horizon * num_arms / delta overflows")
    return 8.0 * math.log(ratio)


def hardness(
    instance: BanditInstance,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> float:
    """Max over independent sets of suboptimal arms of the sum of 1/gap.

    Optimal arms are removed from the graph before the search (their
    inverse gap is undefined), so the maximization ranges over independent
    sets of the suboptimal induced subgraph. Returns 0 when no arm is
    suboptimal. Solved once per instance; an inverse gap that overflows
    raises InputError.
    """
    profile = gaps(instance)
    suboptimal = profile.suboptimal_arms()
    if not suboptimal:
        return 0.0
    return float(_solve(
        instance, suboptimal, "1/gap", exact_limit, allow_approximate, profile.gaps
    ).value)


def log_horizon_bound(scale: float, horizon: int, hardness_value: float) -> float:
    """Regret budget carrying the log-horizon factor: 4*scale*ln(T)*H + 1."""
    horizon = at_least("horizon", horizon)
    return 4.0 * float(scale) * math.log(horizon) * _check_hardness(hardness_value) + 1.0


def log_alpha_bound(scale: float, alpha: int, hardness_value: float) -> float:
    """Regret budget with the independence factor: 4*scale*(log2(a)+3)*H + 1."""
    return (
        4.0 * float(scale) * alpha_log_factor(alpha) * _check_hardness(hardness_value)
        + 1.0
    )


def ucbn_regret_bound(
    horizon: int, num_arms: int, alpha: int, hardness_value: float
) -> float:
    """Pseudo-regret bound for UCB-N: 8*ln(2*K*T^2)*(log2(a)+3)*H + 2."""
    horizon = at_least("horizon", horizon)
    num_arms = at_least("num_arms", num_arms)
    return (
        8.0
        * math.log(2.0 * num_arms * float(horizon) * float(horizon))
        * alpha_log_factor(alpha)
        * _check_hardness(hardness_value)
        + 2.0
    )


def gap_free_regret_bound(horizon: int, num_arms: int, alpha: int) -> float:
    """Gap-independent bound: 2 + 4*sqrt(2*a*T*ln(2*K*T^2)*(log2(a)+3))."""
    horizon = at_least("horizon", horizon)
    num_arms = at_least("num_arms", num_arms)
    alpha = at_least("alpha", alpha)
    inner = (
        2.0
        * alpha
        * float(horizon)
        * math.log(2.0 * num_arms * float(horizon) * float(horizon))
        * alpha_log_factor(alpha)
    )
    return 2.0 + 4.0 * math.sqrt(inner)


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form bound evaluated on one instance and horizon."""

    horizon: int
    num_arms: int
    delta: float
    alpha: int
    hardness: float
    scale: float
    log_horizon_value: float
    log_alpha_value: float
    ucbn_bound: float
    gap_free_bound: float


def bound_report(
    instance: BanditInstance,
    horizon: int,
    delta: float | None = None,
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    allow_approximate: bool = False,
) -> BoundReport:
    """Evaluate all bounds for ``instance`` at ``horizon``.

    ``delta`` defaults to 1/horizon, the setting under which the UCB-N
    bound is stated. A bound that overflows a float raises InputError.
    """
    horizon = at_least("horizon", horizon)
    delta = default_delta(horizon, delta)
    alpha = int(_solve(
        instance, range(instance.num_arms), None, exact_limit, allow_approximate
    ).value)
    h = hardness(instance, exact_limit=exact_limit, allow_approximate=allow_approximate)
    scale = confidence_scale(horizon, instance.num_arms, delta)
    report = BoundReport(
        horizon=horizon,
        num_arms=instance.num_arms,
        delta=delta,
        alpha=alpha,
        hardness=h,
        scale=scale,
        log_horizon_value=log_horizon_bound(scale, horizon, h),
        log_alpha_value=log_alpha_bound(scale, alpha, h),
        ucbn_bound=ucbn_regret_bound(horizon, instance.num_arms, alpha, h),
        gap_free_bound=gap_free_regret_bound(horizon, instance.num_arms, alpha),
    )
    for key, field in _REPORT_KEYS[-4:]:  # the four bounds
        if not math.isfinite(getattr(report, field)):
            raise InputError(
                f"the {key} bound overflows a float at horizon {horizon:.3g} "
                f"and H {h:.3g}"
            )
    return report


# (key, BoundReport field) in the order every report is written
_REPORT_KEYS = (
    ("T", "horizon"),
    ("K", "num_arms"),
    ("delta", "delta"),
    ("alpha", "alpha"),
    ("H", "hardness"),
    ("L", "scale"),
    ("lemma_original", "log_horizon_value"),
    ("lemma_improved", "log_alpha_value"),
    ("theorem", "ucbn_bound"),
    ("corollary", "gap_free_bound"),
)


def format_value(x) -> str:
    """An integer as it is, a real to 12 significant digits."""
    return str(x) if isinstance(x, int) else format(float(x), ".12g")


def report_pairs(report: BoundReport) -> list[tuple[str, str]]:
    """(key, text) of every bound of ``report``, keys ``T`` to ``corollary``."""
    return [(key, format_value(getattr(report, field))) for key, field in _REPORT_KEYS]


def report_csv_header() -> str:
    return ",".join(key for key, _ in _REPORT_KEYS)


def report_csv_row(report: BoundReport) -> str:
    return ",".join(text for _, text in report_pairs(report))

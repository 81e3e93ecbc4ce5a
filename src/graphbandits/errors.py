"""Exception types shared across the package, and the checks and number
formatting their messages use."""
import math
import operator

import numpy as np


class GraphBanditsError(Exception):
    """Base class for errors raised by this package."""


class InputError(GraphBanditsError, ValueError):
    """A caller-supplied value is outside the documented domain."""


class ConfigError(GraphBanditsError):
    """An experiment configuration is missing fields or malformed."""


class CapabilityError(GraphBanditsError):
    """The request exceeds what this build can compute exactly."""


def integer(name: str, value) -> int:
    """``value`` as an int; a bool, float, str or other non-integer is
    refused with an InputError (numpy integers are accepted)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {value!r}")


def at_least(name: str, value, low: int = 1) -> int:
    """``value`` as an int, refused with an InputError below ``low``."""
    value = integer(name, value)
    if value < low:
        raise InputError(f"{name} must be at least {low}, got {int_text(value)}")
    return value


def within(name: str, values, low: float, high: float = math.inf) -> np.ndarray:
    """``values`` (a number or an array) as float64, refused with an
    InputError unless every entry is finite and in [low, high]."""
    try:
        array = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be numeric, got {type(values).__name__}") from None
    bad = ~(np.isfinite(array) & (array >= low) & (array <= high))
    if bad.any():
        rule = f"lie in [{low:g}, {high:g}]"
        if high == math.inf:
            rule = f"be finite and at least {low:g}"
        raise InputError(f"{name} must {rule}, got {array[bad].flat[0]}")
    return array


def decimal_digits(value: int) -> int:
    """Number of decimal digits of ``abs(value)``, counted without ``str()``,
    which refuses integers past 4,300 digits."""
    value = abs(value)
    digits = int(value.bit_length() * math.log10(2))  # at most the count
    while value >= 10**digits:
        digits += 1
    return max(digits, 1)


def int_text(value: int, max_digits: int | None = 50, longer: str | None = None) -> str:
    """``value`` in decimal for a message, while it has at most
    ``max_digits`` digits (None: as many as ``str()`` converts); past that
    ``longer``, by default the digit count as ``<D digits>``."""
    digits = decimal_digits(value)
    if max_digits is None or digits <= max_digits:
        try:
            return str(value)
        except ValueError:  # past str()'s limit, sys.get_int_max_str_digits()
            pass
    return longer or f"{'-' * (value < 0)}<{digits} digits>"

"""Exception types shared across the package."""


class GraphBanditsError(Exception):
    """Base class for errors raised by this package."""


class InputError(GraphBanditsError, ValueError):
    """A caller-supplied value is outside the documented domain."""


class ConfigError(GraphBanditsError):
    """An experiment configuration is missing fields or malformed."""


class CapabilityError(GraphBanditsError):
    """The request exceeds what this build can compute exactly."""


def at_least(name: str, value, low: int = 1) -> int:
    """``value`` as an int, refused with an InputError below ``low``."""
    value = int(value)
    if value < low:
        raise InputError(f"{name} must be at least {low}, got {value}")
    return value

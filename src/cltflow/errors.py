"""Exception types shared across the library."""

__all__ = [
    "MeasureError",
    "MembershipError",
    "CharFnBoundError",
    "ConfigError",
]


class MeasureError(ValueError):
    """Invalid construction or use of a probability measure."""


class MembershipError(MeasureError):
    """A measure fails the centred/reduced/moment requirements of an operation."""


class CharFnBoundError(ArithmeticError):
    """A characteristic function evaluation exceeded modulus 1 beyond tolerance."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""

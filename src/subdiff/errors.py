"""Exception types shared across the package, and its one integer check."""

import numbers

__all__ = ["ConfigurationError", "NumericsError", "is_int"]


class ConfigurationError(ValueError):
    """Invalid mesh/grid/schedule/solver configuration supplied by the caller."""


class NumericsError(RuntimeError):
    """A numerical procedure diverged or failed to reach its required tolerance."""


def is_int(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

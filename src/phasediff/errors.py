"""Exception types shared across the package, and the finite-input and
time guards."""

import cmath


class DomainError(ValueError):
    """An argument lies outside the domain where a formula is defined."""


class TruncationError(RuntimeError):
    """A truncated series failed its tail or self-consistency bound."""


def check_finite(**values) -> None:
    """Raise ValueError naming the first keyword argument that is NaN or
    infinite; every comparison with NaN is false, so range checks miss it."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} = {value} must be finite")


def check_time(t: float) -> None:
    """Evolution runs forward only: raise unless t is finite and >= 0."""
    check_finite(t=t)
    if t < 0:
        raise DomainError(f"t = {t} must be nonnegative")

"""Exception types shared across the package, and the finite-input, time
and spin guards."""

import cmath

import numpy as np


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


def check_time(t) -> None:
    """Evolution runs forward only: raise unless t is finite and >= 0.  An
    array of t is checked in one pass, and a refusal names its first entry
    at fault."""
    if isinstance(t, np.ndarray):
        if not (np.isfinite(t).all() and (t >= 0).all()):
            for value in t.ravel().tolist():
                check_time(value)
        return
    if not cmath.isfinite(t):
        raise ValueError(f"t = {t} must be finite")
    if t < 0:
        raise DomainError(f"t = {t} must be nonnegative")


# The largest 2j: the atomic dipole weights form 2 sqrt(C(2j, k) C(2j, k'))
# before their Beta factor, 2 C(2j, floor j) at the centre, which fits a
# double up to 2j = 1028 (1.43e308) and overflows at 2j = 1029.
MAX_TWICE_J = 1028


def twice_spin(name: str, value, tj: int | None = None) -> int:
    """2 * value as an int for a spin label, a multiple of 1/2, refused by
    name otherwise.  Without tj the label is a spin j, 0 <= 2j <= MAX_TWICE_J;
    given tj = 2j it is a projection m of that spin, |m| <= j with j - m an
    integer."""
    check_finite(**{name: value})
    doubled = 2 * float(value)
    twice = round(doubled)
    if abs(doubled - twice) > 1e-9:
        raise ValueError(f"{name} = {value} is not a multiple of 1/2")
    if tj is None:
        if twice < 0:
            raise ValueError(f"{name} = {value} must be nonnegative")
        if twice > MAX_TWICE_J:
            raise ValueError(
                f"{name} = {value} exceeds {MAX_TWICE_J / 2:g}, past which the atomic "
                "dipole weights overflow a double"
            )
    elif abs(twice) > tj:
        raise ValueError(f"|{name}| = {abs(value)} exceeds j = {tj / 2:g}")
    elif (tj - twice) % 2:
        raise ValueError(f"j - {name} = {(tj - twice) / 2:g} is not an integer")
    return twice

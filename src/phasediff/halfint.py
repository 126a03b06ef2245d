"""Exact half-integer angular momentum labels.

Spin labels j, m, n, p may be half-odd integers; storing twice the value as
an int keeps arithmetic and comparisons exact.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class HalfInteger:
    """A number of the form k/2 with k an integer, stored as ``twice_value``."""

    twice_value: int

    @classmethod
    def of(cls, value) -> "HalfInteger":
        """Coerce an int, float multiple of 1/2, or HalfInteger."""
        if isinstance(value, HalfInteger):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        doubled = 2 * float(value)
        rounded = round(doubled)
        if abs(doubled - rounded) > 1e-9:
            raise ValueError(f"{value!r} is not a multiple of 1/2")
        return cls(rounded)

    @property
    def value(self) -> float:
        return self.twice_value / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __repr__(self) -> str:
        if self.is_integer:
            return f"HalfInteger({self.twice_value // 2})"
        return f"HalfInteger({self.twice_value}/2)"


def check_jm(j: HalfInteger, m: HalfInteger, name: str = "m") -> None:
    """Require |m| <= j and j - m integer."""
    if j.twice_value < 0:
        raise ValueError(f"j = {j.value} must be nonnegative")
    if abs(m.twice_value) > j.twice_value:
        raise ValueError(f"|{name}| = {abs(m.value)} exceeds j = {j.value}")
    if (j.twice_value - m.twice_value) % 2 != 0:
        raise ValueError(f"j - {name} = {j.value - m.value} is not an integer")


def m_range(j: HalfInteger) -> list[HalfInteger]:
    """Magnetic quantum numbers -j, -j+1, ..., +j in ascending order."""
    return [HalfInteger(tm) for tm in range(-j.twice_value, j.twice_value + 1, 2)]

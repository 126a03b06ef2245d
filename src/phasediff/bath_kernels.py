"""Squeezed thermal bath kernels and moments.

Two distinct bath descriptions appear:

* the QND (dephasing) bath, an Ohmic continuum with exponential cutoff
  omega_c, squeezing magnitude r and frequency-linear squeezing phase
  Phi(omega) = a*omega, entering through the kernels eta(t), gamma(t);
* the dissipative bath, characterized by its moments N and M at the system
  frequency, with a constant squeezing phase Phi.

Units: hbar = k_B = 1.  The QND gamma0 carries 1/energy^2, the dissipative
gamma0 carries 1/time; the two specs are separate types so they cannot be
silently confused.

Closed forms for gamma(t) exist only in the T = 0 and high-temperature
limits, so the regime is an explicit input rather than an interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, check_finite


@dataclass(frozen=True)
class ZeroTemperature:
    pass


@dataclass(frozen=True)
class HighTemperature:
    T: float

    def __post_init__(self):
        check_finite(T=self.T)
        if self.T <= 0:
            raise ValueError(f"high-temperature regime needs T > 0, got {self.T}")


Regime = Union[ZeroTemperature, HighTemperature]


@dataclass(frozen=True)
class QndBathSpec:
    """Ohmic dephasing bath: coupling gamma0, cutoff omega_c, squeezing
    magnitude r, squeezing-phase slope a (Phi(omega) = a*omega), regime."""

    gamma0: float
    omega_c: float
    r: float = 0.0
    a: float = 0.0
    regime: Regime = ZeroTemperature()

    def __post_init__(self):
        check_finite(gamma0=self.gamma0, omega_c=self.omega_c, r=self.r, a=self.a)
        if self.omega_c <= 0:
            raise ValueError(f"omega_c = {self.omega_c} must be positive")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be nonnegative")
        if self.a < 0:
            raise ValueError(f"a = {self.a} must be nonnegative")


def eta(t: float, spec: QndBathSpec) -> float:
    """Phase kernel eta(t) = -(gamma0/pi) arctan(omega_c t)."""
    check_finite(t=t)
    if t < 0:
        raise DomainError(f"t = {t} must be nonnegative")
    return -(spec.gamma0 / math.pi) * math.atan(spec.omega_c * t)


def gamma_qnd(t: float, spec: QndBathSpec) -> float:
    """Decoherence kernel gamma(t) in the closed form of the spec's regime.

    The squeezed-bath logs are defined only for t > 2a; with a > 0 smaller
    times are rejected as out of domain.
    """
    check_finite(t=t)
    if spec.a > 0 and t <= 2 * spec.a:
        raise DomainError(f"gamma(t) undefined for t = {t} <= 2a = {2 * spec.a}")
    if t < 0:
        raise DomainError(f"t = {t} must be nonnegative")
    g0, wc, r, a = spec.gamma0, spec.omega_c, spec.r, spec.a
    if isinstance(spec.regime, ZeroTemperature):
        out = (g0 / (2 * math.pi)) * math.cosh(2 * r) * math.log(1 + wc**2 * t**2)
        out -= (g0 / (4 * math.pi)) * math.sinh(2 * r) * math.log(
            (1 + 4 * wc**2 * (t - a) ** 2) / (1 + wc**2 * (t - 2 * a) ** 2) ** 2
        )
        out -= (g0 / (4 * math.pi)) * math.sinh(2 * r) * math.log(1 + 4 * a**2 * wc**2)
        return out
    T = spec.regime.T
    c = g0 * T / (math.pi * wc)
    out = c * math.cosh(2 * r) * (
        2 * wc * t * math.atan(wc * t) + math.log(1.0 / (1 + wc**2 * t**2))
    )
    out -= (c / 2) * math.sinh(2 * r) * (
        4 * wc * (t - a) * math.atan(2 * wc * (t - a))
        - 4 * wc * (t - 2 * a) * math.atan(wc * (t - 2 * a))
        + 4 * a * wc * math.atan(2 * a * wc)
        + math.log((1 + wc**2 * (t - 2 * a) ** 2) ** 2 / (1 + 4 * wc**2 * (t - a) ** 2))
        + math.log(1.0 / (1 + 4 * a**2 * wc**2))
    )
    return out


QUBIT_CONVENTION = "qubit"
OSCILLATOR_CONVENTION = "oscillator"


@dataclass(frozen=True)
class DissipativeBathMoments:
    """Moments of a squeezed thermal bath at the system frequency.

    N counts effective quanta, M is the anomalous (phase-sensitive) moment;
    physicality requires |M|^2 <= N(N+1), with equality at T = 0.
    """

    N: float
    M: complex
    N_th: float
    r: float
    Phi: float
    T: float
    omega: float

    def __post_init__(self):
        check_finite(r=self.r, Phi=self.Phi, T=self.T, omega=self.omega)
        check_finite(N=self.N, M=self.M, N_th=self.N_th)
        if self.omega <= 0:
            raise ValueError(f"omega = {self.omega} must be positive")
        if self.N < 0 or self.N_th < 0:
            raise ValueError("N and N_th must be nonnegative")
        if abs(self.M) ** 2 > self.N * (self.N + 1) * (1 + 1e-12) + 1e-12:
            raise ValueError("unphysical moments: |M|^2 > N(N+1)")

    @property
    def R_signed(self) -> float:
        """Real amplitude of M relative to e^{i Phi}; negative in the qubit
        convention, positive in the oscillator convention."""
        return (self.M * complex(math.cos(-self.Phi), math.sin(-self.Phi))).real


def thermal_occupation(omega: float, T: float) -> float:
    """Planck occupation 1/(e^{omega/T} - 1); zero at T = 0."""
    check_finite(omega=omega, T=T)
    if T < 0:
        raise ValueError(f"T = {T} must be nonnegative")
    if T == 0:
        return 0.0
    x = omega / T
    # past x = 700, where e^x nears overflow, 1/(e^x - 1) is e^{-x} to rounding
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def bath_moments(
    r: float, Phi: float, T: float, omega: float, sign: str = QUBIT_CONVENTION
) -> DissipativeBathMoments:
    """Squeezed thermal bath moments N, M.

    The anomalous moment carries a minus sign in the qubit convention and a
    plus sign in the oscillator convention; the two differ only by M -> -M.
    """
    if sign not in (QUBIT_CONVENTION, OSCILLATOR_CONVENTION):
        raise ValueError(f"unknown sign convention {sign!r}")
    n_th = thermal_occupation(omega, T)
    big_n = n_th * (math.cosh(r) ** 2 + math.sinh(r) ** 2) + math.sinh(r) ** 2
    mag = 0.5 * math.sinh(2 * r) * (2 * n_th + 1)
    phase = complex(math.cos(Phi), math.sin(Phi))
    m = (-mag if sign == QUBIT_CONVENTION else mag) * phase
    return DissipativeBathMoments(
        N=big_n, M=m, N_th=n_th, r=r, Phi=Phi, T=T, omega=omega
    )

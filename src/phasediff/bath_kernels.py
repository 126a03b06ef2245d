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


def _atan_log(x: float) -> float:
    """x arctan x - log(1 + x^2) / 2, whose terms cancel to x^2 / 2 at small
    x: below |x| = 0.1 it is summed from sum_k (-1)^(k+1) x^(2k) / (2k (2k - 1))."""
    if abs(x) >= 0.1:
        return x * math.atan(x) - 0.5 * math.log1p(x * x)
    return sum((-1) ** (k + 1) * (x * x) ** k / (2 * k * (2 * k - 1)) for k in range(1, 10))


def gamma_qnd(t: float, spec: QndBathSpec) -> float:
    """Decoherence kernel gamma(t) in the closed form of the spec's regime.

    Both regimes read scale [2 cosh 2r f(omega_c t) - sinh 2r (f(2 omega_c
    (t - a)) - 2 f(omega_c (t - 2a)) + f(2 a omega_c))], with
    f(x) = log(1 + x^2) / 2 at T = 0 and _atan_log at high temperature; both
    f are O(x^2) and evaluated without cancellation, so gamma keeps its
    digits at small omega_c t.  The squeezed-bath logs are defined only for
    t > 2a; with a > 0 smaller times are rejected as out of domain.
    """
    check_finite(t=t)
    if spec.a > 0 and t <= 2 * spec.a:
        raise DomainError(f"gamma(t) undefined for t = {t} <= 2a = {2 * spec.a}")
    if t < 0:
        raise DomainError(f"t = {t} must be nonnegative")
    g0, wc, r, a = spec.gamma0, spec.omega_c, spec.r, spec.a
    if isinstance(spec.regime, ZeroTemperature):
        f, scale = (lambda x: 0.5 * math.log1p(x * x)), g0 / (2 * math.pi)
    else:
        f, scale = _atan_log, g0 * spec.regime.T / (math.pi * wc)
    return scale * (
        2 * math.cosh(2 * r) * f(wc * t)
        - math.sinh(2 * r) * (f(2 * wc * (t - a)) - 2 * f(wc * (t - 2 * a)) + f(2 * a * wc))
    )


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

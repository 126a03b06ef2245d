"""Squeezed thermal bath kernels and specs.

Two distinct bath descriptions appear:

* the QND (dephasing) bath, an Ohmic continuum with exponential cutoff
  omega_c, squeezing magnitude r and frequency-linear squeezing phase
  Phi(omega) = a*omega, entering through the kernels eta(t), gamma(t);
* the dissipative bath, one DissipativeBathSpec of five numbers (omega,
  gamma0, r, Phi, T) with a constant squeezing phase Phi; its moments N and
  M at the system frequency follow from them once, at construction.

Units: hbar = k_B = 1.  The QND gamma0 carries 1/energy^2, the dissipative
gamma0 carries 1/time; the two specs are separate types so they cannot be
silently confused.

Closed forms for gamma(t) exist only in the T = 0 and high-temperature
limits: the dephasing bath's temperature T selects the T = 0 form at T = 0
and the high-temperature form at every T > 0, with no interpolation between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, check_finite, check_time


@dataclass(frozen=True)
class QndBathSpec:
    """Ohmic dephasing bath: coupling gamma0, cutoff omega_c, squeezing
    magnitude r, squeezing-phase slope a (Phi(omega) = a*omega), temperature T."""

    gamma0: float
    omega_c: float
    r: float = 0.0
    a: float = 0.0
    T: float = 0.0

    def __post_init__(self):
        check_finite(gamma0=self.gamma0, omega_c=self.omega_c, r=self.r, a=self.a, T=self.T)
        if self.T < 0:
            raise ValueError(f"T = {self.T} must be nonnegative")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c = {self.omega_c} must be positive")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be nonnegative")
        if self.a < 0:
            raise ValueError(f"a = {self.a} must be nonnegative")
        try:
            math.cosh(2 * self.r)
        except OverflowError:
            raise ValueError(f"r = {self.r}: cosh 2r overflows; keep |r| below 355") from None


def eta(t: float, spec: QndBathSpec) -> float:
    """Phase kernel eta(t) = -(gamma0/pi) arctan(omega_c t)."""
    check_time(t)
    return -(spec.gamma0 / math.pi) * math.atan(spec.omega_c * t)


def _atan_log(x: float) -> float:
    """x arctan x - log(1 + x^2) / 2, whose terms cancel to x^2 / 2 at small
    x: below |x| = 0.1 it is summed from sum_k (-1)^(k+1) x^(2k) / (2k (2k - 1))."""
    if abs(x) >= 0.1:
        return x * math.atan(x) - 0.5 * math.log1p(x * x)
    return sum((-1) ** (k + 1) * (x * x) ** k / (2 * k * (2 * k - 1)) for k in range(1, 10))


def gamma_qnd(t: float, spec: QndBathSpec) -> float:
    """Decoherence kernel gamma(t) in the closed form for the spec's T.

    Both forms read scale [2 cosh 2r f(omega_c t) - sinh 2r (f(2 omega_c
    (t - a)) - 2 f(omega_c (t - 2a)) + f(2 a omega_c))], with
    f(x) = log(1 + x^2) / 2 at T = 0 and _atan_log at high temperature; both
    f are O(x^2) and evaluated without cancellation, so gamma keeps its
    digits at small omega_c t.  The squeezed-bath logs are defined only for
    t > 2a; with a > 0 smaller times are rejected as out of domain.  A gamma
    that passes the double range (cosh 2r near its limit, or inf - inf) is a
    ValueError that names r, T and t.
    """
    check_time(t)
    if spec.a > 0 and t <= 2 * spec.a:
        raise DomainError(f"gamma(t) undefined for t = {t} <= 2a = {2 * spec.a}")
    g0, wc, r, a = spec.gamma0, spec.omega_c, spec.r, spec.a
    if spec.T == 0:
        f, scale = (lambda x: 0.5 * math.log1p(x * x)), g0 / (2 * math.pi)
    else:
        f, scale = _atan_log, g0 * spec.T / (math.pi * wc)
    gamma = scale * (
        2 * math.cosh(2 * r) * f(wc * t)
        - math.sinh(2 * r) * (f(2 * wc * (t - a)) - 2 * f(wc * (t - 2 * a)) + f(2 * a * wc))
    )
    if not math.isfinite(gamma):
        raise ValueError(
            f"gamma(t) = {gamma} is not finite at r = {r}, T = {spec.T}, t = {t}; "
            "lower the bath squeezing |r|"
        )
    return gamma


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


@dataclass(frozen=True)
class DissipativeBathSpec:
    """Squeezed thermal bath of a dissipative system at frequency omega:
    damping rate gamma0, squeezing zeta = r e^{i Phi}, temperature T.

    Its moments at omega are computed once, at construction: the Planck
    occupation N_th, N = N_th cosh 2r + sinh^2 r and
    M = (N_th + 1/2) sinh 2r e^{i Phi}, with |M|^2 <= N (N + 1), equal at
    T = 0; a bath whose N (N + 1) passes the double range is refused.  M
    carries the oscillator master equation's sign; the qubit's master
    equation has -M in its place.  A negative r is |r| at phase Phi + pi.
    """

    omega: float
    gamma0: float
    r: float
    Phi: float
    T: float
    N_th: float = field(init=False)
    N: float = field(init=False)
    M: complex = field(init=False)

    def __post_init__(self):
        check_finite(omega=self.omega, gamma0=self.gamma0, r=self.r, Phi=self.Phi, T=self.T)
        if self.omega <= 0:
            raise ValueError(f"omega = {self.omega} must be positive")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be nonnegative")
        if math.tanh(abs(self.r)) == 1.0:
            raise ValueError(f"r = {self.r}: tanh|r| rounds to 1; keep |r| below 19")
        n_th = thermal_occupation(self.omega, self.T)
        sh = math.sinh(self.r)
        n = n_th * (math.cosh(self.r) ** 2 + sh**2) + sh**2
        if not math.isfinite(n * (n + 1.0)):
            raise ValueError(
                f"T = {self.T} with r = {self.r}: the bath moment N (N + 1) overflows; "
                "lower the bath temperature T"
            )
        m = (n_th + 0.5) * math.sinh(2 * self.r) * complex(math.cos(self.Phi), math.sin(self.Phi))
        object.__setattr__(self, "N_th", n_th)
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "M", m)

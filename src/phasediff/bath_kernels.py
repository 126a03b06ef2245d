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
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_finite, check_time


# cosh 2r passes the largest double where 2 |r| passes acosh of it, 710.48
_R_MAX = math.acosh(sys.float_info.max) / 2


class _QndBathFields(NamedTuple):
    gamma0: float
    omega_c: float
    r: float
    a: float
    T: float


class QndBathSpec(_QndBathFields):
    """Ohmic dephasing bath: coupling gamma0, cutoff omega_c, squeezing
    magnitude r, squeezing-phase slope a (Phi(omega) = a*omega), temperature T.

    r, a and T may each be one number or one numpy array, one entry per
    bath (the points of a curve over r, a or T).  Each
    field's entries are read once as floats and checked in one pass, field
    by field; a refusal names the first entry at fault."""

    __slots__ = ()

    def __new__(cls, gamma0, omega_c, r=0.0, a=0.0, T=0.0):
        self = super().__new__(cls, gamma0, omega_c, r, a, T)
        check_finite(gamma0=self.gamma0, omega_c=self.omega_c)
        r, a, T = _entries(r), _entries(a), _entries(T)
        for name, values in (("r", r), ("a", a), ("T", T)):
            if not all(map(math.isfinite, values)):
                _refuse(name, values, lambda v: not math.isfinite(v), " must be finite")
        if min(T) < 0:
            _refuse("T", T, lambda v: v < 0, " must be nonnegative")
        if self.omega_c <= 0:
            raise ValueError(f"omega_c = {self.omega_c} must be positive")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be nonnegative")
        if min(a) < 0:
            _refuse("a", a, lambda v: v < 0, " must be nonnegative")
        if max(map(abs, r)) > _R_MAX:
            _refuse("r", r, lambda v: abs(v) > _R_MAX, ": cosh 2r overflows; keep |r| below 355")
        return self


def _entries(values) -> list[float]:
    """One number as a list of one float, or an array's entries in C order."""
    return values.ravel().tolist() if isinstance(values, np.ndarray) else [float(values)]


def _refuse(name: str, values: list[float], bad, why: str):
    """Raise ValueError naming the first of values for which bad holds."""
    first = next(v for v in values if bad(v))
    raise ValueError(f"{name} = {first}{why}")


def eta(t: float, spec: QndBathSpec) -> float:
    """Phase kernel eta(t) = -(gamma0/pi) arctan(omega_c t); the bath's r, a
    and T do not enter."""
    check_time(t)
    return -(spec.gamma0 / math.pi) * math.atan(spec.omega_c * t)


def _log_form(x: float) -> float:
    """log(1 + x^2) / 2, the f of the T = 0 form."""
    return 0.5 * math.log1p(x * x)


def _atan_log(x: float) -> float:
    """x arctan x - log(1 + x^2) / 2, the f of the high-temperature form,
    whose terms cancel to x^2 / 2 at small x: below |x| = 0.1 it is summed
    from sum_k (-1)^(k+1) x^(2k) / (2k (2k - 1))."""
    if abs(x) >= 0.1:
        return x * math.atan(x) - 0.5 * math.log1p(x * x)
    return sum((-1) ** (k + 1) * (x * x) ** k / (2 * k * (2 * k - 1)) for k in range(1, 10))


def _f_sums(t: float, wc: float, a: float, hot: bool) -> tuple[float, float]:
    """f(omega_c t) and f(2 omega_c (t - a)) - 2 f(omega_c (t - 2a))
    + f(2 a omega_c), with the f of the high-temperature form where hot and
    of the T = 0 form otherwise.  Past the double range they are inf or NaN,
    which gamma_qnd refuses."""
    f = _atan_log if hot else _log_form
    return f(wc * t), f(2 * wc * (t - a)) - 2 * f(wc * (t - 2 * a)) + f(2 * a * wc)


def gamma_qnd(t: float, spec: QndBathSpec):
    """Decoherence kernel gamma(t) in the closed form for the spec's T.

    Both forms read scale [2 cosh 2r f(omega_c t) - sinh 2r (f(2 omega_c
    (t - a)) - 2 f(omega_c (t - 2a)) + f(2 a omega_c))], with
    f(x) = log(1 + x^2) / 2 at T = 0 and _atan_log at high temperature; both
    f are O(x^2) and evaluated without cancellation, so gamma keeps its
    digits at small omega_c t.  For numbers r, a and T gamma is one float.
    Where one of them is a numpy array, gamma is an array of their broadcast
    shape, whose entries are taken one bath at a time in C order, each by
    the same float arithmetic as a bath of numbers, so an entry equals that
    bath's gamma bit for bit; the f sums are formed once per distinct
    (a, T > 0).

    The squeezed-bath logs are defined only for t > 2a; with a > 0 smaller
    times are rejected as out of domain.  Refusals name what to change: an
    f past the double range (omega_c t near 1e154) names t and omega_c, and a
    gamma past it (cosh 2r near its limit, or inf - inf) names r, T and t.
    Each bath is refused, or not, before the next is taken, so a curve
    raises the error of its first bath at fault.
    """
    check_time(t)
    g0, wc, r, a, T = spec
    if isinstance(r, np.ndarray) or isinstance(a, np.ndarray) or isinstance(T, np.ndarray):
        r, a, T = np.broadcast_arrays(r, a, T)
        shape, baths = r.shape, zip(_entries(r), _entries(a), _entries(T))
    else:
        shape, baths = None, ((float(r), float(a), float(T)),)
    sums, gammas = {}, []
    for r, a, T in baths:
        if a > 0 and t <= 2 * a:
            raise DomainError(f"gamma(t) undefined for t = {t} <= 2a = {2 * a}")
        hot = T > 0
        f = sums.get((a, hot))
        if f is None:
            f = sums[a, hot] = _f_sums(t, wc, a, hot)
        f_t, f_a = f
        scale = g0 * T / (math.pi * wc) if hot else g0 / (2 * math.pi)
        gamma = scale * (2 * math.cosh(2 * r) * f_t - math.sinh(2 * r) * f_a)
        if not math.isfinite(gamma):
            _refuse_gamma(t, wc, f_t, f_a, scale, gamma, r, T, g0)
        gammas.append(gamma)
    return gammas[0] if shape is None else np.array(gammas).reshape(shape)


def _refuse_gamma(t, wc, f_t, f_a, scale, gamma, r, T, g0):
    """The refusal of a gamma(t) that is not finite: where its f sum is not
    finite either, omega_c t is past the double range, so it names t and
    omega_c; where gamma at r = 0, 2 scale f(omega_c t), is not finite
    either, it names T and gamma0; otherwise the squeezing r is at fault."""
    if not math.isfinite(f_t + f_a):
        raise ValueError(
            f"gamma(t) is not finite at t = {t}, omega_c = {wc}: (omega_c t)^2 overflows "
            "a double; lower t or omega_c"
        )
    if not math.isfinite(2 * scale * f_t):
        raise ValueError(
            f"gamma(t) is not finite at T = {T}, gamma0 = {g0}, t = {t}: it overflows "
            "a double even at r = 0; lower T or gamma0"
        )
    raise ValueError(
        f"gamma(t) = {gamma} is not finite at r = {r}, T = {T}, t = {t}; "
        "lower the bath squeezing |r|"
    )


def thermal_occupation(omega: float, T: float) -> float:
    """Planck occupation 1/(e^{omega/T} - 1); zero at T = 0.  omega and T
    are a DissipativeBathSpec's, which checks them: finite, omega > 0 and
    T >= 0."""
    if T == 0:
        return 0.0
    x = omega / T
    # past x = 700, where e^x nears overflow, 1/(e^x - 1) is e^{-x} to rounding
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


class _DissipativeBathFields(NamedTuple):
    omega: float
    gamma0: float
    r: float
    Phi: float
    T: float
    N_th: float
    N: float
    M: complex


class DissipativeBathSpec(_DissipativeBathFields):
    """Squeezed thermal bath of a dissipative system at frequency omega:
    damping rate gamma0, squeezing zeta = r e^{i Phi}, temperature T.

    Its moments at omega are computed once, at construction: the Planck
    occupation N_th, N = N_th cosh 2r + sinh^2 r and
    M = (N_th + 1/2) sinh 2r e^{i Phi}, with |M|^2 <= N (N + 1), equal at
    T = 0; a bath whose N (N + 1) passes the double range is refused.  M
    carries the oscillator master equation's sign; the qubit's master
    equation has -M in its place.  A negative r is |r| at phase Phi + pi.
    """

    __slots__ = ()

    def __new__(cls, omega, gamma0, r, Phi, T):
        check_finite(omega=omega, gamma0=gamma0, r=r, Phi=Phi, T=T)
        if omega <= 0:
            raise ValueError(f"omega = {omega} must be positive")
        if gamma0 < 0:
            raise ValueError(f"gamma0 = {gamma0} must be nonnegative")
        if math.tanh(abs(r)) == 1.0:
            raise ValueError(f"r = {r}: tanh|r| rounds to 1; keep |r| below 19")
        if T < 0:
            raise ValueError(f"T = {T} must be nonnegative")
        n_th = thermal_occupation(omega, T)
        sh = math.sinh(r)
        n = n_th * (math.cosh(r) ** 2 + sh**2) + sh**2
        if not math.isfinite(n * (n + 1.0)):
            raise ValueError(
                f"T = {T} with r = {r}: the bath moment N (N + 1) overflows at "
                f"omega = {omega}, since N_th grows as T / omega; raise omega or lower T"
            )
        m = (n_th + 0.5) * math.sinh(2 * r) * complex(math.cos(Phi), math.sin(Phi))
        return super().__new__(cls, omega, gamma0, r, Phi, T, n_th, n, m)

    def __getnewargs__(self):
        return self[:5]  # copy and pickle rebuild from the five inputs

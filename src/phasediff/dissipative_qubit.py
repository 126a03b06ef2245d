"""Closed-form Lindblad evolution of a two-level atom in a squeezed
thermal bath, plus its phase distribution and excited-state population.

Basis convention: index 0 is the ground state (m = -1/2), index 1 the
excited state (m = +1/2), consistent with the ascending Dicke ordering used
elsewhere.  The decay rates are gamma_plus = gamma0 (N+1),
gamma_minus = gamma0 N, gamma_beta = gamma0 (2N+1), and

    alpha^2 = gamma0^2 |M|^2 - omega^2

is real; alpha enters only through the even combinations cosh(alpha t) and
sinh(alpha t)/alpha, so the branch of the square root never matters.  Those
combinations are always evaluated jointly with the e^{-gamma_beta t/2}
damping: for real alpha one has alpha < gamma_beta/2, so the combined
exponents are negative and immune to overflow even at gamma_beta t ~ 10^3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath_kernels import DissipativeBathMoments, QUBIT_CONVENTION, bath_moments
from .distribution import PhaseDistribution
from .errors import check_finite, check_time
from .qnd_phase import AtomicCoherentParams, _closed_form, _half_sign

_SZ = np.diag([-1.0 + 0.0j, 1.0 + 0.0j])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
_SM = _SP.T.copy()


@dataclass(frozen=True)
class QubitLindbladSpec:
    omega: float
    gamma0: float
    moments: DissipativeBathMoments

    def __post_init__(self):
        check_finite(omega=self.omega, gamma0=self.gamma0)
        if self.omega <= 0:
            raise ValueError(f"omega = {self.omega} must be positive")
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be nonnegative")

    @property
    def gamma_plus(self) -> float:
        return self.gamma0 * (self.moments.N + 1.0)

    @property
    def gamma_minus(self) -> float:
        return self.gamma0 * self.moments.N

    @property
    def gamma_beta(self) -> float:
        return self.gamma0 * (2.0 * self.moments.N + 1.0)

    @property
    def alpha_sq(self) -> float:
        return self.gamma0**2 * abs(self.moments.M) ** 2 - self.omega**2


def qubit_spec(omega: float, gamma0: float, r: float, Phi: float, T: float) -> QubitLindbladSpec:
    """Convenience constructor from bath parameters (qubit sign convention)."""
    return QubitLindbladSpec(omega, gamma0, bath_moments(r, Phi, T, omega, QUBIT_CONVENTION))


def _damped_cosh_sinhc(alpha_sq: float, gamma_beta: float, t: float) -> tuple[float, float]:
    """(cosh(alpha t) e^{-gb t/2}, (sinh(alpha t)/alpha) e^{-gb t/2})."""
    half_gb = gamma_beta / 2.0
    if alpha_sq > 0.0:
        al = math.sqrt(alpha_sq)
        if al * t < 1e-4:  # series branch for sinh(x)/x, x small
            damp = math.exp(-half_gb * t)
            x = al * t
            return math.cosh(x) * damp, t * (1.0 + x**2 / 6.0 + x**4 / 120.0) * damp
        ep = math.exp((al - half_gb) * t)  # al < gb/2, exponent negative
        em = math.exp(-(al + half_gb) * t)
        return 0.5 * (ep + em), (ep - em) / (2.0 * al)
    damp = math.exp(-half_gb * t)
    if alpha_sq == 0.0:
        return damp, t * damp
    om = math.sqrt(-alpha_sq)
    x = om * t
    if x < 1e-4:
        return math.cos(x) * damp, t * (1.0 - x**2 / 6.0 + x**4 / 120.0) * damp
    return math.cos(x) * damp, math.sin(x) / om * damp


def propagate_qubit(rho0: np.ndarray, spec: QubitLindbladSpec, t: float) -> np.ndarray:
    """Apply the closed-form Lindblad propagator to a 2x2 density matrix."""
    check_time(t)
    rho0 = np.asarray(rho0, dtype=complex)
    g0, gb, w = spec.gamma0, spec.gamma_beta, spec.omega
    if g0 == 0.0:  # unitary limit, avoids 0/0 in the gamma0/gamma_beta ratio
        out = rho0.copy()
        out[1, 0] *= cmath.exp(-1j * w * t)
        out[0, 1] *= cmath.exp(1j * w * t)
        return out
    big_m = spec.moments.M
    ch, sh = _damped_cosh_sinhc(spec.alpha_sq, gb, t)
    e1 = math.exp(-gb * t)

    out = 0.25 * (1.0 + e1 + 2.0 * ch) * rho0
    out += 0.25 * (1.0 + e1 - 2.0 * ch) * (_SZ @ rho0 @ _SZ)
    out -= 0.25 * ((g0 / gb) * (1.0 - e1) - 2j * w * sh) * (rho0 @ _SZ)
    out -= 0.25 * ((g0 / gb) * (1.0 - e1) + 2j * w * sh) * (_SZ @ rho0)
    out += (1.0 - e1) * (
        (spec.gamma_plus / gb) * (_SM @ rho0 @ _SP) + (spec.gamma_minus / gb) * (_SP @ rho0 @ _SM)
    )
    out -= g0 * sh * (big_m * (_SP @ rho0 @ _SP) + big_m.conjugate() * (_SM @ rho0 @ _SM))
    return out


def phase_dist_qubit_coherent(
    params: AtomicCoherentParams, spec: QubitLindbladSpec, t: float
) -> PhaseDistribution:
    """Closed-form phase distribution for an atomic coherent initial state.

    At gamma0 = 0 this collapses to the unitary form
    (1/2pi)[1 + (pi/4) sin(alpha') cos(beta' + omega t - phi)].
    """
    check_time(t)
    ch, sh = _damped_cosh_sinhc(spec.alpha_sq, spec.gamma_beta, t)
    h1 = (math.pi / 8.0) * math.sin(params.alpha_p) * (
        cmath.rect(1.0, -params.beta_p) * complex(ch, -spec.omega * sh)
        - spec.gamma0 * spec.moments.R_signed * sh
        * cmath.rect(1.0, spec.moments.Phi + params.beta_p)
    )
    return _closed_form((h1,))


def phase_dist_qubit_squeezed(
    Theta: float, p_sign: float, spec: QubitLindbladSpec, t: float
) -> PhaseDistribution:
    """Closed-form phase distribution for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2: the coherent form's bracket at beta_p = 0 with
    the prefactor sign (pi / 4 cosh Theta)."""
    sign = _half_sign(p_sign)
    check_time(t)
    ch, sh = _damped_cosh_sinhc(spec.alpha_sq, spec.gamma_beta, t)
    h1 = sign * (math.pi / (8.0 * math.cosh(Theta))) * (
        complex(ch, -spec.omega * sh)
        - spec.gamma0 * spec.moments.R_signed * sh * cmath.rect(1.0, spec.moments.Phi)
    )
    return _closed_form((h1,))


def excited_population(params: AtomicCoherentParams, spec: QubitLindbladSpec, t: float) -> float:
    """Population of the upper level, p(+1/2, t)."""
    check_time(t)
    gb = spec.gamma_beta
    if spec.gamma0 == 0.0:
        return math.sin(params.alpha_p / 2.0) ** 2
    e1 = math.exp(-gb * t)
    g_ratio = spec.gamma0 / gb
    s2 = math.sin(params.alpha_p / 2.0) ** 2
    c2 = math.cos(params.alpha_p / 2.0) ** 2
    return 0.5 * ((1.0 - g_ratio) + (1.0 + g_ratio) * e1) * s2 + (
        spec.gamma_minus / gb
    ) * (1.0 - e1) * c2

"""Closed-form Lindblad evolution of a two-level atom in a squeezed
thermal bath, plus its phase distribution and excited-state population.

Basis convention: index 0 is the ground state (m = -1/2), index 1 the
excited state (m = +1/2), consistent with the ascending Dicke ordering used
elsewhere.  The bath is a DissipativeBathSpec, whose moments N and M give
the decay rates gamma_plus = gamma0 (N+1), gamma_minus = gamma0 N and
gamma_beta = gamma0 (2N+1); the qubit master equation's anomalous terms
carry -M (M is stored in the oscillator's sign), and

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

import numpy as np

from .bath_kernels import DissipativeBathSpec
from .distribution import PhaseDistribution
from .errors import check_time
from .qnd_phase import AtomicCoherentParams, _closed_form, _half_sign

_SZ = np.diag([-1.0 + 0.0j, 1.0 + 0.0j])
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
_SM = _SP.T.copy()


def qubit_spec(omega: float, gamma0: float, r: float, Phi: float, T: float) -> DissipativeBathSpec:
    """The bath of a two-level atom; gamma0 = 0 is the unitary limit."""
    return DissipativeBathSpec(omega, gamma0, r, Phi, T)


def _gamma_beta(spec: DissipativeBathSpec) -> float:
    return spec.gamma0 * (2.0 * spec.N + 1.0)


def _damped_cosh_sinhc(spec: DissipativeBathSpec, t: float) -> tuple[float, float]:
    """(cosh(alpha t) e^{-gb t/2}, (sinh(alpha t)/alpha) e^{-gb t/2}); an
    alpha^2 past the double range is refused by name, since sinh(alpha t)/alpha
    would be inf/inf."""
    try:
        alpha_sq = spec.gamma0**2 * abs(spec.M) ** 2 - spec.omega**2
    except OverflowError:  # a float ** raises where * would give inf
        alpha_sq = math.inf
    if not math.isfinite(alpha_sq):
        raise ValueError(
            f"alpha^2 = gamma0^2 |M|^2 - omega^2 overflows a double at omega = {spec.omega}, "
            f"gamma0 = {spec.gamma0}, T = {spec.T}, r = {spec.r}; lower omega, gamma0 or T"
        )
    half_gb = _gamma_beta(spec) / 2.0
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


def propagate_qubit(rho0: np.ndarray, spec: DissipativeBathSpec, t: float) -> np.ndarray:
    """Apply the closed-form Lindblad propagator to a 2x2 density matrix."""
    check_time(t)
    rho0 = np.asarray(rho0, dtype=complex)
    g0, w = spec.gamma0, spec.omega
    if g0 == 0.0:  # unitary limit, avoids 0/0 in the gamma0/gamma_beta ratio
        out = rho0.copy()
        out[1, 0] *= cmath.exp(-1j * w * t)
        out[0, 1] *= cmath.exp(1j * w * t)
        return out
    gb = _gamma_beta(spec)
    ch, sh = _damped_cosh_sinhc(spec, t)
    e1 = math.exp(-gb * t)

    out = 0.25 * (1.0 + e1 + 2.0 * ch) * rho0
    out += 0.25 * (1.0 + e1 - 2.0 * ch) * (_SZ @ rho0 @ _SZ)
    out -= 0.25 * ((g0 / gb) * (1.0 - e1) - 2j * w * sh) * (rho0 @ _SZ)
    out -= 0.25 * ((g0 / gb) * (1.0 - e1) + 2j * w * sh) * (_SZ @ rho0)
    out += (1.0 - e1) * (
        (g0 * (spec.N + 1.0) / gb) * (_SM @ rho0 @ _SP) + (g0 * spec.N / gb) * (_SP @ rho0 @ _SM)
    )
    out += g0 * sh * (spec.M * (_SP @ rho0 @ _SP) + spec.M.conjugate() * (_SM @ rho0 @ _SM))
    return out


def phase_dist_qubit_coherent(
    params: AtomicCoherentParams, spec: DissipativeBathSpec, t: float
) -> PhaseDistribution:
    """Closed-form phase distribution for an atomic coherent initial state.

    At gamma0 = 0 this collapses to the unitary form
    (1/2pi)[1 + (pi/4) sin(alpha') cos(beta' + omega t - phi)].
    """
    check_time(t)
    ch, sh = _damped_cosh_sinhc(spec, t)
    h1 = (math.pi / 8.0) * math.sin(params.alpha_p) * (
        cmath.rect(1.0, -params.beta_p) * complex(ch, -spec.omega * sh)
        + spec.gamma0 * sh * spec.M * cmath.rect(1.0, params.beta_p)
    )
    return _closed_form((h1,))


def phase_dist_qubit_squeezed(
    Theta: float, p_sign: float, spec: DissipativeBathSpec, t: float
) -> PhaseDistribution:
    """Closed-form phase distribution for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2: the coherent form's bracket at beta_p = 0 with
    the prefactor sign (pi / 4 cosh Theta)."""
    sign = _half_sign(p_sign)
    check_time(t)
    ch, sh = _damped_cosh_sinhc(spec, t)
    h1 = sign * (math.pi / (8.0 * math.cosh(Theta))) * (
        complex(ch, -spec.omega * sh) + spec.gamma0 * sh * spec.M
    )
    return _closed_form((h1,))


def excited_population(params: AtomicCoherentParams, spec: DissipativeBathSpec, t: float) -> float:
    """Population of the upper level, p(+1/2, t)."""
    check_time(t)
    if spec.gamma0 == 0.0:
        return math.sin(params.alpha_p / 2.0) ** 2
    gb = _gamma_beta(spec)
    e1 = math.exp(-gb * t)
    g_ratio = spec.gamma0 / gb
    s2 = math.sin(params.alpha_p / 2.0) ** 2
    c2 = math.cos(params.alpha_p / 2.0) ** 2
    return 0.5 * ((1.0 - g_ratio) + (1.0 + g_ratio) * e1) * s2 + (
        spec.gamma0 * spec.N / gb
    ) * (1.0 - e1) * c2

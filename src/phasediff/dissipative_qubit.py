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
damping, as ch and sh (_damped_cosh_sinhc): for real alpha one has
alpha < gamma_beta/2, so the combined exponents are negative and immune to
overflow even at gamma_beta t ~ 10^3.  The propagator is two rules, with
g = gamma0/gamma_beta and e1 = e^{-gamma_beta t}:

    rho_11(t) = [(1 - g) + (1 + g) e1]/2 rho_11 + (gamma0 N/gamma_beta)(1 - e1) rho_00,
    rho_10(t) = (ch - i omega sh) rho_10 + gamma0 sh M rho_01.

P(phi) reads only the coherence: the j = 1/2 Beta weight leaves one harmonic,
h_1 = (pi/4) rho_10(t).  That rule and each start's rho_10 are in qnd_phase.

The population rule also takes an array of t, one entry per time, and the
coherent start's P a list of baths, one row of coefficients per bath.  Their
exponentials are taken entry by entry in math, and each bath's coherence is
the one scalar rule above: numpy's exp and cosh need not round as libm does
(they differ in the last bit for a few percent of arguments on AVX-512
machines), and an entry must give the same bits as that t or bath alone.
"""

from __future__ import annotations

import math

import numpy as np

from .bath_kernels import DissipativeBathSpec
from .distribution import PhaseDistribution
from .errors import check_time
from .qnd_phase import AtomicCoherentParams, _coherent_rho10, _qubit_distribution, _squeezed_rho10


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
    damp = math.exp(-half_gb * t)
    if alpha_sq > 0.0:
        al = math.sqrt(alpha_sq)
        x = al * t
        if x < 1e-4:  # series branch for sinh(x)/x, x small
            return math.cosh(x) * damp, t * (1.0 + x**2 / 6.0 + x**4 / 120.0) * damp
        ep = math.exp((al - half_gb) * t)  # al < gb/2, exponent negative
        em = math.exp(-(al + half_gb) * t)
        return 0.5 * (ep + em), (ep - em) / (2.0 * al)
    if alpha_sq == 0.0:
        return damp, t * damp
    om = math.sqrt(-alpha_sq)  # sin(om t)/om needs no series: nothing cancels
    return math.cos(om * t) * damp, math.sin(om * t) / om * damp


def _population(rho11: complex, rho00: complex, spec: DissipativeBathSpec, t):
    """The population rule rho_11(t) of the module docstring, at one t or at
    each entry of an array of t."""
    check_time(t)
    if spec.gamma0 == 0.0:  # unitary limit, avoids 0/0 in the gamma0/gamma_beta ratio
        return rho11 + 0.0 * t
    gb = _gamma_beta(spec)
    if isinstance(t, np.ndarray):
        e1 = np.array([math.exp(-gb * x) for x in t.tolist()]).reshape(t.shape)
    else:
        e1 = math.exp(-gb * t)
    g_ratio = spec.gamma0 / gb
    return (0.5 * ((1.0 - g_ratio) + (1.0 + g_ratio) * e1) * rho11
            + (spec.gamma0 * spec.N / gb) * (1.0 - e1) * rho00)


def _coherence(rho10: complex, rho01: complex, spec: DissipativeBathSpec, t: float) -> complex:
    """The coherence rule rho_10(t) of the module docstring."""
    check_time(t)
    ch, sh = _damped_cosh_sinhc(spec, t)
    return complex(ch, -spec.omega * sh) * rho10 + spec.gamma0 * sh * spec.M * rho01


def propagate_qubit(rho0: np.ndarray, spec: DissipativeBathSpec, t: float) -> np.ndarray:
    """The closed-form Lindblad propagator on any 2x2 matrix: rho_01(t) is the conjugate
    of the coherence rule, and rho_00(t) what rho_11(t) leaves of the conserved trace."""
    (r00, r01), (r10, r11) = np.asarray(rho0, dtype=complex).tolist()
    p11 = _population(r11, r00, spec, t)
    c01 = _coherence(r01.conjugate(), r10.conjugate(), spec, t).conjugate()
    return np.array([[r00 + r11 - p11, c01], [_coherence(r10, r01, spec, t), p11]])


def phase_dist_qubit_coherent(params: AtomicCoherentParams, spec, t: float):
    """Closed-form phase distribution for an atomic coherent initial state.
    A list of baths gives one row of coefficients (c_{-1}, c_0, c_1) per
    bath, as a 2-d array, each row that bath's P bit for bit.

    At gamma0 = 0 this collapses to the unitary form
    (1/2pi)[1 + (pi/4) sin(alpha') cos(beta' + omega t - phi)].
    """
    rho10 = _coherent_rho10(params)
    if isinstance(spec, list):
        return _qubit_distribution([_coherence(rho10, rho10.conjugate(), s, t) for s in spec])
    return _qubit_distribution(_coherence(rho10, rho10.conjugate(), spec, t))


def phase_dist_qubit_squeezed(
    Theta: float, p_sign: float, spec: DissipativeBathSpec, t: float
) -> PhaseDistribution:
    """Closed-form phase distribution for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2, whose coherence +-1/(2 cosh Theta) is real."""
    rho10 = _squeezed_rho10(Theta, p_sign)
    return _qubit_distribution(_coherence(rho10, rho10, spec, t))


def excited_population(params: AtomicCoherentParams, spec: DissipativeBathSpec, t):
    """Population of the upper level, p(+1/2, t); an array of t gives the
    array of populations, one per entry."""
    s2 = math.sin(params.alpha_p / 2.0) ** 2
    return _population(s2, math.cos(params.alpha_p / 2.0) ** 2, spec, t)

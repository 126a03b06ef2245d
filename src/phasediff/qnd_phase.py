"""QND (pure dephasing) evolution and phase/number distributions.

The dephasing propagator acts element-wise in the energy eigenbasis:

    rho_{m,n}(t) = e^{-i w (m-n) t} e^{i w^2 (m^2-n^2) eta(t)}
                   e^{-w^2 (m-n)^2 gamma(t)} rho_{m,n}(0),

with hbar = 1, for both the Dicke basis |j, m> and the Fock basis |n>
(where the eigenvalue combination is (m-n)(m+n+1) from E_n = w(n + 1/2)).
Atomic phase distributions come from the angle marginal of the Q-function;
the polar integral has an exact Beta-function form.  Oscillator phase
distributions are Susskind-Glogower-state diagonals.  For a pure oscillator
state c_n the propagator factorizes as rho_mn(t) = v_m v_n* g_{m-n}, with
v_n = c_n e^{i(w^2 eta l_n^2 - w t l_n)}, l_n = n + 1/2, and
g_d = e^{-w^2 gamma d^2}, so every Fourier coefficient of P(phi) is one
autocorrelation of v times g and the oscillator runs in O(cutoff) memory.

The dispersion figures and most sweeps vary only the bath, so the
bath-independent parts of the initial state (the squeezed coherent ket, the
Wigner-d row of the atomic squeezed state and the dipole weights) are built
once per process in a bounded cache, returned read-only, and shared across
sweep points.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distribution import (
    PhaseDistribution,
    distribution_from_fourier,
    distribution_from_harmonics,
    ket_autocorrelation,
)
from .errors import TruncationError
from .halfint import HalfInteger, check_jm, m_range
from .special_functions import (
    beta_integral,
    log_binomial,
    squeeze_tail_pad,
    squeezed_coherent_ket,
    wigner_d_half_pi,
)


@dataclass(frozen=True)
class AtomicCoherentParams:
    """Atomic coherent state angles: polar alpha_p in [0, pi], azimuth
    beta_p in [0, 2pi)."""

    alpha_p: float
    beta_p: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_p <= math.pi:
            raise ValueError(f"alpha_p = {self.alpha_p} outside [0, pi]")
        if not 0.0 <= self.beta_p < 2.0 * math.pi:
            raise ValueError(f"beta_p = {self.beta_p} outside [0, 2pi)")


@dataclass(frozen=True)
class AtomicSqueezedParams:
    """Atomic squeezed state labels (j, p) and squeeze exponent Theta.

    Theta = (1/2) ln tanh(2 zeta) for squeezing strength zeta > 0.
    """

    j: HalfInteger
    p: HalfInteger
    Theta: float

    def __post_init__(self):
        j = HalfInteger.of(self.j)
        p = HalfInteger.of(self.p)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "p", p)
        check_jm(j, p, "p")
        if not math.isfinite(self.Theta):
            raise ValueError("Theta must be finite")

    @classmethod
    def from_zeta(cls, j, p, zeta: float) -> "AtomicSqueezedParams":
        if zeta <= 0:
            raise ValueError(f"zeta = {zeta} must be positive")
        return cls(HalfInteger.of(j), HalfInteger.of(p), 0.5 * math.log(math.tanh(2 * zeta)))


@dataclass(frozen=True)
class DickeDensityMatrix:
    """Density matrix in the Dicke basis |j, m>, m ascending from -j to j."""

    j: HalfInteger
    elements: np.ndarray

    def __post_init__(self):
        j = HalfInteger.of(self.j)
        dim = j.twice_value + 1
        el = np.array(self.elements, dtype=complex)
        if el.shape != (dim, dim):
            raise ValueError(f"expected shape ({dim}, {dim}), got {el.shape}")
        el.setflags(write=False)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "elements", el)

    @property
    def dim(self) -> int:
        return self.j.twice_value + 1

    def m_values(self) -> np.ndarray:
        return np.array([m.value for m in m_range(self.j)])

    def validate(self, herm_tol=1e-12, trace_tol=1e-12, psd_tol=1e-10) -> None:
        el = self.elements
        if np.max(np.abs(el - el.conj().T)) > herm_tol:
            raise ValueError("density matrix not Hermitian within tolerance")
        if abs(np.trace(el).real - 1.0) > trace_tol or abs(np.trace(el).imag) > trace_tol:
            raise ValueError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(el)) < -psd_tol:
            raise ValueError("density matrix has negative eigenvalues")


def _pure_density(j: HalfInteger, amplitudes: np.ndarray) -> DickeDensityMatrix:
    return DickeDensityMatrix(j, np.outer(amplitudes, amplitudes.conj()))


def atomic_coherent_amplitudes(params: AtomicCoherentParams, j) -> np.ndarray:
    """Dicke-basis amplitudes of |alpha_p, beta_p>, index m ascending."""
    j = HalfInteger.of(j)
    tj = j.twice_value
    s, c = math.sin(params.alpha_p / 2.0), math.cos(params.alpha_p / 2.0)
    amps = np.empty(tj + 1, dtype=complex)
    for k in range(tj + 1):  # k = j + m
        mag = math.exp(0.5 * log_binomial(tj, k)) * s**k * c ** (tj - k)
        amps[k] = mag * complex(math.cos(k * params.beta_p), -math.sin(k * params.beta_p))
    return amps


def atomic_coherent_density(params: AtomicCoherentParams, j) -> DickeDensityMatrix:
    return _pure_density(HalfInteger.of(j), atomic_coherent_amplitudes(params, j))


@functools.lru_cache(maxsize=8)
def _wigner_row(j: HalfInteger, p: HalfInteger) -> np.ndarray:
    """d^j_{n,p}(pi/2) for n = -j..j; cached and read-only."""
    row = np.array([wigner_d_half_pi(j, n, p) for n in m_range(j)])
    row.setflags(write=False)
    return row


def atomic_squeezed_amplitudes(params: AtomicSqueezedParams) -> np.ndarray:
    """Amplitudes a_n = A_p e^{n Theta} d^j_{n,p}(pi/2), normalized."""
    j = params.j
    amps = np.array([math.exp(n.value * params.Theta) for n in m_range(j)])
    amps *= _wigner_row(j, params.p)
    return amps / math.sqrt(np.sum(amps**2))


def atomic_squeezed_density(params: AtomicSqueezedParams) -> DickeDensityMatrix:
    return _pure_density(params.j, atomic_squeezed_amplitudes(params).astype(complex))


def _dephasing_factor(
    levels: np.ndarray, omega: float, t: float, eta_t: float, gamma_t: float
) -> np.ndarray:
    """Element-wise dephasing propagator for energies omega * levels, with
    dm = l_i - l_j and sm = l_i + l_j."""
    dm = levels[:, None] - levels[None, :]
    sm = levels[:, None] + levels[None, :]
    return np.exp(
        -1j * omega * dm * t + 1j * omega**2 * dm * sm * eta_t - omega**2 * dm**2 * gamma_t
    )


def qnd_evolve(
    rho0: DickeDensityMatrix, omega: float, t: float, eta_t: float, gamma_t: float
) -> DickeDensityMatrix:
    """Apply the dephasing propagator element-wise in the Dicke basis."""
    factor = _dephasing_factor(rho0.m_values(), omega, t, eta_t, gamma_t)
    return DickeDensityMatrix(rho0.j, rho0.elements * factor)


@functools.lru_cache(maxsize=8)
def _dipole_weights(j: HalfInteger) -> np.ndarray:
    """Matrix W_{nm} = sqrt(C(2j,j+n) C(2j,j+m)) * 2 B(j+(n+m)/2+1, j-(n+m)/2+1),
    the exact polar integral of the Q-function angle marginal; cached and
    read-only."""
    tj = j.twice_value
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    # the Beta factor depends only on kn + km = n + m + 2j: one value per sum
    beta = np.array(
        [beta_integral(s / 2.0 + 1.0, tj - s / 2.0 + 1.0) for s in range(2 * tj + 1)]
    )
    k = np.arange(tj + 1)
    weights = half_binom[:, None] * half_binom[None, :] * 2.0 * beta[k[:, None] + k[None, :]]
    weights.setflags(write=False)
    return weights


def phase_distribution_atomic(rho: DickeDensityMatrix) -> PhaseDistribution:
    """Angle marginal P(phi) of the atomic Q-function, via the exact
    Beta-function polar integral."""
    j = rho.j
    weighted = rho.elements * _dipole_weights(j)
    pref = (j.twice_value + 1) / (4.0 * math.pi)  # (2j+1)/4pi
    # weighted[n, m] multiplies e^{i(n-m)phi}; distribution_from_fourier wants a[m, n]
    return distribution_from_fourier(pref * weighted.T)


def phase_dist_coherent_halfspin(
    params: AtomicCoherentParams, omega: float, t: float, gamma_t: float
) -> PhaseDistribution:
    """Single-atom closed form for an atomic coherent initial state; only
    gamma(t) enters:

        P(phi) = (1/2pi)[1 + (pi/4) sin(alpha_p) cos(beta_p + omega t - phi)
                         e^{-omega^2 gamma}].
    """
    amp = (math.pi / 4.0) * math.sin(params.alpha_p) * math.exp(-(omega**2) * gamma_t)
    return _closed_form((cmath.rect(amp / 2.0, -(params.beta_p + omega * t)),))


def phase_dist_squeezed_halfspin(
    Theta: float, p_sign: float, omega: float, t: float, gamma_t: float
) -> PhaseDistribution:
    """Single-atom closed form for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2:

        P(phi) = (1/2pi)[1 + sign (pi / 4 cosh Theta) cos(phi - omega t)
                         e^{-omega^2 gamma}].
    """
    sign = _half_sign(p_sign)
    amp = sign * (math.pi / (4.0 * math.cosh(Theta))) * math.exp(-(omega**2) * gamma_t)
    return _closed_form((cmath.rect(amp / 2.0, -omega * t),))


def _closed_form(harmonics) -> PhaseDistribution:
    """P(phi) = (1/2pi)[1 + sum_{d >= 1} 2 Re(h_d e^{i d phi})] for the
    harmonics h_1, h_2, ...: a term a cos(d phi - theta) is h_d = a e^{-i theta} / 2."""
    return distribution_from_harmonics(np.array((1.0, *harmonics)) / (2.0 * math.pi))


def _half_sign(p_sign: float) -> float:
    if p_sign not in (0.5, -0.5):
        raise ValueError(f"p_sign must be +1/2 or -1/2, got {p_sign}")
    return 1.0 if p_sign > 0 else -1.0


def phase_dist_two_atoms(
    Theta: float,
    p: int,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t: float,
) -> PhaseDistribution:
    """Two-atom (j = 1) closed forms for p in {+1, -1, 0}, with x = phi - omega t:

        p = 0:   P = (1/2pi)[1 - cos(2x) e^{-4 w^2 gamma} / (2 cosh 2Theta)]
        p = +-1: P = (1/2pi)[1 + p (3 pi / 4 s) (cos x cos(w^2 eta) cosh Theta
                     - sin x sin(w^2 eta) sinh Theta) e^{-w^2 gamma}
                     + cos(2x) e^{-4 w^2 gamma} / (2 s)],  s = 1 + cosh 2Theta.

    Unlike the single-atom case these involve eta(t) as well as gamma(t).
    a cos x - b sin x is Re[(a + i b) e^{ix}], so each term is one harmonic.
    """
    w2 = omega**2
    h2 = cmath.rect(math.exp(-4.0 * w2 * gamma_t) / 2.0, -2.0 * omega * t)
    if p == 0:
        return _closed_form((0.0, -h2 / (2.0 * math.cosh(2.0 * Theta))))
    if p not in (1, -1):
        raise ValueError(f"p must be +1, -1 or 0, got {p}")
    denom = 1.0 + math.cosh(2.0 * Theta)
    amp = float(p) * (3.0 * math.pi / (4.0 * denom)) * math.exp(-w2 * gamma_t)
    ab = complex(math.cos(w2 * eta_t) * math.cosh(Theta), math.sin(w2 * eta_t) * math.sinh(Theta))
    h1 = amp * ab * cmath.rect(0.5, -omega * t)
    return _closed_form((h1, h2 / (2.0 * denom)))


def number_distribution(
    state: Union[AtomicCoherentParams, AtomicSqueezedParams], j=None
) -> np.ndarray:
    """Dicke populations p(m), m ascending; invariant under QND evolution."""
    if isinstance(state, AtomicCoherentParams):
        if j is None:
            raise ValueError("j required for a coherent-state input")
        return np.abs(atomic_coherent_amplitudes(state, j)) ** 2
    if isinstance(state, AtomicSqueezedParams):
        return atomic_squeezed_amplitudes(state) ** 2
    raise TypeError(f"unsupported state type {type(state)!r}")


# --- harmonic oscillator under the same dephasing propagator ---


def phase_dist_osc_coherent(
    alpha_mag: float,
    theta0: float,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t: float,
    cutoff: int | None = None,
) -> PhaseDistribution:
    """Oscillator phase distribution for a coherent initial state: the
    squeezed coherent form at r1 = 0."""
    return phase_dist_osc_squeezed(
        0.0, 0.0, alpha_mag, theta0, omega, t, eta_t, gamma_t, cutoff
    )


def phase_dist_osc_squeezed(
    r1: float,
    psi: float,
    alpha_mag: float,
    theta0: float,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t: float,
    cutoff: int | None = None,
) -> PhaseDistribution:
    """Oscillator phase distribution for a squeezed coherent initial state.

    The default cutoff covers the mean occupation plus 14 sqrt(mean + 1),
    and at least the levels over which the geometric squeeze tail falls by
    1e-20; the truncated weight must miss 1 by at most 1e-12.

    The dephased state is rho_mn(t) = v_m v_n* g_{m-n} (module docstring),
    so the coefficient of each offset d is g_d sum_m v_m v_{m+d}*: one
    autocorrelation of the ket, in O(cutoff) memory and with no
    cutoff x cutoff array.
    """
    if r1 < 0:
        raise ValueError(f"r1 = {r1} must be nonnegative")
    if cutoff is None:
        mean = alpha_mag**2 * math.cosh(2 * r1) + math.sinh(r1) ** 2
        span = max(mean + 14.0 * math.sqrt(mean + 1.0) + 20.0, squeeze_tail_pad(r1))
        cutoff = max(30, int(math.ceil(span)))
    # Fock amplitudes of S(xi) D(alpha)|0>, xi = r1 e^{i psi}, alpha = alpha_mag e^{i theta0}
    alpha = alpha_mag * complex(math.cos(theta0), math.sin(theta0))
    amps = squeezed_coherent_ket(r1, psi, alpha, cutoff)
    deficit = abs(1.0 - float(np.sum(np.abs(amps) ** 2)))
    if deficit > 1e-12:
        raise TruncationError(
            f"squeezed-coherent Fock tail: truncated weight deficit {deficit:.3e} "
            f"exceeds 1.0e-12; raise the Fock cutoff (--cutoff, currently {cutoff})"
        )
    # E_n = omega (n + 1/2)
    levels = np.arange(cutoff, dtype=float) + 0.5
    v = amps * np.exp(1j * (omega**2 * eta_t * levels**2 - omega * t * levels))
    offsets = np.arange(1 - cutoff, cutoff)
    damping = np.exp(-(omega**2) * gamma_t * offsets**2) / (2.0 * math.pi)
    return PhaseDistribution(ket_autocorrelation(v) * damping)

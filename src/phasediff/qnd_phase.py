"""QND (pure dephasing) evolution and phase/number distributions.

The dephasing propagator acts element-wise in the energy eigenbasis:

    rho_{m,n}(t) = e^{-i w (m-n) t} e^{i w^2 (m^2-n^2) eta(t)}
                   e^{-w^2 (m-n)^2 gamma(t)} rho_{m,n}(0),

with hbar = 1, for both the Dicke basis |j, m> and the Fock basis |n>
(where the eigenvalue combination is (m-n)(m+n+1) from E_n = w(n + 1/2)).
Atomic phase distributions come from the angle marginal of the Q-function;
the polar integral has an exact Beta-function form.  Oscillator phase
distributions are Susskind-Glogower-state diagonals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distribution import (
    DEFAULT_GRID_SIZE,
    PhaseDistribution,
    distribution_from_fourier,
    phase_grid,
)
from .errors import TruncationError
from .halfint import HalfInteger, check_jm, m_range
from .special_functions import (
    beta_integral,
    hermite_sequence,
    log_binomial,
    log_factorial,
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


def atomic_squeezed_amplitudes(params: AtomicSqueezedParams) -> np.ndarray:
    """Amplitudes a_n = A_p e^{n Theta} d^j_{n,p}(pi/2), normalized."""
    j, p = params.j, params.p
    amps = np.array(
        [math.exp(n.value * params.Theta) * wigner_d_half_pi(j, n, p) for n in m_range(j)]
    )
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


def _dipole_weights(j: HalfInteger) -> np.ndarray:
    """Matrix W_{nm} = sqrt(C(2j,j+n) C(2j,j+m)) * 2 B(j+(n+m)/2+1, j-(n+m)/2+1),
    the exact polar integral of the Q-function angle marginal."""
    tj = j.twice_value
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    w = np.empty((tj + 1, tj + 1))
    for kn in range(tj + 1):
        n = kn - tj / 2.0
        for km in range(tj + 1):
            m = km - tj / 2.0
            w[kn, km] = (
                half_binom[kn]
                * half_binom[km]
                * 2.0
                * beta_integral(j.value + (n + m) / 2.0 + 1.0, j.value - (n + m) / 2.0 + 1.0)
            )
    return w


def phase_distribution_atomic(
    rho: DickeDensityMatrix, grid: int = DEFAULT_GRID_SIZE
) -> PhaseDistribution:
    """Angle marginal P(phi) of the atomic Q-function, via the exact
    Beta-function polar integral."""
    j = rho.j
    weighted = rho.elements * _dipole_weights(j)
    pref = (j.twice_value + 1) / (4.0 * math.pi)  # (2j+1)/4pi
    # weighted[n, m] multiplies e^{i(n-m)phi}; the synthesizer wants a[m, n]
    return distribution_from_fourier(pref * weighted.T, grid)


def phase_dist_coherent_halfspin(
    params: AtomicCoherentParams, omega: float, t: float, gamma_t: float,
    grid: int = DEFAULT_GRID_SIZE,
) -> PhaseDistribution:
    """Single-atom closed form for an atomic coherent initial state; only
    gamma(t) enters."""
    phi = phase_grid(grid)
    values = (
        1.0
        + (math.pi / 4.0)
        * math.sin(params.alpha_p)
        * np.cos(params.beta_p + omega * t - phi)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)
    return PhaseDistribution(values)


def phase_dist_squeezed_halfspin(
    Theta: float, p_sign: float, omega: float, t: float, gamma_t: float,
    grid: int = DEFAULT_GRID_SIZE,
) -> PhaseDistribution:
    """Single-atom closed form for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2."""
    sign = _half_sign(p_sign)
    phi = phase_grid(grid)
    values = (
        1.0
        + sign
        * (math.pi / (4.0 * math.cosh(Theta)))
        * np.cos(phi - omega * t)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)
    return PhaseDistribution(values)


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
    grid: int = DEFAULT_GRID_SIZE,
) -> PhaseDistribution:
    """Two-atom (j = 1) closed forms for p in {+1, -1, 0}.

    Unlike the single-atom case these involve eta(t) as well as gamma(t).
    """
    phi = phase_grid(grid)
    w2 = omega**2
    if p == 0:
        values = (
            1.0
            - np.cos(2.0 * (phi - omega * t))
            * math.exp(-4.0 * w2 * gamma_t)
            / (2.0 * math.cosh(2.0 * Theta))
        ) / (2.0 * math.pi)
        return PhaseDistribution(values)
    if p not in (1, -1):
        raise ValueError(f"p must be +1, -1 or 0, got {p}")
    sign = float(p)
    denom = 1.0 + math.cosh(2.0 * Theta)
    values = (
        1.0
        + sign
        * (3.0 * math.pi / (4.0 * denom))
        * (
            np.cos(phi - omega * t) * math.cos(w2 * eta_t) * math.cosh(Theta)
            - np.sin(phi - omega * t) * math.sin(w2 * eta_t) * math.sinh(Theta)
        )
        * math.exp(-w2 * gamma_t)
        + (1.0 / (2.0 * denom))
        * np.cos(2.0 * (phi - omega * t))
        * math.exp(-4.0 * w2 * gamma_t)
    ) / (2.0 * math.pi)
    return PhaseDistribution(values)


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


def _coherent_amplitudes(alpha_mag: float, theta0: float, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff)
    log_mag = n * math.log(alpha_mag) if alpha_mag > 0 else np.where(n == 0, 0.0, -np.inf)
    log_mag = log_mag - 0.5 * np.array([log_factorial(int(k)) for k in n]) - alpha_mag**2 / 2.0
    return np.exp(log_mag) * np.exp(1j * n * theta0)


def _check_tail(weights: np.ndarray, tol: float, what: str) -> None:
    deficit = abs(1.0 - float(np.sum(weights)))
    if deficit > tol:
        raise TruncationError(
            f"{what}: truncated weight deficit {deficit:.3e} exceeds {tol:.1e}"
        )


def _osc_phase_dist(
    amps: np.ndarray, omega: float, t: float, eta_t: float, gamma_t: float, grid: int
) -> PhaseDistribution:
    """P(theta) for a pure state evolved under the oscillator dephasing
    propagator, E_n = omega (n + 1/2); half-integer levels are exact in
    floating point, so dm * sm is exactly (n-m)(n+m+1)."""
    levels = np.arange(len(amps), dtype=float) + 0.5
    rho = np.outer(amps, amps.conj()) * _dephasing_factor(levels, omega, t, eta_t, gamma_t)
    return distribution_from_fourier(rho / (2.0 * math.pi), grid)


def default_oscillator_cutoff(alpha_mag: float) -> int:
    mean = alpha_mag**2
    return max(25, int(math.ceil(mean + 12.0 * math.sqrt(mean) + 15.0)))


def phase_dist_osc_coherent(
    alpha_mag: float,
    theta0: float,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t: float,
    cutoff: int | None = None,
    grid: int = DEFAULT_GRID_SIZE,
) -> PhaseDistribution:
    """Oscillator phase distribution for a coherent initial state."""
    if cutoff is None:
        cutoff = default_oscillator_cutoff(alpha_mag)
    amps = _coherent_amplitudes(alpha_mag, theta0, cutoff)
    _check_tail(np.abs(amps) ** 2, 1e-12, "coherent Poisson tail")
    return _osc_phase_dist(amps, omega, t, eta_t, gamma_t, grid)


def squeezed_coherent_amplitudes(
    r1: float, psi: float, alpha_mag: float, theta0: float, cutoff: int
) -> np.ndarray:
    """Fock amplitudes of S(xi) D(alpha)|0>, xi = r1 e^{i psi}, via the
    Hermite-polynomial closed form."""
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    z = alpha_mag * complex(math.cos(theta0 - psi / 2.0), math.sin(theta0 - psi / 2.0))
    z /= math.sqrt(math.sinh(2.0 * r1))
    herm = hermite_sequence(cutoff - 1, z)
    m = np.arange(cutoff, dtype=float)
    log_mag = (m / 2.0) * (math.log(math.tanh(r1)) - math.log(2.0)) - 0.5 * np.array(
        [log_factorial(int(k)) for k in range(cutoff)]
    )
    pref = math.exp(-(alpha_mag**2) * (1.0 - math.tanh(r1) * math.cos(2.0 * theta0 - psi)))
    common = math.sqrt(pref / math.cosh(r1))
    return common * np.exp(log_mag) * np.exp(1j * m * psi / 2.0) * herm


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
    grid: int = DEFAULT_GRID_SIZE,
) -> PhaseDistribution:
    """Oscillator phase distribution for a squeezed coherent initial state;
    dispatches to the coherent form at r1 = 0 where the squeeze factors
    degenerate."""
    if r1 < 0:
        raise ValueError(f"r1 = {r1} must be nonnegative")
    if r1 == 0.0:
        return phase_dist_osc_coherent(alpha_mag, theta0, omega, t, eta_t, gamma_t, cutoff, grid)
    if cutoff is None:
        mean = alpha_mag**2 * math.cosh(2 * r1) + math.sinh(r1) ** 2
        cutoff = max(30, int(math.ceil(mean + 14.0 * math.sqrt(mean + 1.0) + 20.0)))
    amps = squeezed_coherent_amplitudes(r1, psi, alpha_mag, theta0, cutoff)
    _check_tail(np.abs(amps) ** 2, 1e-10, "squeezed-coherent Fock tail")
    return _osc_phase_dist(amps, omega, t, eta_t, gamma_t, grid)

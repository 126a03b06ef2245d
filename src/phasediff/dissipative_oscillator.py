"""Dissipative harmonic oscillator in a squeezed thermal bath.

The master equation is solved in the frame of the squeeze operator S(zeta),
where it reduces to a thermal-like su(1,1) problem with damping coefficients
alpha_coef, beta_coef (alpha_coef - beta_coef = gamma0).  A squeezed
coherent initial state S(zeta) D(eta0)|0> then evolves into a mixture of
generalized squeezed coherent states (GSCS) S(zeta) D(eta_tilde)|l> with
Poisson-like weights; the consistency of (N, M, zeta) ties the initial
system squeezing to the bath squeezing, r1 = r.

The master equation and the mixture live in the interaction picture; the
free evolution reappears only as the e^{-i omega (m-n) t} factor in the
phase distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .bath_kernels import (
    DissipativeBathMoments,
    OSCILLATOR_CONVENTION,
    bath_moments,
)
from .distribution import (
    DEFAULT_GRID_SIZE,
    PhaseDistribution,
    distribution_from_fourier,
    phase_grid,
)
from .errors import ConsistencyError, TruncationError, check_finite
from .special_functions import log_factorial, squeeze_matrix


@dataclass(frozen=True)
class OscillatorLindbladSpec:
    omega: float
    gamma0: float
    moments: DissipativeBathMoments

    def __post_init__(self):
        check_finite(omega=self.omega, gamma0=self.gamma0)
        if self.omega <= 0:
            raise ValueError(f"omega = {self.omega} must be positive")
        if self.gamma0 <= 0:
            raise ValueError(f"gamma0 = {self.gamma0} must be positive")

    @property
    def zeta_mag(self) -> float:
        return self.moments.r

    @property
    def zeta_phase(self) -> float:
        return self.moments.Phi

    @property
    def zeta(self) -> complex:
        r, phi = self.zeta_mag, self.zeta_phase
        return r * complex(math.cos(phi), math.sin(phi))


def oscillator_spec(
    omega: float, gamma0: float, r: float, Phi: float, T: float
) -> OscillatorLindbladSpec:
    """Convenience constructor (oscillator sign convention, zeta = r e^{i Phi})."""
    return OscillatorLindbladSpec(
        omega, gamma0, bath_moments(r, Phi, T, omega, OSCILLATOR_CONVENTION)
    )


def _check_consistency(moments: DissipativeBathMoments, zeta: complex) -> None:
    """(|zeta|/zeta) M coth|zeta| + (zeta/|zeta|) M* tanh|zeta| = 2N + 1."""
    mag = abs(zeta)
    if mag == 0:
        return
    phase = zeta / mag
    lhs = moments.M / phase / math.tanh(mag) + phase * moments.M.conjugate() * math.tanh(mag)
    rhs = 2.0 * moments.N + 1.0
    if abs(lhs - rhs) > 1e-10 * max(1.0, rhs):
        raise ConsistencyError(
            f"squeeze-frame consistency violated: residual {abs(lhs - rhs):.3e}"
        )


def damping_coeffs(spec: OscillatorLindbladSpec) -> tuple[float, float]:
    """Squeezed-frame damping coefficients (alpha_coef, beta_coef).

    Once the bath moments satisfy the squeeze-frame consistency condition,
    the squeezed-bath coefficients gamma0 [N cosh 2r - Re(M zeta*) sinh 2r / r
    + (cosh^2 r, sinh^2 r)] reduce exactly to the thermal pair
    (gamma0 (N_th + 1), gamma0 N_th); the reduced form avoids the
    cancellation, so beta_coef is exactly 0 at T = 0.
    """
    _check_consistency(spec.moments, spec.zeta)
    g0, n_th = spec.gamma0, spec.moments.N_th
    return g0 * (n_th + 1.0), g0 * n_th


@dataclass(frozen=True)
class GscsMixture:
    """Parameters of the GSCS mixture at a fixed time: mixing strength
    beta_tilde, shrunk displacement eta_tilde, frame squeeze zeta."""

    beta_tilde: float
    eta_tilde: complex
    zeta: complex

    def __post_init__(self):
        if self.beta_tilde < -1e-15:
            raise ValueError(f"beta_tilde = {self.beta_tilde} must be nonnegative")

    @property
    def k_ratio(self) -> float:
        """Geometric ratio beta_tilde/(1 + beta_tilde) of the k-weights."""
        return self.beta_tilde / (1.0 + self.beta_tilde)


def mixture_params(spec: OscillatorLindbladSpec, t: float, eta0: complex) -> GscsMixture:
    if t < 0:
        raise ValueError(f"t = {t} must be nonnegative")
    _, beta_coef = damping_coeffs(spec)
    g0 = spec.gamma0
    beta_tilde = (beta_coef / g0) * -math.expm1(-g0 * t)
    eta_tilde = eta0 * math.exp(-g0 * t / 2.0) / (1.0 + beta_tilde)
    return GscsMixture(beta_tilde=beta_tilde, eta_tilde=eta_tilde, zeta=spec.zeta)


def gcs_displacement_matrix(eta: complex, cutoff: int) -> np.ndarray:
    """Matrix Dm[f, l] = <f| D(eta) |l> of the displacement operator.

    With x = |eta|^2 and a = |f - l|, the Laguerre closed form is
    <f|D|l> = p^a lam_{min(f,l)}^a, where p = eta/|eta| for f >= l and
    -eta*/|eta| for f < l, and lam_k^a = e^{-x/2} |eta|^a sqrt(k!/(k+a)!)
    L_k^a(x).  lam obeys the Laguerre degree recurrence in normalized form,
    sqrt((k+1)(k+1+a)) lam_{k+1} = (2k+1+a-x) lam_k - sqrt(k(k+a)) lam_{k-1},
    which is run once for all a at once (O(cutoff^2); cf. Miatto & Quesada,
    arXiv:2004.11002).  Every lam is a matrix element of a unitary, so none
    exceeds 1 and the table cannot overflow at any cutoff.
    """
    mag = abs(eta)
    x = mag * mag
    a = np.arange(cutoff, dtype=float)
    lam = np.empty((cutoff, cutoff))  # lam[k, a]
    if mag > 0.0:
        lam[0] = np.exp(-x / 2.0 + a * math.log(mag) - 0.5 * gammaln(a + 1.0))
    else:
        lam[0] = a == 0
    prev = np.zeros(cutoff)
    for k in range(cutoff - 1):
        lam[k + 1] = (
            (2 * k + 1 + a - x) * lam[k] - np.sqrt(k * (k + a)) * prev
        ) / np.sqrt((k + 1) * (k + 1 + a))
        prev = lam[k]
    theta = math.atan2(eta.imag, eta.real)
    f, l = np.indices((cutoff, cutoff))
    sup = np.abs(f - l)
    phase = np.where(
        f >= l, np.exp(1j * theta * a)[sup], np.exp(1j * (math.pi - theta) * a)[sup]
    )
    return phase * lam[np.minimum(f, l), sup]


def _gcs_component_vectors(mix: GscsMixture, dm: np.ndarray, k_max: int | None):
    """Yield (weight_k, vector_k) with vector_k the Fock expansion of
    sum_l C(k,l) sqrt(l!) (eta_tilde*)^{k-l} D(eta_tilde)|l>, where
    dm = gcs_displacement_matrix(eta_tilde, cutoff)."""
    cutoff = dm.shape[0]
    ratio = mix.k_ratio
    etc = mix.eta_tilde.conjugate()
    limit = k_max if k_max is not None else 300
    log_w = 0.0  # ln(ratio^k / k!)
    for k in range(limit + 1):
        if k > 0:
            if ratio <= 0.0:
                return
            log_w += math.log(ratio) - math.log(k)
        c = np.zeros(cutoff, dtype=complex)
        for l in range(min(k, cutoff - 1) + 1):
            log_c = (
                log_factorial(k)
                - log_factorial(l)
                - log_factorial(k - l)
                + 0.5 * log_factorial(l)
            )
            c[l] = math.exp(log_c) * etc ** (k - l)
        v = dm @ c
        weight = math.exp(log_w)
        yield weight, v
        # k! in |c|^2 balances the 1/k! weight; stop once contributions die
        if k > 4 and weight * float(np.vdot(v, v).real) < 1e-16:
            return
    raise TruncationError(f"GSCS k-sum failed to converge within k_max = {limit}")


def _frame_squeeze(mix: GscsMixture, cutoff: int) -> np.ndarray:
    zeta = mix.zeta
    return squeeze_matrix(cutoff, abs(zeta), math.atan2(zeta.imag, zeta.real))


def fock_density_from_gscs(
    mix: GscsMixture, cutoff: int, k_max: int | None = None, trace_tol: float = 1e-5
) -> np.ndarray:
    """Interaction-picture Fock density matrix of the GSCS mixture.

    The free e^{-i omega (m-n) t} phases are applied only when forming the
    phase distribution, never here.
    """
    g = _frame_squeeze(mix, cutoff)
    dm = gcs_displacement_matrix(mix.eta_tilde, cutoff)
    rho_frame = np.zeros((cutoff, cutoff), dtype=complex)
    for weight, v in _gcs_component_vectors(mix, dm, k_max):
        rho_frame += weight * np.outer(v, v.conj())
    pref = math.exp(-mix.beta_tilde * abs(mix.eta_tilde) ** 2) / (1.0 + mix.beta_tilde)
    rho = pref * (g @ rho_frame @ g.conj().T)
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > trace_tol:
        raise TruncationError(
            f"assembled trace {trace:.10f} misses 1 by more than {trace_tol:.1e}; "
            f"raise the Fock cutoff (currently {cutoff})"
        )
    return rho


def phase_distribution_fock(
    rho: np.ndarray, omega: float, t: float, grid: int = DEFAULT_GRID_SIZE
) -> PhaseDistribution:
    """P(theta) = (1/2pi) <theta|rho_S|theta> for an interaction-picture Fock
    density matrix, reverting to the Schroedinger picture on the way."""
    rho = np.asarray(rho, dtype=complex)
    n = np.arange(rho.shape[0], dtype=float)
    rho_s = rho * np.exp(-1j * omega * (n[:, None] - n[None, :]) * t)
    return distribution_from_fourier(rho_s / (2.0 * math.pi), grid)


def default_dissipative_cutoff(mix: GscsMixture, eta0: complex) -> int:
    """Fock cutoff heuristic.

    Squeezed coherences die only geometrically, roughly as
    tanh(r1)^(cutoff/2), so the squeeze term targets a 1e-10 tail; the
    displaced-thermal occupation adds a plain pad on top.
    """
    mean_frame = mix.beta_tilde + max(abs(mix.eta_tilde), abs(eta0)) ** 2
    pad = 10.0 * (mean_frame + 1.0)
    r1 = abs(mix.zeta)
    if r1 > 0.0:
        pad += 2.0 * math.log(1e10) / -math.log(math.tanh(r1))
    return max(40, int(math.ceil(pad + 20.0)))


def _phase_dist_direct(
    mix: GscsMixture,
    omega: float,
    t: float,
    g: np.ndarray,
    dm: np.ndarray,
    theta: np.ndarray,
) -> np.ndarray:
    """Direct evaluation of the printed phase-distribution sum, factorized
    per mixture component k; never forms the density matrix.  g and dm are
    the frame squeeze and displacement matrices at the cutoff to use."""
    m = np.arange(g.shape[0], dtype=float)
    phases = np.exp(-1j * np.outer(m, theta + omega * t))  # e^{-i m (theta + w t)}
    total = np.zeros(len(theta))
    for weight, v in _gcs_component_vectors(mix, dm, None):
        psi = g @ v
        gk = psi @ phases
        total += weight * np.abs(gk) ** 2
    pref = math.exp(-mix.beta_tilde * abs(mix.eta_tilde) ** 2) / (1.0 + mix.beta_tilde)
    return pref * total / (2.0 * math.pi)


def phase_dist_osc_dissipative(
    spec: OscillatorLindbladSpec,
    eta0: complex,
    t: float,
    cutoff: int | None = None,
    grid: int = DEFAULT_GRID_SIZE,
    agreement_tol: float = 1e-8,
) -> PhaseDistribution:
    """Phase distribution of the dissipative oscillator at time t.

    Evaluated at two Fock cutoffs; disagreement beyond agreement_tol raises
    TruncationError.  Matrix elements do not depend on the cutoff, so the
    squeeze and displacement matrices are built once and the smaller
    cutoff uses their leading block.
    """
    mix = mixture_params(spec, t, eta0)
    if cutoff is None:
        cutoff = default_dissipative_cutoff(mix, eta0)
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    theta = phase_grid(grid)
    check_cutoff = max(8, cutoff - 8)
    size = max(cutoff, check_cutoff)
    g = _frame_squeeze(mix, size)
    dm = gcs_displacement_matrix(mix.eta_tilde, size)

    def direct(n: int) -> np.ndarray:
        return _phase_dist_direct(mix, spec.omega, t, g[:n, :n], dm[:n, :n], theta)

    values = direct(cutoff)
    dev = float(np.max(np.abs(values - direct(check_cutoff))))
    if dev > agreement_tol:
        raise TruncationError(
            f"two-cutoff disagreement {dev:.3e} at cutoffs ({cutoff}, {check_cutoff})"
        )
    return PhaseDistribution(values)

"""Dissipative harmonic oscillator in a squeezed thermal bath.

The master equation is solved in the frame of the squeeze operator S(zeta),
where it reduces to a thermal-like su(1,1) problem with damping coefficients
alpha_coef, beta_coef (alpha_coef - beta_coef = gamma0).  A squeezed
coherent initial state S(zeta) D(eta0)|0> then evolves into a mixture of
generalized squeezed coherent states (GSCS) S(zeta) D(eta_tilde)|l> with
Poisson-like weights and mixing strength beta_tilde; the consistency of
(N, M, zeta) ties the initial system squeezing to the bath squeezing,
r1 = r.  At beta_tilde = 0 (every T = 0 point) the mixture is the single
squeezed coherent ket S(zeta) D(eta_tilde)|0>, built by its stable
recurrence, and P(phi) is one autocorrelation of that ket; otherwise the
mixture is summed over its components and its density matrix reaches P(phi)
through phase_distribution_fock.

The master equation and the mixture live in the interaction picture; the
free evolution reappears only as the e^{-i omega (m-n) t} factor in the
phase distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath_kernels import (
    DissipativeBathMoments,
    OSCILLATOR_CONVENTION,
    bath_moments,
)
from .distribution import (
    DEFAULT_GRID_SIZE,
    PhaseDistribution,
    distribution_from_fourier,
    ket_autocorrelation,
)
from .errors import ConsistencyError, TruncationError, check_finite
from .special_functions import (
    log_factorial,
    squeeze_matrix,
    squeeze_tail_pad,
    squeezed_coherent_ket,
)


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
        log_fact = np.array([log_factorial(k) for k in range(cutoff)])
        lam[0] = np.exp(-x / 2.0 + a * math.log(mag) - 0.5 * log_fact)
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


def _gcs_component_vectors(mix: GscsMixture, dm: np.ndarray, k_max: int = 300):
    """Yield (weight_k, vector_k) with vector_k the Fock expansion of
    sum_l C(k,l) sqrt(l!) (eta_tilde*)^{k-l} D(eta_tilde)|l>, where
    dm = gcs_displacement_matrix(eta_tilde, cutoff)."""
    cutoff = dm.shape[0]
    ratio = mix.beta_tilde / (1.0 + mix.beta_tilde)  # geometric ratio of the k-weights
    etc = mix.eta_tilde.conjugate()
    log_w = 0.0  # ln(ratio^k / k!)
    for k in range(k_max + 1):
        if k > 0:
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
    raise TruncationError(f"GSCS k-sum failed to converge within k_max = {k_max}")


# The largest trace deficit of the truncated state that a point accepts.
TRACE_TOL = 1e-5


def _check_trace(trace: float, cutoff: int, trace_tol: float) -> None:
    if abs(trace - 1.0) > trace_tol:
        raise TruncationError(
            f"assembled trace {trace:.10f} misses 1 by more than {trace_tol:.1e}; "
            f"raise the Fock cutoff (currently {cutoff})"
        )


def _mixture_ket(mix: GscsMixture, cutoff: int) -> np.ndarray:
    """psi = S(zeta) D(eta_tilde)|0> from squeezed_coherent_ket: the whole
    mixture at beta_tilde = 0."""
    zeta = mix.zeta
    return squeezed_coherent_ket(abs(zeta), math.atan2(zeta.imag, zeta.real), mix.eta_tilde, cutoff)


def _check_ket_trace(psi: np.ndarray, trace_tol: float) -> None:
    _check_trace(float(np.vdot(psi, psi).real), len(psi), trace_tol)


def fock_density_from_gscs(
    mix: GscsMixture, cutoff: int, trace_tol: float = TRACE_TOL
) -> np.ndarray:
    """Interaction-picture Fock density matrix of the GSCS mixture.

    At beta_tilde = 0 it is psi psi^dag with psi = S(zeta) D(eta_tilde)|0>.
    Otherwise the k-sum runs in the squeeze frame and is rotated by the
    squeeze matrix, whose columns are accurate only at low index; the k-sum
    vectors are negligible beyond those.  The free e^{-i omega (m-n) t}
    phases are applied only when forming the phase distribution, never here.
    """
    if mix.beta_tilde == 0.0:
        psi = _mixture_ket(mix, cutoff)
        _check_ket_trace(psi, trace_tol)
        return np.outer(psi, psi.conj())
    zeta = mix.zeta
    g = squeeze_matrix(cutoff, abs(zeta), math.atan2(zeta.imag, zeta.real))
    dm = gcs_displacement_matrix(mix.eta_tilde, cutoff)
    rho_frame = np.zeros((cutoff, cutoff), dtype=complex)
    # an overflowing k-sum term raises FloatingPointError, not a warning
    with np.errstate(over="raise", invalid="raise"):
        for weight, v in _gcs_component_vectors(mix, dm):
            rho_frame += weight * np.outer(v, v.conj())
    pref = math.exp(-mix.beta_tilde * abs(mix.eta_tilde) ** 2) / (1.0 + mix.beta_tilde)
    rho = pref * (g @ rho_frame @ g.conj().T)
    _check_trace(float(np.trace(rho).real), cutoff, trace_tol)
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


# Each dense cutoff x cutoff complex matrix costs 16 cutoff^2 bytes (67 MB at
# the limit).  The squeeze tail pad puts the default cutoff near 1300 levels at
# r = 2, past the limit near r = 2.2 and at 9330 at r = 3.
MAX_DISSIPATIVE_CUTOFF = 2048


def default_dissipative_cutoff(mix: GscsMixture, eta0: complex) -> int:
    """Fock cutoff heuristic.

    Squeezed coherences die only geometrically, roughly as
    tanh(r1)^(cutoff/2), so the squeeze term targets a 1e-10 tail; the
    displaced-thermal occupation adds a plain pad on top.
    """
    mean_frame = mix.beta_tilde + max(abs(mix.eta_tilde), abs(eta0)) ** 2
    pad = 10.0 * (mean_frame + 1.0) + squeeze_tail_pad(abs(mix.zeta))
    return max(40, int(math.ceil(pad + 20.0)))


def phase_dist_osc_dissipative(
    spec: OscillatorLindbladSpec,
    eta0: complex,
    t: float,
    cutoff: int | None = None,
    grid: int = DEFAULT_GRID_SIZE,
    agreement_tol: float = 1e-8,
) -> PhaseDistribution:
    """Phase distribution of the dissipative oscillator at time t.

    At beta_tilde = 0 the state is the ket psi of _mixture_ket, so with
    v_n = psi_n e^{-i omega n t} each Fourier coefficient is one entry of the
    autocorrelation of v, in O(cutoff) memory; otherwise the density matrix
    goes through phase_distribution_fock.  Either is evaluated at two Fock
    cutoffs; disagreement beyond agreement_tol raises TruncationError.  The
    ket's recurrence runs forward in n, so the smaller cutoff's ket is a
    prefix of the larger one's and is not built again.  A GSCS k-sum that
    overflows is a TruncationError naming T and t, which no cutoff can cure.
    """
    mix = mixture_params(spec, t, eta0)
    if cutoff is None:
        cutoff = default_dissipative_cutoff(mix, eta0)
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    if cutoff > MAX_DISSIPATIVE_CUTOFF:
        raise TruncationError(
            f"Fock cutoff {cutoff} exceeds the dissipative-oscillator limit of "
            f"{MAX_DISSIPATIVE_CUTOFF} levels; lower the squeezing r (currently "
            f"{spec.zeta_mag}) or pass --cutoff of at most {MAX_DISSIPATIVE_CUTOFF}"
        )
    check_cutoff = max(8, cutoff - 8)
    psi = _mixture_ket(mix, cutoff) if mix.beta_tilde == 0.0 else None

    def distribution(n: int) -> PhaseDistribution:
        if psi is None:
            try:
                rho = fock_density_from_gscs(mix, n)
            except ArithmeticError as exc:  # OverflowError or FloatingPointError
                raise TruncationError(
                    f"the GSCS k-sum overflows at T = {spec.moments.T:g}, t = {t:g} "
                    f"(beta_tilde = {mix.beta_tilde:.3g}); lower the bath temperature T "
                    "or the time t"
                ) from exc
            return phase_distribution_fock(rho, spec.omega, t, grid)
        ket = psi[:n]
        _check_ket_trace(ket, TRACE_TOL)
        v = ket * np.exp(-1j * spec.omega * t * np.arange(n))
        return PhaseDistribution(ket_autocorrelation(v) / (2.0 * math.pi), grid)

    p = distribution(cutoff)
    dev = float(np.max(np.abs(p.values - distribution(check_cutoff).values)))
    if dev > agreement_tol:
        raise TruncationError(
            f"two-cutoff disagreement {dev:.3e} at cutoffs ({cutoff}, {check_cutoff}); "
            "raise the Fock cutoff (--cutoff)"
        )
    return p

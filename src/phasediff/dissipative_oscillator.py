"""Dissipative harmonic oscillator in a squeezed thermal bath.

The master equation is solved in the frame of the squeeze operator S(zeta),
where it reduces to a thermal-like su(1,1) problem with damping coefficients
alpha_coef, beta_coef (alpha_coef - beta_coef = gamma0).  A squeezed
coherent initial state S(zeta) D(eta0)|0> then evolves into a mixture of
generalized squeezed coherent states (GSCS) with mixing strength beta_tilde;
the consistency of (N, M, zeta) ties the initial system squeezing to the bath
squeezing, r1 = r.  That mixture is the displaced squeezed thermal state
(P. Marian & T. A. Marian, Phys. Rev. A 47, 4474 (1993))

    rho = sum_n p_n phi_n phi_n^dag,   p_n = beta_tilde^n / (1 + beta_tilde)^(n+1),
    phi_n = S(zeta) D(a)|n>,           a = eta_tilde (1 + beta_tilde) = eta0 e^{-gamma0 t/2},

whose thermal columns phi_n follow one from another by a recurrence in the
Fock row (cf. the Gaussian Fock recurrences of Miatto & Quesada, Quantum 4,
366 (2020)) and are streamed one at a time, so P(phi) costs O(cutoff) memory
at every temperature.  At beta_tilde = 0 (every T = 0 point) the mixture is
the single squeezed coherent ket phi_0.

The master equation and the mixture live in the interaction picture; the
free evolution reappears only as the e^{-i omega (m-n) t} factor in the
phase distribution.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath_kernels import (
    DissipativeBathMoments,
    OSCILLATOR_CONVENTION,
    bath_moments,
)
from .distribution import DEFAULT_GRID_SIZE, PhaseDistribution, ket_autocorrelation
from .errors import ConsistencyError, TruncationError, check_finite
from .special_functions import log_factorial, squeeze_tail_pad, squeezed_coherent_ket


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
    exceeds 1 and the table cannot overflow at any cutoff.  No evaluation
    path uses the matrix; it is kept because the benchmark harness traces it
    by name.
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


# The largest trace deficit of the truncated state that a point accepts, the
# largest disagreement of P between the two cutoffs, and the largest weighted
# norm excess of the thermal columns.
TRACE_TOL = 1e-5
AGREEMENT_TOL = 1e-8
DRIFT_TOL = 1e-12
# the thermal weight (beta_tilde / (1 + beta_tilde))^K of the columns left out
COLUMN_TAIL = 1e-16


def _check_trace(trace: float, cutoff: int, trace_tol: float) -> None:
    if abs(trace - 1.0) > trace_tol:
        raise TruncationError(
            f"assembled trace {trace:.10f} misses 1 by more than {trace_tol:.1e}; "
            f"raise the Fock cutoff (currently {cutoff})"
        )


def _thermal_columns(mix: GscsMixture, cutoff: int, point: str):
    """Yield (p_n, phi_n) for n < K: the weights p_n = beta_tilde^n /
    (1 + beta_tilde)^(n+1) and the columns phi_n = S(zeta) D(a)|n> on `cutoff`
    levels, a = eta_tilde (1 + beta_tilde), one column at a time.  K is the
    first count whose tail weight (beta_tilde / (1 + beta_tilde))^K is below
    COLUMN_TAIL, so K = 1 at beta_tilde = 0.

    phi_0 is squeezed_coherent_ket.  With B = S D a D^dag S^dag
    = a cosh r + a^dag e^{i Phi} sinh r - a and B phi_n = sqrt(n) phi_{n-1},
    each later column follows from the one before by a recurrence in the row:
    cosh r sqrt(m+1) phi_n[m+1] = a phi_n[m] - e^{i Phi} sinh r sqrt(m) phi_n[m-1]
    + sqrt(n) phi_{n-1}[m], from phi_n[0] = <0|S D(a)|n>
    = conj <n|S(-zeta) D(-a cosh r + a* e^{i Phi} sinh r)|0>.  Both recurrences
    run forward in the row, so the first k rows of each column are that column
    on k levels.  A truncated column of a unitary has norm at most 1, but the
    columns drift off it as n grows; once sum_n p_n max(0, |phi_n|^2 - 1)
    passes DRIFT_TOL the point, named by `point`, is refused, since no cutoff
    brings the columns back.
    """
    r, angle = abs(mix.zeta), math.atan2(mix.zeta.imag, mix.zeta.real)
    a = mix.eta_tilde * (1.0 + mix.beta_tilde)  # eta_tilde itself at beta_tilde = 0
    ratio = mix.beta_tilde / (1.0 + mix.beta_tilde)
    count = 1 if ratio == 0.0 else int(math.log(COLUMN_TAIL) / math.log(ratio)) + 1
    column = squeezed_coherent_ket(r, angle, a, cutoff)
    weight, excess = 1.0 / (1.0 + mix.beta_tilde), 0.0
    yield weight, column
    if count == 1:
        return
    ch, sh = math.cosh(r), math.sinh(r)
    rot = cmath.exp(1j * angle)
    heads = squeezed_coherent_ket(r, angle + math.pi, -a * ch + a.conjugate() * rot * sh, count)
    heads = heads.conj().tolist()
    sq = np.sqrt(np.arange(cutoff, dtype=float))
    scale = 1.0 / (ch * sq[1:])
    # phi_n[m+1] = lead[m] phi_n[m] - back[m] phi_n[m-1] + drive[m]
    lead = (a * scale).tolist()
    back = (rot * math.tanh(r) * sq[:-1] / sq[1:]).tolist()
    for n in range(1, count):
        drive = (math.sqrt(n) * scale * column[:-1]).tolist()
        cur, prev = heads[n], 0j
        rows = [cur]
        for lm, bm, dm in zip(lead, back, drive):
            cur, prev = lm * cur - bm * prev + dm, cur
            rows.append(cur)
        column = np.array(rows)
        weight *= ratio
        excess += weight * max(0.0, float(np.vdot(column, column).real) - 1.0)
        if excess > DRIFT_TOL:
            raise TruncationError(
                f"thermal column {n} drifts off the unitary bound (weighted norm "
                f"excess {excess:.1e}) at {point}; lower the bath temperature T "
                "or the time t"
            )
        yield weight, column


def fock_density_from_gscs(
    mix: GscsMixture, cutoff: int, trace_tol: float = TRACE_TOL
) -> np.ndarray:
    """Interaction-picture Fock density matrix sum_n p_n phi_n phi_n^dag of
    the mixture on `cutoff` levels, from _thermal_columns.  The free
    e^{-i omega (m-n) t} phases are applied only when forming the phase
    distribution, never here."""
    point = f"beta_tilde = {mix.beta_tilde:.3g}"
    rho = sum(p * np.outer(v, v.conj()) for p, v in _thermal_columns(mix, cutoff, point))
    _check_trace(float(np.trace(rho).real), cutoff, trace_tol)
    return rho


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
) -> PhaseDistribution:
    """Phase distribution of the dissipative oscillator at time t.

    With v_n = phi_n e^{-i omega m t} for each thermal column, the Fourier
    coefficients are c_d = sum_n p_n autocorr(v_n)_d / 2pi, in O(cutoff)
    memory; at T = 0 the one column is the state's ket.  They are summed at
    the cutoff and, from the first check_cutoff rows of the same columns, at
    a check cutoff 8 levels lower.  A trace deficit beyond TRACE_TOL at
    either cutoff, or a disagreement of P beyond AGREEMENT_TOL, raises a
    TruncationError that names the cutoff.
    """
    mix = mixture_params(spec, t, eta0)
    if cutoff is None:
        cutoff = default_dissipative_cutoff(mix, eta0)
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    levels = (cutoff, max(8, cutoff - 8))
    traces, coeffs = [0.0, 0.0], [0.0, 0.0]
    phase = np.exp(-1j * spec.omega * t * np.arange(cutoff))
    point = f"T = {spec.moments.T:g}, t = {t:g} (beta_tilde = {mix.beta_tilde:.3g})"
    for weight, column in _thermal_columns(mix, cutoff, point):
        v = column * phase
        for i, k in enumerate(levels):
            traces[i] += weight * float(np.vdot(column[:k], column[:k]).real)
            coeffs[i] += weight * ket_autocorrelation(v[:k])
    for k, trace in zip(levels, traces):
        _check_trace(trace, k, TRACE_TOL)
    p, check = (PhaseDistribution(c / (2.0 * math.pi), grid) for c in coeffs)
    dev = float(np.max(np.abs(p.values - check.values)))
    if dev > AGREEMENT_TOL:
        raise TruncationError(
            f"two-cutoff disagreement {dev:.3e} at cutoffs {levels}; "
            "raise the Fock cutoff (--cutoff)"
        )
    return p

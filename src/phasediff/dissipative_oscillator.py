"""Dissipative harmonic oscillator in a squeezed thermal bath.

The bath is one DissipativeBathSpec (omega, gamma0, r, Phi, T), and the
initial state S(zeta) D(eta0)|0> is squeezed by the bath's own
zeta = r e^{i Phi}.  The bath's moments obey M coth|zeta| / u
+ u M* tanh|zeta| = 2N + 1 with u = zeta/|zeta|, so in the frame of S(zeta)
the master equation is that of a thermal bath of occupation N_th, with
damping coefficients gamma0 (N_th + 1) and gamma0 N_th.  The state at time t
is a mixture of generalized squeezed coherent states (GSCS), the displaced
squeezed thermal state (P. Marian & T. A. Marian, Phys. Rev. A 47, 4474
(1993))

    rho = S(zeta) D(a) rho_th D(a)^dag S(zeta)^dag,
    a = eta0 e^{-gamma0 t/2},  beta_tilde = N_th (1 - e^{-gamma0 t}),

with rho_th thermal of mean occupation beta_tilde: a Gaussian state, whose
Fock rows follow one from another by the Gaussian Fock recurrence (Miatto &
Quesada, Quantum 4, 366 (2020)) in O(cutoff) memory at every temperature.
At beta_tilde = 0 (every T = 0 point) it is the squeezed coherent ket
S(zeta) D(a)|0>.

The master equation and the mixture live in the interaction picture; the
free evolution reappears only as the e^{-i omega (m-n) t} factor in the
phase distribution.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .bath_kernels import DissipativeBathSpec
from .distribution import ket_autocorrelation
from .errors import TruncationError, check_time
from .special_functions import (
    gaussian_recurrence,
    gaussian_rows,
    log_factorial,
    squeeze_tail_pad,
    squeezed_coherent_ket,
)


def oscillator_spec(
    omega: float, gamma0: float, r: float, Phi: float, T: float
) -> DissipativeBathSpec:
    """The bath of a dissipative oscillator, zeta = r e^{i Phi}; its damping
    gamma0 must be positive."""
    if gamma0 <= 0:
        raise ValueError(f"gamma0 = {gamma0} must be positive")
    return DissipativeBathSpec(omega, gamma0, r, Phi, T)


class GscsMixture(NamedTuple):
    """The state at a fixed time: mixing strength beta_tilde, displacement a
    and frame squeeze zeta of the module docstring."""

    beta_tilde: float
    a: complex
    zeta: complex


def mixture_params(spec: DissipativeBathSpec, t: float, eta0: complex) -> GscsMixture:
    """beta_tilde = N_th (1 - e^{-gamma0 t}), exactly 0 at T = 0, and
    a = eta0 e^{-gamma0 t / 2}."""
    check_time(t)
    g0 = spec.gamma0
    return GscsMixture(
        beta_tilde=spec.N_th * -math.expm1(-g0 * t),
        a=eta0 * math.exp(-g0 * t / 2.0),
        zeta=spec.r * complex(math.cos(spec.Phi), math.sin(spec.Phi)),
    )


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


# The largest trace deficit of the truncated state that a point accepts, and
# the largest disagreement of P between the two cutoffs.
TRACE_TOL = 1e-5
AGREEMENT_TOL = 1e-8


def _check_trace(trace: float, cutoff: int, trace_tol: float) -> None:
    if abs(trace - 1.0) > trace_tol:
        raise TruncationError(
            f"assembled trace {trace:.10f} misses 1 by more than {trace_tol:.1e}; "
            f"raise the Fock cutoff (--cutoff, currently {cutoff})"
        )


def _density_rows(mix: GscsMixture, cutoff: int):
    """Yield the rows rho[m, :cutoff], m < cutoff, of the Gaussian state in
    the module docstring: the gaussian_rows of

        rho[m+1, n] = (b rho[m, n] + A00 sqrt(m) rho[m-1, n]
                       + A01 sqrt(n) rho[m, n-1]) / sqrt(m+1)

    from row 0, which is the Gaussian ket recurrence (gaussian_recurrence)
    rho[0, n+1] = (b* rho[0, n] + A00* sqrt(n) rho[0, n-1]) / sqrt(n+1),
    rho[0, 0] = C.  With M = [[cosh r, -e^{i Phi} sinh r],
    [-e^{-i Phi} sinh r, cosh r]], sigma = (beta + 1/2) M M^dag + I/2 and
    mu = M (a, a*)^T, A = X (I - sigma^-1)* (X swaps the indices),
    (b, b*) = sigma^-1 mu and C = exp(-mu^dag sigma^-1 mu / 2) / sqrt(det).
    Written out (beta = beta_tilde): det = (1 + beta)^2 cosh^2 r
    - beta^2 sinh^2 r, A01 = beta (1 + beta) / det, A00 = -(2 beta + 1)
    e^{i Phi} cosh r sinh r / det, b = ((1 + beta) a cosh r + beta a*
    e^{i Phi} sinh r) / det, and C's exponent, -[((1 + beta) cosh^2 r
    - beta sinh^2 r) |a|^2 - cosh r sinh r Re(a^2 e^{-i Phi})] / det, does
    not cancel at large |a|.  The first k rows and columns are the k-level
    state.  No |rho_mn| of a density matrix exceeds 1, but far past the
    state the recurrence grows: a row past 1 is a TruncationError, raised
    before the next row is formed.
    """
    beta, a = mix.beta_tilde, mix.a
    r, rot = abs(mix.zeta), cmath.exp(1j * cmath.phase(mix.zeta))
    ch, sh = math.cosh(r), math.sinh(r)
    det = (1.0 + beta) ** 2 * ch * ch - beta * beta * sh * sh
    a00 = -(2.0 * beta + 1.0) * rot * ch * sh / det
    b = ((1.0 + beta) * a * ch + beta * a.conjugate() * rot * sh) / det
    exponent = ((1.0 + beta) * ch * ch - beta * sh * sh) * abs(a) ** 2
    exponent -= ch * sh * (a * a / rot).real
    start = math.exp(-exponent / det) / math.sqrt(det)
    row0 = gaussian_recurrence(start, b.conjugate(), a00.conjugate(), cutoff)
    for m, row in enumerate(gaussian_rows(row0, b, a00, beta * (1.0 + beta) / det)):
        peak = float(np.max(np.abs(row)))
        if not peak <= 1.0:  # also rejects NaN
            raise TruncationError(
                f"density-matrix row {m} reaches |rho_mn| = {peak:.3g} > 1, past the "
                f"Fock levels the state occupies; lower the Fock cutoff "
                f"(--cutoff, currently {cutoff})"
            )
        yield row


def fock_density_from_gscs(
    mix: GscsMixture, cutoff: int, trace_tol: float = TRACE_TOL
) -> np.ndarray:
    """Interaction-picture Fock density matrix on `cutoff` levels, the rows
    of _density_rows stacked; the free e^{-i omega (m-n) t} phases are
    applied only when forming the phase distribution, never here."""
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    rho = np.array(list(_density_rows(mix, cutoff)))
    _check_trace(float(np.trace(rho).real), cutoff, trace_tol)
    return rho


def default_dissipative_cutoff(mix: GscsMixture, eta0: complex) -> int:
    """Fock cutoff heuristic.

    Squeezed coherences die only geometrically, roughly as
    tanh(r1)^(cutoff/2), so the squeeze term targets a 1e-10 tail; the
    displaced-thermal occupation adds a plain pad on top.
    """
    mean_frame = mix.beta_tilde + abs(eta0) ** 2
    pad = 10.0 * (mean_frame + 1.0) + squeeze_tail_pad(abs(mix.zeta))
    return max(40, int(math.ceil(pad + 20.0)))


def phase_dist_osc_dissipative(
    spec: DissipativeBathSpec,
    eta0: complex,
    t: float,
    cutoff: int | None = None,
) -> np.ndarray:
    """Phase distribution of the dissipative oscillator at time t.

    Its coefficients, d = 1 - cutoff..cutoff - 1, are the diagonal sums
    c_d = sum_m rho_S[m, m+d] / 2pi of rho_S[m, n] = rho[m, n]
    e^{-i omega (m - n) t}, in O(cutoff) memory.
    Both branches form the interaction-picture sums sum_m rho[m, m+d]: at
    beta_tilde = 0 the autocorrelation of the bare ket, otherwise the rows
    of _density_rows added in as they come.  They are taken at the cutoff
    and, from the first rows and columns, at a check cutoff always 8 levels
    lower, so a cutoff of 8 or less is refused.  The audit is one trace
    check at the cutoff (deficit at most TRACE_TOL) and one comparison of
    the two cutoffs' sums, sum_d |c_d - c'_d| >= sup_phi |P - P'| at most
    AGREEMENT_TOL (the shorter array zero-padded); the free rotation
    e^{i omega t d} has modulus 1, so the comparison is taken before it,
    and it is applied once, to the accepted sums.  A failure is a
    TruncationError that names the cutoff.
    """
    mix = mixture_params(spec, t, eta0)
    if cutoff is None:
        cutoff = default_dissipative_cutoff(mix, eta0)
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    check = cutoff - 8
    if check < 1:
        raise TruncationError(
            f"a Fock cutoff of {cutoff} leaves no check cutoff 8 levels lower; "
            f"raise the Fock cutoff above 8 (--cutoff, currently {cutoff})"
        )
    if mix.beta_tilde == 0.0:
        r, angle = abs(mix.zeta), math.atan2(mix.zeta.imag, mix.zeta.real)
        ket = squeezed_coherent_ket(r, angle, mix.a, cutoff)
        full, short = ket_autocorrelation(ket), ket_autocorrelation(ket[:check])
    else:
        full = np.zeros(2 * cutoff - 1, dtype=complex)
        short = np.zeros(2 * check - 1, dtype=complex)
        for m, row in enumerate(_density_rows(mix, cutoff)):
            full[cutoff - 1 - m : 2 * cutoff - 1 - m] += row
            if m < check:
                short[check - 1 - m : 2 * check - 1 - m] += row[:check]
    _check_trace(float(full[cutoff - 1].real), cutoff, TRACE_TOL)  # the d = 0 sum
    dev = float(np.sum(np.abs(full - np.pad(short, 8)))) / (2.0 * math.pi)
    if dev > AGREEMENT_TOL:
        raise TruncationError(
            f"two-cutoff disagreement {dev:.3e} at cutoffs {(cutoff, check)}; "
            f"raise the Fock cutoff (--cutoff, currently {cutoff})"
        )
    free = np.exp(1j * spec.omega * t * np.arange(1 - cutoff, cutoff))
    return full * free / (2.0 * math.pi)

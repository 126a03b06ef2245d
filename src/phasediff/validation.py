"""Self-check suite: the routes the commands run against brute-force oracles.

Every check reports (name, tolerance, deviation, passed) and its margin,
deviation / tolerance.  The oracles are deliberately redundant
implementations: the exact exponential of the qubit's master-equation
generator, adaptive integration of the oscillator's master equation (in
real arithmetic at the mixture check's real points), polar and frequency
quadrature (one node set for all the baths of a kernel time), the dense
dephasing propagator on a whole density matrix (_dephasing_factor), and
the squeeze operator's exact exponential applied to the vectors a check
needs, from one half-size real SVD (numpy `svd`) per parity block.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bath_kernels import QndBathSpec, gamma_qnd
from .dissipative_oscillator import (
    fock_density_from_gscs,
    mixture_params,
    oscillator_spec,
    phase_dist_osc_dissipative,
)
from .dissipative_qubit import propagate_qubit, qubit_spec
from .distribution import phase_grid, samples
from .figures import SCENARIOS, _kernels, run_figure
from .oracle import (
    gamma_by_quadrature,
    integrate_lindblad_oscillator,
    integrate_lindblad_qubit,
    phase_dist_by_quadrature,
)
from .phase_stats import dispersion, integrate_distribution
from .qnd_phase import (
    AtomicCoherentParams,
    AtomicSqueezedParams,
    _dephasing_factor,
    atomic_coherent_density,
    atomic_squeezed_density,
    phase_dist_atomic_squeezed,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
    phase_distribution_atomic,
    qnd_evolve,
)
from .special_functions import squeeze_matrix, wigner_d_half_pi


class CheckResult(NamedTuple):
    name: str
    tolerance: float
    deviation: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    @property
    def margin(self) -> float:
        """deviation / tolerance: the share of its budget a check uses."""
        return self.deviation / self.tolerance


def _check_wigner_d_orthogonality() -> CheckResult:
    tj = 10
    ms = range(-tj, tj + 1, 2)
    d = np.array([[wigner_d_half_pi(tj, tn, tp) for tp in ms] for tn in ms])
    dev = float(np.max(np.abs(d.T @ d - np.eye(len(ms)))))
    return CheckResult("wigner-d rotation matrix orthogonality (j=5)", 1e-12, dev)


def _squeeze_exponential(levels: int, r1: float, phi: float, x: np.ndarray) -> np.ndarray:
    """S(zeta) @ x on `levels` Fock states, zeta = r1 e^{i phi}, S the exact
    exponential of (zeta* a^2 - zeta a^dag^2)/2, which couples only levels of
    equal parity.  On the parity-b block, level n = 2j + b, the generator is
    P (i r1 X) P^-1 with P = diag(e^{i j (phi + pi/2)}) and X the real
    symmetric tridiagonal block of (a^2 + a^dag^2)/2, off-diagonals
    sqrt((n + 1)(n + 2))/2 and a zero diagonal.  X joins only even j to odd
    j, so in the order (even j, odd j) it is [[0, B], [B^T, 0]], B
    bidiagonal, and with the thin SVD B = U diag(s) V^T and sin and cos
    taken of diag(r1 s)
    e^{i r1 X} = I + [[U (cos - 1) U^T, i U sin V^T], [i V sin U^T, V (cos - 1) V^T]],
    with cos - 1 formed as -2 sin^2(r1 s / 2), which does not cancel.  So
    S x = P e^{i r1 X} P^-1 x from one half-size real SVD per block,
    unitary to rounding; neither the exponential nor a complex generator is
    formed."""
    out = np.empty(x.shape, dtype=complex)
    for b in (0, 1):
        m = len(range(b, levels, 2))
        k = np.arange(m - 1)  # X[k, k + 1] joins j = k and k + 1, one of them even
        big_b = np.zeros(((m + 1) // 2, m // 2))
        big_b[(k + 1) // 2, k // 2] = 0.5 * np.sqrt((2 * k + b + 1.0) * (2 * k + b + 2.0))
        u, sv, vt = np.linalg.svd(big_b, full_matrices=False)
        column = (-1,) + (1,) * (x.ndim - 1)
        sin_rs = np.sin(r1 * sv).reshape(column)
        cos_rs_less_1 = -2.0 * np.sin(0.5 * r1 * sv).reshape(column) ** 2
        p = np.exp(1j * (phi + 0.5 * math.pi) * np.arange(m).reshape(column))
        y = x[b::2] / p
        ue, vo = u.T @ y[0::2], vt @ y[1::2]
        y[0::2] += u @ (cos_rs_less_1 * ue + 1j * sin_rs * vo)
        y[1::2] += vt.T @ (1j * sin_rs * ue + cos_rs_less_1 * vo)
        out[b::2] = p * y
    return out


def _check_squeeze_vs_expm() -> CheckResult:
    r1, phi, window = 0.5, 0.7, 12
    oracle = _squeeze_exponential(140, r1, phi, np.eye(140, window))[:window]
    g = squeeze_matrix(window, r1, phi)
    dev = float(np.max(np.abs(g - oracle)))
    return CheckResult("squeeze matrix element vs matrix exponential", 1e-10, dev)


def _check_gamma_kernel() -> CheckResult:
    # 12 baths, T in {0, 100} with (r, a) in {(0, 0), (1, 0), (1, 0.05)},
    # each at two t: one quadrature per (t, a) takes every bath of that a
    temps = np.array([0.0, 100.0])
    worst = 0.0
    for r, a in ((np.array([[0.0], [1.0]]), 0.0), (1.0, 0.05)):
        spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=r, a=a, T=temps)
        for t in (0.2, 1.0):
            exact = gamma_qnd(t, spec)
            quad = gamma_by_quadrature(t, spec)
            rel = np.abs(exact - quad) / np.maximum(1e-30, np.abs(exact))
            worst = max(worst, float(np.max(rel)))
    return CheckResult("dephasing kernel closed form vs quadrature", 1e-6, worst)


def _check_qubit_propagator() -> CheckResult:
    rho0 = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)
    worst = 0.0
    for r, T, g0, t in (
        (0.0, 0.0, 0.25, 1.5),
        (1.0, 0.0, 0.25, 0.7),
        (2.0, 300.0, 0.25, 0.3),
        (0.5, 100.0, 0.0025, 5.0),
    ):
        spec = qubit_spec(1.0, g0, r, math.pi / 8, T)
        closed = propagate_qubit(rho0, spec, t)
        oracle = integrate_lindblad_qubit(rho0, spec, t)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    return CheckResult("qubit propagator closed form vs generator exponential", 1e-8, worst)


def _check_oscillator_mixture() -> CheckResult:
    cutoff = 60
    worst = 0.0
    for r, T, eta0, t in ((1.0, 0.0, 1.0, 0.5), (0.0, 1.0, 1.0, 0.8)):
        spec = oscillator_spec(1.0, 0.25, r, 0.0, T)
        mix0 = mixture_params(spec, 0.0, eta0)
        rho0 = fock_density_from_gscs(mix0, cutoff, trace_tol=1e-4)
        oracle = integrate_lindblad_oscillator(rho0, spec, t, cutoff, leakage_tol=1e-5)
        mix = mixture_params(spec, t, eta0)
        closed = fock_density_from_gscs(mix, cutoff, trace_tol=1e-4)
        dev = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(closed - oracle))))
        worst = max(worst, dev)
    return CheckResult("oscillator mixture state vs integration (trace distance)", 1e-4, worst)


def _check_atomic_closed_form() -> CheckResult:
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    rho = qnd_evolve(atomic_coherent_density(state, 0.5), 1.0, 0.3, 0.0, 0.02)
    machinery = samples(phase_distribution_atomic(rho), 180)
    closed = samples(phase_dist_coherent_halfspin(state, 1.0, 0.3, 0.02), 180)
    dev = float(np.max(np.abs(machinery - closed)))
    return CheckResult("single-atom closed form vs Beta machinery", 1e-13, dev)


def _check_atomic_quadrature() -> CheckResult:
    # fig1's route against the polar quadrature of the dense dephased state
    p = SCENARIOS["fig1"].defaults
    state = AtomicSqueezedParams(p["j"], p["p"], p["Theta"])
    route = samples(phase_dist_atomic_squeezed(state, p["omega"], 0.1, 0.001, 0.005), 90)
    rho_t = qnd_evolve(atomic_squeezed_density(state), p["omega"], 0.1, 0.001, 0.005)
    quad = samples(phase_dist_by_quadrature(rho_t, 90), 90)
    dev = float(np.max(np.abs(route - quad)))
    return CheckResult("ten-atom distribution vs polar quadrature", 2e-13, dev)


def _squeezed_coherent(levels: int, r1: float, phi: float, alpha) -> np.ndarray:
    """S(zeta) D(alpha)|0> on `levels` Fock states, zeta = r1 e^{i phi}: the
    Poisson vector e^{-|alpha|^2/2} alpha^n / sqrt(n!), alpha != 0, squeezed
    by the exact exponential."""
    n, mag = np.arange(levels), abs(alpha)
    log_n_fact = np.array([math.lgamma(k + 1.0) for k in range(levels)])
    coherent = np.exp(-mag * mag / 2.0 + n * math.log(mag) - 0.5 * log_n_fact) * (alpha / mag) ** n
    return _squeeze_exponential(levels, r1, phi, coherent)


def _check_qnd_oscillator() -> CheckResult:
    # fig8's start in the baths (r, T) = (1, 100) and (0, 0), against one dense
    # dephased state per bath, rho = psi psi^dag * _dephasing_factor at levels
    # n + 1/2, psi the exact squeeze exponential on 160 levels cut to 80, and
    # P(phi_l) = (e rho e^dag)_ll / 2pi with e_ln = e^{-i n phi_l}
    p = SCENARIOS["fig8"].defaults
    eta_t, gammas = _kernels({**p, "r": np.array([1.0, 0.0]), "T": np.array([100.0, 0.0])})
    alpha_mag = math.sqrt(p["alpha_sq"])
    route = phase_dist_osc_squeezed(
        p["r1"], p["psi"], alpha_mag, p["theta0"], p["omega"], p["t"], eta_t, gammas
    )
    psi = _squeezed_coherent(160, p["r1"], p["psi"], alpha_mag * np.exp(1j * p["theta0"]))[:80]
    pure, levels = np.outer(psi, psi.conj()), np.arange(80) + 0.5
    e = np.exp(-1j * np.outer(phase_grid(90), np.arange(80)))
    rho = pure * _dephasing_factor(levels, p["omega"], p["t"], eta_t, gammas[:, None, None])
    oracle = np.sum((e @ rho) * e.conj(), axis=-1).real / (2.0 * math.pi)
    dev = float(np.max(np.abs([samples(row, 90) for row in route] - oracle)))
    return CheckResult("QND oscillator vs dense dephased density matrix", 5e-10, dev)


def _check_dissipative_phase_dist() -> CheckResult:
    # large displacement at T = 0, where the state is S(zeta) D(a)|0>
    # with a = eta0 e^{-gamma0 t / 2}: a Poisson coherent vector
    # squeezed by the exact exponential, and
    # P(theta_l) = |sum_n psi_n e^{-i n (omega t + theta_l)}|^2 / 2pi as one
    # FFT, exact because the grid is longer than the cutoff
    r, phi, eta0, t, cutoff, grid = 0.5, 0.3, math.sqrt(50.0), 0.1, 250, 360
    spec = oscillator_spec(1.0, 0.025, r, phi, 0.0)
    closed = samples(phase_dist_osc_dissipative(spec, eta0, t, cutoff), grid)
    psi = _squeezed_coherent(cutoff, r, phi, eta0 * math.exp(-spec.gamma0 * t / 2.0))
    amp = np.fft.fft(psi * np.exp(-1j * spec.omega * t * np.arange(cutoff)), grid)
    oracle = np.abs(amp) ** 2 / (2.0 * math.pi)
    dev = float(np.max(np.abs(closed - oracle)))
    return CheckResult(
        "dissipative oscillator vs exact squeeze exponential (eta0^2=50)", 1e-10, dev
    )


def _check_normalization() -> CheckResult:
    worst = 0.0
    for name in ("fig1", "fig2", "fig4"):
        fd = run_figure(name, grid=360)
        for _label, p in fd.distributions:
            worst = max(worst, abs(integrate_distribution(p) - 1.0))
    return CheckResult("normalization of scenario distributions", 1e-10, worst)


def _check_dispersion_basics() -> CheckResult:
    dev = abs(dispersion(np.array([1.0 / (2.0 * math.pi)])) - 1.0)
    return CheckResult("dispersion of the uniform distribution", 1e-12, dev)


QUICK_CHECKS = (
    _check_wigner_d_orthogonality,
    _check_gamma_kernel,
    _check_qubit_propagator,
    _check_atomic_closed_form,
    _check_dispersion_basics,
)
FULL_EXTRA_CHECKS = (
    _check_squeeze_vs_expm,
    _check_oscillator_mixture,
    _check_atomic_quadrature,
    _check_qnd_oscillator,
    _check_dissipative_phase_dist,
    _check_normalization,
)


def run_validation(quick: bool = False) -> list[CheckResult]:
    checks = QUICK_CHECKS if quick else QUICK_CHECKS + FULL_EXTRA_CHECKS
    return [check() for check in checks]

"""Independent brute-force oracles used by tests and the validate command.

Nothing here shares matrix assembly with the closed forms it checks: the
master equations are integrated from their right-hand sides with hand-rolled
Runge-Kutta steppers, the atomic phase distribution is obtained by adaptive
polar quadrature, and the dephasing kernel by direct frequency quadrature of
its defining integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec, simpson

from .bath_kernels import HighTemperature, QndBathSpec, ZeroTemperature
from .dissipative_qubit import QubitLindbladSpec
from .dissipative_oscillator import OscillatorLindbladSpec
from .distribution import DEFAULT_GRID_SIZE, PhaseDistribution, phase_grid
from .errors import DomainError, TruncationError
from .qnd_phase import DickeDensityMatrix
from .special_functions import log_binomial


@dataclass(frozen=True)
class OdeConfig:
    method: str = "adaptive"  # "adaptive" or "rk4"
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_step: float = math.inf  # step size for the fixed-step method

    def __post_init__(self):
        if self.method not in ("adaptive", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_ODE = OdeConfig()


def rk4_fixed(f, y0: np.ndarray, t0: float, t1: float, h: float) -> np.ndarray:
    """Classical fixed-step 4th-order Runge-Kutta."""
    if h <= 0:
        raise ValueError("step size must be positive")
    n_steps = max(1, int(math.ceil((t1 - t0) / h)))
    h = (t1 - t0) / n_steps
    y, t = y0.astype(complex), t0
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def dormand_prince(f, y0, t0, t1, rel_tol, abs_tol, max_step=math.inf):
    """Adaptive embedded 5(4) integration with standard step control."""
    y, t = y0.astype(complex), t0
    h = min(max_step, (t1 - t0) / 10.0)
    k1 = f(t, y)
    while t < t1:
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise RuntimeError("step size underflow in adaptive integrator")
        ks = [k1]
        for i in range(1, 7):
            yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(f(t + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = math.sqrt(float(np.mean((np.abs(y5 - y4) / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y5
            k1 = ks[6]  # FSAL
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h = min(max_step, h * min(5.0, max(0.2, factor)))
    return y


def _integrate(f, y0, t, config: OdeConfig):
    if t == 0:
        return y0.astype(complex)
    if config.method == "rk4":
        h = config.max_step if math.isfinite(config.max_step) else t / 200.0
        return rk4_fixed(f, y0, 0.0, t, h)
    return dormand_prince(f, y0, 0.0, t, config.rel_tol, config.abs_tol, config.max_step)


def integrate_lindblad_qubit(
    rho0: np.ndarray, spec: QubitLindbladSpec, t: float, config: OdeConfig = DEFAULT_ODE
) -> np.ndarray:
    """Direct integration of the qubit master equation, all terms included."""
    sz = np.diag([-1.0 + 0.0j, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sm = sp.T.copy()
    g0, w = spec.gamma0, spec.omega
    big_n, big_m = spec.moments.N, spec.moments.M

    def rhs(_t, y):
        rho = y.reshape(2, 2)
        d = -1j * (w / 2.0) * (sz @ rho - rho @ sz)
        d += g0 * (big_n + 1) * (sm @ rho @ sp - 0.5 * (sp @ sm @ rho + rho @ sp @ sm))
        d += g0 * big_n * (sp @ rho @ sm - 0.5 * (sm @ sp @ rho + rho @ sm @ sp))
        d -= g0 * big_m * (sp @ rho @ sp) + g0 * big_m.conjugate() * (sm @ rho @ sm)
        return d.ravel()

    return _integrate(rhs, np.asarray(rho0, dtype=complex).ravel(), t, config).reshape(2, 2)


def integrate_lindblad_oscillator(
    rho0: np.ndarray,
    spec: OscillatorLindbladSpec,
    t: float,
    cutoff: int,
    config: OdeConfig = DEFAULT_ODE,
    leakage_tol: float = 1e-8,
) -> np.ndarray:
    """Direct integration of the oscillator master equation (interaction
    picture) on a truncated Fock space, with a boundary-leakage monitor."""
    a = np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)
    ad = a.conj().T
    g0 = spec.gamma0
    big_n, big_m = spec.moments.N, spec.moments.M
    num = ad @ a

    def rhs(_t, y):
        rho = y.reshape(cutoff, cutoff)
        d = g0 * (big_n + 1) * (a @ rho @ ad - 0.5 * (num @ rho + rho @ num))
        d += g0 * big_n * (ad @ rho @ a - 0.5 * (a @ ad @ rho + rho @ a @ ad))
        d += g0 * big_m * (ad @ rho @ ad - 0.5 * (ad @ ad @ rho + rho @ ad @ ad))
        d += g0 * big_m.conjugate() * (a @ rho @ a - 0.5 * (a @ a @ rho + rho @ a @ a))
        return d.ravel()

    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (cutoff, cutoff):
        raise ValueError(f"rho0 shape {rho0.shape} does not match cutoff {cutoff}")
    out = _integrate(rhs, rho0.ravel(), t, config).reshape(cutoff, cutoff)
    boundary = float(out[-1, -1].real)
    if abs(boundary) > leakage_tol:
        raise TruncationError(
            f"population {boundary:.3e} at the Fock boundary exceeds {leakage_tol:.1e}"
        )
    return out


def phase_dist_by_quadrature(
    rho: DickeDensityMatrix, grid: int = DEFAULT_GRID_SIZE
) -> PhaseDistribution:
    """Atomic phase distribution by adaptive polar quadrature of the
    Q-function angle marginal (independent of the Beta closed form)."""
    phi = phase_grid(grid)
    j = rho.j
    tj = j.twice_value
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    k_idx = np.arange(tj + 1)
    phase = np.exp(-1j * np.outer(k_idx, phi))  # e^{-i(j+m) phi} per amplitude

    def integrand(theta):
        mags = half_binom * np.sin(theta / 2.0) ** k_idx * np.cos(theta / 2.0) ** (tj - k_idx)
        c = mags[:, None] * phase  # amplitudes <j,m|theta,phi>
        q = np.einsum("nm,nf,mf->f", rho.elements, c.conj(), c).real
        return math.sin(theta) * q

    integral, _err = quad_vec(integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-11)
    values = (tj + 1) / (4.0 * math.pi) * integral
    return PhaseDistribution(values)


def gamma_by_quadrature(t: float, spec: QndBathSpec) -> float:
    """Dephasing kernel gamma(t) by direct frequency quadrature of its
    defining Ohmic-continuum integral, with coth -> 1 at T = 0 and
    coth -> 2T/omega in the high-temperature regime."""
    if spec.a > 0 and t <= 2 * spec.a:
        raise DomainError(f"gamma(t) undefined for t = {t} <= 2a")
    g0, wc, r, a = spec.gamma0, spec.omega_c, spec.r, spec.a
    if t == 0:
        return 0.0
    width = 20.0 * wc
    f_max = 2.0 * (abs(t) + 2.0 * a) + 1.0
    h = min(0.02, 2.0 * math.pi / (80.0 * f_max))
    n = int(math.ceil(width / h))
    n += n % 2  # even interval count for Simpson
    w = np.linspace(0.0, width, n + 1)
    wz = w.copy()
    wz[0] = 1.0  # placeholder; the omega -> 0 limit is patched below
    bracket = (np.exp(1j * wz * t) - 1.0) * math.cosh(r) + (
        np.exp(-1j * wz * t) - 1.0
    ) * math.sinh(r) * np.exp(2j * a * wz)
    mod2 = np.abs(bracket) ** 2
    if isinstance(spec.regime, ZeroTemperature):
        f = (g0 / (2.0 * math.pi)) * np.exp(-wz / wc) * mod2 / wz
        f[0] = 0.0
    elif isinstance(spec.regime, HighTemperature):
        temp = spec.regime.T
        f = (g0 / (2.0 * math.pi)) * (2.0 * temp / wz**2) * np.exp(-wz / wc) * mod2
        f[0] = (g0 / math.pi) * temp * t**2 * math.exp(-2.0 * r)
    else:
        raise TypeError(f"unknown regime {spec.regime!r}")
    return float(simpson(f, x=w))

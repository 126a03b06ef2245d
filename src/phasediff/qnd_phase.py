"""QND (pure dephasing) evolution and phase distributions.

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

The bath's squeezing r, its phase slope a and its temperature T enter the
dephased state only through gamma(t), and eta(t) depends on none of them.
So the propagator splits into a gamma-free part, e^{-i w (m-n) t} e^{i w^2
(m^2-n^2) eta}, and the damping e^{-w^2 gamma (m-n)^2}, which depends only
on the offset d = m - n that harmonic d of P(phi) collects.  Every dephased
distribution therefore follows one rule: its Fourier coefficients are those
of the gamma-free distribution, c0_d, times e^{-w^2 gamma d^2} (_damped).
For the atoms c0_d is one lag of the gamma-free pure state u,
u_m = a_m e^{i(w^2 eta m^2 - w t m)}, weighted by one diagonal of the dipole
weights as phase_distribution_atomic weights a density matrix; for the
oscillator it is the ket autocorrelation over 2 pi.  The closed forms damp
their gamma-free harmonics the same way.

Every distribution here is the array of its coefficients c_{-D}..c_D
(distribution), and one rule serves one P and a group.  gamma_t may be one
gamma(t) or a 1-d array of them: the runs of a sweep that differ only in r,
T and a (figures.evaluate groups them) then share one c0 and are damped by
one broadcast exponential, one row of coefficients per entry.  The atomic
squeezed start's Theta may be a 1-d array as well, one entry per run: its
amplitudes are then one array with a row per distinct Theta, each row
normalized on its own, and c0 one row per distinct Theta, each lag one sum
along the rows, which each run's gamma(t) damps.  c0 is built once per call
and not cached: the group already shares it.  Each builder forms c0 only to
the degree its caller reads, and _damped damps all that it is given: a
dispersion passes degree = 1, so the atoms form only the lags d = 0, 1 in
O(j) time, instead of all 2j + 1 in O(j^2), and the oscillator asks
ket_autocorrelation for only its three central lags, in O(cutoff) time,
instead of the full O(cutoff^2) autocorrelation.  Three parts of an
initial state are cached, since runs in different groups and calls reuse
them: the atoms' Wigner-d row (_wigner_row) and dipole weights
(_dipole_weights), built once per (j, p), and the squeezed coherent ket
(special_functions.squeezed_coherent_ket), built once for all points of a
QND oscillator t or omega sweep.  Each is a bounded lru_cache of 8 entries
whose arrays are read-only.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .distribution import (
    distribution_from_fourier,
    distribution_from_harmonics,
    ket_autocorrelation,
)
from .errors import MAX_TWICE_J, TruncationError, twice_spin
from .special_functions import (
    beta_integral,
    log_binomial,
    squeeze_tail_pad,
    squeezed_coherent_ket,
    wigner_d_half_pi,
)


class _AtomicCoherentFields(NamedTuple):
    alpha_p: float
    beta_p: float


class AtomicCoherentParams(_AtomicCoherentFields):
    """Atomic coherent state angles: polar alpha_p in [0, pi], azimuth
    beta_p in [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, alpha_p, beta_p):
        if not 0.0 <= alpha_p <= math.pi:
            raise ValueError(f"alpha_p = {alpha_p} outside [0, pi]")
        if not 0.0 <= beta_p < 2.0 * math.pi:
            raise ValueError(f"beta_p = {beta_p} outside [0, 2pi)")
        return super().__new__(cls, alpha_p, beta_p)


class _AtomicSqueezedFields(NamedTuple):
    j: float
    p: float
    Theta: float
    tj: int
    tp: int


class AtomicSqueezedParams(_AtomicSqueezedFields):
    """Atomic squeezed state labels (j, p) and squeeze exponent Theta.

    Theta = (1/2) ln tanh(2 zeta) for squeezing strength zeta > 0.  The
    labels are checked once, here, and kept exact as tj = 2j and tp = 2p.
    Theta may be a 1-d numpy array, one state per entry, each entry checked.
    """

    __slots__ = ()

    def __new__(cls, j, p, Theta):
        tj = twice_spin("j", j)
        tp = twice_spin("p", p, tj)
        thetas = Theta.tolist() if isinstance(Theta, np.ndarray) else (Theta,)
        if not all(map(math.isfinite, thetas)):
            raise ValueError("Theta must be finite")
        return super().__new__(cls, j, p, Theta, tj, tp)

    def __getnewargs__(self):
        return self[:3]  # copy and pickle rebuild from the three inputs

    @classmethod
    def from_zeta(cls, j, p, zeta) -> "AtomicSqueezedParams":
        """The state of squeezing strength zeta; a numpy array of zeta gives
        the array of their Theta, taken entry by entry."""
        if isinstance(zeta, np.ndarray):
            return cls(j, p, np.array([_theta_of_zeta(z) for z in zeta.tolist()]))
        return cls(j, p, _theta_of_zeta(zeta))


def _theta_of_zeta(zeta: float) -> float:
    if zeta <= 0:
        raise ValueError(f"zeta = {zeta} must be positive")
    return 0.5 * math.log(math.tanh(2 * zeta))


def atomic_coherent_amplitudes(params: AtomicCoherentParams, j) -> np.ndarray:
    """Dicke-basis amplitudes of |alpha_p, beta_p>, index m ascending."""
    tj = twice_spin("j", j)
    s, c = math.sin(params.alpha_p / 2.0), math.cos(params.alpha_p / 2.0)
    amps = np.empty(tj + 1, dtype=complex)
    for k in range(tj + 1):  # k = j + m
        mag = math.exp(0.5 * log_binomial(tj, k)) * s**k * c ** (tj - k)
        amps[k] = mag * complex(math.cos(k * params.beta_p), -math.sin(k * params.beta_p))
    return amps


def atomic_coherent_density(params: AtomicCoherentParams, j) -> np.ndarray:
    """Dicke-basis density matrix of |alpha_p, beta_p>, m ascending."""
    amps = atomic_coherent_amplitudes(params, j)
    return np.outer(amps, amps.conj())


@functools.lru_cache(maxsize=8)
def _wigner_row(tj: int, tp: int) -> np.ndarray:
    """d^j_{n,p}(pi/2) for n = -j..j, tj = 2j, tp = 2p; cached and read-only."""
    row = np.array([wigner_d_half_pi(tj, tn, tp) for tn in range(-tj, tj + 1, 2)])
    row.setflags(write=False)
    return row


def atomic_squeezed_amplitudes(params: AtomicSqueezedParams) -> np.ndarray:
    """Amplitudes a_n = A_p e^{n Theta} d^j_{n,p}(pi/2), normalized; an
    array of Theta gives one row per entry, each normalized on its own."""
    tj, thetas = params.tj, np.ravel(params.Theta).tolist()
    try:
        # e^{n Theta} by math.exp, entry by entry: numpy's exp may round otherwise
        exps = [[math.exp(tn / 2.0 * theta) for tn in range(-tj, tj + 1, 2)] for theta in thetas]
        amps = np.array(exps).reshape(np.shape(params.Theta) + (tj + 1,))
        amps *= _wigner_row(tj, params.tp)
        with np.errstate(over="raise"):
            return amps / np.sqrt(np.sum(amps**2, axis=-1, keepdims=True))
    except (OverflowError, FloatingPointError):  # e^{n Theta}, a_n^2 or their sum
        raise ValueError(
            f"Theta = {params.Theta} with j = {tj / 2:g}: the squeezed amplitudes "
            "e^{n Theta} d^j_{n,p}(pi/2) overflow a double; lower |Theta| or j"
        ) from None


def atomic_squeezed_density(params: AtomicSqueezedParams) -> np.ndarray:
    """Dicke-basis density matrix of the atomic squeezed state, m ascending."""
    amps = atomic_squeezed_amplitudes(params).astype(complex)
    return np.outer(amps, amps.conj())


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


def _dicke_dim(rho: np.ndarray) -> int:
    """2j + 1 of a Dicke-basis density matrix, which must be square and
    nonempty: a (1, n) array would otherwise broadcast against n x n factors."""
    shape = np.shape(rho)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise ValueError(f"Dicke density matrix must be square and nonempty, got shape {shape}")
    return shape[0]


def qnd_evolve(
    rho0: np.ndarray, omega: float, t: float, eta_t: float, gamma_t: float
) -> np.ndarray:
    """Apply the dephasing propagator element-wise to a Dicke-basis density
    matrix, m ascending from -j to j."""
    dim = _dicke_dim(rho0)
    m_values = np.arange(dim) - (dim - 1) / 2.0
    return rho0 * _dephasing_factor(m_values, omega, t, eta_t, gamma_t)


@functools.lru_cache(maxsize=8)
def _dipole_weights(tj: int) -> np.ndarray:
    """Matrix W_{nm} = sqrt(C(2j,j+n) C(2j,j+m)) * 2 B(j+(n+m)/2+1, j-(n+m)/2+1)
    for tj = 2j, the exact polar integral of the Q-function angle marginal;
    cached and read-only."""
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    # the Beta factor depends only on kn + km = n + m + 2j: one value per sum
    beta = np.array(
        [beta_integral(s / 2.0 + 1.0, tj - s / 2.0 + 1.0) for s in range(2 * tj + 1)]
    )
    k = np.arange(tj + 1)
    weights = half_binom[:, None] * half_binom[None, :] * 2.0 * beta[k[:, None] + k[None, :]]
    weights.setflags(write=False)
    return weights


def phase_distribution_atomic(rho: np.ndarray) -> np.ndarray:
    """Angle marginal P(phi) of the atomic Q-function of a Dicke-basis
    density matrix, via the exact Beta-function polar integral."""
    dim = _dicke_dim(rho)
    if dim - 1 > MAX_TWICE_J:
        raise ValueError(
            f"j = {(dim - 1) / 2:g} of a {dim} x {dim} Dicke matrix exceeds "
            f"{MAX_TWICE_J / 2:g}, past which the dipole weights overflow a double"
        )
    weighted = rho * _dipole_weights(dim - 1)
    pref = dim / (4.0 * math.pi)  # (2j+1)/4pi
    # weighted[n, m] multiplies e^{i(n-m)phi}; distribution_from_fourier wants a[m, n]
    return distribution_from_fourier(pref * weighted.T)


def _omega_sq(omega: float) -> float:
    """omega^2, refused by name where a double cannot hold it (a float **
    raises OverflowError where * would give inf)."""
    try:
        return omega**2
    except OverflowError:
        raise ValueError(f"omega = {omega}: omega^2 overflows a double; lower omega") from None


def _gamma_free_phase(levels: np.ndarray, omega: float, t: float, eta_t: float) -> np.ndarray:
    """w^2 eta l^2 - w t l at the ascending levels l, whose last is the
    largest |l|: the gamma-free propagator's phase, refused by name when its
    bound at that level leaves the double range, before numpy could warn."""
    w2, top = _omega_sq(omega), float(levels[-1])
    if not math.isfinite(w2 * abs(eta_t) * top**2 + abs(omega * t) * top):
        raise ValueError(
            f"omega = {omega}: the phase omega^2 eta(t) l^2 - omega t l overflows a double "
            f"at t = {t}, l = {top:g}; lower omega"
        )
    return w2 * eta_t * levels**2 - omega * t * levels


def _damped(c0: np.ndarray, omega: float, gamma_t):
    """The coefficients of the dephased P(phi) whose gamma-free coefficients
    are c0: harmonic d times e^{-w^2 gamma d^2}, the one step every QND
    distribution takes, to the degree of c0, which each builder forms only
    as far as its caller reads.

    gamma_t is one gamma(t) or a 1-d array of them, damped by one broadcast
    exponential, and c0 one row or a 2-d array of rows, one per run: with
    either an array, row k holds the coefficients of P at gamma_t[k], or of
    row k of c0.  An exponent past the double range is refused by name,
    before numpy could warn or make inf * 0 = nan at d = 0."""
    degree = c0.shape[-1] // 2
    w2, gamma = _omega_sq(omega), np.asarray(gamma_t, dtype=float)
    worst = float(gamma.flat[np.argmax(np.abs(gamma))]) if gamma.ndim else float(gamma)
    if not math.isfinite(w2 * abs(worst) * degree**2):
        raise ValueError(
            f"omega = {omega}: the damping omega^2 gamma(t) d^2 overflows a double at "
            f"gamma(t) = {worst}, d = {degree}; lower omega"
        )
    return c0 * np.exp(np.multiply.outer(-w2 * gamma, np.arange(-degree, degree + 1) ** 2))


def phase_dist_atomic_squeezed(
    state: AtomicSqueezedParams, omega: float, t: float, eta_t: float, gamma_t,
    degree: int | None = None,
):
    """P(phi) of a dephased atomic squeezed state: the gamma-free
    coefficients c0, which the bath's r, a and T never reach, to the given
    degree (all 2j by default), damped; an array gamma_t, or an array
    state.Theta, gives one row of coefficients per entry, as in _damped, and
    both arrays are one entry per run.  c0 is built once per distinct
    Theta."""
    if isinstance(state.Theta, np.ndarray):
        thetas, rows = np.unique(state.Theta, return_inverse=True)
        c0 = _gamma_free_atoms(state._replace(Theta=thetas), omega, t, eta_t, degree)[rows]
    else:
        c0 = _gamma_free_atoms(state, omega, t, eta_t, degree)
    return _damped(c0, omega, gamma_t)


def _gamma_free_atoms(
    state: AtomicSqueezedParams, omega: float, t: float, eta_t: float, degree: int | None
):
    """c0 of phase_dist_atomic_squeezed to degree, one row per entry of an
    array Theta.  The state is pure and the gamma-free propagator
    factorizes, so c0 is that of u u^dag, u_m = a_m e^{i(w^2 eta m^2 - w t m)}:
    harmonic d >= 0 is the weighted lag (2j+1)/4pi sum_m W_{m+d,m} u_{m+d} u*_m
    of the dipole weights W, one diagonal of them, and c_{-d} = conj c_d."""
    amps = atomic_squeezed_amplitudes(state)
    dim = amps.shape[-1]
    m = np.arange(dim) - (dim - 1) / 2.0
    u = amps * np.exp(1j * _gamma_free_phase(m, omega, t, eta_t))
    weights, ubar = _dipole_weights(dim - 1), u.conj()
    top = dim - 1 if degree is None else min(degree, dim - 1)
    lags = [(weights.diagonal(-d) * u[..., d:] * ubar[..., : dim - d]).sum(axis=-1)
            for d in range(top + 1)]
    return distribution_from_harmonics(dim / (4.0 * math.pi) * np.stack(lags, axis=-1))


def _coherent_rho10(params: AtomicCoherentParams) -> complex:
    """rho_10 = (1/2) sin(alpha_p) e^{-i beta_p} of the j = 1/2 coherent start."""
    return cmath.rect(0.5 * math.sin(params.alpha_p), -params.beta_p)


def _half_sech(x: float) -> float:
    """1/(2 cosh x), written as e^{-|x|}/(1 + e^{-2|x|}) so that no |x| overflows."""
    e = math.exp(-abs(x))
    return e / (1.0 + e * e)


def _squeezed_rho10(Theta: float, p_sign: float) -> float:
    """rho_10 = +-1/(2 cosh Theta) of the j = 1/2 squeezed start with p = p_sign = +-1/2."""
    if p_sign not in (0.5, -0.5):
        raise ValueError(f"p_sign must be +1/2 or -1/2, got {p_sign}")
    return math.copysign(_half_sech(Theta), p_sign)


def _qubit_distribution(rho10):
    """(c_{-1}, c_0, c_1) of the P(phi) of a two-level atom: the j = 1/2 Beta
    weight leaves h_1 = (pi/4) rho[1, 0].  A list of rho10 gives one row per
    entry."""
    h1 = np.asarray(rho10) * (math.pi / 4.0)
    harmonics = np.empty(h1.shape + (2,), dtype=complex)
    harmonics[..., 0] = 1.0
    harmonics[..., 1] = h1
    return distribution_from_harmonics(harmonics / (2.0 * math.pi))


def phase_dist_coherent_halfspin(
    params: AtomicCoherentParams, omega: float, t: float, gamma_t
):
    """Single-atom closed form for an atomic coherent initial state; only
    gamma(t) enters, and an array of it gives rows as in _damped:

        P(phi) = (1/2pi)[1 + (pi/4) sin(alpha_p) cos(beta_p + omega t - phi)
                         e^{-omega^2 gamma}].
    """
    rho10 = _coherent_rho10(params) * cmath.rect(1.0, -omega * t)
    return _damped(_qubit_distribution(rho10), omega, gamma_t)


def phase_dist_squeezed_halfspin(
    Theta: float, p_sign: float, omega: float, t: float, gamma_t: float
) -> np.ndarray:
    """Single-atom closed form for an atomic squeezed initial state,
    p_sign = +1/2 or -1/2:

        P(phi) = (1/2pi)[1 + sign (pi / 4 cosh Theta) cos(phi - omega t)
                         e^{-omega^2 gamma}].
    """
    rho10 = _squeezed_rho10(Theta, p_sign) * cmath.rect(1.0, -omega * t)
    return _damped(_qubit_distribution(rho10), omega, gamma_t)


def _closed_form(harmonics) -> np.ndarray:
    """P(phi) = (1/2pi)[1 + sum_{d >= 1} 2 Re(h_d e^{i d phi})] for the harmonics
    h_1, h_2, ...: a term a cos(d phi - theta) is h_d = a e^{-i theta} / 2."""
    return distribution_from_harmonics(np.array((1.0, *harmonics)) / (2.0 * math.pi))


def phase_dist_two_atoms(
    Theta: float,
    p: int,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t: float,
) -> np.ndarray:
    """Two-atom (j = 1) closed forms for p in {+1, -1, 0}, with x = phi - omega t:

        p = 0:   P = (1/2pi)[1 - cos(2x) e^{-4 w^2 gamma} / (2 cosh 2Theta)]
        p = +-1: P = (1/2pi)[1 + p (3 pi / 4 s) (cos x cos(w^2 eta) cosh Theta
                     - sin x sin(w^2 eta) sinh Theta) e^{-w^2 gamma}
                     + cos(2x) e^{-4 w^2 gamma} / (2 s)],  s = 1 + cosh 2Theta.

    Unlike the single-atom case these involve eta(t).  Each term is one harmonic, as
    a cos x - b sin x = Re[(a + i b) e^{ix}], times a power of cosh Theta / s = 1/(2 cosh Theta).
    """
    w2 = _omega_sq(omega)
    h2 = cmath.rect(0.5, -2.0 * omega * t)
    if p == 0:
        return _damped(_closed_form((0.0, -h2 * _half_sech(2.0 * Theta))), omega, gamma_t)
    if p not in (1, -1):
        raise ValueError(f"p must be +1, -1 or 0, got {p}")
    hs = _half_sech(Theta)
    ab = complex(math.cos(w2 * eta_t), math.sin(w2 * eta_t) * math.tanh(Theta))
    h1 = float(p) * (3.0 * math.pi / 4.0) * hs * ab * cmath.rect(0.5, -omega * t)
    return _damped(_closed_form((h1, h2 * hs * hs)), omega, gamma_t)


# --- harmonic oscillator under the same dephasing propagator ---


def phase_dist_osc_squeezed(
    r1: float,
    psi: float,
    alpha_mag: float,
    theta0: float,
    omega: float,
    t: float,
    eta_t: float,
    gamma_t,
    cutoff: int | None = None,
    degree: int | None = None,
):
    """Oscillator phase distribution for a squeezed coherent initial state,
    to degree 1 or, at any other degree, None included, in full; an array
    gamma_t gives one row of coefficients per entry, as in _damped.

    The default cutoff covers the mean occupation plus 14 sqrt(mean + 1),
    and at least the levels over which the geometric squeeze tail falls by
    1e-20; the truncated weight must miss 1 by at most 1e-12.

    The dephased state is rho_mn(t) = v_m v_n* g_{m-n} (module docstring),
    so the coefficient of each offset d is g_d c0_d, with the gamma-free
    autocorrelation c0_d = sum_m v_m v_{m+d}* / 2pi of the ket, in O(cutoff)
    memory and with no cutoff x cutoff array; ket_autocorrelation forms
    only d = -1, 0, 1 at degree 1, all 2 cutoff - 1 lags otherwise.
    """
    if r1 < 0:
        raise ValueError(f"r1 = {r1} must be nonnegative")
    if math.tanh(r1) == 1.0:
        raise ValueError(
            f"r1 = {r1}: tanh r1 rounds to 1, so the squeezed Fock tail never decays; "
            "keep r1 below 19"
        )
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
    v = amps * np.exp(1j * _gamma_free_phase(levels, omega, t, eta_t))
    return _damped(ket_autocorrelation(v, degree) / (2.0 * math.pi), omega, gamma_t)

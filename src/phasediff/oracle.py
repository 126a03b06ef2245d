"""Independent brute-force oracles used by tests and the validate command.

Nothing here shares matrix assembly with the closed forms it checks.  Both
master equations start from their right-hand sides: the qubit's 4x4
generator is assembled column by column from its right-hand side and
exponentiated exactly (Taylor series with scaling and squaring), and the
oscillator's is integrated by an adaptive Dormand-Prince 5(4) stepper.  The
oscillator's right-hand side reads the flattened density matrix at nine
offsets, which form a 3 x 3 lattice, with their coefficients read off the
truncated a and a^dag once into one array, so each evaluation is one
contraction of that array with a strided view of shifted windows; the
stepper keeps y and its seven stages as the rows of one array, so each
stage argument is one product with a row of the tableau.  When rho0 and the
bath's M are real the equation keeps rho real, and both run in real
arithmetic.  The atomic phase distribution is obtained by Gauss-Legendre
quadrature over the polar angle, and the dephasing kernel by composite
Gauss-Legendre quadrature of its defining frequency integral: 10 nodes on
each panel, panels two periods of the integrand's fastest oscillation wide
(and no wider than the cutoff omega_c), over [0, 30 omega_c], one node set
for every bath of a (t, a).  The nodes come from the Golub-Welsch
eigenproblem.  The time-dependent oracles refuse a negative or non-finite t.
Only numpy is needed.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bath_kernels import DissipativeBathSpec, QndBathSpec
from .distribution import distribution_from_samples, phase_grid
from .errors import DomainError, TruncationError, check_time
from .special_functions import log_binomial


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


def _dp_stage_matrix() -> np.ndarray:
    """Weights on the rows (y, k1, ..., k7), to be scaled by h.  Row i < 7 is
    stage i + 1's argument less y; the last stage's weights are the
    fifth-order ones, so row 6 is also y5 - y.  Row 7 is y5 - y4."""
    tab = np.zeros((8, 8))
    for i, a in enumerate(_DP_A):
        tab[i, 1 : i + 1] = a
    tab[7, 1:] = np.subtract(_DP_B5, _DP_B4)
    return tab


_DP_STAGES = _dp_stage_matrix()


def _rms(v: np.ndarray, scale: np.ndarray) -> float:
    """The step control's norm: root-mean-square of |v| / scale."""
    q = np.abs(v)
    q /= scale
    return math.sqrt(float(q @ q) / len(q))


def _starting_step(f, t0, y0, f0, span, rel_tol, abs_tol) -> float:
    """The first trial step of an order-5 pair (Hairer, Norsett & Wanner,
    Solving Ordinary Differential Equations I, 2nd ed., II.4): an explicit
    Euler step of size h0 = 0.01 |y0| / |f0| estimates the second derivative,
    and the step is the one whose local error that derivative puts at 0.01,
    at most 100 h0 and at most the span.  Norms are _rms relative to
    abs_tol + rel_tol |y0|; one more evaluation of f."""
    scale = abs_tol + rel_tol * np.abs(y0)
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms(f(t0 + h0, y0 + h0 * f0) - f0, scale) / h0
    big = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if big <= 1e-15 else (0.01 / big) ** 0.2
    return min(100.0 * h0, h1, span)


def dormand_prince(f, y0, t0, t1, rel_tol, abs_tol):
    """Adaptive embedded 5(4) integration of dy/dt = f(t, y), y0 a 1-D array,
    with standard step control.

    y and k1..k7 are the rows of one (8, n) array, so each stage argument is
    one product of a row of the stage matrix (times h, with weight 1 on y)
    with the rows before it.  The seventh stage's argument is y5, whose
    slope is the next step's k1 (FSAL), and the error estimate y5 - y4 is
    one more product.  The array takes y0's floating dtype, so a real
    problem is integrated in real arithmetic.  The first trial step is _starting_step's.
    A non-finite error estimate raises: it would otherwise never reject a
    step."""
    rows = np.empty((8, len(y0)), dtype=np.result_type(y0, 1.0))  # y, k1, ..., k7
    rows[0] = y0
    t = t0
    rows[1] = f(t, rows[0])
    h = _starting_step(f, t, rows[0], rows[1], t1 - t0, rel_tol, abs_tol) if t1 > t0 else 0.0
    while t < t1:
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise RuntimeError("step size underflow in adaptive integrator")
        weights = h * _DP_STAGES
        weights[:7, 0] = 1.0
        for i in range(1, 7):
            arg = weights[i, : i + 1] @ rows[: i + 1]
            rows[i + 1] = f(t + _DP_C[i] * h, arg)
        y5 = arg  # the seventh stage's argument
        scale = abs_tol + rel_tol * np.maximum(np.abs(rows[0]), np.abs(y5))
        err = _rms(weights[7, 1:] @ rows[1:], scale)
        if not math.isfinite(err):
            raise RuntimeError(f"non-finite error estimate at t = {t}, h = {h}")
        if err <= 1.0:
            t += h
            rows[0] = y5
            rows[1] = rows[7]  # FSAL
        factor = 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
    return rows[0].copy()


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """e^a for a small dense matrix by scaling and squaring a truncated
    Taylor series (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).

    a is scaled by 2^-s until its 1-norm is at most 1/2, where the remainder
    after 18 terms is below 1e-22 relative, then squared s times.  Unlike an
    eigendecomposition this needs a to be neither normal nor diagonalizable.
    """
    norm = float(np.linalg.norm(a, 1))
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    b = a / 2.0**s
    out = term = np.eye(len(a), dtype=complex)
    for k in range(1, 19):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def qubit_liouvillian(spec: DissipativeBathSpec) -> np.ndarray:
    """The 4x4 generator L of d vec(rho)/dt = L vec(rho) (row-major vec),
    column k the master equation's right-hand side, all terms included,
    applied to the k-th basis matrix."""
    sz = np.diag([-1.0 + 0.0j, 1.0])
    sp = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sm = sp.T.copy()
    g0, w = spec.gamma0, spec.omega
    big_n, big_m = spec.N, -spec.M  # the qubit's anomalous moment is -M

    def rhs(rho):
        d = -1j * (w / 2.0) * (sz @ rho - rho @ sz)
        d += g0 * (big_n + 1) * (sm @ rho @ sp - 0.5 * (sp @ sm @ rho + rho @ sp @ sm))
        d += g0 * big_n * (sp @ rho @ sm - 0.5 * (sm @ sp @ rho + rho @ sm @ sp))
        d -= g0 * big_m * (sp @ rho @ sp) + g0 * big_m.conjugate() * (sm @ rho @ sm)
        return d.ravel()

    return np.column_stack([rhs(e.reshape(2, 2)) for e in np.eye(4, dtype=complex)])


def integrate_lindblad_qubit(rho0: np.ndarray, spec: DissipativeBathSpec, t: float) -> np.ndarray:
    """Exact propagation of the qubit master equation: e^{L t} vec(rho0).

    L is not normal, and it is defective where gamma0 |M| = omega, so the
    exponential is a Taylor series with scaling and squaring rather than an
    eigendecomposition."""
    check_time(t)
    vec = np.asarray(rho0, dtype=complex).ravel()
    return (expm_taylor(qubit_liouvillian(spec) * t) @ vec).reshape(2, 2)


def oscillator_rhs(spec: DissipativeBathSpec, cutoff: int, dtype=complex):
    """d vec(rho)/dt of the oscillator master equation (interaction picture)
    on `cutoff` Fock levels, on the row-major flattening of rho, in `dtype`
    arithmetic.  A real dtype needs a real M, for which the equation maps
    real rho to real rho.

    Every term reads rho at one fixed shift (dm, dn) of (m, n), so with
    c = cutoff the right-hand side is d = sum_k C_k * y[. + o_k] over nine
    flat offsets o_k = dm c + dn:
    - 0: the diagonal of K on both sides of K rho + rho K, where K is the
      four anticommutator terms in one operator;
    - -+2c and -+2: the M and M* bands of K in K rho and in rho K;
    - +-(c + 1): a rho a^dag and a^dag rho a;
    - -+(c - 1): a^dag rho a^dag and a rho a.
    C_k is read off the same operators as a dense product would use,
    including the truncated last level of a a^dag, and is zero wherever
    (m + dm, n + dn) leaves the c x c block, also where a flat offset would
    wrap into the next row.  The nine shifts have dm + dn even and |dm| +
    |dn| <= 2, so each offset is u (c + 1) + v (c - 1) with u = (dm + dn)/2
    and v = (dm - dn)/2 in {-1, 0, 1}: the shifted windows y[. + o_k] of one
    zero-padded copy of y form a 3 x 3 lattice, one strided view of the
    buffer, and the C_k one (3, 3, c^2) array built once per call; when
    M = 0 both keep only the column v = 0, since the M bands are the
    columns v = +-1.  Each evaluation copies y into the buffer and forms d
    in one contraction of the coefficients with the view, with no gather
    and no temporary.  No Hermiticity of rho is assumed.  In real
    arithmetic the coefficients are the real parts of the same complex
    ones, which are exact there because M is real."""
    real = not np.issubdtype(dtype, np.complexfloating)
    if real and spec.M.imag != 0:
        raise ValueError(f"M = {spec.M} is complex; the right-hand side is not real")
    c = cutoff
    a = np.diag(np.sqrt(np.arange(1, c)), 1).astype(complex)
    ad = a.conj().T
    g0 = spec.gamma0
    big_n, big_m = spec.N, spec.M
    k_op = -0.5 * g0 * (
        (big_n + 1) * (ad @ a) + big_n * (a @ ad) + big_m * (ad @ ad)
        + big_m.conjugate() * (a @ a)
    )
    k_diag, k_up, k_down = np.diagonal(k_op), np.diagonal(k_op, 2), np.diagonal(k_op, -2)
    root = np.sqrt(np.arange(1.0, c))
    weight = g0 * np.outer(root, root)  # sqrt(m + 1) sqrt(n + 1) g0
    # (dm, dn, C on the rows and columns where (m + dm, n + dn) is in the block)
    bands = (
        (0, 0, k_diag[:, None] + k_diag[None, :]),  # K rho + rho K on the diagonal
        (-2, 0, k_down[:, None]),  # K[m, m - 2] rho[m - 2, n]
        (2, 0, k_up[:, None]),  # K[m, m + 2] rho[m + 2, n]
        (0, -2, k_up[None, :]),  # rho[m, n - 2] K[n - 2, n]
        (0, 2, k_down[None, :]),  # rho[m, n + 2] K[n + 2, n]
        (1, 1, (big_n + 1) * weight),  # a rho a^dag
        (-1, -1, big_n * weight),  # a^dag rho a
        (-1, 1, big_m * weight),  # a^dag rho a^dag
        (1, -1, big_m.conjugate() * weight),  # a rho a
    )
    size, pad = c * c, 2 * c
    vs = range(-1, 2) if big_m != 0 else range(0, 1)  # the M bands are v = +-1
    # band (dm, dn) at [u + 1, v - vs.start], in the arithmetic of the integration
    coefs = np.zeros((3, len(vs), c, c), dtype=dtype)
    for dm, dn, values in bands:
        u, v = (dm + dn) // 2, (dm - dn) // 2
        if v in vs:
            coef = coefs[u + 1, v - vs.start]
            coef[max(0, -dm) : c - max(0, dm), max(0, -dn) : c - max(0, dn)] = (
                values.real if real else values
            )
    coefs = coefs.reshape(3, len(vs), size)
    buf = np.zeros(size + 2 * pad, dtype=dtype)
    step = buf.itemsize
    # window (u, v) starts at pad + u (c + 1) + v (c - 1); (-1, -1) at buf[0]
    windows = np.lib.stride_tricks.as_strided(
        buf, (3, 3, size), ((c + 1) * step, (c - 1) * step, step), writeable=False
    )[:, vs.start + 1 : vs.stop + 1]

    def rhs(_t, y):
        buf[pad : pad + size] = y
        return np.einsum("uvs,uvs->s", coefs, windows)

    return rhs


def integrate_lindblad_oscillator(
    rho0: np.ndarray,
    spec: DissipativeBathSpec,
    t: float,
    cutoff: int,
    leakage_tol: float = 1e-8,
) -> np.ndarray:
    """Direct integration of the oscillator master equation (interaction
    picture) on a truncated Fock space, with a boundary-leakage monitor.
    When rho0 and M are real, so is the solution, and it is integrated in
    real arithmetic; the result is complex either way."""
    check_time(t)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (cutoff, cutoff):
        raise ValueError(f"rho0 shape {rho0.shape} does not match cutoff {cutoff}")
    y0 = rho0.ravel()
    if spec.M.imag == 0 and not y0.imag.any():
        y0 = y0.real
    rhs = oscillator_rhs(spec, cutoff, y0.dtype)
    y = dormand_prince(rhs, y0, 0.0, t, 1e-10, 1e-12)
    out = y.astype(complex, copy=False).reshape(cutoff, cutoff)
    boundary = float(out[-1, -1].real)
    if abs(boundary) > leakage_tol:
        raise TruncationError(
            f"population {boundary:.3e} at the Fock boundary exceeds {leakage_tol:.1e}"
        )
    return out


def phase_dist_by_quadrature(rho: np.ndarray, grid: int) -> np.ndarray:
    """Atomic phase distribution by Gauss-Legendre quadrature, over the
    polar angle theta, of the Q-function angle marginal at the `grid` angles
    of phase_grid(grid), returned as the coefficients of the interpolant of
    those samples (independent of the Beta closed form).  rho is the
    Dicke-basis density matrix, m ascending from -j to j, so 2j + 1 is its
    dimension.  The integrand is a trigonometric polynomial of degree
    2j + 1 in theta; 2 (2j) + 16 nodes resolve it to rounding (checked
    against adaptive quadrature up to j = 50)."""
    phi = phase_grid(grid)
    tj = len(rho) - 1
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    k_idx = np.arange(tj + 1)
    phase = np.exp(-1j * np.outer(k_idx, phi))  # e^{-i(j+m) phi} per amplitude
    nodes, weights = _gauss_legendre(2 * tj + 16)
    half = 0.25 * math.pi * (nodes + 1.0)  # theta / 2, theta in [0, pi]
    # |<j,m|theta,phi>| per node (rows) and amplitude (columns)
    mags = half_binom * np.sin(half)[:, None] ** k_idx * np.cos(half)[:, None] ** (tj - k_idx)
    # Q(theta, phi) = sum_{n,m} rho[n,m] c_n^* c_m with c = mags e^{-i(j+m) phi}:
    # each node's mags weight rho, and the phases multiply it on both sides
    rho_c = (mags[:, :, None] * rho * mags[:, None, :]) @ phase
    q = np.einsum("nf,tnf->tf", phase.conj(), rho_c).real
    integral = 0.5 * math.pi * ((weights * np.sin(2.0 * half)) @ q)
    return distribution_from_samples((tj + 1) / (4.0 * math.pi) * integral)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes and weights on [-1, 1], built once per
    order and read-only.  Golub-Welsch (Math. Comp. 23, 221 (1969)): the
    nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
    the Legendre recurrence, off-diagonals k / sqrt(4 k^2 - 1), and each
    weight is 2 v_0^2, v_0 the first component of its unit eigenvector."""
    k = np.arange(1.0, n)
    # the subdiagonal alone: eigh reads only the lower triangle
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# dephasing-kernel quadrature: Gauss-Legendre nodes per panel, panel width
# in oscillation periods, upper limit in omega_c.  The nodes are computed on
# first use, once per order.
_GAMMA_NODE_COUNT = 10
_GAMMA_PANEL_PERIODS = 2.0
_GAMMA_RANGE = 30.0


def gamma_by_quadrature(t: float, spec: QndBathSpec):
    """Dephasing kernel gamma(t) by direct frequency quadrature of its
    defining Ohmic-continuum integral, with coth -> 1 at T = 0 and
    coth -> 2T/omega at T > 0 (the high-temperature form).

    Composite Gauss-Legendre rule: 10 nodes on each of equal panels over
    [0, 30 omega_c], where the cutoff factor has fallen to e^{-30}.  A panel
    spans two periods 2 pi / f_max of the integrand's oscillation, with
    f_max = 2 (t + 2a) + 1, and at most omega_c so the cutoff's decay is
    resolved too.  No node lies at omega = 0, where the integrand has only a
    removable singularity.

    The panels depend on t and a only, so a stays a number, while r and T
    may be numpy arrays, one entry per bath, as in gamma_qnd.  The nodes and
    every bath-free factor, sin and cos of (a - t/2) omega, sin^2(omega t/2)
    and e^{-omega/omega_c}, are built once per call.  r enters only through
    |e^{-r} + sinh r (1 - e^{ix})|^2 below, formed once per entry of r and
    summed against the T = 0 integrand and the T > 0 one per unit T, so T
    only picks a sum and scales it.  For numbers r and T gamma is one float;
    otherwise it is an array of their broadcast shape, each entry equal bit
    for bit to that bath's call with numbers.
    """
    check_time(t)
    g0, wc, r, a, T = spec
    a = float(a)
    if a > 0 and t <= 2 * a:
        raise DomainError(f"gamma(t) undefined for t = {t} <= 2a = {2 * a}")
    f_max = 2.0 * (t + 2.0 * a) + 1.0
    top = _GAMMA_RANGE * wc
    panels = math.ceil(top / min(_GAMMA_PANEL_PERIODS * 2.0 * math.pi / f_max, wc))
    h = top / panels
    nodes, weights = _gauss_legendre(_GAMMA_NODE_COUNT)
    w = h * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))
    # |bracket|^2 of cosh r (e^{iwt} - 1) + sinh r (e^{-iwt} - 1) e^{2iaw}.
    # With e^{+-iwt} - 1 = +-2i sin(wt/2) e^{+-iwt/2} it is
    # 4 sin^2(wt/2) |e^{-r} + sinh r (1 - e^{ix})|^2, x = (2a - t) w, and
    # 1 - e^{ix} = 2 s^2 - 2i s c with s, c = sin(x/2), cos(x/2): a sum of
    # squares, so nothing cancels near w = 0 however large r is.
    # s^2, s c and the bath factor are formed in place, so that few
    # node-sized arrays are alive at once
    s2 = np.sin((a - 0.5 * t) * w)
    sc = np.cos((a - 0.5 * t) * w)
    sc *= s2
    s2 *= s2
    r = np.asarray(r)[..., None, None]  # one (panels, nodes) block per entry
    sh2 = 2.0 * np.sinh(r)
    bath = sh2 * s2
    bath += np.exp(-r)
    bath *= bath
    part = sh2 * sc
    part *= part
    bath += part
    del s2, sc
    # the rest of the integrand: at T = 0, and per unit T at T > 0
    cold = 4.0 * np.sin(0.5 * t * w) ** 2 * np.exp(-w / wc) / w
    hot = 2.0 * cold / w
    cold_sum, hot_sum = (
        np.sum(np.multiply(bath, k, out=part) @ weights, axis=-1) for k in (cold, hot)
    )
    gamma = (g0 / (2.0 * math.pi)) * 0.5 * h * np.where(np.equal(T, 0), cold_sum, T * hot_sum)
    return gamma[()]

"""Combinatorial and special functions underlying the closed forms.

Everything here is a pure function.  The Wigner-d sum is evaluated exactly
in integers and rounded once, so its alternating terms cannot cancel away
the result at large j.  Gaussian Fock amplitudes need no factorials: they
follow the normalized recurrences of Miatto & Quesada, "Fast optimization
of parametrized quantum optical circuits", Quantum 4, 366 (2020),
arXiv:2004.11002, one in one index for kets (gaussian_recurrence, O(cutoff))
and one in two for matrices (gaussian_rows, O(cutoff^2) time, two rows held
at a time).  The first writes the squeezed coherent ket S(zeta) D(alpha)|0>
and the first row of the dissipative oscillator's density matrix; the
second, from such a first row, the rest of that density matrix and the
squeeze-operator Fock matrix.  The squeezed coherent ket is a
bath-independent initial state that a sweep reuses at every point, so each
distinct ket is built once per process in a bounded cache and returned
read-only.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

# ln(n!) correctly rounded, from the exact integer n!, while n! fits a float
_LOG_FACTORIAL = [math.log(math.factorial(n)) for n in range(171)]


def log_factorial(n: int) -> float:
    """ln(n!) for nonnegative integer n: a table up to n = 170, math.lgamma
    beyond (within 1.4 ulp there)."""
    if n < 0:
        raise ValueError(f"n = {n} must be nonnegative")
    return _LOG_FACTORIAL[n] if n < len(_LOG_FACTORIAL) else math.lgamma(n + 1.0)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); requires 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial ({n}, {k}) out of range")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


def wigner_d_half_pi(tj: int, tn: int, tp: int) -> float:
    """Wigner rotation matrix element d^j_{n,p}(pi/2) for tj = 2j, tn = 2n and
    tp = 2p, with |n|, |p| <= j and j - n, j - p integers.

    d = 2^{-j} sqrt((j+p)! (j-p)! / ((j+n)! (j-n)!))
        * sum_q (-1)^q C(j+n, q) C(j-n, j-p-q),
    with the alternating q-sum taken exactly in integers and the prefactor
    as one correctly rounded ratio, so the result carries only final rounding.
    """
    # integer combinations j+-n, j+-p
    jn, jmn = (tj + tn) // 2, (tj - tn) // 2
    jp, jmp = (tj + tp) // 2, (tj - tp) // 2

    # both binomials need 0 <= q <= j+n and 0 <= j-p-q <= j-n
    q_min = max(0, (tn - tp) // 2)
    q_max = min(jn, jmp)
    total = sum(
        (-1) ** q * math.comb(jn, q) * math.comb(jmn, jmp - q)
        for q in range(q_min, q_max + 1)
    )
    fact = math.factorial
    # 2^{-j} squared is 2^{-2j}, folded into the ratio under the root; the
    # integer true division rounds once
    ratio = fact(jp) * fact(jmp) / ((fact(jn) * fact(jmn)) << tj)
    return total * math.sqrt(ratio)


def squeeze_tail_pad(r1: float) -> float:
    """Fock levels over which a squeezed state's geometric tail, which falls
    as tanh(r1)^n, drops by a factor 1e-20; 0 at r1 = 0."""
    return 2.0 * math.log(1e10) / -math.log(math.tanh(r1)) if r1 > 0.0 else 0.0


def gaussian_recurrence(
    start: complex, first: complex, second: complex, cutoff: int
) -> np.ndarray:
    """x_n, n < cutoff, from x_0 = start and the normalized three-term
    recurrence of a Gaussian ket's Fock amplitudes,
    x_{n+1} = (first x_n + second sqrt(n) x_{n-1}) / sqrt(n+1)."""
    cur, prev = complex(start), 0j
    amps = [cur]
    for n in range(cutoff - 1):
        prev, cur = cur, (first * cur + second * math.sqrt(n) * prev) / math.sqrt(n + 1)
        amps.append(cur)
    return np.array(amps)


def gaussian_rows(row0: np.ndarray, first: complex, second: complex, cross: float):
    """Yield the rows x[m, :], m < len(row0), of a Gaussian Fock matrix from
    x[0, :] = row0 and the normalized two-index recurrence
    x[m+1, n] = (first x[m, n] + second sqrt(m) x[m-1, n]
                 + cross sqrt(n) x[m, n-1]) / sqrt(m+1),
    holding two rows at a time.  Each row is a new array."""
    cutoff = len(row0)
    sq = np.sqrt(np.arange(cutoff, dtype=float))
    cross = cross * sq[1:]
    above, row = np.zeros(cutoff, dtype=complex), row0
    for m in range(cutoff):
        yield row
        if m + 1 < cutoff:
            below = first * row + (second * sq[m]) * above
            below[1:] += cross * row[:-1]
            above, row = row, below / sq[m + 1]


@functools.lru_cache(maxsize=8)
def squeezed_coherent_ket(r: float, phase: float, alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes c_n = <n| S(zeta) D(alpha) |0>, n < cutoff, with
    zeta = r e^{i phase} and S(zeta) as in squeeze_matrix.

    The ket is the eigenvector of S a S^dag = a cosh r + a^dag e^{i phase} sinh r
    with eigenvalue alpha, hence the gaussian_recurrence
    c_{n+1} = (alpha/cosh r c_n - e^{i phase} tanh r sqrt(n) c_{n-1}) / sqrt(n+1),
    from c_0 = exp(-|alpha|^2/2 + alpha^2 e^{-i phase} tanh r / 2) / sqrt(cosh r).
    That c_0 equals the form in alpha' = alpha cosh r - alpha* e^{i phase} sinh r,
    exp(-|alpha'|^2/2 - alpha'*^2 e^{i phase} tanh r / 2) / sqrt(cosh r), whose
    exponent cancels at large |alpha|.  No c_n can exceed 1, so nothing
    overflows; r = 0 gives the coherent state.  The array is cached and
    read-only.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    if r < 0:
        raise ValueError(f"r = {r} must be nonnegative")
    alpha = complex(alpha)
    rot = cmath.exp(1j * phase)
    ch, th = math.cosh(r), math.tanh(r)
    start = cmath.exp(-abs(alpha) ** 2 / 2.0 + alpha * alpha * rot.conjugate() * th / 2.0)
    ket = gaussian_recurrence(start / math.sqrt(ch), alpha / ch, -rot * th, cutoff)
    ket.setflags(write=False)
    return ket


def squeeze_matrix(cutoff: int, r1: float, phi: float) -> np.ndarray:
    """Dense cutoff x cutoff Fock matrix G[m, n] = <m| S(zeta) |n>.

    S(zeta) = exp[(zeta* a^2 - zeta a^dag^2)/2] with zeta = r1 e^{i phi}.
    Built by the Gaussian-unitary Fock recurrences (Miatto & Quesada,
    Quantum 4, 366 (2020), arXiv:2004.11002): column 0 is the squeezed
    vacuum, the gaussian_recurrence without its first-order term, and the
    columns are the gaussian_rows of the transpose,
    G[m, n+1] = (e^{-i phi} tanh r1 sqrt(n) G[m, n-1]
                 + sech r1 sqrt(m) G[m-1, n]) / sqrt(n+1).
    Entries with m - n odd are exactly 0, and r1 = 0 gives the identity
    exactly.

    The forward recurrence loses accuracy where both indices are large
    (about 1e-13 at column 20, 5e-10 at column 40 for r1 = 1, 2e-3 at
    column 100 for r1 = 0.5).  No closed form uses the matrix: a squeezed
    coherent ket comes from squeezed_coherent_ket.  It is the object of the
    squeeze-matrix checks (validate's comparison with the matrix
    exponential, and acceptance criterion 9), which so exercise the
    gaussian_rows loop that the dissipative oscillator runs at T > 0.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    if r1 < 0:
        raise ValueError(f"r1 = {r1} must be nonnegative")
    sech, th = 1.0 / math.cosh(r1), math.tanh(r1)
    vacuum = gaussian_recurrence(math.sqrt(sech), 0.0, -cmath.exp(1j * phi) * th, cutoff)
    columns = gaussian_rows(vacuum, 0.0, cmath.exp(-1j * phi) * th, sech)
    return np.fromiter(columns, dtype=(complex, cutoff), count=cutoff).T


def beta_integral(a: float, b: float) -> float:
    """Euler Beta function B(a, b) for a, b > 0.

    While Gamma(a + b) is finite the Gamma ratio is accurate to a few ulp;
    beyond that the log-Gamma form, whose cancellation costs about
    lgamma(a + b) ulp of relative accuracy.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"Beta arguments must be positive, got ({a}, {b})")
    if a + b < 171.0:
        return math.gamma(a) / math.gamma(a + b) * math.gamma(b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))

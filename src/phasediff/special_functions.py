"""Combinatorial and special functions underlying the closed forms.

Everything here is a pure function.  The Wigner-d sums assemble factorial
ratios in log space and exponentiate once per term, so spins up to j ~ 50
stay finite (naive factorials overflow near 170!).  The squeeze-operator
Fock matrix needs no factorials: it is filled by the O(cutoff^2)
Gaussian-unitary recurrences of Miatto & Quesada, "Fast optimization of
parametrized quantum optical circuits", Quantum 4, 366 (2020),
arXiv:2004.11002.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

LN2 = math.log(2.0)
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


def wigner_d_half_pi(j, n, p) -> float:
    """Wigner rotation matrix element d^j_{n,p}(pi/2).

    Finite alternating sum over q, with q restricted so that every factorial
    argument is nonnegative.  Terms are combined with compensated summation.
    """
    from .halfint import HalfInteger, check_jm

    j = HalfInteger.of(j)
    n = HalfInteger.of(n)
    p = HalfInteger.of(p)
    check_jm(j, n, "n")
    check_jm(j, p, "p")

    # integer combinations j+-n, j+-p
    jn = (j.twice_value + n.twice_value) // 2
    jmn = (j.twice_value - n.twice_value) // 2
    jp = (j.twice_value + p.twice_value) // 2
    jmp = (j.twice_value - p.twice_value) // 2

    log_pref = 0.5 * (
        log_factorial(jn) + log_factorial(jmn) + log_factorial(jp) + log_factorial(jmp)
    ) - j.value * LN2

    # q!, (j+n-q)!, (j-p-q)!, (p+q-n)! all need nonnegative arguments
    q_min = max(0, (n.twice_value - p.twice_value) // 2)
    q_max = min(jn, jmp)
    terms = []
    for q in range(q_min, q_max + 1):
        log_den = (
            log_factorial(q)
            + log_factorial(jn - q)
            + log_factorial(jmp - q)
            + log_factorial(q + (p.twice_value - n.twice_value) // 2)
        )
        terms.append((-1.0) ** q * math.exp(log_pref - log_den))
    return math.fsum(terms)


def hermite_sequence(m_max: int, z: complex) -> np.ndarray:
    """H_0(z) .. H_{m_max}(z) as one array (shared recurrence pass)."""
    out = np.empty(m_max + 1, dtype=complex)
    out[0] = 1.0
    if m_max >= 1:
        out[1] = 2.0 * z
    for i in range(1, m_max):
        out[i + 1] = 2.0 * z * out[i] - 2.0 * i * out[i - 1]
    return out


def squeeze_matrix(cutoff: int, r1: float, phi: float) -> np.ndarray:
    """Dense cutoff x cutoff Fock matrix G[m, n] = <m| S(zeta) |n>.

    S(zeta) = exp[(zeta* a^2 - zeta a^dag^2)/2] with zeta = r1 e^{i phi}.
    Built by the Gaussian-unitary Fock recurrences (Miatto & Quesada,
    Quantum 4, 366 (2020), arXiv:2004.11002): column 0 is the squeezed
    vacuum, and each further column follows from the two before it,
    vectorized over the row index m.  Entries with m - n odd are exactly 0,
    and r1 = 0 gives the identity exactly.

    The forward recurrence loses accuracy where both indices are large
    (about 1e-13 at column 20, 5e-10 at column 40 for r1 = 1); the GSCS
    vectors it multiplies are negligible there.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff = {cutoff} must be positive")
    if r1 < 0:
        raise ValueError(f"r1 = {r1} must be nonnegative")
    sech, th = 1.0 / math.cosh(r1), math.tanh(r1)
    sq = np.sqrt(np.arange(cutoff, dtype=float))
    g = np.zeros((cutoff, cutoff), dtype=complex)
    g[0, 0] = math.sqrt(sech)
    # G[m+2, 0] = -e^{i phi} tanh(r1) sqrt((m+1)/(m+2)) G[m, 0]
    step = -cmath.exp(1j * phi) * th
    for m in range(0, cutoff - 2, 2):
        g[m + 2, 0] = step * (sq[m + 1] / sq[m + 2]) * g[m, 0]
    # G[m, n+1] = (sech sqrt(m) G[m-1, n] + e^{-i phi} tanh sqrt(n) G[m, n-1]) / sqrt(n+1)
    back = cmath.exp(-1j * phi) * th
    for n in range(cutoff - 1):
        col = np.zeros(cutoff, dtype=complex)
        col[1:] = sech * sq[1:] * g[:-1, n]
        if n > 0:
            col += (back * sq[n]) * g[:, n - 1]
        g[:, n + 1] = col / sq[n + 1]
    return g


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

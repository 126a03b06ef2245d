import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from phasediff.halfint import HalfInteger, m_range
from phasediff.special_functions import (
    beta_integral,
    hermite_sequence,
    log_binomial,
    log_factorial,
    squeeze_matrix,
    wigner_d_half_pi,
)


def _squeeze_expm(big, window, r1, phi):
    # matrix-exponential oracle on a much larger Fock space than the window
    n = np.arange(big)
    ad2 = np.diag(np.sqrt((n[:-2] + 1) * (n[:-2] + 2)), -2).astype(complex)
    zeta = r1 * complex(math.cos(phi), math.sin(phi))
    return expm(0.5 * (zeta.conjugate() * ad2.conj().T - zeta * ad2))[:window, :window]


def test_log_factorial_matches_math():
    for n in range(0, 25):
        # [TRIVIAL] exact small factorials
        assert math.isclose(math.exp(log_factorial(n)), math.factorial(n), rel_tol=1e-12)


def test_log_binomial_matches_math():
    for n in range(0, 30):
        for k in range(0, n + 1):
            assert math.isclose(
                math.exp(log_binomial(n, k)), math.comb(n, k), rel_tol=1e-12
            )


@pytest.mark.parametrize("twice_j", range(1, 21))
def test_wigner_d_orthogonality(twice_j):
    # rows of d^j(pi/2) are orthonormal for every j <= 10
    j = HalfInteger(twice_j)
    ms = m_range(j)
    d = np.array([[wigner_d_half_pi(j, n, p) for p in ms] for n in ms])
    assert np.max(np.abs(d.T @ d - np.eye(len(ms)))) < 1e-12


def test_wigner_d_against_rotation_exponential():
    # [DERIVED] d^j_{m',m}(pi/2) equals the exponential of -i (pi/2) J_y
    for twice_j in (1, 2, 4, 7):
        j = HalfInteger(twice_j)
        ms = [m.value for m in m_range(j)]
        dim = len(ms)
        jp = np.zeros((dim, dim))
        jv = j.value
        for k in range(dim - 1):  # J_+ |j,m> = sqrt(j(j+1)-m(m+1)) |j,m+1>
            m = ms[k]
            jp[k + 1, k] = math.sqrt(jv * (jv + 1) - m * (m + 1))
        jy = (jp - jp.T) / 2j
        oracle = expm(-1j * (math.pi / 2.0) * jy).real
        d = np.array(
            [[wigner_d_half_pi(j, n, p) for p in m_range(j)] for n in m_range(j)]
        )
        assert np.max(np.abs(d - oracle)) < 1e-12


def test_hermite_recurrence_vs_explicit_polynomial():
    # explicit coefficient form H_m(z) = m! sum_k (-1)^k (2z)^{m-2k} / (k! (m-2k)!)
    z = 0.8 - 0.35j
    seq = hermite_sequence(10, z)
    for m in range(11):
        explicit = sum(
            (-1) ** k
            * math.factorial(m)
            / (math.factorial(k) * math.factorial(m - 2 * k))
            * (2 * z) ** (m - 2 * k)
            for k in range(m // 2 + 1)
        )
        assert abs(seq[m] - explicit) <= 1e-10 * max(1.0, abs(explicit))


def _squeeze_hyp2f1(m, n, r1, phi):
    # [DERIVED] closed form through a terminating 2F1, evaluated in 120 digits:
    # m = 2p + s, n = 2q + s with parity s, and
    # <m|S|n> = (-1)^p sqrt(m! n!)/(p! q!) (tanh r1 / 2)^{p+q} e^{i phi (p-q)}
    #           cosh(r1)^{-(s + 1/2)} 2F1(-p, -q; s + 1/2; -1/sinh^2 r1)
    if (m - n) % 2:
        return 0.0
    s = m % 2
    p, q = (m - s) // 2, (n - s) // 2
    with mpmath.workdps(120):
        r = mpmath.mpf(r1)
        mag = (
            (-1) ** p
            * mpmath.sqrt(mpmath.factorial(m) * mpmath.factorial(n))
            / (mpmath.factorial(p) * mpmath.factorial(q))
            * (mpmath.tanh(r) / 2) ** (p + q)
            * mpmath.cosh(r) ** -(s + mpmath.mpf(1) / 2)
            * mpmath.hyp2f1(-p, -q, s + mpmath.mpf(1) / 2, -1 / mpmath.sinh(r) ** 2)
        )
        return complex(mag * mpmath.expjpi(phi * (p - q) / mpmath.pi))


@pytest.mark.parametrize("r1,rows", [(0.5, 100), (1.0, 210), (1.5, 503)])
def test_squeeze_matrix_vs_mpmath_2f1(r1, rows):
    # columns n <= 20 and every row up to the dissipative oscillator's
    # default cutoff at this squeezing
    phi = 0.4
    g = squeeze_matrix(rows, r1, phi)[:, :21]
    oracle = np.array(
        [[_squeeze_hyp2f1(m, n, r1, phi) for n in range(21)] for m in range(rows)]
    )
    assert np.max(np.abs(g - oracle)) < 1e-12


def test_squeeze_element_parity_zeros_exact():
    g = squeeze_matrix(12, 0.7, 0.3)
    for m in range(0, 12):
        for n in range(0, 12):
            if (m - n) % 2 == 1:
                # [TRIVIAL] squeeze couples only same-parity Fock states
                assert g[m, n] == 0.0


def test_squeeze_element_zero_squeezing_is_identity():
    assert np.array_equal(squeeze_matrix(8, 0.0, 1.1), np.eye(8))


def test_squeeze_matrix_vs_expm_oracle():
    # [DERIVED] big-space matrix exponential, window far below the big cutoff
    for r1, phi in ((0.5, 0.0), (0.5, 0.7), (1.0, -1.2)):
        oracle = _squeeze_expm(160, 12, r1, phi)
        g = squeeze_matrix(12, r1, phi)
        assert np.max(np.abs(g - oracle)) < 1e-10


def test_squeeze_matrix_unitarity_converges_with_truncation():
    # residual of sum_k G*_{k,m} G_{k,n} - delta_{mn} for m, n <= 10 at r1 = 1;
    # truncation 60 retains only ~68% of a squeezed |10>, so the residual is
    # O(0.3) there and reaches 1e-8 only near truncation 200
    def residual(big):
        g = squeeze_matrix(big, 1.0, 0.4)[:, :11]
        return float(np.max(np.abs(g.conj().T @ g - np.eye(11))))

    res60, res200 = residual(60), residual(200)
    assert res60 > 1e-2  # documents why truncation 60 cannot meet 1e-8
    assert res200 < 1e-8


def test_beta_integral():
    # [TRIVIAL] B(1,1) = 1, B(2,1) = 1/2, B(2,2) = 1/6
    assert math.isclose(beta_integral(1.0, 1.0), 1.0, rel_tol=1e-14)
    assert math.isclose(beta_integral(2.0, 1.0), 0.5, rel_tol=1e-14)
    assert math.isclose(beta_integral(2.0, 2.0), 1.0 / 6.0, rel_tol=1e-14)

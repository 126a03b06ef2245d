import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from phasediff.special_functions import (
    beta_integral,
    log_binomial,
    log_factorial,
    squeeze_matrix,
    squeezed_coherent_ket,
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
    ms = range(-twice_j, twice_j + 1, 2)
    d = np.array([[wigner_d_half_pi(twice_j, tn, tp) for tp in ms] for tn in ms])
    assert np.max(np.abs(d.T @ d - np.eye(len(ms)))) < 1e-12


def test_wigner_d_against_rotation_exponential():
    # [DERIVED] d^j_{m',m}(pi/2) equals the exponential of -i (pi/2) J_y
    for twice_j in (1, 2, 4, 7):
        tms = range(-twice_j, twice_j + 1, 2)
        ms = [tm / 2.0 for tm in tms]
        dim = len(ms)
        jp = np.zeros((dim, dim))
        jv = twice_j / 2.0
        for k in range(dim - 1):  # J_+ |j,m> = sqrt(j(j+1)-m(m+1)) |j,m+1>
            m = ms[k]
            jp[k + 1, k] = math.sqrt(jv * (jv + 1) - m * (m + 1))
        jy = (jp - jp.T) / 2j
        oracle = expm(-1j * (math.pi / 2.0) * jy).real
        d = np.array([[wigner_d_half_pi(twice_j, tn, tp) for tp in tms] for tn in tms])
        assert np.max(np.abs(d - oracle)) < 1e-12


def _wigner_d_mpmath(j, n, p):
    # [DERIVED] the factorial q-sum in 60-digit arithmetic
    jn, jmn, jp, jmp = j + n, j - n, j + p, j - p
    f = mpmath.factorial
    with mpmath.workdps(60):
        pref = mpmath.sqrt(f(jn) * f(jmn) * f(jp) * f(jmp)) / mpmath.mpf(2) ** j
        total = mpmath.fsum(
            (-1) ** q / (f(q) * f(jn - q) * f(jmp - q) * f(q + p - n))
            for q in range(max(0, n - p), min(jn, jmp) + 1)
        )
        return float(pref * total)


@pytest.mark.parametrize("j", [30, 50])
def test_wigner_d_large_j_vs_mpmath(j):
    # every third (n, p): the alternating sum cancels by many orders here
    worst = 0.0
    for n in range(-j, j + 1, 3):
        for p in range(-j, j + 1, 3):
            d = wigner_d_half_pi(2 * j, 2 * n, 2 * p)
            worst = max(worst, abs(d - _wigner_d_mpmath(j, n, p)))
    assert worst < 1e-13


def _hermite_explicit(m, z):
    # explicit coefficient form H_m(z) = m! sum_k (-1)^k (2z)^{m-2k} / (k! (m-2k)!)
    f = mpmath.factorial
    return mpmath.fsum(
        (-1) ** k * f(m) / (f(k) * f(m - 2 * k)) * (2 * z) ** (m - 2 * k)
        for k in range(m // 2 + 1)
    )


def _squeezed_coherent_hermite(r1, phase, alpha, m):
    # [DERIVED] <m|S(zeta) D(alpha)|0> = c_0 w^m H_m(z) / sqrt(m!), with
    # w = sqrt(e^{i phase} tanh(r1) / 2), z = alpha e^{-i phase/2} / sqrt(sinh 2 r1),
    # c_0 = exp(-|alpha|^2/2 + alpha^2 e^{-i phase} tanh(r1)/2) / sqrt(cosh r1);
    # the explicit sum cancels by many digits, so the precision grows with m
    with mpmath.workdps(20 + m // 6):
        r, ph, a = mpmath.mpf(r1), mpmath.mpf(phase), mpmath.mpc(alpha)
        c0 = mpmath.exp(-abs(a) ** 2 / 2 + a**2 * mpmath.expj(-ph) * mpmath.tanh(r) / 2)
        c0 /= mpmath.sqrt(mpmath.cosh(r))
        w = mpmath.expj(ph / 2) * mpmath.sqrt(mpmath.tanh(r) / 2)
        z = a * mpmath.expj(-ph / 2) / mpmath.sqrt(mpmath.sinh(2 * r))
        return complex(c0 * w**m * _hermite_explicit(m, z) / mpmath.sqrt(mpmath.factorial(m)))


@pytest.mark.parametrize("alpha_sq", [5.0, 200.0])
@pytest.mark.parametrize("r1", [0.5, 1.0, 2.0])
def test_squeezed_coherent_ket_vs_mpmath_hermite(r1, alpha_sq):
    # 7000 levels hold all but 1e-12 of every state here (r1 = 2, alpha^2 = 200
    # has mean occupation 5460); a growing parasitic solution of the
    # recurrence would break the norm.  Rows up to 600 and the largest
    # amplitude are checked against the Hermite closed form.
    phase, theta0 = math.pi / 4, 0.3
    alpha = math.sqrt(alpha_sq) * complex(math.cos(theta0), math.sin(theta0))
    c = squeezed_coherent_ket(r1, phase, alpha, 7000)
    assert abs(1.0 - float(np.sum(np.abs(c) ** 2))) < 1e-12
    rows = sorted({*range(0, 601, 75), int(np.argmax(np.abs(c)))})
    oracle = np.array([_squeezed_coherent_hermite(r1, phase, alpha, m) for m in rows])
    assert np.max(np.abs(c[rows] - oracle)) < 1e-13


def test_squeezed_coherent_ket_cache_is_read_only_and_exact():
    args = (0.5, math.pi / 4, 1.5 + 0.7j, 60)
    ket = squeezed_coherent_ket(*args)
    assert squeezed_coherent_ket(*args) is ket
    with pytest.raises(ValueError, match="read-only"):
        ket[0] = 0.0
    fresh = squeezed_coherent_ket.__wrapped__(*args)
    assert fresh.tobytes() == ket.tobytes()


@pytest.mark.parametrize("r1, cutoff", [(0.9, 179), (1.25, 320), (2.0, 1300)])
def test_squeezed_coherent_ket_prefix_is_the_smaller_cutoff_ket(r1, cutoff):
    # the recurrence runs forward in n, so truncating to fewer levels is a prefix
    alpha = 0.8 - 0.3j
    full = squeezed_coherent_ket.__wrapped__(r1, 0.4, alpha, cutoff)
    short = squeezed_coherent_ket.__wrapped__(r1, 0.4, alpha, cutoff - 8)
    assert full[: cutoff - 8].tobytes() == short.tobytes()


def test_squeezed_coherent_ket_at_zero_squeezing_is_coherent():
    alpha = 1.7 - 0.4j
    n = np.arange(40)
    log_fact = np.array([log_factorial(k) for k in n])
    coherent = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(alpha + 0j) - 0.5 * log_fact)
    assert np.max(np.abs(squeezed_coherent_ket(0.0, 0.9, alpha, 40) - coherent)) < 1e-15


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

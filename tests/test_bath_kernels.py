import dataclasses
import math

import mpmath
import pytest

from phasediff.bath_kernels import (
    DissipativeBathMoments,
    HighTemperature,
    OSCILLATOR_CONVENTION,
    QUBIT_CONVENTION,
    QndBathSpec,
    ZeroTemperature,
    bath_moments,
    eta,
    gamma_qnd,
    thermal_occupation,
)
from phasediff.errors import DomainError
from phasediff.oracle import gamma_by_quadrature


def _spec(r=0.0, a=0.0, regime=None):
    return QndBathSpec(
        gamma0=0.025, omega_c=100.0, r=r, a=a,
        regime=regime if regime is not None else ZeroTemperature(),
    )


def test_eta_closed_form():
    spec = _spec()
    # [TRIVIAL] eta(t) = -(gamma0/pi) arctan(omega_c t)
    for t in (0.0, 0.3, 2.0):
        assert math.isclose(
            eta(t, spec), -(0.025 / math.pi) * math.atan(100.0 * t), rel_tol=1e-14
        )


def test_gamma_unsqueezed_zero_temperature_log_form():
    # [TRIVIAL] r = a = 0, T = 0: gamma(t) = (gamma0 / 2 pi) ln(1 + omega_c^2 t^2)
    spec = _spec()
    for t in (0.1, 0.7, 3.0):
        expected = (0.025 / (2.0 * math.pi)) * math.log(1.0 + (100.0 * t) ** 2)
        assert math.isclose(gamma_qnd(t, spec), expected, rel_tol=1e-12)


def test_gamma_zero_at_zero_time():
    assert gamma_qnd(0.0, _spec(r=1.0)) == 0.0


@pytest.mark.parametrize("regime", [ZeroTemperature(), HighTemperature(T=100.0)])
@pytest.mark.parametrize("r,a", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.05)])
def test_gamma_matches_quadrature(regime, r, a):
    # [DERIVED] frequency-quadrature oracle of the defining integral
    spec = _spec(r=r, a=a, regime=regime)
    for t in (0.2, 1.0):
        exact = gamma_qnd(t, spec)
        quad = gamma_by_quadrature(t, spec)
        assert abs(exact - quad) <= 1e-6 * abs(exact)


def _gamma_mpmath(t, spec):
    # [DERIVED] the closed forms as first written, each atan and log term
    # apart, in 50-digit arithmetic
    with mpmath.workdps(50):
        t, g0, wc, r, a = (mpmath.mpf(x) for x in (t, spec.gamma0, spec.omega_c, spec.r, spec.a))
        ch, sh, pi = mpmath.cosh(2 * r), mpmath.sinh(2 * r), mpmath.pi
        log, atan = mpmath.log, mpmath.atan
        if isinstance(spec.regime, ZeroTemperature):
            out = g0 / (2 * pi) * ch * log(1 + wc**2 * t**2)
            out -= g0 / (4 * pi) * sh * log(
                (1 + 4 * wc**2 * (t - a) ** 2) / (1 + wc**2 * (t - 2 * a) ** 2) ** 2)
            out -= g0 / (4 * pi) * sh * log(1 + 4 * a**2 * wc**2)
            return float(out)
        c = g0 * mpmath.mpf(spec.regime.T) / (pi * wc)
        out = c * ch * (2 * wc * t * atan(wc * t) + log(1 / (1 + wc**2 * t**2)))
        out -= c / 2 * sh * (
            4 * wc * (t - a) * atan(2 * wc * (t - a))
            - 4 * wc * (t - 2 * a) * atan(wc * (t - 2 * a))
            + 4 * a * wc * atan(2 * a * wc)
            + log((1 + wc**2 * (t - 2 * a) ** 2) ** 2 / (1 + 4 * wc**2 * (t - a) ** 2))
            + log(1 / (1 + 4 * a**2 * wc**2))
        )
        return float(out)


@pytest.mark.parametrize("t, omega_c, r, a, regime", [
    # the atan and log terms cancel to O((omega_c t)^2); 8.9e-10 and 1.6e-7
    # off before they were summed as a series and with log1p
    (0.11, 0.1, 2.0, 0.05, HighTemperature(T=100.0)),
    (0.1, 0.01, 2.0, 0.0, ZeroTemperature()),
    # the default omega_c = 100, far from the series
    (0.3, 100.0, 1.5, 0.1, ZeroTemperature()),
    (0.5, 100.0, 1.0, 0.05, HighTemperature(T=100.0)),
])
def test_gamma_keeps_its_digits_at_small_cutoff_times(t, omega_c, r, a, regime):
    spec = QndBathSpec(gamma0=0.025, omega_c=omega_c, r=r, a=a, regime=regime)
    assert math.isclose(gamma_qnd(t, spec), _gamma_mpmath(t, spec), rel_tol=1e-12)


def test_gamma_domain_error_inside_light_cone():
    spec = _spec(r=1.0, a=0.05)
    with pytest.raises(DomainError):
        gamma_qnd(0.08, spec)  # t <= 2a
    gamma_qnd(0.11, spec)  # just outside: fine


def test_high_temperature_requires_positive_t():
    with pytest.raises(ValueError):
        HighTemperature(T=0.0)
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^T = "):
            HighTemperature(T=T)
        with pytest.raises(ValueError, match="^T = "):
            thermal_occupation(1.0, T)  # 1/expm1(omega/inf) would divide by zero


def test_thermal_occupation_limits():
    # [TRIVIAL] Bose-Einstein mean occupation
    assert thermal_occupation(1.0, 0.0) == 0.0
    assert math.isclose(
        thermal_occupation(1.0, 1.0), 1.0 / (math.e - 1.0), rel_tol=1e-12
    )
    # high-T expansion: N_th -> T/omega - 1/2
    assert abs(thermal_occupation(1.0, 500.0) - (500.0 - 0.5)) < 1e-3
    # low-T limit e^{-omega/T}, also where e^{omega/T} overflows (omega/T > 709.8)
    for x in (699.0, 701.0, 1e5):
        assert math.isclose(thermal_occupation(1.0, 1.0 / x), math.exp(-x), rel_tol=1e-12)


def test_bath_moments_unsqueezed():
    for conv in (QUBIT_CONVENTION, OSCILLATOR_CONVENTION):
        mom = bath_moments(0.0, 0.3, 1.0, 1.0, conv)
        assert mom.M == 0.0
        assert math.isclose(mom.N, thermal_occupation(1.0, 1.0), rel_tol=1e-12)


def test_bath_moments_sign_conventions_differ_only_in_m():
    mq = bath_moments(1.0, 0.4, 2.0, 1.0, QUBIT_CONVENTION)
    mo = bath_moments(1.0, 0.4, 2.0, 1.0, OSCILLATOR_CONVENTION)
    assert math.isclose(mq.N, mo.N, rel_tol=1e-14)
    assert abs(mq.M + mo.M) < 1e-14 * abs(mq.M)


def test_bath_moments_physicality_enforced():
    # |M|^2 <= N (N + 1) must hold; a tampered M is rejected
    mom = bath_moments(1.5, 0.0, 10.0, 1.0, QUBIT_CONVENTION)
    assert abs(mom.M) ** 2 <= mom.N * (mom.N + 1.0) * (1.0 + 1e-9)
    with pytest.raises(ValueError):
        DissipativeBathMoments(
            N=mom.N, M=3.0 * mom.M, N_th=mom.N_th, r=mom.r, Phi=mom.Phi,
            T=mom.T, omega=mom.omega,
        )


def test_qnd_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QndBathSpec(gamma0=-1.0, omega_c=100.0, r=0.0, a=0.0, regime=ZeroTemperature())
    with pytest.raises(ValueError):
        QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=-0.1, regime=ZeroTemperature())


@pytest.mark.parametrize("field", ["gamma0", "omega_c", "r", "a"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_qnd_spec_rejects_non_finite(field, value):
    kwargs = {"gamma0": 0.025, "omega_c": 100.0, "r": 0.0, "a": 0.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} = "):
        QndBathSpec(**kwargs)


@pytest.mark.parametrize("kernel", [eta, gamma_qnd])
@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_kernels_reject_non_finite_time(kernel, t):
    with pytest.raises(ValueError, match="^t = "):
        kernel(t, _spec())


@pytest.mark.parametrize(
    "field, value",
    [("N", math.nan), ("M", complex(0.0, math.nan)), ("N_th", math.inf), ("r", math.nan),
     ("Phi", math.inf), ("T", math.nan), ("omega", math.nan)],
)
def test_bath_moments_reject_non_finite(field, value):
    mom = bath_moments(0.5, 0.3, 10.0, 1.0, QUBIT_CONVENTION)
    with pytest.raises(ValueError, match=f"^{field} = "):
        dataclasses.replace(mom, **{field: value})

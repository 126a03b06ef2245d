import math
import re

import mpmath
import numpy as np
import pytest

from phasediff.bath_kernels import (
    DissipativeBathSpec,
    QndBathSpec,
    eta,
    gamma_qnd,
    thermal_occupation,
)
from phasediff.errors import DomainError
from phasediff.figures import R_GRID
from phasediff.oracle import gamma_by_quadrature


def _spec(r=0.0, a=0.0, T=0.0):
    return QndBathSpec(gamma0=0.025, omega_c=100.0, r=r, a=a, T=T)


# the temperature settings that select the two closed forms of gamma(t)
ZERO_T, HIGH_T = {"T": 0.0}, {"T": 100.0}


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


@pytest.mark.parametrize("regime", [ZERO_T, HIGH_T])
@pytest.mark.parametrize("r,a", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.05)])
def test_gamma_matches_quadrature(regime, r, a):
    # [DERIVED] frequency-quadrature oracle of the defining integral
    spec = _spec(r=r, a=a, **regime)
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
        if spec.T == 0:
            out = g0 / (2 * pi) * ch * log(1 + wc**2 * t**2)
            out -= g0 / (4 * pi) * sh * log(
                (1 + 4 * wc**2 * (t - a) ** 2) / (1 + wc**2 * (t - 2 * a) ** 2) ** 2)
            out -= g0 / (4 * pi) * sh * log(1 + 4 * a**2 * wc**2)
            return float(out)
        c = g0 * mpmath.mpf(spec.T) / (pi * wc)
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
    (0.11, 0.1, 2.0, 0.05, HIGH_T),
    (0.1, 0.01, 2.0, 0.0, ZERO_T),
    # the default omega_c = 100, far from the series
    (0.3, 100.0, 1.5, 0.1, ZERO_T),
    (0.5, 100.0, 1.0, 0.05, HIGH_T),
])
def test_gamma_keeps_its_digits_at_small_cutoff_times(t, omega_c, r, a, regime):
    spec = QndBathSpec(gamma0=0.025, omega_c=omega_c, r=r, a=a, **regime)
    assert math.isclose(gamma_qnd(t, spec), _gamma_mpmath(t, spec), rel_tol=1e-12)


def test_gamma_domain_error_inside_light_cone():
    spec = _spec(r=1.0, a=0.05)
    with pytest.raises(DomainError):
        gamma_qnd(0.08, spec)  # t <= 2a
    gamma_qnd(0.11, spec)  # just outside: fine


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_thermal_occupation_rejects_non_finite_temperature(T):
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
    spec = DissipativeBathSpec(1.0, 0.25, 0.0, 0.3, 1.0)
    assert spec.M == 0.0
    assert math.isclose(spec.N, thermal_occupation(1.0, 1.0), rel_tol=1e-12)


def test_bath_moments_physicality_enforced():
    # [DERIVED] |M|^2 <= N (N + 1), with equality at T = 0; a negative r is
    # |r| at phase Phi + pi
    for r in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for phi in (0.0, 0.7, -2.0):
            for T in (0.0, 2.0, 300.0):
                spec = DissipativeBathSpec(1.0, 0.25, r, phi, T)
                bound = spec.N * (spec.N + 1.0)
                assert abs(spec.M) ** 2 <= bound * (1.0 + 1e-14)
                if T == 0:
                    assert math.isclose(abs(spec.M) ** 2, bound, rel_tol=1e-14, abs_tol=0.0)


def test_bath_moments_are_computed_once():
    # stored at construction, not recomputed on every read
    spec = DissipativeBathSpec(1.0, 0.25, 1.0, 0.3, 2.0)
    assert {"N_th", "N", "M"} <= set(spec._fields)
    with pytest.raises(AttributeError):
        spec.N = 0.0


def test_qnd_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QndBathSpec(gamma0=-1.0, omega_c=100.0, r=0.0, a=0.0, T=0.0)
    with pytest.raises(ValueError):
        QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=-0.1, T=0.0)
    with pytest.raises(ValueError, match="^T = -1.0 must be nonnegative"):
        QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=0.0, T=-1.0)
    # cosh 2r overflows a double from r = 355.24
    with pytest.raises(ValueError, match="^r = 360.0: cosh 2r overflows"):
        QndBathSpec(gamma0=0.025, omega_c=100.0, r=360.0)
    QndBathSpec(gamma0=0.025, omega_c=100.0, r=355.0)


@pytest.mark.parametrize("field", ["gamma0", "omega_c", "r", "a", "T"])
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
    [("gamma0", math.inf), ("r", math.nan), ("Phi", math.inf), ("T", math.nan),
     ("omega", math.nan)],
)
def test_bath_moments_reject_non_finite(field, value):
    kwargs = {"omega": 1.0, "gamma0": 0.25, "r": 0.5, "Phi": 0.3, "T": 10.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} = "):
        DissipativeBathSpec(**kwargs)


@pytest.mark.parametrize("r", [20.0, -20.0])
def test_dissipative_spec_names_squeezing_past_double_precision(r):
    # tanh|r| rounds to 1 from |r| = 19.07
    with pytest.raises(ValueError, match=f"^r = {r}: tanh"):
        DissipativeBathSpec(1.0, 0.25, r, 0.0, 0.0)
    DissipativeBathSpec(1.0, 0.25, math.copysign(19.0, r), 0.0, 0.0)


@pytest.mark.parametrize("r", [354.5, 355.0, -355.0])
@pytest.mark.parametrize("T", [0.0, 50.0])
def test_gamma_past_the_double_range_is_refused_by_name(r, T):
    # cosh 2r is still finite, but 2 cosh 2r f(omega_c t) is not (inf at
    # T = 0, inf - inf = nan at T > 0)
    spec = QndBathSpec(0.0025, 100.0, r=r, T=T)
    with pytest.raises(ValueError, match=rf"^gamma\(t\) = .* at r = {r}, T = {T}, t = 0.1;"):
        gamma_qnd(0.1, spec)
    below = QndBathSpec(0.0025, 100.0, r=math.copysign(353.0, r), T=T)
    assert math.isfinite(gamma_qnd(0.1, below))


@pytest.mark.parametrize("r, T_ok, T_over", [(1.0, 3.5e153, 3.6e153), (0.0, 1.3e154, 1.35e154),
                                             (-1.0, 3.5e153, 3.6e153)])
def test_dissipative_spec_names_a_temperature_whose_moments_overflow(r, T_ok, T_over):
    # N (N + 1), the bound on |M|^2, must be a double: just below the limit
    # the moments are finite, just above it T is named
    spec = DissipativeBathSpec(1.0, 0.025, r, 0.3, T_ok)
    assert math.isfinite(spec.N * (spec.N + 1.0)) and math.isfinite(abs(spec.M) ** 2)
    with pytest.raises(ValueError, match=re.escape(f"T = {T_over} with r = {r}: the bath")):
        DissipativeBathSpec(1.0, 0.025, r, 0.3, T_over)


def test_gamma_over_an_array_of_baths_is_the_gamma_of_each():
    # one array call: every entry with the closed form of its own T, T = 0
    # and T > 0 mixed, a > 0 and r < 0 included, and fig6's group of 164, r
    # over R_GRID for T = 0, 50, 100 and 1000; each entry is its bath's gamma
    # bit for bit
    fig6_r, fig6_T = (v.ravel() for v in np.meshgrid(R_GRID, [0.0, 50.0, 100.0, 1000.0]))
    groups = [
        ([0.0, 1.0, -1.5, 2.0, 0.5, 0.0], [0.0, 0.0, 0.05, 0.2, 0.0, 0.3],
         [0.0, 50.0, 0.0, 300.0, 1000.0, 100.0]),
        (fig6_r, np.zeros(164), fig6_T),
    ]
    for r, a, T in groups:
        spec = QndBathSpec(0.025, 100.0, r=np.array(r), a=np.array(a), T=np.array(T))
        for t in (0.7, 3.0):
            gamma = gamma_qnd(t, spec)
            assert gamma.shape == (len(r),)
            each = [gamma_qnd(t, QndBathSpec(0.025, 100.0, r=ri, a=ai, T=Ti))
                    for ri, ai, Ti in zip(r, a, T)]
            assert np.array_equal(gamma, each)
    assert isinstance(gamma_qnd(0.7, _spec(r=1.0)), float)


@pytest.mark.parametrize("field, values, message", [
    ("T", [0.0, 50.0, -1.0, -2.0], "T = -1.0 must be nonnegative"),
    ("a", [0.0, -0.5, 0.1], "a = -0.5 must be nonnegative"),
    ("r", [0.0, 1.0, 360.0], "r = 360.0: cosh 2r overflows"),
    ("r", [0.0, math.nan, 1.0], "r = nan must be finite"),
    ("T", [1.0, math.inf], "T = inf must be finite"),
])
def test_qnd_spec_over_an_array_names_the_first_entry_at_fault(field, values, message):
    kwargs = {"r": np.zeros(len(values)), field: np.array(values)}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        QndBathSpec(0.025, 100.0, **kwargs)


@pytest.mark.parametrize("T", [0.0, 50.0])
@pytest.mark.parametrize("t, omega_c", [(1e160, 100.0), (1e200, 100.0), (1e153, 1e3)])
def test_gamma_names_t_and_omega_c_when_omega_c_t_overflows(t, omega_c, T):
    # (omega_c t)^2 past the double range makes f infinite; lowering the bath
    # squeezing cannot help, so the refusal names t and omega_c
    spec = QndBathSpec(0.0025, omega_c, r=0.0, T=T)
    with pytest.raises(ValueError, match=re.escape(
            f"at t = {t}, omega_c = {omega_c}: (omega_c t)^2 overflows a double; "
            "lower t or omega_c")):
        gamma_qnd(t, spec)

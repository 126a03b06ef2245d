import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from phasediff.bath_kernels import DissipativeBathMoments
from phasediff.dissipative_oscillator import (
    GscsMixture,
    damping_coeffs,
    default_dissipative_cutoff,
    fock_density_from_gscs,
    gcs_displacement_matrix,
    mixture_params,
    oscillator_spec,
    phase_dist_osc_dissipative,
)
from phasediff.distribution import distribution_from_fourier
from phasediff.errors import ConsistencyError, TruncationError
from phasediff.oracle import integrate_lindblad_oscillator
from phasediff.phase_stats import dispersion, integrate_distribution
from phasediff.special_functions import squeezed_coherent_ket
from phasediff.validation import _exp_anti_hermitian, _squeeze_generator

GRID = 240


def _oracle_distribution(rho, t, grid):
    # P(theta) = <theta|rho_S|theta> / 2pi, with rho_S the Schroedinger-picture
    # density matrix of the interaction-picture rho (omega = 1)
    n = np.arange(rho.shape[0], dtype=float)
    rho_s = rho * np.exp(-1j * (n[:, None] - n[None, :]) * t)
    return distribution_from_fourier(rho_s / (2.0 * math.pi), grid)


def test_damping_coefficient_difference_is_gamma0():
    for r, T in ((0.0, 0.0), (0.0, 2.0), (1.0, 0.0), (1.5, 100.0)):
        spec = oscillator_spec(1.0, 0.25, r, 0.3, T)
        a, b = damping_coeffs(spec)
        # cosh^2 - sinh^2 = 1 exactly
        assert math.isclose(a - b, 0.25, rel_tol=1e-12)
        assert b >= -1e-15


def test_damping_beta_vanishes_at_zero_temperature():
    for r in (0.0, 0.5, 1.0, 2.0):
        spec = oscillator_spec(1.0, 0.25, r, 0.9, 0.0)
        _, b = damping_coeffs(spec)
        assert b == 0.0


def test_damping_coeffs_equal_squeezed_bath_form():
    # [DERIVED] the unreduced squeezed-bath expression, whose terms cancel
    # down to the thermal pair; agreement to a few ulps of the largest term
    for r in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        for T in (0.0, 0.5, 2.0, 10.0, 100.0, 300.0):
            for phi in (0.0, 0.7, -2.0):
                spec = oscillator_spec(1.0, 0.25, r, phi, T)
                g0, m, z = spec.gamma0, spec.moments, spec.zeta
                cross = 2.0 * (m.M * z.conjugate()).real
                cross *= math.sinh(2.0 * r) / (2.0 * r) if r > 0 else 1.0
                common = g0 * (m.N * math.cosh(2.0 * r) - cross)
                expected = (common + g0 * math.cosh(r) ** 2, common + g0 * math.sinh(r) ** 2)
                scale = g0 * (m.N * math.cosh(2.0 * r) + math.cosh(r) ** 2)
                for got, want in zip(damping_coeffs(spec), expected):
                    assert abs(got - want) <= 8 * np.finfo(float).eps * scale


def test_consistency_check_rejects_tampered_moments():
    # flipping the sign of M breaks the squeeze-frame consistency condition
    good = oscillator_spec(1.0, 0.25, 1.0, 0.3, 0.0).moments
    bad = DissipativeBathMoments(
        N=good.N, M=-good.M, N_th=good.N_th, r=good.r, Phi=good.Phi,
        T=good.T, omega=good.omega,
    )
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.3, 0.0)
    object.__setattr__(spec, "moments", bad)
    with pytest.raises(ConsistencyError):
        damping_coeffs(spec)


def test_mixture_at_time_zero_is_initial_state():
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.0, 2.0)
    mix = mixture_params(spec, 0.0, 1.0 + 0.5j)
    assert mix.beta_tilde == 0.0
    assert mix.eta_tilde == 1.0 + 0.5j


def test_gcs_displacement_matrix_is_unitary_in_window():
    # numerical unitarity of the displaced basis, window far below cutoff
    dm = gcs_displacement_matrix(0.8 - 0.3j, 60)[:, :15]
    assert np.max(np.abs(dm.conj().T @ dm - np.eye(15))) < 1e-10


@pytest.mark.parametrize("eta", [0.8 - 0.3j, 1.0, 0.3j, 1.8 + 0.4j])
def test_gcs_displacement_matrix_vs_expm_oracle(eta):
    # [DERIVED] exponential of eta a^dag - eta* a on a 500-level truncation
    a = np.diag(np.sqrt(np.arange(1.0, 500.0)), 1)
    oracle = expm(eta * a.T - np.conj(eta) * a)[:200, :200]
    assert np.max(np.abs(gcs_displacement_matrix(eta, 200) - oracle)) < 1e-12


def test_density_trace_hermiticity_positivity():
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.0, 0.0)
    mix = mixture_params(spec, 0.5, 1.0)
    rho = fock_density_from_gscs(mix, 60)
    assert abs(np.trace(rho).real - 1.0) < 1e-5
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10


@pytest.mark.parametrize("r,T,t,gamma0,cutoff", [
    pytest.param(1.0, 0.0, 0.1, 0.025, 40, id="1.0-0.0-0.1"),
    pytest.param(0.0, 1.0, 0.8, 0.025, 40, id="0.0-1.0-0.8"),
    # squeezed and hot: beta_tilde = 0.53, 35 thermal columns
    pytest.param(0.5, 5.0, 0.5, 0.25, 60, id="0.5-5.0-0.5"),
])
def test_density_matches_ode_oracle(r, T, t, gamma0, cutoff):
    # [DERIVED] direct integration of the oscillator master equation
    spec = oscillator_spec(1.0, gamma0, r, 0.0, T)
    rho0 = fock_density_from_gscs(mixture_params(spec, 0.0, 1.0), cutoff, trace_tol=1e-4)
    # the r = 1 start already holds ~2e-6 at level 39, so relax the leakage
    # monitor to the trace-distance scale this test asserts
    oracle = integrate_lindblad_oscillator(rho0, spec, t, cutoff, leakage_tol=1e-5)
    closed = fock_density_from_gscs(mixture_params(spec, t, 1.0), cutoff, trace_tol=1e-4)
    trace_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(closed - oracle))))
    assert trace_distance < 1e-4


def test_large_displacement_matches_eigh_oracle():
    # [DERIVED] at T = 0 the state is S(zeta) D(eta_tilde)|0>: a Poisson
    # coherent vector squeezed by the exact exponential on 700 levels, far
    # above the default cutoff (590); the squeeze-matrix columns were 2e-6
    # off here
    r, phi, eta0, t = 0.5, 0.3, math.sqrt(50.0), 0.1
    spec = oscillator_spec(1.0, 0.025, r, phi, 0.0)
    mix = mixture_params(spec, t, eta0)
    cutoff = default_dissipative_cutoff(mix, eta0)
    n = np.arange(700)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    eta = eta0 * math.exp(-spec.gamma0 * t / 2.0)
    coherent = np.exp(-eta * eta / 2.0 + n * math.log(eta) - 0.5 * log_fact)
    psi = (_exp_anti_hermitian(_squeeze_generator(700, r, phi)) @ coherent)[:cutoff]
    oracle = np.outer(psi, psi.conj())
    assert np.max(np.abs(fock_density_from_gscs(mix, cutoff) - oracle)) < 1e-13
    p = phase_dist_osc_dissipative(spec, eta0, t, grid=GRID)
    expected = _oracle_distribution(oracle, t, GRID)
    assert np.max(np.abs(p.values - expected.values)) < 1e-10
    assert abs(integrate_distribution(p) - 1.0) < 1e-12


def test_hot_state_matches_eigh_oracle():
    # [DERIVED] rho = (S D) diag(p) (S D)^dag with S(zeta) and D(a) both exact
    # exponentials on twice the default cutoff (593 levels here), weights
    # p_n = beta^n / (1 + beta)^(n+1) and a = eta0 e^{-gamma0 t / 2}; the
    # squeeze-matrix k-sum was 3.7e-6 off here
    r, phi, eta0, t, T = 0.5, 0.3, math.sqrt(50.0), 0.5, 20.0
    spec = oscillator_spec(1.0, 0.025, r, phi, T)
    mix = mixture_params(spec, t, eta0)
    cutoff = default_dissipative_cutoff(mix, eta0)
    levels, columns = 2 * cutoff, 40
    a = eta0 * math.exp(-spec.gamma0 * t / 2.0)
    lower = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    displace = _exp_anti_hermitian(a * lower.T - a * lower)[:, :columns]
    # the squeeze keeps parity: exponentiate its even and odd blocks apart
    gen, u = _squeeze_generator(levels, r, phi), np.empty_like(displace)
    for s in (slice(0, None, 2), slice(1, None, 2)):
        u[s] = _exp_anti_hermitian(gen[s, s]) @ displace[s]
    u = u[:cutoff]
    beta = mix.beta_tilde
    p = beta ** np.arange(columns) / (1.0 + beta) ** np.arange(1, columns + 1)
    oracle = (u * p) @ u.conj().T
    got = phase_dist_osc_dissipative(spec, eta0, t, grid=2880)
    expected = _oracle_distribution(oracle, t, 2880)
    assert np.max(np.abs(got.values - expected.values)) < 1e-12


@pytest.mark.parametrize("r", [1.75, 2.0])
def test_strong_squeezing_stays_finite_and_normalized(r):
    # default cutoffs 803 and 1298; the unnormalized Laguerre table overflowed here
    spec = oscillator_spec(1.0, 0.025, r, 0.0, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        p = phase_dist_osc_dissipative(spec, 1.0, 0.1, grid=2880)
        d = dispersion(p)
    assert np.all(np.isfinite(p.values))
    assert abs(integrate_distribution(p) - 1.0) < 1e-12
    assert 0.0 <= d <= 1.0


def test_long_time_thermal_state_is_uniform():
    spec = oscillator_spec(1.0, 0.25, 0.0, 0.0, 2.0)
    p = phase_dist_osc_dissipative(spec, 1.0, 60.0, grid=GRID)
    assert dispersion(p) > 0.999


def test_insufficient_cutoff_raises():
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 0.0)
    with pytest.raises(TruncationError):
        phase_dist_osc_dissipative(spec, 1.0, 0.1, cutoff=40, grid=GRID)


def test_two_cutoff_disagreement_names_the_cutoff_setting():
    # T > 0 with squeezing, where the default cutoff is too small
    spec = oscillator_spec(1, 0.25, 1.0, 0.3, 5.0)
    with pytest.raises(TruncationError, match=r"two-cutoff disagreement .*--cutoff"):
        phase_dist_osc_dissipative(spec, 1.0, 2.0)


def test_zero_temperature_allocates_no_cutoff_squared_array():
    # r = 2 needs about 1300 levels: psi psi^dag alone would take 27 MB
    spec = oscillator_spec(1.0, 0.025, 2.0, 0.0, 0.0)
    tracemalloc.start()
    try:
        phase_dist_osc_dissipative(spec, 1.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_hot_bath_allocates_no_cutoff_squared_array():
    # about 1300 levels and 9 thermal columns, streamed one at a time
    spec = oscillator_spec(1.0, 0.025, 2.0, 0.0, 5.0)
    tracemalloc.start()
    try:
        phase_dist_osc_dissipative(spec, 1.0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_zero_temperature_builds_one_ket_for_both_cutoffs():
    # the check at cutoff - 8 reads a prefix of the cutoff ket
    squeezed_coherent_ket.cache_clear()
    spec = oscillator_spec(1.0, 0.025, 0.9, 0.3, 0.0)
    phase_dist_osc_dissipative(spec, 1.0, 0.4, grid=GRID)
    assert squeezed_coherent_ket.cache_info().misses == 1


def test_cutoff_below_one_rejected():
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="cutoff = -3 must be positive"):
        phase_dist_osc_dissipative(spec, 1.0, 0.1, cutoff=-3, grid=GRID)


def test_default_cutoff_grows_with_squeezing():
    weak = GscsMixture(0.0, 1.0, 0.25 + 0j)
    strong = GscsMixture(0.0, 1.0, 1.5 + 0j)
    assert default_dissipative_cutoff(strong, 1.0) > default_dissipative_cutoff(weak, 1.0)


@pytest.mark.parametrize("args, field", [((math.nan, 0.025, 1.0, 0.0, 0.0), "omega"),
                                         ((1.0, math.inf, 1.0, 0.0, 0.0), "gamma0")])
def test_spec_rejects_non_finite(args, field):
    with pytest.raises(ValueError, match=f"^{field} = "):
        oscillator_spec(*args)


def test_coarse_grid_dispersion_error_names_the_grid():
    # at r = 1.5 the state has Fourier content far above N = 180, which
    # aliases into the Riemann sum; the error must point at the grid
    spec = oscillator_spec(1.0, 0.025, 1.5, 0.0, 0.0)
    p = phase_dist_osc_dissipative(spec, 1.0, 0.1, grid=180)
    with pytest.raises(ValueError, match=r"N = 180 points; raise the grid size \(--grid\)"):
        dispersion(p)

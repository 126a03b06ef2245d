import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from phasediff.dissipative_oscillator import (
    GscsMixture,
    default_dissipative_cutoff,
    fock_density_from_gscs,
    gcs_displacement_matrix,
    mixture_params,
    oscillator_spec,
    phase_dist_osc_dissipative,
)
from phasediff.distribution import distribution_from_fourier, samples
from phasediff.errors import TruncationError
from phasediff.oracle import integrate_lindblad_oscillator
from phasediff.phase_stats import audit_normalization, dispersion, integrate_distribution
from phasediff.special_functions import squeezed_coherent_ket
from phasediff.validation import _squeeze_exponential

GRID = 240


def _oracle_distribution(rho, t):
    # P(theta) = <theta|rho_S|theta> / 2pi, with rho_S the Schroedinger-picture
    # density matrix of the interaction-picture rho (omega = 1)
    n = np.arange(rho.shape[0], dtype=float)
    rho_s = rho * np.exp(-1j * (n[:, None] - n[None, :]) * t)
    return distribution_from_fourier(rho_s / (2.0 * math.pi))


# the bath grid of the identities below; a negative r is |r| at phase Phi + pi
R_VALUES = (-2.0, -0.5, 0.0, 0.5, 2.0)
PHI_VALUES = (0.0, 0.7, -2.0)
T_VALUES = (0.0, 2.0, 300.0)


def test_damping_beta_vanishes_at_zero_temperature():
    # exactly: the T = 0 ket branch keys on beta_tilde == 0.0
    for r in R_VALUES:
        spec = oscillator_spec(1.0, 0.25, r, 0.9, 0.0)
        for t in (0.0, 0.5, 10.0):
            assert mixture_params(spec, t, 1.0).beta_tilde == 0.0


def test_damping_coeffs_equal_squeezed_bath_form():
    # [DERIVED] beta_tilde = (beta_coef / gamma0) (1 - e^{-gamma0 t}) with the
    # unreduced squeezed-bath coefficient gamma0 [N cosh 2r - Re(M zeta*)
    # sinh 2r / r + sinh^2 r], whose terms cancel down to gamma0 N_th;
    # agreement to a few ulps of the largest term
    for r in R_VALUES:
        for T in T_VALUES:
            for phi in PHI_VALUES:
                spec = oscillator_spec(1.0, 0.25, r, phi, T)
                g0, z = spec.gamma0, r * complex(math.cos(phi), math.sin(phi))
                cross = 2.0 * (spec.M * z.conjugate()).real
                cross *= math.sinh(2.0 * r) / (2.0 * r) if r != 0 else 1.0
                beta_coef = g0 * (spec.N * math.cosh(2.0 * r) - cross + math.sinh(r) ** 2)
                scale = g0 * (spec.N * math.cosh(2.0 * r) + math.cosh(r) ** 2)
                for t in (0.0, 0.5, 4.0):
                    decay = -math.expm1(-g0 * t)
                    got = mixture_params(spec, t, 1.0).beta_tilde
                    assert abs(got - beta_coef / g0 * decay) <= 8 * np.finfo(float).eps * scale


def test_bath_moments_satisfy_squeeze_frame_consistency():
    # [DERIVED] M coth|zeta| / u + u M* tanh|zeta| = 2N + 1, u = zeta/|zeta|:
    # the identity that turns the squeezed bath into a thermal one in the
    # frame of S(zeta); M = 0 and N = N_th without squeezing
    for r in R_VALUES:
        for T in T_VALUES:
            for phi in PHI_VALUES:
                spec = oscillator_spec(1.0, 0.25, r, phi, T)
                if r == 0:
                    assert spec.M == 0 and spec.N == spec.N_th
                    continue
                u = math.copysign(1.0, r) * complex(math.cos(phi), math.sin(phi))
                mag = abs(r)
                lhs = spec.M / u / math.tanh(mag) + u * spec.M.conjugate() * math.tanh(mag)
                assert abs(lhs - (2.0 * spec.N + 1.0)) <= 1e-14 * (2.0 * spec.N + 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_mixture_rejects_non_finite_time(t):
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="must be finite"):
        mixture_params(spec, t, 1.0)


def test_mixture_at_time_zero_is_initial_state():
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.0, 2.0)
    mix = mixture_params(spec, 0.0, 1.0 + 0.5j)
    assert mix.beta_tilde == 0.0
    assert mix.a == 1.0 + 0.5j


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
    # squeezed and hot: beta_tilde = 0.53
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
    # [DERIVED] at T = 0 the state is S(zeta) D(a)|0>: a Poisson
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
    psi = _squeeze_exponential(700, r, phi, coherent)[:cutoff]
    oracle = np.outer(psi, psi.conj())
    assert np.max(np.abs(fock_density_from_gscs(mix, cutoff) - oracle)) < 1e-13
    p = phase_dist_osc_dissipative(spec, eta0, t)
    expected = _oracle_distribution(oracle, t)
    assert np.max(np.abs(samples(p, GRID) - samples(expected, GRID))) < 1e-10
    assert abs(integrate_distribution(p) - 1.0) < 1e-12


def test_hot_state_matches_eigh_oracle(hot_state_oracle):
    # 593 default levels; the squeeze-matrix k-sum was 3.7e-6 off here
    r, phi, eta0, t, T = 0.5, 0.3, math.sqrt(50.0), 0.5, 20.0
    spec = oscillator_spec(1.0, 0.025, r, phi, T)
    cutoff = default_dissipative_cutoff(mixture_params(spec, t, eta0), eta0)
    _, oracle = hot_state_oracle(spec, eta0, t, cutoff, 2 * cutoff, 40)
    got = samples(phase_dist_osc_dissipative(spec, eta0, t), 2880)
    assert np.max(np.abs(got - samples(oracle, 2880))) < 1e-12


def test_hot_density_with_complex_displacement_matches_eigh_oracle(hot_state_oracle):
    # Phi != 0 with a complex eta0: the point where the recurrence's b
    # conjugated would be off by order 0.1; r = -0.8 is |r| at Phi + pi
    eta0, t = 2.0 + 1.5j, 0.5
    for r in (0.8, -0.8):
        spec = oscillator_spec(1.0, 0.25, r, -1.1, 5.0)
        mix = mixture_params(spec, t, eta0)
        # twice the default cutoff (211), which fails the two-cutoff check here
        cutoff = 2 * default_dissipative_cutoff(mix, eta0)
        oracle, expected = hot_state_oracle(spec, eta0, t, cutoff, 2 * cutoff, 60)
        assert np.max(np.abs(fock_density_from_gscs(mix, cutoff) - oracle)) < 1e-12
        got = phase_dist_osc_dissipative(spec, eta0, t, cutoff)
        assert np.max(np.abs(samples(got, 720) - samples(expected, 720))) < 1e-12


def test_row_past_the_density_bound_names_the_cutoff_setting():
    # beta_tilde = 0.5, |a|^2 = 200 and r = 1 need about 2500 levels; at
    # 30000 the forward recurrence grows past |rho_mn| = 1 near row 1500,
    # long before it could overflow
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 5.0)
    t = -math.log(1.0 - 0.5 / spec.N_th) / spec.gamma0
    eta0 = math.sqrt(200.0) * math.exp(spec.gamma0 * t / 2.0)
    with pytest.raises(TruncationError, match=r"row \d+ reaches .*\(--cutoff, currently 30000\)"):
        phase_dist_osc_dissipative(spec, eta0, t, cutoff=30000)


@pytest.mark.parametrize("r", [1.75, 2.0])
def test_strong_squeezing_stays_finite_and_normalized(r):
    # default cutoffs 803 and 1298; the unnormalized Laguerre table overflowed here
    spec = oscillator_spec(1.0, 0.025, r, 0.0, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        p = phase_dist_osc_dissipative(spec, 1.0, 0.1)
        d = dispersion(p)
    assert np.all(np.isfinite(samples(p, 2880)))
    assert abs(integrate_distribution(p) - 1.0) < 1e-12
    assert 0.0 <= d <= 1.0


def test_long_time_thermal_state_is_uniform():
    spec = oscillator_spec(1.0, 0.25, 0.0, 0.0, 2.0)
    p = phase_dist_osc_dissipative(spec, 1.0, 60.0)
    assert dispersion(p) > 0.999


def test_insufficient_cutoff_raises():
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 0.0)
    with pytest.raises(TruncationError):
        phase_dist_osc_dissipative(spec, 1.0, 0.1, cutoff=40)


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
    # about 1300 levels, streamed two rows at a time
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
    phase_dist_osc_dissipative(spec, 1.0, 0.4)
    assert squeezed_coherent_ket.cache_info().misses == 1


@pytest.mark.parametrize("r, Phi", [(0.9, 0.0), (0.5, 0.7), (-0.6, 0.3)])
def test_ket_and_row_branches_apply_the_same_free_evolution(r, Phi):
    # at T = 0.03 beta_tilde is about 1e-16, so the rows branch computes a
    # state that equals the T = 0 ket's to rounding: the coefficients agree
    # only if both branches put in the same e^{i omega t d}
    eta0, t = math.sqrt(2.0), 1.3
    cold, warm = (oscillator_spec(1.0, 0.025, r, Phi, T) for T in (0.0, 0.03))
    assert mixture_params(cold, t, eta0).beta_tilde == 0.0
    assert 0.0 < mixture_params(warm, t, eta0).beta_tilde < 1e-15
    ket = phase_dist_osc_dissipative(cold, eta0, t)
    rows = phase_dist_osc_dissipative(warm, eta0, t)
    assert ket.shape == rows.shape
    assert np.max(np.abs(ket - rows)) <= 1e-14


def test_cutoff_below_one_rejected():
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="cutoff = -3 must be positive"):
        phase_dist_osc_dissipative(spec, 1.0, 0.1, cutoff=-3)


@pytest.mark.parametrize("cutoff", [0, -3])
def test_density_cutoff_below_one_rejected(cutoff):
    # the row recurrences start from one amplitude, so cutoff 0 built a 1 x 1
    # state and failed its trace check instead of naming the cutoff
    mix = mixture_params(oscillator_spec(1.0, 0.025, 1.0, 0.0, 5.0), 0.1, 1.0)
    with pytest.raises(ValueError, match=f"^cutoff = {cutoff} must be positive$"):
        fock_density_from_gscs(mix, cutoff)


@pytest.mark.parametrize("T", [0.0, 5.0])
@pytest.mark.parametrize("cutoff", range(1, 9))
def test_cutoff_of_eight_or_less_is_refused_by_name(cutoff, T):
    # the check cutoff is cutoff - 8, so these leave nothing to compare with
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, T)
    with pytest.raises(
        TruncationError, match=rf"no check cutoff .*\(--cutoff, currently {cutoff}\)$"
    ):
        phase_dist_osc_dissipative(spec, 1.0, 0.1, cutoff=cutoff)


def test_default_cutoff_grows_with_squeezing():
    weak = GscsMixture(0.0, 1.0, 0.25 + 0j)
    strong = GscsMixture(0.0, 1.0, 1.5 + 0j)
    assert default_dissipative_cutoff(strong, 1.0) > default_dissipative_cutoff(weak, 1.0)


@pytest.mark.parametrize("args, field", [((math.nan, 0.025, 1.0, 0.0, 0.0), "omega"),
                                         ((1.0, math.inf, 1.0, 0.0, 0.0), "gamma0")])
def test_spec_rejects_non_finite(args, field):
    with pytest.raises(ValueError, match=f"^{field} = "):
        oscillator_spec(*args)


@pytest.mark.parametrize("gamma0", [0.0, -0.25])
def test_spec_rejects_nonpositive_damping(gamma0):
    with pytest.raises(ValueError, match=f"^gamma0 = {gamma0} must be positive"):
        oscillator_spec(1.0, gamma0, 1.0, 0.0, 0.0)


def test_coarse_grid_dispersion_error_names_the_grid():
    # at r = 1.5 the state has Fourier content far above N = 180, which
    # aliases into the Riemann sum of 180 samples: writing those samples is
    # refused with an error that points at the grid, while the dispersion
    # reads the exact c_0 and c_{+-1} and needs no grid
    spec = oscillator_spec(1.0, 0.025, 1.5, 0.0, 0.0)
    p = phase_dist_osc_dissipative(spec, 1.0, 0.1)
    with pytest.raises(ValueError, match=r"N = 180 points; raise the grid size \(--grid\)"):
        audit_normalization(p, 180)
    assert abs(integrate_distribution(p) - 1.0) < 1e-12
    assert 0.0 <= dispersion(p) <= 1.0

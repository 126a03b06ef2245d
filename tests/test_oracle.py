import math

import numpy as np
import pytest

from phasediff import oracle
from phasediff.bath_kernels import QndBathSpec, gamma_qnd
from phasediff.dissipative_qubit import propagate_qubit, qubit_spec
from phasediff.dissipative_oscillator import (
    fock_density_from_gscs,
    mixture_params,
    oscillator_spec,
)
from phasediff.distribution import samples
from phasediff.errors import DomainError
from phasediff.oracle import (
    _gauss_legendre,
    dormand_prince,
    expm_taylor,
    gamma_by_quadrature,
    integrate_lindblad_oscillator,
    integrate_lindblad_qubit,
    oscillator_rhs,
    phase_dist_by_quadrature,
    qubit_liouvillian,
)
from phasediff.qnd_phase import (
    AtomicCoherentParams,
    atomic_coherent_density,
    phase_distribution_atomic,
)


def test_qubit_oracle_amplitude_damping():
    # [TRIVIAL] N = M = 0, start excited: rho_11(t) = e^{-gamma0 t}
    spec = qubit_spec(1.0, 0.25, 0.0, 0.0, 0.0)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    out = integrate_lindblad_qubit(rho0, spec, 2.0)
    assert abs(out[1, 1].real - math.exp(-0.5)) < 1e-9


def test_qubit_oracle_unitary_rotation():
    # [TRIVIAL] gamma0 = 0: coherence rotates at frequency omega
    spec = qubit_spec(1.5, 1e-300, 0.0, 0.0, 0.0)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = integrate_lindblad_qubit(rho0, spec, 1.0)
    assert abs(out[1, 0] - 0.5 * np.exp(-1.5j)) < 1e-9


def test_qubit_oracle_conserves_trace():
    spec = qubit_spec(1.0, 0.25, 1.0, 0.3, 300.0)
    rho0 = np.array([[0.3, 0.2j], [-0.2j, 0.7]], dtype=complex)
    out = integrate_lindblad_qubit(rho0, spec, 5.0)
    assert abs(np.trace(out).real - 1.0) < 1e-9


RHO0_QUBIT = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)


def test_qubit_oracle_at_exceptional_point():
    # gamma0 |M| = omega: alpha^2 = 0 and the generator is defective, where
    # an eigendecomposition would fail and the Taylor exponential does not
    big_m = qubit_spec(1.0, 0.25, 1.0, math.pi / 8, 0.0).M
    spec = qubit_spec(1.0, 1.0 / abs(big_m), 1.0, math.pi / 8, 0.0)
    assert abs(spec.gamma0**2 * abs(spec.M) ** 2 - spec.omega**2) < 1e-14
    for t in (0.3, 1.0, 5.0):
        oracle = integrate_lindblad_qubit(RHO0_QUBIT, spec, t)
        closed = propagate_qubit(RHO0_QUBIT, spec, t)
        assert np.max(np.abs(oracle - closed)) <= 1e-10


def test_qubit_oracle_stiff_hot_squeezed():
    # r = 2, T = 300: gamma_beta t is about 1e4, so e^{L t} takes many squarings
    spec = qubit_spec(1.0, 0.25, 2.0, math.pi / 8, 300.0)
    oracle = integrate_lindblad_qubit(RHO0_QUBIT, spec, 5.0)
    closed = propagate_qubit(RHO0_QUBIT, spec, 5.0)
    assert np.max(np.abs(oracle - closed)) <= 1e-10


@pytest.mark.parametrize("r, temp, t", [(0.0, 0.0, 1.5), (1.0, 0.0, 0.7), (0.5, 100.0, 5.0)])
def test_expm_taylor_matches_scipy_on_qubit_generator(r, temp, t):
    linalg = pytest.importorskip("scipy.linalg")
    gen = qubit_liouvillian(qubit_spec(1.0, 0.25, r, math.pi / 8, temp)) * t
    assert np.max(np.abs(expm_taylor(gen) - linalg.expm(gen))) <= 1e-13


def _dense_oscillator_rhs(spec, rho):
    # the master equation as written, from dense truncated a and a^dag
    cutoff = len(rho)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    ad = a.conj().T
    g0, big_n, big_m = spec.gamma0, spec.N, spec.M

    def dissipator(c1, c2):
        # c1 rho c2 - {c2 c1, rho} / 2
        return c1 @ rho @ c2 - 0.5 * (c2 @ c1 @ rho + rho @ c2 @ c1)

    return g0 * (
        (big_n + 1) * dissipator(a, ad)
        + big_n * dissipator(ad, a)
        + big_m * dissipator(ad, ad)
        + big_m.conjugate() * dissipator(a, a)
    )


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("r, phi, temp", [
    (1.0, 0.7, 1.0), (0.0, 0.0, 1.0), (0.5, -2.0, 0.0), (1.0, 0.0, 1.0), (-0.5, 0.0, 0.0),
])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5, 30])
def test_oscillator_rhs_matches_dense_operators(cutoff, r, phi, temp, hermitian):
    # complex M at r > 0, M = 0 at r = 0; below cutoff 6 the offsets +-2,
    # +-(c + 1) and +-(c - 1) wrap into neighbouring rows of the flat vector.
    # Phi = 0 makes M real, positive at r = 1 and negative at r = -0.5 (the
    # bath Phi = pi, whose e^{i pi} would leave Im M = 7e-17); there the
    # real right-hand side on the real part of rho is checked too
    spec = oscillator_spec(1.0, 0.25, r, phi, temp)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    if hermitian:
        rho = x @ x.conj().T
        rho /= np.trace(rho)
    else:
        rho = x
    cases = [(complex, rho)] + ([(float, rho.real)] if spec.M.imag == 0 else [])
    for dtype, state in cases:
        dense = _dense_oscillator_rhs(spec, state)
        ours = oscillator_rhs(spec, cutoff, dtype)(0.0, state.ravel())
        assert ours.dtype == dtype
        scale = 1.0 if hermitian else max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(ours.reshape(cutoff, cutoff) - dense)) <= 1e-14 * scale


def test_dormand_prince_rejects_non_finite_error_estimate():
    # a NaN slope makes the error estimate NaN, which no step-size rule rejects
    with pytest.raises(RuntimeError, match="non-finite error estimate"):
        dormand_prince(lambda _t, y: np.full_like(y, np.nan), np.ones(3), 0.0, 1.0, 1e-10, 1e-12)


@pytest.mark.parametrize("t, error, message", [
    pytest.param(math.nan, ValueError, "must be finite", id="nan"),
    pytest.param(math.inf, ValueError, "must be finite", id="inf"),
    pytest.param(-0.5, DomainError, "must be nonnegative", id="negative"),
])
def test_oracles_reject_bad_time(t, error, message):
    # the oscillator oracle grew its step for ever at t = inf and returned
    # rho0 at t = nan or t < 0; the qubit oracle returned a NaN matrix at
    # t = nan and back-propagated at t < 0
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(error, match=message):
        integrate_lindblad_oscillator(rho0, oscillator_spec(1.0, 0.25, 0.0, 0.0, 1.0), t, 12)
    with pytest.raises(error, match=message):
        integrate_lindblad_qubit(RHO0_QUBIT, qubit_spec(1.0, 0.25, 1.0, 0.3, 0.0), t)


def test_oscillator_oracle_time_zero_identity():
    spec = oscillator_spec(1.0, 0.25, 0.0, 0.0, 1.0)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    assert np.array_equal(integrate_lindblad_oscillator(rho0, spec, 0.0, 12), rho0)


def test_oscillator_oracle_thermalizes_vacuum():
    # r = 0, T > 0: detailed-balance fixed point is the thermal state
    spec = oscillator_spec(1.0, 1.0, 0.0, 0.0, 1.0)
    nth = spec.N_th
    cutoff = 25
    rho0 = np.zeros((cutoff, cutoff), dtype=complex)
    rho0[0, 0] = 1.0
    out = integrate_lindblad_oscillator(rho0, spec, 25.0, cutoff)
    n = np.arange(cutoff)
    thermal = (nth / (nth + 1.0)) ** n / (nth + 1.0)
    assert np.max(np.abs(np.diag(out).real - thermal)) < 1e-7
    assert abs(np.trace(out).real - 1.0) < 1e-9


def _record_rhs_dtypes(monkeypatch):
    # the arithmetic each oscillator_rhs the oracle builds is asked for
    dtypes = []
    rhs = oracle.oscillator_rhs

    def recorded(spec, cutoff, dtype=complex):
        dtypes.append(np.dtype(dtype))
        return rhs(spec, cutoff, dtype)

    monkeypatch.setattr(oracle, "oscillator_rhs", recorded)
    return dtypes


@pytest.mark.parametrize("r, temp, eta0, t", [(1.0, 0.0, 1.0, 0.5), (0.0, 1.0, 1.0, 0.8)])
def test_real_problem_integrates_in_real_arithmetic(monkeypatch, r, temp, eta0, t):
    # validate's two mixture points: Phi = 0 and a real eta0 make M and rho0
    # real, so the oracle runs in float64 and still returns what the complex
    # right-hand side gives
    spec = oscillator_spec(1.0, 0.25, r, 0.0, temp)
    rho0 = fock_density_from_gscs(mixture_params(spec, 0.0, eta0), 60, trace_tol=1e-4)
    dtypes = _record_rhs_dtypes(monkeypatch)
    ours = integrate_lindblad_oscillator(rho0, spec, t, 60, leakage_tol=1e-5)
    assert dtypes == [np.dtype(float)] and ours.dtype == complex
    ref = dormand_prince(oscillator_rhs(spec, 60), rho0.ravel(), 0.0, t, 1e-10, 1e-12)
    assert np.max(np.abs(ours.ravel() - ref)) <= 1e-14


def test_complex_bath_keeps_complex_arithmetic(monkeypatch):
    # Phi = 0.7 makes M complex, and a real rho0 gains imaginary parts
    spec = oscillator_spec(1.0, 0.25, 1.0, 0.7, 1.0)
    cutoff, t = 30, 0.5
    rho0 = np.zeros((cutoff, cutoff), dtype=complex)
    rho0[0, 0] = 1.0
    dtypes = _record_rhs_dtypes(monkeypatch)
    ours = integrate_lindblad_oscillator(rho0, spec, t, cutoff)
    assert dtypes == [np.dtype(complex)]
    assert np.max(np.abs(ours.imag)) > 1e-2

    def dense(_t, y):
        return _dense_oscillator_rhs(spec, y.reshape(cutoff, cutoff)).ravel()

    ref = dormand_prince(dense, rho0.ravel(), 0.0, t, 1e-10, 1e-12)
    assert np.max(np.abs(ours.ravel() - ref)) <= 1e-12


def test_real_right_hand_side_needs_real_m():
    with pytest.raises(ValueError, match="complex"):
        oscillator_rhs(oscillator_spec(1.0, 0.25, 1.0, 0.7, 1.0), 12, float)


def test_quadrature_distribution_fock_state_uniform():
    p = phase_dist_by_quadrature(np.diag([0, 1, 0]).astype(complex), 60)
    assert np.max(np.abs(samples(p, 60) - 1.0 / (2.0 * math.pi))) < 1e-10


def test_quadrature_distribution_matches_beta_closed_form():
    # [DERIVED] adjudicates the Beta-integral pipeline at j = 1/2
    rho = atomic_coherent_density(AtomicCoherentParams(1.1, 0.6), 0.5)
    quad = samples(phase_dist_by_quadrature(rho, 90), 90)
    beta = samples(phase_distribution_atomic(rho), 90)
    assert np.max(np.abs(quad - beta)) < 1e-9


def test_gamma_quadrature_trivial_log_case():
    spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=0.0, T=0.0)
    t = 0.7
    expected = (0.025 / (2.0 * math.pi)) * math.log(1.0 + (100.0 * t) ** 2)
    assert abs(gamma_by_quadrature(t, spec) - expected) < 1e-8 * expected


def _kernel_grid(omega_c, rs, ts):
    for T in (0.0, 100.0):
        for r in rs:
            for a in (0.0, 0.05):
                spec = QndBathSpec(gamma0=0.025, omega_c=omega_c, r=r, a=a, T=T)
                for t in ts:
                    yield t, spec


def test_gamma_quadrature_matches_closed_form_to_1e_10():
    # criterion 2's grid, from just outside the light cone t = 2a out to t = 10
    worst = max(
        abs(gamma_by_quadrature(t, spec) / gamma_qnd(t, spec) - 1.0)
        for t, spec in _kernel_grid(100.0, (0.0, 1.0, 2.0), (0.11, 0.2, 1.0, 5.0, 10.0))
    )
    assert worst <= 1e-10


def test_gamma_quadrature_resolves_a_narrow_cutoff():
    # omega_c below the oscillation period: the panels shrink to the cutoff
    worst = max(
        abs(gamma_by_quadrature(t, spec) / gamma_qnd(t, spec) - 1.0)
        for t, spec in _kernel_grid(0.1, (0.0, 2.0), (0.11, 1.0, 10.0))
    )
    assert worst <= 1e-8


def test_gamma_quadrature_over_bath_arrays_equals_one_bath_calls():
    # one node set per (t, a) serves every bath of an array call, and each
    # entry is the number call's float bit for bit, T = 0 and T > 0 mixed
    rs = np.array([[0.0], [1.0], [-0.7], [2.0]])
    temps = np.array([0.0, 100.0, 3.5])
    for a, t in ((0.0, 0.2), (0.0, 5.0), (0.05, 1.0), (0.3, 0.7)):
        group = gamma_by_quadrature(t, QndBathSpec(0.025, 100.0, rs, a, temps))
        one = [[gamma_by_quadrature(t, QndBathSpec(0.025, 100.0, float(r), a, float(T)))
                for T in temps] for r in rs[:, 0]]
        assert group.shape == (4, 3) and np.array_equal(group, one)
        # one entry per bath: r and T paired rather than crossed
        paired = gamma_by_quadrature(t, QndBathSpec(0.025, 100.0, rs[:3, 0], a, temps))
        assert np.array_equal(paired, np.diagonal(group))
    for T in (0.0, 3.5):  # a bath of numbers gives one float
        assert isinstance(gamma_by_quadrature(1.0, QndBathSpec(0.025, 100.0, 1.0, 0.05, T)), float)
    # the refusals of a bath of numbers
    spec = QndBathSpec(0.025, 100.0, rs, 0.3, temps)
    with pytest.raises(DomainError, match=r"undefined for t = 0.5 <= 2a = 0.6"):
        gamma_by_quadrature(0.5, spec)
    with pytest.raises(DomainError, match="must be nonnegative"):
        gamma_by_quadrature(-0.5, spec)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            gamma_by_quadrature(t, spec)


def test_gamma_quadrature_builds_its_nodes_once(cold_caches):
    # 16 kernels read one cached, read-only set of 10 Gauss-Legendre nodes
    for t, spec in _kernel_grid(100.0, (0.0, 1.0), (0.2, 1.0)):
        gamma_by_quadrature(t, spec)
    info = _gauss_legendre.cache_info()
    assert (info.misses, info.hits) == (1, 15)
    nodes, weights = _gauss_legendre(10)
    for array in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("n", [10, 36, 72])
def test_gauss_legendre_matches_mpmath(n):
    # 40-digit roots of mpmath's P_n, each found by the secant method from the
    # guess cos(pi (k - 1/4) / (n + 1/2)); strictly ascending, so all n are
    # found.  The weight at a root x is 2 (1 - x^2) / (n P_{n-1}(x))^2.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        guesses = [mpmath.cos(mpmath.pi * (k - 0.25) / (n + 0.5)) for k in range(n, 0, -1)]
        roots = [mpmath.findroot(lambda x: mpmath.legendre(n, x), (g, g * (1 - 1e-4)))
                 for g in guesses]
        exact = [2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2 for x in roots]
    assert all(a < b for a, b in zip(roots, roots[1:]))
    nodes, weights = _gauss_legendre(n)
    assert np.max(np.abs(nodes - np.array(roots, dtype=float))) <= 1e-15
    assert max(float(abs(w / e - 1)) for w, e in zip(weights, exact)) <= 1e-12


def test_gamma_quadrature_rejects_negative_time():
    spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=0.0, T=0.0)
    with pytest.raises(DomainError):
        gamma_by_quadrature(-0.5, spec)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_gamma_quadrature_rejects_non_finite_time(t):
    spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=0.0, a=0.0, T=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        gamma_by_quadrature(t, spec)

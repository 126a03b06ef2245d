import math
import re
import tracemalloc

import numpy as np
import pytest

from phasediff.distribution import distribution_from_fourier, phase_grid, samples
from phasediff.errors import TruncationError
from phasediff.figures import SCENARIOS, SWEEP_FAMILIES, _kernels, run_figure
from phasediff.phase_stats import dispersion, integrate_distribution
from phasediff.qnd_phase import (
    _dephasing_factor,
    _dipole_weights,
    _wigner_row,
    AtomicCoherentParams,
    AtomicSqueezedParams,
    atomic_coherent_amplitudes,
    atomic_coherent_density,
    atomic_squeezed_amplitudes,
    atomic_squeezed_density,
    phase_dist_atomic_squeezed,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
    phase_distribution_atomic,
    qnd_evolve,
)
from phasediff.special_functions import (
    beta_integral,
    log_binomial,
    squeezed_coherent_ket,
    wigner_d_half_pi,
)
from paper_forms import coherent_halfspin, squeezed_halfspin, two_atoms

GRID = 240


def test_coherent_amplitudes_normalized():
    for j in (0.5, 1, 2.5, 5):
        amps = atomic_coherent_amplitudes(AtomicCoherentParams(1.1, 2.3), j)
        assert math.isclose(float(np.sum(np.abs(amps) ** 2)), 1.0, rel_tol=1e-12)


def test_coherent_poles():
    # alpha_p = 0 is the south pole |j,-j>, alpha_p = pi the north pole |j,j>
    amps = atomic_coherent_amplitudes(AtomicCoherentParams(0.0, 0.0), 2)
    assert amps[0] == 1.0 and np.all(amps[1:] == 0.0)
    amps = atomic_coherent_amplitudes(AtomicCoherentParams(math.pi, 0.0), 2)
    assert np.all(np.abs(amps[:-1]) < 1e-15) and abs(abs(amps[-1]) - 1.0) < 1e-15


def test_squeezed_amplitudes_reduce_to_rotation_column():
    # Theta = 0: amplitudes are the Wigner-d column, already normalized
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(3, 1, 0.0))
    expected = [wigner_d_half_pi(6, 2 * n - 6, 2) for n in range(7)]
    assert np.max(np.abs(amps - np.array(expected))) < 1e-13


def test_squeezed_half_spin_populations():
    # j = p = 1/2: p(m) proportional to e^{2 m Theta}
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(0.5, 0.5, 0.3))
    ratio = (amps[1] / amps[0]) ** 2
    assert math.isclose(ratio, math.exp(2.0 * 0.3), rel_tol=1e-12)


def test_dicke_diagonal_gives_uniform_distribution():
    p = phase_distribution_atomic(np.diag([0, 0, 1, 0, 0]).astype(complex))
    assert np.max(np.abs(samples(p, GRID) - 1.0 / (2.0 * math.pi))) < 1e-14


def test_qnd_evolution_preserves_populations():
    rho0 = atomic_squeezed_density(AtomicSqueezedParams(5, 5, -0.01832))
    rho_t = qnd_evolve(rho0, 1.0, 0.7, 0.01, 0.02)
    assert np.max(np.abs(np.diag(rho_t) - np.diag(rho0))) < 1e-15
    # still a density matrix: Hermitian, unit trace, no negative eigenvalue
    assert np.max(np.abs(rho_t - rho_t.conj().T)) <= 1e-12
    assert abs(np.trace(rho_t).real - 1.0) <= 1e-12 and abs(np.trace(rho_t).imag) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho_t)) >= -1e-10


@pytest.mark.parametrize("shape", [(11,), (1, 11), (11, 10), (0, 0), (1, 11, 11)])
def test_dicke_entry_points_reject_non_square_arrays(shape):
    # a (1, 11) array would broadcast against the 11 x 11 dephasing factor
    rho = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=f"square and nonempty, got shape {re.escape(str(shape))}"):
        qnd_evolve(rho, 1.0, 0.7, 0.01, 0.02)
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(shape))}"):
        phase_distribution_atomic(rho)


def test_largest_spin_computes_and_integrates_to_one():
    # 2j = 1028 is the largest spin whose dipole weights fit a double
    state = AtomicSqueezedParams(514, 514, -0.01832)
    p = phase_dist_atomic_squeezed(state, 1.0, 0.1, -1e-3, 1e-2)
    assert abs(integrate_distribution(p) - 1.0) <= 1e-6


def test_spin_past_the_dipole_weights_is_refused_by_name():
    # at 2j = 1029 the largest weight overflows, and inf * 0 made P NaN; the
    # CLI test covers AtomicSqueezedParams
    with pytest.raises(ValueError, match=r"^j = 514\.5 exceeds 514"):
        atomic_coherent_amplitudes(AtomicCoherentParams(1.0, 0.3), 514.5)
    with pytest.raises(ValueError, match=r"^j = 514\.5 of a 1030 x 1030 Dicke matrix exceeds 514"):
        phase_distribution_atomic(np.eye(1030, dtype=complex))


def test_astronomical_spin_is_refused_on_construction():
    # listing its 2e300 + 1 labels would run until the process is killed
    with pytest.raises(ValueError, match=r"^j = 1e\+300 exceeds 514"):
        AtomicSqueezedParams(1e300, 1e300, 0.0)


def test_half_spin_coherent_closed_form_vs_machinery():
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    omega, t, ga = 1.0, 0.3, 0.02
    rho = qnd_evolve(atomic_coherent_density(state, 0.5), omega, t, 0.0, ga)
    machinery = samples(phase_distribution_atomic(rho), GRID)
    closed = samples(phase_dist_coherent_halfspin(state, omega, t, ga), GRID)
    assert np.max(np.abs(machinery - closed)) < 1e-13


@pytest.mark.parametrize("n", [8, 240, 720])
@pytest.mark.parametrize("omega, t, eta_t, gamma_t", [
    (1.0, 0.4, 0.003, 0.01),
    (1.3, 0.7, -4e-3, 0.05),
    (1.2, 0.9, 0.17, 0.04),
])
@pytest.mark.parametrize("Theta", [0.3, -0.7, 1.2])
@pytest.mark.parametrize("j, p", [(0.5, 0.5), (0.5, -0.5), (1, 1), (1, -1), (1, 0)])
def test_atomic_route_at_one_and_two_atoms_is_the_paper_formula(j, p, Theta, omega, t, eta_t,
                                                                gamma_t, n):
    # the paper's j = 1/2 and j = 1 closed forms are the general route's
    # special cases; at j = 1/2 eta(t) only shifts both levels' phase
    state = AtomicSqueezedParams(j, p, Theta)
    route = samples(phase_dist_atomic_squeezed(state, omega, t, eta_t, gamma_t), n)
    phi = phase_grid(n)
    if j == 0.5:
        paper = squeezed_halfspin(Theta, 2 * p, omega, t, gamma_t, phi)
    else:
        paper = two_atoms(Theta, p, omega, t, eta_t, gamma_t, phi)
    assert np.max(np.abs(route - paper)) <= 1e-14


def test_oscillator_coherent_normalized_and_fock_uniform():
    # the coherent state is the squeezed coherent state at r1 = 0
    p = phase_dist_osc_squeezed(0.0, 0.0, math.sqrt(5.0), 0.0, 1.0, 0.1, 0.001, 0.005)
    assert abs(integrate_distribution(p) - 1.0) < 1e-10
    vac = phase_dist_osc_squeezed(0.0, 0.0, 0.0, 0.0, 1.0, 0.3, 0.001, 0.005)
    # vacuum is a Fock state: uniform distribution
    assert np.max(np.abs(samples(vac, GRID) - 1.0 / (2.0 * math.pi))) < 1e-14


def test_oscillator_squeezed_dispatches_to_coherent_at_zero_squeezing():
    a = phase_dist_osc_squeezed(0.0, 0.7, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005)
    b = phase_dist_osc_squeezed(0.0, 0.0, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005)
    assert np.array_equal(samples(a, GRID), samples(b, GRID))


def test_oscillator_squeezed_normalized():
    p = phase_dist_osc_squeezed(
        1.0, 0.0, math.sqrt(5.0), 0.0, 1.0, 0.1, 0.001, 0.005
    )
    assert abs(integrate_distribution(p) - 1.0) < 1e-8


@pytest.mark.parametrize("r1, alpha_sq, t, T, r, cutoff", [
    (0.5, 5.0, 0.1, 0.0, 0.0, 70),
    (0.5, 5.0, 0.1, 1000.0, 2.0, 70),
    (2.0, 5.0, 1.0, 100.0, 1.0, 1258),
    (0.5, 200.0, 2.0, 0.0, 1.0, 576),
    (1.0, 200.0, 10.0, 1000.0, 2.0, 1159),
])
def test_oscillator_autocorrelation_matches_dense_density_matrix(r1, alpha_sq, t, T, r, cutoff):
    # the cutoffs are the default ones; the dense oracle forms rho_mn(t)
    # element by element and sums its diagonals
    p = {**SWEEP_FAMILIES["qnd-oscillator"][1], "t": t, "T": T, "r": r}
    eta_t, gamma_t = _kernels(p)
    alpha_mag = math.sqrt(alpha_sq)
    fast = samples(phase_dist_osc_squeezed(
        r1, p["psi"], alpha_mag, 0.0, 1.0, t, eta_t, gamma_t, cutoff
    ), 2880)
    c = squeezed_coherent_ket(r1, p["psi"], alpha_mag, cutoff)
    levels = np.arange(cutoff) + 0.5
    rho = np.outer(c, c.conj()) * _dephasing_factor(levels, 1.0, t, eta_t, gamma_t)
    dense = samples(distribution_from_fourier(rho / (2.0 * math.pi)), 2880)
    assert np.max(np.abs(fast - dense)) < 1e-12


def test_oscillator_allocates_no_cutoff_squared_array():
    # r1 = 2 needs 1258 levels: one dense complex matrix would take 25 MB
    tracemalloc.start()
    try:
        phase_dist_osc_squeezed(2.0, math.pi / 4, math.sqrt(5.0), 0.0, 1.0, 0.1, 0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_oscillator_cutoff_too_small_raises():
    with pytest.raises(TruncationError):
        phase_dist_osc_squeezed(0.0, 0.0, 3.0, 0.0, 1.0, 0.1, 0.0, 0.0, cutoff=8)


def test_squeezed_amplitudes_reject_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff = 0 must be positive"):
        squeezed_coherent_ket(0.5, 0.0, 1.0, 0)


@pytest.mark.parametrize("j", [0.5, 5, 20])
def test_dipole_weights_match_scalar_double_loop(j):
    # the one-pass build keeps every product in the order of the scalar loop
    tj = round(2 * j)
    half_binom = [math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)]
    loop = np.empty((tj + 1, tj + 1))
    for kn in range(tj + 1):
        n = kn - tj / 2.0
        for km in range(tj + 1):
            m = km - tj / 2.0
            loop[kn, km] = (
                half_binom[kn]
                * half_binom[km]
                * 2.0
                * beta_integral(tj / 2.0 + (n + m) / 2.0 + 1.0, tj / 2.0 - (n + m) / 2.0 + 1.0)
            )
    assert np.array_equal(_dipole_weights(tj), loop)


def test_fig6_builds_the_atomic_initial_state_once(cold_caches, gamma_free_builds):
    # each of the 4 T curves varies only the bath: one gamma-free coefficient
    # vector per curve, and the one Wigner-d row and weight matrix for all
    run_figure("fig6")
    assert len(gamma_free_builds) == 4
    assert _wigner_row.cache_info().misses == 1
    assert _dipole_weights.cache_info().misses == 1


def test_fig7_builds_one_gamma_free_state_per_curve(cold_caches, gamma_free_builds):
    # zeta varies along each of the 4 curves, the unitary one (eta = 0) and
    # the three T curves; each builds the coefficients of all its zetas at
    # once, from the one Wigner-d row and weight matrix
    run_figure("fig7")
    assert len(gamma_free_builds) == 4
    assert _wigner_row.cache_info().misses == 1
    assert _dipole_weights.cache_info().misses == 1


@pytest.mark.parametrize("scenario", ["fig1", "fig7"])
def test_atoms_at_the_top_spin_run_in_lag_memory(cold_caches, scenario):
    # j = 514 is the largest spin the CLI accepts.  A dim x dim u u^dag per
    # distinct Theta took gigabytes for fig7; the lags need the one cached
    # 8.5 MB weight matrix and a few vectors per Theta
    tracemalloc.start()
    try:
        run_figure(scenario, {"j": 514, "p": 514})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# (bath settings over fig6's defaults, t): squeezing r, phase slope a,
# temperature T and cutoff omega_c, the unitary limit gamma0 = 0 included
FACTORIZATION_CASES = [
    ({"r": 0.0, "T": 0.0}, 1.0),
    ({"r": 2.0, "T": 0.0}, 0.1),
    ({"r": -1.5, "T": 1000.0}, 3.0),
    ({"r": 1.0, "T": 300.0, "a": 0.2, "omega_c": 0.5}, 0.7),
    ({"r": 0.5, "T": 50.0, "omega_c": 1000.0, "gamma0": 0.25}, 10.0),
    ({"gamma0": 0.0, "r": 2.0, "T": 100.0}, 0.4),
]


@pytest.mark.parametrize("j, p, Theta", [(5, 5, -0.01832), (1, 0, 0.4), (2.5, -1.5, -0.3)])
@pytest.mark.parametrize("bath, t", FACTORIZATION_CASES)
def test_gamma_free_state_times_damping_is_the_dephased_state(j, p, Theta, bath, t):
    params = {**SCENARIOS["fig6"].defaults, **bath, "t": t}
    eta_t, gamma_t = _kernels(params)
    state = AtomicSqueezedParams(j, p, Theta)
    direct = phase_distribution_atomic(
        qnd_evolve(atomic_squeezed_density(state), 1.3, t, eta_t, gamma_t)
    )
    factored = phase_dist_atomic_squeezed(state, 1.3, t, eta_t, gamma_t)
    assert np.max(np.abs(factored - direct)) <= 1e-15


# every QND distribution as a function of omega and gamma alone
DAMPED_FORMS = {
    "atomic": lambda w, g: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(2.5, -1.5, -0.3), w, 0.7, -4e-3, g),
    "atomic j=5": lambda w, g: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(5, 5, -0.01832), w, 0.7, -4e-3, g),
    "oscillator": lambda w, g: phase_dist_osc_squeezed(
        0.5, math.pi / 4, math.sqrt(5.0), 0.3, w, 0.7, -4e-3, g),
    "coherent half-spin": lambda w, g: phase_dist_coherent_halfspin(
        AtomicCoherentParams(1.1, 2.3), w, 0.7, g),
    "squeezed half-spin": lambda w, g: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(0.5, -0.5, -0.3), w, 0.7, -4e-3, g),
    "two atoms p=1": lambda w, g: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(1, 1, 0.4), w, 0.7, -4e-3, g),
    "two atoms p=0": lambda w, g: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(1, 0, 0.4), w, 0.7, -4e-3, g),
}


@pytest.mark.parametrize("gamma_t", [0.0, 1e-3, 0.3, 40.0])
@pytest.mark.parametrize("form", DAMPED_FORMS)
def test_gamma_damps_harmonic_d_by_exp_minus_omega2_gamma_d2(form, gamma_t):
    # the bath reaches P only through gamma: harmonic d of the gamma-free
    # distribution times e^{-w^2 gamma d^2}
    free, damped = DAMPED_FORMS[form](1.3, 0.0), DAMPED_FORMS[form](1.3, gamma_t)
    degree = len(free) // 2
    d = np.arange(-degree, degree + 1)
    expected = free * np.exp(-(1.3**2) * gamma_t * d**2)
    assert len(damped) == len(free)
    assert np.max(np.abs(damped - expected)) <= 1e-15


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma_t", [0.0, 1e-3, 0.3, 4.0])
@pytest.mark.parametrize("form", DAMPED_FORMS)
def test_bath_reaches_the_dispersion_only_through_gamma(form, gamma_t, omega):
    # the paper's QND result, squeezing and temperature in tandem: c_0 is
    # undamped and c_{+-1} carry e^{-w^2 gamma}, so D = 1 - (1 - D0) e^{-2 w^2 gamma}
    d0 = dispersion(DAMPED_FORMS[form](omega, 0.0))
    d = dispersion(DAMPED_FORMS[form](omega, gamma_t))
    assert abs(d - (1.0 - (1.0 - d0) * math.exp(-2.0 * omega**2 * gamma_t))) <= 1e-14


# the QND models of the paper, as functions of omega, gamma and the degree
# read; the coherent half-spin closed form keeps both of its harmonics
QND_IDENTITY_FORMS = {
    "oscillator": lambda w, g, k: phase_dist_osc_squeezed(
        0.5, math.pi / 4, math.sqrt(5.0), 0.3, w, 0.7, -4e-3, g, degree=k),
    "atomic j=5": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(5, 5, -0.01832), w, 0.7, -4e-3, g, k),
    "coherent half-spin": lambda w, g, k: phase_dist_coherent_halfspin(
        AtomicCoherentParams(1.1, 2.3), w, 0.7, g),
    "squeezed half-spin p=+1/2": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(0.5, 0.5, -0.3), w, 0.7, -4e-3, g, k),
    "squeezed half-spin p=-1/2": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(0.5, -0.5, -0.3), w, 0.7, -4e-3, g, k),
    "two atoms p=1": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(1, 1, 0.4), w, 0.7, -4e-3, g, k),
    "two atoms p=-1": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(1, -1, 0.4), w, 0.7, -4e-3, g, k),
    "two atoms p=0": lambda w, g, k: phase_dist_atomic_squeezed(
        AtomicSqueezedParams(1, 0, 0.4), w, 0.7, -4e-3, g, k),
}


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma_t", [0.0, 1e-3, 0.3, 4.0])
@pytest.mark.parametrize("form", QND_IDENTITY_FORMS)
def test_qnd_identity_damps_each_first_harmonic_on_its_own_side(form, gamma_t, omega):
    # D = 1 - (1 - D0) e^{-2 w^2 gamma}, with D0 the gamma-free dispersion,
    # because c_0 is undamped and c_{+1}, c_{-1} each carry e^{-w^2 gamma}.
    # D is the same with c_{+-1} swapped, so each is also compared on its own
    # side: the dispersion's degree-1 build against the full gamma-free one.
    free = QND_IDENTITY_FORMS[form](omega, 0.0, None)
    damped = QND_IDENTITY_FORMS[form](omega, gamma_t, 1)
    d0, d = dispersion(free), dispersion(damped)
    assert abs(d - (1.0 - (1.0 - d0) * math.exp(-2.0 * omega**2 * gamma_t))) <= 1e-14
    mid, mid0 = len(damped) // 2, len(free) // 2
    near = damped[mid - 1 : mid + 2]
    damping = np.exp(-(omega**2) * gamma_t * np.array([1, 0, 1]))
    expected = free[mid0 - 1 : mid0 + 2] * damping
    assert np.max(np.abs(near - expected)) <= 1e-14


@pytest.mark.parametrize("build, args", [
    (_dipole_weights, (10,)),
    (_wigner_row, (10, 4)),
])
def test_cached_initial_state_arrays_are_read_only_and_exact(build, args):
    cached = build(*args)
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 1.0
    assert build.__wrapped__(*args).tobytes() == cached.tobytes()


@pytest.mark.parametrize("r1, alpha_sq, cutoff", [(0.2, 2.0, 50), (2.0, 5.0, 1258)])
def test_three_lags_are_the_central_autocorrelation_entries(r1, alpha_sq, cutoff):
    # at degree 1 the gamma-free coefficients are three inner products; they
    # must be c_{-1}, c_0, c_{+1} of the full autocorrelation in that order,
    # which a dispersion cannot check (it is the same with c_{+-1} swapped).
    # gamma = 0 damps by e^0 = 1, which leaves every coefficient bit-exact.
    args = (r1, math.pi / 4, math.sqrt(alpha_sq), 0.3, 1.0, 0.7, -4e-3, 0.0, cutoff)
    full = phase_dist_osc_squeezed(*args)
    three = phase_dist_osc_squeezed(*args, degree=1)
    assert len(full) == 2 * cutoff - 1
    assert np.array_equal(three, full[cutoff - 2 : cutoff + 1])
    assert three[2] != three[0]  # c_{+1} = conj c_{-1}, not c_{-1}


@pytest.mark.parametrize("j", [0.5, 1, 5, 50])
@pytest.mark.parametrize("theta", [-0.3, np.array([-0.3, 0.2, -0.05])])
def test_atomic_lags_are_oriented_and_cut_to_the_degree_read(j, theta):
    # harmonic +d pairs W[m+d, m] with u_{m+d} u*_m; the swapped pairing
    # moves c_{+-1} and keeps every dispersion.  The density-matrix path
    # shares no lag code, and gamma = 0 damps by e^0 = 1, so the degree-1
    # build must be the central three of the full one bit for bit.
    state = AtomicSqueezedParams(j, j, theta)
    args = (1.3, 0.7, -4e-3, 0.0)
    full = phase_dist_atomic_squeezed(state, *args)
    three = phase_dist_atomic_squeezed(state, *args, degree=1)
    tj = int(2 * j)
    assert full.shape[-1] == 2 * tj + 1
    assert np.array_equal(three, full[..., tj - 1 : tj + 2])
    assert np.all(three[..., 2] != three[..., 0])
    for theta_k, row in zip(np.ravel(theta).tolist(), np.reshape(full, (-1, 2 * tj + 1))):
        rho = atomic_squeezed_density(AtomicSqueezedParams(j, j, theta_k))
        dense = phase_distribution_atomic(qnd_evolve(rho, 1.3, 0.7, -4e-3, 0.0))
        assert np.max(np.abs(row - dense)) <= 1e-14


def test_gamma_free_oscillator_cache_is_keyed_by_degree(cold_caches):
    # a dispersion reads degree 1 and a distribution all of them, both from
    # one cached ket
    args = (0.5, math.pi / 4, math.sqrt(5.0), 0.0, 1.0, 0.1, -7e-4, np.array([0.0, 0.1]))
    for _ in range(2):
        near = phase_dist_osc_squeezed(*args, degree=1)
        full = phase_dist_osc_squeezed(*args)
    assert near.shape == (2, 3)
    assert full.shape[1] > 3
    assert squeezed_coherent_ket.cache_info().misses == 1


@pytest.mark.parametrize("theta", [-0.3, np.array([-0.3])])
def test_squeezed_amplitudes_match_scalar_products(theta):
    # the cached row times e^{n Theta} keeps each scalar product of the old
    # loop, and a one-entry array of Theta gives the number's one row
    tj, tp = 10, 4
    loop = np.array([
        math.exp(tn / 2.0 * -0.3) * wigner_d_half_pi(tj, tn, tp) for tn in range(-tj, tj + 1, 2)
    ])
    loop = loop / math.sqrt(np.sum(loop**2))
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(tj / 2, tp / 2, theta))
    assert amps.shape == np.shape(theta) + (tj + 1,)
    assert np.array_equal(np.ravel(amps), loop)


@pytest.mark.parametrize("theta", [-80.0, 80.0, -800.0])
def test_squeezed_amplitudes_past_the_double_range_are_refused_by_name(theta):
    # the sum of a_n^2 overflows, and at |Theta| = 800 e^{n Theta} itself
    with pytest.raises(ValueError, match=f"^Theta = {theta} with j = 5: "):
        atomic_squeezed_amplitudes(AtomicSqueezedParams(5, 5, theta))


def test_squeezed_amplitudes_near_the_double_range_still_compute():
    # e^{10 * 71 / 2} d^5_{-5,5}(pi/2) squared stays below the largest double
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(5, 5, -71.0))
    assert np.all(np.isfinite(amps)) and abs(np.sum(amps**2) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [8, 720])
def test_coherent_halfspin_closed_form_equals_the_grid_formula(n):
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    p = samples(phase_dist_coherent_halfspin(state, 1.3, 0.7, 0.05), n)
    assert np.max(np.abs(p - coherent_halfspin(state, 1.3, 0.7, 0.05, phase_grid(n)))) < 1e-14

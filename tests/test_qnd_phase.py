import math
import tracemalloc

import numpy as np
import pytest

from phasediff.distribution import distribution_from_fourier, phase_grid
from phasediff.errors import TruncationError
from phasediff.figures import SWEEP_FAMILIES, RunConfig, _kernels, run_figure
from phasediff.halfint import HalfInteger, m_range
from phasediff.phase_stats import integrate_distribution
from phasediff.qnd_phase import (
    _dephasing_factor,
    _dipole_weights,
    _wigner_row,
    AtomicCoherentParams,
    AtomicSqueezedParams,
    DickeDensityMatrix,
    atomic_coherent_amplitudes,
    atomic_coherent_density,
    atomic_squeezed_amplitudes,
    atomic_squeezed_density,
    number_distribution,
    phase_dist_coherent_halfspin,
    phase_dist_osc_coherent,
    phase_dist_osc_squeezed,
    phase_dist_squeezed_halfspin,
    phase_dist_two_atoms,
    phase_distribution_atomic,
    qnd_evolve,
)
from phasediff.special_functions import (
    beta_integral,
    log_binomial,
    squeezed_coherent_ket,
    wigner_d_half_pi,
)

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
    j = HalfInteger.of(3)
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(3, 1, 0.0))
    expected = [
        wigner_d_half_pi(j, HalfInteger(2 * n - 6), HalfInteger(2))
        for n in range(7)
    ]
    assert np.max(np.abs(amps - np.array(expected))) < 1e-13


def test_squeezed_half_spin_populations():
    # j = p = 1/2: p(m) proportional to e^{2 m Theta}
    amps = atomic_squeezed_amplitudes(AtomicSqueezedParams(0.5, 0.5, 0.3))
    ratio = (amps[1] / amps[0]) ** 2
    assert math.isclose(ratio, math.exp(2.0 * 0.3), rel_tol=1e-12)


def test_density_validation_rejects_tampering():
    rho = atomic_coherent_density(AtomicCoherentParams(1.0, 0.5), 1)
    bad = rho.elements.copy()
    bad[0, 2] *= 3.0  # breaks Hermiticity
    with pytest.raises(ValueError):
        DickeDensityMatrix(rho.j, bad).validate()


def test_dicke_diagonal_gives_uniform_distribution():
    rho = DickeDensityMatrix(HalfInteger.of(2), np.diag([0, 0, 1, 0, 0]).astype(complex))
    p = phase_distribution_atomic(rho)
    assert np.max(np.abs(p.samples(GRID) - 1.0 / (2.0 * math.pi))) < 1e-14


def test_qnd_evolution_preserves_populations():
    rho0 = atomic_squeezed_density(AtomicSqueezedParams(5, 5, -0.01832))
    rho_t = qnd_evolve(rho0, 1.0, 0.7, 0.01, 0.02)
    assert np.max(np.abs(np.diag(rho_t.elements) - np.diag(rho0.elements))) < 1e-15
    rho_t.validate()


def test_number_distribution_matches_amplitudes():
    state = AtomicCoherentParams(0.9, 0.2)
    pm = number_distribution(state, j=1.5)
    amps = atomic_coherent_amplitudes(state, 1.5)
    assert np.max(np.abs(pm - np.abs(amps) ** 2)) < 1e-15
    assert math.isclose(float(np.sum(pm)), 1.0, rel_tol=1e-12)


def test_half_spin_coherent_closed_form_vs_machinery():
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    omega, t, ga = 1.0, 0.3, 0.02
    rho = qnd_evolve(atomic_coherent_density(state, 0.5), omega, t, 0.0, ga)
    machinery = phase_distribution_atomic(rho).samples(GRID)
    closed = phase_dist_coherent_halfspin(state, omega, t, ga).samples(GRID)
    assert np.max(np.abs(machinery - closed)) < 1e-13


def test_half_spin_squeezed_closed_form_vs_machinery():
    for p_sign in (0.5, -0.5):
        state = AtomicSqueezedParams(0.5, p_sign, 0.3)
        omega, t, ga = 1.0, 0.5, 0.015
        rho = qnd_evolve(atomic_squeezed_density(state), omega, t, 0.0, ga)
        machinery = phase_distribution_atomic(rho).samples(GRID)
        closed = phase_dist_squeezed_halfspin(0.3, p_sign, omega, t, ga).samples(GRID)
        assert np.max(np.abs(machinery - closed)) < 1e-13


@pytest.mark.parametrize("p", [1, -1, 0])
def test_two_atom_closed_form_vs_machinery(p):
    Theta, omega, t = -0.2, 1.0, 0.4
    et, ga = 0.003, 0.01
    rho = qnd_evolve(atomic_squeezed_density(AtomicSqueezedParams(1, p, Theta)), omega, t, et, ga)
    machinery = phase_distribution_atomic(rho).samples(GRID)
    closed = phase_dist_two_atoms(Theta, p, omega, t, et, ga).samples(GRID)
    assert np.max(np.abs(machinery - closed)) < 1e-13


def test_oscillator_coherent_normalized_and_fock_uniform():
    p = phase_dist_osc_coherent(math.sqrt(5.0), 0.0, 1.0, 0.1, 0.001, 0.005)
    assert abs(integrate_distribution(p) - 1.0) < 1e-10
    vac = phase_dist_osc_coherent(0.0, 0.0, 1.0, 0.3, 0.001, 0.005)
    # vacuum is a Fock state: uniform distribution
    assert np.max(np.abs(vac.samples(GRID) - 1.0 / (2.0 * math.pi))) < 1e-14


def test_oscillator_squeezed_dispatches_to_coherent_at_zero_squeezing():
    a = phase_dist_osc_squeezed(0.0, 0.7, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005)
    b = phase_dist_osc_coherent(2.0, 0.3, 1.0, 0.1, 0.001, 0.005)
    assert np.array_equal(a.samples(GRID), b.samples(GRID))


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
    fast = phase_dist_osc_squeezed(
        r1, p["psi"], alpha_mag, 0.0, 1.0, t, eta_t, gamma_t, cutoff
    ).samples(2880)
    c = squeezed_coherent_ket(r1, p["psi"], alpha_mag, cutoff)
    levels = np.arange(cutoff) + 0.5
    rho = np.outer(c, c.conj()) * _dephasing_factor(levels, 1.0, t, eta_t, gamma_t)
    dense = distribution_from_fourier(rho / (2.0 * math.pi)).samples(2880)
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
        phase_dist_osc_coherent(3.0, 0.0, 1.0, 0.1, 0.0, 0.0, cutoff=8)


def test_squeezed_amplitudes_reject_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff = 0 must be positive"):
        squeezed_coherent_ket(0.5, 0.0, 1.0, 0)


@pytest.mark.parametrize("j", [0.5, 5, 20])
def test_dipole_weights_match_scalar_double_loop(j):
    # the one-pass build keeps every product in the order of the scalar loop
    j = HalfInteger.of(j)
    tj = j.twice_value
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
                * beta_integral(j.value + (n + m) / 2.0 + 1.0, j.value - (n + m) / 2.0 + 1.0)
            )
    assert np.array_equal(_dipole_weights(j), loop)


def test_fig6_builds_the_atomic_initial_state_once():
    # 164 points vary only the bath: one Wigner-d row and one weight matrix
    _dipole_weights.cache_clear()
    _wigner_row.cache_clear()
    run_figure(RunConfig("fig6"))
    assert _dipole_weights.cache_info().misses == 1
    assert _wigner_row.cache_info().misses == 1
    assert _wigner_row.cache_info().hits == 163


@pytest.mark.parametrize("build, args", [(_dipole_weights, (HalfInteger(10),)),
                                         (_wigner_row, (HalfInteger(10), HalfInteger(4)))])
def test_cached_initial_state_arrays_are_read_only_and_exact(build, args):
    cached = build(*args)
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 1.0
    assert build.__wrapped__(*args).tobytes() == cached.tobytes()


def test_squeezed_amplitudes_match_scalar_products():
    # the cached row times e^{n Theta} keeps each scalar product of the old loop
    j, p, theta = HalfInteger(10), HalfInteger(4), -0.3
    loop = np.array([math.exp(n.value * theta) * wigner_d_half_pi(j, n, p) for n in m_range(j)])
    loop = loop / math.sqrt(np.sum(loop**2))
    assert np.array_equal(atomic_squeezed_amplitudes(AtomicSqueezedParams(j, p, theta)), loop)


# the closed forms as they were written on the grid, term by term in cos(phi)


def _old_coherent_halfspin(params, omega, t, gamma_t, phi):
    return (
        1.0
        + (math.pi / 4.0)
        * math.sin(params.alpha_p)
        * np.cos(params.beta_p + omega * t - phi)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)


def _old_squeezed_halfspin(Theta, sign, omega, t, gamma_t, phi):
    return (
        1.0
        + sign
        * (math.pi / (4.0 * math.cosh(Theta)))
        * np.cos(phi - omega * t)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)


def _old_two_atoms(Theta, p, omega, t, eta_t, gamma_t, phi):
    w2 = omega**2
    if p == 0:
        return (
            1.0
            - np.cos(2.0 * (phi - omega * t))
            * math.exp(-4.0 * w2 * gamma_t)
            / (2.0 * math.cosh(2.0 * Theta))
        ) / (2.0 * math.pi)
    denom = 1.0 + math.cosh(2.0 * Theta)
    return (
        1.0
        + p
        * (3.0 * math.pi / (4.0 * denom))
        * (
            np.cos(phi - omega * t) * math.cos(w2 * eta_t) * math.cosh(Theta)
            - np.sin(phi - omega * t) * math.sin(w2 * eta_t) * math.sinh(Theta)
        )
        * math.exp(-w2 * gamma_t)
        + (1.0 / (2.0 * denom))
        * np.cos(2.0 * (phi - omega * t))
        * math.exp(-4.0 * w2 * gamma_t)
    ) / (2.0 * math.pi)


@pytest.mark.parametrize("n", [8, 720])
def test_halfspin_closed_forms_equal_the_grid_formulas(n):
    phi = phase_grid(n)
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    p = phase_dist_coherent_halfspin(state, 1.3, 0.7, 0.05).samples(n)
    assert np.max(np.abs(p - _old_coherent_halfspin(state, 1.3, 0.7, 0.05, phi))) < 1e-14
    for p_sign in (0.5, -0.5):
        p = phase_dist_squeezed_halfspin(-0.4, p_sign, 1.3, 0.7, 0.05).samples(n)
        old = _old_squeezed_halfspin(-0.4, 2.0 * p_sign, 1.3, 0.7, 0.05, phi)
        assert np.max(np.abs(p - old)) < 1e-14


@pytest.mark.parametrize("n", [8, 720])
@pytest.mark.parametrize("p_label", [1, -1, 0])
def test_two_atom_closed_forms_equal_the_grid_formulas(n, p_label):
    phi = phase_grid(n)
    p = phase_dist_two_atoms(-0.3, p_label, 1.2, 0.9, 0.17, 0.04).samples(n)
    old = _old_two_atoms(-0.3, p_label, 1.2, 0.9, 0.17, 0.04, phi)
    assert np.max(np.abs(p - old)) < 1e-14

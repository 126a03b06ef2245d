import math

import numpy as np
import pytest

from phasediff.errors import TruncationError
from phasediff.halfint import HalfInteger
from phasediff.phase_stats import integrate_distribution
from phasediff.qnd_phase import (
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
    squeezed_coherent_amplitudes,
)
from phasediff.special_functions import wigner_d_half_pi

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
    p = phase_distribution_atomic(rho, GRID)
    assert np.max(np.abs(p.values - 1.0 / (2.0 * math.pi))) < 1e-14


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
    machinery = phase_distribution_atomic(rho, GRID)
    closed = phase_dist_coherent_halfspin(state, omega, t, ga, GRID)
    assert np.max(np.abs(machinery.values - closed.values)) < 1e-13


def test_half_spin_squeezed_closed_form_vs_machinery():
    for p_sign in (0.5, -0.5):
        state = AtomicSqueezedParams(0.5, p_sign, 0.3)
        omega, t, ga = 1.0, 0.5, 0.015
        rho = qnd_evolve(atomic_squeezed_density(state), omega, t, 0.0, ga)
        machinery = phase_distribution_atomic(rho, GRID)
        closed = phase_dist_squeezed_halfspin(0.3, p_sign, omega, t, ga, GRID)
        assert np.max(np.abs(machinery.values - closed.values)) < 1e-13


@pytest.mark.parametrize("p", [1, -1, 0])
def test_two_atom_closed_form_vs_machinery(p):
    Theta, omega, t = -0.2, 1.0, 0.4
    et, ga = 0.003, 0.01
    rho = qnd_evolve(atomic_squeezed_density(AtomicSqueezedParams(1, p, Theta)), omega, t, et, ga)
    machinery = phase_distribution_atomic(rho, GRID)
    closed = phase_dist_two_atoms(Theta, p, omega, t, et, ga, GRID)
    assert np.max(np.abs(machinery.values - closed.values)) < 1e-13


def test_oscillator_coherent_normalized_and_fock_uniform():
    p = phase_dist_osc_coherent(math.sqrt(5.0), 0.0, 1.0, 0.1, 0.001, 0.005, grid=GRID)
    assert abs(integrate_distribution(p) - 1.0) < 1e-10
    vac = phase_dist_osc_coherent(0.0, 0.0, 1.0, 0.3, 0.001, 0.005, grid=GRID)
    # vacuum is a Fock state: uniform distribution
    assert np.max(np.abs(vac.values - 1.0 / (2.0 * math.pi))) < 1e-14


def test_oscillator_squeezed_dispatches_to_coherent_at_zero_squeezing():
    a = phase_dist_osc_squeezed(0.0, 0.7, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005, grid=GRID)
    b = phase_dist_osc_coherent(2.0, 0.3, 1.0, 0.1, 0.001, 0.005, grid=GRID)
    assert np.array_equal(a.values, b.values)


def test_oscillator_squeezed_normalized():
    p = phase_dist_osc_squeezed(
        1.0, 0.0, math.sqrt(5.0), 0.0, 1.0, 0.1, 0.001, 0.005, grid=GRID
    )
    assert abs(integrate_distribution(p) - 1.0) < 1e-8


def test_oscillator_cutoff_too_small_raises():
    with pytest.raises(TruncationError):
        phase_dist_osc_coherent(3.0, 0.0, 1.0, 0.1, 0.0, 0.0, cutoff=8, grid=GRID)


def test_squeezed_amplitudes_reject_cutoff_below_one():
    with pytest.raises(ValueError, match="cutoff = 0 must be positive"):
        squeezed_coherent_amplitudes(0.5, 0.0, 1.0, 0.0, 0)

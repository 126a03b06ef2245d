import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasediff.distribution import PhaseDistribution, phase_grid
from phasediff.phase_stats import dispersion, first_circular_moment, integrate_distribution
from phasediff.qnd_phase import AtomicCoherentParams, phase_dist_coherent_halfspin

GRID = 720
PHI = phase_grid(GRID)


def _uniform():
    return PhaseDistribution(np.full(GRID, 1.0 / (2.0 * math.pi)))


def test_uniform_dispersion_is_one():
    assert abs(dispersion(_uniform()) - 1.0) < 1e-12


def test_cardioid_dispersion_is_three_quarters():
    # P = (1/2pi)(1 + cos phi): first moment 1/2, D = 1 - 1/4
    p = PhaseDistribution((1.0 + np.cos(PHI)) / (2.0 * math.pi))
    assert abs(dispersion(p) - 0.75) < 1e-10


def test_dispersion_origin_independent():
    p = PhaseDistribution((1.0 + np.cos(PHI - 1.3)) / (2.0 * math.pi))
    assert abs(dispersion(p) - 0.75) < 1e-10


def test_first_moment_of_shifted_cardioid():
    p = PhaseDistribution((1.0 + np.cos(PHI - 1.3)) / (2.0 * math.pi))
    m = first_circular_moment(p)
    assert abs(m - 0.5 * np.exp(-1j * 1.3)) < 1e-12


def test_unnormalized_input_rejected():
    p = PhaseDistribution(np.full(GRID, 1.0))
    with pytest.raises(ValueError):
        dispersion(p)


def test_integrate_distribution_uniform():
    assert abs(integrate_distribution(_uniform()) - 1.0) < 1e-14


def test_monotone_diffusion_in_gamma():
    # larger dephasing gamma never sharpens the single-atom distribution
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    gammas = [0.0, 0.01, 0.05, 0.2, 1.0, 5.0]
    ds = [
        dispersion(phase_dist_coherent_halfspin(state, 1.0, 0.5, g, GRID))
        for g in gammas
    ]
    assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(ds, ds[1:]))


@settings(max_examples=50, deadline=None)
@given(
    c1=st.complex_numbers(max_magnitude=0.5 / (2.0 * math.pi), allow_nan=False),
    c2=st.complex_numbers(max_magnitude=0.2 / (2.0 * math.pi), allow_nan=False),
)
def test_dispersion_bounded_for_valid_fourier_distributions(c1, c2):
    # any nonnegative normalized distribution has 0 <= D <= 1
    values = (
        1.0 / (2.0 * math.pi)
        + 2.0 * (c1 * np.exp(1j * PHI)).real
        + 2.0 * (c2 * np.exp(2j * PHI)).real
    )
    if values.min() < 0.0:
        return
    d = dispersion(PhaseDistribution(values))
    assert -1e-10 <= d <= 1.0 + 1e-10

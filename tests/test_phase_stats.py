import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasediff import phase_stats
from phasediff.distribution import PhaseDistribution, distribution_from_samples, phase_grid
from phasediff.phase_stats import (
    audit_normalization,
    dispersion,
    first_circular_moment,
    integrate_distribution,
)
from phasediff.qnd_phase import AtomicCoherentParams, phase_dist_coherent_halfspin

GRID = 720
PHI = phase_grid(GRID)


def _uniform():
    return distribution_from_samples(np.full(GRID, 1.0 / (2.0 * math.pi)))


def test_uniform_dispersion_is_one():
    assert abs(dispersion(_uniform()) - 1.0) < 1e-12


def test_cardioid_dispersion_is_three_quarters():
    # P = (1/2pi)(1 + cos phi): first moment 1/2, D = 1 - 1/4
    p = distribution_from_samples((1.0 + np.cos(PHI)) / (2.0 * math.pi))
    assert abs(dispersion(p) - 0.75) < 1e-10


def test_dispersion_origin_independent():
    p = distribution_from_samples((1.0 + np.cos(PHI - 1.3)) / (2.0 * math.pi))
    assert abs(dispersion(p) - 0.75) < 1e-10


@pytest.mark.parametrize("n", [8, 9, 720])
def test_first_moment_equals_the_explicit_sum(n):
    phi = phase_grid(n)
    values = (1.0 + 0.6 * np.cos(phi - 0.4) + 0.3 * np.sin(3.0 * phi)) / (2.0 * math.pi)
    p = distribution_from_samples(values)
    explicit = np.sum(np.exp(-1j * phi) * values) * (2.0 * math.pi / n)
    assert abs(first_circular_moment(p) - explicit) < 1e-15


def test_first_moment_of_shifted_cardioid():
    p = distribution_from_samples((1.0 + np.cos(PHI - 1.3)) / (2.0 * math.pi))
    m = first_circular_moment(p)
    assert abs(m - 0.5 * np.exp(-1j * 1.3)) < 1e-12


def test_unnormalized_input_rejected():
    p = distribution_from_samples(np.full(GRID, 1.0))
    with pytest.raises(ValueError):
        dispersion(p)


def test_integrate_distribution_uniform():
    assert abs(integrate_distribution(_uniform()) - 1.0) < 1e-14


def test_monotone_diffusion_in_gamma():
    # larger dephasing gamma never sharpens the single-atom distribution
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    gammas = [0.0, 0.01, 0.05, 0.2, 1.0, 5.0]
    ds = [
        dispersion(phase_dist_coherent_halfspin(state, 1.0, 0.5, g))
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
    d = dispersion(distribution_from_samples(values))
    assert -1e-10 <= d <= 1.0 + 1e-10


def _samples(coeffs, n):
    # P(phi_l) = Re sum_d c_d e^{i d phi_l}, with d l reduced mod N in integers
    degree = len(coeffs) // 2
    d = np.arange(-degree, degree + 1)
    phase = np.exp(2j * np.pi * (np.outer(np.arange(n), d) % n) / n)
    return (phase @ coeffs).real


@pytest.mark.parametrize("n", [8, 9, 720])
@pytest.mark.parametrize("where", ["below N/2", "between N/2 and N", "at least N"])
def test_coefficient_functionals_equal_the_sample_sums(monkeypatch, n, where):
    # the functionals are the exact integrals, which the sample sums on any
    # grid finer than degree + 1 reproduce; the N-point audit is the
    # Riemann sum of the N samples, aliasing included
    degree = {"below N/2": (n - 1) // 2, "between N/2 and N": n - 2,
              "at least N": 2 * n + 3}[where]
    rng = np.random.default_rng(n * 1000 + degree)
    coeffs = (rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)) / degree
    p = PhaseDistribution(coeffs)
    fine = max(n, degree + 2)
    values = _samples(coeffs, fine)
    step = 2.0 * math.pi / fine
    assert abs(integrate_distribution(p) - np.sum(values) * step) < 1e-13
    assert abs(first_circular_moment(p) - np.fft.rfft(values)[1] * step) < 1e-13
    # shift c_0 so that the N samples sum to exactly 1, then off by 2e-6
    c = coeffs.copy()
    c[degree] += (1.0 - np.sum(_samples(coeffs, n)) * (2.0 * math.pi / n)) / (2.0 * math.pi)
    with monkeypatch.context() as m:
        m.setattr(phase_stats, "NORM_TOL", 1e-13)
        audit_normalization(PhaseDistribution(c), n)
    c[degree] += 2e-6 / (2.0 * math.pi)
    with pytest.raises(ValueError, match=f"on a grid of N = {n} points"):
        audit_normalization(PhaseDistribution(c), n)

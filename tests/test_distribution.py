import math

import numpy as np
import pytest

from phasediff.distribution import PhaseDistribution, distribution_from_fourier, phase_grid


def _double_sum(a, n):
    # sum_{j,k} a[j,k] e^{i(k-j)phi_l} = u_l^H a u_l with u_l[k] = e^{i k phi_l};
    # k phi_l = 2 pi (k l mod N) / N, reduced exactly in integers first
    u = np.exp(2j * np.pi * (np.outer(np.arange(a.shape[0]), np.arange(n)) % n) / n)
    return np.einsum("jl,jk,kl->l", u.conj(), a, u).real


@pytest.mark.parametrize("dim, n", [(5, 8), (40, 8), (200, 64), (300, 720)])
def test_fold_matches_brute_force_double_sum(dim, n):
    # dim >= n puts Fourier degrees above N/2 and N, where folding mod N matters
    rng = np.random.default_rng(dim * n)
    a = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim
    p = distribution_from_fourier(a, n)
    assert len(p.values) == n
    assert np.max(np.abs(p.values - _double_sum(a, n))) < 1e-12


def test_distribution_grid_is_derived_from_its_length():
    values = np.full(24, 1.0 / (2.0 * math.pi))
    p = PhaseDistribution(values)
    assert np.array_equal(p.grid, phase_grid(len(values)))
    assert p.step == 2.0 * math.pi / 24


def test_distribution_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PhaseDistribution(np.ones(5))  # below the minimum grid size
    with pytest.raises(ValueError):
        PhaseDistribution(np.ones((8, 8)))

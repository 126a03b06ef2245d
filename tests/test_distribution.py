import math

import numpy as np
import pytest

from phasediff.distribution import (
    distribution_from_fourier,
    distribution_from_harmonics,
    distribution_from_samples,
    phase_grid,
    samples,
)


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
    values = samples(distribution_from_fourier(a), n)
    assert len(values) == n
    assert np.max(np.abs(values - _double_sum(a, n))) < 1e-12


def test_distribution_grid_is_derived_from_its_length():
    # N samples at the angles of phase_grid(N) give back those N samples
    phi = phase_grid(24)
    values = (1.0 + np.sin(phi) + 0.5 * np.cos(12.0 * phi)) / (2.0 * math.pi)  # 12: Nyquist
    p = distribution_from_samples(values)
    assert len(p) == 2 * 12 + 1
    assert np.max(np.abs(samples(p, len(values)) - values)) < 1e-15


def test_distribution_rejects_bad_shapes():
    with pytest.raises(ValueError):
        distribution_from_samples(np.ones(5))  # below the minimum grid size
    with pytest.raises(ValueError):
        distribution_from_samples(np.ones((8, 8)))


def test_distribution_rejects_bad_grids():
    with pytest.raises(ValueError, match="grid size 7 too small"):
        samples(np.ones(3), 7)


@pytest.mark.parametrize("degree", [0, 1, 7])
def test_a_block_of_harmonics_gives_each_row_bit_for_bit(degree):
    rng = np.random.default_rng(degree)
    block = rng.normal(size=(3, degree + 1)) + 1j * rng.normal(size=(3, degree + 1))
    rows = distribution_from_harmonics(block)
    assert rows.shape == (3, 2 * degree + 1)
    for row, h in zip(rows, block):
        single = distribution_from_harmonics(h)
        assert single.shape == (2 * degree + 1,)
        assert np.array_equal(row, single)
        assert np.array_equal(single[degree:], h)
        assert np.array_equal(single[:degree], h[:0:-1].conj())

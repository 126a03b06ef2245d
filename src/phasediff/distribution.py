"""Phase distributions on the uniform angular grid, and the one synthesizer
that turns a (weighted) density matrix into P(phi).

A grid is an integer N: the angles phi_l = 2 pi l / N, l = 0..N-1.  Every
evaluator takes N and nothing else, so a non-uniform grid cannot arise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_SIZE = 720
MIN_GRID_SIZE = 8


def phase_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """The N uniform angles 2 pi l / N on [0, 2pi), endpoint excluded."""
    if n < MIN_GRID_SIZE:
        raise ValueError(f"grid size {n} too small; the minimum is {MIN_GRID_SIZE}")
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


@dataclass(frozen=True)
class PhaseDistribution:
    """P(phi) sampled at the N = len(values) angles of phase_grid(N)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) < MIN_GRID_SIZE:
            raise ValueError(f"values must be a 1-d array of at least {MIN_GRID_SIZE} samples")
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> np.ndarray:
        return phase_grid(len(self.values))

    @property
    def step(self) -> float:
        return 2.0 * np.pi / len(self.values)


def distribution_from_fourier(a: np.ndarray, n: int = DEFAULT_GRID_SIZE) -> PhaseDistribution:
    """P(phi_l) = Re sum_{j,k} a[j,k] e^{i(k-j) phi_l} on the N-point grid.

    Each diagonal offset d = k - j is summed with bincount after folding d
    mod N (on the grid e^{i d phi_l} depends only on d mod N, so the samples
    stay exact when the degree exceeds N/2), and one inverse FFT evaluates
    the folded trigonometric sum at all N angles.  The imaginary part of a
    Hermitian a vanishes and is discarded.
    """
    a = np.asarray(a)
    idx = np.arange(a.shape[0])
    offset = ((idx[None, :] - idx[:, None]) % n).ravel()
    flat = a.ravel()
    coeffs = np.bincount(offset, flat.real, minlength=n) + 1j * np.bincount(
        offset, flat.imag, minlength=n
    )
    return PhaseDistribution(np.fft.ifft(coeffs).real * n)

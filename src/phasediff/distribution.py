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

    bincount sums each of the 2 dim - 1 diagonals d = k - j of a, and
    _fold_fft evaluates the trigonometric sum of the diagonal sums at all N
    angles.  Summing the diagonals before folding keeps one dim x dim index
    array as the only intermediate.  The imaginary part of a Hermitian a
    vanishes and is discarded.
    """
    a = np.asarray(a)
    dim = a.shape[0]
    idx = np.arange(dim)
    diagonal = ((idx + dim - 1)[None, :] - idx[:, None]).ravel()  # k - j + dim - 1
    sums = _bincount_complex(diagonal, a.ravel(), 2 * dim - 1)
    return _fold_fft(np.arange(1 - dim, dim), sums, n)


def _fold_fft(offsets: np.ndarray, weights: np.ndarray, n: int) -> PhaseDistribution:
    """P(phi_l) = Re sum_i weights[i] e^{i offsets[i] phi_l} on the N-point grid.

    Offsets are folded mod N and summed (on the grid e^{i d phi_l} depends
    only on d mod N, so the samples stay exact when the degree exceeds N/2),
    and one inverse FFT evaluates the folded trigonometric sum at all N
    angles.
    """
    return PhaseDistribution(np.fft.ifft(_bincount_complex(offsets % n, weights, n)).real * n)


def _bincount_complex(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Complex weights summed per nonnegative index into `length` bins."""
    return np.bincount(index, weights.real, minlength=length) + 1j * np.bincount(
        index, weights.imag, minlength=length
    )

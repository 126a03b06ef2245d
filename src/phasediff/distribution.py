"""Phase distributions as trigonometric polynomials on the uniform angular grid.

A PhaseDistribution holds the Fourier coefficients c_d, d = -D..D, of

    P(phi) = Re sum_d c_d e^{i d phi}

and the size N of the grid phi_l = 2 pi l / N, l = 0..N-1, on which it is
sampled.  Every evaluator takes N and nothing else, so a non-uniform grid
cannot arise.  The samples are one inverse FFT of the coefficients folded
mod N, formed on first use only; the functionals in phase_stats read the
folded coefficients of degree 0 and +-1 and never form them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_GRID_SIZE = 720
MIN_GRID_SIZE = 8


def _check_grid_size(n: int) -> None:
    if n < MIN_GRID_SIZE:
        raise ValueError(f"grid size {n} too small; the minimum is {MIN_GRID_SIZE}")


def phase_grid(n: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """The N uniform angles 2 pi l / N on [0, 2pi), endpoint excluded."""
    _check_grid_size(n)
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


@dataclass(frozen=True)
class PhaseDistribution:
    """P(phi) = Re sum_d coeffs[d + D] e^{i d phi}, d = -D..D, sampled at the
    grid_size angles of phase_grid(grid_size)."""

    coeffs: np.ndarray
    grid_size: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) % 2 == 0:
            raise ValueError("coeffs must be a 1-d array of odd length 2 D + 1")
        _check_grid_size(self.grid_size)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def values(self) -> np.ndarray:
        """P(phi_l) at the grid_size angles: on the grid e^{i d phi_l} depends
        only on d mod N, so the coefficients are folded mod N and one inverse
        FFT evaluates them, exactly also when the degree reaches N."""
        n, degree = self.grid_size, len(self.coeffs) // 2
        folded = _bincount_complex(np.arange(-degree, degree + 1) % n, self.coeffs, n)
        values = np.fft.ifft(folded).real * n
        values.setflags(write=False)
        return values

    def aliased(self, d: int) -> complex:
        """Sum of the coefficients whose degree is d mod N: the degree-d
        coefficient that the samples on the grid carry."""
        n, degree = self.grid_size, len(self.coeffs) // 2
        return sum(self.coeffs[(d + degree) % n :: n].tolist(), 0j)

    @property
    def grid(self) -> np.ndarray:
        return phase_grid(self.grid_size)

    @property
    def step(self) -> float:
        return 2.0 * np.pi / self.grid_size


def distribution_from_fourier(a: np.ndarray, n: int = DEFAULT_GRID_SIZE) -> PhaseDistribution:
    """P(phi) = Re sum_{j,k} a[j,k] e^{i(k-j) phi} on the N-point grid.

    bincount sums each of the 2 dim - 1 diagonals d = k - j of a, which are
    the coefficients c_d, d = 1 - dim..dim - 1; one dim x dim index array is
    the only intermediate.
    """
    a = np.asarray(a)
    dim = a.shape[0]
    idx = np.arange(dim)
    diagonal = ((idx + dim - 1)[None, :] - idx[:, None]).ravel()  # k - j + dim - 1
    return PhaseDistribution(_bincount_complex(diagonal, a.ravel(), 2 * dim - 1), n)


def ket_autocorrelation(v: np.ndarray) -> np.ndarray:
    """sum_m v_m v_{m+d}^* for d = 1 - len(v)..len(v) - 1: the diagonal sums
    of v v^dag, which distribution_from_fourier would form, in O(len(v))
    memory."""
    # entry i of the full correlation is sum_m v_m v_{m+d}^* with d = len(v) - 1 - i
    return np.correlate(v, v, "full")[::-1]


def distribution_from_harmonics(harmonics, n: int = DEFAULT_GRID_SIZE) -> PhaseDistribution:
    """The real P(phi) with the coefficients c_0..c_D given and
    c_{-d} = conj(c_d)."""
    c = np.asarray(harmonics, dtype=complex)
    return PhaseDistribution(np.concatenate([c[:0:-1].conj(), c]), n)


def distribution_from_samples(values: np.ndarray) -> PhaseDistribution:
    """The trigonometric interpolant of N real samples P(phi_l), by one real
    FFT: c_d = F_d / N for 0 <= d < N/2, and an even N's Nyquist term split
    evenly between d = +-N/2."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < MIN_GRID_SIZE:
        raise ValueError(f"values must be a 1-d array of at least {MIN_GRID_SIZE} samples")
    n = len(values)
    harmonics = np.fft.rfft(values) / n
    if n % 2 == 0:
        harmonics[-1] /= 2.0
    return distribution_from_harmonics(harmonics, n)


def _bincount_complex(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Complex weights summed per nonnegative index into `length` bins."""
    return np.bincount(index, weights.real, minlength=length) + 1j * np.bincount(
        index, weights.imag, minlength=length
    )

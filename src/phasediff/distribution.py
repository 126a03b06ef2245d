"""Phase distributions as trigonometric polynomials.

A phase distribution is the complex array of its Fourier coefficients c_d,
d = -D..D, of

    P(phi) = Re sum_d c_d e^{i d phi},

1-d for one P and 2-d, one row per P, for a group of them; the last axis is
always c_{-D}..c_D.  The functionals in phase_stats read c_0 and c_{+-1}
directly, so no evaluator takes an angular grid.  Only writing P as samples
needs one, the N uniform angles phi_l = 2 pi l / N, l = 0..N-1 of
phase_grid(N); samples(coeffs, N) folds the coefficients mod N and applies
one inverse FFT.
"""

from __future__ import annotations

import numpy as np

DEFAULT_GRID_SIZE = 720
MIN_GRID_SIZE = 8


def _check_grid_size(n: int) -> None:
    if n < MIN_GRID_SIZE:
        raise ValueError(f"grid size {n} too small; the minimum is {MIN_GRID_SIZE}")


def phase_grid(n: int) -> np.ndarray:
    """The N uniform angles 2 pi l / N on [0, 2pi), endpoint excluded."""
    _check_grid_size(n)
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def samples(coeffs: np.ndarray, n: int) -> np.ndarray:
    """P(phi_l) at the n angles of phase_grid(n), from the coefficients
    c_{-D}..c_D: on the grid e^{i d phi_l} depends only on d mod n, so the
    coefficients are folded mod n and one inverse FFT evaluates them,
    exactly also when the degree reaches n."""
    _check_grid_size(n)
    degree = len(coeffs) // 2
    folded = _bincount_complex(np.arange(-degree, degree + 1) % n, coeffs, n)
    return np.fft.ifft(folded).real * n


def distribution_from_fourier(a: np.ndarray) -> np.ndarray:
    """P(phi) = Re sum_{j,k} a[j,k] e^{i(k-j) phi}.

    bincount sums each of the 2 dim - 1 diagonals d = k - j of the square
    matrix a, which are the coefficients c_d, d = 1 - dim..dim - 1; one
    dim x dim index array is the only intermediate.
    """
    a = np.asarray(a)
    dim = a.shape[-1]
    idx = np.arange(dim)
    diagonal = ((idx + dim - 1)[None, :] - idx[:, None]).ravel()  # k - j + dim - 1
    return _bincount_complex(diagonal, a.ravel(), 2 * dim - 1)


def ket_autocorrelation(v: np.ndarray, degree: int | None = None) -> np.ndarray:
    """sum_m v_m v_{m+d}^*, d ascending: the diagonal sums of v v^dag, which
    distribution_from_fourier would form, in O(len(v)) memory.  At degree 1
    only d = -1, 0, 1, three inner products in O(len(v)) time; at any other
    degree, None included, all d = 1 - len(v)..len(v) - 1, by the
    O(len(v)^2) correlation."""
    if degree == 1:
        return np.array([np.vdot(v[:-1], v[1:]), np.vdot(v, v), np.vdot(v[1:], v[:-1])])
    # entry i of the full correlation is sum_m v_m v_{m+d}^* with d = len(v) - 1 - i
    return np.correlate(v, v, "full")[::-1]


def distribution_from_harmonics(harmonics):
    """The coefficients c_{-D}..c_D of the real P(phi) with c_0..c_D given
    and c_{-d} = conj(c_d), along the last axis: a 2-d array of harmonics,
    one row per P, gives one row of coefficients per P."""
    c = np.asarray(harmonics, dtype=complex)
    return np.concatenate([c[..., :0:-1].conj(), c], axis=-1)


def distribution_from_samples(values: np.ndarray) -> np.ndarray:
    """The coefficients of the trigonometric interpolant of N real samples
    P(phi_l), by one real FFT: c_d = F_d / N for 0 <= d < N/2, and an even N's Nyquist term split
    evenly between d = +-N/2."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < MIN_GRID_SIZE:
        raise ValueError(f"values must be a 1-d array of at least {MIN_GRID_SIZE} samples")
    n = len(values)
    harmonics = np.fft.rfft(values) / n
    if n % 2 == 0:
        harmonics[-1] /= 2.0
    return distribution_from_harmonics(harmonics)


def _bincount_complex(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """Complex weights summed per nonnegative index into `length` bins."""
    return np.bincount(index, weights.real, minlength=length) + 1j * np.bincount(
        index, weights.imag, minlength=length
    )

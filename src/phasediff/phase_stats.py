"""Functionals of phase distributions: normalization audit and dispersion.

On a uniform periodic grid the trapezoid rule is a plain Riemann sum and
integrates trigonometric polynomials of degree < grid size exactly, so the
first circular moment below is spectrally accurate.
"""

from __future__ import annotations

import numpy as np

from .distribution import PhaseDistribution


def integrate_distribution(p: PhaseDistribution) -> float:
    """Trapezoidal integral of P over [0, 2pi)."""
    return float(np.sum(p.values) * p.step)


def first_circular_moment(p: PhaseDistribution) -> complex:
    """Integral of e^{-i phi} P(phi) d phi on the uniform grid."""
    return complex(np.sum(np.exp(-1j * p.grid) * p.values) * p.step)


def dispersion(p: PhaseDistribution, norm_tol: float = 1e-6) -> float:
    """Phase dispersion D = 1 - |first circular moment|^2.

    Origin-independent; 1 for the uniform distribution, -> 0 for a narrow
    peak.  Input must be normalized within norm_tol; on a grid of N points
    the sum misses 1 when P has Fourier content at degrees that are nonzero
    multiples of N, so the error names N.
    """
    total = integrate_distribution(p)
    if not abs(total - 1.0) <= norm_tol:  # also rejects NaN
        raise ValueError(
            f"distribution integrates to {total}, not 1, on a grid of N = {len(p.values)} "
            "points; raise the grid size (--grid) or the Fock cutoff"
        )
    return 1.0 - abs(first_circular_moment(p)) ** 2

"""Functionals of phase distributions: normalization audit and dispersion.

Both read Fourier coefficients, never samples.  On the uniform grid of N
points the Riemann sum of e^{-i d phi} P(phi) picks out the coefficients of
degree d mod N, so the integral and the first circular moment below are
exactly what the N samples of P give, aliasing included, in O(1) work.
"""

from __future__ import annotations

import math

from .distribution import PhaseDistribution


def integrate_distribution(p: PhaseDistribution) -> float:
    """Integral of P over [0, 2pi) on the grid: 2 pi Re sum_{d = 0 mod N} c_d,
    which equals the sum of the samples times the step."""
    return 2.0 * math.pi * p.aliased(0).real


def first_circular_moment(p: PhaseDistribution) -> complex:
    """Integral of e^{-i phi} P(phi) d phi on the grid: with P = Re sum c_d
    e^{i d phi} it is pi (sum_{d = 1 mod N} c_d + conj sum_{d = -1 mod N} c_d),
    which equals sum_l e^{-2 pi i l / N} P_l times the step."""
    return math.pi * (p.aliased(1) + p.aliased(-1).conjugate())


def audit_normalization(p: PhaseDistribution, norm_tol: float = 1e-6) -> None:
    """Raise ValueError unless P integrates to 1 within norm_tol.

    On a grid of N points the sum misses 1 when P has Fourier content at
    degrees that are nonzero multiples of N, and a truncated Fock space
    loses weight, so the error names both settings.
    """
    total = integrate_distribution(p)
    if not abs(total - 1.0) <= norm_tol:  # also rejects NaN
        raise ValueError(
            f"distribution integrates to {total}, not 1, on a grid of N = {p.grid_size} "
            "points; raise the grid size (--grid) or the Fock cutoff"
        )


def dispersion(p: PhaseDistribution, norm_tol: float = 1e-6) -> float:
    """Phase dispersion D = 1 - |first circular moment|^2.

    Origin-independent; 1 for the uniform distribution, -> 0 for a narrow
    peak.  Input must pass audit_normalization within norm_tol.
    """
    audit_normalization(p, norm_tol)
    return 1.0 - abs(first_circular_moment(p)) ** 2

"""Functionals of phase distributions: normalization audit and dispersion.

Both read Fourier coefficients, never samples, so neither depends on an
angular grid: the integral of P is 2 pi Re c_0 and its first circular
moment pi (c_1 + conj c_{-1}).  Only where P is written as N samples does
the grid enter, and there the audit checks the N-point Riemann sum, which
picks out the coefficients of degree 0 mod N.
"""

from __future__ import annotations

import math

from .distribution import PhaseDistribution


def _coefficient(p: PhaseDistribution, d: int) -> complex:
    """c_d, and 0 for a degree above that of P."""
    degree = len(p.coeffs) // 2
    return complex(p.coeffs[d + degree]) if abs(d) <= degree else 0j


def integrate_distribution(p: PhaseDistribution) -> float:
    """Integral of P over [0, 2pi): 2 pi Re c_0."""
    return 2.0 * math.pi * _coefficient(p, 0).real


def first_circular_moment(p: PhaseDistribution) -> complex:
    """Integral of e^{-i phi} P(phi) d phi: with P = Re sum c_d e^{i d phi}
    it is pi (c_1 + conj c_{-1})."""
    return math.pi * (_coefficient(p, 1) + _coefficient(p, -1).conjugate())


def audit_normalization(
    p: PhaseDistribution, n: int | None = None, norm_tol: float = 1e-6
) -> None:
    """Raise ValueError unless P integrates to 1 within norm_tol.

    Without n the integral is exact.  With n it is the Riemann sum of the n
    samples of P, 2 pi Re sum_{d = 0 mod n} c_d, which also misses 1 when P
    has Fourier content at nonzero multiples of n; a truncated Fock space
    loses weight either way, so the error names the settings that apply.
    """
    if n is None:
        total, where = integrate_distribution(p), "; raise the Fock cutoff (--cutoff)"
    else:
        degree = len(p.coeffs) // 2
        total = 2.0 * math.pi * sum(p.coeffs[degree % n :: n].tolist(), 0j).real
        where = (
            f", on a grid of N = {n} points; raise the grid size (--grid) "
            "or the Fock cutoff (--cutoff)"
        )
    if not abs(total - 1.0) <= norm_tol:  # also rejects NaN
        raise ValueError(f"distribution integrates to {total}, not 1{where}")


def dispersion(p: PhaseDistribution, norm_tol: float = 1e-6) -> float:
    """Phase dispersion D = 1 - |first circular moment|^2.

    Origin-independent; 1 for the uniform distribution, -> 0 for a narrow
    peak.  Input must pass audit_normalization within norm_tol.
    """
    audit_normalization(p, norm_tol=norm_tol)
    return 1.0 - abs(first_circular_moment(p)) ** 2

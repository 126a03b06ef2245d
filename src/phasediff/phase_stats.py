"""Functionals of phase distributions: normalization audit and dispersion.

A P is the array of its Fourier coefficients c_{-D}..c_D (distribution).
Both functionals read coefficients, never samples, so neither depends on an
angular grid: the integral of P is 2 pi Re c_0 and its first circular
moment, the integral of e^{-i phi} P(phi), is pi (c_1 + conj c_{-1}).  Only
where P is written as N samples does the grid enter, and there the audit
checks the N-point Riemann sum, which picks out the coefficients of degree
0 mod N.

A dispersion reads c_{-1}, c_0 and c_1 only, so a curve of them is one
block of rows (c_{-1}, c_0, c_1), one row per P (degree_one); dispersions
audits and reads a whole block in one step, and dispersion is the same
formula on the coefficients of one P.
"""

from __future__ import annotations

import math

import numpy as np

# how far the integral of a P may miss 1
NORM_TOL = 1e-6
_CUTOFF_HINT = "; raise the Fock cutoff (--cutoff)"


def integrate_distribution(coeffs: np.ndarray) -> float:
    """Integral of P over [0, 2pi): 2 pi Re c_0 of its coefficients c_{-D}..c_D."""
    return 2.0 * math.pi * coeffs.item(len(coeffs) // 2).real


def _first_moments(block: np.ndarray) -> np.ndarray:
    """pi (c_1 + conj c_{-1}) of each row (c_{-1}, c_0, c_1) of block."""
    return math.pi * (block[..., 2] + block[..., 0].conj())


def _check_integrals(totals, where: str) -> None:
    """Raise ValueError at the first of the integrals totals (one number or
    an array) that misses 1 by more than NORM_TOL, NaN included."""
    off = np.flatnonzero(~(np.abs(np.subtract(totals, 1.0)) <= NORM_TOL))
    if len(off):
        raise ValueError(f"distribution integrates to {np.ravel(totals)[off[0]]}, not 1{where}")


def audit_normalization(coeffs: np.ndarray, n: int) -> None:
    """Raise ValueError unless the n samples of P integrate to 1 within
    NORM_TOL.

    The integral is their Riemann sum, 2 pi Re sum_{d = 0 mod n} c_d, which
    misses 1 when P has Fourier content at nonzero multiples of n as well as
    when a truncated Fock space loses weight, so the error names both
    settings.
    """
    degree = len(coeffs) // 2
    total = 2.0 * math.pi * sum(coeffs[degree % n :: n].tolist(), 0j).real
    _check_integrals(total, (
        f", on a grid of N = {n} points; raise the grid size (--grid) "
        "or the Fock cutoff (--cutoff)"
    ))


def degree_one(coeffs: np.ndarray) -> np.ndarray:
    """(c_{-1}, c_0, c_1) of each row of coefficients c_{-D}..c_D (the last
    axis), with c_{+-1} = 0 where D = 0."""
    full = coeffs.shape[-1] // 2
    if full == 1:
        return coeffs
    if full == 0:
        zero = np.zeros_like(coeffs)
        return np.concatenate([zero, coeffs, zero], axis=-1)
    return coeffs[..., full - 1 : full + 2]


def dispersions(block: np.ndarray) -> np.ndarray:
    """Phase dispersion D = 1 - |pi (c_1 + conj c_{-1})|^2 of each row
    (c_{-1}, c_0, c_1) of block, after the audit of every row's integral
    2 pi Re c_0 against NORM_TOL, which names the first row at fault."""
    _check_integrals(2.0 * math.pi * block[..., 1].real, _CUTOFF_HINT)
    return 1.0 - np.abs(_first_moments(block)) ** 2


def dispersion(coeffs: np.ndarray) -> float:
    """Phase dispersion D = 1 - |first circular moment|^2 of the P with
    coefficients c_{-D}..c_D.

    Origin-independent; 1 for the uniform distribution, -> 0 for a narrow
    peak.  P must integrate to 1 within NORM_TOL, as dispersions checks.
    """
    return float(dispersions(degree_one(coeffs)))

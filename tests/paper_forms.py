"""The paper's closed-form QND phase distributions for one and two atoms,
written term by term in cos(phi) on a grid of angles phi.

They are the tests' oracle of the general atomic route at j = 1/2 and
j = 1, and of the single-atom coherent closed form; they share no code with
the package.
"""

import math

import numpy as np


def coherent_halfspin(params, omega, t, gamma_t, phi):
    """j = 1/2, atomic coherent start |alpha_p, beta_p>."""
    return (
        1.0
        + (math.pi / 4.0)
        * math.sin(params.alpha_p)
        * np.cos(params.beta_p + omega * t - phi)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)


def squeezed_halfspin(Theta, sign, omega, t, gamma_t, phi):
    """j = 1/2, atomic squeezed start with p = sign / 2, sign = +1 or -1."""
    return (
        1.0
        + sign
        * (math.pi / (4.0 * math.cosh(Theta)))
        * np.cos(phi - omega * t)
        * math.exp(-(omega**2) * gamma_t)
    ) / (2.0 * math.pi)


def two_atoms(Theta, p, omega, t, eta_t, gamma_t, phi):
    """j = 1, atomic squeezed start with p in {+1, -1, 0}."""
    w2 = omega**2
    if p == 0:
        return (
            1.0
            - np.cos(2.0 * (phi - omega * t))
            * math.exp(-4.0 * w2 * gamma_t)
            / (2.0 * math.cosh(2.0 * Theta))
        ) / (2.0 * math.pi)
    denom = 1.0 + math.cosh(2.0 * Theta)
    return (
        1.0
        + p
        * (3.0 * math.pi / (4.0 * denom))
        * (
            np.cos(phi - omega * t) * math.cos(w2 * eta_t) * math.cosh(Theta)
            - np.sin(phi - omega * t) * math.sin(w2 * eta_t) * math.sinh(Theta)
        )
        * math.exp(-w2 * gamma_t)
        + (1.0 / (2.0 * denom))
        * np.cos(2.0 * (phi - omega * t))
        * math.exp(-4.0 * w2 * gamma_t)
    ) / (2.0 * math.pi)

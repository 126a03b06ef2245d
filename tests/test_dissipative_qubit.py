import math

import numpy as np
import pytest

from phasediff.distribution import phase_grid
from phasediff.dissipative_qubit import (
    _damped_cosh_sinhc,
    excited_population,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    propagate_qubit,
    qubit_spec,
)
from phasediff.oracle import integrate_lindblad_qubit
from phasediff.phase_stats import integrate_distribution
from phasediff.qnd_phase import (
    AtomicCoherentParams,
    atomic_coherent_density,
    phase_dist_coherent_halfspin,
    phase_dist_squeezed_halfspin,
)

GRID = 240
RHO0 = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)

SETTINGS = [
    # (r, Phi, T, gamma0, t): includes the strongly squeezed hot stiff case
    (0.0, 0.0, 0.0, 0.25, 1.5),
    (0.0, math.pi / 8, 300.0, 0.25, 0.1),
    (1.0, math.pi / 8, 0.0, 0.25, 0.7),
    (2.0, math.pi / 8, 300.0, 0.25, 0.3),
    (0.5, 1.1, 100.0, 0.0025, 5.0),
]


@pytest.mark.parametrize("r,Phi,T,g0,t", SETTINGS)
def test_propagator_matches_ode_oracle(r, Phi, T, g0, t):
    # [DERIVED] direct integration of the master equation
    spec = qubit_spec(1.0, g0, r, Phi, T)
    closed = propagate_qubit(RHO0, spec, t)
    oracle = integrate_lindblad_qubit(RHO0, spec, t)
    assert np.max(np.abs(closed - oracle)) < 1e-8


def test_propagator_preserves_trace_and_hermiticity():
    spec = qubit_spec(1.0, 0.25, 1.0, 0.4, 300.0)
    out = propagate_qubit(RHO0, spec, 2.0)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_zero_coupling_is_unitary_rotation():
    # [TRIVIAL] gamma0 = 0: coherences rotate at frequency omega
    spec = qubit_spec(2.0, 0.0, 0.0, 0.0, 0.0)
    out = propagate_qubit(RHO0, spec, 0.9)
    assert np.allclose(np.diag(out), np.diag(RHO0), atol=1e-14)
    assert abs(out[1, 0] - RHO0[1, 0] * np.exp(-2j * 0.9)) < 1e-13


def test_long_time_population_reaches_detailed_balance():
    # [TRIVIAL] p_e(infinity) = N / (2N + 1)
    spec = qubit_spec(1.0, 0.025, 0.0, 0.0, 100.0)
    n = spec.moments.N
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    assert abs(excited_population(state, spec, 5000.0) - n / (2 * n + 1)) < 1e-6


def test_excited_population_matches_propagator_diagonal():
    state = AtomicCoherentParams(math.pi / 3, 0.7)
    rho0 = atomic_coherent_density(state, 0.5).elements
    for r, T, t in ((0.0, 0.0, 0.8), (1.0, 300.0, 0.4)):
        spec = qubit_spec(1.0, 0.25, r, math.pi / 8, T)
        out = propagate_qubit(rho0, spec, t)
        assert abs(excited_population(state, spec, t) - out[1, 1].real) < 1e-12


def test_phase_distributions_normalized():
    spec = qubit_spec(1.0, 0.25, 2.0, math.pi / 8, 300.0)
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    p = phase_dist_qubit_coherent(state, spec, 0.3)
    assert abs(integrate_distribution(p) - 1.0) < 1e-12
    q = phase_dist_qubit_squeezed(-0.01832, 0.5, spec, 0.3)
    assert abs(integrate_distribution(q) - 1.0) < 1e-12


def test_zero_coupling_reduces_to_dephasing_free_closed_forms():
    # gamma0 = 0 limits agree with the unitary (gamma = 0) dephasing forms
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    spec = qubit_spec(1.0, 0.0, 0.0, 0.0, 0.0)
    t = 0.8
    a = phase_dist_qubit_coherent(state, spec, t).samples(GRID)
    b = phase_dist_coherent_halfspin(state, 1.0, t, 0.0).samples(GRID)
    assert np.max(np.abs(a - b)) < 1e-12
    for p_sign in (0.5, -0.5):
        c = phase_dist_qubit_squeezed(0.3, p_sign, spec, t).samples(GRID)
        d = phase_dist_squeezed_halfspin(0.3, p_sign, 1.0, t, 0.0).samples(GRID)
        assert np.max(np.abs(c - d)) < 1e-12


@pytest.mark.parametrize("args, field", [((1.0, math.nan, 0.0, 0.0, 0.0), "gamma0"),
                                         ((1.0, 0.25, math.nan, 0.0, 0.0), "r"),
                                         ((1.0, 0.25, 0.0, 0.0, math.inf), "T")])
def test_spec_rejects_non_finite(args, field):
    with pytest.raises(ValueError, match=f"^{field} = "):
        qubit_spec(*args)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_propagate_rejects_non_finite_time(t):
    spec = qubit_spec(1.0, 0.25, 1.0, 0.3, 0.0)
    with pytest.raises(ValueError, match="must be finite"):
        propagate_qubit(RHO0, spec, t)


@pytest.mark.parametrize("gamma0", [0.25, 0.0])
@pytest.mark.parametrize("t, message", [(-1.0, "^t = -1.0 must be nonnegative"),
                                        (math.nan, "^t = nan must be finite"),
                                        (math.inf, "^t = inf must be finite")])
def test_closed_forms_reject_negative_or_non_finite_time(gamma0, t, message):
    # also in the unitary limit gamma0 = 0, which needs no damping factors
    spec = qubit_spec(1.0, gamma0, 1.0, 0.3, 100.0)
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    for evaluate in (
        lambda: propagate_qubit(RHO0, spec, t),
        lambda: phase_dist_qubit_coherent(state, spec, t),
        lambda: phase_dist_qubit_squeezed(0.3, 0.5, spec, t),
        lambda: excited_population(state, spec, t),
    ):
        with pytest.raises(ValueError, match=message):
            evaluate()


def _old_qubit_bracket(spec, t, beta, phi):
    # the closed forms' bracket as it was written on the grid
    ch, sh = _damped_cosh_sinhc(spec.alpha_sq, spec.gamma_beta, t)
    return (
        ch * np.cos(phi - beta)
        + spec.omega * sh * np.sin(phi - beta)
        - spec.gamma0 * spec.moments.R_signed * sh * np.cos(spec.moments.Phi + beta + phi)
    )


@pytest.mark.parametrize("n", [8, 720])
@pytest.mark.parametrize("r,Phi,T,g0,t", SETTINGS)
def test_qubit_closed_forms_equal_the_grid_formulas(n, r, Phi, T, g0, t):
    phi = phase_grid(n)
    spec = qubit_spec(1.0, g0, r, Phi, T)
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    old = (1.0 + (math.pi / 4.0) * math.sin(state.alpha_p)
           * _old_qubit_bracket(spec, t, state.beta_p, phi)) / (2.0 * math.pi)
    p = phase_dist_qubit_coherent(state, spec, t).samples(n)
    assert np.max(np.abs(p - old)) < 1e-14
    for p_sign in (0.5, -0.5):
        old = (1.0 + 2.0 * p_sign * (math.pi / (4.0 * math.cosh(0.6)))
               * _old_qubit_bracket(spec, t, 0.0, phi)) / (2.0 * math.pi)
        p = phase_dist_qubit_squeezed(0.6, p_sign, spec, t).samples(n)
        assert np.max(np.abs(p - old)) < 1e-14

import math

import numpy as np
import pytest

from phasediff.distribution import phase_grid, samples
from phasediff.dissipative_qubit import (
    _damped_cosh_sinhc,
    _population,
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
    AtomicSqueezedParams,
    atomic_coherent_density,
    atomic_squeezed_density,
    phase_dist_coherent_halfspin,
    phase_distribution_atomic,
)
from paper_forms import squeezed_halfspin

GRID = 240
RHO0 = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)

SETTINGS = [
    # (r, Phi, T, gamma0, t): includes the strongly squeezed hot stiff case
    (0.0, 0.0, 0.0, 0.25, 1.5),
    (0.0, math.pi / 8, 300.0, 0.25, 0.1),
    (1.0, math.pi / 8, 0.0, 0.25, 0.7),
    (2.0, math.pi / 8, 300.0, 0.25, 0.3),
    (0.5, 1.1, 100.0, 0.0025, 5.0),
    # a negative r is |r| at phase Phi + pi
    (-1.0, math.pi / 8, 100.0, 0.25, 0.7),
    (-2.0, math.pi / 8, 100.0, 0.25, 0.7),
]


@pytest.mark.parametrize("r,Phi,T,g0,t", SETTINGS)
def test_propagator_matches_ode_oracle(r, Phi, T, g0, t):
    # [DERIVED] direct integration of the master equation
    spec = qubit_spec(1.0, g0, r, Phi, T)
    closed = propagate_qubit(RHO0, spec, t)
    oracle = integrate_lindblad_qubit(RHO0, spec, t)
    assert np.max(np.abs(closed - oracle)) < 1e-8


# SETTINGS and the unitary limit gamma0 = 0
WITH_UNITARY = SETTINGS + [(1.0, math.pi / 8, 100.0, 0.0, 0.7)]


@pytest.mark.parametrize("r,Phi,T,g0,t", WITH_UNITARY)
def test_propagator_needs_neither_hermiticity_nor_unit_trace(r, Phi, T, g0, t):
    # the closed form is linear in all four elements: rho_01 is not conj rho_10
    # and the trace is not 1
    rho0 = np.array([[0.2 + 0.1j, 0.3 - 0.4j], [-0.1 + 0.2j, 0.5 - 0.3j]])
    spec = qubit_spec(1.0, g0, r, Phi, T)
    closed = propagate_qubit(rho0, spec, t)
    assert np.max(np.abs(closed - integrate_lindblad_qubit(rho0, spec, t))) < 1e-12


@pytest.mark.parametrize("r,Phi,T,g0,t", WITH_UNITARY)
def test_qubit_closed_forms_equal_the_propagated_density(r, Phi, T, g0, t):
    # the closed forms against P of the propagated Dicke matrix, through the
    # general atomic path phase_distribution_atomic
    spec = qubit_spec(1.0, g0, r, Phi, T)
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    rho = propagate_qubit(atomic_coherent_density(state, 0.5), spec, t)
    closed = phase_dist_qubit_coherent(state, spec, t)
    assert np.max(np.abs(closed - phase_distribution_atomic(rho))) < 1e-14
    for p_sign in (0.5, -0.5):
        start = atomic_squeezed_density(AtomicSqueezedParams(0.5, p_sign, 0.6))
        rho = propagate_qubit(start, spec, t)
        closed = phase_dist_qubit_squeezed(0.6, p_sign, spec, t)
        assert np.max(np.abs(closed - phase_distribution_atomic(rho))) < 1e-14


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
    n = spec.N
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    assert abs(excited_population(state, spec, 5000.0) - n / (2 * n + 1)) < 1e-6


@pytest.mark.parametrize("gamma0", [0.25, 0.0])
def test_excited_population_matches_propagator_diagonal(gamma0):
    # a number t is a one-entry array of t, bit for bit, and gives a float
    state = AtomicCoherentParams(math.pi / 3, 0.7)
    rho0 = atomic_coherent_density(state, 0.5)
    for r, T, t in ((0.0, 0.0, 0.8), (1.0, 300.0, 0.4)):
        spec = qubit_spec(1.0, gamma0, r, math.pi / 8, T)
        out = propagate_qubit(rho0, spec, t)
        p11 = excited_population(state, spec, t)
        assert isinstance(p11, float)
        assert p11 == excited_population(state, spec, np.array([t]))[0]
        assert abs(p11 - out[1, 1].real) < 1e-12
        (r00, _), (_, r11) = rho0.tolist()
        assert out[1, 1] == _population(r11, r00, spec, np.array([t]))[0]


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
    a = samples(phase_dist_qubit_coherent(state, spec, t), GRID)
    b = samples(phase_dist_coherent_halfspin(state, 1.0, t, 0.0), GRID)
    assert np.max(np.abs(a - b)) < 1e-12
    for p_sign in (0.5, -0.5):
        c = samples(phase_dist_qubit_squeezed(0.3, p_sign, spec, t), GRID)
        d = squeezed_halfspin(0.3, 2 * p_sign, 1.0, t, 0.0, phase_grid(GRID))
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
    # with the anomalous moment's magnitude (N_th + 1/2) sinh 2r written out
    ch, sh = _damped_cosh_sinhc(spec, t)
    mag = (spec.N_th + 0.5) * math.sinh(2.0 * spec.r)
    return (
        ch * np.cos(phi - beta)
        + spec.omega * sh * np.sin(phi - beta)
        + spec.gamma0 * mag * sh * np.cos(spec.Phi + beta + phi)
    )


@pytest.mark.parametrize("n", [8, 720])
@pytest.mark.parametrize("r,Phi,T,g0,t", SETTINGS)
def test_qubit_closed_forms_equal_the_grid_formulas(n, r, Phi, T, g0, t):
    phi = phase_grid(n)
    spec = qubit_spec(1.0, g0, r, Phi, T)
    state = AtomicCoherentParams(math.pi / 3, 0.4)
    old = (1.0 + (math.pi / 4.0) * math.sin(state.alpha_p)
           * _old_qubit_bracket(spec, t, state.beta_p, phi)) / (2.0 * math.pi)
    p = samples(phase_dist_qubit_coherent(state, spec, t), n)
    assert np.max(np.abs(p - old)) < 1e-14
    for p_sign in (0.5, -0.5):
        old = (1.0 + 2.0 * p_sign * (math.pi / (4.0 * math.cosh(0.6)))
               * _old_qubit_bracket(spec, t, 0.0, phi)) / (2.0 * math.pi)
        p = samples(phase_dist_qubit_squeezed(0.6, p_sign, spec, t), n)
        assert np.max(np.abs(p - old)) < 1e-14

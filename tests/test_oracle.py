import math

import numpy as np
import pytest

from phasediff.bath_kernels import QndBathSpec, ZeroTemperature
from phasediff.dissipative_qubit import qubit_spec
from phasediff.dissipative_oscillator import oscillator_spec
from phasediff.halfint import HalfInteger
from phasediff.oracle import (
    OdeConfig,
    gamma_by_quadrature,
    integrate_lindblad_oscillator,
    integrate_lindblad_qubit,
    phase_dist_by_quadrature,
    rk4_fixed,
)
from phasediff.qnd_phase import (
    AtomicCoherentParams,
    DickeDensityMatrix,
    atomic_coherent_density,
    phase_distribution_atomic,
)


def test_ode_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(method="euler")
    with pytest.raises(ValueError):
        OdeConfig(abs_tol=-1.0)


def test_rk4_fourth_order_convergence():
    # halving h reduces the error ~16x on the analytic decay y' = -y
    f = lambda _t, y: -y
    y0 = np.array([1.0 + 0j])
    exact = math.exp(-2.0)
    err = lambda h: abs(rk4_fixed(f, y0, 0.0, 2.0, h)[0] - exact)
    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_qubit_oracle_amplitude_damping():
    # [TRIVIAL] N = M = 0, start excited: rho_11(t) = e^{-gamma0 t}
    spec = qubit_spec(1.0, 0.25, 0.0, 0.0, 0.0)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    out = integrate_lindblad_qubit(rho0, spec, 2.0)
    assert abs(out[1, 1].real - math.exp(-0.5)) < 1e-9


def test_qubit_oracle_unitary_rotation():
    # [TRIVIAL] gamma0 = 0: coherence rotates at frequency omega
    spec = qubit_spec(1.5, 1e-300, 0.0, 0.0, 0.0)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = integrate_lindblad_qubit(rho0, spec, 1.0)
    assert abs(out[1, 0] - 0.5 * np.exp(-1.5j)) < 1e-9


def test_qubit_oracle_conserves_trace():
    spec = qubit_spec(1.0, 0.25, 1.0, 0.3, 300.0)
    rho0 = np.array([[0.3, 0.2j], [-0.2j, 0.7]], dtype=complex)
    out = integrate_lindblad_qubit(rho0, spec, 5.0)
    assert abs(np.trace(out).real - 1.0) < 1e-9


def test_oscillator_oracle_time_zero_identity():
    spec = oscillator_spec(1.0, 0.25, 0.0, 0.0, 1.0)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    assert np.array_equal(integrate_lindblad_oscillator(rho0, spec, 0.0, 12), rho0)


def test_oscillator_oracle_thermalizes_vacuum():
    # r = 0, T > 0: detailed-balance fixed point is the thermal state
    spec = oscillator_spec(1.0, 1.0, 0.0, 0.0, 1.0)
    nth = spec.moments.N_th
    cutoff = 25
    rho0 = np.zeros((cutoff, cutoff), dtype=complex)
    rho0[0, 0] = 1.0
    out = integrate_lindblad_oscillator(rho0, spec, 25.0, cutoff)
    n = np.arange(cutoff)
    thermal = (nth / (nth + 1.0)) ** n / (nth + 1.0)
    assert np.max(np.abs(np.diag(out).real - thermal)) < 1e-7
    assert abs(np.trace(out).real - 1.0) < 1e-9


def test_quadrature_distribution_fock_state_uniform():
    rho = DickeDensityMatrix(HalfInteger.of(1), np.diag([0, 1, 0]).astype(complex))
    p = phase_dist_by_quadrature(rho, 60)
    assert np.max(np.abs(p.values - 1.0 / (2.0 * math.pi))) < 1e-10


def test_quadrature_distribution_matches_beta_closed_form():
    # [DERIVED] adjudicates the Beta-integral pipeline at j = 1/2
    rho = atomic_coherent_density(AtomicCoherentParams(1.1, 0.6), 0.5)
    quad = phase_dist_by_quadrature(rho, 90)
    beta = phase_distribution_atomic(rho, 90)
    assert np.max(np.abs(quad.values - beta.values)) < 1e-9


def test_gamma_quadrature_trivial_log_case():
    spec = QndBathSpec(
        gamma0=0.025, omega_c=100.0, r=0.0, a=0.0, regime=ZeroTemperature()
    )
    t = 0.7
    expected = (0.025 / (2.0 * math.pi)) * math.log(1.0 + (100.0 * t) ** 2)
    assert abs(gamma_by_quadrature(t, spec) - expected) < 1e-8 * expected

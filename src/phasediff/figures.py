"""Figure scenario registry: canonical parameter sets and curve builders.

Each scenario fig1..fig10 reproduces one figure-style data set as columns
over a shared abscissa (angle, time, or swept parameter).  Builders collect
every phase distribution they produce so the normalization audit can sweep
them all.  Everything is deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .bath_kernels import HighTemperature, QndBathSpec, ZeroTemperature, eta, gamma_qnd
from .distribution import DEFAULT_GRID_SIZE, PhaseDistribution, phase_grid
from .dissipative_oscillator import oscillator_spec, phase_dist_osc_dissipative
from .dissipative_qubit import (
    excited_population,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    qubit_spec,
)
from .phase_stats import dispersion
from .qnd_phase import (
    AtomicCoherentParams,
    AtomicSqueezedParams,
    atomic_squeezed_density,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
    phase_distribution_atomic,
    qnd_evolve,
)

THETA_TEN_ATOMS = -0.01832  # squeeze exponent used by the ten-atom scenarios
R_GRID = tuple(np.linspace(-2.0, 2.0, 41))


@dataclass(frozen=True)
class FigureData:
    scenario: str
    x_name: str
    x: np.ndarray
    columns: tuple[tuple[str, np.ndarray], ...]
    params: Mapping[str, float]
    notes: tuple[str, ...] = ()
    distributions: tuple[tuple[str, PhaseDistribution], ...] = ()


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: Mapping[str, float]
    builder: Callable


def _qnd_bath(params: Mapping[str, float], r: float, T: float) -> QndBathSpec:
    regime = ZeroTemperature() if T == 0 else HighTemperature(T=T)
    return QndBathSpec(
        gamma0=params["gamma0"], omega_c=params["omega_c"], r=r, a=params["a"], regime=regime
    )


def _kernels(params: Mapping[str, float], r: float, T: float, t: float) -> tuple[float, float]:
    spec = _qnd_bath(params, r, T)
    return eta(t, spec), gamma_qnd(t, spec)


# --- fig1: ten-atom QND phase distribution ---


def _build_fig1(params, grid, cutoff):
    rho0 = atomic_squeezed_density(
        AtomicSqueezedParams(params["j"], params["p"], params["Theta"])
    )
    omega = params["omega"]
    curves = [
        ("unitary t=0.1", None, None, 0.1),
        ("r=1 T=0 t=0.1", 1.0, 0.0, 0.1),
        ("r=1 T=0 t=1", 1.0, 0.0, 1.0),
        ("r=2 T=0 t=0.1", 2.0, 0.0, 0.1),
        ("r=1 T=300 t=0.1", 1.0, 300.0, 0.1),
    ]
    columns, dists = [], []
    for label, r, T, t in curves:
        if r is None:
            et, ga = 0.0, 0.0
        else:
            et, ga = _kernels(params, r, T, t)
        p = phase_distribution_atomic(qnd_evolve(rho0, omega, t, et, ga), grid)
        columns.append((label, p.values))
        dists.append((label, p))
    return FigureData("fig1", "phi", phase_grid(grid), tuple(columns), params, (), tuple(dists))


# --- fig2: dissipative qubit, atomic coherent state ---


def _build_fig2(params, grid, cutoff):
    state = AtomicCoherentParams(params["alpha_p"], params["beta_p"])
    columns, dists = [], []
    for label, r, T, t in [
        ("T=0 r=0 t=0.1", 0.0, 0.0, 0.1),
        ("T=0 r=0 t=1.5", 0.0, 0.0, 1.5),
        ("T=300 r=0 t=0.1", 0.0, 300.0, 0.1),
        ("T=300 r=2 t=0.1", 2.0, 300.0, 0.1),
    ]:
        spec = qubit_spec(params["omega"], params["gamma0"], r, params["Phi"], T)
        p = phase_dist_qubit_coherent(state, spec, t, grid)
        columns.append((label, p.values))
        dists.append((label, p))
    return FigureData("fig2", "phi", phase_grid(grid), tuple(columns), params, (), tuple(dists))


# --- fig3: excited-state population decay ---


def _build_fig3(params, grid, cutoff):
    state = AtomicCoherentParams(params["alpha_p"], params["beta_p"])
    times = np.linspace(0.0, params["t_max"], int(params["n_t"]))
    columns = []
    for label, r, T, g0 in [
        ("T=100 gamma0=0.0025 r=0", 0.0, 100.0, 0.0025),
        ("T=0 gamma0=0.025 r=0", 0.0, 0.0, 0.025),
        ("T=0 gamma0=0.025 r=1", 1.0, 0.0, 0.025),
    ]:
        spec = qubit_spec(params["omega"], g0, r, params["Phi"], T)
        columns.append((label, np.array([excited_population(state, spec, t) for t in times])))
    return FigureData("fig3", "t", times, tuple(columns), params)


# --- fig4: dissipative qubit, atomic squeezed state, both p signs ---


def _build_fig4(params, grid, cutoff):
    columns, dists = [], []
    for p_sign, tag in [(0.5, "p=+1/2"), (-0.5, "p=-1/2")]:
        for label, r, T, t in [
            ("T=0 r=0 t=0.1", 0.0, 0.0, 0.1),
            ("T=0 r=0 t=1.5", 0.0, 0.0, 1.5),
            ("T=300 r=0 t=0.1", 0.0, 300.0, 0.1),
            ("T=300 r=0.5 t=0.1", 0.5, 300.0, 0.1),
        ]:
            spec = qubit_spec(params["omega"], params["gamma0"], r, params["Phi"], T)
            p = phase_dist_qubit_squeezed(params["Theta"], p_sign, spec, t, grid)
            full = f"{tag} {label}"
            columns.append((full, p.values))
            dists.append((full, p))
    return FigureData("fig4", "phi", phase_grid(grid), tuple(columns), params, (), tuple(dists))


# --- fig5: oscillator, dephasing vs dissipative evolution ---


def _build_fig5(params, grid, cutoff):
    alpha_mag = math.sqrt(params["alpha_sq"])
    et, ga = _kernels(params, params["r"], params["T"], params["t"])
    p_qnd = phase_dist_osc_squeezed(
        params["r"], params["psi"], alpha_mag, params["theta0"],
        params["omega"], params["t"], et, ga, cutoff, grid,
    )
    spec = oscillator_spec(
        params["omega"], params["gamma0"], params["r"], params["Phi"], params["T"]
    )
    p_diss = phase_dist_osc_dissipative(
        spec, math.sqrt(params["eta0_sq"]), params["t"], None, grid
    )
    columns = (("dephasing", p_qnd.values), ("dissipative", p_diss.values))
    dists = (("dephasing", p_qnd), ("dissipative", p_diss))
    notes = (
        "eta0_sq (dissipative displacement) and theta0 are tool defaults",
    )
    return FigureData("fig5", "theta", phase_grid(grid), columns, params, notes, dists)


# --- dispersion sweeps (fig6-fig10) ---


def _sweep(scenario, x_name, xs, families, params):
    columns, dists = [], []
    for label, family in families:
        dvals = []
        for x in xs:
            p = family(x)
            dvals.append(dispersion(p))
            dists.append((f"{label} {x_name}={x:g}", p))
        columns.append((label, np.array(dvals)))
    return FigureData(
        scenario, x_name, np.array(xs), tuple(columns), params, (), tuple(dists)
    )


def _build_fig6(params, grid, cutoff):
    rho0 = atomic_squeezed_density(
        AtomicSqueezedParams(params["j"], params["p"], params["Theta"])
    )
    omega, t = params["omega"], params["t"]

    def family(T):
        def f(r):
            et, ga = _kernels(params, r, T, t)
            return phase_distribution_atomic(qnd_evolve(rho0, omega, t, et, ga), grid)

        return f

    families = [(f"T={T:g}", family(T)) for T in (0.0, 50.0, 100.0, 1000.0)]
    return _sweep("fig6", "r", R_GRID, families, params)


def _build_fig7(params, grid, cutoff):
    omega, t = params["omega"], params["t"]
    zetas = tuple(np.linspace(0.25, 2.0, 36))

    def family(T, unitary=False):
        def f(zeta):
            state = AtomicSqueezedParams.from_zeta(params["j"], params["p"], zeta)
            rho0 = atomic_squeezed_density(state)
            if unitary:
                et, ga = 0.0, 0.0
            else:
                et, ga = _kernels(params, params["r"], T, t)
            return phase_distribution_atomic(qnd_evolve(rho0, omega, t, et, ga), grid)

        return f

    families = [("unitary", family(0.0, unitary=True))]
    families += [(f"T={T:g}", family(T)) for T in (0.0, 50.0, 100.0)]
    return _sweep("fig7", "zeta", zetas, families, params)


def _build_fig8(params, grid, cutoff):
    omega, t = params["omega"], params["t"]
    alpha_mag = math.sqrt(params["alpha_sq"])

    def family(T, unitary=False):
        def f(r):
            if unitary:
                et, ga = 0.0, 0.0
            else:
                et, ga = _kernels(params, r, T, t)
            return phase_dist_osc_squeezed(
                params["r1"], params["psi"], alpha_mag, params["theta0"],
                omega, t, et, ga, cutoff, grid,
            )

        return f

    families = [("unitary", family(0.0, unitary=True))]
    families += [(f"T={T:g}", family(T)) for T in (0.0, 100.0, 1000.0)]
    return _sweep("fig8", "r", R_GRID, families, params)


def _build_fig9(params, grid, cutoff):
    state = AtomicCoherentParams(params["alpha_p"], params["beta_p"])

    def family(T):
        def f(r):
            spec = qubit_spec(params["omega"], params["gamma0"], r, params["Phi"], T)
            return phase_dist_qubit_coherent(state, spec, params["t"], grid)

        return f

    families = [(f"T={T:g}", family(T)) for T in (0.0, 100.0, 300.0, 1000.0)]
    return _sweep("fig9", "r", R_GRID, families, params)


def _build_fig10(params, grid, cutoff):
    state = AtomicCoherentParams(params["alpha_p"], params["beta_p"])
    omega, t = params["omega"], params["t"]

    def family(T):
        def f(r):
            _et, ga = _kernels(params, r, T, t)
            return phase_dist_coherent_halfspin(state, omega, t, ga, grid)

        return f

    families = [(f"T={T:g}", family(T)) for T in (0.0, 50.0, 100.0, 1000.0)]
    return _sweep("fig10", "r", R_GRID, families, params)


SCENARIOS: dict[str, Scenario] = {
    "fig1": Scenario(
        "fig1",
        "Phase distribution of ten atoms under dephasing, atomic squeezed start",
        {"j": 5.0, "p": 5.0, "Theta": THETA_TEN_ATOMS, "gamma0": 0.025,
         "omega": 1.0, "omega_c": 100.0, "a": 0.0},
        _build_fig1,
    ),
    "fig2": Scenario(
        "fig2",
        "Phase distribution of a dissipative qubit, atomic coherent start",
        {"omega": 1.0, "gamma0": 0.25, "Phi": math.pi / 8,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig2,
    ),
    "fig3": Scenario(
        "fig3",
        "Excited-state population decay of a dissipative qubit",
        {"omega": 1.0, "Phi": 0.0, "alpha_p": math.pi / 4, "beta_p": math.pi / 4,
         "t_max": 250.0, "n_t": 501.0},
        _build_fig3,
    ),
    "fig4": Scenario(
        "fig4",
        "Phase distribution of a dissipative qubit, atomic squeezed start, p = +-1/2",
        {"omega": 1.0, "gamma0": 0.025, "Phi": math.pi / 8, "Theta": THETA_TEN_ATOMS},
        _build_fig4,
    ),
    "fig5": Scenario(
        "fig5",
        "Oscillator phase distribution: dephasing vs dissipative bath",
        {"omega": 1.0, "omega_c": 100.0, "T": 0.0, "r": 1.0, "t": 0.1,
         "gamma0": 0.025, "psi": 0.0, "Phi": 0.0, "alpha_sq": 5.0,
         "theta0": 0.0, "eta0_sq": 1.0, "a": 0.0},
        _build_fig5,
    ),
    "fig6": Scenario(
        "fig6",
        "Dispersion vs bath squeezing, ten atoms under dephasing",
        {"j": 5.0, "p": 5.0, "Theta": THETA_TEN_ATOMS, "a": 0.0,
         "gamma0": 0.0025, "t": 1.0, "omega": 1.0, "omega_c": 100.0},
        _build_fig6,
    ),
    "fig7": Scenario(
        "fig7",
        "Dispersion vs system squeezing, ten atoms under dephasing",
        {"j": 5.0, "p": 5.0, "a": 0.0, "r": 0.0, "gamma0": 0.0025,
         "t": 1.0, "omega": 1.0, "omega_c": 100.0},
        _build_fig7,
    ),
    "fig8": Scenario(
        "fig8",
        "Dispersion vs bath squeezing, oscillator under dephasing",
        {"alpha_sq": 5.0, "theta0": 0.0, "r1": 0.5, "psi": math.pi / 4,
         "gamma0": 0.0025, "t": 0.1, "omega": 1.0, "omega_c": 100.0, "a": 0.0},
        _build_fig8,
    ),
    "fig9": Scenario(
        "fig9",
        "Dispersion vs bath squeezing, dissipative qubit",
        {"gamma0": 0.0025, "t": 1.0, "omega": 1.0, "Phi": math.pi / 8,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig9,
    ),
    "fig10": Scenario(
        "fig10",
        "Dispersion vs bath squeezing, qubit under dephasing",
        {"a": 0.0, "gamma0": 0.0025, "t": 1.0, "omega": 1.0, "omega_c": 100.0,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig10,
    ),
}


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    overrides: Mapping[str, float] = field(default_factory=dict)
    grid: int = DEFAULT_GRID_SIZE
    cutoff: int | None = None

    def resolved_params(self) -> dict[str, float]:
        if self.scenario not in SCENARIOS:
            raise KeyError(f"unknown scenario {self.scenario!r}")
        defaults = dict(SCENARIOS[self.scenario].defaults)
        for key, value in self.overrides.items():
            if key not in defaults:
                raise KeyError(
                    f"unknown parameter {key!r} for {self.scenario}; "
                    f"valid keys: {', '.join(sorted(defaults))}"
                )
            defaults[key] = float(value)
        return defaults


def run_figure(config: RunConfig) -> FigureData:
    params = config.resolved_params()
    scenario = SCENARIOS[config.scenario]
    return scenario.builder(params, config.grid, config.cutoff)

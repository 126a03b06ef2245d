"""Figure scenario registry, point models and the sweep loop.

Each scenario fig1..fig10 reproduces one figure-style data set as columns
over a shared abscissa (angle, time, or swept parameter).  A point model
maps (params, grid, cutoff) to one phase distribution; the figures and the
`sweep` command's families (SWEEP_FAMILIES) run the same point models
through one loop, `evaluate`.  Builders collect every phase distribution
they produce so the normalization audit can sweep them all.  Everything is
deterministic; there is no randomness anywhere.
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


def _kernels(p: Mapping[str, float]) -> tuple[float, float]:
    """eta(t) and gamma(t) of the dephasing bath; gamma0 = 0 is the unitary
    limit, which needs neither r nor T."""
    if p["gamma0"] == 0:
        return 0.0, 0.0
    regime = ZeroTemperature() if p["T"] == 0 else HighTemperature(T=p["T"])
    spec = QndBathSpec(
        gamma0=p["gamma0"], omega_c=p["omega_c"], r=p["r"], a=p["a"], regime=regime
    )
    return eta(p["t"], spec), gamma_qnd(p["t"], spec)


# --- point models: (params, grid, cutoff) -> one PhaseDistribution ---


def _qnd_atoms(p, grid, cutoff):
    """Dicke atoms (j, p, Theta) from an atomic squeezed start, dephasing."""
    rho0 = atomic_squeezed_density(AtomicSqueezedParams(p["j"], p["p"], p["Theta"]))
    et, ga = _kernels(p)
    return phase_distribution_atomic(qnd_evolve(rho0, p["omega"], p["t"], et, ga), grid)


def _qnd_atoms_zeta(p, grid, cutoff):
    """_qnd_atoms with the system squeezing given as zeta instead of Theta."""
    theta = AtomicSqueezedParams.from_zeta(p["j"], p["p"], p["zeta"]).Theta
    return _qnd_atoms({**p, "Theta": theta}, grid, cutoff)


def _qnd_qubit(p, grid, cutoff):
    _et, ga = _kernels(p)
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_coherent_halfspin(state, p["omega"], p["t"], ga, grid)


def _dissipative_qubit(p, grid, cutoff):
    spec = qubit_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_qubit_coherent(state, spec, p["t"], grid)


def _qnd_oscillator(p, grid, cutoff):
    et, ga = _kernels(p)
    return phase_dist_osc_squeezed(
        p["r1"], p["psi"], math.sqrt(p["alpha_sq"]), p["theta0"],
        p["omega"], p["t"], et, ga, cutoff, grid,
    )


def _dissipative_oscillator(p, grid, cutoff):
    spec = oscillator_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    return phase_dist_osc_dissipative(spec, math.sqrt(p["eta0_sq"]), p["t"], cutoff, grid)


def evaluate(point, params, runs, grid, cutoff):
    """Yield (label, point({**params, **overrides}, grid, cutoff)) for each
    (label, overrides) in runs, one point at a time, so a caller that keeps
    only a statistic never holds more than one distribution."""
    for label, overrides in runs:
        yield label, point({**params, **overrides}, grid, cutoff)


def distribution_figure(scenario, point, params, runs, grid, cutoff) -> FigureData:
    """One P(phi) column per (label, overrides) in runs."""
    dists = tuple(evaluate(point, params, runs, grid, cutoff))
    columns = tuple((label, p.values) for label, p in dists)
    return FigureData(scenario, "phi", phase_grid(grid), columns, params, (), dists)


def _dispersion_figure(scenario, point, params, x_name, xs, curves, grid, cutoff):
    """One dispersion column per (label, overrides) curve, over x_name = xs."""
    runs = [
        (f"{label} {x_name}={x:g}", {**overrides, x_name: x})
        for label, overrides in curves
        for x in xs
    ]
    dists = tuple(evaluate(point, params, runs, grid, cutoff))
    d = np.array([dispersion(p) for _, p in dists]).reshape(len(curves), len(xs))
    columns = tuple((label, row) for (label, _), row in zip(curves, d))
    return FigureData(scenario, x_name, np.array(xs), columns, params, (), dists)


def _temperature_curves(*temps):
    return [(f"T={T:g}", {"T": T}) for T in temps]


# --- fig1: ten-atom QND phase distribution ---


def _build_fig1(params, grid, cutoff):
    runs = [
        ("unitary t=0.1", {"gamma0": 0.0, "t": 0.1}),
        ("r=1 T=0 t=0.1", {"r": 1.0, "T": 0.0, "t": 0.1}),
        ("r=1 T=0 t=1", {"r": 1.0, "T": 0.0, "t": 1.0}),
        ("r=2 T=0 t=0.1", {"r": 2.0, "T": 0.0, "t": 0.1}),
        ("r=1 T=300 t=0.1", {"r": 1.0, "T": 300.0, "t": 0.1}),
    ]
    return distribution_figure("fig1", _qnd_atoms, params, runs, grid, cutoff)


# --- fig2: dissipative qubit, atomic coherent state ---


def _build_fig2(params, grid, cutoff):
    runs = [
        ("T=0 r=0 t=0.1", {"r": 0.0, "T": 0.0, "t": 0.1}),
        ("T=0 r=0 t=1.5", {"r": 0.0, "T": 0.0, "t": 1.5}),
        ("T=300 r=0 t=0.1", {"r": 0.0, "T": 300.0, "t": 0.1}),
        ("T=300 r=2 t=0.1", {"r": 2.0, "T": 300.0, "t": 0.1}),
    ]
    return distribution_figure("fig2", _dissipative_qubit, params, runs, grid, cutoff)


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
    p_qnd = _qnd_oscillator({**params, "r1": params["r"]}, grid, cutoff)
    p_diss = _dissipative_oscillator(params, grid, None)
    columns = (("dephasing", p_qnd.values), ("dissipative", p_diss.values))
    dists = (("dephasing", p_qnd), ("dissipative", p_diss))
    notes = (
        "eta0_sq (dissipative displacement) and theta0 are tool defaults",
    )
    return FigureData("fig5", "theta", phase_grid(grid), columns, params, notes, dists)


# --- dispersion sweeps (fig6-fig10) ---


def _build_fig6(params, grid, cutoff):
    curves = _temperature_curves(0.0, 50.0, 100.0, 1000.0)
    return _dispersion_figure("fig6", _qnd_atoms, params, "r", R_GRID, curves, grid, cutoff)


def _build_fig7(params, grid, cutoff):
    zetas = tuple(np.linspace(0.25, 2.0, 36))
    curves = [("unitary", {"gamma0": 0.0})] + _temperature_curves(0.0, 50.0, 100.0)
    return _dispersion_figure(
        "fig7", _qnd_atoms_zeta, params, "zeta", zetas, curves, grid, cutoff
    )


def _build_fig8(params, grid, cutoff):
    curves = [("unitary", {"gamma0": 0.0})] + _temperature_curves(0.0, 100.0, 1000.0)
    return _dispersion_figure("fig8", _qnd_oscillator, params, "r", R_GRID, curves, grid, cutoff)


def _build_fig9(params, grid, cutoff):
    curves = _temperature_curves(0.0, 100.0, 300.0, 1000.0)
    return _dispersion_figure(
        "fig9", _dissipative_qubit, params, "r", R_GRID, curves, grid, cutoff
    )


def _build_fig10(params, grid, cutoff):
    curves = _temperature_curves(0.0, 50.0, 100.0, 1000.0)
    return _dispersion_figure("fig10", _qnd_qubit, params, "r", R_GRID, curves, grid, cutoff)


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


SWEEP_FAMILIES = {
    "qnd-qubit": (
        _qnd_qubit,
        {"alpha_p": math.pi / 4, "beta_p": math.pi / 4, "omega": 1.0, "omega_c": 100.0,
         "a": 0.0, "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 1.0},
    ),
    "dissipative-qubit": (
        _dissipative_qubit,
        {"alpha_p": math.pi / 4, "beta_p": math.pi / 4, "omega": 1.0, "Phi": math.pi / 8,
         "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 1.0},
    ),
    "qnd-oscillator": (
        _qnd_oscillator,
        {"alpha_sq": 5.0, "theta0": 0.0, "r1": 0.5, "psi": math.pi / 4, "omega": 1.0,
         "omega_c": 100.0, "a": 0.0, "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 0.1},
    ),
    "dissipative-oscillator": (
        _dissipative_oscillator,
        {"eta0_sq": 1.0, "omega": 1.0, "Phi": 0.0, "gamma0": 0.025,
         "r": 0.0, "T": 0.0, "t": 0.1},
    ),
}


def resolve_params(
    name: str, defaults: Mapping[str, float], overrides: Mapping[str, float]
) -> dict[str, float]:
    """defaults updated by overrides; a key that defaults lacks is a KeyError
    that names the scenario or family and lists the valid keys."""
    params = dict(defaults)
    for key, value in overrides.items():
        if key not in params:
            raise KeyError(
                f"unknown parameter {key!r} for {name}; "
                f"valid keys: {', '.join(sorted(params))}"
            )
        params[key] = float(value)
    return params


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    overrides: Mapping[str, float] = field(default_factory=dict)
    grid: int = DEFAULT_GRID_SIZE
    cutoff: int | None = None

    def resolved_params(self) -> dict[str, float]:
        if self.scenario not in SCENARIOS:
            raise KeyError(f"unknown scenario {self.scenario!r}")
        return resolve_params(self.scenario, SCENARIOS[self.scenario].defaults, self.overrides)


def run_figure(config: RunConfig) -> FigureData:
    params = config.resolved_params()
    scenario = SCENARIOS[config.scenario]
    return scenario.builder(params, config.grid, config.cutoff)

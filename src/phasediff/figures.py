"""Figure scenario registry, point models and the sweep loop.

Each scenario fig1..fig10 reproduces one figure-style data set as columns
over a shared abscissa (angle, time, or swept parameter).  A point model
maps (params, cutoff) to one phase distribution; the figures and the
`sweep` command's families (SWEEP_FAMILIES) run the same point models
through one loop, `evaluate`.  Under dephasing the bath's r, a and T reach
P only through gamma(t), so `evaluate` hands each dephasing model a whole
group of runs that differ only in those three, as arrays: one gamma-free
coefficient build, one array of gamma(t) and one broadcast damping per
group.  The caller passes down the Fourier degree it reads: 1 for a
dispersion, all for a distribution.  The dissipative models run one point
at a time.  The angular grid enters only where P is written as samples
(`_sampled_figure`), which audits the Riemann sum of those samples; a
dispersion audits the exact integral and needs no grid.  Everything is
deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bath_kernels import QndBathSpec, eta, gamma_qnd
from .distribution import DEFAULT_GRID_SIZE, PhaseDistribution, phase_grid
from .dissipative_oscillator import oscillator_spec, phase_dist_osc_dissipative
from .dissipative_qubit import (
    excited_population,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    qubit_spec,
)
from .errors import check_time
from .phase_stats import audit_normalization, dispersion
from .qnd_phase import (
    AtomicCoherentParams,
    AtomicSqueezedParams,
    phase_dist_atomic_squeezed,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
)

THETA_TEN_ATOMS = -0.01832  # squeeze exponent used by the ten-atom scenarios
R_GRID = tuple(np.linspace(-2.0, 2.0, 41))
# the most points of one curve (fig3's n_t, a sweep's --num), refused before
# any array is allocated
MAX_POINTS = 10**6


class FigureData(NamedTuple):
    scenario: str
    x_name: str
    x: np.ndarray
    columns: tuple[tuple[str, np.ndarray], ...]
    params: Mapping[str, float]
    notes: tuple[str, ...] = ()
    # (label, P) per run; a dephasing dispersion figure keeps P to degree 1, all D reads
    distributions: tuple[tuple[str, PhaseDistribution], ...] = ()


class Scenario(NamedTuple):
    description: str
    defaults: Mapping[str, float]
    builder: Callable


# the dephasing bath's settings: they reach a dephased P only through gamma(t)
BATH_KEYS = ("r", "a", "T")


def _kernels(p: Mapping[str, float]):
    """eta(t) and gamma(t) of the dephasing bath, gamma with the shape of the
    bath settings r, a and T: one value each, or one array each over a group
    of runs.  gamma0 = 0 is the unitary limit, where both vanish; its bath and
    t are checked all the same, with the bath's own r = 0 and T = 0 where the
    scenario sets neither."""
    bath = {key: p[key] for key in BATH_KEYS if key in p}
    spec = QndBathSpec(p["gamma0"], p["omega_c"], **bath)
    check_time(p["t"])
    if spec.gamma0 == 0:
        shape = np.broadcast(spec.r, spec.a, spec.T).shape
        return 0.0, np.zeros(shape) if shape else 0.0
    return eta(p["t"], spec), gamma_qnd(p["t"], spec)


# --- point models: (params, cutoff) -> one PhaseDistribution ---
#
# The dephasing models also take the degree their caller reads and accept the
# bath settings r, a and T as arrays over a group of runs; they then return one
# row of coefficients per run (see evaluate).


def _qnd_atoms(p, cutoff, degree=None):
    """Dicke atoms (j, p, Theta) from an atomic squeezed start, dephasing."""
    state = AtomicSqueezedParams(p["j"], p["p"], p["Theta"])
    et, ga = _kernels(p)
    return phase_dist_atomic_squeezed(state, p["omega"], p["t"], et, ga, degree)


def _qnd_atoms_zeta(p, cutoff, degree=None):
    """_qnd_atoms with the system squeezing given as zeta instead of Theta."""
    theta = AtomicSqueezedParams.from_zeta(p["j"], p["p"], p["zeta"]).Theta
    return _qnd_atoms({**p, "Theta": theta}, cutoff, degree)


def _qnd_qubit(p, cutoff, degree=None):
    _et, ga = _kernels(p)
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_coherent_halfspin(state, p["omega"], p["t"], ga)


def _dissipative_qubit(p, cutoff):
    spec = qubit_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_qubit_coherent(state, spec, p["t"])


def _magnitude(p, key):
    """sqrt of a squared displacement setting, which must be nonnegative."""
    if p[key] < 0:
        raise ValueError(f"{key} = {p[key]} must be nonnegative")
    return math.sqrt(p[key])


def _qnd_oscillator(p, cutoff, degree=None):
    et, ga = _kernels(p)
    return phase_dist_osc_squeezed(
        p["r1"], p["psi"], _magnitude(p, "alpha_sq"), p["theta0"],
        p["omega"], p["t"], et, ga, cutoff, degree,
    )


def _dissipative_oscillator(p, cutoff):
    spec = oscillator_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    return phase_dist_osc_dissipative(spec, _magnitude(p, "eta0_sq"), p["t"], cutoff)


DEPHASING_MODELS = (_qnd_atoms, _qnd_atoms_zeta, _qnd_qubit, _qnd_oscillator)


def evaluate(point, params, runs, cutoff, degree=None):
    """Yield (label, P) for each (label, overrides) in runs, in run order,
    where P is the point model at {**params, **overrides}.

    A dephasing model is called once per group: the runs whose overrides
    agree on every setting but the bath's r, a and T, which reach P only
    through gamma(t).  The group shares one gamma-free coefficient build
    and gets one array of gamma(t) and one broadcast damping, to degree
    (1 where the caller reads only a dispersion; None for all).  Any other
    model is called once per run, one run at a time."""
    if point not in DEPHASING_MODELS:
        for label, overrides in runs:
            yield label, point({**params, **overrides}, cutoff)
        return
    # each run's place, (label, group key, row); a group's key is its runs'
    # overrides but the bath's, in their given order, which the runs of one
    # figure or sweep share
    groups: dict[tuple, list[dict]] = {}
    places = []
    for label, overrides in runs:
        key = tuple(item for item in overrides.items() if item[0] not in BATH_KEYS)
        members = groups.setdefault(key, [])
        places.append((label, key, len(members)))
        members.append(overrides)
    results = {}
    for key, members in groups.items():
        p = {**params, **members[0]}
        if len(members) > 1:  # a group of one keeps plain values, which are faster
            bath = [[o.get(k, params.get(k, 0.0)) for k in BATH_KEYS] for o in members]
            p.update(zip(BATH_KEYS, np.array(bath).T))
        results[key] = point(p, cutoff, degree)
    for label, key, row in places:
        out = results[key]
        yield label, out if isinstance(out, PhaseDistribution) else PhaseDistribution(out[row])


def _sampled_figure(scenario, x_name, dists, params, grid, notes=()) -> FigureData:
    """One column of P at the grid angles per (label, P) in dists, each
    refused unless its grid samples integrate to 1."""
    for _label, p in dists:
        audit_normalization(p, grid)
    columns = tuple((label, p.samples(grid)) for label, p in dists)
    return FigureData(scenario, x_name, phase_grid(grid), columns, params, notes, dists)


def distribution_figure(scenario, point, params, runs, grid, cutoff) -> FigureData:
    """One P(phi) column per (label, overrides) in runs."""
    dists = tuple(evaluate(point, params, runs, cutoff))
    return _sampled_figure(scenario, "phi", dists, params, grid)


def dispersion_figure(scenario, point, params, x_name, xs, curves, cutoff):
    """One dispersion column per (label, overrides) curve, over x_name = xs.
    Its distributions are evaluated to degree 1, all that a dispersion
    reads, so a dephasing curve keeps only c_0 and c_{+-1} of each."""
    runs = [
        (f"{label} {x_name}={x:g}", {**overrides, x_name: x})
        for label, overrides in curves
        for x in xs
    ]
    dists = tuple(evaluate(point, params, runs, cutoff, degree=1))
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
    n_t, t_max = params["n_t"], params["t_max"]
    if not (n_t >= 2 and n_t % 1 == 0):
        raise ValueError(f"n_t = {n_t:g} must be a whole number of at least 2")
    if n_t > MAX_POINTS:
        raise ValueError(f"n_t = {n_t:g} exceeds the limit of {MAX_POINTS} points")
    if not t_max > 0:
        raise ValueError(f"t_max = {t_max:g} must be positive")
    state = AtomicCoherentParams(params["alpha_p"], params["beta_p"])
    times = np.linspace(0.0, t_max, int(n_t))
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
    dists = []
    for p_sign, tag in [(0.5, "p=+1/2"), (-0.5, "p=-1/2")]:
        for label, r, T, t in [
            ("T=0 r=0 t=0.1", 0.0, 0.0, 0.1),
            ("T=0 r=0 t=1.5", 0.0, 0.0, 1.5),
            ("T=300 r=0 t=0.1", 0.0, 300.0, 0.1),
            ("T=300 r=0.5 t=0.1", 0.5, 300.0, 0.1),
        ]:
            spec = qubit_spec(params["omega"], params["gamma0"], r, params["Phi"], T)
            p = phase_dist_qubit_squeezed(params["Theta"], p_sign, spec, t)
            dists.append((f"{tag} {label}", p))
    return _sampled_figure("fig4", "phi", tuple(dists), params, grid)


# --- fig5: oscillator, dephasing vs dissipative evolution ---


def _build_fig5(params, grid, cutoff):
    dists = (
        ("dephasing", _qnd_oscillator({**params, "r1": params["r"]}, cutoff)),
        ("dissipative", _dissipative_oscillator(params, cutoff)),
    )
    notes = ("eta0_sq (dissipative displacement) and theta0 are tool defaults",)
    return _sampled_figure("fig5", "theta", dists, params, grid, notes)


# --- dispersion sweeps (fig6-fig10) ---


def _build_fig6(params, grid, cutoff):
    curves = _temperature_curves(0.0, 50.0, 100.0, 1000.0)
    return dispersion_figure("fig6", _qnd_atoms, params, "r", R_GRID, curves, cutoff)


def _build_fig7(params, grid, cutoff):
    zetas = tuple(np.linspace(0.25, 2.0, 36))
    curves = [("unitary", {"gamma0": 0.0})] + _temperature_curves(0.0, 50.0, 100.0)
    return dispersion_figure(
        "fig7", _qnd_atoms_zeta, params, "zeta", zetas, curves, cutoff
    )


def _build_fig8(params, grid, cutoff):
    curves = [("unitary", {"gamma0": 0.0})] + _temperature_curves(0.0, 100.0, 1000.0)
    return dispersion_figure("fig8", _qnd_oscillator, params, "r", R_GRID, curves, cutoff)


def _build_fig9(params, grid, cutoff):
    curves = _temperature_curves(0.0, 100.0, 300.0, 1000.0)
    return dispersion_figure(
        "fig9", _dissipative_qubit, params, "r", R_GRID, curves, cutoff
    )


def _build_fig10(params, grid, cutoff):
    curves = _temperature_curves(0.0, 50.0, 100.0, 1000.0)
    return dispersion_figure("fig10", _qnd_qubit, params, "r", R_GRID, curves, cutoff)


SCENARIOS: dict[str, Scenario] = {
    "fig1": Scenario(
        "Phase distribution of ten atoms under dephasing, atomic squeezed start",
        {"j": 5.0, "p": 5.0, "Theta": THETA_TEN_ATOMS, "gamma0": 0.025,
         "omega": 1.0, "omega_c": 100.0, "a": 0.0},
        _build_fig1,
    ),
    "fig2": Scenario(
        "Phase distribution of a dissipative qubit, atomic coherent start",
        {"omega": 1.0, "gamma0": 0.25, "Phi": math.pi / 8,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig2,
    ),
    "fig3": Scenario(
        "Excited-state population decay of a dissipative qubit",
        {"omega": 1.0, "Phi": 0.0, "alpha_p": math.pi / 4, "beta_p": math.pi / 4,
         "t_max": 250.0, "n_t": 501.0},
        _build_fig3,
    ),
    "fig4": Scenario(
        "Phase distribution of a dissipative qubit, atomic squeezed start, p = +-1/2",
        {"omega": 1.0, "gamma0": 0.025, "Phi": math.pi / 8, "Theta": THETA_TEN_ATOMS},
        _build_fig4,
    ),
    "fig5": Scenario(
        "Oscillator phase distribution: dephasing vs dissipative bath",
        {"omega": 1.0, "omega_c": 100.0, "T": 0.0, "r": 1.0, "t": 0.1,
         "gamma0": 0.025, "psi": 0.0, "Phi": 0.0, "alpha_sq": 5.0,
         "theta0": 0.0, "eta0_sq": 1.0, "a": 0.0},
        _build_fig5,
    ),
    "fig6": Scenario(
        "Dispersion vs bath squeezing, ten atoms under dephasing",
        {"j": 5.0, "p": 5.0, "Theta": THETA_TEN_ATOMS, "a": 0.0,
         "gamma0": 0.0025, "t": 1.0, "omega": 1.0, "omega_c": 100.0},
        _build_fig6,
    ),
    "fig7": Scenario(
        "Dispersion vs system squeezing, ten atoms under dephasing",
        {"j": 5.0, "p": 5.0, "a": 0.0, "r": 0.0, "gamma0": 0.0025,
         "t": 1.0, "omega": 1.0, "omega_c": 100.0},
        _build_fig7,
    ),
    "fig8": Scenario(
        "Dispersion vs bath squeezing, oscillator under dephasing",
        {"alpha_sq": 5.0, "theta0": 0.0, "r1": 0.5, "psi": math.pi / 4,
         "gamma0": 0.0025, "t": 0.1, "omega": 1.0, "omega_c": 100.0, "a": 0.0},
        _build_fig8,
    ),
    "fig9": Scenario(
        "Dispersion vs bath squeezing, dissipative qubit",
        {"gamma0": 0.0025, "t": 1.0, "omega": 1.0, "Phi": math.pi / 8,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig9,
    ),
    "fig10": Scenario(
        "Dispersion vs bath squeezing, qubit under dephasing",
        {"a": 0.0, "gamma0": 0.0025, "t": 1.0, "omega": 1.0, "omega_c": 100.0,
         "alpha_p": math.pi / 4, "beta_p": math.pi / 4},
        _build_fig10,
    ),
}


# three families sweep a figure's model from that figure's settings, with the
# bath unsqueezed at T = 0
SWEEP_FAMILIES = {
    "qnd-qubit": (_qnd_qubit, {**SCENARIOS["fig10"].defaults, "r": 0.0, "T": 0.0}),
    "dissipative-qubit": (
        _dissipative_qubit, {**SCENARIOS["fig9"].defaults, "r": 0.0, "T": 0.0}
    ),
    "qnd-oscillator": (_qnd_oscillator, {**SCENARIOS["fig8"].defaults, "r": 0.0, "T": 0.0}),
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


def run_figure(
    scenario: str,
    overrides: Mapping[str, float] | None = None,
    grid: int = DEFAULT_GRID_SIZE,
    cutoff: int | None = None,
) -> FigureData:
    """The named scenario's data at its defaults updated by overrides."""
    if scenario not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario!r}")
    figure = SCENARIOS[scenario]
    params = resolve_params(scenario, figure.defaults, overrides or {})
    return figure.builder(params, grid, cutoff)

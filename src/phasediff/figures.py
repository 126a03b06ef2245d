"""Figure scenario registry, point models and the sweep loop.

Each scenario fig1..fig10 reproduces one figure-style data set as columns
over a shared abscissa (angle, time, or swept parameter).  A point model
maps (params, cutoff, degree) to the Fourier coefficients of one phase
distribution, c_{-D}..c_D with D at most degree.  The figures fig6..fig10
are families of curves, one setting swept per curve, and each `sweep` of
a family (SWEEP_FAMILIES) is one curve; every curve is one `_curve`.  A
model that GROUPED_MODELS lists for the swept setting takes the whole
curve as one array and returns one row of coefficients per point: under
dephasing the bath's r, a and T reach P only through gamma(t), so a curve
over one of them makes one array of gamma(t) and one broadcast damping,
and the atoms' Theta gives one gamma-free build of all the curve's
amplitudes (fig7 sweeps Theta and writes each point's zeta); the
dissipative qubit takes its baths' r and T.  Any other curve, such as a t
sweep, is one call per point; so are the ad hoc runs of fig1, fig2, fig4
and fig5.  The caller passes down the Fourier degree it
reads: 1 for a dispersion, None (all) for a distribution.  Every model
then returns c_{-1}, c_0 and c_1 at degree 1, so a dispersion curve's
rows are one (points, 3) array whichever form _curve gives them in.

A distribution figure samples each P (`_sampled_figure`), which audits the
Riemann sum of those samples.  A dispersion figure keeps no P: it stacks
each point's c_{-1}, c_0 and c_1 into one block and reads every dispersion,
and audits every exact integral, from that block in one step
(`phase_stats.dispersions`); it needs no grid.  Everything is
deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bath_kernels import QndBathSpec, eta, gamma_qnd
from .distribution import DEFAULT_GRID_SIZE, phase_grid, samples
from .dissipative_oscillator import oscillator_spec, phase_dist_osc_dissipative
from .dissipative_qubit import (
    excited_population,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    qubit_spec,
)
from .errors import check_time
from .phase_stats import audit_normalization, degree_one, dispersions
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
    """One figure's CSV columns over x, and what they were read from: a
    distribution figure's (label, coefficients of P) per run, or a
    dispersion figure's (runs, 3) complex block of each run's c_{-1}, c_0
    and c_1, one row per run, curve by curve (the rows of curve c are
    c * len(x) onwards)."""

    scenario: str
    x_name: str
    x: np.ndarray
    columns: tuple[tuple[str, np.ndarray], ...]
    params: Mapping[str, float]
    notes: tuple[str, ...] = ()
    distributions: tuple[tuple[str, np.ndarray], ...] = ()
    coefficients: np.ndarray | None = None


class Scenario(NamedTuple):
    description: str
    defaults: Mapping[str, float]
    builder: Callable


# the dephasing bath's settings: they reach a dephased P only through gamma(t)
BATH_KEYS = ("r", "a", "T")


def _kernels(p: Mapping[str, float]):
    """eta(t) and gamma(t) of the dephasing bath, gamma with the shape of the
    bath settings r, a and T: one value each, or an array over a curve's
    points.  gamma0 = 0 is the unitary limit, where both vanish; its bath and
    t are checked all the same, with the bath's own r = 0 and T = 0 where the
    scenario sets neither."""
    bath = {key: p[key] for key in BATH_KEYS if key in p}
    spec = QndBathSpec(p["gamma0"], p["omega_c"], **bath)
    check_time(p["t"])
    if spec.gamma0 == 0:
        shape = np.broadcast(spec.r, spec.a, spec.T).shape
        return 0.0, np.zeros(shape)[()]
    return eta(p["t"], spec), gamma_qnd(p["t"], spec)


# --- point models: (params, cutoff, degree) -> coefficients of one P ---
#
# A model accepts the settings GROUPED_MODELS lists for it as arrays over a
# curve's points; it then returns one row of coefficients per point (see
# _curve).


def _qnd_atoms(p, cutoff, degree=None):
    """Dicke atoms (j, p, Theta) from an atomic squeezed start, dephasing."""
    state = AtomicSqueezedParams(p["j"], p["p"], p["Theta"])
    et, ga = _kernels(p)
    return phase_dist_atomic_squeezed(state, p["omega"], p["t"], et, ga, degree)


def _qnd_qubit(p, cutoff, degree=None):
    _et, ga = _kernels(p)
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_coherent_halfspin(state, p["omega"], p["t"], ga)


def _dissipative_qubit(p, cutoff, degree=None):
    """The dissipative qubit from an atomic coherent start; r and T as arrays
    give one bath per entry, each built and checked by qubit_spec."""
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    r, T = p["r"], p["T"]
    if isinstance(r, np.ndarray) or isinstance(T, np.ndarray):
        r, T = np.broadcast_arrays(r, T)
        spec = [qubit_spec(p["omega"], p["gamma0"], r_k, p["Phi"], T_k)
                for r_k, T_k in zip(r.tolist(), T.tolist())]
    else:
        spec = qubit_spec(p["omega"], p["gamma0"], r, p["Phi"], T)
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


def _dissipative_oscillator(p, cutoff, degree=None):
    spec = oscillator_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    return phase_dist_osc_dissipative(
        spec, _magnitude(p, "eta0_sq"), p["t"], cutoff, degree
    )


# the settings each model takes as an array over a curve's points; a curve
# over any other setting is evaluated point by point
GROUPED_MODELS = {
    _qnd_atoms: frozenset(BATH_KEYS + ("Theta",)),
    _qnd_qubit: frozenset(BATH_KEYS),
    _qnd_oscillator: frozenset(BATH_KEYS),
    _dissipative_qubit: frozenset(("r", "T")),
}


def _curve(point, params, x_name, xs, cutoff, degree):
    """The point model's coefficients at params with x_name = x, for each x
    in xs, to degree (1 where the caller reads only a dispersion, None for
    all), one row per x: a 2-d array from one call on np.array(xs) where
    GROUPED_MODELS lists x_name for the model, else a list from one call
    per x.  A refused curve call is made again point by point, in order, so
    that the refusal is the first bad point's own."""
    if x_name in GROUPED_MODELS.get(point, ()):
        try:
            return point({**params, x_name: np.array(xs)}, cutoff, degree)
        except (ValueError, ArithmeticError, RuntimeError):
            for x in xs:
                point({**params, x_name: x}, cutoff, degree)
            raise
    return [point({**params, x_name: x}, cutoff, degree) for x in xs]


def _point_label(x: float) -> str:
    """The %g form where it reads back as x, else the shortest repr without a
    trailing .0, so distinct points get distinct column labels."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x).removesuffix(".0")


def _sampled_figure(scenario, x_name, dists, params, grid, notes=()) -> FigureData:
    """One column of P at the grid angles per (label, P) in dists, each
    refused unless its grid samples integrate to 1."""
    for _label, p in dists:
        audit_normalization(p, grid)
    columns = tuple((label, samples(p, grid)) for label, p in dists)
    return FigureData(scenario, x_name, phase_grid(grid), columns, params, notes, dists)


def distribution_figure(scenario, point, params, x_name, xs, grid, cutoff) -> FigureData:
    """One P(phi) column per point of the curve x_name = xs, labelled
    x_name=x."""
    rows = _curve(point, params, x_name, xs, cutoff, None)
    dists = tuple((f"{x_name}={_point_label(x)}", p) for x, p in zip(xs, rows))
    return _sampled_figure(scenario, "phi", dists, params, grid)


def dispersion_figure(scenario, point, params, x_name, xs, curves, cutoff):
    """One dispersion column per (label, overrides) curve, over x_name = xs.
    Each curve is one _curve to degree 1, all that a dispersion reads, and
    its points' c_{-1}, c_0 and c_1 are rows of the figure's block, curve by
    curve, from which every dispersion is read, and every integral audited,
    in one step; the first point at fault, curve by curve, is refused."""
    n = len(xs)
    block = np.empty((len(curves) * n, 3), dtype=complex)
    for c, (_, o) in enumerate(curves):
        rows = _curve(point, {**params, **o}, x_name, xs, cutoff, 1)
        block[c * n : (c + 1) * n] = degree_one(np.asarray(rows))
    d = dispersions(block).reshape(len(curves), n)
    columns = tuple((label, row) for (label, _), row in zip(curves, d))
    return FigureData(scenario, x_name, np.array(xs), columns, params, (), (), block)


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
    dists = tuple((label, _qnd_atoms({**params, **o}, cutoff)) for label, o in runs)
    return _sampled_figure("fig1", "phi", dists, params, grid)


# --- fig2: dissipative qubit, atomic coherent state ---


def _build_fig2(params, grid, cutoff):
    runs = [
        ("T=0 r=0 t=0.1", {"r": 0.0, "T": 0.0, "t": 0.1}),
        ("T=0 r=0 t=1.5", {"r": 0.0, "T": 0.0, "t": 1.5}),
        ("T=300 r=0 t=0.1", {"r": 0.0, "T": 300.0, "t": 0.1}),
        ("T=300 r=2 t=0.1", {"r": 2.0, "T": 300.0, "t": 0.1}),
    ]
    dists = tuple((label, _dissipative_qubit({**params, **o}, cutoff)) for label, o in runs)
    return _sampled_figure("fig2", "phi", dists, params, grid)


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
        columns.append((label, excited_population(state, spec, times)))
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
    """Each curve over Theta = (1/2) ln tanh(2 zeta), written over zeta."""
    zetas = np.linspace(0.25, 2.0, 36)
    thetas = tuple(0.5 * math.log(math.tanh(2 * z)) for z in zetas.tolist())
    curves = [("unitary", {"gamma0": 0.0})] + _temperature_curves(0.0, 50.0, 100.0)
    fd = dispersion_figure("fig7", _qnd_atoms, params, "Theta", thetas, curves, cutoff)
    return fd._replace(x_name="zeta", x=zetas)


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

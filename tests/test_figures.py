import math
import warnings

import numpy as np
import pytest

from phasediff import figures
from phasediff.cli import read_config_file
from phasediff.dissipative_oscillator import oscillator_spec
from phasediff.dissipative_qubit import excited_population, qubit_spec
from phasediff.distribution import PhaseDistribution
from phasediff.figures import SCENARIOS, SWEEP_FAMILIES, evaluate, run_figure
from phasediff.phase_stats import dispersion, integrate_distribution
from phasediff.qnd_phase import (
    AtomicSqueezedParams,
    atomic_squeezed_density,
    phase_dist_osc_squeezed,
    phase_distribution_atomic,
    qnd_evolve,
)


def test_every_scenario_builds_with_small_grid():
    # fig5's dissipative column integrates to 0.99997 on 48 points
    with pytest.raises(ValueError, match=r"N = 48 points; raise the grid size \(--grid\)"):
        run_figure("fig5", grid=48)
    for name in SCENARIOS.keys() - {"fig5"}:
        fd = run_figure(name, grid=48)
        assert fd.scenario == name
        assert len(fd.x) > 0
        for _label, col in fd.columns:
            assert col.shape == fd.x.shape
            assert np.all(np.isfinite(col))


def test_scenario_distributions_normalized():
    for name in ("fig1", "fig2", "fig4", "fig5"):
        fd = run_figure(name, grid=360)
        for label, p in fd.distributions:
            assert abs(integrate_distribution(p) - 1.0) < 1e-8, (name, label)


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_figure("fig99")


def test_unknown_override_key_rejected():
    with pytest.raises(KeyError):
        run_figure("fig1", overrides={"bogus": 1.0})


def test_override_applies():
    params = run_figure("fig1", overrides={"gamma0": 0.1}, grid=48).params
    assert params["gamma0"] == 0.1
    assert params["omega_c"] == SCENARIOS["fig1"].defaults["omega_c"]


def test_defaults_round_trip_through_config_serialization(tmp_path):
    # every scenario's defaults survive the flat key=value text format
    for name, scenario in SCENARIOS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            "".join(f"{k}={v:.17g}\n" for k, v in sorted(scenario.defaults.items()))
        )
        parsed = {k: float(v) for k, v in read_config_file(path).items()}
        assert parsed == dict(scenario.defaults)


@pytest.mark.parametrize("overrides, message", [
    ({"n_t": 0.0}, "n_t = 0 must be a whole number of at least 2"),
    ({"n_t": 2.5}, "n_t = 2.5 must be a whole number of at least 2"),
    ({"n_t": -1.0}, "n_t = -1 must be a whole number of at least 2"),
    ({"t_max": 0.0}, "t_max = 0 must be positive"),
    ({"t_max": -5.0}, "t_max = -5 must be positive"),
], ids=["n_t=0", "n_t=2.5", "n_t=-1", "t_max=0", "t_max=-5"])
def test_fig3_rejects_bad_time_axis(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_figure("fig3", overrides=overrides)


def test_fig3_is_population_curve_not_distribution():
    fd = run_figure("fig3", grid=48)
    assert fd.distributions == ()
    assert fd.x_name == "t"
    for _label, col in fd.columns:
        assert np.all((col >= -1e-12) & (col <= 1.0 + 1e-12))


def test_fig5_in_a_hot_bath_matches_eigh_oracle(hot_state_oracle):
    # T = 1000 gives beta_tilde = 2.5 at t = 0.1; at cutoff 600 the
    # dissipative column agrees with the eigh construction
    fd = run_figure("fig5", {"T": 1000.0}, cutoff=600)
    column = dict(fd.columns)["dissipative"]
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 1000.0)
    _, oracle = hot_state_oracle(spec, 1.0, 0.1, 600, 800, 120)
    assert np.max(np.abs(column - oracle.samples(len(column)))) < 1e-12


def _undamped_atoms(theta, t):
    rho0 = atomic_squeezed_density(AtomicSqueezedParams(5, 5, theta))
    return phase_distribution_atomic(qnd_evolve(rho0, 1.0, t, 0.0, 0.0))


def test_unitary_curves_are_the_undamped_evolution():
    # gamma0 = 0 still builds the bath, with r = 0 and T = 0 where a scenario
    # sets neither, and its eta and gamma stay exactly 0; the figures build
    # the atoms from their amplitudes, qnd_evolve from the density matrix, so
    # the two agree to rounding
    fig1 = run_figure("fig1")
    assert fig1.columns[0][0] == "unitary t=0.1"
    theta = SCENARIOS["fig1"].defaults["Theta"]
    undamped = _undamped_atoms(theta, 0.1).samples(720)
    assert np.max(np.abs(fig1.columns[0][1] - undamped)) <= 1e-15
    fig7 = run_figure("fig7")
    assert fig7.columns[0][0] == "unitary"
    expected = [dispersion(_undamped_atoms(AtomicSqueezedParams.from_zeta(5, 5, z).Theta, 1.0))
                for z in fig7.x]
    assert np.max(np.abs(fig7.columns[0][1] - expected)) <= 1e-15
    fig8 = run_figure("fig8")
    assert fig8.columns[0][0] == "unitary"
    osc = phase_dist_osc_squeezed(0.5, math.pi / 4, math.sqrt(5.0), 0.0, 1.0, 0.1, 0.0, 0.0)
    assert np.array_equal(fig8.columns[0][1], np.full(len(fig8.x), dispersion(osc)))


def test_dispersion_figure_keeps_its_curves_in_order():
    # the runs are evaluated in two groups, the unitary curve and the three
    # T curves together, but the columns and the block's rows stay curve by
    # curve
    fd = run_figure("fig7")
    labels = [label for label, _ in fd.columns]
    assert labels == ["unitary", "T=0", "T=50", "T=100"]
    assert fd.distributions == ()
    assert fd.coefficients.shape == (len(labels) * len(fd.x), 3)
    for c, (_label, column) in enumerate(fd.columns):
        rows = fd.coefficients[c * len(fd.x):(c + 1) * len(fd.x)]
        assert np.array_equal(column, [dispersion(PhaseDistribution(row)) for row in rows])


def _central(p, degree):
    """c_{-degree}..c_degree of P."""
    full = len(p.coeffs) // 2
    return p.coeffs[full - degree : full + degree + 1]


def _one_at_a_time(monkeypatch):
    """evaluate as it treats a dissipative oscillator: one run per call,
    every harmonic, every setting as a plain value."""
    monkeypatch.setattr(figures, "GROUPED_MODELS", {})


@pytest.mark.parametrize("fig", ["fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10"])
def test_grouped_figures_match_one_run_at_a_time(monkeypatch, fig):
    # fig6 mixes T = 0 and T > 0 in one group; fig7 and fig8 have unitary
    # (gamma0 = 0) curves, and fig7's T curves vary zeta and T in one group;
    # fig2 and fig9 group the dissipative qubit's baths; a dispersion figure
    # reads degree 1 only.  A group takes each bath's gamma, each Theta's
    # amplitudes and each qubit bath's coherence by the arithmetic of a run
    # alone, so the two agree exactly
    grouped = run_figure(fig)
    _one_at_a_time(monkeypatch)
    single = run_figure(fig)
    assert [label for label, _ in grouped.distributions] == [
        label for label, _ in single.distributions
    ]
    for (_, p), (_, q) in zip(grouped.distributions, single.distributions):
        assert np.array_equal(p.coeffs, q.coeffs)
    if grouped.coefficients is not None:
        assert grouped.coefficients.shape == single.coefficients.shape
        assert np.array_equal(grouped.coefficients, single.coefficients)
    for (label, col), (label_single, col_single) in zip(grouped.columns, single.columns):
        assert label == label_single
        assert np.array_equal(col, col_single)


SWEEPS = [
    ("r", np.linspace(-2.0, 2.0, 9), {}),
    ("T", np.array([0.0, 0.5, 50.0, 1000.0]), {"r": 1.0}),
    ("a", np.array([0.0, 0.01, 0.03, 0.045]), {"r": 0.5, "T": 100.0}),
    ("t", np.array([0.05, 0.1, 2.0]), {"r": 1.0, "T": 50.0}),
    ("r", np.linspace(-1.0, 1.0, 3), {"gamma0": 0.0}),
]


@pytest.mark.parametrize("degree", [1, None])
@pytest.mark.parametrize("family", ["qnd-qubit", "qnd-oscillator", "dissipative-qubit"])
@pytest.mark.parametrize("param, values, sets", SWEEPS, ids=["r", "T", "a", "t", "unitary"])
def test_grouped_sweeps_match_one_run_at_a_time(monkeypatch, family, param, values, sets,
                                                 degree):
    # the dissipative qubit has no a, whose runs then differ in nothing it reads
    point, defaults = SWEEP_FAMILIES[family]
    params = {**defaults, **sets}
    runs = [(f"{param}={x:g}", {param: float(x)}) for x in values]
    grouped = list(evaluate(point, params, runs, None, degree))
    _one_at_a_time(monkeypatch)
    single = list(evaluate(point, params, runs, None, degree))
    for (label, p), (label_single, q) in zip(grouped, single, strict=True):
        assert label == label_single
        full = len(q.coeffs) // 2
        assert len(p.coeffs) // 2 == (full if degree is None else min(degree, full))
        # every coefficient, so c_{+1} and c_{-1} are checked apart
        assert np.array_equal(p.coeffs, _central(q, len(p.coeffs) // 2))


@pytest.mark.parametrize("family", ["qnd-qubit", "qnd-oscillator"])
@pytest.mark.parametrize("param, values, sets", [
    ("T", [0.0, 50.0, -1.0, 100.0], {}),
    ("a", [0.0, 0.2, 0.6, 0.3], {"t": 1.0}),
    ("r", [0.0, 354.5, 1.0], {"T": 50.0}),
    ("r", [1.0, 355.0, 2.0], {"T": 0.0}),
    ("T", [0.0, 50.0, 1e300], {"gamma0": 1e10}),
], ids=["T<0", "t<=2a", "gamma-nan", "gamma-inf", "scale-inf"])
def test_a_refusal_inside_a_group_is_the_single_run_refusal(monkeypatch, family, param, values,
                                                            sets):
    # the group names the same setting and value as the failing run alone,
    # and no RuntimeWarning escapes from either
    point, defaults = SWEEP_FAMILIES[family]
    params = {**defaults, **sets}
    runs = [(f"{param}={x:g}", {param: x}) for x in values]
    bad = next(i for i, x in enumerate(values) if x in (-1.0, 0.6, 354.5, 355.0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as group:
            list(evaluate(point, params, runs, None, 1))
        _one_at_a_time(monkeypatch)
        with pytest.raises(ValueError) as alone:
            list(evaluate(point, params, runs[bad : bad + 1], None, 1))
    assert type(group.value) is type(alone.value)
    assert str(group.value) == str(alone.value)
    assert f"{param} = {values[bad]}" in str(alone.value) or "2a = 1.2" in str(alone.value)


@pytest.mark.parametrize("param, values", [
    ("T", [0.0, 50.0, -1.0, 100.0]),
    ("r", [0.0, 25.0, 1.0]),
    ("T", [0.0, 1e300, 5.0]),
], ids=["T<0", "tanh-r", "N-overflow"])
def test_a_refusal_inside_a_qubit_bath_group_is_the_single_run_refusal(monkeypatch, param,
                                                                     values):
    # each bath of a dissipative-qubit group is built by qubit_spec, which
    # refuses the first bath at fault as that run alone does
    point, defaults = SWEEP_FAMILIES["dissipative-qubit"]
    runs = [(f"{param}={x:g}", {param: x}) for x in values]
    bad = 1 if values[1] in (25.0, 1e300) else 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as group:
            list(evaluate(point, defaults, runs, None, 1))
        _one_at_a_time(monkeypatch)
        with pytest.raises(ValueError) as alone:
            list(evaluate(point, defaults, runs[bad : bad + 1], None, 1))
    assert type(group.value) is type(alone.value)
    assert str(group.value) == str(alone.value)
    assert f"{param} = {values[bad]}" in str(alone.value)


@pytest.mark.parametrize("runs, bad, message", [
    ([{"a": -0.5}, {"T": -1.0}], 0, "a = -0.5 must be nonnegative"),
    ([{"t": 1.0, "r": 0.0}, {"t": 2.0, "T": -1.0}, {"t": 1.0, "a": 0.6}], 1,
     "T = -1.0 must be nonnegative"),
    ([{"a": -0.5, "T": 0.0}, {"a": 0.0, "T": -1.0}], 0, "a = -0.5 must be nonnegative"),
    ([{"t": 1.0, "a": 0.0}, {"t": 2.0, "a": -0.5}, {"t": 1.0, "a": 0.6}], 1,
     "a = -0.5 must be nonnegative"),
], ids=["field-order", "group-order", "field-order-one-group", "group-order-two-groups"])
def test_a_refusing_group_names_the_first_run_at_fault(runs, bad, message):
    # the bath's checks go field by field (T before a) and the groups are
    # taken in the order of their first run (t = 1 before t = 2); the last
    # two cases put the runs at fault in groups that refuse another run
    # first.  A refused group is evaluated again run by run, so the refusal
    # is the first bad run's own, with no RuntimeWarning from the grouped
    # attempt
    point, defaults = SWEEP_FAMILIES["qnd-qubit"]
    labelled = [(str(i), o) for i, o in enumerate(runs)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(evaluate(point, defaults, labelled, None, 1))
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(evaluate(point, defaults, labelled[bad : bad + 1], None, 1))


def test_fig7_groups_zeta_and_the_bath_in_two_groups(monkeypatch):
    # the unitary curve and the three T curves are one group each
    calls = []
    model = figures._qnd_atoms_zeta

    def counted(p, *args):
        calls.append(np.shape(p["zeta"]))
        return model(p, *args)

    monkeypatch.setitem(figures.GROUPED_MODELS, counted, figures.GROUPED_MODELS[model])
    monkeypatch.setattr(figures, "_qnd_atoms_zeta", counted)
    run_figure("fig7")
    assert calls == [(36,), (108,)]


def test_fig3_population_over_a_time_array_is_the_scalar_population():
    # each curve is one call over all 501 times; its exponentials are taken
    # entry by entry in math, so every entry is the scalar population's value
    # to the bit, well within the 1e-15 relative the CSV could tolerate
    params = SCENARIOS["fig3"].defaults
    fd = run_figure("fig3")
    state = figures.AtomicCoherentParams(params["alpha_p"], params["beta_p"])
    curves = [(0.0, 100.0, 0.0025), (0.0, 0.0, 0.025), (1.0, 0.0, 0.025)]
    assert len(fd.columns) * len(fd.x) == 1503
    for (_label, column), (r, T, g0) in zip(fd.columns, curves, strict=True):
        spec = qubit_spec(params["omega"], g0, r, params["Phi"], T)
        scalar = np.array([excited_population(state, spec, t) for t in fd.x.tolist()])
        assert np.all(np.abs(column - scalar) <= 1e-15 * np.abs(scalar))
        assert np.array_equal(column, scalar)


@pytest.mark.parametrize("times, message", [
    ([0.0, 1.0, -2.0, -3.0], "t = -2.0 must be nonnegative"),
    ([0.0, math.nan, -1.0], "t = nan must be finite"),
    ([0.0, 1.0, math.inf], "t = inf must be finite"),
], ids=["negative", "nan", "inf"])
def test_population_over_a_time_array_names_its_first_bad_time(times, message):
    state = figures.AtomicCoherentParams(0.5, 0.5)
    spec = qubit_spec(1.0, 0.025, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        excited_population(state, spec, np.array(times))


@pytest.mark.parametrize("family", ["qnd-qubit", "qnd-oscillator"])
def test_a_group_refuses_where_its_runs_would_in_run_order(monkeypatch, family):
    # the first run's gamma is not finite and the second's t <= 2a is out of
    # domain: the group raises the first run's error, as the runs one at a
    # time would
    point, defaults = SWEEP_FAMILIES[family]
    params = {**defaults, "t": 1.0}
    runs = [("hot", {"r": 354.5, "T": 50.0, "a": 0.0}), ("wide", {"r": 0.0, "T": 0.0, "a": 0.6})]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as group:
            list(evaluate(point, params, runs, None, 1))
        _one_at_a_time(monkeypatch)
        with pytest.raises(ValueError) as alone:
            list(evaluate(point, params, runs, None, 1))
    assert type(group.value) is type(alone.value) is ValueError
    assert str(group.value) == str(alone.value) == (
        "gamma(t) = nan is not finite at r = 354.5, T = 50.0, t = 1.0; lower the bath squeezing |r|"
    )

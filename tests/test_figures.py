import numpy as np
import pytest

from phasediff.cli import read_config_file
from phasediff.dissipative_oscillator import oscillator_spec
from phasediff.figures import SCENARIOS, RunConfig, run_figure
from phasediff.phase_stats import integrate_distribution


def test_every_scenario_builds_with_small_grid():
    # fig5's dissipative column integrates to 0.99997 on 48 points
    with pytest.raises(ValueError, match=r"N = 48 points; raise the grid size \(--grid\)"):
        run_figure(RunConfig("fig5", grid=48))
    for name in SCENARIOS.keys() - {"fig5"}:
        fd = run_figure(RunConfig(name, grid=48))
        assert fd.scenario == name
        assert len(fd.x) > 0
        for _label, col in fd.columns:
            assert col.shape == fd.x.shape
            assert np.all(np.isfinite(col))


def test_scenario_distributions_normalized():
    for name in ("fig1", "fig2", "fig4", "fig5"):
        fd = run_figure(RunConfig(name, grid=360))
        for label, p in fd.distributions:
            assert abs(integrate_distribution(p) - 1.0) < 1e-8, (name, label)


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_figure(RunConfig("fig99"))


def test_unknown_override_key_rejected():
    with pytest.raises(KeyError):
        RunConfig("fig1", overrides={"bogus": 1.0}).resolved_params()


def test_override_applies():
    params = RunConfig("fig1", overrides={"gamma0": 0.1}).resolved_params()
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
        run_figure(RunConfig("fig3", overrides=overrides))


def test_fig3_is_population_curve_not_distribution():
    fd = run_figure(RunConfig("fig3", grid=48))
    assert fd.distributions == ()
    assert fd.x_name == "t"
    for _label, col in fd.columns:
        assert np.all((col >= -1e-12) & (col <= 1.0 + 1e-12))


def test_fig5_in_a_hot_bath_matches_eigh_oracle(hot_state_oracle):
    # T = 1000 gives beta_tilde = 2.5 at t = 0.1; at cutoff 600 the
    # dissipative column agrees with the eigh construction
    fd = run_figure(RunConfig("fig5", {"T": 1000.0}, cutoff=600))
    column = dict(fd.columns)["dissipative"]
    spec = oscillator_spec(1.0, 0.025, 1.0, 0.0, 1000.0)
    _, oracle = hot_state_oracle(spec, 1.0, 0.1, 600, 800, 120)
    assert np.max(np.abs(column - oracle.samples(len(column)))) < 1e-12

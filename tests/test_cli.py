import gzip
import io
import runpy
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from phasediff.cli import SWEEP_FAMILIES, _write_csv, main, read_config_file
from phasediff.dissipative_oscillator import (
    fock_density_from_gscs,
    mixture_params,
    oscillator_spec,
)
from phasediff.distribution import distribution_from_harmonics, samples
from phasediff.errors import TruncationError
from phasediff.figures import SCENARIOS, FigureData, _dissipative_oscillator
from phasediff.phase_stats import audit_normalization, dispersion
from phasediff.qnd_phase import phase_dist_osc_squeezed
from phasediff.special_functions import squeezed_coherent_ket
from phasediff.validation import FULL_EXTRA_CHECKS, QUICK_CHECKS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = PERFBENCH / "reference"
SRC = Path(__file__).resolve().parents[1] / "src"


def _reference_sweeps():
    """The benchmark's seed-0 sweep jobs that have a stored reference CSV."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    return [
        job
        for jobs in workloads["WORKLOADS"].values()
        for job in jobs(workloads["DEFAULT_SEED"])
        if job.reference is not None and job.argv[0] == "sweep"
    ]


def _read_table(path):
    # genfromtxt would misread the leading '#' metadata as the header row
    body = "\n".join(
        l for l in path.read_text().splitlines() if not l.startswith("#")
    )
    return np.genfromtxt(
        io.StringIO(body), delimiter=",", names=True, deletechars=""
    )


def test_figure_fig1_csv_shape(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    table = [l for l in lines if not l.startswith("#")]
    assert meta[0].startswith("# phasediff ")
    assert any(l.startswith("# scenario: fig1") for l in meta)
    # header plus 720 angle rows, phi column plus five curves
    assert len(table) == 721
    assert len(table[0].split(",")) == 6
    data = _read_table(out)
    assert len(data.dtype.names) == 6


def test_figure_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "fig2", "--grid", "120", "--out", str(a)]) == 0
    assert main(["figure", "fig2", "--grid", "120", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_scenario_usage_error(tmp_path, capsys):
    assert main(["figure", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_override_usage_error(tmp_path):
    assert main(
        ["figure", "fig2", "--set", "bogus=1", "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_malformed_set_flag_usage_error(tmp_path):
    assert main(["figure", "fig2", "--set", "nonsense", "--out", str(tmp_path / "x.csv")]) == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma0 = 0.5\ngrid = 90  # comment\n")
    out = tmp_path / "o.csv"
    assert main(["figure", "fig2", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# param: gamma0=0.5" in lines
    assert sum(not l.startswith("#") for l in lines) == 91  # grid from config
    # the --grid flag overrides the config value
    assert main(
        ["figure", "fig2", "--config", str(cfg), "--grid", "60", "--out", str(out)]
    ) == 0
    assert sum(not l.startswith("#") for l in out.read_text().splitlines()) == 61


def test_read_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# full-line comment\n\na = 1\nb=2.5\n")
    assert read_config_file(cfg) == {"a": "1", "b": "2.5"}


def test_missing_config_file_usage_error(tmp_path, capsys):
    # a missing config file, and a directory given as the config or the output
    out = tmp_path / "x.csv"
    for args in (["--config", str(tmp_path / "nope.cfg"), "--out", str(out)],
                 ["--config", str(tmp_path), "--out", str(out)],
                 ["--out", str(tmp_path)]):
        capsys.readouterr()
        assert main(["figure", "fig3", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_plot_script_emission(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out), "--plot-script"]) == 0
    script = (tmp_path / "fig3.py").read_text()
    assert "matplotlib" in script and "fig3.csv" in script


@pytest.mark.parametrize("name", ["res.py", "res.png"])
def test_plot_script_never_overwrites_the_csv(tmp_path, capsys, name):
    assert main(["figure", "fig3", "--out", str(tmp_path / name), "--plot-script"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out ") and "--plot-script" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["figure", "--help"], ["figure", "fig1", "-h"],
                                  ["sweep", "--family", "x", "--help"], ["validate", "-h"]])
def test_help_lists_commands_flags_scenarios_and_families(capsys, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    for word in ["figure", "sweep", "validate", "--version", "--family", "--param", "--start",
                 "--stop", "--num", "--mode", "--out", "--grid", "--cutoff", "--config",
                 "--plot-script", "--set", "--quick", "override a scenario parameter",
                 *SCENARIOS, *SWEEP_FAMILIES]:
        assert word in text


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("phasediff ")


_SWEEP = ["sweep", "--family", "qnd-qubit", "--param", "t", "--start", "0.1", "--stop", "1"]


@pytest.mark.parametrize("argv, named", [
    ([], "no command"),
    (["bogus"], "'bogus'"),
    (["figure", "fig2", "--bogus", "1"], "--bogus"),
    (["figure", "fig2", "--gri", "90"], "--gri"),
    (["figure", "fig2", "--grid"], "--grid"),
    (["figure", "fig2", "--set", "--grid", "90"], "--set"),
    (["figure"], "scenario"),
    (["sweep", "--family", "qnd-qubit", "--param", "t", "--start", "0.1"], "--stop"),
    ([*_SWEEP, "--mode", "bogus"], "--mode"),
    (["figure", "fig2", "--grid", "1e3"], "grid"),
    ([*_SWEEP, "--num", "x"], "--num"),
    (["sweep", "--family", "qnd-qubit", "--param", "t", "--start", "abc", "--stop", "1"],
     "--start"),
])
def test_usage_error_is_one_line_naming_the_setting(tmp_path, monkeypatch, capsys, argv, named):
    # flags read exact names only, so an abbreviation is unknown, not --grid
    monkeypatch.chdir(tmp_path)  # where the default CSV would go
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not any(tmp_path.iterdir())


def test_flag_value_after_equals_sign(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["figure", "fig2", "--grid", "60", "--out", str(spaced)]) == 0
    assert main(["figure", "fig2", "--grid=60", f"--out={joined}"]) == 0
    assert joined.read_bytes() == spaced.read_bytes()


def test_distribution_sweep_labels_tell_close_points_apart(tmp_path):
    # %g printed all three points as t=1; integer points keep their %g label
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "qnd-qubit", "--param", "t", "--start", "1",
                 "--stop", "1.000001", "--num", "3", "--mode", "distribution",
                 "--grid", "96", "--out", str(out)]) == 0
    header, _rows = _header_and_rows(out.read_text())
    assert header == "phi,t=1,t=1.0000005,t=1.000001"


def test_sweep_dispersion_vs_time_increases(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["sweep", "--family", "dissipative-qubit", "--param", "t",
         "--start", "0.5", "--stop", "40", "--num", "9",
         "--grid", "240", "--out", str(out)]
    ) == 0
    data = _read_table(out)
    d = data["D"]
    assert np.all(np.diff(d) > 0)  # D grows toward 1 with time
    assert d[-1] < 1.0 + 1e-10


def test_sweep_unitary_constant_in_r(tmp_path):
    out = tmp_path / "u.csv"
    assert main(
        ["sweep", "--family", "qnd-qubit", "--param", "r",
         "--start", "-2", "--stop", "2", "--num", "5",
         "--set", "gamma0=0", "--grid", "240", "--out", str(out)]
    ) == 0
    d = _read_table(out)["D"]
    assert np.max(np.abs(d - d[0])) < 1e-12


def test_sweep_distribution_mode_flattens_with_temperature(tmp_path):
    out = tmp_path / "t.csv"
    assert main(
        ["sweep", "--family", "qnd-qubit", "--param", "T",
         "--start", "10", "--stop", "1000", "--num", "4",
         "--mode", "distribution", "--grid", "120", "--out", str(out)]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    cols = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    peaks = cols[:, 1:].max(axis=0)
    assert np.all(np.diff(peaks) < 0)  # hotter bath, flatter distribution


def test_sweep_unknown_parameter_usage_error(tmp_path):
    assert main(
        ["sweep", "--family", "qnd-qubit", "--param", "bogus",
         "--start", "0", "--stop", "1", "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_prints_each_margin(capsys):
    assert main(["validate", "--quick"]) == 0
    *checks, summary = capsys.readouterr().out.splitlines()
    assert summary == f"{len(checks)}/{len(checks)} checks passed"
    for line in checks:
        deviation = float(line.split(" deviation ")[1].split()[0])
        tolerance = float(line.split(" tolerance ")[1].split()[0])
        margin = float(line.split(" margin ")[1])
        assert margin == pytest.approx(deviation / tolerance, rel=1e-2, abs=1e-300)


@pytest.mark.parametrize("args", [
    # r1 = 2 has Fourier degrees beyond a 720-point grid: the column integrates to 0.99991
    ["sweep", "--family", "qnd-oscillator", "--param", "r1", "--start", "1.9", "--stop", "2",
     "--num", "2", "--grid", "720", "--mode", "distribution", "--set", "gamma0=0"],
    # fig5's dissipative curve integrates to 0.9999988 on 96 points
    ["figure", "fig5", "--grid", "96"],
])
def test_unnormalized_distribution_fails_without_csv(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not 1, on a grid of N =" in err and "(--grid)" in err and "Fock cutoff" in err
    assert not out.exists()


def test_non_finite_set_value_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["figure", "fig2", "--set", "gamma0=nan", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_value_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma0 = inf\n")
    out = tmp_path / "x.csv"
    assert main(["figure", "fig2", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bounds", [("--start=0", "--stop=nan"), ("--start=-inf", "--stop=1")])
def test_sweep_non_finite_bounds_usage_error(tmp_path, bounds):
    out = tmp_path / "x.csv"
    assert main(
        ["sweep", "--family", "qnd-qubit", "--param", "r", *bounds, "--out", str(out)]
    ) == 2
    assert not out.exists()


def test_grid_below_minimum_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["figure", "fig2", "--grid", "4", "--out", str(out)]) == 2
    assert "grid size 4" in capsys.readouterr().err
    assert not out.exists()


def _header_and_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return lines[0], np.array([[float(v) for v in l.split(",")] for l in lines[1:]])


def _assert_matches_reference(out, name):
    with gzip.open(REFERENCE / f"{name}.csv.gz", "rt") as fh:
        ref_header, ref = _header_and_rows(fh.read())
    header, got = _header_and_rows(out.read_text())
    assert header == ref_header
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("fig", [f"fig{i}" for i in range(1, 11)])
def test_figure_matches_stored_reference(tmp_path, fig):
    # the stored CSVs are the benchmark's reference outputs at default settings
    out = tmp_path / f"{fig}.csv"
    assert main(["figure", fig, "--out", str(out)]) == 0
    _assert_matches_reference(out, fig)


@pytest.mark.parametrize("job", _reference_sweeps(), ids=lambda job: job.name)
def test_sweep_matches_stored_reference(tmp_path, job):
    # the benchmark's sweep jobs as it runs them, with the output moved
    out = tmp_path / job.out
    argv = list(job.argv)
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 0
    _assert_matches_reference(out, job.reference)


def test_benchmark_reads_the_default_cutoff_of_each_oscillator_job():
    # job._cutoffs turns any missing name into None, which the benchmark
    # reports as no cutoff rather than as an error
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    cutoffs = runpy.run_path(str(PERFBENCH / "job.py"))["_cutoffs"]
    jobs = [
        job
        for jobs in workloads["WORKLOADS"].values()
        for job in jobs(workloads["DEFAULT_SEED"])
        if job.cutoff_points
    ]
    assert sorted(job.name for job in jobs) == ["fig5", "osc-r", "osc-t"]
    for job in jobs:
        values = cutoffs(job.cutoff_points)
        assert isinstance(values, list) and values, job.name
        assert all(type(k) is int and k > 0 for k in values), (job.name, values)


def test_benchmark_traces_only_checks_that_validate_runs():
    # a renamed check shows in the benchmark only as a missing per-layer metric
    traced = runpy.run_path(str(PERFBENCH / "tracing.py"))["_VALIDATION_CHECKS"]
    checks = {c.__name__ for c in QUICK_CHECKS + FULL_EXTRA_CHECKS}
    assert set(traced) <= checks


# the route of the point models that each check must reach, as module.function
CHECK_ROUTES = {
    "_check_atomic_quadrature": {"qnd_phase.phase_dist_atomic_squeezed"},
    "_check_qnd_oscillator": {"qnd_phase.phase_dist_osc_squeezed"},
    "_check_dissipative_phase_dist": {"dissipative_oscillator.phase_dist_osc_dissipative"},
    "_check_atomic_closed_form": {"qnd_phase.phase_dist_coherent_halfspin"},
    "_check_qubit_propagator": {"dissipative_qubit._coherence", "dissipative_qubit._population"},
}


@pytest.mark.parametrize("check", sorted(CHECK_ROUTES))
def test_validate_checks_call_the_routes_the_commands_run(check):
    # a check that tests a function no command runs leaves the route unchecked
    checks = {c.__name__: c for c in QUICK_CHECKS + FULL_EXTRA_CHECKS}
    assert check in checks
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        assert checks[check]().passed
    finally:
        sys.setprofile(None)
    assert {f"phasediff.{route}" for route in CHECK_ROUTES[check]} <= called


@pytest.mark.parametrize("mode", ["dispersion", "distribution"])
@pytest.mark.parametrize("family", sorted(SWEEP_FAMILIES))
def test_sweep_every_family_and_mode(tmp_path, family, mode):
    out = tmp_path / "s.csv"
    assert main(
        ["sweep", "--family", family, "--param", "t", "--start", "0.1", "--stop", "1",
         "--num", "3", "--grid", "96", "--mode", mode, "--out", str(out)]
    ) == 0
    _header, rows = _header_and_rows(out.read_text())
    assert rows.shape == ((3, 2) if mode == "dispersion" else (96, 4))
    if mode == "dispersion":
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0))
    else:
        norms = rows[:, 1:].sum(axis=0) * (2.0 * math.pi / 96)
        assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_sweep_cutoff_reaches_the_oscillator_model(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(
        ["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "0",
         "--stop", "1", "--num", "3", "--grid", "64", "--cutoff", "10", "--out", str(out)]
    ) == 1
    assert "squeezed-coherent Fock tail" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("form", ["config", "flag"])
@pytest.mark.parametrize("key, value", [("cutoff", "abc"), ("grid", "1e3")])
def test_non_integer_config_setting_usage_error(tmp_path, capsys, form, key, value):
    # a config entry and its flag are read by one rule and give one message
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "x.csv"
    setting = ["--config", str(cfg)] if form == "config" else [f"--{key}", value]
    assert main(["figure", "fig5", *setting, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be an integer, got {value!r}\n"
    assert not out.exists()


def test_cutoff_below_one_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["figure", "fig8", "--cutoff", "0", "--out", str(out)]) == 2
    assert "cutoff 0 is below the minimum 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cutoff", [None, 150])
def test_fig5_cutoff_reaches_the_dissipative_curve(tmp_path, cutoff):
    out = tmp_path / "fig5.csv"
    flag = [] if cutoff is None else ["--cutoff", str(cutoff)]
    assert main(["figure", "fig5", *flag, "--out", str(out)]) == 0
    expected = samples(_dissipative_oscillator(SCENARIOS["fig5"].defaults, cutoff), 720)
    assert np.array_equal(_read_table(out)["dissipative"], expected)


def test_fig5_cutoff_too_small_names_both_cutoffs(tmp_path, capsys):
    # below 95 levels the dephasing curve's 1e-12 tail guard fails first
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--cutoff", "100", "--out", str(out)]) == 1
    assert "at cutoffs (100, 92)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets, cutoff, message", [
    (["--set", "eta0_sq=0.5"], 8, "leaves no check cutoff 8 levels lower"),
    ([], 16, "two-cutoff disagreement"),
], ids=["cutoff=8", "cutoff=16"])
def test_oscillator_truncation_names_the_cutoff_that_ran(tmp_path, capsys, sets, cutoff,
                                                        message):
    # the check cutoff is always cutoff - 8: at 8 there is none, so the run is
    # refused, not left unchecked; the one trace check runs at the cutoff
    # given, so no message names the check cutoff as the one to raise
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "dissipative-oscillator", "--param", "t", "--start",
                 "0.1", "--stop", "0.2", "--num", "2", *sets, "--cutoff", str(cutoff),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and err.endswith(f"(--cutoff, currently {cutoff})\n"), err
    assert not out.exists()


def _refuse_linspace(*args, **kwargs):
    raise AssertionError("a point count past the bound reached np.linspace")


@pytest.mark.parametrize("argv, rc, message", [
    (["figure", "fig3", "--set", "n_t=1e12"], 1,
     "n_t = 1e+12 exceeds the limit of 1000000 points"),
    (["figure", "fig3", "--set", "n_t=1e300"], 1,
     "n_t = 1e+300 exceeds the limit of 1000000 points"),
    ([*_SWEEP, "--num", "1000000000000"], 2, "--num must be at most 1000000"),
    ([*_SWEEP, "--num", "1" + "0" * 300], 2, "--num must be at most 1000000"),
    (["figure", "fig2", "--grid", "1000001"], 2,
     "grid size 1000001 is above the maximum 1000000; lower --grid"),
    ([*_SWEEP, "--mode", "distribution", "--grid", "1000000000"], 2,
     "grid size 1000000000 is above the maximum 1000000; lower --grid"),
    ([*_SWEEP, "--mode", "distribution", "--num", "1000000", "--grid", "1000000"], 2,
     "--num 1000000 times --grid 1000000 is 1000000000000 table cells, above the maximum "
     "10000000; lower --num or --grid"),
    ([*_SWEEP, "--mode", "distribution", "--num", "10001", "--grid", "1000"], 2,
     "--num 10001 times --grid 1000 is 10001000 table cells, above the maximum 10000000; "
     "lower --num or --grid"),
], ids=["n_t=1e12", "n_t=1e300", "num=1e12", "num=1e300", "figure-grid=1e6+1",
        "sweep-grid=1e9", "sweep-cells=1e12", "sweep-cells=1e7+1e3"])
def test_point_count_past_the_bound_is_refused_before_allocation(
    tmp_path, monkeypatch, capsys, argv, rc, message
):
    # 1e12 points would take 7.3 TiB, a grid of 1e9 angles 16 GB, and a
    # distribution table of 1e12 cells some 67 TB: the count is refused by
    # name before np.linspace, which this test makes fail if reached
    monkeypatch.setattr(np, "linspace", _refuse_linspace)
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == rc
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("family, param", [
    ("qnd-qubit", "r"), ("dissipative-oscillator", "eta0_sq"),
])
def test_sweep_span_past_the_double_range_usage_error(tmp_path, monkeypatch, capsys, family,
                                                      param):
    # stop - start = -inf: np.linspace would warn and give NaN points
    monkeypatch.setattr(np, "linspace", _refuse_linspace)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--family", family, "--param", param, "--start", "1e308",
                     "--stop", "-1e308", "--num", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --start and --stop must be finite and a double apart, got 1e+308, -1e+308\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--family", "qnd-oscillator", "--param", "r1", "--start", "0.5", "--stop", "2",
     "--num", "4"],
    ["--family", "qnd-oscillator", "--param", "alpha_sq", "--start", "5", "--stop", "200",
     "--num", "2"],
    ["--family", "qnd-oscillator", "--param", "r1", "--start", "2.5", "--stop", "3",
     "--num", "2"],
    ["--family", "dissipative-oscillator", "--param", "eta0_sq", "--start", "50",
     "--stop", "100", "--num", "2", "--set", "r=0.5", "--set", "Phi=0.3"],
])
def test_oscillator_sweeps_to_strong_squeezing_and_large_displacement(tmp_path, args):
    # r1 = 2 needs 1258 Fock levels and r1 = 3 9270; alpha^2 = 200 and
    # eta0^2 = 100 put the state where unnormalized Hermite values and
    # squeeze-matrix columns failed
    out = tmp_path / "s.csv"
    assert main(
        ["sweep", *args, "--grid", "2880", "--mode", "distribution", "--out", str(out)]
    ) == 0
    _header, rows = _header_and_rows(out.read_text())
    norms = rows[:, 1:].sum(axis=0) * (2.0 * math.pi / 2880)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def _traced_sweep(args):
    tracemalloc.start()
    try:
        code = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("grid, rc", [("32768", 0), ("720", 1)])
def test_dissipative_strong_squeezing_runs_in_cutoff_memory(tmp_path, capsys, grid, rc):
    # r = 2.9 and 3 ask for 7646 and 9330 Fock levels: a cutoff x cutoff
    # array would take over 0.9 GB.  P has degree 7645 at r = 2.9.  A
    # dispersion reads c_0 and c_{+-1} only, so it writes the same bytes at
    # this grid as at the coarsest one; sampled P needs N above the degree,
    # which 32768 angles give and the default 720 do not (exit code rc)
    sweep = ["sweep", "--family", "dissipative-oscillator", "--param", "r",
             "--start", "2.9", "--stop", "3", "--num", "2"]
    written = []
    for g in (grid, "8"):
        out = tmp_path / f"s-{g}.csv"
        code, peak = _traced_sweep(sweep + ["--grid", g, "--out", str(out)])
        assert code == 0
        assert peak < 6e6
        d = _read_table(out)["D"]
        assert np.all((0.0 <= d) & (d <= 1.0))
        written.append(out.read_bytes())
    assert written[0] == written[1]
    capsys.readouterr()
    out = tmp_path / "p.csv"
    assert main(sweep + ["--mode", "distribution", "--grid", grid, "--out", str(out)]) == rc
    if rc == 0:
        assert len(_read_table(out)) == int(grid)
    else:
        assert "N = 720 points; raise the grid size (--grid)" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("fig, key", [("fig8", "alpha_sq"), ("fig5", "eta0_sq")])
def test_negative_squared_displacement_names_the_key(tmp_path, capsys, fig, key):
    out = tmp_path / "x.csv"
    assert main(["figure", fig, "--set", f"{key}=-1", "--out", str(out)]) == 1
    assert f"{key} = -1.0 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_dissipative_qubit_sweep_refuses_negative_time(tmp_path, capsys):
    # the closed forms would propagate backwards: D = -2.77e36 at t = -100
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "dissipative-qubit", "--param", "t", "--start", "-100",
                 "--stop", "-50", "--num", "2", "--set", "T=100", "--out", str(out)]) == 1
    assert "t = -100.0 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_qnd_sweep_refuses_negative_temperature(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "qnd-qubit", "--param", "t", "--start", "0.1",
                 "--stop", "1", "--num", "2", "--set", "T=-1", "--out", str(out)]) == 1
    assert "T = -1.0 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


_QUBIT_T_SWEEP = ["sweep", "--family", "dissipative-qubit", "--param", "t",
                  "--start", "0.1", "--stop", "1", "--num", "2"]


@pytest.mark.parametrize("argv, code, err", [
    (_QUBIT_T_SWEEP + ["--set", "omega=nan"], 2,
     "error: parameter 'omega' must be finite, got 'nan'\n"),
    (_QUBIT_T_SWEEP + ["--set", "omega=-inf"], 2,
     "error: parameter 'omega' must be finite, got '-inf'\n"),
    (_QUBIT_T_SWEEP + ["--set", "T=inf"], 2, "error: parameter 'T' must be finite, got 'inf'\n"),
    (_QUBIT_T_SWEEP + ["--set", "omega=nan", "--set", "T=-1"], 2,
     "error: parameter 'omega' must be finite, got 'nan'\n"),
    (_QUBIT_T_SWEEP + ["--set", "omega=-1"], 1, "error: omega = -1.0 must be positive\n"),
    (_QUBIT_T_SWEEP + ["--set", "omega=0"], 1, "error: omega = 0.0 must be positive\n"),
    (_QUBIT_T_SWEEP + ["--set", "T=-1"], 1, "error: T = -1.0 must be nonnegative\n"),
    (_QUBIT_T_SWEEP + ["--set", "omega=-1", "--set", "T=-1"], 1,
     "error: omega = -1.0 must be positive\n"),
    (_QUBIT_T_SWEEP + ["--set", "gamma0=-1", "--set", "T=-1"], 1,
     "error: gamma0 = -1.0 must be nonnegative\n"),
    (["sweep", "--family", "dissipative-qubit", "--param", "T", "--start", "-1", "--stop", "1",
      "--num", "3"], 1, "error: T = -1.0 must be nonnegative\n"),
    (["sweep", "--family", "dissipative-qubit", "--param", "omega", "--start", "-1",
      "--stop", "1", "--num", "3"], 1, "error: omega = -1.0 must be positive\n"),
    (["figure", "fig9", "--set", "omega=inf"], 2,
     "error: parameter 'omega' must be finite, got 'inf'\n"),
    (["figure", "fig9", "--set", "omega=-1"], 1, "error: omega = -1.0 must be positive\n"),
    (["figure", "fig9", "--set", "omega=0", "--set", "gamma0=-1"], 1,
     "error: omega = 0.0 must be positive\n"),
    (["figure", "fig9", "--set", "gamma0=-1"], 1, "error: gamma0 = -1.0 must be nonnegative\n"),
])
def test_dissipative_qubit_bath_refusals_are_unchanged(tmp_path, capsys, argv, code, err):
    # the bath checks omega and T once; each refusal keeps its exit code and
    # its one error line, byte for byte, and names the same setting first
    out = tmp_path / "s.csv"
    assert main([*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert not out.exists()


def test_fig3_refuses_negative_time_span(tmp_path, capsys):
    # t_max = -5 would write back-propagated populations
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--set", "t_max=-5", "--out", str(out)]) == 1
    assert "t_max = -5 must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_dispersion_sweep_never_samples_the_grid(tmp_path):
    # one complex array on the largest grid, 1000000 angles, is 16 MB;
    # dispersion and the normalization audit read Fourier coefficients only
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        rc = main(["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-1",
                   "--stop", "1", "--num", "3", "--grid", "1000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4e6


def test_csv_rows_match_per_value_formatting(tmp_path):
    # one %-format per row must print each value as f"{x:.17g}" did
    x = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-17, 7.0])
    col = np.array([-1.0 / 3.0, -5e-324, -1e300, 0.0, 123456789.123456789, -7.0])
    fd = FigureData("edge", "x", x, (("a", col), ("b", -x)), {"k": 0.1})
    out = tmp_path / "edge.csv"
    _write_csv(fd, out)
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert rows == [",".join(f"{float(v):.17g}" for v in row) for row in zip(x, col, -x)]
    assert rows[0] == "-0,-0.33333333333333331,0"


def test_qnd_oscillator_bath_sweep_builds_the_ket_once(tmp_path, cold_caches,
                                                      gamma_free_builds):
    # the 961 points vary the bath squeezing r only, which enters through
    # gamma alone: one group, one gamma-free coefficient vector, from one ket
    assert main(["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-2",
                 "--stop", "2", "--num", "961", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(gamma_free_builds) == 1
    assert squeezed_coherent_ket.cache_info().misses == 1


def test_qnd_oscillator_time_sweep_reuses_the_cached_ket(tmp_path, cold_caches,
                                                         gamma_free_builds):
    # t enters eta and the gamma-free phase, so each of the 20 points is its
    # own group and builds its own coefficients, all from one cached ket
    assert main(["sweep", "--family", "qnd-oscillator", "--param", "t", "--start", "0.1",
                 "--stop", "2", "--num", "20", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(gamma_free_builds) == 20
    assert squeezed_coherent_ket.cache_info()[:2] == (19, 1)


def test_strongly_squeezed_bath_sweep_holds_three_coefficients_per_point(tmp_path):
    # r1 = 2 puts the default cutoff near 1258 levels: a dispersion sweep damps
    # c_0 and c_{+-1} only, a points x 3 array, where all 2 cutoff - 1
    # harmonics of the 961 points would take about 39 MB
    tracemalloc.start()
    try:
        rc = main(["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-2",
                   "--stop", "2", "--num", "961", "--set", "r1=2",
                   "--out", str(tmp_path / "s.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 4e6


@pytest.mark.parametrize("sets", [["--start", "1e160", "--stop", "1e161"],
                                  ["--start", "1e200", "--stop", "1e201", "--set", "omega=1e100"]],
                         ids=["t", "t-and-omega"])
def test_an_overflow_of_omega_c_t_names_t_and_omega_c(tmp_path, capsys, sets):
    # f(omega_c t) passes the double range at the bath's r = 0, where lowering
    # the squeezing cannot help: the refusal names t and omega_c
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", "qnd-qubit", "--param", "t", *sets, "--num", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: gamma(t) is not finite at t = ") and err.count("\n") == 1, err
    assert "omega_c = 100.0: (omega_c t)^2 overflows a double; lower t or omega_c" in err
    assert "squeezing" not in err
    assert not out.exists()


def test_cached_gamma_free_states_never_go_stale(tmp_path):
    # a t sweep after an r sweep in the same process writes what a fresh
    # process writes: t and omega_c change eta, and eta is part of the key
    r_sweep = ["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-1",
               "--stop", "1", "--num", "5", "--out", str(tmp_path / "r.csv")]
    t_sweep = ["sweep", "--family", "qnd-oscillator", "--param", "t", "--start", "0.1",
               "--stop", "1", "--num", "5", "--set", "omega_c=10", "--set", "r=1"]
    assert main(r_sweep) == 0
    assert main([*t_sweep, "--out", str(tmp_path / "warm.csv")]) == 0
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from phasediff.cli import main; "
              f"sys.exit(main({[*t_sweep, '--out', str(tmp_path / 'fresh.csv')]!r}))")
    proc = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("args, message", [
    (["--family", "qnd-qubit", "--param", "t", "--start", "0.1", "--stop", "1",
      "--set", "T=-1", "--set", "gamma0=0", "--set", "omega_c=-5"],
     "T = -1.0 must be nonnegative"),
    (["--family", "qnd-qubit", "--param", "t", "--start", "0.1", "--stop", "1",
      "--set", "gamma0=0", "--set", "omega_c=-5"],
     "omega_c = -5.0 must be positive"),
    (["--family", "qnd-oscillator", "--param", "t", "--start", "-1", "--stop", "1",
      "--set", "gamma0=0"],
     "t = -1.0 must be nonnegative"),
], ids=["T", "omega_c", "t"])
def test_unitary_limit_still_checks_the_bath_and_time(tmp_path, capsys, args, message):
    # gamma0 = 0 makes eta and gamma vanish, but a bad setting is still refused
    out = tmp_path / "s.csv"
    assert main(["sweep", *args, "--num", "2", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, setting, message", [
    ("dissipative-oscillator", "r=20", "r = 20.0: tanh|r| rounds to 1"),
    ("qnd-oscillator", "r1=20", "r1 = 20.0: tanh r1 rounds to 1"),
    ("dissipative-qubit", "r=300", "r = 300.0: tanh|r| rounds to 1"),
    ("qnd-qubit", "r=360", "r = 360.0: cosh 2r overflows"),
], ids=["dissipative-oscillator", "qnd-oscillator", "dissipative-qubit", "qnd-qubit"])
def test_extreme_squeezing_is_refused_by_name(tmp_path, capsys, family, setting, message):
    # squeezing past what a double resolves: one error line, no traceback, no
    # CSV.  Between about 5 and 19 the default Fock cutoff is finite but far
    # too large to run, so no test goes there without --cutoff.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", family, "--param", "t", "--start", "0.1",
                 "--stop", "1", "--num", "2", "--set", setting, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("family, settings, message", [
    ("qnd-oscillator", ["r=355"], "gamma(t) = inf is not finite at r = 355.0, T = 0.0"),
    ("qnd-qubit", ["r=355"], "gamma(t) = inf is not finite at r = 355.0, T = 0.0"),
    ("qnd-qubit", ["r=355", "T=50"], "gamma(t) = nan is not finite at r = 355.0, T = 50.0"),
    ("qnd-qubit", ["T=1e300", "gamma0=1e10"],
     "gamma(t) is not finite at T = 1e+300, gamma0 = 10000000000.0, t = 0.1: it overflows "
     "a double even at r = 0; lower T or gamma0"),
    ("dissipative-qubit", ["T=1e300", "r=1"],
     "T = 1e+300 with r = 1.0: the bath moment N (N + 1) overflows"),
    ("dissipative-oscillator", ["T=3.6e153", "r=1"],
     "T = 3.6e+153 with r = 1.0: the bath moment N (N + 1) overflows"),
    ("dissipative-oscillator", ["omega=1e-300", "T=1"],
     "T = 1.0 with r = 0.0: the bath moment N (N + 1) overflows at omega = 1e-300, "
     "since N_th grows as T / omega; raise omega or lower T"),
    ("dissipative-qubit", ["T=1e150", "r=1", "gamma0=1e10"],
     "alpha^2 = gamma0^2 |M|^2 - omega^2 overflows a double at omega = 1.0, "
     "gamma0 = 10000000000.0, T = 1e+150, r = 1.0"),
], ids=["qnd-oscillator", "qnd-qubit", "qnd-qubit-hot", "qnd-qubit-scale",
        "dissipative-qubit", "dissipative-oscillator", "dissipative-oscillator-omega",
        "dissipative-qubit-alpha"])
def test_bath_past_the_double_range_is_refused_by_name(tmp_path, capsys, family, settings,
                                                       message):
    # a gamma(t) or a bath moment that a double cannot hold: one error line,
    # no warning, no CSV
    sets = [arg for setting in settings for arg in ("--set", setting)]
    out = tmp_path / "s.csv"
    assert main(["sweep", "--family", family, "--param", "t", "--start", "0.1", "--stop", "1",
                 "--num", "2", *sets, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("T", [3.5e153, 3.6e153])
@pytest.mark.parametrize("family", ["dissipative-qubit", "dissipative-oscillator"])
def test_dissipative_families_on_both_sides_of_the_moment_overflow(tmp_path, capsys, family, T):
    # N (N + 1) overflows between these temperatures at r = 1.  Below, the
    # qubit computes D; the oscillator's mixture outgrows any cutoff, so
    # --cutoff keeps the run short and the refusal names it
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--family", family, "--param", "t", "--start", "0.1", "--stop", "1",
               "--num", "2", "--set", f"T={T}", "--set", "r=1", "--cutoff", "40",
               "--out", str(out)])
    err = capsys.readouterr().err
    if rc == 0:
        table = _read_table(out)
        d = np.array([table[name] for name in table.dtype.names[1:]])
        assert np.all((d >= 0.0) & (d <= 1.0)), d
    else:
        assert rc == 1 and err.count("\n") == 1 and not out.exists(), err
        named = "T = 3.6e+153" if T > 3.55e153 else "--cutoff"
        assert err.startswith("error: ") and named in err, err
    assert (rc == 0) == (family == "dissipative-qubit" and T < 3.55e153)


# the sweep's other settings are the family defaults: omega = 1, gamma0 = 0.025,
# Phi = 0, eta0^2 = 1
HOT_SWEEP = ["--family", "dissipative-oscillator", "--param", "t", "--start", "0.1",
             "--stop", "2", "--num", "2", "--set", "T=100", "--set", "r=0.5"]


@pytest.mark.parametrize("args", [
    # beta_tilde = 4.85 at t = 2, where the default cutoff (141) loses trace
    pytest.param(HOT_SWEEP, id="default-cutoff"),
    # beta_tilde = 221: the default cutoff (2420 at r = 1) leaves 9% of the trace out
    pytest.param(["--family", "dissipative-oscillator", "--param", "r", "--start", "1",
                  "--stop", "1.25", "--num", "2", "--set", "T=1000", "--set", "t=10"],
                 id="T-1000"),
])
def test_hot_dissipative_sweep_refusal_names_the_cutoff(tmp_path, capsys, args):
    out = tmp_path / "s.csv"
    assert main(["sweep", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--cutoff" in err
    assert not out.exists()


def test_hot_dissipative_sweep_at_raised_cutoff_matches_eigh_oracle(tmp_path, hot_state_oracle):
    # the same sweep at --cutoff 400 computes both points (beta_tilde = 0.25
    # and 4.85), and each written P agrees with the eigh construction
    out = tmp_path / "s.csv"
    assert main(["sweep", *HOT_SWEEP, "--cutoff", "400", "--mode", "distribution",
                 "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    written = np.array([[float(v) for v in row.split(",")] for row in rows])
    spec = oscillator_spec(1.0, 0.025, 0.5, 0.0, 100.0)
    for column, t in zip(written.T[1:], (0.1, 2.0)):
        _, oracle = hot_state_oracle(spec, 1.0, t, 400, 800, 240)
        assert np.max(np.abs(column - samples(oracle, len(column)))) < 1e-12


# every check that a Fock truncation can fail, each at a cutoff far too small
FOCK_TRUNCATIONS = {
    "dissipative-trace": lambda: fock_density_from_gscs(
        mixture_params(oscillator_spec(1.0, 0.025, 0.0, 0.0, 0.0), 0.1, 3.0), 10),
    "qnd-tail": lambda: phase_dist_osc_squeezed(0.5, 0.0, 3.0, 0.0, 1.0, 0.1, 0.0, 0.0, 10),
    "normalization": lambda: dispersion(distribution_from_harmonics([0.1])),
    "normalization-on-grid": lambda: audit_normalization(
        distribution_from_harmonics([0.1]), 8),
}


@pytest.mark.parametrize("evaluate", FOCK_TRUNCATIONS.values(), ids=FOCK_TRUNCATIONS.keys())
def test_every_fock_truncation_error_names_the_cutoff_setting(evaluate):
    with pytest.raises((TruncationError, ValueError), match=r"Fock cutoff \(--cutoff"):
        evaluate()


@pytest.mark.parametrize("sets, message", [
    (["j=2.3"], "j = 2.3 is not a multiple of 1/2"),
    (["p=6"], "|p| = 6.0 exceeds j = 5"),
    (["p=4.5"], "j - p = 0.5 is not an integer"),
    (["j=-1", "p=0"], "j = -1.0 must be nonnegative"),
    # past 2j = 1028 the dipole weights overflow a double
    (["j=514.5", "p=514.5"], "j = 514.5 exceeds 514"),
], ids=["j-not-half-integer", "p-exceeds-j", "j-minus-p-not-integer", "j-negative",
        "j-past-the-weights"])
def test_spin_refusals_name_the_setting(tmp_path, capsys, sets, message):
    out = tmp_path / "fig6.csv"
    sets = [arg for setting in sets for arg in ("--set", setting)]
    assert main(["figure", "fig6", *sets, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


T_SWEEP = ["--param", "t", "--start", "0.1", "--stop", "1", "--num", "2"]


@pytest.mark.parametrize("args, message", [
    (["sweep", "--family", "qnd-qubit", *T_SWEEP, "--set", "omega=1e160"],
     "omega = 1e+160: omega^2 overflows a double"),
    (["sweep", "--family", "qnd-oscillator", *T_SWEEP, "--set", "omega=1e160"],
     "omega = 1e+160: omega^2 overflows a double"),
    (["sweep", "--family", "dissipative-qubit", *T_SWEEP, "--set", "omega=1e160"],
     "overflows a double at omega = 1e+160"),
    (["figure", "fig1", "--set", "omega=1e160"], "omega = 1e+160: omega^2 overflows a double"),
    (["figure", "fig6", "--set", "omega=1e160"], "omega = 1e+160: omega^2 overflows a double"),
    (["sweep", "--family", "qnd-oscillator", *T_SWEEP, "--set", "omega=1e154"],
     "omega = 1e+154: the phase omega^2 eta(t) l^2 - omega t l overflows a double"),
    (["figure", "fig6", "--set", "omega=1e154"],
     "omega = 1e+154: the damping omega^2 gamma(t) d^2 overflows a double"),
], ids=["qnd-qubit", "qnd-oscillator", "dissipative-qubit", "fig1", "fig6",
        "qnd-oscillator-phase", "fig6-damping"])
def test_system_frequency_past_the_double_range_is_refused_by_name(tmp_path, capsys, args,
                                                                   message):
    # omega^2, the gamma-free phase, the damping exponent and the qubit's
    # alpha^2 must fit a double: no traceback, no NaN, no warning
    out = tmp_path / "x.csv"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["figure", "fig1", "--set", "Theta=-80"], "Theta = -80.0 with j = 5: "),
    (["figure", "fig1", "--set", "Theta=-800"], "Theta = -800.0 with j = 5: "),
    (["figure", "fig6", "--set", "Theta=-100"], "Theta = -100.0 with j = 5: "),
], ids=["fig1", "fig1-exp", "fig6"])
def test_atomic_squeezing_past_the_double_range_is_refused_by_name(tmp_path, capsys, args,
                                                                   message):
    # the atoms have no Fock cutoff: the squeezed amplitudes overflow, and the
    # refusal names Theta and j
    out = tmp_path / "x.csv"
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert "cutoff" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("theta", ["-720", "800"])
def test_fig4_at_extreme_squeezing_is_flat(tmp_path, theta):
    # the start's coherence 1/(2 cosh Theta) underflows to 0, so P = 1/2pi
    out = tmp_path / "fig4.csv"
    assert main(["figure", "fig4", "--set", f"Theta={theta}", "--out", str(out)]) == 0
    table = _read_table(out)
    for name in table.dtype.names[1:]:
        assert np.max(np.abs(table[name] - 1.0 / (2.0 * math.pi))) < 1e-15, name

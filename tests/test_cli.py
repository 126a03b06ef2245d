import gzip
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasediff.cli import SWEEP_FAMILIES, _write_csv, main, read_config_file
from phasediff.dissipative_oscillator import (
    fock_density_from_gscs,
    mixture_params,
    oscillator_spec,
)
from phasediff.distribution import distribution_from_harmonics
from phasediff.errors import TruncationError
from phasediff.figures import SCENARIOS, FigureData, _dissipative_oscillator
from phasediff.phase_stats import audit_normalization
from phasediff.qnd_phase import phase_dist_osc_squeezed
from phasediff.special_functions import squeezed_coherent_ket

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


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


def test_missing_config_file_usage_error(tmp_path):
    assert main(
        ["figure", "fig2", "--config", str(tmp_path / "nope.cfg"),
         "--out", str(tmp_path / "x.csv")]
    ) == 2


def test_plot_script_emission(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out), "--plot-script"]) == 0
    script = (tmp_path / "fig3.py").read_text()
    assert "matplotlib" in script and "fig3.csv" in script


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


@pytest.mark.parametrize("fig", [f"fig{i}" for i in range(1, 11)])
def test_figure_matches_stored_reference(tmp_path, fig):
    # the stored CSVs are the benchmark's reference outputs at default settings
    out = tmp_path / f"{fig}.csv"
    assert main(["figure", fig, "--out", str(out)]) == 0
    with gzip.open(REFERENCE / f"{fig}.csv.gz", "rt") as fh:
        ref_header, ref = _header_and_rows(fh.read())
    header, got = _header_and_rows(out.read_text())
    assert header == ref_header
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


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


@pytest.mark.parametrize("line, message", [("cutoff = abc", "cutoff must be an integer"),
                                           ("grid = 1e3", "grid must be an integer")])
def test_non_integer_config_setting_usage_error(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert main(["figure", "fig5", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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
    expected = _dissipative_oscillator(SCENARIOS["fig5"].defaults, cutoff).samples(720)
    assert np.array_equal(_read_table(out)["dissipative"], expected)


def test_fig5_cutoff_too_small_names_both_cutoffs(tmp_path, capsys):
    # below 95 levels the dephasing curve's 1e-12 tail guard fails first
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--cutoff", "100", "--out", str(out)]) == 1
    assert "at cutoffs (100, 92)" in capsys.readouterr().err
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


def test_fig3_refuses_negative_time_span(tmp_path, capsys):
    # t_max = -5 would write back-propagated populations
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--set", "t_max=-5", "--out", str(out)]) == 1
    assert "t_max = -5 must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_dispersion_sweep_never_samples_the_grid(tmp_path):
    # one complex array on 4194304 angles is 64 MB; dispersion and the
    # normalization audit read Fourier coefficients only
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        rc = main(["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-1",
                   "--stop", "1", "--num", "3", "--grid", "4194304", "--out", str(out)])
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


def test_qnd_oscillator_bath_sweep_builds_the_ket_once(tmp_path):
    # the 41 points vary the bath squeezing r only; the system ket is shared
    squeezed_coherent_ket.cache_clear()
    assert main(["sweep", "--family", "qnd-oscillator", "--param", "r", "--start", "-1",
                 "--stop", "1", "--num", "41", "--out", str(tmp_path / "s.csv")]) == 0
    assert squeezed_coherent_ket.cache_info().misses == 1


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
        assert np.max(np.abs(column - oracle.samples(len(column)))) < 1e-12


# every check that a Fock truncation can fail, each at a cutoff far too small
FOCK_TRUNCATIONS = {
    "dissipative-trace": lambda: fock_density_from_gscs(
        mixture_params(oscillator_spec(1.0, 0.025, 0.0, 0.0, 0.0), 0.1, 3.0), 10),
    "qnd-tail": lambda: phase_dist_osc_squeezed(0.5, 0.0, 3.0, 0.0, 1.0, 0.1, 0.0, 0.0, 10),
    "normalization": lambda: audit_normalization(distribution_from_harmonics([0.1])),
    "normalization-on-grid": lambda: audit_normalization(
        distribution_from_harmonics([0.1]), 8),
}


@pytest.mark.parametrize("evaluate", FOCK_TRUNCATIONS.values(), ids=FOCK_TRUNCATIONS.keys())
def test_every_fock_truncation_error_names_the_cutoff_setting(evaluate):
    with pytest.raises((TruncationError, ValueError), match=r"Fock cutoff \(--cutoff"):
        evaluate()

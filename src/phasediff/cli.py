"""Command-line front end: figure-data reproduction, parameter sweeps,
and the oracle validation suite.

Output is CSV with `#`-prefixed metadata lines, a header row, and data
rows printed with 17 significant digits, so identical configurations give
byte-identical files.  Exit codes: 0 success, 1 validation or numerical
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bath_kernels import gamma_qnd
from .dissipative_oscillator import oscillator_spec, phase_dist_osc_dissipative
from .dissipative_qubit import phase_dist_qubit_coherent, qubit_spec
from .distribution import DEFAULT_GRID_SIZE, MIN_GRID_SIZE, PhaseDistribution, phase_grid
from .errors import ConsistencyError, DomainError, TruncationError
from .figures import SCENARIOS, FigureData, RunConfig, _kernels, _qnd_bath, run_figure
from .phase_stats import dispersion
from .qnd_phase import (
    AtomicCoherentParams,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
)
from .validation import run_validation


class UsageError(Exception):
    pass


def _format_value(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(fd: FigureData, path: Path) -> None:
    lines = [f"# phasediff {__version__}", f"# scenario: {fd.scenario}"]
    for note in fd.notes:
        lines.append(f"# note: {note}")
    for key in sorted(fd.params):
        lines.append(f"# param: {key}={_format_value(fd.params[key])}")
    lines.append(",".join([fd.x_name] + [label for label, _ in fd.columns]))
    cols = [fd.x] + [col for _, col in fd.columns]
    for row in zip(*cols):
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_plot_script(csv_path: Path) -> Path:
    script_path = csv_path.with_suffix(".py")
    script_path.write_text(
        "\n".join(
            [
                "#!/usr/bin/env python3",
                '"""Plot the columns of the accompanying CSV file."""',
                "import io",
                "import numpy as np",
                "import matplotlib.pyplot as plt",
                "",
                f"with open({csv_path.name!r}) as fh:",
                "    body = ''.join(l for l in fh if not l.startswith('#'))",
                "data = np.genfromtxt(io.StringIO(body), delimiter=',', names=True,",
                "                     deletechars='')",
                "names = list(data.dtype.names)",
                "x = data[names[0]]",
                "for name in names[1:]:",
                "    plt.plot(x, data[name], label=name)",
                "plt.xlabel(names[0])",
                "plt.legend()",
                "plt.tight_layout()",
                f"plt.savefig({csv_path.with_suffix('.png').name!r}, dpi=150)",
                "",
            ]
        )
    )
    return script_path


def _parse_kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise UsageError(f"expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not key or not value:
        raise UsageError(f"expected key=value, got {text!r}")
    return key, value


def read_config_file(path: Path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _parse_kv(line)
        out[key] = value
    return out


_RESERVED_KEYS = ("out", "grid", "cutoff")


def _collect_options(args) -> tuple[dict[str, float], dict[str, str]]:
    """Merge config-file entries and --set flags; CLI flags win.  Returns
    (parameter overrides, reserved settings as strings)."""
    merged: dict[str, str] = {}
    if args.config is not None:
        merged.update(read_config_file(Path(args.config)))
    for item in args.set or []:
        key, value = _parse_kv(item)
        merged[key] = value
    reserved = {k: merged.pop(k) for k in list(merged) if k in _RESERVED_KEYS}
    if args.out is not None:
        reserved["out"] = args.out
    if args.grid is not None:
        reserved["grid"] = str(args.grid)
    if args.cutoff is not None:
        reserved["cutoff"] = str(args.cutoff)
    overrides = {}
    for key, value in merged.items():
        try:
            overrides[key] = float(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} has non-numeric value {value!r}")
        if not math.isfinite(overrides[key]):
            raise UsageError(f"parameter {key!r} must be finite, got {value!r}")
    return overrides, reserved


def _grid_size(reserved: dict[str, str]) -> int:
    n = int(reserved.get("grid", DEFAULT_GRID_SIZE))
    if n < MIN_GRID_SIZE:
        raise UsageError(f"grid size {n} is below the minimum {MIN_GRID_SIZE}")
    return n


def _cmd_figure(args) -> int:
    if args.scenario not in SCENARIOS:
        raise UsageError(
            f"unknown scenario {args.scenario!r}; valid: {', '.join(sorted(SCENARIOS))}"
        )
    overrides, reserved = _collect_options(args)
    config = RunConfig(
        scenario=args.scenario,
        overrides=overrides,
        grid=_grid_size(reserved),
        cutoff=int(reserved["cutoff"]) if "cutoff" in reserved else None,
    )
    try:
        fd = run_figure(config)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    out = Path(reserved.get("out", f"{args.scenario}.csv"))
    _write_csv(fd, out)
    print(f"wrote {out}")
    if args.plot_script:
        print(f"wrote {_write_plot_script(out)}")
    return 0


# --- sweep families ---


def _qnd_qubit_dist(p: dict[str, float], grid: int) -> PhaseDistribution:
    ga = gamma_qnd(p["t"], _qnd_bath(p, p["r"], p["T"])) if p["gamma0"] > 0 else 0.0
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_coherent_halfspin(state, p["omega"], p["t"], ga, grid)


def _dissipative_qubit_dist(p: dict[str, float], grid: int) -> PhaseDistribution:
    spec = qubit_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    state = AtomicCoherentParams(p["alpha_p"], p["beta_p"])
    return phase_dist_qubit_coherent(state, spec, p["t"], grid)


def _qnd_oscillator_dist(p: dict[str, float], grid: int) -> PhaseDistribution:
    et, ga = _kernels(p, p["r"], p["T"], p["t"]) if p["gamma0"] > 0 else (0.0, 0.0)
    return phase_dist_osc_squeezed(
        p["r1"], p["psi"], math.sqrt(p["alpha_sq"]), p["theta0"],
        p["omega"], p["t"], et, ga, None, grid,
    )


def _dissipative_oscillator_dist(p: dict[str, float], grid: int) -> PhaseDistribution:
    spec = oscillator_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
    return phase_dist_osc_dissipative(spec, math.sqrt(p["eta0_sq"]), p["t"], grid=grid)


SWEEP_FAMILIES = {
    "qnd-qubit": (
        _qnd_qubit_dist,
        {"alpha_p": math.pi / 4, "beta_p": math.pi / 4, "omega": 1.0, "omega_c": 100.0,
         "a": 0.0, "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 1.0},
    ),
    "dissipative-qubit": (
        _dissipative_qubit_dist,
        {"alpha_p": math.pi / 4, "beta_p": math.pi / 4, "omega": 1.0, "Phi": math.pi / 8,
         "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 1.0},
    ),
    "qnd-oscillator": (
        _qnd_oscillator_dist,
        {"alpha_sq": 5.0, "theta0": 0.0, "r1": 0.5, "psi": math.pi / 4, "omega": 1.0,
         "omega_c": 100.0, "a": 0.0, "gamma0": 0.0025, "r": 0.0, "T": 0.0, "t": 0.1},
    ),
    "dissipative-oscillator": (
        _dissipative_oscillator_dist,
        {"eta0_sq": 1.0, "omega": 1.0, "Phi": 0.0, "gamma0": 0.025,
         "r": 0.0, "T": 0.0, "t": 0.1},
    ),
}


def _cmd_sweep(args) -> int:
    if args.family not in SWEEP_FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; valid: {', '.join(sorted(SWEEP_FAMILIES))}"
        )
    builder, defaults = SWEEP_FAMILIES[args.family]
    overrides, reserved = _collect_options(args)
    params = dict(defaults)
    for key, value in overrides.items():
        if key not in params:
            raise UsageError(
                f"unknown parameter {key!r} for {args.family}; "
                f"valid keys: {', '.join(sorted(params))}"
            )
        params[key] = value
    if args.param not in params:
        raise UsageError(
            f"cannot sweep {args.param!r}; valid keys: {', '.join(sorted(params))}"
        )
    if args.num < 2:
        raise UsageError("--num must be at least 2")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise UsageError(f"--start and --stop must be finite, got {args.start}, {args.stop}")
    grid = _grid_size(reserved)
    xs = np.linspace(args.start, args.stop, args.num)
    scenario = f"sweep-{args.family}-{args.param}"
    base = {k: v for k, v in params.items() if k != args.param}
    if args.mode == "dispersion":
        dvals = []
        for x in xs:
            p = builder({**base, args.param: float(x)}, grid)
            dvals.append(dispersion(p))
        fd = FigureData(scenario, args.param, xs, (("D", np.array(dvals)),), base)
    else:
        columns = []
        for x in xs:
            p = builder({**base, args.param: float(x)}, grid)
            columns.append((f"{args.param}={x:g}", p.values))
        fd = FigureData(scenario, "phi", phase_grid(grid), tuple(columns), base)
    out = Path(reserved.get("out", f"{scenario}.csv"))
    _write_csv(fd, out)
    print(f"wrote {out}")
    if args.plot_script:
        print(f"wrote {_write_plot_script(out)}")
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(quick=args.quick)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  deviation {r.deviation:.3e}  tolerance {r.tolerance:.1e}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasediff",
        description="Phase distributions and dispersion of open quantum systems",
    )
    parser.add_argument("--version", action="version", version=f"phasediff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p):
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--grid", type=int, help="angular grid size (default 720)")
        p.add_argument("--cutoff", type=int, help="Fock-space cutoff override")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--plot-script", action="store_true",
                       help="also emit a matplotlib script next to the CSV")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario parameter (repeatable)")

    p_fig = sub.add_parser("figure", help="reproduce a figure scenario as CSV")
    p_fig.add_argument("scenario", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    add_io_flags(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a model family")
    p_sweep.add_argument("--family", required=True,
                         help=f"one of: {', '.join(sorted(SWEEP_FAMILIES))}")
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--num", type=int, default=41, help="number of sweep points")
    p_sweep.add_argument("--mode", choices=("dispersion", "distribution"),
                         default="dispersion")
    add_io_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the oracle validation suite")
    p_val.add_argument("--quick", action="store_true", help="skip the slower checks")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, ConsistencyError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

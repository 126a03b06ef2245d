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
from .distribution import DEFAULT_GRID_SIZE, MIN_GRID_SIZE
from .errors import ConsistencyError, DomainError, TruncationError
from .figures import (
    SCENARIOS,
    SWEEP_FAMILIES,
    FigureData,
    RunConfig,
    distribution_figure,
    evaluate,
    resolve_params,
    run_figure,
)
from .phase_stats import dispersion
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
    # one %-format per row; "%.17g" % x is the same text as _format_value(x)
    row_format = ",".join(["%.17g"] * len(cols))
    lines.extend(row_format % row for row in zip(*cols))
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


def _grid_and_cutoff(reserved: dict[str, str]) -> tuple[int, int | None]:
    """The angular grid size and the Fock cutoff (None: each model's own).
    A value that is not an integer, or is below its minimum, is a usage
    error that names the setting."""
    values = []
    for key, name, minimum, default in (
        ("grid", "grid size", MIN_GRID_SIZE, DEFAULT_GRID_SIZE),
        ("cutoff", "cutoff", 1, None),
    ):
        text = reserved.get(key)
        if text is None:
            values.append(default)
            continue
        try:
            n = int(text)
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {text!r}")
        if n < minimum:
            raise UsageError(f"{name} {n} is below the minimum {minimum}")
        values.append(n)
    return values[0], values[1]


def _write_outputs(fd: FigureData, reserved: dict[str, str], stem: str, plot_script: bool) -> int:
    out = Path(reserved.get("out", f"{stem}.csv"))
    _write_csv(fd, out)
    print(f"wrote {out}")
    if plot_script:
        print(f"wrote {_write_plot_script(out)}")
    return 0


def _cmd_figure(args) -> int:
    if args.scenario not in SCENARIOS:
        raise UsageError(
            f"unknown scenario {args.scenario!r}; valid: {', '.join(sorted(SCENARIOS))}"
        )
    overrides, reserved = _collect_options(args)
    grid, cutoff = _grid_and_cutoff(reserved)
    try:
        fd = run_figure(RunConfig(args.scenario, overrides, grid, cutoff))
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    return _write_outputs(fd, reserved, args.scenario, args.plot_script)


def _cmd_sweep(args) -> int:
    if args.family not in SWEEP_FAMILIES:
        raise UsageError(
            f"unknown family {args.family!r}; valid: {', '.join(sorted(SWEEP_FAMILIES))}"
        )
    point, defaults = SWEEP_FAMILIES[args.family]
    overrides, reserved = _collect_options(args)
    try:
        params = resolve_params(args.family, defaults, overrides)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    if args.param not in params:
        raise UsageError(
            f"cannot sweep {args.param!r}; valid keys: {', '.join(sorted(params))}"
        )
    if args.num < 2:
        raise UsageError("--num must be at least 2")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise UsageError(f"--start and --stop must be finite, got {args.start}, {args.stop}")
    grid, cutoff = _grid_and_cutoff(reserved)
    xs = np.linspace(args.start, args.stop, args.num)
    scenario = f"sweep-{args.family}-{args.param}"
    base = {k: v for k, v in params.items() if k != args.param}
    runs = ((f"{args.param}={x:g}", {args.param: float(x)}) for x in xs)
    if args.mode == "dispersion":
        # stream: keep each D, not its distribution, so memory stays at one point's
        d = [dispersion(p) for _, p in evaluate(point, base, runs, cutoff)]
        fd = FigureData(scenario, args.param, xs, (("D", np.array(d)),), base)
    else:
        fd = distribution_figure(scenario, point, base, runs, grid, cutoff)
    return _write_outputs(fd, reserved, scenario, args.plot_script)


def _cmd_validate(args) -> int:
    results = run_validation(quick=args.quick)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(
            f"{status}  {r.name:<{width}}  deviation {r.deviation:.3e}  "
            f"tolerance {r.tolerance:.1e}  margin {r.margin:.2e}"
        )
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
        p.add_argument("--grid", type=int,
                       help="angles of sampled P(phi) columns; dispersion does not "
                       "depend on it (default 720)")
        p.add_argument("--cutoff", type=int,
                       help="Fock cutoff of the oscillator models (default: chosen per point)")
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

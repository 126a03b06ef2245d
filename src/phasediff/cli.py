"""Command-line front end: figure-data reproduction, parameter sweeps,
and the oracle validation suite.

Output is CSV with `#`-prefixed metadata lines, a header row, and data
rows printed with 17 significant digits, so identical configurations give
byte-identical files.  Exit codes: 0 success, 1 validation or numerical
failure, 2 usage error.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .distribution import DEFAULT_GRID_SIZE, MIN_GRID_SIZE
from .errors import DomainError, TruncationError
from .figures import (
    SCENARIOS,
    SWEEP_FAMILIES,
    FigureData,
    dispersion_figure,
    distribution_figure,
    resolve_params,
    run_figure,
)
from .validation import run_validation


class UsageError(Exception):
    pass


def _write_csv(fd: FigureData, path: Path) -> None:
    lines = [f"# phasediff {__version__}", f"# scenario: {fd.scenario}"]
    for note in fd.notes:
        lines.append(f"# note: {note}")
    for key in sorted(fd.params):
        lines.append("# param: %s=%.17g" % (key, fd.params[key]))
    lines.append(",".join([fd.x_name] + [label for label, _ in fd.columns]))
    cols = [fd.x] + [col for _, col in fd.columns]
    # one %-format per row
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


def _collect_options(opts) -> tuple[dict[str, float], dict[str, str]]:
    """Merge config-file entries and --set flags; CLI flags win.  Returns
    (parameter overrides, reserved settings as strings)."""
    merged: dict[str, str] = {}
    if opts["config"] is not None:
        merged.update(read_config_file(Path(opts["config"])))
    for item in opts["set"]:
        key, value = _parse_kv(item)
        merged[key] = value
    reserved = {k: merged.pop(k) for k in list(merged) if k in _RESERVED_KEYS}
    reserved.update((k, opts[k]) for k in _RESERVED_KEYS if opts[k] is not None)
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
        n = _convert(int, key, text, "an integer")
        if n < minimum:
            raise UsageError(f"{name} {n} is below the minimum {minimum}")
        values.append(n)
    return values[0], values[1]


def _convert(kind, name: str, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{name} must be {what}, got {text!r}")


def _out_path(reserved: dict[str, str], stem: str, plot_script: bool) -> Path:
    """The CSV path, refused before any work when the plot script or its
    figure would overwrite it."""
    out = Path(reserved.get("out", f"{stem}.csv"))
    if plot_script and out.suffix in (".py", ".png"):
        raise UsageError(
            f"--out {out} would be overwritten by --plot-script; give the CSV another suffix"
        )
    return out


def _write_outputs(fd: FigureData, out: Path, plot_script: bool) -> int:
    _write_csv(fd, out)
    print(f"wrote {out}")
    if plot_script:
        print(f"wrote {_write_plot_script(out)}")
    return 0


def _sweep_label(x: float) -> str:
    """The %g form where it reads back as x, else the shortest repr without a
    trailing .0, so distinct points get distinct column labels."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x).removesuffix(".0")


def _cmd_figure(opts) -> int:
    scenario = opts["scenario"]
    if scenario not in SCENARIOS:
        raise UsageError(
            f"unknown scenario {scenario!r}; valid: {', '.join(sorted(SCENARIOS))}"
        )
    overrides, reserved = _collect_options(opts)
    grid, cutoff = _grid_and_cutoff(reserved)
    out = _out_path(reserved, scenario, opts["plot-script"])
    try:
        fd = run_figure(scenario, overrides, grid, cutoff)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    return _write_outputs(fd, out, opts["plot-script"])


def _cmd_sweep(opts) -> int:
    family, param, mode = opts["family"], opts["param"], opts["mode"]
    start = _convert(float, "--start", opts["start"], "a number")
    stop = _convert(float, "--stop", opts["stop"], "a number")
    num = _convert(int, "--num", opts["num"], "an integer")
    if mode not in ("dispersion", "distribution"):
        raise UsageError(f"--mode must be dispersion or distribution, got {mode!r}")
    if family not in SWEEP_FAMILIES:
        raise UsageError(
            f"unknown family {family!r}; valid: {', '.join(sorted(SWEEP_FAMILIES))}"
        )
    point, defaults = SWEEP_FAMILIES[family]
    overrides, reserved = _collect_options(opts)
    try:
        params = resolve_params(family, defaults, overrides)
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))
    if param not in params:
        raise UsageError(
            f"cannot sweep {param!r}; valid keys: {', '.join(sorted(params))}"
        )
    if num < 2:
        raise UsageError("--num must be at least 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"--start and --stop must be finite, got {start}, {stop}")
    grid, cutoff = _grid_and_cutoff(reserved)
    scenario = f"sweep-{family}-{param}"
    out = _out_path(reserved, scenario, opts["plot-script"])
    xs = np.linspace(start, stop, num).tolist()
    base = {k: v for k, v in params.items() if k != param}
    if mode == "dispersion":
        fd = dispersion_figure(scenario, point, base, param, xs, [("D", {})], cutoff)
    else:
        runs = ((f"{param}={_sweep_label(x)}", {param: x}) for x in xs)
        fd = distribution_figure(scenario, point, base, runs, grid, cutoff)
    return _write_outputs(fd, out, opts["plot-script"])


def _cmd_validate(opts) -> int:
    results = run_validation(quick=opts["quick"])
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


class Command(NamedTuple):
    handler: Callable[[dict], int]
    help: str
    positional: tuple[str, str] | None  # (name, help)
    flags: dict[str, tuple[str, str | None, str]]  # name -> (kind, default, help)
    required: tuple[str, ...] = ()


# Flag kinds: "value" takes one string (--flag value or --flag=value),
# "switch" is True when present, "repeat" collects every value given.
_IO_FLAGS = {
    "out": ("value", None, "output CSV path"),
    "grid": ("value", None, "angles of sampled P(phi) columns; dispersion does not "
             f"depend on it (default {DEFAULT_GRID_SIZE})"),
    "cutoff": ("value", None, "Fock cutoff of the oscillator models (default: chosen per point)"),
    "config": ("value", None, "flat key=value config file"),
    "plot-script": ("switch", False, "also emit a matplotlib script next to the CSV"),
    "set": ("repeat", None, "KEY=VALUE: override a scenario parameter (repeatable)"),
}

COMMANDS = {
    "figure": Command(
        _cmd_figure, "reproduce a figure scenario as CSV",
        ("scenario", "one of the scenarios below"), _IO_FLAGS,
    ),
    "sweep": Command(
        _cmd_sweep, "sweep one parameter of a model family", None,
        {
            "family": ("value", None, "one of the families below"),
            "param": ("value", None, "parameter to sweep"),
            "start": ("value", None, "first value of the parameter"),
            "stop": ("value", None, "last value of the parameter"),
            "num": ("value", "41", "number of sweep points"),
            "mode": ("value", "dispersion", "dispersion or distribution"),
            **_IO_FLAGS,
        },
        ("family", "param", "start", "stop"),
    ),
    "validate": Command(
        _cmd_validate, "run the oracle validation suite", None,
        {"quick": ("switch", False, "skip the slower checks")},
    ),
}


def _usage() -> str:
    lines = [
        f"usage: phasediff {{{','.join(COMMANDS)}}} [flags]  |  phasediff --version",
        "",
        "Phase distributions and dispersion of open quantum systems.",
        "Flags take exact long names, as --flag value or --flag=value.",
    ]
    for name, command in COMMANDS.items():
        head = f"{name} {command.positional[0].upper()}" if command.positional else name
        lines += ["", f"{head}: {command.help}"]
        if command.positional:
            lines.append(f"  {command.positional[0].upper():<15}{command.positional[1]}")
        for flag, (kind, default, text) in command.flags.items():
            if flag in command.required:
                text += " (required)"
            elif kind == "value" and default is not None:
                text += f" (default {default})"
            lines.append(f"  --{flag:<13}{text}")
    lines += ["", f"scenarios: {', '.join(SCENARIOS)}",
              f"families: {', '.join(sorted(SWEEP_FAMILIES))}"]
    return "\n".join(lines)


def _is_flag(token: str) -> bool:
    try:
        float(token)  # a negative number, as in --start -100, is a value
    except ValueError:
        return token.startswith("-")
    return False


def _parse(argv: list[str]) -> tuple[Command, dict]:
    """Read argv against COMMANDS: the command's handler and its settings,
    each a string (a bool for a switch, a list for a repeated flag)."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise UsageError(f"{got}; valid: {', '.join(COMMANDS)}")
    command = COMMANDS[argv[0]]
    opts = {flag: [] if kind == "repeat" else default
            for flag, (kind, default, _help) in command.flags.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_flag(token):
            positionals.append(token)
            continue
        flag, eq, value = token.removeprefix("--").partition("=")
        if not token.startswith("--") or flag not in command.flags:
            raise UsageError(f"unknown flag {token.partition('=')[0]} for {argv[0]}; "
                             f"valid: {', '.join('--' + f for f in command.flags)}")
        kind = command.flags[flag][0]
        if kind == "switch":
            if eq:
                raise UsageError(f"--{flag} takes no value")
            opts[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise UsageError(f"--{flag} needs a value")
        if kind == "repeat":
            opts[flag].append(value)
        else:
            opts[flag] = value
    missing = [f"--{flag}" for flag in command.required if opts[flag] is None]
    if missing:
        raise UsageError(f"{argv[0]} needs {', '.join(missing)}")
    if command.positional:
        name = command.positional[0]
        if not positionals:
            raise UsageError(f"{argv[0]} needs a {name}")
        opts[name] = positionals.pop(0)
    if positionals:
        raise UsageError(f"unexpected argument {positionals[0]!r}")
    return command, opts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_usage())
        return 0
    if "--version" in argv:
        print(f"phasediff {__version__}")
        return 0
    try:
        command, opts = _parse(argv)
        return command.handler(opts)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

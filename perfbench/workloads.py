"""The benchmark's workloads: the jobs each one runs, generated from a seed.

A job is one `phasediff` command line, run in a fresh process.  The seed
only jitters sweep endpoints inside narrow bands, so the cost of a workload
stays steady across seeds.  Seed 0 is the default seed: it gives the
nominal endpoints, whose CSV output is kept under `reference/`.

Why each workload exists:

- osc-r-sweep: fig5 and a dissipative-oscillator sweep over bath squeezing
  r.  Every point misses the squeeze-matrix cache and the Fock cutoff grows
  with r, so nearly all time goes to the squeeze and displacement Fock
  matrices.  The r=1.5 point is left out for run length only: at cutoff
  about 500 it alone takes over 30 s on a 2-core machine.
- osc-t-sweep: the same layer used differently.  A sweep over time t at
  fixed r and T=0 keeps the cutoff fixed, so all but the first point hit
  the squeeze-matrix cache and the displacement matrices dominate.
- closed-form-sweeps: the figures that never touch a Fock squeeze matrix
  (fig1-fig4, fig6-fig10), qnd-oscillator dispersion sweeps at two grid
  sizes and one distribution-mode qubit sweep.  Time goes to Fourier
  synthesis, the dephasing closed forms and per-point overhead.
- validate: the full oracle suite (Dormand-Prince integration, polar and
  frequency quadrature, matrix exponentials).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the output gate expects of it.

    kind is how the output is checked: "dispersion" (every data column is a
    dispersion D in [0, 1]), "distribution" (every data column is a
    normalized P(phi)), "curve" (finite numbers only) or "validate" (the
    pass-count line).  reference names the stored CSV the output must match;
    it is set only for inputs that do not depend on the seed.  points is
    the number of phase distributions the job evaluates; grid is their N.
    cutoff_points, for dissipative-oscillator jobs, says where to evaluate
    the default Fock cutoff: the registry ("figure" or "sweep") and name
    whose defaults apply, the --set overrides, and the swept parameter.
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    reference: str | None = None
    points: int = 0
    grid: int = 720
    cutoff_points: dict | None = field(default=None, hash=False)

    @property
    def out(self) -> str | None:
        if "--out" in self.argv:
            return self.argv[self.argv.index("--out") + 1]
        return None


def _fmt(x: float) -> str:
    return repr(float(x))


def _figure(fig: str, kind: str, points: int, cutoff_points: dict | None = None) -> Job:
    return Job(fig, ("figure", fig, "--out", f"{fig}.csv"), kind, fig, points,
               cutoff_points=cutoff_points)


def _sweep(name: str, family: str, param: str, start: float, stop: float, num: int,
           seed: int, grid: int = 720, mode: str = "dispersion",
           sets: tuple[tuple[str, float], ...] = (), cutoff: bool = False) -> Job:
    argv = ["sweep", "--family", family, "--param", param, "--start", _fmt(start),
            "--stop", _fmt(stop), "--num", str(num), "--grid", str(grid),
            "--mode", mode, "--out", f"{name}.csv"]
    for key, value in sets:
        argv += ["--set", f"{key}={_fmt(value)}"]
    cutoff_points = None
    if cutoff:
        cutoff_points = {"registry": "sweep", "name": family, "set": dict(sets),
                         "param": param, "start": start, "stop": stop, "num": num}
    return Job(name, tuple(argv), mode, name if seed == DEFAULT_SEED else None, num,
               grid, cutoff_points)


class _Jitter:
    """Endpoint jitter: seed 0 gives the nominal value, any other seed a
    value drawn uniformly from [nominal, nominal + width]."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def __call__(self, nominal: float, width: float) -> float:
        if self.rng is None:
            return nominal
        return nominal + width * self.rng.random()


def osc_r_sweep(seed: int) -> list[Job]:
    jit = _Jitter(seed)
    return [
        _figure("fig5", "distribution", 2, {"registry": "figure", "name": "fig5"}),
        # the stop band is narrow because the cutoff, and with it the cost,
        # grows steeply with r near 1.25: 0.001 moves it by at most one level
        _sweep("osc-r", "dissipative-oscillator", "r", jit(0.25, 0.01),
               jit(1.25, -0.001), 5, seed, cutoff=True),
    ]


def osc_t_sweep(seed: int) -> list[Job]:
    jit = _Jitter(seed)
    return [
        _sweep("osc-t", "dissipative-oscillator", "t", jit(0.1, 0.01), jit(2.0, -0.05),
               5, seed, sets=(("r", 0.9),), cutoff=True),
    ]


# output kind and phase distributions evaluated (curves x points) of each
# closed-form figure
_FIGURES = {
    "fig1": ("distribution", 5), "fig2": ("distribution", 4), "fig3": ("curve", 0),
    "fig4": ("distribution", 8), "fig6": ("dispersion", 4 * 41),
    "fig7": ("dispersion", 4 * 36), "fig8": ("dispersion", 4 * 41),
    "fig9": ("dispersion", 4 * 41), "fig10": ("dispersion", 4 * 41),
}


def closed_form_sweeps(seed: int) -> list[Job]:
    jit = _Jitter(seed)
    jobs = [_figure(fig, kind, n) for fig, (kind, n) in _FIGURES.items()]
    jobs += [
        _sweep("qnd-osc-720", "qnd-oscillator", "r", jit(-2.0, 0.01), jit(2.0, -0.01),
               961, seed, grid=720),
        _sweep("qnd-osc-2880", "qnd-oscillator", "r", jit(-2.0, 0.01), jit(2.0, -0.01),
               241, seed, grid=2880),
        _sweep("qubit-dist", "dissipative-qubit", "t", jit(0.0, 0.05), jit(40.0, -0.1),
               21, seed, mode="distribution"),
    ]
    return jobs


def validate(seed: int) -> list[Job]:
    return [Job("validate", ("validate",), "validate")]


WORKLOADS = {
    "osc-r-sweep": osc_r_sweep,
    "osc-t-sweep": osc_t_sweep,
    "closed-form-sweeps": closed_form_sweeps,
    "validate": validate,
}

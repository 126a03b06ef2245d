"""Span tracing of phasediff's public layer functions, from outside the package.

`install` wraps each target function at every place a phasediff module binds
it (for example both `dissipative_oscillator.squeeze_matrix` and
`validation.squeeze_matrix`), and each check in the validation suite's check
tuples.  A span records name, start, end, parent span and job id; spans stay
in memory until the job writes them out at exit.

Scalar per-element functions (squeeze_matrix_element, generalized_laguerre,
wigner_d_half_pi, beta_integral) are deliberately not wrapped: fig5 alone
makes 85k Laguerre calls.  Their work is counted from the matrix-level
results instead (`.elements`, `.terms`).

A target that a later version of the package no longer has is recorded as
missing; the metrics that need it are then reported missing, not zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

SQUEEZE = "special_functions.squeeze_matrix"
GCS = "dissipative_oscillator.gcs_displacement_matrix"
FOURIER = "distribution.distribution_from_fourier"
DOPRI = "oracle.dormand_prince"


def _count_squeeze(counters: Counter, fn):
    """Hits are read from the lru_cache's own statistics; the wrapper sits
    outside the cache and never clears or bypasses it."""
    info = getattr(fn, "cache_info", None)

    def counted(*args, **kwargs):
        before = info().hits if info else 0
        result = fn(*args, **kwargs)
        if info and info().hits > before:
            counters[SQUEEZE + ".hits"] += 1
        else:
            counters[SQUEEZE + ".elements"] += getattr(result, "size", 0)
        return result

    return counted


def _count_gcs(counters: Counter, fn):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        shape = getattr(result, "shape", (0,))
        counters[GCS + ".elements"] += getattr(result, "size", 0)
        counters["dissipative_oscillator.cutoff_max"] = max(
            counters["dissipative_oscillator.cutoff_max"], shape[0]
        )
        return result

    return counted


def _count_fourier(counters: Counter, fn):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        coeffs = args[0] if args else kwargs.get("coeffs", ())
        try:
            counters[FOURIER + ".terms"] += len(coeffs) * len(result.values)
        except (TypeError, AttributeError):
            pass
        return result

    return counted


def _count_rhs(counters: Counter, fn):
    """Counts right-hand-side evaluations by wrapping the f it is given."""

    def counted(*args, **kwargs):
        f = args[0] if args else kwargs.get("f")
        if not callable(f):
            return fn(*args, **kwargs)

        def rhs(*a, **kw):
            counters[DOPRI + ".rhs_evals"] += 1
            return f(*a, **kw)

        if args:
            return fn(rhs, *args[1:], **kwargs)
        return fn(*args, **{**kwargs, "f": rhs})

    return counted


TARGETS = (
    (SQUEEZE, _count_squeeze),
    (GCS, _count_gcs),
    ("dissipative_oscillator.phase_dist_osc_dissipative", None),
    ("dissipative_oscillator.fock_density_from_gscs", None),
    (FOURIER, _count_fourier),
    ("qnd_phase.phase_distribution_atomic", None),
    ("qnd_phase.phase_dist_osc_squeezed", None),
    ("qnd_phase.qnd_evolve", None),
    ("bath_kernels.eta", None),
    ("bath_kernels.gamma_qnd", None),
    ("dissipative_qubit.propagate_qubit", None),
    ("dissipative_qubit.excited_population", None),
    ("phase_stats.dispersion", None),
    (DOPRI, _count_rhs),
    ("oracle.phase_dist_by_quadrature", None),
    ("oracle.gamma_by_quadrature", None),
    ("figures.run_figure", None),
    ("cli.main", None),
)
CHECK_GROUPS = ("QUICK_CHECKS", "FULL_EXTRA_CHECKS")


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counters: Counter = Counter()
        self.found: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        self.found.append(name)
        return traced

    def records(self) -> list[list]:
        return [span + [self.job_id] for span in self.spans]


def _rebind(original, replacement) -> None:
    """Point every phasediff module binding of `original`, including entries
    of module-level tuples, at `replacement`."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("phasediff"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif type(value) is tuple and any(v is original for v in value):
                setattr(module, key, tuple(replacement if v is original else v for v in value))


def install(tracer: Tracer) -> None:
    for name, counter in TARGETS:
        module_name, attr = name.rsplit(".", 1)
        try:
            module = importlib.import_module(f"phasediff.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(name)
            continue
        inner = counter(tracer.counters, fn) if counter else fn
        _rebind(fn, tracer.wrap(name, inner))
    try:
        validation = importlib.import_module("phasediff.validation")
    except ImportError:
        return
    for group in CHECK_GROUPS:
        for check in getattr(validation, group, ()):
            _rebind(check, tracer.wrap(f"validation.{check.__name__}", check))


# --- per-layer metrics: (name, unit, better, span it needs, statistic) ---


def _span_metric(target: str, stat: str, unit: str, better: str = "lower"):
    return (f"{target}.{stat}", unit, better, target, stat)


_VALIDATION_CHECKS = (
    "_check_wigner_d_orthogonality", "_check_gamma_kernel", "_check_qubit_propagator",
    "_check_atomic_closed_form", "_check_dispersion_basics", "_check_squeeze_vs_expm",
    "_check_oscillator_mixture", "_check_atomic_quadrature",
    "_check_dissipative_phase_dist", "_check_normalization",
)

LAYER_METRICS = (
    _span_metric(SQUEEZE, "calls", "count"),
    _span_metric(SQUEEZE, "s", "s"),
    _span_metric(SQUEEZE, "hits", "count", "higher"),
    _span_metric(SQUEEZE, "hit_ratio", "ratio", "higher"),
    _span_metric(SQUEEZE, "elements", "count"),
    _span_metric(GCS, "calls", "count"),
    _span_metric(GCS, "s", "s"),
    _span_metric(GCS, "elements", "count"),
    _span_metric("dissipative_oscillator.phase_dist_osc_dissipative", "calls", "count"),
    _span_metric("dissipative_oscillator.phase_dist_osc_dissipative", "self_s", "s"),
    _span_metric("dissipative_oscillator.fock_density_from_gscs", "s", "s"),
    ("dissipative_oscillator.cutoff_max", "count", "lower", GCS, "cutoff_max"),
    _span_metric(FOURIER, "calls", "count"),
    _span_metric(FOURIER, "s", "s"),
    _span_metric(FOURIER, "terms", "count"),
    _span_metric("qnd_phase.phase_distribution_atomic", "self_s", "s"),
    _span_metric("qnd_phase.phase_dist_osc_squeezed", "self_s", "s"),
    _span_metric("qnd_phase.qnd_evolve", "calls", "count"),
    _span_metric("qnd_phase.qnd_evolve", "s", "s"),
    *(
        _span_metric(target, stat, unit)
        for target in ("bath_kernels.eta", "bath_kernels.gamma_qnd",
                       "dissipative_qubit.propagate_qubit",
                       "dissipative_qubit.excited_population", "phase_stats.dispersion")
        for stat, unit in (("calls", "count"), ("s", "s"))
    ),
    _span_metric(DOPRI, "calls", "count"),
    _span_metric(DOPRI, "s", "s"),
    _span_metric(DOPRI, "rhs_evals", "count"),
    _span_metric("oracle.phase_dist_by_quadrature", "s", "s"),
    _span_metric("oracle.gamma_by_quadrature", "s", "s"),
    *(_span_metric(f"validation.{check}", "s", "s") for check in _VALIDATION_CHECKS),
    _span_metric("figures.run_figure", "s", "s"),
    ("cli.self_s", "s", "lower", "cli.main", "self_s"),
    ("cli.csv_bytes", "bytes", "lower", None, "csv_bytes"),
    ("trace.overhead_s", "s", "lower", None, "overhead_s"),
)


def layer_metrics(jobs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass over a workload's jobs.

    Returns the metric values and the names of metrics whose span target the
    package no longer has.  trace.overhead_s is left to the caller, which
    also holds the untraced pass.
    """
    calls, total, own = Counter(), Counter(), Counter()
    counters: Counter = Counter()
    found = set()
    for job in jobs:
        spans = job.get("spans", [])
        child = [0] * len(spans)
        for _name, start, end, parent, _job in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _job) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        for key, value in job.get("counters", {}).items():
            counters[key] = max(counters[key], value) if key.endswith("_max") else counters[key] + value
        found.update(job.get("found", []))
    values, missing = {}, []
    for name, _unit, _better, target, stat in LAYER_METRICS:
        if stat == "overhead_s":
            continue
        if target is not None and target not in found:
            missing.append(name)
        elif stat == "calls":
            values[name] = calls[target]
        elif stat == "s":
            values[name] = total[target] / 1e9
        elif stat == "self_s":
            values[name] = own[target] / 1e9
        elif stat == "hit_ratio":
            values[name] = counters[f"{target}.hits"] / calls[target] if calls[target] else 0.0
        else:
            values[name] = counters[name]
    return values, missing

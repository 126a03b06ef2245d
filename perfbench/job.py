"""Run one phasediff CLI job in this fresh process and record its cost.

    python3 -I job.py SPEC_JSON

SPEC_JSON holds `src` (the directory that contains the phasediff package),
`argv` (the CLI arguments, or null to only import), `trace`, `job_id`,
`cutoff_points` and `result` (where to write the record as JSON).  The job
imports `phasediff.cli` and calls `main(argv)`, exactly as the `phasediff`
command does; everything else it records is read after `main` returns.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
import traceback


def _call_main(main, argv) -> int:
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        rc = 1
    return 0 if rc is None else int(rc)


def _cutoffs(points: dict) -> list[int] | None:
    """Fock cutoff each dissipative-oscillator point used, from the public
    default_dissipative_cutoff(mixture_params(...)); None if this version of
    the package does not offer them."""
    try:
        import numpy as np
        from phasediff import cli, figures
        from phasediff import dissipative_oscillator as osc

        if points["registry"] == "figure":
            params = dict(figures.SCENARIOS[points["name"]].defaults)
            xs = [None]
        else:
            params = {**cli.SWEEP_FAMILIES[points["name"]][1], **points["set"]}
            xs = np.linspace(points["start"], points["stop"], points["num"])
        out = []
        for x in xs:
            p = dict(params) if x is None else {**params, points["param"]: float(x)}
            spec = osc.oscillator_spec(p["omega"], p["gamma0"], p["r"], p["Phi"], p["T"])
            eta0 = math.sqrt(p["eta0_sq"])
            out.append(osc.default_dissipative_cutoff(osc.mixture_params(spec, p["t"], eta0), eta0))
        return out
    except (AttributeError, KeyError, TypeError, ValueError, ImportError):
        return None


def _cache(squeeze) -> dict | None:
    info = getattr(squeeze, "cache_info", None)
    if info is None:
        return None
    info = info()
    return {"hits": info.hits, "misses": info.misses}


def _machine() -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import phasediff.cli as cli

    record = {"import_s": time.perf_counter() - start}
    argv = spec.get("argv")
    if argv is None:
        record["machine"] = _machine()
    else:
        from phasediff import special_functions

        squeeze = getattr(special_functions, "squeeze_matrix", None)
        tracer = None
        if spec.get("trace"):
            sys.path.append(os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer, install

            tracer = Tracer(spec["job_id"])
            install(tracer)  # rebinds cli.main among the rest
        start = time.perf_counter()
        rc = _call_main(cli.main, list(argv))
        record["run_s"] = time.perf_counter() - start
        record["rc"] = rc
        record["cache"] = _cache(squeeze)
        if spec.get("cutoff_points"):
            record["cutoffs"] = _cutoffs(spec["cutoff_points"])
        out = spec.get("out")
        counters = {"cli.csv_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0}
        if tracer is not None:
            counters.update(tracer.counters)
            record.update(spans=tracer.records(), found=tracer.found, missing=tracer.missing)
        record["counters"] = counters
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def main() -> int:
    spec = json.loads(sys.argv[1])
    record = run(spec)
    sys.stdout.flush()
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

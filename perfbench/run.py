"""Cold-process benchmark of the phasediff command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Each job is a fresh Python process that imports `phasediff.cli` from this
checkout's `src/` and calls `main(argv)`, exactly as the `phasediff` command
does, so every run pays the cold squeeze-matrix cache a CLI user pays.  Jobs
run one at a time from this driver: a closed loop with one client.  Each
job's BLAS is limited to one thread, within the machine's core count, so a
job never competes with its own BLAS threads for the cores.

A run first imports the package a few times (set-up), then repeats passes
over the workload's jobs while the next pass still fits in --seconds (at
least one).  With --trace 1 every round is one untraced and one traced pass.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with tracing
off, the per-layer metrics with it on.  `--workload all` runs every workload
and prints each one's metrics.  `--out FILE` also writes the full report
(machine, per-job timings, cache and cutoff accounting, gate results).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
BLAS_THREADS = "1"
SETUP_PROBES = 3  # timed imports per run, after one untimed warm-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s; jobs past this are killed


@dataclass
class Outcome:
    """One job run: what the job process recorded and the gate's verdict."""

    job: Job
    traced: bool
    record: dict
    verdict: gate.Verdict

    @property
    def failed(self) -> bool:
        return not self.verdict.ok


class Runner:
    """Runs jobs as fresh processes in a scratch directory of the checkout."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
                    "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
        self._references: dict[str, str] = {}
        self._count = 0

    def spawn(self, spec: dict) -> tuple[dict, int, str]:
        self._count += 1
        result = self.work / f"job{self._count}.json"
        spec = {**spec, "src": str(SRC), "job_id": str(self._count), "result": str(result)}
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "job.py"), json.dumps(spec)],
                cwd=self.work, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
            rc, stdout = proc.returncode, proc.stdout
            if rc != 0:
                sys.stderr.write(proc.stderr[-2000:])
        except subprocess.TimeoutExpired:
            rc, stdout = -1, ""
            print(f"job {spec.get('argv')} killed after {timeout:.0f} s", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if not result.exists():
            return {"run_s": elapsed, "rc": rc or 1}, rc or 1, stdout
        record = json.loads(result.read_text())
        result.unlink()
        return record, rc, stdout

    def probe(self) -> dict:
        """Import the package in a fresh process; no CLI call."""
        record, _rc, _out = self.spawn({"argv": None})
        return record

    def run(self, job: Job, traced: bool) -> Outcome:
        out = self.work / job.out if job.out else None
        if out is not None and out.exists():
            out.unlink()
        record, rc, stdout = self.spawn({"argv": list(job.argv), "trace": traced,
                                          "out": job.out, "cutoff_points": job.cutoff_points})
        csv_text = out.read_text() if out is not None and out.exists() else None
        verdict = gate.judge(job.kind, record.get("rc", rc), stdout, csv_text,
                             self.reference(job.reference) if job.reference else None)
        if not verdict.ok:
            print(f"FAILED {job.name}: {verdict.reason}", file=sys.stderr)
        return Outcome(job, traced, record, verdict)

    def reference(self, name: str) -> str:
        if name not in self._references:
            self._references[name] = gate.read_reference(REFERENCE, name)
        return self._references[name]


def measure(runner: Runner, jobs: list[Job], seconds: float, trace: bool) -> list[list[Outcome]]:
    """Passes over the jobs, in order, while the next round still fits."""
    passes: list[list[Outcome]] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            passes.append([runner.run(job, traced) for job in jobs])
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return passes


def _median_wall(passes: list[list[Outcome]]) -> float:
    """Sum over jobs of each job's median run time across the passes."""
    return sum(statistics.median(p[i].record["run_s"] for p in passes)
               for i in range(len(passes[0])))


def summarize(probes: list[dict], passes: list[list[Outcome]], trace: bool) -> dict:
    """Metrics and report of one workload run."""
    plain = [p for p in passes if not p[0].traced]
    traced = [p for p in passes if p[0].traced]
    outcomes = [o for p in passes for o in p]
    imports = [r["import_s"] for r in probes + [o.record for o in outcomes] if "import_s" in r]
    wall_s = _median_wall(plain)
    failed = sum(o.failed for o in outcomes)
    deviations = [o.verdict.deviation for o in outcomes if o.verdict.deviation is not None]
    report = {
        "wall_s": wall_s,
        "setup_s": statistics.median(imports),
        "setup_samples": len(imports),
        "peak_rss_mb": max(o.record.get("maxrss_mb", 0.0) for p in plain for o in p),
        "attempted": len(outcomes),
        "failed": failed,
        "failed_ratio": failed / len(outcomes),
        "max_deviation": max(deviations) if deviations else None,
        "passes": len(plain),
        "jobs": [_job_report(i, plain) for i in range(len(plain[0]))],
    }
    points = sum(o.job.points for o in plain[0])
    if points:  # the sweep workloads
        report["points_per_s"] = points / wall_s
    if trace:
        layers = [tracing.layer_metrics([o.record for o in p]) for p in traced]
        values = {name: statistics.median(v[0][name] for v in layers) for name in layers[0][0]}
        values["trace.overhead_s"] = _median_wall(traced) - wall_s
        report["layers"] = values
        report["missing_layers"] = layers[0][1]
    return report


def _job_report(i: int, passes: list[list[Outcome]]) -> dict:
    first = passes[0][i]
    record = first.record
    return {
        "name": first.job.name,
        "argv": list(first.job.argv),
        "grid": first.job.grid,
        "points": first.job.points,
        "run_s": [p[i].record["run_s"] for p in passes],
        "import_s": [p[i].record.get("import_s") for p in passes],
        "maxrss_mb": record.get("maxrss_mb"),
        "squeeze_cache": record.get("cache"),
        "cutoffs": record.get("cutoffs"),
        "csv_bytes": record.get("counters", {}).get("cli.csv_bytes"),
        "deviation": first.verdict.deviation,
        "failed": sum(p[i].failed for p in passes),
    }


END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def result_metrics(report: dict, trace: bool) -> dict:
    if trace:
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        return {name: {"value": value, "unit": units[name]}
                for name, value in report["layers"].items()}
    return {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}


def machine(probe: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **probe.get("machine", {}),
            "blas_threads": BLAS_THREADS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    runner = Runner(work, time.monotonic())
    runner.probe()  # untimed: compiles the package's bytecode in a fresh checkout
    probes = [runner.probe() for _ in range(SETUP_PROBES)]
    passes = measure(runner, WORKLOADS[name](seed), seconds, trace)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine(probes[0]), **summarize(probes, passes, trace)}


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['passes']} passes, "
          f"{report['attempted']} jobs, {report['failed']} failed)")
    print(f"   machine: {json.dumps(report['machine'])}")
    for name, unit in END_TO_END + (("points_per_s", "1/s"), ("failed_ratio", "ratio")):
        if name in report:
            print(f"   {name:<14} {report[name]:.6g} {unit}")
    print(f"   max_deviation  {report['max_deviation']} (bound {gate.TOLERANCE:g})")
    for job in report["jobs"]:
        cache = job["squeeze_cache"] or {}
        print(f"   job {job['name']:<13} run_s {statistics.median(job['run_s']):8.4f}"
              f"  cache hits {cache.get('hits')} misses {cache.get('misses')}"
              + (f"  cutoffs {job['cutoffs']}" if job["cutoffs"] else ""))
    if "layers" in report:
        for name, value in report["layers"].items():
            print(f"   {name:<58} {value:.6g}")
        if report["missing_layers"]:
            print(f"   missing: {', '.join(report['missing_layers'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report as JSON to this file")
    args = parser.parse_args(argv)
    if not (SRC / "phasediff" / "cli.py").is_file():
        print(f"error: no phasediff package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), work)
                   for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for report in reports:
        print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=1) + "\n")
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for name, metric in result_metrics(report, bool(args.trace)).items():
            metrics[prefix + name] = metric
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

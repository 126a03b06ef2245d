"""Self-test of the benchmark's comparator, failure counting and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import gate
import run
import tracing
from workloads import WORKLOADS, Job

sys.path.insert(0, str(run.SRC))


def _perturb_first_value(text: str, delta: float) -> str:
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line and not line.startswith("#")) + 1
    cells = lines[i].split(",")
    cells[1] = f"{float(cells[1]) + delta:.17g}"
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_reference_matches_itself():
    ref = gate.read_reference(run.REFERENCE, "fig6")
    verdict = gate.judge("dispersion", 0, "", ref, ref)
    assert verdict.ok and verdict.deviation == 0.0


def test_csv_perturbed_by_1e_11_fails():
    ref = gate.read_reference(run.REFERENCE, "fig6")
    verdict = gate.judge("dispersion", 0, "", _perturb_first_value(ref, 1e-11), ref)
    assert not verdict.ok
    assert 5e-12 < verdict.deviation < 2e-11


def test_dispersion_outside_unit_interval_fails():
    text = "# x\nr,D\n0,0.5\n1,1.5\n"
    assert not gate.judge("dispersion", 0, "", text, None).ok
    assert not gate.judge("curve", 0, "", "r,D\n0,nan\n", None).ok


def test_unnormalized_distribution_fails():
    n = 16
    flat = "".join(f"{k},{1 / (2 * 3.141592653589793)}\n" for k in range(n))
    assert gate.judge("distribution", 0, "", "phi,P\n" + flat, None).ok
    assert not gate.judge("distribution", 0, "", "phi,P\n" + flat.replace(",0.1", ",0.2"), None).ok


def test_validate_needs_full_pass_count():
    assert gate.judge("validate", 0, "PASS x\n10/10 checks passed\n", None, None).ok
    assert not gate.judge("validate", 0, "FAIL x\n9/10 checks passed\n", None, None).ok
    assert not gate.judge("validate", 0, "", None, None).ok
    assert not gate.judge("validate", 1, "10/10 checks passed\n", None, None).ok


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic())


def test_nonzero_exit_raises_failed_ratio(runner):
    good = Job("fig3", ("figure", "fig3", "--out", "fig3.csv"), "curve", "fig3")
    bad = Job("bad", ("figure", "no-such-figure", "--out", "bad.csv"), "curve")
    passes = [[runner.run(good, False), runner.run(bad, False)]]
    assert [o.record["rc"] for o in passes[0]] == [0, 2]
    report = run.summarize([], passes, trace=False)
    assert report["failed"] == 1
    assert report["failed_ratio"] == 0.5
    assert report["max_deviation"] == 0.0


def test_traced_job_records_spans(runner):
    job = WORKLOADS["closed-form-sweeps"](0)[0]  # fig1
    outcome = runner.run(job, True)
    assert outcome.verdict.ok
    values, missing = tracing.layer_metrics([outcome.record])
    assert missing == []
    assert values["distribution.distribution_from_fourier.calls"] == 5
    assert values["special_functions.squeeze_matrix.calls"] == 0
    assert values["cli.self_s"] > 0
    names = {span[0] for span in outcome.record["spans"]}
    assert "figures.run_figure" in names and "qnd_phase.qnd_evolve" in names


def test_removed_function_is_reported_missing(monkeypatch):
    import phasediff.cli  # noqa: F401  (loads every module the CLI binds)
    import phasediff.oracle

    monkeypatch.delattr(phasediff.oracle, "dormand_prince")
    tracer = tracing.Tracer("t")
    install_modules = [m for m in sys.modules if m.startswith("phasediff")]
    saved = {m: dict(vars(sys.modules[m])) for m in install_modules}
    try:
        tracing.install(tracer)
    finally:
        for m, attrs in saved.items():
            vars(sys.modules[m]).update(attrs)
    assert tracer.missing == ["oracle.dormand_prince"]
    _values, missing = tracing.layer_metrics([{"found": tracer.found}])
    assert missing == ["oracle.dormand_prince.calls", "oracle.dormand_prince.s",
                       "oracle.dormand_prince.rhs_evals"]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS
    ]

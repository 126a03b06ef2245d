"""The benchmark's output rule in the tier-1 suite: each seed-0 job of the
CSV workloads in perfbench/workloads.py runs in this process, and
perfbench/gate.judge holds its CSV to the stored reference (1e-12 absolute
in every number).  Each job prints its largest deviation from the reference.
perfbench/ is only read."""

import sys
from pathlib import Path

import pytest

from phasediff.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

JOBS = [job for name, jobs in WORKLOADS.items() if name != "validate"
        for job in jobs(DEFAULT_SEED)]


def test_every_seed_zero_csv_job_has_a_reference():
    assert len(JOBS) == 15
    assert all(job.reference and job.out for job in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.name)
def test_seed_zero_job_matches_its_reference(job, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(list(job.argv))
    stdout = capsys.readouterr().out
    out = tmp_path / job.out
    csv_text = out.read_text() if out.exists() else None
    reference = gate.read_reference(PERFBENCH / "reference", job.reference)
    verdict = gate.judge(job.kind, rc, stdout, csv_text, reference)
    with capsys.disabled():
        print(f"\n{job.name}: largest deviation from reference {verdict.deviation}")
    assert verdict.ok, verdict.reason

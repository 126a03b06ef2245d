"""Capture the reference CSVs that the output gate compares against.

    python3 perfbench/capture_reference.py

Runs every default-seed job that names a reference and stores its CSV,
gzip-compressed, under perfbench/reference/.  The stored files describe the
commit they were captured at; a later change must match them, not replace
them, unless it is meant to change the numbers.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import time

import gate
from run import HERE, REFERENCE, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    work = HERE / "_work" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        runner = Runner(work, time.monotonic())
        for make in WORKLOADS.values():
            for job in make(DEFAULT_SEED):
                if job.reference is None:
                    continue
                record, _rc, _out = runner.spawn({"argv": list(job.argv), "out": job.out})
                text = (work / job.out).read_text()
                problem = gate.check_values(job.kind, *gate.parse_csv(text))
                if record.get("rc") != 0 or problem:
                    print(f"error: {job.name}: rc {record.get('rc')} {problem}", file=sys.stderr)
                    return 1
                with open(REFERENCE / f"{job.reference}.csv.gz", "wb") as raw:
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                        fh.write(text.encode())
                print(f"captured {job.reference}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

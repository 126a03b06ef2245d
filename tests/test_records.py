"""The package's records are immutable tuples: no field or new attribute can
be assigned, and a copy rebuilds an equal record."""

import copy

import numpy as np
import pytest

from phasediff.bath_kernels import DissipativeBathSpec, QndBathSpec
from phasediff.dissipative_oscillator import GscsMixture
from phasediff.figures import FigureData, Scenario
from phasediff.qnd_phase import AtomicCoherentParams, AtomicSqueezedParams
from phasediff.validation import CheckResult

RECORDS = {
    "QndBathSpec": lambda: QndBathSpec(0.025, 100.0, r=0.5, a=0.1, T=2.0),
    "DissipativeBathSpec": lambda: DissipativeBathSpec(1.0, 0.25, 1.0, 0.3, 2.0),
    "GscsMixture": lambda: GscsMixture(0.1, 1.0 + 0.5j, 0.5j),
    "AtomicCoherentParams": lambda: AtomicCoherentParams(1.0, 0.4),
    "AtomicSqueezedParams": lambda: AtomicSqueezedParams(5, 5, -0.3),
    "FigureData": lambda: FigureData("fig0", "t", np.zeros(2), (("D", np.ones(2)),), {"t": 1.0}),
    "Scenario": lambda: Scenario("a scenario", {"t": 1.0}, lambda p, grid: None),
    "CheckResult": lambda: CheckResult("a check", 1e-8, 1e-9),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_a_copied_record_is_equal(name):
    record = RECORDS[name]()
    copied = copy.copy(record)
    assert type(copied) is type(record)
    assert copied == record


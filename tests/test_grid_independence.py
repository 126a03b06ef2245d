"""Dispersion does not depend on the angular grid.

A dispersion sweep reads the Fourier coefficients c_0 and c_{+-1} of each
P(phi), never its samples, so `--grid` must not change what it writes or
why it fails.  A point may fail only for its Fock budget, and then the error
names `--cutoff`.  Points are drawn over the range the CLI accepts: r <= 2,
r1 <= 3, alpha^2 and eta0^2 up to 200, T up to 1000, t up to 10 and, for
the dephasing bath, omega_c from 0.01 to 1000.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from phasediff.cli import main

BATH = {"r": st.floats(-2.0, 2.0), "T": st.floats(0.0, 1000.0)}
QND_BATH = {**BATH, "omega_c": st.floats(0.01, 1000.0)}
FAMILIES = {
    "qnd-qubit": QND_BATH,
    "dissipative-qubit": BATH,
    "qnd-oscillator": {**QND_BATH, "r1": st.floats(0.0, 3.0),
                       "alpha_sq": st.floats(0.0, 200.0)},
    "dissipative-oscillator": {**BATH, "eta0_sq": st.floats(0.0, 200.0)},
}
TIMES = st.floats(0.0, 10.0)
# a cold bath keeps P narrow, so its harmonics reach past N = 8: the point
# every family also runs besides its random draws
COLD = {"r": 0.0, "T": 0.0, "omega_c": 100.0, "r1": 0.5, "alpha_sq": 5.0, "eta0_sq": 50.0}


def _dispersion_sweep(tmp_path, family, sets, start, stop, grid, capsys):
    out = tmp_path / f"d-{grid}.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["sweep", "--family", family, "--param", "t", "--start", repr(start),
                 "--stop", repr(stop), "--num", "2", "--grid", grid, "--out", str(out),
                 *(f"--set={key}={value!r}" for key, value in sets.items())])
    written = out.read_bytes() if out.exists() else None
    return code, written, capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dispersion_sweep_is_the_same_on_every_grid(tmp_path, capsys, family):
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sets=st.fixed_dictionaries(FAMILIES[family]), start=TIMES, stop=TIMES)
    @example(sets={key: COLD[key] for key in FAMILIES[family]}, start=0.1, stop=1.0)
    def check(sets, start, stop):
        coarse = _dispersion_sweep(tmp_path, family, sets, start, stop, "8", capsys)
        fine = _dispersion_sweep(tmp_path, family, sets, start, stop, "720", capsys)
        assert coarse == fine
        code, written, err = fine
        # the one refusal inside the drawn range is a Fock budget, and it
        # names the setting that raises it
        assert code == 0 or (code == 1 and "--cutoff" in err), err
        if code == 0:
            rows = [l for l in written.decode().splitlines() if not l.startswith("#")][1:]
            for row in rows:
                d = float(row.split(",")[1])
                assert -1e-12 <= d <= 1.0 + 1e-12  # also rejects NaN

    check()

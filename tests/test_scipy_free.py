"""The package runs on numpy alone.  Each numpy or standard-library
replacement is checked here against the scipy routine it replaced; scipy is
imported only by tests."""

import cmath
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, quad_vec, solve_ivp
from scipy.linalg import expm
from scipy.special import betaln, gammaln

from phasediff import oracle
from phasediff.bath_kernels import QndBathSpec
from phasediff.dissipative_oscillator import oscillator_spec
from phasediff.distribution import phase_grid
from phasediff.qnd_phase import AtomicSqueezedParams, atomic_squeezed_density, qnd_evolve
from phasediff.special_functions import beta_integral, log_binomial, log_factorial
from phasediff.validation import _squeeze_exponential

SRC = Path(__file__).resolve().parents[1] / "src"


def test_log_factorial_matches_gammaln():
    # every Fock level the CLI's cutoffs reach
    n = np.arange(1301)
    ours = np.array([log_factorial(int(k)) for k in n])
    np.testing.assert_allclose(ours, gammaln(n + 1.0), rtol=1e-13, atol=0.0)


def test_beta_integral_matches_betaln():
    # the arguments of the dipole weights for every spin j <= 50
    ours, ref = [], []
    for tj in range(1, 101):
        for s in range(2 * tj + 1):
            a, b = s / 2.0 + 1.0, tj - s / 2.0 + 1.0
            ours.append(beta_integral(a, b))
            ref.append(math.exp(betaln(a, b)))
    np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=0.0)


def test_replacements_at_least_as_accurate_as_scipy():
    # errors against 40-digit values: ln(n!) in ulp, B(a, b) relative
    mpmath.mp.dps = 40
    exact = [mpmath.log(mpmath.factorial(n)) for n in range(1301)]
    ulp = [math.ulp(float(e)) if e else 1.0 for e in exact]
    ours = [float(abs(log_factorial(n) - e)) / u for n, (e, u) in enumerate(zip(exact, ulp))]
    ref = [float(abs(float(gammaln(n + 1.0)) - e)) / u for n, (e, u) in enumerate(zip(exact, ulp))]
    assert max(ours[:171]) <= 0.5  # correctly rounded while n! fits a float
    assert max(ours) <= max(ref)
    args = [(s / 2.0 + 1.0, tj - s / 2.0 + 1.0) for tj in (1, 10, 41, 100) for s in range(2 * tj + 1)]
    exact = [mpmath.beta(a, b) for a, b in args]
    ours = max(abs(beta_integral(a, b) / e - 1) for (a, b), e in zip(args, exact))
    ref = max(abs(math.exp(betaln(a, b)) / e - 1) for (a, b), e in zip(args, exact))
    assert ours <= ref


def _kernel_integrand(t, spec):
    # the defining frequency integrand of gamma(t), as written
    ch, sh, a, wc = math.cosh(spec.r), math.sinh(spec.r), spec.a, spec.omega_c

    def f(w):
        bracket = ch * (cmath.exp(1j * w * t) - 1.0)
        bracket += sh * (cmath.exp(-1j * w * t) - 1.0) * cmath.exp(2j * a * w)
        coth = 1.0 if spec.T == 0 else 2.0 * spec.T / w
        return spec.gamma0 / (2.0 * math.pi) * coth / w * math.exp(-w / wc) * abs(bracket) ** 2

    return f


def test_gamma_by_quadrature_matches_scipy_quad():
    for T in (0.0, 100.0):
        for r, a in ((0.0, 0.0), (1.0, 0.05)):
            spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=r, a=a, T=T)
            for t in (0.2, 1.0):
                ref, _err = quad(
                    _kernel_integrand(t, spec), 0.0, math.inf,
                    limit=20000, epsabs=0.0, epsrel=1e-13,
                )
                assert abs(oracle.gamma_by_quadrature(t, spec) - ref) <= 1e-12 * ref


def _quad_vec_reference(rho, grid):
    # the adaptive polar quadrature the Gauss-Legendre rule replaced
    phi = phase_grid(grid)
    tj = len(rho) - 1
    half_binom = np.array([math.exp(0.5 * log_binomial(tj, k)) for k in range(tj + 1)])
    k = np.arange(tj + 1)
    phase = np.exp(-1j * np.outer(k, phi))

    def integrand(theta):
        mags = half_binom * np.sin(theta / 2.0) ** k * np.cos(theta / 2.0) ** (tj - k)
        c = mags[:, None] * phase
        return math.sin(theta) * np.einsum("nm,nf,mf->f", rho, c.conj(), c).real

    integral, _err = quad_vec(integrand, 0.0, math.pi, epsabs=1e-12, epsrel=1e-11)
    return (tj + 1) / (4.0 * math.pi) * integral


@pytest.mark.parametrize("j", [5, 20])
def test_phase_dist_by_quadrature_matches_quad_vec(monkeypatch, cold_caches, j):
    rho0 = atomic_squeezed_density(AtomicSqueezedParams(j, j, -0.3))
    rho = qnd_evolve(rho0, 1.0, 0.1, 0.001, 0.005)
    ours = oracle.phase_dist_by_quadrature(rho, 90).samples(90)
    assert np.max(np.abs(ours - _quad_vec_reference(rho, 90))) <= 1e-12
    # the node count is converged: doubling it changes nothing beyond rounding
    nodes = oracle._gauss_legendre
    monkeypatch.setattr(oracle, "_gauss_legendre", lambda n: nodes(2 * n))
    doubled = oracle.phase_dist_by_quadrature(rho, 90).samples(90)
    assert np.max(np.abs(doubled - ours)) <= 1e-12


def test_exp_anti_hermitian_matches_expm(exp_anti_hermitian):
    # the hot-state oracle's displacement generator, and a dense random one
    lower = np.diag(np.sqrt(np.arange(1.0, 140.0)), 1)
    a = 2.0 + 1.5j
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    for gen in (a * lower.T - np.conj(a) * lower, 0.5 * (x - x.conj().T)):
        assert np.max(np.abs(exp_anti_hermitian(gen) - expm(gen))) <= 1e-13


@pytest.mark.parametrize("r1", [0.5, 1.5])
@pytest.mark.parametrize("phi", [0.0, 0.3, 0.7, -2.0])
@pytest.mark.parametrize("levels", [140, 250])
def test_squeeze_exponential_matches_expm(levels, phi, r1):
    # validate's squeeze exponential, from real eigensolves of the parity
    # blocks, against scipy's on the dense complex generator, all columns
    n = np.arange(levels - 2)
    ad2 = np.diag(np.sqrt((n + 1.0) * (n + 2.0)), -2)  # a^dag^2
    zeta = r1 * complex(math.cos(phi), math.sin(phi))
    gen = 0.5 * (zeta.conjugate() * ad2.T - zeta * ad2)
    ours = _squeeze_exponential(levels, r1, phi, np.eye(levels))
    assert np.max(np.abs(ours - expm(gen))) <= 1e-13


def _dense_lindblad_rhs(spec, cutoff):
    # the oscillator master equation from dense truncated a and a^dag
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    ad = a.conj().T
    g0, big_n, big_m = spec.gamma0, spec.N, spec.M
    jumps = (
        ((big_n + 1) * g0, a, ad), (big_n * g0, ad, a),
        (big_m * g0, ad, ad), (big_m.conjugate() * g0, a, a),
    )

    def rhs(_t, y):
        rho = y.reshape(cutoff, cutoff)
        d = sum(w * (c1 @ rho @ c2 - 0.5 * (c2 @ c1 @ rho + rho @ c2 @ c1)) for w, c1, c2 in jumps)
        return d.ravel()

    return rhs


@pytest.mark.parametrize("cutoff", [12, 20])
@pytest.mark.parametrize("r, phi, temp, t", [(1.0, 0.7, 1.0, 0.5), (0.5, 0.3, 5.0, 0.4)])
def test_dormand_prince_matches_solve_ivp(cutoff, r, phi, temp, t):
    # the oracle's integrator at its own tolerances against scipy's DOP853
    spec = oscillator_spec(1.0, 0.25, r, phi, temp)
    rhs = _dense_lindblad_rhs(spec, cutoff)
    x = np.random.default_rng(3).normal(size=(cutoff, 2 * cutoff)).view(complex)
    rho = x @ x.conj().T
    rho0 = (rho / np.trace(rho)).ravel()
    ours = oracle.dormand_prince(rhs, rho0, 0.0, t, 1e-10, 1e-12)
    ref = solve_ivp(rhs, (0.0, t), rho0, method="DOP853", rtol=1e-12, atol=1e-14)
    assert ref.success
    assert np.max(np.abs(ours - ref.y[:, -1])) <= 1e-10


def test_cli_runs_without_scipy(tmp_path):
    # one fresh isolated interpreter: figure, sweep and the full validate suite
    script = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
from phasediff.cli import main
out = {str(tmp_path)!r}
rcs = [
    main(["figure", "fig5", "--out", out + "/fig5.csv"]),
    main(["sweep", "--family", "dissipative-oscillator", "--param", "r", "--start", "0.25",
          "--stop", "0.75", "--num", "3", "--out", out + "/sweep.csv"]),
    main(["validate"]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({{"rcs": rcs, "scipy": loaded}}))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"rcs": [0, 0, 0], "scipy": []}


def test_runs_import_only_what_they_use(tmp_path):
    # one fresh isolated interpreter: the records define no generated code, so
    # the import leaves dataclasses out; the command line is read without
    # argparse and its gettext and locale lookups; and no command loads
    # numpy.polynomial, not even the full validate, whose Gauss-Legendre nodes
    # come from an eigensolve
    script = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
from phasediff.cli import main
out = {str(tmp_path)!r}
watched = ("dataclasses", "argparse", "gettext", "locale", "numpy.polynomial")
loaded = [[m for m in watched if m in sys.modules]]
rcs = [
    main(["figure", "fig5", "--out", out + "/fig5.csv"]),
    main(["sweep", "--family", "dissipative-oscillator", "--param", "t", "--start", "0.1",
          "--stop", "2", "--num", "3", "--set", "r=0.9", "--out", out + "/sweep.csv"]),
]
loaded.append([m for m in watched if m in sys.modules])
rcs.append(main(["validate"]))
loaded.append([m for m in watched if m in sys.modules])
print(json.dumps({{"rcs": rcs, "loaded": loaded}}))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"rcs": [0, 0, 0], "loaded": [[], [], []]}

"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Values tagged [DERIVED] come from the independent oracles in
phasediff.oracle; [TRIVIAL] facts are asserted directly.  Failing criteria
are left red on purpose; the printed detail names the failing sub-check.
"""

import math

import numpy as np
import pytest

from phasediff.bath_kernels import QndBathSpec
from phasediff.dissipative_oscillator import (
    fock_density_from_gscs,
    mixture_params,
    oscillator_spec,
)
from phasediff.dissipative_qubit import (
    excited_population,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    propagate_qubit,
    qubit_spec,
)
from phasediff.distribution import distribution_from_samples, phase_grid, samples
from phasediff.figures import SCENARIOS, run_figure
from phasediff.oracle import (
    gamma_by_quadrature,
    integrate_lindblad_oscillator,
    integrate_lindblad_qubit,
    phase_dist_by_quadrature,
)
from phasediff.bath_kernels import gamma_qnd
from phasediff.phase_stats import dispersion, integrate_distribution
from phasediff.qnd_phase import (
    AtomicCoherentParams,
    AtomicSqueezedParams,
    atomic_coherent_density,
    atomic_squeezed_density,
    phase_dist_coherent_halfspin,
    phase_dist_osc_squeezed,
    phase_distribution_atomic,
    qnd_evolve,
)
from phasediff.special_functions import squeeze_matrix, wigner_d_half_pi
from paper_forms import squeezed_halfspin, two_atoms

GRID = 720


def _report(num, label, checks):
    ok = all(passed for _, passed, _ in checks)
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {label}")
    failing = [(name, detail) for name, passed, detail in checks if not passed]
    for name, detail in failing:
        print(f"    failing sub-check: {name}  ({detail})")
    assert ok, "; ".join(f"{n}: {d}" for n, d in failing)


def test_criterion_01_normalization_all_scenarios():
    checks = []
    for name in sorted(SCENARIOS):
        fd = run_figure(name)
        worst = 0.0
        for _label, p in fd.distributions:
            worst = max(worst, abs(integrate_distribution(p) - 1.0))
        # a dispersion figure keeps each run's c_{-1}, c_0, c_1 as a block row
        for row in () if fd.coefficients is None else fd.coefficients:
            worst = max(worst, abs(integrate_distribution(row) - 1.0))
        checks.append((name, worst <= 1e-8, f"worst normalization error {worst:.3e}"))
    _report(1, "all scenario distributions integrate to 1 within 1e-8", checks)


def test_criterion_02_kernel_oracle():
    checks = []
    for T in (0.0, 100.0):
        tag = f"T={T:g}"
        for r in (0.0, 1.0, 2.0):
            for a in (0.0, 0.05):
                spec = QndBathSpec(gamma0=0.025, omega_c=100.0, r=r, a=a, T=T)
                worst = 0.0
                for t in (0.2, 1.0, 5.0):
                    exact = gamma_qnd(t, spec)
                    quad = gamma_by_quadrature(t, spec)  # [DERIVED]
                    worst = max(worst, abs(exact - quad) / abs(exact))
                checks.append(
                    (f"{tag} r={r} a={a}", worst <= 1e-6, f"relative dev {worst:.3e}")
                )
    _report(2, "gamma kernel matches frequency quadrature within 1e-6", checks)


def test_criterion_03_qubit_oracle():
    rho0 = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)
    settings = [
        (0.0, 0.0, 0.25),    # includes the unsqueezed cold case
        (0.0, 300.0, 0.25),  # hot, unsqueezed (the coherent-start scenario)
        (2.0, 300.0, 0.25),  # hot, strongly squeezed
        (1.0, 0.0, 0.25),
        (0.5, 100.0, 0.0025),
    ]
    checks = []
    for r, temp, g0 in settings:
        spec = qubit_spec(1.0, g0, r, math.pi / 8, temp)
        worst = 0.0
        for t in (0.0, 0.3, 1.0, 5.0):
            closed = propagate_qubit(rho0, spec, t)
            oracle = integrate_lindblad_qubit(rho0, spec, t)  # [DERIVED]
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
        checks.append(
            (f"r={r} T={temp} gamma0={g0}", worst <= 1e-6, f"element dev {worst:.3e}")
        )
    _report(3, "qubit propagator matches master-equation integration", checks)


def test_criterion_04_oscillator_oracle():
    checks = []
    for r, temp, tag in ((1.0, 0.0, "squeezed cold"), (0.0, 1.0, "thermal")):
        spec = oscillator_spec(1.0, 0.025, r, 0.0, temp)
        cutoff, t = 40, 0.1
        rho0 = fock_density_from_gscs(
            mixture_params(spec, 0.0, 1.0), cutoff, trace_tol=1e-4
        )
        oracle = integrate_lindblad_oscillator(
            rho0, spec, t, cutoff, leakage_tol=1e-5
        )  # [DERIVED]
        closed = fock_density_from_gscs(
            mixture_params(spec, t, 1.0), cutoff, trace_tol=1e-4
        )
        dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(closed - oracle))))
        checks.append((tag, dist <= 1e-4, f"trace distance {dist:.3e}"))
    _report(4, "oscillator mixture matches master-equation integration", checks)


def test_criterion_05_reduction_identities():
    checks = []
    t = 0.8
    state = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    free_spec = qubit_spec(1.0, 0.0, 0.0, 0.0, 0.0)
    a = samples(phase_dist_qubit_coherent(state, free_spec, t), GRID)
    b = samples(phase_dist_coherent_halfspin(state, 1.0, t, 0.0), GRID)
    dev = float(np.max(np.abs(a - b)))
    checks.append(("dissipative coherent -> free limit", dev <= 1e-12, f"dev {dev:.3e}"))
    worst = 0.0
    for p_sign in (0.5, -0.5):
        c = samples(phase_dist_qubit_squeezed(0.3, p_sign, free_spec, t), GRID)
        d = squeezed_halfspin(0.3, 2 * p_sign, 1.0, t, 0.0, phase_grid(GRID))
        worst = max(worst, float(np.max(np.abs(c - d))))
    checks.append(("dissipative squeezed -> free limit", worst <= 1e-12, f"dev {worst:.3e}"))
    e = samples(phase_dist_osc_squeezed(0.0, 0.7, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005), GRID)
    f = samples(phase_dist_osc_squeezed(0.0, 0.0, 2.0, 0.3, 1.0, 0.1, 0.001, 0.005), GRID)
    dev = float(np.max(np.abs(e - f)))
    checks.append(("squeezed oscillator -> coherent at r1=0", dev <= 1e-10, f"dev {dev:.3e}"))
    _report(5, "closed forms reduce to their special cases", checks)


def test_criterion_06_closed_forms_vs_machinery():
    checks = []
    omega, t, et, ga = 1.0, 0.4, 0.003, 0.01

    state = AtomicCoherentParams(math.pi / 3, 0.4)
    rho = qnd_evolve(atomic_coherent_density(state, 0.5), omega, t, 0.0, ga)
    dev = float(np.max(np.abs(
        samples(phase_distribution_atomic(rho), GRID)
        - samples(phase_dist_coherent_halfspin(state, omega, t, ga), GRID)
    )))
    checks.append(("half-spin coherent", dev <= 1e-10, f"dev {dev:.3e}"))

    worst = 0.0
    for p_sign in (0.5, -0.5):
        rho = qnd_evolve(
            atomic_squeezed_density(AtomicSqueezedParams(0.5, p_sign, 0.3)),
            omega, t, 0.0, ga,
        )
        worst = max(worst, float(np.max(np.abs(
            samples(phase_distribution_atomic(rho), GRID)
            - squeezed_halfspin(0.3, 2 * p_sign, omega, t, ga, phase_grid(GRID))
        ))))
    checks.append(("half-spin squeezed", worst <= 1e-10, f"dev {worst:.3e}"))

    worst = 0.0
    for p in (1, -1, 0):
        rho = qnd_evolve(
            atomic_squeezed_density(AtomicSqueezedParams(1, p, -0.2)), omega, t, et, ga
        )
        worst = max(worst, float(np.max(np.abs(
            samples(phase_distribution_atomic(rho), GRID)
            - two_atoms(-0.2, p, omega, t, et, ga, phase_grid(GRID))
        ))))
    checks.append(("two atoms, all p", worst <= 1e-10, f"dev {worst:.3e}"))

    # [DERIVED] polar quadrature adjudicates the Beta pipeline itself
    quad_grid = 90
    worst = 0.0
    for rho in (
        atomic_coherent_density(AtomicCoherentParams(1.1, 0.6), 0.5),
        qnd_evolve(
            atomic_squeezed_density(AtomicSqueezedParams(5, 5, -0.01832)),
            omega, 0.1, 0.001, 0.005,
        ),
    ):
        worst = max(worst, float(np.max(np.abs(
            samples(phase_distribution_atomic(rho), quad_grid)
            - samples(phase_dist_by_quadrature(rho, quad_grid), quad_grid)
        ))))
    checks.append(("Beta pipeline vs quadrature", worst <= 1e-8, f"dev {worst:.3e}"))
    _report(6, "closed forms match the general Beta machinery", checks)


def _peak_angle(p: np.ndarray) -> float:
    m = complex(np.sum(np.exp(1j * phase_grid(GRID)) * samples(p, GRID)) * (2.0 * math.pi / GRID))
    return math.atan2(m.imag, m.real)


def test_criterion_07_figure_shapes():
    checks = []

    fd1 = {label: p for label, p in run_figure("fig1").distributions}
    peak = {label: float(np.max(samples(p, GRID))) for label, p in fd1.items()}
    ordering = (
        peak["unitary t=0.1"] > peak["r=1 T=0 t=0.1"] > peak["r=2 T=0 t=0.1"]
        and peak["unitary t=0.1"] > peak["r=1 T=300 t=0.1"]
    )
    checks.append((
        "ten-atom amplitude ordering", ordering,
        " ".join(f"{k}:{v:.3f}" for k, v in peak.items()),
    ))
    shift = _peak_angle(fd1["r=1 T=0 t=1"]) - _peak_angle(fd1["r=1 T=0 t=0.1"])
    checks.append(("ten-atom peak shifts right with time", shift > 0.5, f"shift {shift:.3f}"))

    fd2 = {label: p for label, p in run_figure("fig2").distributions}
    spec2 = qubit_spec(1.0, 0.25, 2.0, math.pi / 8, 300.0)
    state2 = AtomicCoherentParams(math.pi / 4, math.pi / 4)
    hot_sq = samples(phase_dist_qubit_coherent(state2, spec2, 0.1), GRID)
    resist = float(np.max(hot_sq)) > float(np.max(samples(fd2["T=300 r=0 t=0.1"], GRID)))
    checks.append(("qubit squeezing resists thermal diffusion", resist, "peak comparison"))

    fd3 = run_figure("fig3")
    cols = dict(fd3.columns)
    cold = cols["T=0 gamma0=0.025 r=0"]
    checks.append((
        "cold population decays monotonically below 0.01",
        bool(np.all(np.diff(cold) < 1e-12) and cold[-1] < 0.01),
        f"final {cold[-1]:.4f}",
    ))
    spec_hot = qubit_spec(1.0, 0.0025, 0.0, 0.0, 100.0)
    n = spec_hot.N
    target = n / (2.0 * n + 1.0)
    hot_final = cols["T=100 gamma0=0.0025 r=0"][-1]
    checks.append((
        "hot population approaches N/(2N+1)",
        abs(hot_final - target) < 0.01,
        f"final {hot_final:.4f} target {target:.4f}",
    ))

    fd4 = {label: p for label, p in run_figure("fig4").distributions}
    ok4 = True
    # p = +1/2 peaks at phi = 0, p = -1/2 at phi = pi; at phi = 0 the latter
    # sits in its trough, so "less diffusion" flips from higher to lower there
    for tag, sgn in (("p=+1/2", 1.0), ("p=-1/2", -1.0)):
        at0 = {key: sgn * samples(fd4[f"{tag} {key}"], GRID)[0] for key in (
            "T=0 r=0 t=0.1", "T=300 r=0 t=0.1", "T=300 r=0.5 t=0.1",
        )}
        # temperature diffuses the phase; bath squeezing resists it
        ok4 = ok4 and at0["T=0 r=0 t=0.1"] > at0["T=300 r=0 t=0.1"]
        ok4 = ok4 and at0["T=300 r=0.5 t=0.1"] > at0["T=300 r=0 t=0.1"]
    checks.append(("squeezed-qubit orderings at phi=0", ok4, "curve values at phi=0"))
    _report(7, "figure-shape properties reproduced", checks)


def test_criterion_08_dispersion_suite():
    checks = []
    uniform = distribution_from_samples(np.full(GRID, 1.0 / (2.0 * math.pi)))
    dev = abs(dispersion(uniform) - 1.0)
    checks.append(("uniform D = 1", dev <= 1e-12, f"dev {dev:.3e}"))
    cardioid = distribution_from_samples((1.0 + np.cos(phase_grid(GRID))) / (2.0 * math.pi))
    dev = abs(dispersion(cardioid) - 0.75)
    checks.append(("cardioid D = 3/4", dev <= 1e-10, f"dev {dev:.3e}"))

    fd6 = run_figure("fig6", grid=360)
    fd8 = run_figure("fig8", grid=360)
    for fd, name in ((fd6, "ten atoms"), (fd8, "oscillator")):
        cols = dict(fd.columns)
        for label in ("T=100", "T=1000"):
            d_ends = min(cols[label][0], cols[label][-1])
            checks.append((
                f"{name} {label} saturation at |r|=2",
                d_ends >= 0.95,
                f"D at |r|=2 is {d_ends:.4f}",
            ))
    unit = dict(fd8.columns)["unitary"]
    dev = float(np.max(np.abs(unit - unit[0])))
    checks.append(("unitary oscillator curve constant in r", dev <= 1e-12, f"dev {dev:.3e}"))

    fd9 = run_figure("fig9", grid=360)
    fd10 = run_figure("fig10", grid=360)
    asym = {}
    for fd, name in ((fd9, "dissipative"), (fd10, "dephasing")):
        col = dict(fd.columns)["T=100"]
        asym[name] = float(np.max(np.abs(col - col[::-1])))
    ratio = asym["dissipative"] / max(asym["dephasing"], 1e-300)
    checks.append((
        "dissipative r-asymmetry exceeds 10x the dephasing one",
        ratio > 10.0,
        f"ratio {ratio:.1f}",
    ))
    _report(8, "dispersion functional and sweep properties", checks)


def test_criterion_09_special_function_suite():
    checks = []
    worst = 0.0
    for twice_j in range(1, 21):
        ms = range(-twice_j, twice_j + 1, 2)
        d = np.array([[wigner_d_half_pi(twice_j, tn, tp) for tp in ms] for tn in ms])
        worst = max(worst, float(np.max(np.abs(d.T @ d - np.eye(len(ms))))))
    checks.append(("Wigner-d unitarity j <= 10", worst <= 1e-12, f"dev {worst:.3e}"))

    g12 = squeeze_matrix(12, 1.0, 0.4)
    parity_ok = all(
        g12[m, n] == 0.0
        for m in range(12)
        for n in range(12)
        if (m - n) % 2 == 1
    )
    checks.append(("odd-parity squeeze elements exactly zero", parity_ok, "exact zeros"))

    g = squeeze_matrix(60, 1.0, 0.4)[:, :11]
    residual = float(np.max(np.abs(g.conj().T @ g - np.eye(11))))
    # left red intentionally: a squeezed |10> at r1 = 1 keeps ~32% of its
    # weight above Fock level 60, so no correct implementation can reach
    # 1e-8 at this truncation (the matrix-exponential oracle gives the same
    # residual; 1e-8 is reached near truncation 200)
    checks.append((
        "squeeze-matrix unitarity residual at truncation 60",
        residual <= 1e-8,
        f"residual {residual:.3e}; see README and decision ledger",
    ))
    _report(9, "special-function oracles", checks)


def test_criterion_10_determinism(tmp_path):
    from phasediff.cli import main

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(["figure", "fig1", "--out", str(a)])
    code_b = main(["figure", "fig1", "--out", str(b)])
    identical = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    _report(10, "byte-identical CSV on repeated runs", [
        ("fig1 reproducibility", identical, "byte comparison"),
    ])

import math
import sys

import numpy as np
import pytest

from phasediff import qnd_phase
from phasediff.distribution import distribution_from_fourier
from phasediff.validation import _exp_anti_hermitian, _exp_by_parity, _squeeze_generator


def _hot_state_oracle(spec, eta0, t, cutoff, levels, columns):
    # [DERIVED] rho = (S D) diag(p) (S D)^dag on `cutoff` levels, with S(zeta)
    # and D(a) both exact exponentials on `levels` levels, a = eta0
    # e^{-gamma0 t / 2}, and the thermal weights p_n = beta^n / (1 + beta)^(n+1)
    # of the first `columns` levels; shares no recurrence with the closed form.
    # Returns rho and P(theta) = <theta|rho_S|theta> / 2pi, with rho_S the
    # Schroedinger-picture density matrix.
    beta = spec.N_th * -math.expm1(-spec.gamma0 * t)
    a = eta0 * math.exp(-spec.gamma0 * t / 2.0)
    lower = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    displace = _exp_anti_hermitian(a * lower.T - np.conj(a) * lower)[:, :columns]
    squeeze = _squeeze_generator(levels, spec.r, spec.Phi)
    u = _exp_by_parity(squeeze, displace)[:cutoff]
    p = beta ** np.arange(columns) / (1.0 + beta) ** np.arange(1, columns + 1)
    rho = (u * p) @ u.conj().T
    n = np.arange(cutoff, dtype=float)
    rho_s = rho * np.exp(-1j * spec.omega * t * (n[:, None] - n[None, :]))
    return rho, distribution_from_fourier(rho_s / (2.0 * math.pi))


@pytest.fixture
def hot_state_oracle():
    """The eigh oracle for the dissipative oscillator at T > 0:
    hot_state_oracle(spec, eta0, t, cutoff, levels, columns) -> (rho, P)."""
    return _hot_state_oracle


@pytest.fixture
def cold_caches():
    """Clears every lru_cache in the package, so a test counts its own builds."""
    for name, module in list(sys.modules.items()):
        if name.startswith("phasediff"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def gamma_free_builds(monkeypatch):
    """A list that grows by one entry per gamma-free coefficient build of a
    QND model: each build calls qnd_phase._gamma_free_phase once."""
    builds = []
    phase = qnd_phase._gamma_free_phase

    def counted(*args):
        builds.append(None)
        return phase(*args)

    monkeypatch.setattr(qnd_phase, "_gamma_free_phase", counted)
    return builds

"""Phase distributions and phase dispersion of open quantum systems.

Closed-form evolution of two-level atoms, N-atom Dicke systems and harmonic
oscillators coupled to squeezed thermal baths, through either a purely
dephasing (QND) or a dissipative (Lindblad) interaction, together with the
phase distributions, number distributions and phase dispersion of the
resulting states.  Every closed form is backed by an independent brute-force
oracle in :mod:`phasediff.oracle`.

Units: hbar = k_B = 1 throughout.
"""

__version__ = "0.1.0"

from .halfint import HalfInteger
from .distribution import PhaseDistribution, distribution_from_samples, phase_grid
from .bath_kernels import (
    QndBathSpec,
    ZeroTemperature,
    HighTemperature,
    DissipativeBathMoments,
    QUBIT_CONVENTION,
    OSCILLATOR_CONVENTION,
    eta,
    gamma_qnd,
    bath_moments,
)
from .qnd_phase import (
    AtomicCoherentParams,
    AtomicSqueezedParams,
    DickeDensityMatrix,
    qnd_evolve,
    atomic_coherent_density,
    atomic_squeezed_density,
    phase_distribution_atomic,
    phase_dist_coherent_halfspin,
    phase_dist_squeezed_halfspin,
    phase_dist_two_atoms,
    number_distribution,
    phase_dist_osc_coherent,
    phase_dist_osc_squeezed,
)
from .dissipative_qubit import (
    QubitLindbladSpec,
    qubit_spec,
    propagate_qubit,
    phase_dist_qubit_coherent,
    phase_dist_qubit_squeezed,
    excited_population,
)
from .dissipative_oscillator import (
    OscillatorLindbladSpec,
    GscsMixture,
    oscillator_spec,
    damping_coeffs,
    mixture_params,
    fock_density_from_gscs,
    phase_dist_osc_dissipative,
)
from .phase_stats import integrate_distribution, dispersion

"""Relativistic time dilation in generic quantum clocks.

Mean clock time, coherence-induced deviations from classical proper
time, precision loss and its recovery by momentum measurements, all
checked against a brute-force joint-evolution oracle.
"""

__version__ = "0.1.0"

from .constants import ATOMIC_MASS_UNIT, C_LIGHT, ELECTRON_MASS, G_STANDARD, HBAR
from .clocks import (
    ClockModel,
    IdealisedClock,
    build_qubit_phase,
    build_quasi_ideal,
    build_swp,
    error_trace,
    mean_clock_time_nr,
)
from .kinematics import CatState, GaussianState, MixtureState, moments, norm_factor, r_factor
from .dilation import classical_proper_time, mean_clock_time, sup_vs_mix, t_coh
from .precision import (sigma_breakdown, sigma_dispersion_exact, sigma_ideal_term,
                        sigma_nonideal_term, w_moments)
from .measurement import MomentumBinning, bin_probability, conditioned_sigma, sweep_conditioned
from .oracle import (
    JointState,
    VerificationReport,
    evolve_characteristics_g,
    verify_mean_time,
    verify_sigma,
)

__all__ = [
    "ATOMIC_MASS_UNIT", "C_LIGHT", "ELECTRON_MASS", "G_STANDARD", "HBAR",
    "ClockModel", "IdealisedClock", "build_qubit_phase", "build_quasi_ideal",
    "build_swp", "error_trace", "mean_clock_time_nr",
    "CatState", "GaussianState", "MixtureState", "moments", "norm_factor", "r_factor",
    "classical_proper_time", "mean_clock_time", "sup_vs_mix", "t_coh",
    "sigma_breakdown", "sigma_dispersion_exact", "sigma_ideal_term", "sigma_nonideal_term",
    "w_moments",
    "MomentumBinning", "bin_probability", "conditioned_sigma", "sweep_conditioned",
    "JointState", "VerificationReport", "evolve_characteristics_g",
    "verify_mean_time", "verify_sigma",
]

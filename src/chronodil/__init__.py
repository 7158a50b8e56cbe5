"""Relativistic time dilation in generic quantum clocks.

Mean clock time, coherence-induced deviations from classical proper
time, precision loss and its recovery by momentum measurements, all
checked against a brute-force joint-evolution oracle.

The exports are resolved on first access, so ``import chronodil`` loads
no module until one of its names is used.
"""

import importlib

__version__ = "0.1.0"

# exported name -> defining module
_EXPORTS = {
    **dict.fromkeys(["ATOMIC_MASS_UNIT", "C_LIGHT", "ELECTRON_MASS", "G_STANDARD", "HBAR"],
                    "constants"),
    **dict.fromkeys(["ClockModel", "IdealisedClock", "build_qubit_phase", "build_quasi_ideal",
                     "build_swp", "free_reading"], "clocks"),
    **dict.fromkeys(["CatState", "GaussianState", "moments", "norm_factor", "r_factor"],
                    "kinematics"),
    **dict.fromkeys(["classical_proper_time", "mean_clock_time", "t_coh"], "dilation"),
    **dict.fromkeys(["sigma_breakdown", "sigma_dispersion_exact", "sigma_ideal_term",
                     "w_moments"], "precision"),
    **dict.fromkeys(["MomentumBinning", "conditioned_sigma"], "measurement"),
    **dict.fromkeys(["JointState", "VerificationReport", "evolve_characteristics_g",
                     "verify_mean_time", "verify_sigma"], "oracle"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

"""Coarse-grained momentum measurement and conditional clock precision.

At g = 0 the joint Hamiltonian is block diagonal in momentum, so each
momentum component shifts the clock reading deterministically by
t * W(p). Conditioning an idealised clock with a Gaussian reading profile
on the outcome of a binned momentum measurement therefore leaves a
mixture of shifted Gaussians over the bin's momentum density:

    var(T | bin n) = sigma_T(0)^2 + t^2 var(W(p) | bin n).

The bin width delta_p sets how much motional information the measurement
recovers: delta_p -> 0 restores the free spread, delta_p -> infinity
recovers nothing. This reduction is validated against the explicit
joint-state oracle in the test suite before anything relies on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .kinematics import GaussianState
from .precision import w_of_p

_SUPPORT_SIGMAS = 12.0  # Gaussian mass beyond this is far below quadrature tolerance
_PROB_ABS_TOL = 1e-12


@dataclass(frozen=True)
class MomentumBinning:
    """Partition of the momentum line into bins of width delta_p, bin n
    covering [(n - 1/2) delta_p, (n + 1/2) delta_p)."""

    delta_p: float

    def __post_init__(self):
        if self.delta_p <= 0:
            raise ValueError(f"delta_p must be positive, got {self.delta_p}")

    def edges(self, n: int) -> tuple[float, float]:
        return ((n - 0.5) * self.delta_p, (n + 0.5) * self.delta_p)

    def coarseness(self, kstate: GaussianState) -> float:
        """q = delta_p / sigma_p."""
        return self.delta_p / kstate.sigma_p


@dataclass(frozen=True)
class ConditionedResult:
    bin_index: int
    probability: float
    sigma_t_given_n: float
    mean_t_given_n: float


def _momentum_density(kstate: GaussianState):
    sp = kstate.sigma_p
    p0 = kstate.p0
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * sp)

    def density(p):
        return norm * np.exp(-0.5 * ((p - p0) / sp) ** 2)

    return density


def _clip_to_support(kstate: GaussianState, lo: float, hi: float) -> tuple[float, float]:
    span = _SUPPORT_SIGMAS * kstate.sigma_p
    return max(lo, kstate.p0 - span), min(hi, kstate.p0 + span)


def bin_probability(kstate: GaussianState, binning: MomentumBinning, n: int) -> float:
    """Probability of finding the momentum inside bin n.

    The momentum distribution is time invariant at g = 0, so this is the
    Gaussian integral over the bin at any lab time.
    """
    lo, hi = binning.edges(n)
    sp = kstate.sigma_p
    a = (lo - kstate.p0) / (np.sqrt(2.0) * sp)
    b = (hi - kstate.p0) / (np.sqrt(2.0) * sp)
    return float(0.5 * (math.erf(b) - math.erf(a)))


def _conditional_w_moments(kstate: GaussianState, lo: float, hi: float,
                           c: float) -> tuple[float, float, float]:
    """(probability, E[W | bin], var(W | bin)) by adaptive quadrature."""
    from scipy.integrate import quad  # the only scipy use at run time

    lo_c, hi_c = _clip_to_support(kstate, lo, hi)
    if lo_c >= hi_c:
        return 0.0, 0.0, 0.0
    density = _momentum_density(kstate)
    mass = kstate.mass

    prob, _ = quad(density, lo_c, hi_c, epsabs=_PROB_ABS_TOL, epsrel=1e-12, limit=200)
    if prob < 1e-15:
        return prob, 0.0, 0.0
    w1, _ = quad(lambda p: w_of_p(p, mass, c) * density(p), lo_c, hi_c,
                 epsabs=0.0, epsrel=1e-12, limit=200)
    w2, _ = quad(lambda p: w_of_p(p, mass, c) ** 2 * density(p), lo_c, hi_c,
                 epsabs=0.0, epsrel=1e-12, limit=200)
    mean_w = w1 / prob
    var_w = max(w2 / prob - mean_w**2, 0.0)
    return prob, mean_w, var_w


def conditioned_sigma(sigma_t0: float, kstate: GaussianState, t: float,
                      binning: MomentumBinning, n: int, c: float = C_LIGHT) -> ConditionedResult:
    """Clock-time spread after finding the momentum in bin n (g = 0,
    idealised clock with a Gaussian reading profile of spread sigma_t0).

    Raises ValueError on an effectively empty bin (probability < 1e-15).
    """
    if sigma_t0 < 0:
        raise ValueError("sigma_t0 must be non-negative")
    lo, hi = binning.edges(n)
    prob, mean_w, var_w = _conditional_w_moments(kstate, lo, hi, c)
    if prob < 1e-15:
        raise ValueError(f"bin {n} carries no probability ({prob!r})")
    sigma = float(np.sqrt(sigma_t0**2 + t**2 * var_w))
    mean = float(t * (1.0 + mean_w))
    return ConditionedResult(bin_index=n, probability=prob,
                             sigma_t_given_n=sigma, mean_t_given_n=mean)


def unconditioned_sigma_exact(sigma_t0: float, kstate: GaussianState, t: float,
                              c: float = C_LIGHT) -> float:
    """Spread with no measurement at all: the single-bin limit."""
    wide = MomentumBinning(delta_p=4.0 * _SUPPORT_SIGMAS * kstate.sigma_p)
    center = round(kstate.p0 / wide.delta_p)
    return conditioned_sigma(sigma_t0, kstate, t, wide, center, c).sigma_t_given_n


def occupied_bins(kstate: GaussianState, binning: MomentumBinning,
                  floor: float = 1e-13) -> list[int]:
    """Bin indices whose probability exceeds ``floor`` (contiguous scan
    outward from the bin containing the mean momentum)."""
    center = int(np.floor(kstate.p0 / binning.delta_p + 0.5))
    half_span = int(np.ceil(_SUPPORT_SIGMAS * kstate.sigma_p / binning.delta_p)) + 1
    bins = []
    for n in range(center - half_span, center + half_span + 1):
        if bin_probability(kstate, binning, n) > floor:
            bins.append(n)
    return bins


def sweep_conditioned(sigma_t0: float, kstate: GaussianState, times, q_values,
                      bin_index: int = 0, c: float = C_LIGHT) -> list[dict]:
    """Conditional spreads over a (q, t) grid, CSV-ready.

    Each row carries the central-bin conditional spread plus the free and
    unconditioned baselines at the same lab time.
    """
    rows = []
    for t in times:
        unconditioned = unconditioned_sigma_exact(sigma_t0, kstate, t, c)
        for q in q_values:
            binning = MomentumBinning(delta_p=q * kstate.sigma_p)
            res = conditioned_sigma(sigma_t0, kstate, t, binning, bin_index, c)
            rows.append({
                "t": t,
                "q": q,
                "bin": bin_index,
                "probability": res.probability,
                "sigma_conditioned": res.sigma_t_given_n,
                "sigma_nr": sigma_t0,
                "sigma_unconditioned": unconditioned,
            })
    return rows

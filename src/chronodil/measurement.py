"""Coarse-grained momentum measurement and conditional clock precision.

At g = 0 the joint Hamiltonian is block diagonal in momentum, so each
momentum component shifts the clock reading deterministically by
t * W(p). Conditioning an ``IdealisedClock``, whose reading profile is a
Gaussian of spread sigma_t0, on the outcome of a binned momentum
measurement leaves a mixture of shifted Gaussians over the bin's density:

    var(T | bin n) = sigma_t0^2 + t^2 var(W(p) | bin n).

The bin width delta_p sets how much motional information the measurement
recovers: delta_p -> 0 restores the free spread, and an infinite delta_p,
whose bin 0 is the whole momentum line, recovers nothing: it gives the
unconditioned spread. This reduction is validated against the explicit
joint-state oracle in the test suite before anything relies on it.

The bin moments come from one fixed rule: 24-point Gauss-Legendre on
pieces of width at most sigma_p across the bin, clipped to p0 +- 12
sigma_p. W is taken about the bin centre pc in the factored form
(p - pc)(p + pc)(-1/(2 m^2 c^2) + 3 (p^2 + pc^2)/(8 m^4 c^4)), so a
narrow bin keeps its digits, and var(W | bin) is a two-pass central
moment, non-negative by construction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .clocks import IdealisedClock
from .constants import C_LIGHT
from .kinematics import GaussianState, check_light_speed
from .precision import w_of_p

_SUPPORT_SIGMAS = 12.0  # Gaussian mass beyond this is far below double precision


@dataclass(frozen=True)
class MomentumBinning:
    """Partition of the momentum line into bins of width delta_p, bin n
    covering [(n - 1/2) delta_p, (n + 1/2) delta_p). ``delta_p`` must be
    positive, and may be infinite: bin 0 is then the whole line, and the
    only bin; any other raises ValueError. A bin index must be an integer;
    anything else raises TypeError."""

    delta_p: float

    def __post_init__(self):
        if not self.delta_p > 0:
            raise ValueError(f"delta_p must be positive, got {self.delta_p}")

    def edges(self, n: int) -> tuple[float, float]:
        n = operator.index(n)
        if n != 0 and self.delta_p == math.inf:
            raise ValueError(f"only bin 0 exists at infinite width delta_p, got bin {n}")
        return ((n - 0.5) * self.delta_p, (n + 0.5) * self.delta_p)


@dataclass(frozen=True)
class ConditionedResult:
    """Bin probability, and the conditional spread and mean reading at each time."""

    probability: float
    sigma_t_given_n: float | np.ndarray
    mean_t_given_n: float | np.ndarray


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use, so that `import chronodil` does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(24)


def _bin_rule(kstate: GaussianState, lo: float, hi: float):
    """(momenta, weights, clipped lo, clipped hi) of the module's Gauss-Legendre
    rule on the bin [lo, hi); the weights carry the momentum density, so
    they sum to the bin's probability."""
    nodes, gl_weights = _legendre_rule()
    sp = kstate.sigma_p
    lo_c = max(lo, kstate.p0 - _SUPPORT_SIGMAS * sp)
    hi_c = max(lo_c, min(hi, kstate.p0 + _SUPPORT_SIGMAS * sp))  # a bin off the support has width 0
    edges = np.linspace(lo_c, hi_c, max(1, math.ceil((hi_c - lo_c) / sp)) + 1)
    half = np.diff(edges)[:, None] / 2.0
    p = ((edges[1:] + edges[:-1])[:, None] / 2.0 + half * nodes).ravel()
    weights = ((half * gl_weights).ravel() * np.exp(-0.5 * ((p - kstate.p0) / sp) ** 2)
               / (math.sqrt(2.0 * math.pi) * sp))
    return p, weights, lo_c, hi_c


def _conditional_w_moments(kstate: GaussianState, lo: float, hi: float,
                           c: float) -> tuple[float, float, float]:
    """(probability, E[W | bin], var(W | bin)) of the bin [lo, hi) by the
    module's Gauss-Legendre rule; ValueError if the probability is < 1e-15."""
    p, weights, lo_c, hi_c = _bin_rule(kstate, lo, hi)
    prob = float(np.sum(weights))
    if prob < 1e-15:
        raise ValueError(f"momentum bin [{lo}, {hi}) carries no probability ({prob})")
    pc = (lo_c + hi_c) / 2.0
    mc2 = (kstate.mass * c) ** 2
    dev = (p - pc) * (p + pc) * (-0.5 / mc2 + 3.0 * (p**2 + pc**2) / (8.0 * mc2**2))
    mean_dev = float(np.sum(weights * dev)) / prob
    var_w = float(np.sum(weights * (dev - mean_dev) ** 2)) / prob
    return prob, float(w_of_p(pc, kstate.mass, c)) + mean_dev, var_w


def conditioned_sigma(clock: IdealisedClock, kstate: GaussianState, t,
                      binning: MomentumBinning, n: int, c: float = C_LIGHT) -> ConditionedResult:
    """Clock-time spread of an idealised clock after finding the momentum in
    bin n (g = 0), at each time of ``t``.

    The momentum distribution is time invariant at g = 0, so the bin's
    probability and moments are computed once for all times. Raises
    ValueError on an effectively empty bin (probability < 1e-15) or a bad
    light speed, and TypeError on a clock other than an IdealisedClock (a
    matrix clock adds a cross term not derived here), a state other than a
    GaussianState or a bin index that is not an integer.
    """
    if not isinstance(clock, IdealisedClock):
        raise TypeError(f"conditioning needs an IdealisedClock, got {type(clock).__name__}")
    if not isinstance(kstate, GaussianState):
        raise TypeError(f"conditioning needs a GaussianState, got {type(kstate).__name__}")
    check_light_speed(c)
    prob, mean_w, var_w = _conditional_w_moments(kstate, *binning.edges(n), c)
    return ConditionedResult(probability=prob,
                             sigma_t_given_n=np.sqrt(clock.sigma_t0**2 + t * t * var_w),
                             mean_t_given_n=t * (1.0 + mean_w))

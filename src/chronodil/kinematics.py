"""Analytic motional states of the clock's centre of mass.

Three one-dimensional families are supported: a minimum-uncertainty
Gaussian wavepacket, a coherent superposition of two such packets
displaced in position (a cat state, with an optional relative phase),
and an incoherent weighted mixture of Gaussians.

Momentum-space wavefunction of a single packet with mean position x0,
shared mean momentum p, position spread sigma_x:

    psi(p) = (2 pi sigma_p^2)^(-1/4) exp(-((p - pbar) / (2 sigma_p))^2)
             * exp(-i x0 (p - pbar) / hbar),        sigma_p = hbar / (2 sigma_x).

All moments are closed-form. Cat-state moments carry the interference
cross terms, which reduce to Gaussian integrals with a complex-shifted
mean. The kinematic dilation factor

    R(t) = < -p^2/(2 m^2 c^2) + g x / c^2 + p g t / (m c^2) > - (g t / c)^2 / 3

is what multiplies the lowest-order relativistic correction to the mean
clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR


def _require_finite(state, names) -> None:
    for name in names:
        value = getattr(state, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GaussianState:
    """Minimum-uncertainty wavepacket: mean position (m), mean momentum
    (kg m/s), position spread (m) and mass (kg)."""

    x0: float
    p0: float
    sigma_x: float
    mass: float

    def __post_init__(self):
        _require_finite(self, ("x0", "p0", "sigma_x", "mass"))
        if self.sigma_x <= 0:
            raise ValueError(f"sigma_x must be positive, got {self.sigma_x}")
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def sigma_p(self) -> float:
        return HBAR / (2.0 * self.sigma_x)


@dataclass(frozen=True)
class CatState:
    """Two displaced copies of ``base`` in coherent superposition.

    The second packet sits at ``base.x0 + delta_x0`` (delta_x0 >= 0); both
    share the mean momentum ``base.p0``. ``alpha`` weights the lower packet
    and ``theta`` is the relative phase on the upper one.
    """

    base: GaussianState
    delta_x0: float
    alpha: float
    theta: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("delta_x0", "alpha", "theta"))
        if self.delta_x0 < 0:
            raise ValueError(f"delta_x0 must be >= 0, got {self.delta_x0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if norm_factor(self) <= 0:
            raise ValueError("state parameters give a non-positive norm factor")

    @property
    def mass(self) -> float:
        return self.base.mass

    @property
    def sigma_x(self) -> float:
        return self.base.sigma_x

    @property
    def sigma_p(self) -> float:
        return self.base.sigma_p

    @property
    def upper(self) -> GaussianState:
        """The packet displaced by ``delta_x0``; ``base`` is the lower one."""
        g = self.base
        return GaussianState(g.x0 + self.delta_x0, g.p0, g.sigma_x, g.mass)


@dataclass(frozen=True)
class MixtureState:
    """Incoherent mixture: tuple of (weight, GaussianState) pairs, all of
    the same mass."""

    components: tuple

    def __post_init__(self):
        weights = [w for w, _ in self.components]
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {sum(weights)}")
        masses = {state.mass for _, state in self.components}
        if len(masses) > 1:
            raise ValueError(f"mixture components must share one mass, got {sorted(masses)}")

    @property
    def mass(self) -> float:
        return self.components[0][1].mass


@dataclass(frozen=True)
class KinematicMoments:
    mean_x: float
    mean_p: float
    mean_p2: float
    mean_p4: float
    var_p2: float


def overlap(cat: CatState) -> float:
    """<psi_1|psi_2>: real and positive for packets differing only in position."""
    return float(np.exp(-0.5 * (cat.delta_x0 / (2.0 * cat.sigma_x)) ** 2))


def norm_factor(cat: CatState) -> float:
    """N = 1 + 2 sqrt(alpha(1-alpha)) <psi_1|psi_2> cos(theta)."""
    return 1.0 + 2.0 * np.sqrt(cat.alpha * (1.0 - cat.alpha)) * overlap(cat) * np.cos(cat.theta)


def _gaussian_p_moment(mean, var, k: int):
    """<p^k> for a (possibly complex-shifted) Gaussian momentum variable."""
    if k == 0:
        return 1.0
    if k == 1:
        return mean
    if k == 2:
        return mean**2 + var
    if k == 4:
        return mean**4 + 6.0 * mean**2 * var + 3.0 * var**2
    raise ValueError(f"unsupported moment order {k}")


def moments(state) -> KinematicMoments:
    """Exact analytic moments; cat states include interference cross terms."""
    if isinstance(state, GaussianState):
        sp2 = state.sigma_p**2
        p2 = _gaussian_p_moment(state.p0, sp2, 2)
        p4 = _gaussian_p_moment(state.p0, sp2, 4)
        return KinematicMoments(state.x0, state.p0, p2, p4, p4 - p2**2)
    if isinstance(state, CatState):
        return _cat_moments(state)
    if isinstance(state, MixtureState):
        mx = mp = mp2 = mp4 = 0.0
        for w, comp in state.components:
            m = moments(comp)
            mx += w * m.mean_x
            mp += w * m.mean_p
            mp2 += w * m.mean_p2
            mp4 += w * m.mean_p4
        return KinematicMoments(mx, mp, mp2, mp4, mp4 - mp2**2)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _cat_moments(cat: CatState) -> KinematicMoments:
    g = cat.base
    n = norm_factor(cat)
    lam = overlap(cat)
    k_amp = 2.0 * np.sqrt(cat.alpha * (1.0 - cat.alpha)) * lam
    phase = np.exp(1j * cat.theta)
    sp2 = g.sigma_p**2
    # cross matrix elements <psi_1|p^k|psi_2> = lam * Gaussian moment with
    # complex-shifted mean pbar - i sigma_p^2 delta_x0 / hbar
    mu = g.p0 - 1j * sp2 * cat.delta_x0 / HBAR
    x1 = g.x0
    x2 = g.x0 + cat.delta_x0

    def cat_p_moment(k: int) -> float:
        diag = _gaussian_p_moment(g.p0, sp2, k)
        cross = _gaussian_p_moment(mu, sp2, k)
        return float((diag + k_amp * (phase * cross).real) / n)

    mean_p = cat_p_moment(1)
    mean_p2 = cat_p_moment(2)
    mean_p4 = cat_p_moment(4)
    # <psi_1|x|psi_2> = lam * midpoint, so the interference pulls the mean
    # position toward the midpoint of the two packets
    mean_x = (cat.alpha * x1 + (1.0 - cat.alpha) * x2 + k_amp * np.cos(cat.theta) * 0.5 * (x1 + x2)) / n
    return KinematicMoments(mean_x, mean_p, mean_p2, mean_p4, mean_p4 - mean_p2**2)


def r_factor(state, t, g: float, c: float = C_LIGHT):
    """Kinematic dilation factor R(t) at each time from the exact moments of ``state``.

    Mixtures reduce to the weighted sum of their components' factors by
    linearity of the expectation value.
    """
    if isinstance(state, MixtureState):
        return sum(w * r_factor(comp, t, g, c) for w, comp in state.components)
    m = moments(state)
    mass = state.mass
    return (
        -m.mean_p2 / (2.0 * mass**2 * c**2)
        + g * m.mean_x / c**2
        + m.mean_p * g * t / (mass * c**2)
        - (g * t / c) ** 2 / 3.0
    )


# ---------------------------------------------------------------------------
# grid sampling (feeds the joint-evolution oracle)


@dataclass(frozen=True)
class GridAmplitudes:
    """Momentum samples and the pure state's complex amplitudes on them.

    ``captured_norm`` is the discrete norm on the grid before any
    renormalisation (reported, never silently applied).
    """

    grid: np.ndarray
    amplitudes: np.ndarray
    captured_norm: float


def gaussian_momentum_wavefunction(g: GaussianState, p: np.ndarray) -> np.ndarray:
    sp = g.sigma_p
    envelope = (2.0 * np.pi * sp**2) ** (-0.25) * np.exp(-(((p - g.p0) / (2.0 * sp)) ** 2))
    return envelope * np.exp(-1j * g.x0 * (p - g.p0) / HBAR)


def cat_momentum_wavefunction(cat: CatState, p: np.ndarray) -> np.ndarray:
    n = norm_factor(cat)
    return (
        np.sqrt(cat.alpha) * gaussian_momentum_wavefunction(cat.base, p)
        + np.exp(1j * cat.theta) * np.sqrt(1.0 - cat.alpha) * gaussian_momentum_wavefunction(cat.upper, p)
    ) / np.sqrt(n)


def default_momentum_grid(state) -> np.ndarray:
    """Uniform 1024-point momentum grid spanning +/- 8 spreads around the
    shared mean momentum, widened in point count for cat states so that
    interference fringes keep at least 8 samples per fringe."""
    base = state.base if isinstance(state, CatState) else state
    lo = base.p0 - 8.0 * base.sigma_p
    hi = base.p0 + 8.0 * base.sigma_p
    n_points = 1024
    if isinstance(state, CatState) and state.delta_x0 > 0:
        fringe = 2.0 * np.pi * HBAR / state.delta_x0
        n_points = max(n_points, int(np.ceil((hi - lo) / (fringe / 8.0))) + 1)
    return np.linspace(lo, hi, n_points)


def to_grid(state, grid: np.ndarray) -> GridAmplitudes:
    """Sample the momentum wavefunction of a pure state on ``grid``.

    ``grid`` is one uniform grid, or a stack of uniform grids of equal
    spacing along its last axis. Raises TypeError on a mixture, which has
    no wavefunction, and ValueError when any grid captures less than
    1 - 1e-6 of the state's probability. The discrete norm, the smallest
    one for a stack, is reported in the result.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 0 or grid.shape[-1] < 2:
        raise ValueError("grid must contain at least two samples")
    dp = grid[..., 1] - grid[..., 0]
    if isinstance(state, GaussianState):
        amps = gaussian_momentum_wavefunction(state, grid)
    elif isinstance(state, CatState):
        amps = cat_momentum_wavefunction(state, grid)
    elif isinstance(state, MixtureState):
        raise TypeError("mixtures are ensembles with no wavefunction; sample each component")
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    captured = float(np.min(np.sum(np.abs(amps) ** 2, axis=-1) * dp))
    if captured < 1.0 - 1e-6:
        raise ValueError(
            f"grid too narrow: captured norm {captured!r} < 1 - 1e-6; widen the span"
        )
    return GridAmplitudes(grid=grid, amplitudes=amps, captured_norm=captured)

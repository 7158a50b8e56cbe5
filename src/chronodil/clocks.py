"""Finite-dimensional clock models and their accuracy diagnostics.

A clock is a set of energies, an initial ket and a time measurement, all
in the energy eigenbasis. The first moment of the measurement's outcome
is the mean clock time, the second its second moment. Three concrete
models are provided:

* a dial clock with evenly spaced energies whose time basis is the
  discrete Fourier transform F of the energy basis (``build_swp``). Its
  measurement is projective onto the time kets, so the clock stores only
  their d readings lambda_m: T = F diag(lambda) F^dag and
  T2 = F diag(lambda^2) F^dag are never formed. A ket's time-basis
  probabilities are d |ifft(psi)|^2 and T psi is fft(lambda ifft(psi)),
  O(d log d) per ket,
* the same dial with a Gaussian-weighted superposition over the time
  basis as initial state, which keeps the time reading nearly
  dispersionless (``build_quasi_ideal``),
* a two-level clock that reads time from the relative phase of its
  energy eigenstates through a continuous phase measurement
  (``build_qubit_phase``). That measurement is not projective and its T
  and T2 share no eigenbasis, so this clock keeps them as dense 2 x 2
  matrices: T = sigma_y/omega and T2 = (pi^2/3 I + 2 sigma_x)/omega^2.

Every clock read goes through functions that hide the difference:
``reading_stats``, the mean and spread of the reading in each ket of a
stack, and ``apply_time``, T applied to each ket of a stack.
``free_reading`` is the one read of the free clock, from which every
closed form starts: the mean, spread and rate of the reading at each time.

The central diagnostic is the error trace ``tr E(t)``, with

    E(t) = -(i/hbar) [T, H] rho(t) - rho(t),

which vanishes identically for a perfect (idealised) clock and measures
how far the mean clock time drifts from the lab time per unit time:
d<T>/dt = 1 + tr E(t) under free evolution.

Free evolution is a phase per energy component,
psi_j(t) = psi_j e^{-i E_j t / hbar}, and every clock quantity is read
from the evolved kets; nothing diagonalises.

Conventions: quantities are SI (energies in J, times in s) and hbar is
the pinned ``constants.HBAR``, never an argument; energies ascend, the
qubit ground state is ``|0>``, and the stored readings are
offset-calibrated so that ``<T>(0) = 0`` to within an ulp of the period
(exactly, for the qubit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR


@dataclass(frozen=True)
class ClockModel:
    """Clock in its energy eigenbasis: energies (J), initial unit ket and a
    time measurement given as either

    * ``time_values``: the calibrated readings (s) of a measurement that is
      projective onto the discrete Fourier transform of the energy basis
      (a dial), or
    * ``t_cl`` and ``t2_cl``: dense calibrated first- and second-moment
      operators (s and s^2) of any other measurement.

    ``energies`` must be a 1-D array of finite reals and ``psi0`` a unit
    ket of the same length. ``time_values`` must be a 1-D array of as many
    finite reals; ``t_cl`` and ``t2_cl`` Hermitian (dim, dim) matrices, to
    within 1e-12 of their largest entry. Exactly one of the two forms is
    given."""

    energies: np.ndarray
    psi0: np.ndarray
    time_values: np.ndarray | None = None
    t_cl: np.ndarray | None = None
    t2_cl: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.energies)
        if e.ndim != 1 or not np.isrealobj(e) or not np.all(np.isfinite(e)):
            raise ValueError("energies must be a 1-D array of finite real values: "
                             "clocks are stored in their energy eigenbasis")
        d = e.size
        psi = np.asarray(self.psi0)
        if psi.shape != (d,):
            raise ValueError(f"psi0 must have shape {(d,)}, got {psi.shape}")
        if not (abs(np.linalg.norm(psi) - 1.0) <= 1e-12):  # a NaN norm fails too
            raise ValueError(f"psi0 must be a unit ket, got norm {np.linalg.norm(psi)}")
        if self.time_values is not None:
            if self.t_cl is not None or self.t2_cl is not None:
                raise ValueError("give time_values or t_cl and t2_cl, not both")
            lam = np.asarray(self.time_values)
            if lam.shape != (d,) or not np.isrealobj(lam) or not np.all(np.isfinite(lam)):
                raise ValueError(f"time_values must be a 1-D array of {d} finite real values")
            return
        for name in ("t_cl", "t2_cl"):
            if getattr(self, name) is None:
                raise ValueError(f"{name} is required when time_values is not given")
            op = np.asarray(getattr(self, name))
            if op.shape != (d, d):
                raise ValueError(f"{name} must have shape {(d, d)}, got {op.shape}")
            defect = np.abs(op - op.conj().T).max()
            if not (defect <= 1e-12 * np.abs(op).max()):  # a NaN entry fails too
                raise ValueError(f"{name} must be Hermitian: max |A - A^dag| = {defect:.3e}")

    @property
    def dim(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class IdealisedClock:
    """Analytic model of a clock obeying [T, H] = i*hbar exactly.

    Its mean reading tracks lab time, its error trace vanishes and its
    spread ``sigma_t0`` is constant. The reading distribution is taken
    Gaussian, which fixes all higher moments. ``sigma_t0`` must be finite
    and non-negative.
    """

    sigma_t0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma_t0) and self.sigma_t0 >= 0.0):
            raise ValueError(f"sigma_t0 must be finite and non-negative, got {self.sigma_t0}")


# ---------------------------------------------------------------------------
# model constructors


def _dial_clock(d: int, omega: float, psi0: np.ndarray, mean_step: float) -> ClockModel:
    """Dial clock started in ``psi0``, whose mean raw reading is ``mean_step``
    dial steps: the time values m tau are shifted by that mean, and then by
    the few roundings that ``reading_stats``' FFT round trip still reads in
    psi0, so that <T>(0) = 0 to within an ulp of the period."""
    tau = 2.0 * np.pi / omega / d
    energies = np.arange(d) * HBAR * omega
    values = np.arange(d) * tau - tau * mean_step
    residue = reading_stats(ClockModel(energies, psi0, time_values=values), psi0)[0]
    return ClockModel(energies=energies, psi0=psi0, time_values=values - residue)


def build_swp(d: int, omega: float) -> ClockModel:
    """Dial clock started in the time eigenstate with eigenvalue zero.

    Energies are j*hbar*omega for j = 0..d-1, the time basis is the
    discrete Fourier transform of the energy basis,

        theta_m = d^{-1/2} sum_j e^{-2 pi i j m / d} |e_j>,

    and the time measurement is projective onto it, reading m*tau on the
    m-th time ket, tau = T0/d with T0 = 2*pi/omega. The clock stores those
    d readings, not the operators T = F diag(m tau) F^dag and T2 = F
    diag((m tau)^2) F^dag, so construction is O(d).
    """
    if d < 2:
        raise ValueError(f"clock dimension must be >= 2, got {d}")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    # psi0 = theta_0, the 0-eigenket: the offset is zero
    return _dial_clock(d, omega, np.full(d, 1.0 / np.sqrt(d), dtype=complex), 0.0)


def build_quasi_ideal(
    d: int,
    omega: float,
    sigma_bar: float,
    m0: float,
) -> ClockModel:
    """Dial clock started in a Gaussian-weighted superposition of time kets.

    Amplitudes over the window of d integers centred on ``m0`` are

        g(m) = A exp(-pi (m - m0)^2 / sigma_bar^2) exp(2 pi i n0 (m - m0) / d)

    wrapped onto the dial, with n0 = (d-1)/2, which centres the energy
    distribution mid-spectrum. The time reading of this state advances with
    lab time while staying sharply peaked, so its error trace is
    exponentially small in d while the packet stays clear of the dial cut.
    The energy-basis ket sum_m g(m) theta_m is fft(g)/sqrt(d), and the
    clock is the dial of ``build_swp`` with this ket: O(d log d) to build.
    """
    if d < 2:
        raise ValueError(f"clock dimension must be >= 2, got {d}")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not 0.0 < sigma_bar < d:
        raise ValueError(f"sigma_bar must lie in (0, d), got {sigma_bar}")
    m = np.arange(d)
    # displacement from m0, wrapped into [-d/2, d/2)
    delta = (m - m0 + d / 2.0) % d - d / 2.0
    n0 = (d - 1) / 2.0
    amps = np.exp(-np.pi * delta**2 / sigma_bar**2) * np.exp(2j * np.pi * n0 * delta / d)
    amps /= np.linalg.norm(amps)
    return _dial_clock(d, omega, np.fft.fft(amps) / np.sqrt(d), float(m @ np.abs(amps) ** 2))


def build_qubit_phase(omega: float) -> ClockModel:
    """Two-level clock reading time from the relative phase of its levels.

    Energies -/+ hbar*omega/2 (traceless), initial state (|0>+|1>)/sqrt(2).
    The k-th moment operator integrates s^k against the phase measurement's
    density (omega/2pi) (I + e^{i omega s}|0><1| + h.c.) over one period
    P = 2 pi/omega, with

        int_0^P s e^{i omega s} ds = -i P/omega,
        int_0^P s^2 e^{i omega s} ds = -i P^2/omega + 2 P/omega^2.

    Less the offset P/2 that calibrates <T>(0) to exactly 0, they are
    T = sigma_y/omega and T2 = (pi^2/3 I + 2 sigma_x)/omega^2, not
    T^2 = I/omega^2: the measurement is not projective.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    energies = (HBAR * omega / 2.0) * np.array([-1.0, 1.0])
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    t_cl = np.array([[0.0, -1j], [1j, 0.0]]) / omega
    t2_cl = np.array([[np.pi**2 / 3.0, 2.0], [2.0, np.pi**2 / 3.0]]) / omega**2
    return ClockModel(energies=energies, psi0=psi0, t_cl=t_cl, t2_cl=t2_cl)


# ---------------------------------------------------------------------------
# diagnostics


def evolve(clock: ClockModel, t) -> np.ndarray:
    """psi(t) under free clock evolution, a phase per energy component: shape
    (dim,) for a time, (n_t, dim) for a 1-D array of times, one ket per row."""
    return clock.psi0 * np.exp(-1j * clock.energies * np.asarray(t)[..., None] / HBAR)


def time_probabilities(clock: ClockModel, kets: np.ndarray) -> np.ndarray:
    """|<theta_m|psi>|^2 = d |ifft(psi)_m|^2 for each time ket theta_m of the
    dial and each ket of a stack (the last axis holds the energy components)."""
    amps = np.fft.ifft(kets, axis=-1)
    return clock.dim * (amps.real**2 + amps.imag**2)


def spread_from_moments(mean, second):
    """sqrt(<T^2> - <T>^2) elementwise. A variance below -1e-12 <T^2> raises
    ValueError; above it is round-off (a projective measurement in one of
    its eigenkets has zero spread) and reads 0."""
    var = second - mean**2
    if np.any(var < -1e-12 * second):
        raise ValueError(f"negative variance down to {np.min(var)}: "
                         "not the moments of a probability distribution")
    return np.sqrt(np.maximum(var, 0.0))


def reading_stats(clock: ClockModel, kets: np.ndarray, weight: float | None = None):
    """(mean, spread) of the clock reading in each ket of a stack, one ket per
    row. With ``weight``, the rows along the second-last axis are instead
    the components of one density matrix weight * sum_n |k_n><k_n|, and one
    (mean, spread) is returned per index of any axes before them: the rows'
    readings are summed and scaled by the weight.

    A dial reads its time-basis probabilities p, the mean as p . lambda and
    the variance as p . (lambda - mean)^2, so no large second moment
    cancels against the squared mean; a dense clock reads psi^dag A psi of
    its two moment operators by einsum loops that take the same kernel for
    a stack as for one ket, so a stack rounds as its rows do. ``ClockModel``
    holds both operators Hermitian, so the real part is the whole value."""
    if clock.time_values is not None:
        p = time_probabilities(clock, kets)
        if weight is not None:
            p = weight * p.sum(axis=-2)
        # one (1, d) @ (d,) product per ket, so a batch rounds as its rows do;
        # summing the length-1 axis gives a single ket a scalar mean
        mean = p[..., None, :] @ clock.time_values
        dev = clock.time_values - mean
        return mean.sum(axis=-1), np.sqrt(np.sum(p * dev * dev, axis=-1))
    mean, second = (np.einsum("...j,...j->...", kets.conj(),
                              np.einsum("jk,...k->...j", op, kets)).real
                    for op in (clock.t_cl, clock.t2_cl))
    if weight is not None:
        mean, second = weight * mean.sum(axis=-1), weight * second.sum(axis=-1)
    return mean, spread_from_moments(mean, second)


def apply_time(clock: ClockModel, kets: np.ndarray, shift=0.0) -> np.ndarray:
    """(T - shift) applied to each ket of a stack; ``shift`` is one value, or
    one per ket for the stack's leading axes. A dial shifts its readings and
    applies fft((lambda - shift) ifft(psi)); a dense clock applies its
    matrix."""
    shift = np.asarray(shift)[..., None]
    if clock.time_values is not None:
        amps = np.fft.ifft(kets, axis=-1)
        amps *= clock.time_values - shift
        return np.fft.fft(amps, axis=-1)
    return np.einsum("jk,...k->...j", clock.t_cl, kets) - shift * kets


def _dot(x, y):  # <x|y>, row by row
    return np.einsum("...j,...j->...", x.conj(), y)


@dataclass(frozen=True)
class FreeReading:
    """Mean <T>, spread sigma_NR and rate d<T>/dt = 1 + tr E of the free
    clock's reading at each time. A ClockModel's reading keeps the kets
    behind its rate for ``derivatives``; an IdealisedClock's reads t, keeps
    sigma_t0, has rate exactly 1.0 and no kets."""

    mean: float | np.ndarray
    spread: float | np.ndarray
    rate: float | np.ndarray
    _kets: tuple = field(default=(), repr=False)  # the clock, (T - a) psi, D psi, diag D

    def derivatives(self):
        """(dq/dt, d^2q/dt^2, d^2<T>/dt^2) at each time, q = <(T - a)^2> at the
        fixed a = <T>, from T - a applied to D psi and D^2 psi: d<A>/dt =
        -(2/hbar) Im <D psi|A psi> and d^2<A>/dt^2 = (2/hbar^2)(<D psi|A D psi>
        - Re <D^2 psi|A psi>), real by construction."""
        clock, x, h, diag = self._kets
        k = diag * h  # D^2 psi
        y, z = (apply_time(clock, ket, self.mean) for ket in (h, k))
        d_q = (2.0 / HBAR) * _dot(x, y).imag
        d2_q = (2.0 / HBAR**2) * (_dot(y, y).real - _dot(z, x).real)
        d2_t = (2.0 / HBAR**2) * (_dot(h, y).real - _dot(k, x).real)
        return d_q, d2_q, d2_t


def free_reading(clock, t) -> FreeReading:
    """The free clock's reading at each time from one evolution of psi0, one
    read of its statistics and one application of T; any clock type but
    ClockModel and IdealisedClock raises TypeError. The rate is -(i/hbar)
    <[T, H]> = (2/hbar) Im <(T - a) psi|(H - b) psi> at a = <T>, b = <H>,
    which keep both kets as small as the spreads."""
    if isinstance(clock, IdealisedClock):
        return FreeReading(mean=t, spread=clock.sigma_t0, rate=1.0)
    if not isinstance(clock, ClockModel):
        raise TypeError(f"unsupported clock type {type(clock).__name__}")
    psi = evolve(clock, t)
    mean, spread = reading_stats(clock, psi)
    x = apply_time(clock, psi, mean)
    # <H> as one (1, d) @ (d,) product per ket: a batch rounds as its rows do
    diag = clock.energies - (psi.real**2 + psi.imag**2)[..., None, :] @ clock.energies
    h = diag * psi
    return FreeReading(mean=mean, spread=spread, rate=(2.0 / HBAR) * _dot(x, h).imag,
                       _kets=(clock, x, h, diag))

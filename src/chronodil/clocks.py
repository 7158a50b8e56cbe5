"""Finite-dimensional clock models and their accuracy diagnostics.

A clock is a set of energies, an initial ket and the first- and
second-moment operators ``T`` and ``T2`` of its time measurement, all in
the energy eigenbasis. The expectation value of ``T`` is the mean clock
time, that of ``T2`` its second moment. Three concrete models are
provided:

* a dial clock with evenly spaced energies whose time basis is the
  discrete Fourier transform of the energy basis (``build_swp``); its
  ``T`` and ``T2`` are circulant in the energy basis, entry (j, k)
  a closed form in n = (j - k) mod d with u = -1/2 + (i/2) cot(pi n / d):
  tau u and tau^2 ((d - 2) u - 2 u^2) off the diagonal, tau (d - 1)/2
  and tau^2 (d - 1)(2d - 1)/6 on it, tau the dial step, so building a
  dial is O(d^2) with no matrix-matrix product,
* the same dial with a Gaussian-weighted superposition over the time
  basis as initial state, which keeps the time reading nearly
  dispersionless (``build_quasi_ideal``),
* a two-level clock that reads time from the relative phase of its
  energy eigenstates through a continuous phase measurement
  (``build_qubit_phase``).

The central diagnostic is the error trace ``tr E(t)`` with

    E(t) = -(i/hbar) [T, H] rho(t) - rho(t),

which vanishes identically for a perfect (idealised) clock and measures
how far the mean clock time drifts from the lab time per unit time:
d<T>/dt = 1 + tr E(t) under free evolution.

Free evolution is a phase per energy component,
psi_j(t) = psi_j e^{-i E_j t / hbar}, and every clock quantity is an
expectation value psi(t)^dag A psi(t). The rate operator
-(i/hbar)[T, H] has entries -(i/hbar) T_jk (E_k - E_j); nothing
diagonalises.

Conventions: quantities are SI (energies in J, times in s) and hbar is
the pinned ``constants.HBAR``, never an argument; energies ascend, the
qubit ground state is ``|0>``, and the stored moment operators are
offset-calibrated so that ``<T>(0) = 0``. ``time_offset`` records the
subtracted constant, so the raw first-moment operator is
``t_cl + time_offset * I``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .linalg import dagger, expectation, expectation_real, projector


@dataclass(frozen=True)
class ClockModel:
    """Clock in its energy eigenbasis: energies (J), initial unit ket,
    calibrated first- and second-moment operators of the time measurement
    (s and s^2), period (s), and, for continuous phase measurements, the
    measurement density at the dial's branch cut (1/s).

    ``energies`` must be a 1-D array of finite reals, ``psi0`` a unit
    ket of the same length and ``t_cl`` and ``t2_cl`` Hermitian (dim, dim)
    matrices, to within 1e-12 of their largest entry."""

    energies: np.ndarray
    psi0: np.ndarray
    t_cl: np.ndarray
    t2_cl: np.ndarray
    period: float
    time_offset: float
    povm_at_zero: np.ndarray | None = None
    kind: str = "generic"
    omega: float = 0.0

    def __post_init__(self):
        e = np.asarray(self.energies)
        if e.ndim != 1 or not np.isrealobj(e) or not np.all(np.isfinite(e)):
            raise ValueError("energies must be a 1-D array of finite real values: "
                             "clocks are stored in their energy eigenbasis")
        d = e.size
        psi = np.asarray(self.psi0)
        if psi.shape != (d,):
            raise ValueError(f"psi0 must have shape {(d,)}, got {psi.shape}")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
            raise ValueError(f"psi0 must be a unit ket, got norm {np.linalg.norm(psi)!r}")
        for name in ("t_cl", "t2_cl"):
            op = np.asarray(getattr(self, name))
            if op.shape != (d, d):
                raise ValueError(f"{name} must have shape {(d, d)}, got {op.shape}")
            # A^T is copied before it is conjugated: subtracting a transposed
            # view is about three times slower at d = 256
            diff = op.T.copy()
            np.conjugate(diff, out=diff)
            diff -= op
            defect = np.abs(diff).max()
            if defect > 1e-12 * np.abs(op).max():
                raise ValueError(f"{name} must be Hermitian: max |A - A^dag| = {defect:.3e}")

    @property
    def dim(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class IdealisedClock:
    """Analytic model of a clock obeying [T, H] = i*hbar exactly.

    Its mean reading tracks lab time, its error trace vanishes and its
    spread ``sigma_t0`` is constant. The reading distribution is taken
    Gaussian, which fixes all higher moments.
    """

    sigma_t0: float = 0.0

    def moment(self, n: int, t: float) -> float:
        # n-th moment of N(t, s^2): odd central moments vanish, even ones are (k-1)!! s^k
        s = self.sigma_t0
        return sum(math.comb(n, k) * t ** (n - k) * (math.prod(range(k - 1, 0, -2)) * s**k)
                   for k in range(0, n + 1, 2))


@dataclass(frozen=True)
class MomentCheckReport:
    """Both sides of the covariant-measurement moment polynomial

        <T^(n)>(t) = sum_k C(n, k) t^(n-k) <T^(k)>(0)

    evaluated on a branch window that follows the state, plus their
    difference. ``applicable`` is False when the requested time cannot be
    made wrap-safe (for dial clocks, times off the integer step grid)."""

    n: int
    t: float
    lhs: float
    rhs: float
    residual: float
    branch_start: float
    applicable: bool
    note: str


@dataclass(frozen=True)
class CommutatorReport:
    """Residual of [T, H] = i*hbar*(I - (s1 - s0) F(0)) divided by i*hbar,
    the largest entry of |M - I + (s1 - s0) F(0)| with M = -(i/hbar)[T, H],
    for clocks with a continuous covariant measurement on a bounded dial
    [s0, s1]. Dimensionless: a period off by a fraction f reads about f."""

    residual: float
    applicable: bool
    note: str


# ---------------------------------------------------------------------------
# model constructors


def fourier_time_basis(d: int) -> np.ndarray:
    """Columns are the time-basis kets: theta_m = d^{-1/2} sum_j e^{-2pi i j m / d} |e_j>.

    Entry (j, m) is the d-th root of unity at (j m mod d), gathered from the
    d roots, so no phase argument grows beyond 2 pi."""
    roots = np.exp(-2j * np.pi * np.arange(d) / d) / np.sqrt(d)
    index = np.outer(np.arange(d), np.arange(d))
    index %= d
    return roots[index]


def _dial_operators(d: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Generating vectors c1, c2 of the raw moment operators of a dial with
    step tau, T[j, k] = c1[(j - k) % d] and T2[j, k] = c2[(j - k) % d], in
    the closed forms of ``build_swp``. Entries n > d/2 are the conjugates
    of those at d - n, so both operators are exactly Hermitian."""
    n = np.arange(1, (d + 1) // 2)  # 0 < n < d/2
    cot = np.zeros(d)
    cot[n] = 1.0 / np.tan(np.pi * n / d)
    cot[d - n] = -cot[n]  # cot(pi/2) = 0 exactly at n = d/2
    u = -0.5 + 0.5j * cot
    c1 = tau * u
    c2 = tau**2 * ((d - 2) * u - 2.0 * u * u)
    c1[0] = tau * (d - 1) / 2.0
    c2[0] = tau**2 * (d - 1) * (2 * d - 1) / 6.0
    return c1, c2


def _circulant(c: np.ndarray) -> np.ndarray:
    """The (d, d) matrix A[j, k] = c[(j - k) % d]: row j is window d - 1 - j
    of c reversed and repeated."""
    d = len(c)
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((c, c))[::-1], d)
    return windows[d - 1::-1].copy()


def _calibrated(t_raw: np.ndarray, t2_raw: np.ndarray, offset: float, ident: np.ndarray):
    """Moment operators of the reading s - offset from the raw ones:
    T - offset I and T2 - 2 offset T + offset^2 I. ``ident`` is the identity
    in the operators' representation."""
    return t_raw - offset * ident, t2_raw - 2.0 * offset * t_raw + offset**2 * ident


def _dial_clock(d: int, omega: float, psi0: np.ndarray, mean_step: float, kind: str) -> ClockModel:
    """Dial clock started in ``psi0``, whose mean raw reading is ``mean_step``
    dial steps. Calibration shifts the generating vectors (the identity's
    is delta_0), then each operator is expanded once."""
    period = 2.0 * np.pi / omega
    tau = period / d
    offset = tau * mean_step
    delta0 = np.zeros(d)
    delta0[0] = 1.0
    c1, c2 = _calibrated(*_dial_operators(d, tau), offset, delta0)
    return ClockModel(energies=np.arange(d) * HBAR * omega, psi0=psi0, t_cl=_circulant(c1),
                      t2_cl=_circulant(c2), period=period, time_offset=offset, kind=kind,
                      omega=omega)


def build_swp(d: int, omega: float) -> ClockModel:
    """Dial clock started in the time eigenstate with eigenvalue zero.

    Energies are j*hbar*omega for j = 0..d-1, the time basis is the
    discrete Fourier transform of the energy basis, and the time
    observable assigns m*tau to the m-th time ket, tau = T0/d with
    T0 = 2*pi/omega. Its moment operators are circulant in the energy
    basis, with n = (j - k) mod d and u = -1/2 + (i/2) cot(pi n / d):

        T[j, k] = tau u,                  T[j, j] = tau (d - 1)/2,
        T2[j, k] = tau^2 ((d - 2) u - 2 u^2),  T2[j, j] = tau^2 (d - 1)(2d - 1)/6,

    from sum_m m z^m = d/(z - 1) and sum_m m^2 z^m = d(d - 2)/(z - 1) -
    2d/(z - 1)^2 over the d-th roots of unity z != 1. Construction is
    O(d^2).
    """
    if d < 2:
        raise ValueError(f"clock dimension must be >= 2, got {d}")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    # psi0 = theta_0, the 0-eigenket: the offset is zero
    return _dial_clock(d, omega, np.full(d, 1.0 / np.sqrt(d), dtype=complex), 0.0, "swp")


def build_quasi_ideal(
    d: int,
    omega: float,
    sigma_bar: float,
    m0: float,
    n0: float | None = None,
) -> ClockModel:
    """Dial clock started in a Gaussian-weighted superposition of time kets.

    Amplitudes over the window of d integers centred on ``m0`` are

        g(m) = A exp(-pi (m - m0)^2 / sigma_bar^2) exp(2 pi i n0 (m - m0) / d)

    wrapped onto the dial. ``n0`` defaults to (d-1)/2, centring the energy
    distribution mid-spectrum. The time reading of this state advances with
    lab time while staying sharply peaked, so its error trace is
    exponentially small in d while the packet stays clear of the dial cut.
    """
    if d < 2:
        raise ValueError(f"clock dimension must be >= 2, got {d}")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not 0.0 < sigma_bar < d:
        raise ValueError(f"sigma_bar must lie in (0, d), got {sigma_bar}")
    if n0 is None:
        n0 = (d - 1) / 2.0
    m = np.arange(d)
    # displacement from m0, wrapped into [-d/2, d/2)
    delta = (m - m0 + d / 2.0) % d - d / 2.0
    amps = np.exp(-np.pi * delta**2 / sigma_bar**2) * np.exp(2j * np.pi * n0 * delta / d)
    amps /= np.linalg.norm(amps)
    return _dial_clock(d, omega, fourier_time_basis(d) @ amps, float(m @ np.abs(amps) ** 2),
                       "quasi_ideal")


def phase_moment_operator(n: int, a: float, b: float, omega: float) -> np.ndarray:
    """integral over [a, b] of s^n F(s) ds for the qubit phase measurement.

    F(s) = (omega/2pi) (I + e^{i omega s}|0><1| + e^{-i omega s}|1><0|),
    the periodic extension of the phase-ket density to the whole line.
    Entries are evaluated in closed form.
    """
    diag = (b ** (n + 1) - a ** (n + 1)) / (n + 1)
    off = _poly_phase_integral(n, a, b, omega)
    op = np.array([[diag, off], [np.conj(off), diag]], dtype=complex)
    return op * omega / (2.0 * np.pi)


def _poly_phase_integral(n: int, a: float, b: float, omega: float) -> complex:
    """integral over [a, b] of s^n e^{i omega s} ds by the standard recursion."""
    if n == 0:
        return (np.exp(1j * omega * b) - np.exp(1j * omega * a)) / (1j * omega)
    boundary = (b**n * np.exp(1j * omega * b) - a**n * np.exp(1j * omega * a)) / (1j * omega)
    return boundary - n / (1j * omega) * _poly_phase_integral(n - 1, a, b, omega)


def build_qubit_phase(omega: float) -> ClockModel:
    """Two-level clock reading time from the relative phase of its levels.

    Energies -/+ hbar*omega/2 (traceless), initial state (|0>+|1>)/sqrt(2).
    The moment operators are the first and second moments of the phase
    measurement F(theta) = |theta><theta| / pi with clock time
    s = theta/omega, integrated over one period. The measurement is not
    projective, so the second moment is not the square of the first. The
    measurement density at the dial cut is stored for the commutator
    identity check.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    energies = (HBAR * omega / 2.0) * np.array([-1.0, 1.0])
    period = 2.0 * np.pi / omega
    t_raw = phase_moment_operator(1, 0.0, period, omega)
    t2_raw = phase_moment_operator(2, 0.0, period, omega)
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    f0 = (omega / np.pi) * projector(psi0)  # density (1/s) of the phase ket at the cut
    offset = expectation_real(t_raw, psi0)
    t_cl, t2_cl = _calibrated(t_raw, t2_raw, offset, np.eye(2))
    return ClockModel(energies=energies, psi0=psi0, t_cl=t_cl, t2_cl=t2_cl, period=period,
                      time_offset=offset, povm_at_zero=f0, kind="qubit_phase", omega=omega)


# ---------------------------------------------------------------------------
# diagnostics


def require_clock(clock) -> None:
    """Raise TypeError unless ``clock`` is a ClockModel or an IdealisedClock."""
    if not isinstance(clock, (ClockModel, IdealisedClock)):
        raise TypeError(f"unsupported clock type {type(clock).__name__}")


def evolve(clock: ClockModel, t) -> np.ndarray:
    """psi(t) under free clock evolution, a phase per energy component: shape
    (dim,) for a time, (n_t, dim) for a 1-D array of times, one ket per row."""
    return clock.psi0 * np.exp(-1j * clock.energies * np.asarray(t)[..., None] / HBAR)


def rate_operator(clock: ClockModel) -> np.ndarray:
    """M = -(i/hbar)[T, H], entries -(i/hbar) T_jk (E_k - E_j).

    d<T>/dt = <M>(t) under free evolution, and M = I for an idealised
    clock."""
    e = clock.energies
    return (-1j / HBAR) * clock.t_cl * (e[None, :] - e[:, None])


def error_trace(clock, t):
    """tr E(t) = <M - I>(t) at each time. Zero for an idealised clock."""
    if isinstance(clock, IdealisedClock):
        return 0.0
    val = expectation(rate_operator(clock) - np.eye(clock.dim), evolve(clock, t))
    if np.any(np.abs(val.imag) > 1e-10 * np.maximum(1.0, np.abs(val))):
        raise ValueError(f"tr E(t) has imaginary part {np.max(np.abs(val.imag)):.3e}")
    return val.real


def mean_clock_time_nr(clock, t):
    """Mean clock reading at each time under free (non-relativistic) evolution,
    with the t = 0 offset calibrated away so the reading starts at zero."""
    if isinstance(clock, IdealisedClock):
        return t
    return expectation_real(clock.t_cl, evolve(clock, t))


def circular_mean_time(clock: ClockModel, t: float = 0.0) -> float:
    """Mean clock reading interpreted on the dial circle (in [0, period)).

    Uses the argument of the first circular harmonic of the time-basis
    distribution, which is insensitive to the dial cut.
    """
    psi_t = evolve(clock, t)
    if clock.kind == "qubit_phase":
        # first harmonic of the phase density is rho_10
        harmonic = psi_t[1] * psi_t[0].conj()
    else:
        probs = np.abs(dagger(fourier_time_basis(clock.dim)) @ psi_t) ** 2
        harmonic = np.sum(probs * np.exp(2j * np.pi * np.arange(clock.dim) / clock.dim))
    angle = float(np.angle(harmonic)) % (2.0 * np.pi)
    return angle / (2.0 * np.pi) * clock.period


# ---------------------------------------------------------------------------
# covariant-measurement algebra


def covariant_moment_check(clock, n: int, t: float) -> MomentCheckReport:
    """Check the moment polynomial of a covariant time measurement.

    The n-th outcome moment at lab time t, taken over a dial window that
    follows the state (keeping its support clear of the window edges),
    must equal the binomial combination of the t = 0 moments. Wrap-safety
    is what restricts the admissible times: dial clocks are exact only on
    the integer step grid, the phase clock on any t once the window is cut
    at the density minimum.
    """
    if n < 0:
        raise ValueError("moment order must be non-negative")
    if isinstance(clock, IdealisedClock):
        lhs = clock.moment(n, t)
        rhs = sum(math.comb(n, k) * t ** (n - k) * clock.moment(k, 0.0) for k in range(n + 1))
        return MomentCheckReport(
            n=n, t=t, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
            branch_start=-np.inf, applicable=True,
            note="idealised clock: unbounded dial, polynomial exact",
        )
    if clock.kind == "qubit_phase":
        return _qubit_moment_check(clock, n, t)
    if clock.kind in ("swp", "quasi_ideal"):
        return _dial_moment_check(clock, n, t)
    raise ValueError(f"unsupported clock type {clock.kind!r} for moment checks")


def _qubit_moment_check(clock: ClockModel, n: int, t: float) -> MomentCheckReport:
    period = clock.period
    omega = clock.omega
    # cut the dial at the outcome-density minimum of the initial state
    r01 = clock.psi0[1] * clock.psi0[0].conj()
    peak0 = (-np.angle(r01) / omega) if abs(r01) > 1e-14 else 0.0
    start0 = peak0 - period / 2.0

    def moment(k: int, psi: np.ndarray, start: float) -> float:
        return expectation_real(phase_moment_operator(k, start, start + period, omega), psi)

    lhs = moment(n, evolve(clock, t), start0 + t)
    m0 = [moment(k, clock.psi0, start0) for k in range(n + 1)]
    rhs = sum(math.comb(n, k) * t ** (n - k) * m0[k] for k in range(n + 1))
    return MomentCheckReport(
        n=n, t=t, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
        branch_start=start0, applicable=True,
        note="phase clock: window cut at the outcome-density minimum and advanced with the state",
    )


def _dial_moment_check(clock: ClockModel, n: int, t: float) -> MomentCheckReport:
    d = clock.dim
    step = clock.period / d
    nu = t / step
    nu_int = round(nu)
    on_grid = abs(nu - nu_int) < 1e-9 * max(1.0, abs(nu))
    basis = fourier_time_basis(d)
    center = round(circular_mean_time(clock, 0.0) / step) % d
    w0 = center - d // 2

    def moment(k: int, psi: np.ndarray, shift: int) -> float:
        idx = np.arange(w0 + shift, w0 + shift + d)
        probs = np.abs(dagger(basis[:, idx % d]) @ psi) ** 2
        return float(np.sum((idx * step) ** k * probs))

    lhs = moment(n, evolve(clock, t), nu_int)
    m0 = [moment(k, clock.psi0, 0) for k in range(n + 1)]
    rhs = sum(math.comb(n, k) * t ** (n - k) * m0[k] for k in range(n + 1))
    note = "dial clock at integer step time: window shifted with the state"
    if not on_grid:
        note = ("dial clock between step times: reading disperses, polynomial "
                "holds only approximately")
    return MomentCheckReport(
        n=n, t=t, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
        branch_start=w0 * step, applicable=on_grid, note=note,
    )


def commutator_form_check(clock) -> CommutatorReport:
    """Residual of [T, H] = i*hbar*(I - (s1 - s0) F(0)), compared as the
    dimensionless max |M - I + (s1 - s0) F(0)| with M = -(i/hbar)[T, H].

    The factor i on the boundary term is required for the left side's
    anti-Hermiticity; (s1 - s0) is the dial period. Clocks with a discrete
    projective measurement carry no F(0) and are flagged not applicable.
    """
    if isinstance(clock, IdealisedClock):
        return CommutatorReport(
            residual=0.0, applicable=True,
            note="idealised clock: unbounded dial, boundary term vanishes, pure Heisenberg form",
        )
    if clock.povm_at_zero is None:
        return CommutatorReport(
            residual=float("nan"), applicable=False,
            note="discrete PVM - continuous identity not applicable",
        )
    residual = float(np.abs(rate_operator(clock) - np.eye(clock.dim)
                            + clock.period * clock.povm_at_zero).max())
    return CommutatorReport(
        residual=residual, applicable=True,
        note="bounded-dial Heisenberg form with boundary term at the cut",
    )

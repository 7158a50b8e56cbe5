"""Reference values for every benchmark operation, and the output checks.

The references do not import chronodil.  They rebuild each clock in its
energy eigenbasis (all built-in clocks have a diagonal Hamiltonian),
take kinematic moments by quadrature over the explicit wavefunctions, and
evaluate the exact oracles in closed form: block phases at g = 0 and the
characteristics solution with gravity.  They are therefore independent
of the program's algorithms, which later changes are expected to replace.

A CSV is read by header name; extra columns and ``#`` lines are ignored.
A value ``x`` passes against its reference ``r`` when

    |x - r| <= RTOL * max(|r|, floor),

where ``floor`` is the scale of the quantity the value contributes to
(for example the lab time for a clock reading), so that values at the
rounding floor of a larger sum are not compared digit by digit.  RTOL
admits last-digit changes.  An oracle reading is compared in correction space,
as its departure from the free reading, so ``RTOL`` applies to the
relativistic correction it must resolve; its floor is ``ORACLE_FLOOR``
of the reading, above the rounding error that hundreds of split-step
FFTs accumulate.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import C_LIGHT, HBAR

RTOL = 1e-9
FLOOR = 1e-12  # rounding floor of a reading, relative to its own scale
ORACLE_FLOOR = 1e-11


# ---------------------------------------------------------------------------
# CSV


def read_csv(text: str) -> tuple[dict, dict]:
    """(``# key = value`` metadata, columns by header name) of a CSV output."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        if not line.strip():
            continue
        if header is None:
            header = [name.strip() for name in line.split(",")]
            continue
        rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ValueError("no header line")
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged rows")
    columns = {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}
    return meta, columns


def compare(columns: dict, expected: dict) -> list[str]:
    """Mismatches between CSV columns and ``{name: (values, floor)}``."""
    problems = []
    for name, (values, floor) in expected.items():
        values = np.asarray(values, dtype=float)
        if name not in columns:
            problems.append(f"missing column {name!r}")
            continue
        got = columns[name]
        if got.shape != values.shape:
            problems.append(f"{name}: {got.size} rows, expected {values.size}")
            continue
        bad = ~(np.abs(got - values) <= RTOL * np.maximum(np.abs(values), floor))
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{name}[{i}] = {got[i]!r}, reference {values[i]!r} "
                            f"({int(bad.sum())} of {bad.size} rows off)")
    return problems


# ---------------------------------------------------------------------------
# clocks in their energy eigenbasis


class RefClock:
    """Energies (J), calibrated time observable (s) and initial ket."""

    def __init__(self, spec: dict):
        model = spec["model"]
        self.model = model
        if model == "idealised":
            self.sigma_t0 = float(spec.get("sigma_t0", 0.0))
            return
        omega = float(spec["omega"])
        period = 2.0 * math.pi / omega
        if model == "qubit_phase":
            self.energies = np.array([-0.5, 0.5]) * HBAR * omega
            # first moment of the phase density over one period
            t_raw = np.array([[period / 2.0, -1j / omega], [1j / omega, period / 2.0]])
            psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        else:
            d = int(spec["d"])
            self.energies = np.arange(d) * HBAR * omega
            j = np.arange(d)
            basis = np.exp(-2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)
            t_raw = (basis * (j * period / d)) @ basis.conj().T
            if model == "swp":
                psi0 = basis[:, 0]
            else:
                m0, sigma_bar = float(spec["m0"]), float(spec["sigma_bar"])
                delta = (j - m0 + d / 2.0) % d - d / 2.0
                amps = np.exp(-np.pi * delta**2 / sigma_bar**2 + 2j * np.pi * (d - 1) / 2.0 * delta / d)
                psi0 = basis @ (amps / np.linalg.norm(amps))
        offset = float(np.vdot(psi0, t_raw @ psi0).real)
        self.t_op = t_raw - offset * np.eye(len(psi0))
        self.psi0 = psi0
        gap = self.energies[None, :] - self.energies[:, None]  # E_k - E_j
        self.rate_op = (-1j / HBAR) * self.t_op * gap  # -(i/hbar)[T, H]

    def kets(self, times) -> np.ndarray:
        """Free-evolved kets, one column per time."""
        phases = np.exp(-1j * np.outer(self.energies, np.asarray(times)) / HBAR)
        return self.psi0[:, None] * phases

    @staticmethod
    def expect(op: np.ndarray, kets: np.ndarray) -> np.ndarray:
        return np.einsum("jn,jk,kn->n", kets.conj(), op, kets)

    def reading(self, times):
        """(mean reading, error trace) under free evolution."""
        if self.model == "idealised":
            times = np.asarray(times, dtype=float)
            return times, np.zeros_like(times)
        kets = self.kets(times)
        return self.expect(self.t_op, kets).real, self.expect(self.rate_op, kets).real - 1.0


# ---------------------------------------------------------------------------
# kinematics


def _unnormalised_p(kin: dict, p: np.ndarray) -> np.ndarray:
    sp = HBAR / (2.0 * kin["sigma_x"])
    env = (2.0 * np.pi * sp**2) ** -0.25 * np.exp(-(((p - kin["p0"]) / (2.0 * sp)) ** 2))
    # packets share the carrier exp(i p0 x / hbar); theta is their relative
    # phase in position space
    lower = env * np.exp(-1j * kin["x0"] * (p - kin["p0"]) / HBAR)
    if kin["type"] == "gaussian":
        return lower
    alpha = kin["alpha"]
    upper = env * np.exp(-1j * (kin["x0"] + kin["delta_x0"]) * (p - kin["p0"]) / HBAR)
    return math.sqrt(alpha) * lower + np.exp(1j * kin["theta"]) * math.sqrt(1.0 - alpha) * upper


def _p_grid(kin: dict, n: int = 8001, shift=(0.0,)) -> np.ndarray:
    sp = HBAR / (2.0 * kin["sigma_x"])
    return np.linspace(kin["p0"] - max(shift) - 12.0 * sp, kin["p0"] - min(shift) + 12.0 * sp, n)


def p_moments(kin: dict) -> dict:
    """<p^k> for k = 1, 2, 4 by quadrature over the momentum density."""
    p = _p_grid(kin)
    dens = np.abs(_unnormalised_p(kin, p)) ** 2
    dens /= dens.sum()
    return {k: float(np.sum(dens * p**k)) for k in (1, 2, 4)}


def mean_x(kin: dict) -> float:
    sx = kin["sigma_x"]
    lo = kin["x0"]
    hi = lo + (kin["delta_x0"] if kin["type"] == "cat" else 0.0)
    x = np.linspace(lo - 12.0 * sx, hi + 12.0 * sx, 8001)
    lower = np.exp(-((x - lo) ** 2) / (4.0 * sx**2))
    psi = lower
    if kin["type"] == "cat":
        upper = np.exp(-((x - hi) ** 2) / (4.0 * sx**2))
        psi = math.sqrt(kin["alpha"]) * lower + np.exp(1j * kin["theta"]) * math.sqrt(1.0 - kin["alpha"]) * upper
    dens = np.abs(psi) ** 2
    return float(np.sum(dens * x) / dens.sum())


def r_factor(kin: dict, times, g: float, c: float, mp=None, mx=None) -> np.ndarray:
    mp = p_moments(kin) if mp is None else mp
    mx = mean_x(kin) if mx is None else mx
    m = kin["mass"]
    t = np.asarray(times, dtype=float)
    return (-mp[2] / (2.0 * m**2 * c**2) + g * mx / c**2 + mp[1] * g * t / (m * c**2)
            - (g * t / c) ** 2 / 3.0)


def classical_tau(kin: dict, times, g: float, c: float) -> np.ndarray:
    v = p_moments(kin)[1] / kin["mass"]
    x = mean_x(kin)
    t = np.asarray(times, dtype=float)
    return (1.0 - v**2 / (2.0 * c**2) + g * x / c**2 + v * g * t / c**2 - (g * t / c) ** 2 / 3.0) * t


def _w(p, mass: float, c: float, order: str):
    w = -(p**2) / (2.0 * mass**2 * c**2)
    if order == "c4":
        w = w + 3.0 * p**4 / (8.0 * mass**4 * c**4)
    return w


# ---------------------------------------------------------------------------
# closed forms per command


def times_of(physics: dict) -> np.ndarray:
    if "t" in physics:
        return np.array([float(physics["t"])])
    start, stop, num = physics["t_start"], physics["t_stop"], int(physics["t_num"])
    return np.array([start + (stop - start) * i / (num - 1) for i in range(num)])


def light_speed(physics: dict) -> float:
    return float(physics.get("c_scale", 1.0)) * C_LIGHT


def dilation(sections: dict, c: float | None = None, times=None) -> dict:
    clock = RefClock(sections["clock"])
    kin, physics = sections["kinematics"], sections["physics"]
    c = light_speed(physics) if c is None else c
    t = times_of(physics) if times is None else np.asarray(times, dtype=float)
    g = float(physics.get("g", 9.81))
    nr, err = clock.reading(t)
    r = r_factor(kin, t, g, c)
    return {"t": t, "mean_t_nr": nr, "r_factor": r, "error_trace": err,
            "mean_t": nr + t * r * (1.0 + err), "classical_tau": classical_tau(kin, t, g, c)}


def precision(sections: dict, c: float | None = None, times=None) -> dict:
    clock = RefClock(sections["clock"])
    kin, physics = sections["kinematics"], sections["physics"]
    c = light_speed(physics) if c is None else c
    t = times_of(physics) if times is None else np.asarray(times, dtype=float)
    mp = p_moments(kin)
    mass = kin["mass"]
    var_p2 = mp[4] - mp[2] ** 2
    if clock.model == "idealised":
        s_nr = np.full_like(t, clock.sigma_t0)
        s_ni = np.zeros_like(t)
    else:
        s_nr, s_ni = _dial_spread_terms(clock, mp, mass, c, t)
    s_i = t**2 * (mp[4] + var_p2) / (8.0 * s_nr * mass**4 * c**4)
    return {"t": t, "sigma_nr": s_nr, "sigma_i": s_i, "sigma_ni": s_ni,
            "sigma_total": s_nr + s_i + s_ni}


def _dial_spread_terms(clock: RefClock, mp: dict, mass: float, c: float, t: np.ndarray):
    """Free spread and the error-operator term, evaluated on kets."""
    if clock.model == "qubit_phase":
        raise ValueError("the phase clock's second moment is not a square; not referenced")
    kets = clock.kets(t)
    tt = clock.t_op
    h = np.diag(clock.energies).astype(complex)
    mean_t = clock.expect(tt, kets).real
    s_nr = np.sqrt(clock.expect(tt @ tt, kets).real - mean_t**2)
    e_small = clock.rate_op - np.eye(len(clock.energies))  # (i/hbar)[H, T] - I
    tr_e = clock.expect(e_small, kets)  # tr E(t), with E(t) = e rho(t)
    brace1 = 2.0 * clock.expect(tt @ e_small, kets).real - 2.0 * mean_t * tr_e
    brace2 = 2.0 * tr_e + tr_e**2
    ed = e_small.conj().T
    o1 = h @ e_small @ tt - tt @ e_small @ h + h @ tt @ e_small - ed @ tt @ h
    o2 = h @ e_small - ed @ h
    brace3 = (2.0 * tr_e + (1j / HBAR) * clock.expect(o1, kets)
              + (2j / HBAR) * mean_t * clock.expect(o2, kets))
    mean_w = -mp[2] / (2.0 * mass**2 * c**2) + 3.0 * mp[4] / (8.0 * mass**4 * c**4)
    mean_w2 = mp[4] / (4.0 * mass**4 * c**4)
    total = (mean_w * t / (2.0 * s_nr) * brace1
             - (mean_w * t) ** 2 / (8.0 * s_nr**3) * brace1**2
             - (mean_w * t) ** 2 / (2.0 * s_nr) * brace2
             - mean_w2 * t**2 / (2.0 * s_nr) * brace3)
    return s_nr, total.real


def coherence_terms(kin: dict, t: float, g: float, c: float, ratios=None) -> dict:
    """Mixture reading and coherence term t (R_sup - R_mix), with the
    interference part of each moment integrated directly."""
    alpha, m, sx = kin["alpha"], kin["mass"], kin["sigma_x"]
    sp = HBAR / (2.0 * sx)
    deltas = np.array([kin["delta_x0"]]) if ratios is None else np.asarray(ratios) * sx
    p = _p_grid(kin, 4001)
    dp = p[1] - p[0]
    env2 = np.exp(-(((p - kin["p0"]) / sp) ** 2) / 2.0) / (math.sqrt(2.0 * math.pi) * sp)
    amp = 2.0 * math.sqrt(alpha * (1.0 - alpha))
    lower = {"type": "gaussian", "x0": kin["x0"], "p0": kin["p0"], "sigma_x": sx, "mass": m}
    mp = p_moments(lower)
    out = {k: [] for k in ("norm_factor", "t_mix", "t_coh")}
    for dx in deltas:
        # |psi(p)|^2 = env^2 (1 + amp cos(theta - dx p / hbar)) / N, mixture: env^2
        fringe = amp * np.cos(kin["theta"] - dx * (p - kin["p0"]) / HBAR) * env2
        n = 1.0 + float(np.sum(fringe) * dp)
        d_p = {k: float(np.sum((fringe - (n - 1.0) * env2) * p**k) * dp) / n for k in (1, 2)}
        # position: the packets overlap in the cross term; mixture means x0 and x0 + dx
        x = np.linspace(kin["x0"] - 12.0 * sx, kin["x0"] + dx + 12.0 * sx, 8001)
        g1 = np.exp(-((x - kin["x0"]) ** 2) / (4.0 * sx**2)) / (2.0 * math.pi * sx**2) ** 0.25
        g2 = np.exp(-((x - kin["x0"] - dx) ** 2) / (4.0 * sx**2)) / (2.0 * math.pi * sx**2) ** 0.25
        cross = amp * math.cos(kin["theta"]) * g1 * g2
        mix_x = alpha * kin["x0"] + (1.0 - alpha) * (kin["x0"] + dx)
        d_x = (float(np.sum(cross * x) * (x[1] - x[0])) - (n - 1.0) * mix_x) / n
        d_r = -d_p[2] / (2.0 * m**2 * c**2) + g * d_x / c**2 + d_p[1] * g * t / (m * c**2)
        r1 = r_factor(lower, t, g, c, mp=mp, mx=kin["x0"])
        r2 = r_factor(lower, t, g, c, mp=mp, mx=kin["x0"] + dx)
        out["norm_factor"].append(n)
        out["t_mix"].append(alpha * t * (1.0 + r1) + (1.0 - alpha) * t * (1.0 + r2))
        out["t_coh"].append(t * d_r)
    return {k: np.array(v, dtype=float) for k, v in out.items()}


def conditioned_spreads(sigma_t0: float, kin: dict, times, q_values, n: int, c: float):
    """(probability, conditioned spread, unconditioned spread) per (t, q) row."""
    sp = HBAR / (2.0 * kin["sigma_x"])
    p0, mass = kin["p0"], kin["mass"]

    def bin_moments(lo, hi):
        lo, hi = max(lo, p0 - 12.0 * sp), min(hi, p0 + 12.0 * sp)
        pieces = max(1, math.ceil((hi - lo) / sp))
        nodes, weights = np.polynomial.legendre.leggauss(24)
        edges = np.linspace(lo, hi, pieces + 1)
        half = (edges[1:] - edges[:-1])[:, None] / 2.0
        p = ((edges[1:] + edges[:-1])[:, None] / 2.0 + half * nodes).ravel()
        w = (half * weights).ravel() * np.exp(-0.5 * ((p - p0) / sp) ** 2) / (math.sqrt(2.0 * math.pi) * sp)
        pc = (lo + hi) / 2.0
        # W(p) - W(pc), factored so that narrow bins keep their digits
        dev = (-(p - pc) * (p + pc) / (2.0 * mass**2 * c**2)
               + 3.0 * (p - pc) * (p + pc) * (p**2 + pc**2) / (8.0 * mass**4 * c**4))
        prob = float(np.sum(w))
        mean_dev = float(np.sum(w * dev)) / prob
        return prob, float(np.sum(w * (dev - mean_dev) ** 2)) / prob

    wide = 48.0 * sp
    center = round(p0 / wide)
    _, var_all = bin_moments((center - 0.5) * wide, (center + 0.5) * wide)
    per_q = [bin_moments((n - 0.5) * q * sp, (n + 0.5) * q * sp) for q in q_values]
    rows = {"t": [], "q": [], "probability": [], "sigma_conditioned": [], "sigma_unconditioned": []}
    for t in times:
        for q, (prob, var) in zip(q_values, per_q):
            rows["t"].append(t)
            rows["q"].append(q)
            rows["probability"].append(prob)
            rows["sigma_conditioned"].append(math.sqrt(sigma_t0**2 + t**2 * var))
            rows["sigma_unconditioned"].append(math.sqrt(sigma_t0**2 + t**2 * var_all))
    return {k: np.array(v) for k, v in rows.items()}


# ---------------------------------------------------------------------------
# exact oracles


def _reduced_clock_state(clock: RefClock, kin: dict, t: float, g: float, c: float, order: str):
    """Clock density matrix after joint evolution over [0, t]."""
    a0 = clock.psi0
    e = clock.energies
    mass = kin["mass"]
    if g == 0.0:
        # block diagonal in momentum: each p runs the clock at rate 1 + W(p)
        p = _p_grid(kin, 6001)
        dens = np.abs(_unnormalised_p(kin, p)) ** 2
        dens /= dens.sum()
        gap = e[:, None] - e[None, :]
        w = _w(p, mass, c, order)
        levels, index = np.unique(gap, return_inverse=True)
        avg = np.exp(-1j * np.outer(levels, w) * t / HBAR) @ dens
        return np.outer(a0, a0.conj()) * np.exp(-1j * gap * t / HBAR) * avg[index.reshape(gap.shape)]
    # constant force: each energy component is a momentum shift plus a phase
    force = mass * g + e * g / c**2
    p = _p_grid(kin, 8001, shift=tuple(force * t))
    amps = np.empty((len(e), p.size), dtype=complex)
    for n, (e_n, f_n) in enumerate(zip(e, force)):
        upper = p + f_n * t
        i2 = (upper**3 - p**3) / (3.0 * f_n)
        i4 = (upper**5 - p**5) / (5.0 * f_n)
        phase = (e_n * (t - i2 / (2.0 * mass**2 * c**2))
                 + i2 / (2.0 * mass) - i4 / (8.0 * mass**3 * c**2)) / HBAR
        psi = _unnormalised_p(kin, upper)
        amps[n] = a0[n] * psi / np.linalg.norm(psi) * np.exp(-1j * phase)
    return amps @ amps.conj().T


def oracle_stats(sections: dict, t: float, c: float, order: str) -> tuple[float, float]:
    """(mean, spread) of the clock reading after exact joint evolution."""
    clock = RefClock(sections["clock"])
    rho = _reduced_clock_state(clock, sections["kinematics"], t,
                               float(sections["physics"].get("g", 9.81)), c, order)
    mean = float(np.trace(clock.t_op @ rho).real)
    if clock.model == "qubit_phase":
        return mean, float("nan")
    second = float(np.trace(clock.t_op @ clock.t_op @ rho).real)
    return mean, math.sqrt(max(second - mean**2, 0.0))


# ---------------------------------------------------------------------------
# checks per command


def check(op, text: str) -> tuple[list[str], dict]:
    """(mismatches, facts) for one operation's CSV output.

    ``facts`` holds what the per-layer metrics read from outputs: for
    ``verify``, how many c scalings resolved the correction.
    """
    try:
        meta, cols = read_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"], {}
    sec = op.sections
    physics = sec["physics"]
    c = light_speed(physics)
    if op.command == "dilation":
        ref = dilation(sec)
        t = ref["t"]
        return compare(cols, {
            "t": (t, 0.0), "mean_t_nr": (ref["mean_t_nr"], t), "r_factor": (ref["r_factor"], 0.0),
            "error_trace": (ref["error_trace"], 1.0), "mean_t": (ref["mean_t"], t),
            "classical_tau": (ref["classical_tau"], t),
        }), {}
    if op.command == "precision":
        ref = precision(sec)
        # sigma_ni is the difference of nearly equal traces; it is compared
        # on the scale of the spread it corrects
        return compare(cols, {
            "t": (ref["t"], 0.0), "sigma_nr": (ref["sigma_nr"], 0.0),
            "sigma_i": (ref["sigma_i"], 0.0), "sigma_ni": (ref["sigma_ni"], ref["sigma_nr"]),
            "sigma_total": (ref["sigma_total"], 0.0),
        }), {}
    if op.command == "coherence":
        t = times_of(physics)
        terms = [coherence_terms(sec["kinematics"], ti, float(physics["g"]), c) for ti in t]
        t_mix = np.array([x["t_mix"][0] for x in terms])
        t_coh = np.array([x["t_coh"][0] for x in terms])
        return compare(cols, {
            "t": (t, 0.0), "norm_factor": (np.array([x["norm_factor"][0] for x in terms]), 0.0),
            "t_mix": (t_mix, 0.0), "t_sup": (t_mix + t_coh, 0.0), "t_coh": (t_coh, 0.0),
        }), {}
    if op.command == "sweep":
        sw = sec["sweep"]
        num = int(sw["num"])
        ratios = np.array([sw["start"] + (sw["stop"] - sw["start"]) * i / (num - 1) for i in range(num)])
        t = times_of(physics)[0]
        ref = coherence_terms(sec["kinematics"], t, float(physics["g"]), c, ratios=ratios)
        coh_scale = float(np.abs(ref["t_coh"]).max())
        return compare(cols, {
            "delta_x0_over_sigma_x": (ratios, 0.0),
            "delta_x0": (ratios * sec["kinematics"]["sigma_x"], 0.0),
            "t_mix": (ref["t_mix"], 0.0), "t_sup": (ref["t_mix"] + ref["t_coh"], 0.0),
            "t_coh": (ref["t_coh"], coh_scale),
        }), {}
    if op.command == "measurement":
        ms = sec["measurement"]
        ref = conditioned_spreads(float(sec["clock"]["sigma_t0"]), sec["kinematics"],
                                  times_of(physics), ms["q_values"], int(ms["bin"]), c)
        return compare(cols, {
            "t": (ref["t"], 0.0), "q": (ref["q"], 0.0), "probability": (ref["probability"], 0.0),
            "sigma_conditioned": (ref["sigma_conditioned"], 0.0),
            "sigma_nr": (np.full(ref["t"].shape, float(sec["clock"]["sigma_t0"])), 0.0),
            "sigma_unconditioned": (ref["sigma_unconditioned"], 0.0),
        }), {}
    if op.command == "verify":
        return _check_verify(sec, cols)
    return [f"no reference for command {op.command!r}"], {}


def _check_verify(sec: dict, cols: dict) -> tuple[list[str], dict]:
    physics, target = sec["physics"], sec["verify"]["target"]
    t = times_of(physics)[0]
    base_c = light_speed(physics)
    lams = np.array(sec["verify"]["c_scalings"], dtype=float)
    pert, free, exact = [], [], []
    for lam in lams:
        c = lam * base_c
        if target == "sigma":
            ref = precision(sec, c=c, times=[t])
            pert.append(ref["sigma_total"][0])
            free.append(ref["sigma_nr"][0])
            exact.append(oracle_stats(sec, t, c, "c4")[1])
        else:
            ref = dilation(sec, c=c, times=[t])
            pert.append(ref["mean_t"][0])
            free.append(ref["mean_t_nr"][0])
            exact.append(oracle_stats(sec, t, c, "c2")[0])
    pert, free, exact = map(np.array, (pert, free, exact))
    corr = np.abs(pert - free)
    reading = abs(t) if target == "mean_time" else np.abs(exact)
    problems = compare(cols, {"c_scaling": (lams, 0.0), "perturbative": (pert, reading)})
    if "exact" not in cols or cols["exact"].shape != exact.shape:
        problems.append("exact: missing or wrong length")
    if not problems:
        problems = compare({"exact - free": cols["exact"] - free}, {
            "exact - free": (exact - free, np.maximum(corr, ORACLE_FLOOR / RTOL * reading))})
        residual = np.abs(cols["exact"] - cols["perturbative"])
        problems += compare(cols, {
            "residual": (residual, FLOOR * reading),
            "relative_residual": (residual / corr, FLOOR * reading / corr),
        })
    floor = FLOOR * max(abs(t) if target == "mean_time" else 0.0, float(np.abs(exact).max()))
    res = cols.get("residual", np.array([]))
    resolved = int(np.sum(np.isfinite(res) & (res > floor)))
    return problems, {"resolved": resolved, "scalings": int(lams.size)}

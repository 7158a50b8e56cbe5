"""Acceptance checklist: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 7a asserts that the joint-evolution excess of the clock-time
spread matches the contracted idealised-term closed form within 5%. The
exact evolution instead supports the variance-law form (the contracted
form overshoots by 2.5x for a rest Gaussian), so 7a fails by design and
prints the measured ratio alongside the passing variance-law diagnostic.
"""

import numpy as np

from chronodil.clocks import (
    IdealisedClock,
    build_qubit_phase,
    build_quasi_ideal,
    build_swp,
    free_reading,
)
from chronodil.constants import ATOMIC_MASS_UNIT, C_LIGHT, ELECTRON_MASS
from chronodil.dilation import classical_proper_time, mean_clock_time, t_coh
from chronodil.kinematics import CatState, GaussianState
from chronodil.measurement import conditioned_sigma
from chronodil.oracle import clock_time_stats, evolve_characteristics_g, verify_mean_time
from chronodil.precision import (
    sigma_breakdown,
    sigma_dispersion_exact,
    sigma_ideal_term,
)
from covariant_reference import clock_period, commutator_residual, moment_polynomial
from helpers import (BENCH_OMEGA, BENCH_T, bench_c, bench_cat, bench_gaussian,
                     coherence_direct, free_error_trace, idealised_surrogate, occupied_bins,
                     quadrature_moment, unconditioned_sigma)


def _verdict(number: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_swp_error_cancellation():
    worst = 0.0
    for d in (2, 3, 4, 5, 8, 16):
        clk = build_swp(d, 1.0)
        for m in range(d):
            worst = max(worst, abs(free_error_trace(clk, m * clock_period(clk) / d) + 1.0))
    ok = worst < 1e-10
    assert _verdict("1", ok, f"dial-clock error trace at focusing times, worst |trE+1| = {worst:.2e}")


def test_criterion_02_quasi_ideal_error_decay():
    maxima = []
    for d in (8, 16, 32, 64):
        clk = build_quasi_ideal(d, 1.0, np.sqrt(d), m0=d / 4.0)
        times = np.linspace(0.0, clock_period(clk) / 2.0, 8 * d)
        maxima.append(max(abs(free_error_trace(clk, t)) for t in times))
    decreasing = all(b < a for a, b in zip(maxima, maxima[1:]))
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    ratios_decreasing = all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
    ok = decreasing and ratios_decreasing
    assert _verdict("2", ok, f"error maxima {['%.2e' % m for m in maxima]}, "
                             f"ratios {['%.2e' % r for r in ratios]}")


def test_criterion_03_idealised_gaussian_classical_average():
    rng = np.random.default_rng(101)
    clock = IdealisedClock()
    nodes, weights = np.polynomial.hermite_e.hermegauss(7)
    worst = 0.0
    for _ in range(50):
        mass = float(rng.uniform(1e-26, 1e-24))
        state = GaussianState(
            x0=float(rng.uniform(-1e5, 1e5)),
            p0=float(rng.uniform(-3e-3, 3e-3)) * mass * C_LIGHT,
            sigma_x=float(rng.uniform(1e-10, 1e-8)),
            mass=mass,
        )
        g = float(rng.uniform(0.0, 50.0))
        t = float(rng.uniform(0.1, 50.0))
        bracket = mean_clock_time(clock, state, t, g).mean_t / t
        classical = sum(
            w / np.sqrt(2.0 * np.pi)
            * classical_proper_time((state.p0 + state.sigma_p * n) / mass, state.x0, g, t)
            for n, w in zip(nodes, weights)) / t
        worst = max(worst, abs(bracket - classical) / abs(classical))
    ok = worst < 1e-12
    assert _verdict("3", ok, f"idealised clock vs phase-space classical average, "
                             f"worst relative deviation {worst:.2e} over 50 draws")


def test_criterion_04_coherence_identity():
    rng = np.random.default_rng(202)
    mass = 27.0 * ATOMIC_MASS_UNIT
    worst = 0.0
    failures = 0
    for _ in range(100):
        sigma_x = float(rng.uniform(0.5, 4.0)) * 184e-12
        cat = CatState(
            base=GaussianState(x0=float(rng.uniform(-1e-9, 1e-9)),
                               p0=float(rng.uniform(-5e-25, 5e-25)),
                               sigma_x=sigma_x, mass=mass),
            delta_x0=float(rng.uniform(0.0, 8.0)) * sigma_x,
            alpha=float(rng.uniform(0.05, 0.95)),
            theta=float(rng.uniform(0.0, 2.0 * np.pi)),
        )
        g = float(rng.uniform(0.0, 20.0))
        t = float(rng.uniform(0.1, 5.0))
        closed = t_coh(cat, t, g).t_coh
        deviation = abs(coherence_direct(cat, t, g) - closed)
        failures += deviation > 1e-10 * abs(closed)
        if closed != 0.0:
            worst = max(worst, deviation / abs(closed))
    ok = failures == 0
    assert _verdict("4", ok, f"superposition-minus-mixture vs closed form over 100 draws: "
                             f"{failures} violations, worst relative deviation {worst:.2e}")


def test_criterion_05_aluminium_example():
    r_al = 184e-12
    mass = 27.0 * ATOMIC_MASS_UNIT
    cat = CatState(base=GaussianState(x0=0.0, p0=0.0, sigma_x=2.0 * r_al, mass=mass),
                   delta_x0=4.0 * r_al, alpha=0.5, theta=0.0)
    value = t_coh(cat, 1.0, 9.81).t_coh
    claimed = 1e-16
    discrepancy = claimed / value
    # independent quadrature route: moments of the explicit wavefunctions
    # feed the dilation-factor difference directly
    def quad_r(state, t, g):
        m1 = quadrature_moment(state, 1, "p")
        m2 = quadrature_moment(state, 2, "p")
        mx = quadrature_moment(state, 1, "x")
        return (-m2 / (2.0 * mass**2 * C_LIGHT**2) + g * mx / C_LIGHT**2
                + m1 * g * t / (mass * C_LIGHT**2) - (g * t / C_LIGHT) ** 2 / 3.0)

    upper = GaussianState(cat.base.x0 + cat.delta_x0, 0.0, cat.base.sigma_x, mass)
    quad_value = (quad_r(cat, 1.0, 9.81)
                  - 0.5 * quad_r(cat.base, 1.0, 9.81) - 0.5 * quad_r(upper, 1.0, 9.81))
    ok = (1e-17 < value < 1e-15) and abs(quad_value - value) < 1e-6 * abs(value)
    assert _verdict("5", ok,
                    f"coherence shift {value:.4e} s vs claimed ~1e-16 s "
                    f"(factor {discrepancy:.2f} below the claim; quadrature route agrees "
                    f"to {abs(quad_value - value) / abs(value):.1e} relative)")


def test_criterion_06_oracle_scaling_mean_time():
    clocks = {
        "dial d=4": build_swp(4, BENCH_OMEGA),
        "gaussian dial d=8": build_quasi_ideal(8, BENCH_OMEGA, np.sqrt(8), m0=2.0),
        "qubit phase": build_qubit_phase(BENCH_OMEGA),
    }
    kinematics = {"gaussian": bench_gaussian(), "cat": bench_cat(theta=0.7)}
    c_base = bench_c()
    results = []
    ok = True
    for cname, clk in clocks.items():
        for kname, kstate in kinematics.items():
            for g in (0.0, 9.81):
                report = verify_mean_time(clk, kstate, BENCH_T, g,
                                          c_scalings=(1.0, 2.0, 4.0), base_c=c_base)
                good = report.at_floor or (report.exponent_rel is not None
                                           and report.exponent_rel <= -1.8)
                ok = ok and good
                fitted = ("none" if report.exponent_rel is None
                          else f"{report.exponent_rel:.2f}")
                results.append(f"{cname}/{kname}/g={g:g}: {fitted}")
    assert _verdict("6", ok, "residual exponents " + "; ".join(results))


def test_criterion_07a_precision_excess_vs_ideal_term():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()
    t = 0.3 * clock_period(clk)
    js = evolve_characteristics_g(clk, state, t, 0.0, order="c4", c=c)
    s_nr = free_reading(clk, t).spread
    excess = clock_time_stats(js, clk)[1] - s_nr
    s_i = sigma_ideal_term(state, t, s_nr, c=c)
    ratio = excess / s_i
    dispersion_ratio = excess / sigma_dispersion_exact(state, t, s_nr, c=c)
    ok = abs(ratio - 1.0) <= 0.05
    _verdict("7a", ok,
             f"joint-evolution excess / idealised-term closed form = {ratio:.4f} "
             f"(needs 1 +/- 0.05); variance-law diagnostic ratio = {dispersion_ratio:.4f}")
    assert ok, (
        "the exact spread excess equals t^2 var(p^2) / (8 sigma m^4 c^4) at leading "
        f"order, 0.4x the contracted closed form for a rest Gaussian; measured {ratio:.4f}")


def test_criterion_07b_ideal_term_quadratic_in_time():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    c = bench_c()
    t = 0.25 * clock_period(clk)
    values = {k: sigma_ideal_term(state, k * t, free_reading(clk, k * t).spread, c=c)
              for k in (0.5, 1.0, 2.0)}
    r_quarter = values[0.5] / values[1.0]
    r_four = values[2.0] / values[1.0]
    ok = abs(r_quarter - 0.25) < 0.01 * 0.25 and abs(r_four - 4.0) < 0.01 * 4.0
    assert _verdict("7b", ok, f"time-squared scaling ratios {r_quarter:.5f}, {r_four:.5f} "
                              "(targets 0.25, 4)")


def test_criterion_07c_ideal_term_inverse_quartic_in_c():
    clk = idealised_surrogate(BENCH_OMEGA, d=64)
    state = bench_gaussian(p0_sigmas=0.0)
    t = 0.25 * clock_period(clk)
    s_nr = free_reading(clk, t).spread
    ratio = sigma_ideal_term(state, t, s_nr, c=bench_c()) \
        / sigma_ideal_term(state, t, s_nr, c=2.0 * bench_c())
    ok = abs(ratio - 16.0) < 1e-10
    assert _verdict("7c", ok, f"light-speed scaling ratio {ratio:.12f} (target 16)")


def test_criterion_08_measurement_recovery():
    state = GaussianState(x0=0.0, p0=0.0, sigma_x=1e-9, mass=ELECTRON_MASS)
    sigma_t0 = 1e-9
    clock = IdealisedClock(sigma_t0)
    t = 1e-9
    c = state.sigma_p / (0.1 * ELECTRON_MASS)  # sigma_v / c = 0.1

    def cond(q):
        return conditioned_sigma(clock, state, t, q, 0, c=c).sigma_t_given_n

    fine = cond(0.01)
    fine_ok = abs(fine - sigma_t0) < 1e-3 * sigma_t0
    coarse = cond(1e3)
    unconditioned = sigma_breakdown(clock, state, t, c=c).total
    coarse_ok = abs(coarse - unconditioned) < 0.01 * unconditioned

    total_exact = unconditioned_sigma(clock, state, t, c=c)
    rows = [conditioned_sigma(clock, state, t, 0.8, n, c=c) for n in occupied_bins(state, 0.8)]
    mean_total = sum(r.probability * r.mean_t_given_n for r in rows)
    var_sum = sum(r.probability * (r.sigma_t_given_n**2 + (r.mean_t_given_n - mean_total) ** 2)
                  for r in rows)
    law_rel = abs(var_sum - total_exact**2) / total_exact**2
    law_ok = law_rel < 1e-8

    qs = (0.01, 0.1, 1.0, 10.0, 100.0, 1e3)
    sigmas = [cond(q) for q in qs]
    monotone_ok = all(b >= a - 1e-18 for a, b in zip(sigmas, sigmas[1:]))

    ok = fine_ok and coarse_ok and law_ok and monotone_ok
    assert _verdict("8", ok,
                    f"fine-bin deviation {abs(fine - sigma_t0) / sigma_t0:.1e}, coarse-bin "
                    f"deviation {abs(coarse - unconditioned) / unconditioned:.1e}, total-variance "
                    f"identity {law_rel:.1e}, monotone in coarseness: {monotone_ok}")


def test_criterion_09_covariant_measurement_algebra():
    swp = build_swp(8, 1.0)
    qi = build_quasi_ideal(32, 1.0, 4.0, m0=8.0)
    qb = build_qubit_phase(1.0)
    cases = ((swp, 3.0 * clock_period(swp) / 8.0), (qi, 4.0 * clock_period(qi) / 32.0), (qb, 0.3))
    worst = max(abs(np.subtract(*moment_polynomial(clk, n, t)))
                for n in range(4) for clk, t in cases)
    commutator = commutator_residual(qb)
    ok = worst < 1e-8 and commutator < 1e-10
    assert _verdict("9", ok, f"moment polynomial worst residual {worst:.2e} (n <= 3), "
                             f"phase-clock commutator residual {commutator:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    from chronodil.cli import main
    from helpers import BENCH_MASS, BENCH_SIGMA_X

    cfg = f"""
[run]
command = coherence
seed = 42

[kinematics]
type = cat
sigma_x = {BENCH_SIGMA_X!r}
delta_x0 = {3.0 * BENCH_SIGMA_X!r}
alpha = 0.5
theta = 0.3
mass = {BENCH_MASS!r}

[physics]
g = 9.81
t_start = 0.1
t_stop = 1.0
t_num = 7
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg)
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(["coherence", "--config", str(cfg_path), "--out", str(out),
                     "--no-timestamp"])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1]
    assert _verdict("10", ok, f"identical config and seed give byte-identical CSV "
                              f"({len(payloads[0])} bytes)")

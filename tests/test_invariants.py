"""Metamorphic relations of the closed forms (Chen, Cheung & Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998): changes of the input whose
effect on every output is known exactly, so they need no oracle and no
scaled light speed.

(a) Reading origin: every reading shifted by a moves the mean reading by
    a and leaves the correction, the error trace and the spreads alone.
(b) Energy offset at g = 0: H -> H + 7 hbar omega is a global phase of the
    free clock, and of each momentum component of the joint state. At
    g != 0 the offset is a change of mass, so the relation stops there.
(c) Mass-light-speed scaling at g = 0: (m, c) -> (3m, c/3) with sigma_p
    and p0 fixed keeps p/(m c), and with it every g = 0 correction.
(d) Mirror at g = 0: a Gaussian at (-x0, -p0) has the moments of even
    order of one at (x0, p0), and the mean reading and the spread read
    only those.

Each relation runs on the d = 4 and d = 8 dials, the quasi-ideal d = 64
dial and the qubit phase clock, with the bench Gaussian and cat, at the
bench light speed and at the physical one, at four times clear of the
dials' focusing times (multiples of P/d). At a focusing time sigma_NR
falls to about sqrt(eps) P and rounding alone breaks the relations.
(c) and (d) also run on ``conditioned_sigma``, for an idealised clock of
zero free spread, so that the spread is the excess t sqrt(var(W | bin))
alone and is resolved at the physical c too; (d) then maps bin n to -n.

One tolerance, RTOL = 1e-13, fixed before any relation was run: a mean
reading is measured against the period, a spread against sigma_NR, the
error trace against the clock's rate 1 + tr E, and the correction,
t_coh, a bin's probability and its excess spread against themselves.
"""

from dataclasses import replace

import numpy as np
import pytest

from chronodil.clocks import IdealisedClock, build_qubit_phase, build_swp, free_reading
from chronodil.constants import C_LIGHT, HBAR
from chronodil.dilation import mean_clock_time, t_coh
from chronodil.kinematics import CatState
from chronodil.measurement import conditioned_sigma
from chronodil.oracle import clock_time_stats, evolve_characteristics_g
from chronodil.precision import sigma_breakdown, sigma_ideal_term
from helpers import (BENCH_OMEGA, BENCH_PERIOD, BENCH_SIGMA_X, BENCH_T, bench_c, bench_cat,
                     bench_gaussian, idealised_surrogate)

RTOL = 1e-13
TIMES = np.array([0.137, 0.275, 0.61, 0.83]) * BENCH_PERIOD
ORIGIN_SHIFT = 1e-3  # s, half the bench period
ENERGY_OFFSET = 7.0 * HBAR * BENCH_OMEGA

CLOCKS = {
    "swp_d4": lambda: build_swp(4, BENCH_OMEGA),
    "swp_d8": lambda: build_swp(8, BENCH_OMEGA),
    "quasi_ideal_d64": lambda: idealised_surrogate(BENCH_OMEGA),
    "qubit": lambda: build_qubit_phase(BENCH_OMEGA),
}
STATES = {"gaussian": bench_gaussian, "cat": bench_cat}
LIGHT_SPEEDS = {"bench_c": bench_c(), "physical_c": C_LIGHT}

every_case = pytest.mark.parametrize(("clock_name", "state_name", "c_name"), [
    (clock, state, c) for clock in CLOCKS for state in STATES for c in LIGHT_SPEEDS])
# bin width q sigma_p and bins about the bench Gaussian's p0 = 3 sigma_p;
# the infinite bin 0 is the whole momentum line
BINS = {np.inf: [0], 1.0: [0, 2, 3, 5], 0.3: [0, 7, 10, 13]}
every_bin = pytest.mark.parametrize(("c_name", "q", "n"), [
    (c, q, n) for c in LIGHT_SPEEDS for q, bins in BINS.items() for n in bins])


def observables(clock, kstate, c) -> dict:
    """Every closed-form output at g = 0 and TIMES, by name. sigma_NI, and
    so the total spread, is defined for a projective measurement only,
    which the qubit's is not."""
    res = mean_clock_time(clock, kstate, TIMES, 0.0, c=c)
    out = {"mean_t": res.mean_t, "correction": res.correction, "error_trace": res.error_trace}
    if clock.time_values is not None:
        br = sigma_breakdown(clock, kstate, TIMES, c=c)
        out.update(sigma_nr=br.sigma_nr, sigma_i=br.sigma_i, sigma_ni=br.sigma_ni,
                   sigma_total=br.total)
    else:
        s_nr = free_reading(clock, TIMES).spread
        out.update(sigma_nr=s_nr, sigma_i=sigma_ideal_term(kstate, TIMES, s_nr, c))
    if isinstance(kstate, CatState):
        out["t_coh"] = t_coh(kstate, TIMES, 0.0, c=c).t_coh
    return out


def conditioned(kstate, q, n, c) -> dict:
    """``conditioned_sigma`` of a zero-spread idealised clock at TIMES in bin
    n of width q sigma_p, by name."""
    res = conditioned_sigma(IdealisedClock(0.0), kstate, TIMES, q, n, c=c)
    assert np.all(res.sigma_t_given_n > 0.0), "the excess is not resolved"
    return {"probability": res.probability, "excess": res.sigma_t_given_n,
            "mean_t": res.mean_t_given_n}


def assert_unchanged(got: dict, want: dict, names) -> None:
    """Each named output of ``got`` within RTOL of ``want``, each against
    its own scale."""
    for name in names:
        if name == "mean_t":
            scale = BENCH_PERIOD
        elif name.startswith("sigma"):
            scale = want["sigma_nr"]
        elif name == "error_trace":
            scale = 1.0
        else:
            scale = np.abs(want[name])
        change = np.max(np.abs(got[name] - want[name]) / scale)
        assert change <= RTOL, f"{name} changed by {change:.2e} of its scale"


def with_mass_factor(kstate, factor: float):
    """The same state with its mass times ``factor``: sigma_p and p0 stay."""
    if isinstance(kstate, CatState):
        return replace(kstate, base=with_mass_factor(kstate.base, factor))
    return replace(kstate, mass=factor * kstate.mass)


def with_origin_shift(clock, a: float):
    """The clock whose every reading is a later: a dial's readings, or the
    qubit's moment operators T + a I and T2 + 2a T + a^2 I."""
    if clock.time_values is not None:
        return replace(clock, time_values=clock.time_values + a)
    eye = np.eye(clock.dim)
    return replace(clock, t_cl=clock.t_cl + a * eye,
                   t2_cl=clock.t2_cl + 2.0 * a * clock.t_cl + a * a * eye)


def case(clock_name, state_name, c_name):
    return CLOCKS[clock_name](), STATES[state_name](), LIGHT_SPEEDS[c_name]


# ---------------------------------------------------------------------------
# (a) reading origin


@every_case
def test_reading_origin_moves_only_the_mean(clock_name, state_name, c_name):
    clock, kstate, c = case(clock_name, state_name, c_name)
    want = observables(clock, kstate, c)
    got = observables(with_origin_shift(clock, ORIGIN_SHIFT), kstate, c)
    got["mean_t"] = got["mean_t"] - ORIGIN_SHIFT
    assert_unchanged(got, want, ["mean_t", "correction", "error_trace", "sigma_nr", "sigma_i"])


@pytest.mark.xfail(strict=True, reason="sigma_NI's 4 <T> d^2<T>/dt^2 term depends on where "
                                       "the readings start (ROADMAP direction 12)")
@pytest.mark.parametrize("clock_name", ["swp_d4", "swp_d8", "quasi_ideal_d64"])
def test_reading_origin_leaves_sigma_ni_alone(clock_name):
    # at 0.137 P on the d = 4 dial sigma_NI reads 3.78e-6 s, and 4.69e-6 s
    # with every reading half a period later
    clock, kstate, c = case(clock_name, "gaussian", "bench_c")
    want = observables(clock, kstate, c)
    got = observables(with_origin_shift(clock, ORIGIN_SHIFT), kstate, c)
    assert_unchanged(got, want, ["sigma_ni"])


# ---------------------------------------------------------------------------
# (b) energy offset


@every_case
def test_energy_offset_changes_nothing_at_zero_g(clock_name, state_name, c_name):
    clock, kstate, c = case(clock_name, state_name, c_name)
    want = observables(clock, kstate, c)
    got = observables(replace(clock, energies=clock.energies + ENERGY_OFFSET), kstate, c)
    assert_unchanged(got, want, want)


@pytest.mark.parametrize("state_name", STATES)
@pytest.mark.parametrize("clock_name", CLOCKS)
def test_energy_offset_leaves_the_oracle_correction_at_zero_g(clock_name, state_name):
    # the offset is one phase per momentum component of the joint state,
    # which the reduced clock density does not see
    clock, kstate, c = case(clock_name, state_name, "bench_c")

    def oracle_correction(clk):
        js = evolve_characteristics_g(clk, kstate, BENCH_T, 0.0, c=c)
        return clock_time_stats(js, clk)[0] - free_reading(clk, BENCH_T).mean

    want = oracle_correction(clock)
    got = oracle_correction(replace(clock, energies=clock.energies + ENERGY_OFFSET))
    assert abs(got - want) <= RTOL * abs(want)


# ---------------------------------------------------------------------------
# (c) mass-light-speed scaling


@every_case
def test_mass_light_speed_scaling_changes_nothing_at_zero_g(clock_name, state_name, c_name):
    clock, kstate, c = case(clock_name, state_name, c_name)
    want = observables(clock, kstate, c)
    got = observables(clock, with_mass_factor(kstate, 3.0), c / 3.0)
    assert_unchanged(got, want, want)


@every_bin
def test_mass_light_speed_scaling_leaves_the_conditioned_spread(c_name, q, n):
    kstate, c = bench_gaussian(), LIGHT_SPEEDS[c_name]
    want = conditioned(kstate, q, n, c)
    assert_unchanged(conditioned(with_mass_factor(kstate, 3.0), q, n, c / 3.0), want, want)


# ---------------------------------------------------------------------------
# (d) mirror


@pytest.mark.parametrize("c_name", LIGHT_SPEEDS)
@pytest.mark.parametrize("clock_name", CLOCKS)
def test_mirrored_gaussian_reads_the_same_at_zero_g(clock_name, c_name):
    clock, _, c = case(clock_name, "gaussian", c_name)
    kstate = replace(bench_gaussian(), x0=BENCH_SIGMA_X)
    want = observables(clock, kstate, c)
    got = observables(clock, replace(kstate, x0=-kstate.x0, p0=-kstate.p0), c)
    for name in ("mean_t", "sigma_total"):
        if name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@every_bin
def test_mirrored_gaussian_conditions_alike_in_the_mirrored_bin(c_name, q, n):
    kstate, c = replace(bench_gaussian(), x0=BENCH_SIGMA_X), LIGHT_SPEEDS[c_name]
    want = conditioned(kstate, q, n, c)
    assert_unchanged(conditioned(replace(kstate, x0=-kstate.x0, p0=-kstate.p0), q, -n, c),
                     want, want)

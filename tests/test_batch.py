"""The clock core on an array of times, and the closed forms and the oracle
on a stack of light speeds: a batch equals its rows, the guards hold row
by row, and no (n_t, d, d) tensor is built."""

import tracemalloc

import numpy as np
import pytest

from chronodil.clocks import (IdealisedClock, build_qubit_phase, build_quasi_ideal, build_swp,
                              evolve, free_reading, spread_from_moments)
from chronodil.constants import C_LIGHT
from chronodil.dilation import mean_clock_time
from chronodil.oracle import clock_time_stats, default_momentum_grid, evolve_characteristics_g
from chronodil.precision import sigma_breakdown, sigma_ideal_term
from helpers import (BENCH_OMEGA, BENCH_PERIOD, BENCH_T, bench_c, bench_cat, bench_gaussian,
                     free_error_trace)

# between the d = 4 dial's focusing times, where its spread is positive
TIMES = np.linspace(0.03, 0.22, 7) * BENCH_PERIOD

CLOCKS = {
    "swp4": build_swp(4, BENCH_OMEGA),
    "qi8": build_quasi_ideal(8, BENCH_OMEGA, sigma_bar=np.sqrt(8.0), m0=2.0),
    "qi128": build_quasi_ideal(128, BENCH_OMEGA, sigma_bar=np.sqrt(128.0), m0=32.0),
    "qubit": build_qubit_phase(BENCH_OMEGA),
    "ideal": IdealisedClock(sigma_t0=1e-4),
}
STATES = {"gaussian": bench_gaussian(), "cat": bench_cat()}
# verify's light-speed scalings, as one stack
LIGHT_SPEEDS = np.array([1.0, 2.0, 4.0]) * bench_c()


def _fields(result) -> dict:
    return result if isinstance(result, dict) else dict(vars(result))


def _reading(clock, t) -> dict:
    """The free reading's mean, spread and rate, and a ClockModel's
    second-order derivatives."""
    free = free_reading(clock, t)
    out = {"mean_t_nr": free.mean, "sigma_nr": free.spread, "rate": free.rate}
    if not isinstance(clock, IdealisedClock):
        out.update(zip(["d_q", "d2_q", "d2_t"], free.derivatives()))
    return out


def _assert_refused_row_by_row(fn, batch):
    """sigma_NI refuses a clock whose measurement is not projective (the
    qubit): the batch raises, and so does each of its rows."""
    for arg in (batch, *batch):
        with pytest.raises(ValueError, match="projective time measurement"):
            fn(arg)


def _assert_rows_match(batch, rows):
    """Every column of a batched result equals the scalar results bit for
    bit: a batch takes the same kernels as its rows."""
    rows = [_fields(r) for r in rows]
    for key, column in _fields(batch).items():
        column = np.broadcast_to(column, (len(rows),))
        expected = np.array([r[key] for r in rows], dtype=float)
        assert all(np.ndim(r[key]) == 0 and isinstance(r[key], float) for r in rows), key
        np.testing.assert_array_equal(column, expected, err_msg=key)


def test_every_result_field_is_a_checked_column():
    # the row checks take every field of a result, so the mean's correction,
    # which verify judges against, is held bit for bit with the rest
    fields = _fields(mean_clock_time(CLOCKS["qi8"], STATES["cat"], TIMES, 9.81, c=bench_c()))
    assert {"correction", "mean_t"} <= set(fields)


@pytest.mark.parametrize("state_name", sorted(STATES))
@pytest.mark.parametrize("clock_name", sorted(CLOCKS))
def test_batch_equals_its_rows(clock_name, state_name):
    clk, kstate = CLOCKS[clock_name], STATES[state_name]
    c = bench_c()
    quantities = [
        lambda t: {"error_trace": free_error_trace(clk, t)},
        lambda t: _reading(clk, t),
        lambda t: mean_clock_time(clk, kstate, t, 9.81, c=c),
    ]

    def breakdown(t):
        return sigma_breakdown(clk, kstate, t, c=c)

    if clock_name == "qubit":
        _assert_refused_row_by_row(breakdown, TIMES)
    else:
        quantities.append(breakdown)
    # a dial reads each ket's mean and spread, and centres its energy, by one
    # reduction per ket, the qubit by einsum loops, and an idealised clock
    # reads t and sigma_t0
    for fn in quantities:
        _assert_rows_match(fn(TIMES), [fn(t) for t in TIMES])


@pytest.mark.parametrize("clock_name", sorted(set(CLOCKS) - {"ideal"}))
def test_evolve_batch_equals_its_rows(clock_name):
    clk = CLOCKS[clock_name]
    kets = evolve(clk, TIMES)
    assert kets.shape == (TIMES.size, clk.dim)
    for t, row in zip(TIMES, kets):
        np.testing.assert_allclose(row, evolve(clk, t), rtol=1e-13, atol=0)
    assert evolve(clk, TIMES[0]).shape == (clk.dim,)


# ---------------------------------------------------------------------------
# guards hold row by row


def test_spread_guard_raises_on_one_bad_row():
    mean = np.array([1.0, 1.0, 1.0])
    second = np.array([2.0, 1.0 - 1e-9, 2.0])  # row 1: variance -1e-9 < -1e-12 <T^2>
    with pytest.raises(ValueError, match="negative variance"):
        spread_from_moments(mean[1], second[1])
    with pytest.raises(ValueError, match="negative variance"):
        spread_from_moments(mean, second)
    # inside the round-off band every row reads, the band row as 0
    ok = spread_from_moments(mean, np.array([2.0, 1.0 - 1e-13, 2.0]))
    np.testing.assert_array_equal(ok, [1.0, 0.0, 1.0])


def test_ideal_term_guard_raises_on_one_zero_row():
    sig = np.array([1e-5, 0.0, 1e-5])
    with pytest.raises(ValueError, match="must be positive"):
        sigma_ideal_term(bench_gaussian(), TIMES[1], sig[1], bench_c())
    with pytest.raises(ValueError, match="must be positive"):
        sigma_ideal_term(bench_gaussian(), TIMES[:3], sig, bench_c())


def test_breakdown_builds_no_time_stacked_operator():
    clk = build_quasi_ideal(128, BENCH_OMEGA, sigma_bar=np.sqrt(128.0), m0=32.0)
    times = np.linspace(0.1, 0.4, 200) * BENCH_PERIOD
    sigma_breakdown(clk, bench_cat(), times, c=bench_c())  # warm-up
    tracemalloc.start()
    try:
        sigma_breakdown(clk, bench_cat(), times, c=bench_c())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex (n_t, d, d) tensor takes 200 * 128 * 128 * 16 B = 52 MB
    assert peak < times.size * clk.dim**2 * 16


def test_dial_read_stores_no_square_operator():
    # build, mean reading and spread breakdown of a d = 1024 dial over 20
    # times stay below one complex d x d array: 1024 * 1024 * 16 B = 16 MiB
    d = 1024
    times = np.linspace(0.1, 0.4, 20) * BENCH_PERIOD
    tracemalloc.start()
    try:
        clk = build_quasi_ideal(d, BENCH_OMEGA, sigma_bar=np.sqrt(d), m0=d / 4.0)
        mean_clock_time(clk, bench_gaussian(), times, 9.81, c=bench_c())
        sigma_breakdown(clk, bench_gaussian(), times, c=bench_c())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 16


@pytest.mark.parametrize("clock_name", sorted(set(CLOCKS) - {"ideal"}))
def test_mean_clock_time_evolves_once(clock_name, monkeypatch):
    # the free reading and the error trace share one evolution of psi0
    from chronodil import clocks

    calls = []
    real = clocks.evolve
    monkeypatch.setattr(clocks, "evolve", lambda *args: calls.append(args) or real(*args))
    mean_clock_time(CLOCKS[clock_name], bench_gaussian(), TIMES, 9.81, c=bench_c())
    assert len(calls) == 1


@pytest.mark.parametrize("state_name", sorted(STATES))
@pytest.mark.parametrize("clock_name", sorted(CLOCKS))
def test_light_speed_stack_equals_its_rows(clock_name, state_name):
    # at one time, a 1-D c gives one value per light speed
    clk, kstate = CLOCKS[clock_name], STATES[state_name]
    quantities = [lambda c: mean_clock_time(clk, kstate, BENCH_T, 9.81, c=c)]

    def breakdown(c):
        return sigma_breakdown(clk, kstate, BENCH_T, c=c)

    if clock_name == "qubit":
        _assert_refused_row_by_row(breakdown, LIGHT_SPEEDS)
    else:
        quantities.append(breakdown)
    for fn in quantities:
        _assert_rows_match(fn(LIGHT_SPEEDS), [fn(c) for c in LIGHT_SPEEDS])


@pytest.mark.parametrize("order", ["c2", "c4"])
@pytest.mark.parametrize("g", [0.0, 9.81])
@pytest.mark.parametrize("state_name", sorted(STATES))
@pytest.mark.parametrize("clock_name", ["swp4", "qi8", "qubit"])
def test_oracle_light_speed_stack_equals_its_rows(clock_name, state_name, g, order):
    # on the stack's grid, entry l is the evolution at c[l]; the readings
    # and norms follow entry by entry
    clk, kstate = CLOCKS[clock_name], STATES[state_name]
    grid = default_momentum_grid(clk, kstate, BENCH_T, g, order, LIGHT_SPEEDS)
    stack = evolve_characteristics_g(clk, kstate, BENCH_T, g, order, LIGHT_SPEEDS, grid)
    assert stack.amplitudes.shape == (LIGHT_SPEEDS.size, clk.dim, grid.size)
    rows = [evolve_characteristics_g(clk, kstate, BENCH_T, g, order, c, grid)
            for c in LIGHT_SPEEDS]
    for amplitudes, row in zip(stack.amplitudes, rows):
        np.testing.assert_array_equal(amplitudes, row.amplitudes)
    np.testing.assert_array_equal(stack.norm(), [row.norm() for row in rows])
    for stacked, per_row in zip(clock_time_stats(stack, clk),
                                zip(*(clock_time_stats(row, clk) for row in rows))):
        assert np.shape(stacked) == LIGHT_SPEEDS.shape
        np.testing.assert_array_equal(stacked, per_row)


@pytest.mark.parametrize("g, scale, rows", [
    (0.0, 1.0, (1,)),
    (9.81, C_LIGHT / bench_c(), (1,)),
    (9.81, 1.0, (LIGHT_SPEEDS.size, 4)),
])
def test_oracle_sampled_grid_shape(g, scale, rows, monkeypatch):
    # at g = 0 every shift is 0, and at the physical c E_n g t / c^2 is below
    # one ulp of m g t, so the wavefunction is sampled once; at the scaled c
    # with gravity every clock row at every light speed has its own shift
    from chronodil import oracle

    grids = []
    real = oracle.to_grid
    monkeypatch.setattr(oracle, "to_grid",
                        lambda state, grid: grids.append(np.shape(grid)) or real(state, grid))
    js = evolve_characteristics_g(CLOCKS["swp4"], bench_gaussian(), BENCH_T, g,
                                  c=scale * LIGHT_SPEEDS)
    assert grids == [rows + (js.grid.size,)]
    assert js.amplitudes.shape == (LIGHT_SPEEDS.size, 4, js.grid.size)

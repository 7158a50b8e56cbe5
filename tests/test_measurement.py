import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chronodil import measurement
from chronodil.clocks import IdealisedClock, build_qubit_phase, build_swp
from chronodil.constants import ELECTRON_MASS
from chronodil.kinematics import CatState, GaussianState
from chronodil.measurement import _conditional_w_moments, conditioned_sigma
from chronodil.precision import w_of_p
from helpers import bin_edges, occupied_bins, unconditioned_sigma

# electron with a nanometre packet and a nanosecond reading profile; the
# base light speed is reduced so the motional coupling is resolvable
STATE = GaussianState(x0=0.0, p0=0.0, sigma_x=1e-9, mass=ELECTRON_MASS)
SIGMA_T0 = 1e-9
CLOCK = IdealisedClock(SIGMA_T0)
C_BENCH = STATE.sigma_p / (0.02 * ELECTRON_MASS)  # sigma_v / c = 0.02
T_BENCH = 1e-9


def probability(q: float, n: int) -> float:
    return conditioned_sigma(CLOCK, STATE, T_BENCH, q, n, c=C_BENCH).probability


# ---------------------------------------------------------------------------
# bin probabilities


def test_whole_line_bin_probability():
    assert abs(probability(200.0, 0) - 1.0) < 1e-12


def test_central_bin_one_sigma_each_side():
    # bin n = 0 with q = 2 covers [-sigma_p, sigma_p]
    assert np.isclose(probability(2.0, 0), 0.682689492137, atol=1e-10)


def test_bin_probability_parity():
    for n in (1, 2, 5):
        assert np.isclose(probability(0.7, n), probability(0.7, -n), rtol=1e-12)


@pytest.mark.parametrize("n", [10, 14])
def test_bin_probability_matches_mpmath_in_the_tail(n):
    # bins 10 and 14 at q = 0.5 hold about 1e-6 and 7e-12 of the packet; a
    # difference of two erf values near 1 keeps only a few digits there
    mpmath = pytest.importorskip("mpmath")
    lo, hi = bin_edges(STATE, 0.5, n)
    with mpmath.mp.workdps(50):
        a, b = (mpmath.mpf(edge) / (mpmath.sqrt(2) * mpmath.mpf(STATE.sigma_p)) for edge in (lo, hi))
        ref = float((mpmath.erf(b) - mpmath.erf(a)) / 2)
    assert abs(probability(0.5, n) - ref) <= 1e-12 * ref


def test_bin_probabilities_sum_to_one():
    total = sum(probability(0.5, n) for n in occupied_bins(STATE, 0.5))
    assert abs(total - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# conditional spread


def test_fine_measurement_restores_free_spread():
    res = conditioned_sigma(CLOCK, STATE, T_BENCH, 0.01, 0, c=C_BENCH)
    assert abs(res.sigma_t_given_n - SIGMA_T0) < 1e-3 * SIGMA_T0


def test_coarse_measurement_recovers_nothing():
    res = conditioned_sigma(CLOCK, STATE, T_BENCH, 1e3, 0, c=C_BENCH)
    unconditioned = unconditioned_sigma(CLOCK, STATE, T_BENCH, c=C_BENCH)
    assert abs(res.sigma_t_given_n - unconditioned) < 0.01 * unconditioned


def test_conditioned_never_beats_free_spread():
    for q in (0.05, 0.5, 2.0, 20.0):
        res = conditioned_sigma(CLOCK, STATE, T_BENCH, q, 0, c=C_BENCH)
        assert res.sigma_t_given_n >= SIGMA_T0 - 1e-12


def test_empty_bin_raises():
    # the message prints plain numbers, not numpy reprs, for a numpy bin width too
    for q in (0.5, np.float64(0.5)):
        with pytest.raises(ValueError, match=r"^momentum bin \[[0-9.e+-]+, [0-9.e+-]+\) "
                                             r"carries no probability \([0-9.e+-]+\)$"):
            conditioned_sigma(CLOCK, STATE, T_BENCH, q, 60, c=C_BENCH)


def test_monotone_in_coarseness_and_time():
    qs = (0.1, 0.5, 1.0, 3.0, 10.0, 100.0)
    sigmas = [conditioned_sigma(CLOCK, STATE, T_BENCH, q, 0, c=C_BENCH).sigma_t_given_n
              for q in qs]
    assert all(b >= a - 1e-18 for a, b in zip(sigmas, sigmas[1:]))
    times = (0.0, 0.5 * T_BENCH, T_BENCH, 2.0 * T_BENCH)
    sigmas_t = [conditioned_sigma(CLOCK, STATE, t, 1.0, 0, c=C_BENCH).sigma_t_given_n
                for t in times]
    assert all(b >= a - 1e-18 for a, b in zip(sigmas_t, sigmas_t[1:]))


def test_refinement_recovers_precision_on_nested_binnings():
    sigmas = [conditioned_sigma(CLOCK, STATE, T_BENCH, q, 0, c=C_BENCH).sigma_t_given_n
              for q in (4.0, 2.0, 1.0, 0.5, 0.25)]
    assert all(b <= a + 1e-18 for a, b in zip(sigmas, sigmas[1:]))


def _assert_total_variance_law(state):
    total_sigma = unconditioned_sigma(CLOCK, state, T_BENCH, c=C_BENCH)
    mean_total = 0.0
    pieces = []
    for n in occupied_bins(state, 0.8):
        res = conditioned_sigma(CLOCK, state, T_BENCH, 0.8, n, c=C_BENCH)
        pieces.append(res)
        mean_total += res.probability * res.mean_t_given_n
    var_sum = sum(r.probability * (r.sigma_t_given_n**2 + (r.mean_t_given_n - mean_total) ** 2)
                  for r in pieces)
    assert abs(var_sum - total_sigma**2) < 1e-8 * total_sigma**2


def test_law_of_total_variance():
    _assert_total_variance_law(STATE)


def test_law_of_total_variance_far_from_rest():
    # the unconditioned spread covers the whole packet wherever its mean
    # momentum sits, not only the part near zero momentum
    _assert_total_variance_law(GaussianState(x0=0.0, p0=24.0 * STATE.sigma_p,
                                             sigma_x=1e-9, mass=ELECTRON_MASS))


def _mpmath_w_moments(mpmath, state, lo, hi, c):
    """(probability, E[W | bin], var(W | bin)) at 60 digits: erf for the
    probability, tanh-sinh quadrature for the W moments."""
    mp = mpmath.mp
    with mp.workdps(60):
        p0, sp, m, c = (mp.mpf(v) for v in (state.p0, state.sigma_p, state.mass, c))
        a, b = (mp.mpf(lo) - p0) / sp, (mp.mpf(hi) - p0) / sp

        def w(u):
            p = p0 + sp * u
            return -p**2 / (2 * m**2 * c**2) + 3 * p**4 / (8 * m**4 * c**4)

        def phi(u):
            return mp.exp(-u**2 / 2) / mp.sqrt(2 * mp.pi)

        prob = (mp.erf(b / mp.sqrt(2)) - mp.erf(a / mp.sqrt(2))) / 2
        mean_w = mp.quad(lambda u: w(u) * phi(u), [a, b]) / prob
        var_w = mp.quad(lambda u: (w(u) - mean_w) ** 2 * phi(u), [a, b]) / prob
        return float(prob), float(mean_w), float(var_w)


@pytest.mark.parametrize("q", [1e-4, 1e-2, 1.0, 10.0])
@pytest.mark.parametrize("p0_sigmas", [0.0, 1.3, 30.0])
def test_conditional_w_moments_match_mpmath(p0_sigmas, q):
    mpmath = pytest.importorskip("mpmath")
    state = GaussianState(x0=0.0, p0=p0_sigmas * STATE.sigma_p, sigma_x=1e-9,
                          mass=ELECTRON_MASS)
    # bin 0 (what the CLI reads) and the bin holding the mean momentum
    bins = {0, int(np.floor(state.p0 / (q * state.sigma_p) + 0.5))}
    checked = 0
    for n in sorted(bins):
        lo, hi = bin_edges(state, q, n)
        if hi < state.p0 - 12.0 * state.sigma_p:
            continue  # outside the support the rule integrates over
        prob, mean_w, var_w = _conditional_w_moments(state, lo, hi, C_BENCH)
        ref_prob, ref_mean, ref_var = _mpmath_w_moments(mpmath, state, lo, hi, C_BENCH)
        assert abs(prob - ref_prob) <= 1e-12 * ref_prob
        assert abs(mean_w - ref_mean) <= 1e-9 * abs(ref_mean)
        assert abs(var_w - ref_var) <= 1e-9 * ref_var
        checked += 1
    assert checked >= 1


def test_quartic_light_speed_scaling():
    def excess(c):
        res = conditioned_sigma(CLOCK, STATE, T_BENCH, 5.0, 0, c=c)
        return res.sigma_t_given_n - SIGMA_T0

    ratio = excess(C_BENCH) / excess(2.0 * C_BENCH)
    assert abs(ratio - 16.0) < 0.5


def test_conditional_reduction_matches_joint_grid_oracle():
    # independent oracle: idealised clock as a Gaussian profile on a clock
    # time grid, joint state on a 256 x 256 (T, p) grid, conditioned by
    # restricting the momentum column range and renormalising
    n_grid = 256
    t_axis = np.linspace(-8.0 * SIGMA_T0, 8.0 * SIGMA_T0 + 2.0 * T_BENCH, n_grid)
    p_axis = np.linspace(-8.0 * STATE.sigma_p, 8.0 * STATE.sigma_p, n_grid)
    tt, pp = np.meshgrid(t_axis, p_axis, indexing="ij")
    shift = T_BENCH * (1.0 + w_of_p(pp, ELECTRON_MASS, C_BENCH))
    profile = np.exp(-((tt - shift) ** 2) / (4.0 * SIGMA_T0**2))
    kin = np.exp(-(pp**2) / (4.0 * STATE.sigma_p**2))
    density = np.abs(profile * kin) ** 2

    lo, hi = bin_edges(STATE, 1.5, 0)
    cols = (p_axis >= lo) & (p_axis < hi)
    conditioned = density[:, cols].sum(axis=1)
    conditioned /= conditioned.sum()
    mean = float(np.sum(t_axis * conditioned))
    sigma_oracle = float(np.sqrt(np.sum((t_axis - mean) ** 2 * conditioned)))

    res = conditioned_sigma(CLOCK, STATE, T_BENCH, 1.5, 0, c=C_BENCH)
    assert abs(res.sigma_t_given_n - sigma_oracle) < 1e-6 * sigma_oracle


def test_conditioned_sigma_over_an_array_of_times_equals_its_rows():
    # the CLI's measurement table is one call per q on its time grid
    times = np.linspace(0.0, 10.0 * T_BENCH, 101)
    for q in (1e-4, 0.3, 1.0, 10.0):
        batch = conditioned_sigma(CLOCK, STATE, times, q, 0, c=C_BENCH)
        for i, t in enumerate(times.tolist()):
            row = conditioned_sigma(CLOCK, STATE, t, q, 0, c=C_BENCH)
            assert row.probability == batch.probability
            assert batch.sigma_t_given_n[i] == row.sigma_t_given_n, (q, t)
            assert batch.mean_t_given_n[i] == row.mean_t_given_n, (q, t)


def test_infinite_bin_is_no_measurement():
    # bin 0 of an infinite width covers the whole momentum line
    for t in (0.0, 0.5 * T_BENCH, T_BENCH, 7.0 * T_BENCH):
        res = conditioned_sigma(CLOCK, STATE, t, math.inf, 0, c=C_BENCH)
        assert res.sigma_t_given_n == unconditioned_sigma(CLOCK, STATE, t, c=C_BENCH)
    assert abs(res.probability - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, -1, 2])
def test_infinite_width_has_only_bin_0(n):
    # inf - inf would make its edges NaN, and (n - 1/2) inf with n < 0 an empty [-inf, -inf)
    message = f"^only bin 0 exists at infinite width q, got bin {n}$"
    with pytest.raises(ValueError, match=message):
        conditioned_sigma(CLOCK, STATE, T_BENCH, math.inf, n, c=C_BENCH)


def _sweep(times, q_values):
    # the layout of the CLI's measurement table: t outer, q inner
    unconditioned = conditioned_sigma(CLOCK, STATE, times, math.inf, 0,
                                      c=C_BENCH).sigma_t_given_n
    per_q = [conditioned_sigma(CLOCK, STATE, times, q, 0, c=C_BENCH).sigma_t_given_n
             for q in q_values]
    return [(sigma[i], unconditioned[i]) for i in range(len(times)) for sigma in per_q]


def test_sweep_shape_and_invariants():
    rows = _sweep(np.array([0.5 * T_BENCH, T_BENCH, 2.0 * T_BENCH]), [0.1, 1.0, 10.0])
    assert len(rows) == 9
    for sigma_conditioned, sigma_unconditioned in rows:
        assert SIGMA_T0 <= sigma_conditioned <= sigma_unconditioned + 1e-12
        assert np.isfinite(sigma_conditioned)


def test_quadrature_rule_is_built_once(monkeypatch):
    # the sweep reads the unconditioned moments and one bin per q through
    # one Gauss-Legendre rule, built on first use
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    measurement._legendre_rule.cache_clear()
    _sweep(np.array([T_BENCH]), [0.1, 1.0, 10.0])
    probability(1.0, 1)
    assert calls == [24]


def test_import_builds_no_quadrature_rule():
    # the rule waits for its first use, so the import loads no numpy.polynomial
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, chronodil.measurement\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["[]"]


def test_binning_validation():
    # a NaN width compares false against 0: it is rejected here, not inside the rule
    for q in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^the bin width q must be positive, got {q}$"):
            conditioned_sigma(CLOCK, STATE, T_BENCH, q, 0, c=C_BENCH)


@pytest.mark.parametrize("sigma_t0", [math.nan, math.inf, -1.0])
def test_conditioned_sigma_rejects_a_bad_reading_spread(sigma_t0):
    # the clock refuses it when it is built, before any conditioning
    with pytest.raises(ValueError, match="sigma_t0 must be finite and non-negative"):
        conditioned_sigma(IdealisedClock(sigma_t0), STATE, T_BENCH, 1.0, 0, c=C_BENCH)


@pytest.mark.parametrize("clock", [
    build_swp(4, 2.0 * math.pi / T_BENCH),
    build_qubit_phase(2.0 * math.pi / T_BENCH),
    SIGMA_T0,
], ids=["dial", "qubit", "float"])
def test_conditioned_sigma_rejects_a_clock_that_is_not_idealised(clock):
    # a matrix clock would add a non-idealised cross term, not derived here
    with pytest.raises(TypeError, match="conditioning needs an IdealisedClock"):
        conditioned_sigma(clock, STATE, T_BENCH, 1.0, 0, c=C_BENCH)


def test_bin_index_is_an_integer():
    # n = 0.5 would integrate [0, sigma_p), which is no bin of the partition
    for n in (0.5, 1.0, np.float64(0.0)):
        with pytest.raises(TypeError):
            conditioned_sigma(CLOCK, STATE, T_BENCH, 1.0, n, c=C_BENCH)
    assert probability(1.0, np.int64(1)) == probability(1.0, 1) > 0.0


@pytest.mark.parametrize("kstate", [
    CatState(base=STATE, delta_x0=3e-9, alpha=0.5, theta=0.7),
], ids=["cat"])
def test_conditioned_sigma_rejects_a_state_it_cannot_bin(kstate):
    # the bin rule integrates one Gaussian momentum density
    with pytest.raises(TypeError, match="conditioning needs a GaussianState"):
        conditioned_sigma(CLOCK, kstate, T_BENCH, 1.0, 0, c=C_BENCH)

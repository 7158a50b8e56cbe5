"""Every public function that takes a light speed rejects one that is not
finite and positive, or a stack that is not 1-D, where it takes it in."""

import math

import numpy as np
import pytest

from chronodil.clocks import IdealisedClock, build_swp
from chronodil.dilation import mean_clock_time, t_coh
from chronodil.measurement import conditioned_sigma
from chronodil.oracle import default_momentum_grid, evolve_characteristics_g
from chronodil.precision import sigma_breakdown
from helpers import BENCH_OMEGA, BENCH_T, bench_cat, bench_gaussian

CLOCK = build_swp(4, BENCH_OMEGA)
GAUSSIAN = bench_gaussian()

CALLS = {
    "mean_clock_time": lambda c: mean_clock_time(CLOCK, GAUSSIAN, BENCH_T, 9.81, c=c),
    "t_coh": lambda c: t_coh(bench_cat(), BENCH_T, 9.81, c=c),
    "sigma_breakdown": lambda c: sigma_breakdown(CLOCK, GAUSSIAN, BENCH_T, c=c),
    "conditioned_sigma": lambda c: conditioned_sigma(
        IdealisedClock(1e-9), GAUSSIAN, BENCH_T, 1.0, 0, c=c),
    "evolve_characteristics_g": lambda c: evolve_characteristics_g(
        CLOCK, GAUSSIAN, BENCH_T, 9.81, c=c),
    "default_momentum_grid": lambda c: default_momentum_grid(CLOCK, GAUSSIAN, BENCH_T, 9.81, c=c),
}

BAD = [math.nan, math.inf, 0.0, -3e8, np.full((2, 1), 3e8)]


@pytest.mark.parametrize("c", BAD, ids=["nan", "inf", "zero", "negative", "2d"])
@pytest.mark.parametrize("name", CALLS)
def test_bad_light_speed_is_rejected(name, c):
    with pytest.raises(ValueError, match="light speed c must be finite and positive"):
        CALLS[name](c)

"""Seeded inputs of the four benchmark workloads.

Each workload is a fixed list of CLI operations.  The seed draws only
values that leave the amount of work unchanged: the offset of the time
grid, the cat phase theta, the mean momentum in units of sigma_p and the
jitter of the measurement q grid.  All of them stay inside the regime of
the acceptance suite, so no operation is expected to fail.  Seed 0 is
the baseline.

An operation is a CLI command plus its configuration, kept as a
``{section: {key: value}}`` mapping so that the reference checks read the
same parameters the program receives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# pinned as in chronodil.constants; the reference checks use the same values
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
ELECTRON_MASS = 9.1093837015e-31

# oracle regime of the acceptance suite: a heavy-atom packet and a light
# speed scaled down so that sigma_v / c = 0.05
BENCH_MASS = 1e-25
BENCH_SIGMA_X = 3e-7
BENCH_SIGMA_P = HBAR / (2.0 * BENCH_SIGMA_X)
BENCH_PERIOD = 2e-3
BENCH_OMEGA = 2.0 * math.pi / BENCH_PERIOD
BENCH_C_SCALE = BENCH_SIGMA_P / BENCH_MASS / 0.05 / C_LIGHT

ALUMINIUM_CONFIG = Path("configs") / "aluminium.cfg"

WORKLOADS = ("clock_large", "clock_small", "oracle_verify", "cli_cold")


@dataclass
class Op:
    """One CLI call: ``chronodil <command> --config <file> --out <csv> --no-timestamp``.

    ``config_file`` names a configuration that exists in the repository;
    otherwise ``sections`` is rendered into a file of the benchmark's own.
    """

    name: str
    command: str
    sections: dict
    config_file: str | None = None

    def config_text(self) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {_render(value)}" for key, value in keys.items()]
            lines.append("")
        return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_flat_config(text: str) -> dict:
    """Sections and typed values of a flat ``key = value`` configuration."""
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]").strip(), {})
            continue
        key, _, value = line.partition("=")
        current[key.strip()] = _typed(value.strip())
    return sections


def _typed(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def _gaussian(p0_sigmas: float) -> dict:
    return {"type": "gaussian", "x0": 0.0, "p0": p0_sigmas * BENCH_SIGMA_P,
            "sigma_x": BENCH_SIGMA_X, "mass": BENCH_MASS}


def _cat(p0_sigmas: float, theta: float) -> dict:
    return {**_gaussian(p0_sigmas), "type": "cat", "delta_x0": 3.0 * BENCH_SIGMA_X,
            "alpha": 0.5, "theta": theta}


def _quasi_ideal(d: int, sigma_bar: float, m0: float) -> dict:
    return {"model": "quasi_ideal", "d": d, "omega": BENCH_OMEGA,
            "sigma_bar": sigma_bar, "m0": m0}


def _grid(start: float, stop: float, num: int, g: float) -> dict:
    return {"g": g, "t_start": start, "t_stop": stop, "t_num": num,
            "c_scale": BENCH_C_SCALE}


def _run(command: str) -> dict:
    return {"command": command, "seed": 0}


class _Draws:
    """The seeded values; every workload draws them in the same order."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.offset = rng.random()
        self.theta = 0.3 + 0.8 * rng.random()
        self.p0_sigmas = 2.75 + 0.5 * rng.random()
        self.q_jitter = [rng.uniform(-0.25, 0.25) for _ in range(5)]


def clock_large(draws: _Draws) -> list[Op]:
    # the quasi-ideal dial starts a quarter turn in, so times up to half a
    # period stay clear of the dial cut
    start = (0.05 + 0.1 * draws.offset) * BENCH_PERIOD
    stop = start + 0.3 * BENCH_PERIOD
    return [
        Op("dilation_qi256", "dilation", {
            "run": _run("dilation"),
            "clock": _quasi_ideal(256, 16.0, 64.0),
            "kinematics": _gaussian(draws.p0_sigmas),
            "physics": _grid(start, stop, 20, 9.81),
        }),
        Op("precision_qi128", "precision", {
            "run": _run("precision"),
            "clock": _quasi_ideal(128, math.sqrt(128.0), 32.0),
            "kinematics": _cat(draws.p0_sigmas, draws.theta),
            "physics": _grid(start, stop, 20, 0.0),
        }),
    ]


def clock_small(draws: _Draws) -> list[Op]:
    start = (0.05 + 0.1 * draws.offset) * BENCH_PERIOD
    # the d = 4 dial refocuses into a time eigenstate (zero spread) every
    # quarter period; the precision grid stays inside one quarter
    step = BENCH_PERIOD / 4.0
    p_start = (0.1 + 0.1 * draws.offset) * step
    return [
        Op("dilation_qubit", "dilation", {
            "run": _run("dilation"),
            "clock": {"model": "qubit_phase", "omega": BENCH_OMEGA},
            "kinematics": _cat(draws.p0_sigmas, draws.theta),
            "physics": _grid(start, start + 0.8 * BENCH_PERIOD, 2000, 9.81),
        }),
        Op("precision_swp4", "precision", {
            "run": _run("precision"),
            "clock": {"model": "swp", "d": 4, "omega": BENCH_OMEGA},
            "kinematics": _gaussian(draws.p0_sigmas),
            "physics": _grid(p_start, p_start + 0.7 * step, 2000, 0.0),
        }),
    ]


def oracle_verify(draws: _Draws) -> list[Op]:
    # one time per config: verify reads only the first time of a grid
    t = (0.27 + 0.01 * draws.offset) * BENCH_PERIOD

    def case(name, clock, kinematics, g, target="mean_time"):
        return Op(name, "verify", {
            "run": _run("verify"),
            "clock": clock,
            "kinematics": kinematics,
            "physics": {"g": g, "t": t, "c_scale": BENCH_C_SCALE},
            "verify": {"target": target, "c_scalings": (1.0, 2.0, 4.0)},
        })

    surrogate = _quasi_ideal(64, 8.0, 16.0)
    return [
        case("verify_swp4_gaussian_g", {"model": "swp", "d": 4, "omega": BENCH_OMEGA},
             _gaussian(draws.p0_sigmas), 9.81),
        case("verify_qi8_cat_g", _quasi_ideal(8, math.sqrt(8.0), 2.0),
             _cat(draws.p0_sigmas, draws.theta), 9.81),
        case("verify_qubit_cat_g", {"model": "qubit_phase", "omega": BENCH_OMEGA},
             _cat(draws.p0_sigmas, draws.theta), 9.81),
        case("verify_qi64_cat_g0", surrogate, _cat(draws.p0_sigmas, draws.theta), 0.0),
        case("verify_qi64_rest_sigma", surrogate, _gaussian(0.0), 0.0, target="sigma"),
    ]


def cli_cold(draws: _Draws, root: Path) -> list[Op]:
    aluminium = parse_flat_config((root / ALUMINIUM_CONFIG).read_text(encoding="utf-8"))
    # measurement regime of acceptance criterion 8: an electron with
    # sigma_v / c = 0.1 read by an idealised clock
    sigma_x = 1e-9
    sigma_p = HBAR / (2.0 * sigma_x)
    t0 = (1.0 + draws.offset) * 1e-9
    q_values = (1e-4,) + tuple(10.0 ** (k - 3 + j) for k, j in enumerate(draws.q_jitter))
    sweep_cat = dict(aluminium["kinematics"], theta=draws.theta)
    return [
        Op("coherence_aluminium", "coherence", aluminium, config_file=str(ALUMINIUM_CONFIG)),
        Op("measurement_electron", "measurement", {
            "run": _run("measurement"),
            "clock": {"model": "idealised", "sigma_t0": 1e-9},
            "kinematics": {"type": "gaussian", "x0": 0.0,
                           "p0": (draws.p0_sigmas - 2.75) * 2.0 * sigma_p,
                           "sigma_x": sigma_x, "mass": ELECTRON_MASS},
            "physics": {"g": 0.0, "t_start": t0, "t_stop": t0 + 9e-9, "t_num": 100,
                        "c_scale": sigma_p / (0.1 * ELECTRON_MASS) / C_LIGHT},
            "measurement": {"q_values": q_values, "bin": 0},
        }),
        Op("sweep_aluminium", "sweep", {
            "run": _run("sweep"),
            "kinematics": sweep_cat,
            "physics": {"g": 9.81, "t": 1.0 + draws.offset, "c_scale": 1.0},
            "sweep": {"start": 0.1, "stop": 8.0, "num": 2000},
        }),
    ]


def build(workload: str, seed: int, root: Path) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    draws = _Draws(seed)
    if workload == "cli_cold":
        return cli_cold(draws, root)
    return {"clock_large": clock_large, "clock_small": clock_small,
            "oracle_verify": oracle_verify}[workload](draws)

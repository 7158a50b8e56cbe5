"""Strict flat key-value run configuration.

Format: ``key = value`` lines grouped under ``[section]`` headers, ``#``
comments, blank lines ignored. Unknown sections or keys are errors, as
are missing required keys, values of the wrong type and non-finite
numbers, each naming its line. The library checks value ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT
from .clocks import IdealisedClock, build_quasi_ideal, build_qubit_phase, build_swp
from .kinematics import CatState, GaussianState

COMMANDS = ("dilation", "coherence", "precision", "measurement", "verify", "sweep")


def linear_grid(start: float, stop: float, num: int) -> np.ndarray:
    """``num`` evenly spaced values from ``start`` to ``stop``: cell i is
    ``start + (stop - start) * i / (num - 1)``, the same IEEE operations in
    the same order as that scalar formula, so the same bits. Raises
    ValueError when ``num`` is below 2."""
    if num < 2:
        raise ValueError(f"a linear grid needs at least 2 points, got num = {num}")
    return start + (stop - start) * np.arange(num) / (num - 1)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class KeySpec:
    kind: str  # 'float' | 'int' | 'str' | 'float_list'
    required: bool = False
    default: object = None
    choices: tuple | None = None


_SCHEMA: dict[str, dict[str, KeySpec]] = {
    "run": {
        "command": KeySpec("str", required=True, choices=COMMANDS),
        "seed": KeySpec("int", default=0),
    },
    "clock": {
        "model": KeySpec("str", choices=("swp", "quasi_ideal", "qubit_phase", "idealised"),
                         default="idealised"),
        "d": KeySpec("int", default=None),
        "omega": KeySpec("float", default=None),
        "sigma_bar": KeySpec("float", default=None),
        "m0": KeySpec("float", default=None),
        "sigma_t0": KeySpec("float", default=0.0),
    },
    "kinematics": {
        "type": KeySpec("str", required=True, choices=("gaussian", "cat")),
        "x0": KeySpec("float", default=0.0),
        "p0": KeySpec("float", default=0.0),
        "sigma_x": KeySpec("float", required=True),
        "mass": KeySpec("float", required=True),
        "delta_x0": KeySpec("float", default=0.0),
        "alpha": KeySpec("float", default=0.5),
        "theta": KeySpec("float", default=0.0),
    },
    "physics": {
        "g": KeySpec("float", default=9.81),
        "t": KeySpec("float", default=None),
        "t_start": KeySpec("float", default=None),
        "t_stop": KeySpec("float", default=None),
        "t_num": KeySpec("int", default=None),
        "c_scale": KeySpec("float", default=1.0),
    },
    "verify": {
        "target": KeySpec("str", choices=("mean_time", "sigma"), default="mean_time"),
        "c_scalings": KeySpec("float_list", default=(1.0, 2.0, 4.0)),
    },
    "measurement": {
        "q_values": KeySpec("float_list", default=(0.1, 1.0, 10.0)),
        "bin": KeySpec("int", default=0),
    },
    "sweep": {
        "start": KeySpec("float", default=0.1),
        "stop": KeySpec("float", default=8.0),
        "num": KeySpec("int", default=50),
    },
}

@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)  # (section, key) -> typed value
    raw_lines: list = field(default_factory=list)  # (section, key, raw string) in file order

    def get(self, section: str, key: str):
        if (section, key) in self.values:
            return self.values[(section, key)]
        return _SCHEMA[section][key].default

    # ---- builders ------------------------------------------------------

    def clock(self):
        model = self.get("clock", "model")
        if model == "idealised":
            return IdealisedClock(sigma_t0=self.get("clock", "sigma_t0"))
        omega = self.get("clock", "omega")
        if omega is None:
            raise ConfigError(f"clock model {model!r} needs key 'omega' in [clock]")
        if model == "qubit_phase":
            return build_qubit_phase(omega)
        d = self.get("clock", "d")
        if d is None:
            raise ConfigError(f"clock model {model!r} needs key 'd' in [clock]")
        if model == "swp":
            return build_swp(d, omega)
        sigma_bar = self.get("clock", "sigma_bar")
        if sigma_bar is None:
            raise ConfigError("clock model 'quasi_ideal' needs key 'sigma_bar' in [clock]")
        m0 = self.get("clock", "m0")
        m0 = d / 2.0 if m0 is None else m0
        return build_quasi_ideal(d, omega, sigma_bar, m0)

    def kinematic_state(self):
        base = GaussianState(
            x0=self.get("kinematics", "x0"),
            p0=self.get("kinematics", "p0"),
            sigma_x=self.get("kinematics", "sigma_x"),
            mass=self.get("kinematics", "mass"),
        )
        if self.get("kinematics", "type") == "gaussian":
            return base
        return CatState(
            base=base,
            delta_x0=self.get("kinematics", "delta_x0"),
            alpha=self.get("kinematics", "alpha"),
            theta=self.get("kinematics", "theta"),
        )

    def times(self) -> np.ndarray:
        """The lab times: ``t`` alone, or the ``linear_grid`` of the time grid keys."""
        t = self.get("physics", "t")
        return np.array([t]) if t is not None else linear_grid(*self._time_grid())

    def _time_grid(self) -> tuple[float, float, int]:
        start, stop, num = (self.get("physics", "t_start"), self.get("physics", "t_stop"),
                            self.get("physics", "t_num"))
        if start is None or stop is None or num is None:
            raise ConfigError("[physics] needs either 't' or all of 't_start', 't_stop', 't_num'")
        return start, stop, num

    def c_light(self) -> float:
        return self.get("physics", "c_scale") * C_LIGHT


def _parse_scalar(raw: str, spec: KeySpec, key: str, line_no: int):
    if spec.kind == "str":
        value = raw
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"key {key!r}: value {value!r} not one of {spec.choices}", line_no)
        return value
    if spec.kind == "float_list":
        try:
            values = tuple(float(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"key {key!r}: expected comma-separated floats, got {raw!r}", line_no)
        if any(not math.isfinite(v) for v in values):
            raise ConfigError(f"key {key!r}: non-finite value in {raw!r}", line_no)
        return values
    try:
        value = int(raw) if spec.kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {spec.kind}, got {raw!r}", line_no)
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: non-finite value {raw!r}", line_no)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration, rejecting anything unknown."""
    section = None
    values: dict = {}
    raw_lines: list = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section {section!r}", line_no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        if section is None:
            raise ConfigError("key outside any [section]", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", line_no)
        if (section, key) in values:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", line_no)
        values[(section, key)] = _parse_scalar(raw_value, _SCHEMA[section][key], key, line_no)
        raw_lines.append((section, key, raw_value))

    # every required key sits in [run] or [kinematics], which every command reads
    for sec, specs in _SCHEMA.items():
        for key, spec in specs.items():
            if spec.required and (sec, key) not in values:
                raise ConfigError(f"missing required key {key!r} in section [{sec}]")
    cfg = RunConfig(command=values[("run", "command")], values=values, raw_lines=raw_lines)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: RunConfig) -> None:
    """The cross-key rules no library function can see: a g the command's
    function does not take, the time grid, and the cat that ``sweep`` reshapes
    before ``t_coh`` sees it. The library checks whatever it takes in."""
    if cfg.command == "sweep" and cfg.get("kinematics", "type") != "cat":
        raise ConfigError("command 'sweep' needs kinematics type 'cat'")
    sigma_target = cfg.command == "verify" and cfg.get("verify", "target") == "sigma"
    if cfg.get("physics", "g") != 0.0 and (sigma_target or cfg.command in ("precision", "measurement")):
        what = "command 'verify' with target 'sigma'" if sigma_target else f"command {cfg.command!r}"
        raise ConfigError(f"{what} is defined at g = 0; set g = 0 in [physics]")
    if cfg.get("physics", "t") is None:
        cfg._time_grid()  # raises when the time grid keys are incomplete
        if cfg.command in ("verify", "sweep"):  # a grid holds at least two times
            raise ConfigError(f"command {cfg.command!r} runs at a single time; "
                              "give 't' in [physics], not a time grid")
    else:
        grid_keys = [key for key in ("t_start", "t_stop", "t_num")
                     if ("physics", key) in cfg.values]
        if grid_keys:
            raise ConfigError(f"[physics] gives 't' and the time grid keys {grid_keys}; "
                              "give 't' or the time grid, not both")


def echo_lines(cfg: RunConfig) -> list[str]:
    """Config echo for CSV metadata; re-parsing these lines reproduces the
    configuration."""
    lines = []
    current = None
    for section, key, raw_value in cfg.raw_lines:
        if section != current:
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {raw_value}")
    return lines

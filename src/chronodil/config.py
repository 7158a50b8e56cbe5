"""Strict flat key-value run configuration.

Format: ``key = value`` lines grouped under ``[section]`` headers, ``#``
comments, blank lines ignored. Unknown sections or keys are errors, as
are missing required keys, values of the wrong type, out-of-range values
and non-finite numbers. Every error names the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .clocks import IdealisedClock, build_quasi_ideal, build_qubit_phase, build_swp
from .kinematics import CatState, GaussianState

COMMANDS = ("dilation", "coherence", "precision", "measurement", "verify", "sweep")


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
    low: float | None = None
    high: float | None = None
    open_low: bool = False
    open_high: bool = False


_SCHEMA: dict[str, dict[str, KeySpec]] = {
    "run": {
        "command": KeySpec("str", required=True, choices=COMMANDS),
        "seed": KeySpec("int", default=0),
        "out": KeySpec("str", default=None),
    },
    "clock": {
        "model": KeySpec("str", choices=("swp", "quasi_ideal", "qubit_phase", "idealised"),
                         default="idealised"),
        "d": KeySpec("int", low=2, default=None),
        "omega": KeySpec("float", low=0.0, open_low=True, default=None),
        "sigma_bar": KeySpec("float", low=0.0, open_low=True, default=None),
        "m0": KeySpec("float", default=None),
        "n0": KeySpec("float", default=None),
        "sigma_t0": KeySpec("float", low=0.0, default=0.0),
    },
    "kinematics": {
        "type": KeySpec("str", required=True, choices=("gaussian", "cat")),
        "x0": KeySpec("float", default=0.0),
        "p0": KeySpec("float", default=0.0),
        "sigma_x": KeySpec("float", required=True, low=0.0, open_low=True),
        "mass": KeySpec("float", required=True, low=0.0, open_low=True),
        "delta_x0": KeySpec("float", low=0.0, default=0.0),
        "alpha": KeySpec("float", low=0.0, high=1.0, open_low=True, open_high=True, default=0.5),
        "theta": KeySpec("float", default=0.0),
    },
    "physics": {
        "g": KeySpec("float", default=9.81),
        "t": KeySpec("float", default=None),
        "t_start": KeySpec("float", default=None),
        "t_stop": KeySpec("float", default=None),
        "t_num": KeySpec("int", low=2, default=None),
        "c_scale": KeySpec("float", low=0.0, open_low=True, default=1.0),
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
        "num": KeySpec("int", low=2, default=50),
    },
}

_REQUIRED_SECTIONS = {
    "dilation": ("run", "clock", "kinematics", "physics"),
    "coherence": ("run", "kinematics", "physics"),
    "precision": ("run", "clock", "kinematics", "physics"),
    "measurement": ("run", "clock", "kinematics", "physics", "measurement"),
    "verify": ("run", "clock", "kinematics", "physics", "verify"),
    "sweep": ("run", "kinematics", "physics", "sweep"),
}


@dataclass
class RunConfig:
    command: str
    values: dict = field(default_factory=dict)  # (section, key) -> typed value
    raw_lines: list = field(default_factory=list)  # (section, key, raw string) in file order
    seed: int = 0
    out: str | None = None

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
        return build_quasi_ideal(d, omega, sigma_bar, m0, self.get("clock", "n0"))

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

    def times(self) -> list[float]:
        t = self.get("physics", "t")
        if t is not None:
            return [t]
        start, stop, num = (self.get("physics", "t_start"), self.get("physics", "t_stop"),
                            self.get("physics", "t_num"))
        if start is None or stop is None or num is None:
            raise ConfigError("[physics] needs either 't' or all of 't_start', 't_stop', 't_num'")
        return [start + (stop - start) * i / (num - 1) for i in range(num)]

    def c_light(self) -> float:
        from .constants import C_LIGHT

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
    if spec.low is not None and (value <= spec.low if spec.open_low else value < spec.low):
        bound = "greater than" if spec.open_low else "at least"
        raise ConfigError(f"key {key!r}: value {value!r} must be {bound} {spec.low}", line_no)
    if spec.high is not None and (value >= spec.high if spec.open_high else value > spec.high):
        bound = "less than" if spec.open_high else "at most"
        raise ConfigError(f"key {key!r}: value {value!r} must be {bound} {spec.high}", line_no)
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

    if ("run", "command") not in values:
        raise ConfigError("missing required key 'command' in section [run]")
    command = values[("run", "command")]
    for sec in _REQUIRED_SECTIONS[command]:
        for key, spec in _SCHEMA[sec].items():
            if spec.required and (sec, key) not in values:
                raise ConfigError(f"missing required key {key!r} in section [{sec}]")
    cfg = RunConfig(command=command, values=values, raw_lines=raw_lines,
                    seed=values.get(("run", "seed"), 0), out=values.get(("run", "out")))
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg: RunConfig) -> None:
    if cfg.command in ("coherence", "sweep") and cfg.get("kinematics", "type") != "cat":
        raise ConfigError(f"command {cfg.command!r} needs kinematics type 'cat'")
    if cfg.command in ("precision", "measurement") and cfg.get("physics", "g") != 0.0:
        raise ConfigError(f"command {cfg.command!r} is defined at g = 0; set g = 0 in [physics]")
    if cfg.command == "measurement":
        if cfg.get("clock", "model") != "idealised":
            raise ConfigError("command 'measurement' needs clock model 'idealised'")
        if cfg.get("clock", "sigma_t0") <= 0.0:
            raise ConfigError("command 'measurement' needs a positive sigma_t0 in [clock]")
        if cfg.get("kinematics", "type") != "gaussian":
            raise ConfigError("command 'measurement' needs kinematics type 'gaussian'")
    times = cfg.times()  # raises when the time grid keys are incomplete
    if cfg.command in ("verify", "sweep") and len(times) > 1:
        raise ConfigError(f"command {cfg.command!r} runs at a single time; "
                          "give 't' in [physics], not a time grid")


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

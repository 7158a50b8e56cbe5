"""Spans around the calls into chronodil's public functions.

The tracer wraps each function below under every name its callers use:
the attribute in its defining module, every ``from .x import y`` copy in
another ``chronodil`` module, and methods on their class.  numpy and
scipy functions are wrapped where chronodil reaches them and count only
calls made from chronodil.  A function that no longer exists is reported
as absent, with zero calls.

Per span name the tracer keeps calls, self time (span time minus the time
of the spans it contains), total time and, where given, work points.
Importing this module imports nothing from chronodil.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> targets; a target is "module:attribute" or "module:Class.method"
SPANS = {
    "config.parse_config": ["chronodil.config:parse_config"],
    "config.build": ["chronodil.config:RunConfig.clock", "chronodil.config:RunConfig.kinematic_state"],
    "clocks.build": ["chronodil.clocks:build_swp", "chronodil.clocks:build_quasi_ideal",
                     "chronodil.clocks:build_qubit_phase"],
    "clocks.mean_clock_time_nr": ["chronodil.clocks:mean_clock_time_nr"],
    "clocks.error_trace": ["chronodil.clocks:error_trace"],
    "linalg.evolve_hermitian": ["chronodil.linalg:evolve_hermitian"],
    "linalg.eigh": ["numpy.linalg:eigh"],
    "kinematics.moments": ["chronodil.kinematics:moments"],
    "kinematics.r_factor": ["chronodil.kinematics:r_factor"],
    "kinematics.to_grid": ["chronodil.kinematics:to_grid"],
    "dilation.mean_clock_time": ["chronodil.dilation:mean_clock_time"],
    "dilation.t_coh": ["chronodil.dilation:t_coh"],
    "dilation.sup_vs_mix": ["chronodil.dilation:sup_vs_mix"],
    "precision.sigma_breakdown": ["chronodil.precision:sigma_breakdown"],
    "precision.sigma_nr": ["chronodil.precision:sigma_nr"],
    "precision.sigma_nonideal_term": ["chronodil.precision:sigma_nonideal_term"],
    "measurement.conditioned_sigma": ["chronodil.measurement:conditioned_sigma"],
    "measurement.quad": ["chronodil.measurement:quad"],
    "oracle.exact_evolve_g": ["chronodil.oracle:exact_evolve_g"],
    "oracle.fft": ["numpy.fft:fft", "numpy.fft:ifft"],
    "oracle.evolve_characteristics_g": ["chronodil.oracle:evolve_characteristics_g"],
    "oracle.exact_evolve_g0": ["chronodil.oracle:exact_evolve_g0"],
    "oracle.clock_time_stats": ["chronodil.oracle:clock_time_stats"],
    "oracle.verify_mean_time": ["chronodil.oracle:verify_mean_time"],
    "oracle.verify_sigma": ["chronodil.oracle:verify_sigma"],
    "cli.run": ["chronodil.cli:run"],
    "cli.write_csv": ["chronodil.cli:write_csv"],
}


def _grid_points(result) -> int:
    return int(getattr(getattr(result, "grid", None), "size", 0))


# span name -> work points read from the function's result
POINTS = {"kinematics.to_grid": _grid_points}

CALLS, SELF_S, TOTAL_S, POINTS_N = range(4)


class Tracer:
    """Installs span wrappers, accumulates per-span statistics, and
    restores the original functions on ``uninstall``."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPANS}
        self.absent = set()
        self._stack = [0.0]  # child time accumulated per open span
        self._restore = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]

    def snapshot(self) -> dict:
        return {name: list(st) for name, st in self.stats.items()}

    def install(self) -> None:
        resolved = {span: [(target, *_resolve(*target.split(":"))) for target in targets]
                    for span, targets in SPANS.items()}
        own = [m for name, m in sys.modules.items()
               if name == "chronodil" or name.startswith("chronodil.")]
        for span, found in resolved.items():
            found = [(target, owner, attr, fn) for target, owner, attr, fn in found if fn is not None]
            if not found:
                self.absent.add(span)
            for target, owner, attr, original in found:
                caller = None if target.startswith("chronodil") else "chronodil"
                wrapper = self._wrap(span, original, caller)
                self._patch(owner, attr, wrapper)
                for module in own:  # copies made by ``from .x import y``
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, fn, caller_prefix: str | None):
        st = self.stats[span]
        stack = self._stack
        points = POINTS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller_prefix is not None and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(caller_prefix):
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                st[CALLS] += 1
                st[SELF_S] += duration - children
                st[TOTAL_S] += duration
                if points is not None:
                    st[POINTS_N] += points(result)

        return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a target, or (None, None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, None, None
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, value) if callable(value) else (None, None, None)

"""Processes the benchmark starts; each prints or writes JSON for run.py.

    python3 perfbench/child.py setup <config>
        In a fresh interpreter: time ``import chronodil``, parsing the
        config and building its clock and motional state.

    python3 perfbench/child.py worker <plan.json>
        Run a workload's passes in this process through
        ``chronodil.cli.main`` (untraced, alternating with traced passes
        if the plan asks), and write timings, exit codes and where each
        output was kept.

    python3 perfbench/child.py cli <trace.json> <chronodil arguments...>
        One traced cold CLI process: install the tracer, run
        ``chronodil.cli.main`` and write the span statistics.

chronodil is imported from ``src`` of the checkout (run.py sets
PYTHONPATH), never from this directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(config_path: str) -> None:
    start = time.perf_counter()
    import chronodil  # noqa: F401  (timed)
    from chronodil.config import parse_config

    imported = time.perf_counter()
    with open(config_path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    cfg.clock()
    cfg.kinematic_state()
    done = time.perf_counter()
    print(json.dumps({"setup_s": done - start, "import_s": imported - start}))


def keep_output(out: str, tag: str) -> str | None:
    """Move a call's output aside under ``tag``; None when it wrote none."""
    path = Path(out)
    kept = path.with_name(f"{path.stem}.{tag}.csv")
    try:
        path.replace(kept)
    except FileNotFoundError:
        return None
    return str(kept)


def _call(main, argv: list[str]) -> tuple[float, int | None, str | None]:
    """(seconds, exit code, error) of one in-process CLI call."""
    start = time.perf_counter()
    try:
        code, error = main(argv), None
    except Exception as exc:  # counted as a failed operation, never retried
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, error


def worker(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from chronodil.cli import main

    def one_pass(phase: str, index: int) -> dict:
        record = {"phase": phase, "ops": []}
        for op in plan["ops"]:
            seconds, code, error = _call(main, op["argv"])
            record["ops"].append({"name": op["name"], "s": seconds, "code": code, "error": error,
                                  "output": keep_output(op["out"], f"{phase}{index}")})
        return record

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    passes = [one_pass("warmup", 0)]
    # traced and untraced passes alternate, so that drift of the machine
    # does not show as tracing overhead
    start, rounds = time.perf_counter(), 0
    while rounds < plan["min_passes"] or time.perf_counter() - start < plan["seconds"]:
        passes.append(one_pass("untraced", rounds))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            record = one_pass("traced", rounds)
            record["spans"] = tracer.snapshot()
            tracer.uninstall()
            passes.append(record)
        rounds += 1
    absent = sorted(tracer.absent) if tracer is not None else []
    Path(plan["result"]).write_text(json.dumps({"passes": passes, "absent": absent}),
                                    encoding="utf-8")


def traced_cli(trace_path: str, argv: list[str]) -> None:
    import chronodil.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    _, code, error = _call(chronodil.cli.main, argv)
    Path(trace_path).write_text(json.dumps({
        "error": error, "spans": tracer.snapshot(), "absent": sorted(tracer.absent),
    }), encoding="utf-8")
    sys.exit(code if isinstance(code, int) else 1)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(rest[0])
    elif mode == "worker":
        worker(rest[0])
    elif mode == "cli":
        traced_cli(rest[0], rest[1:])
    else:
        sys.exit(f"unknown mode {mode!r}")

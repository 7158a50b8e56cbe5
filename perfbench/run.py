"""chronodil benchmark: one run of one seeded workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; chronodil is imported from its ``src``.
Workloads (see README.md in this directory): clock_large, clock_small,
oracle_verify, cli_cold.  Every operation is a call of the CLI contract
``chronodil <command> --config <file> --out <csv> --no-timestamp``, in a
worker process through ``chronodil.cli.main`` or, for cli_cold, as a
fresh ``python -m chronodil.cli`` process.  Every output is checked
against reference.py.

With ``--trace 0`` the run measures the end-to-end metrics: run_s (median
wall time of one pass over the workload's operations, after a warm-up
pass), setup_s (median over fresh interpreters of importing chronodil,
parsing the first config and building its clock and state) and
peak_rss_mb (peak resident memory of the workload's process).  With
``--trace 1`` untraced passes alternate with passes traced by spans
around chronodil's public functions (spans.py); the per-layer metrics
come from the traced pass of median length, and the tracing overhead is
its length minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit.  A fuller record, with the machine
and the numpy/BLAS build, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import child  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # fresh interpreters before and again after the workload
MIN_PASSES = 3  # untraced passes; with --trace 1, MIN_PASSES - 1 pairs of untraced and traced
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

# per-layer metrics: (name, span, statistic, unit)
LAYER_METRICS = [
    ("config.parse_config.self_s", "config.parse_config", spans.SELF_S, "s"),
    ("config.build.self_s", "config.build", spans.SELF_S, "s"),
    ("clocks.build.self_s", "clocks.build", spans.SELF_S, "s"),
    ("clocks.mean_clock_time_nr.calls", "clocks.mean_clock_time_nr", spans.CALLS, "count"),
    ("clocks.mean_clock_time_nr.self_s", "clocks.mean_clock_time_nr", spans.SELF_S, "s"),
    ("clocks.error_trace.calls", "clocks.error_trace", spans.CALLS, "count"),
    ("clocks.error_trace.self_s", "clocks.error_trace", spans.SELF_S, "s"),
    ("linalg.evolve_hermitian.calls", "linalg.evolve_hermitian", spans.CALLS, "count"),
    ("linalg.evolve_hermitian.self_s", "linalg.evolve_hermitian", spans.SELF_S, "s"),
    ("linalg.eigh.calls", "linalg.eigh", spans.CALLS, "count"),
    ("linalg.eigh.self_s", "linalg.eigh", spans.SELF_S, "s"),
    ("kinematics.moments.calls", "kinematics.moments", spans.CALLS, "count"),
    ("kinematics.r_factor.self_s", "kinematics.r_factor", spans.SELF_S, "s"),
    ("kinematics.to_grid.calls", "kinematics.to_grid", spans.CALLS, "count"),
    ("kinematics.to_grid.self_s", "kinematics.to_grid", spans.SELF_S, "s"),
    ("kinematics.to_grid.points", "kinematics.to_grid", spans.POINTS_N, "count"),
    ("dilation.mean_clock_time.calls", "dilation.mean_clock_time", spans.CALLS, "count"),
    ("dilation.mean_clock_time.self_s", "dilation.mean_clock_time", spans.SELF_S, "s"),
    ("dilation.t_coh.calls", "dilation.t_coh", spans.CALLS, "count"),
    ("dilation.t_coh.self_s", "dilation.t_coh", spans.SELF_S, "s"),
    ("dilation.sup_vs_mix.self_s", "dilation.sup_vs_mix", spans.SELF_S, "s"),
    ("precision.sigma_breakdown.calls", "precision.sigma_breakdown", spans.CALLS, "count"),
    ("precision.sigma_breakdown.self_s", "precision.sigma_breakdown", spans.SELF_S, "s"),
    ("precision.sigma_nr.self_s", "precision.sigma_nr", spans.SELF_S, "s"),
    ("precision.sigma_nonideal_term.self_s", "precision.sigma_nonideal_term", spans.SELF_S, "s"),
    ("measurement.conditioned_sigma.calls", "measurement.conditioned_sigma", spans.CALLS, "count"),
    ("measurement.conditioned_sigma.self_s", "measurement.conditioned_sigma", spans.SELF_S, "s"),
    ("measurement.quad.calls", "measurement.quad", spans.CALLS, "count"),
    ("oracle.exact_evolve_g.calls", "oracle.exact_evolve_g", spans.CALLS, "count"),
    ("oracle.exact_evolve_g.self_s", "oracle.exact_evolve_g", spans.SELF_S, "s"),
    ("oracle.fft.calls", "oracle.fft", spans.CALLS, "count"),
    ("oracle.fft.self_s", "oracle.fft", spans.SELF_S, "s"),
    ("oracle.evolve_characteristics_g.calls", "oracle.evolve_characteristics_g", spans.CALLS, "count"),
    ("oracle.evolve_characteristics_g.self_s", "oracle.evolve_characteristics_g", spans.SELF_S, "s"),
    ("oracle.exact_evolve_g0.calls", "oracle.exact_evolve_g0", spans.CALLS, "count"),
    ("oracle.exact_evolve_g0.self_s", "oracle.exact_evolve_g0", spans.SELF_S, "s"),
    ("oracle.clock_time_stats.self_s", "oracle.clock_time_stats", spans.SELF_S, "s"),
    ("oracle.verify_mean_time.calls", "oracle.verify_mean_time", spans.CALLS, "count"),
    ("oracle.verify_mean_time.self_s", "oracle.verify_mean_time", spans.SELF_S, "s"),
    ("oracle.verify_sigma.calls", "oracle.verify_sigma", spans.CALLS, "count"),
    ("oracle.verify_sigma.self_s", "oracle.verify_sigma", spans.SELF_S, "s"),
    ("cli.run.self_s", "cli.run", spans.SELF_S, "s"),
    ("cli.write_csv.self_s", "cli.write_csv", spans.SELF_S, "s"),
]
# per-layer metrics measured by the runner itself: name -> unit
RUNNER_METRICS = {
    "oracle.verify.resolved_frac": "ratio",
    "cli.import.s": "s",
    "cli.process.s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts, times and reaps the benchmark's child processes."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv: list[str], tag: str) -> tuple[float, int, float, str, str]:
        """(wall seconds, exit code, peak RSS in MB, stdout, last stderr line)
        of one child."""
        out_path, err_path = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return (seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8"), stderr[-1] if stderr else "")

    def python(self, *args) -> list[str]:
        return [sys.executable, *map(str, args)]


# ---------------------------------------------------------------------------
# measurement


def measure_setup(runner: Runner, config: str, tag: str) -> list[dict]:
    """Fresh-interpreter set-up times."""
    samples = []
    for i in range(SETUP_REPEATS):
        _, code, _, out, err = runner.spawn(runner.python(HERE / "child.py", "setup", config),
                                            f"{tag}{i}")
        if code != 0:
            raise RuntimeError(f"set-up child failed (exit {code}): {err}")
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def run_worker(runner: Runner, plan_ops, args) -> dict:
    plan = {"ops": plan_ops, "trace": bool(args.trace), "seconds": args.seconds,
            "min_passes": min_passes(args), "work": str(runner.work),
            "result": str(runner.work / "worker.json")}
    plan_path = runner.work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    _, code, rss, _, err = runner.spawn(runner.python(HERE / "child.py", "worker", plan_path),
                                        "worker")
    if code != 0:
        raise RuntimeError(f"worker failed (exit {code}): {err}")
    result = json.loads((runner.work / "worker.json").read_text(encoding="utf-8"))
    return {"passes": result["passes"], "peak_rss_mb": rss, "absent": result["absent"]}


def run_cold(runner: Runner, plan_ops, args) -> dict:
    """cli_cold: each operation is a fresh process, one after another."""
    peak = 0.0
    absent: set = set()

    def one_pass(phase: str, index: int) -> dict:
        nonlocal peak
        record = {"phase": phase, "ops": [], "spans": None}
        for op in plan_ops:
            tag = f"{phase}{index}-{op['name']}"
            trace_path = runner.work / f"{tag}.trace.json"
            if phase == "traced":
                argv = runner.python(HERE / "child.py", "cli", trace_path, *op["argv"])
            else:
                argv = runner.python("-m", "chronodil.cli", *op["argv"])
            seconds, code, rss, _, err = runner.spawn(argv, tag)
            peak = max(peak, rss)
            error = err if code not in (0, 3) else None
            if phase == "traced":
                try:
                    traced = json.loads(trace_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    traced = {"spans": {}, "absent": [], "error": f"no trace: {exc}"}
                error = traced.get("error") or error
                absent.update(traced["absent"])
                record["spans"] = _add_spans(record["spans"], traced["spans"])
            record["ops"].append({"name": op["name"], "s": seconds, "code": code, "error": error,
                                  "output": child.keep_output(op["out"], f"{phase}{index}")})
        return record

    passes = [one_pass("warmup", 0)]
    phases = ["untraced", "traced"] if args.trace else ["untraced"]
    start, rounds = time.perf_counter(), 0
    while rounds < min_passes(args) or time.perf_counter() - start < args.seconds:
        passes += [one_pass(phase, rounds) for phase in phases]
        rounds += 1
    return {"passes": passes, "peak_rss_mb": peak, "absent": sorted(absent)}


def min_passes(args) -> int:
    return MIN_PASSES - 1 if args.trace else MIN_PASSES


def _add_spans(total: dict | None, more: dict) -> dict:
    total = {name: list(st) for name, st in (total or {}).items()}
    for name, st in more.items():
        acc = total.setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(st):
            acc[i] += value
    return total


# ---------------------------------------------------------------------------
# checks and statistics


def check_passes(ops, passes: list) -> tuple[int, int, list, dict]:
    """(attempted, failed, failure notes, facts per output path).

    Identical outputs of one operation are checked once."""
    by_name = {op.name: op for op in ops}
    verdicts: dict = {}
    facts: dict = {}
    attempted, notes = 0, []
    for record in passes:
        for call in record["ops"]:
            attempted += 1
            op, reason = by_name[call["name"]], None
            if call["error"]:
                reason = call["error"]
            elif call["code"] not in (0, 3) or (call["code"] == 3 and op.command != "verify"):
                reason = f"exit {call['code']}"
            elif call["output"] is None:
                reason = "no output written"
            else:
                key = (op.name, Path(call["output"]).read_text(encoding="utf-8"))
                if key not in verdicts:
                    try:
                        verdicts[key] = reference.check(op, key[1])
                    except Exception as exc:  # an output the reference cannot read fails
                        verdicts[key] = ([f"check raised {type(exc).__name__}: {exc}"], {})
                problems, facts[call["output"]] = verdicts[key]
                if problems:
                    reason = "; ".join(problems[:3])
            if reason:
                notes.append(f"{record['phase']} {call['name']}: {reason}")
    return attempted, len(notes), notes, facts


def pass_seconds(record: dict) -> float:
    return sum(call["s"] for call in record["ops"])


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (None below eleven samples), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n,
            "min": ordered[0], "max": ordered[-1]}


def layer_metrics(runs: dict, facts: dict, setup: list, untraced_run_s: float):
    """(per-layer metrics, all span statistics) of the traced pass of median length."""
    traced = [r for r in runs["passes"] if r["phase"] == "traced"]
    chosen = sorted(traced, key=pass_seconds)[(len(traced) - 1) // 2]  # lower median
    stats = chosen["spans"]
    metrics = {}
    for name, span, stat, unit in LAYER_METRICS:
        metrics[name] = {"value": stats.get(span, [0, 0.0, 0.0, 0])[stat], "unit": unit}
    resolved = scalings = 0
    for call in chosen["ops"]:
        fact = facts.get(call["output"], {})
        resolved += fact.get("resolved", 0)
        scalings += fact.get("scalings", 0)
    untraced = [c["s"] for r in runs["passes"] if r["phase"] == "untraced" for c in r["ops"]]
    traced_run_s = pass_seconds(chosen)
    extra = {
        "oracle.verify.resolved_frac": resolved / scalings if scalings else 0.0,
        "cli.import.s": statistics.median(s["import_s"] for s in setup),
        "cli.process.s": statistics.median(untraced) if runs.get("cold") else 0.0,
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": RUNNER_METRICS[name]}
    return metrics, stats


# ---------------------------------------------------------------------------
# record


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.25 only prints
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            np.show_config()
        blas = buffer.getvalue()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version, "numpy": np.__version__, "scipy": scipy_version,
        "blas": blas, "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "chronodil" / "cli.py", ROOT / workloads.ALUMINIUM_CONFIG):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the chronodil repository", file=sys.stderr)
            return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, Runner(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, runner: Runner) -> int:
    ops = workloads.build(args.workload, args.seed, ROOT)
    plan_ops = []
    for op in ops:
        config = op.config_file
        if config is None:
            config = str(runner.work / f"{op.name}.cfg")
            Path(config).write_text(op.config_text(), encoding="utf-8")
        out = str(runner.work / f"{op.name}.out.csv")
        plan_ops.append({"name": op.name, "out": out, "config": config,
                         "argv": [op.command, "--config", config, "--out", out, "--no-timestamp"]})

    # the first set-up, which may compile bytecode, is discarded; samples
    # before and after the workload average out slow drift of the machine
    setup = measure_setup(runner, plan_ops[0]["config"], "setup-before")[1:]
    if args.workload == "cli_cold":
        runs = run_cold(runner, plan_ops, args)
        runs["cold"] = True
    else:
        runs = run_worker(runner, plan_ops, args)
    setup += measure_setup(runner, plan_ops[0]["config"], "setup-after")
    attempted, failed, notes, facts = check_passes(ops, runs["passes"])

    untraced = [pass_seconds(r) for r in runs["passes"] if r["phase"] == "untraced"]
    run_s = summary(untraced)
    setup_s = summary([s["setup_s"] for s in setup])
    end_to_end = {
        "run_s": {"value": run_s["median"], "unit": "s"},
        "setup_s": {"value": setup_s["median"], "unit": "s"},
        "peak_rss_mb": {"value": runs["peak_rss_mb"], "unit": "MB"},
    }
    per_layer, span_stats = (layer_metrics(runs, facts, setup, run_s["median"]) if args.trace
                             else ({}, {}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run_s['n']} untraced")
    for name, stats in (("run_s", run_s), ("setup_s", setup_s)):
        tail = stats["tail"]
        tail_text = (f"p{tail['percentile']:.1f} {tail['value']:.4f} s" if tail
                     else "no percentile with ten samples above it")
        print(f"  {name:<12} median {stats['median']:.4f} s  {tail_text}  n {stats['n']}")
    print(f"  {'peak_rss_mb':<12} {runs['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_frac':<12} {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for note in notes[:10]:
        print(f"  FAILED {note}")
    if args.trace:
        print(f"  tracing overhead {per_layer['trace.overhead_s']['value']:+.4f} s per pass "
              f"(traced {per_layer['trace.run_s']['value']:.4f} s, untraced {run_s['median']:.4f} s)")
        self_sum = sum(st[spans.SELF_S] for st in span_stats.values())
        print(f"  self time of all spans {self_sum:.4f} s within the traced pass of "
              f"{per_layer['trace.run_s']['value']:.4f} s")
        for name, metric in per_layer.items():
            span = name.rsplit(".", 1)[0]
            mark = "  (absent)" if span in runs["absent"] else ""
            print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}{mark}")

    metrics = per_layer if args.trace else end_to_end
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations": [{"name": op.name, "command": op.command, "config": op.sections}
                       for op in ops],
        "environment": environment(),
        "end_to_end": end_to_end, "run_s": run_s, "setup_s": setup_s,
        "per_layer": per_layer, "absent": runs["absent"],
        "spans": {name: dict(zip(("calls", "self_s", "total_s", "points"), st))
                  for name, st in span_stats.items()},
        "pass_seconds": {phase: [pass_seconds(r) for r in runs["passes"] if r["phase"] == phase]
                         for phase in ("warmup", "untraced", "traced")},
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": notes,
        "op_seconds": {op.name: summary([c["s"] for r in runs["passes"] if r["phase"] == "untraced"
                                         for c in r["ops"] if c["name"] == op.name]) for op in ops},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: config-driven runs, sweeps, CSV emission, verification.

Usage::

    chronodil <command> --config <path> [--out <path>]
                        [--no-timestamp] [--plot-script <path>]

Exit codes: 0 success, 2 configuration or physics-domain error,
3 verification failure (a ``verify`` run whose report did not pass).
"""

from __future__ import annotations

import argparse
import datetime
import io
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import COMMANDS, ConfigError, RunConfig, echo_lines, parse_config
from .constants import C_LIGHT, HBAR
from .dilation import mean_clock_time, sup_vs_mix, t_coh
from .kinematics import norm_factor
from .measurement import sweep_conditioned
from .oracle import verify_mean_time, verify_sigma
from .precision import sigma_breakdown

SCHEMA_VERSION = 1


@dataclass
class CsvTable:
    header: list[str]
    rows: list  # one sequence of cells per row
    metadata: list[tuple[str, str]] = field(default_factory=list)


def _metadata(cfg: RunConfig, timestamp: bool) -> list[tuple[str, str]]:
    meta = [
        ("schema", str(SCHEMA_VERSION)),
        ("library", f"chronodil {__version__}"),
        ("constants", f"hbar={HBAR!r} J s, c={C_LIGHT!r} m/s"),
        ("seed", str(cfg.seed)),
    ]
    if timestamp:
        meta.append(("generated", datetime.datetime.now(datetime.timezone.utc).isoformat()))
    return meta


def _cell_format(value) -> str:
    """printf format of one CSV cell; '%.17e' % x is format(x, '.17e')."""
    return "%d" if isinstance(value, (int, np.integer)) else "%.17e"


def write_csv(table: CsvTable, cfg: RunConfig, stream) -> None:
    """Rows take the first row's cell formats; a non-finite cell raises before any write."""
    values = np.asarray(table.rows, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite value {values[~np.isfinite(values)][0]!r} in CSV output")
    for key, value in table.metadata:
        stream.write(f"# {key} = {value}\n")
    stream.write("# config:\n")
    for line in echo_lines(cfg):
        stream.write(f"# cfg {line}\n")
    stream.write(",".join(table.header) + "\n")
    if len(table.rows):
        template = ",".join(_cell_format(v) for v in table.rows[0]) + "\n"
        stream.write("".join(template % tuple(row) for row in table.rows))


# ---------------------------------------------------------------------------
# command implementations


def _run_dilation(cfg: RunConfig) -> tuple[CsvTable, int]:
    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    res = mean_clock_time(clock, kstate, np.array(cfg.times()), g, c=c)
    rows = np.column_stack(np.broadcast_arrays(  # an IdealisedClock's columns are scalars
        res.t, res.mean_t_nr, res.r_factor, res.error_trace, res.mean_t,
        res.classical_tau)).tolist()
    header = ["t", "mean_t_nr", "r_factor", "error_trace", "mean_t", "classical_tau"]
    return CsvTable(header=header, rows=rows), 0


def _run_coherence(cfg: RunConfig) -> tuple[CsvTable, int]:
    cat = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    rows = []
    for t in cfg.times():
        res = sup_vs_mix(cat, t, g, c=c)
        rows.append([t, norm_factor(cat), res.t_sup, res.t_mix, res.t_coh])
    header = ["t", "norm_factor", "t_sup", "t_mix", "t_coh"]
    return CsvTable(header=header, rows=rows), 0


def _run_precision(cfg: RunConfig) -> tuple[CsvTable, int]:
    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    c = cfg.c_light()
    times = np.array(cfg.times())
    br = sigma_breakdown(clock, kstate, times, c=c)
    rows = np.column_stack(np.broadcast_arrays(  # an IdealisedClock's columns are scalars
        times, br.sigma_nr, br.sigma_i, br.sigma_ni, br.total)).tolist()
    header = ["t", "sigma_nr", "sigma_i", "sigma_ni", "sigma_total"]
    return CsvTable(header=header, rows=rows), 0


def _run_measurement(cfg: RunConfig) -> tuple[CsvTable, int]:
    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    c = cfg.c_light()
    rows_dicts = sweep_conditioned(clock.sigma_t0, kstate, cfg.times(),
                                   cfg.get("measurement", "q_values"),
                                   bin_index=cfg.get("measurement", "bin"), c=c)
    header = ["t", "q", "bin", "probability", "sigma_conditioned", "sigma_nr",
              "sigma_unconditioned"]
    rows = [[d[k] for k in header] for d in rows_dicts]
    return CsvTable(header=header, rows=rows), 0


def _run_verify(cfg: RunConfig) -> tuple[CsvTable, int]:
    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    (t,) = cfg.times()
    scalings = cfg.get("verify", "c_scalings")
    if cfg.get("verify", "target") == "mean_time":
        report = verify_mean_time(clock, kstate, t, g, c_scalings=scalings, base_c=c)
    else:
        report = verify_sigma(clock, kstate, t, c_scalings=scalings, base_c=c)
    rows = list(zip(report.c_scalings, report.perturbative, report.exact,
                    report.residuals, report.relative_residuals))
    header = ["c_scaling", "perturbative", "exact", "residual", "relative_residual"]
    table = CsvTable(header=header, rows=rows)
    table.metadata.append(("quantity", report.quantity))
    table.metadata.append(("exponent_abs", repr(report.exponent_abs)))
    table.metadata.append(("exponent_rel", repr(report.exponent_rel)))
    table.metadata.append(("at_floor", str(report.at_floor)))
    table.metadata.append(("verdict", "pass" if report.passed else "fail"))
    return table, (0 if report.passed else 3)


def _run_sweep(cfg: RunConfig) -> tuple[CsvTable, int]:
    cat = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    (t,) = cfg.times()
    start, stop, num = (cfg.get("sweep", "start"), cfg.get("sweep", "stop"),
                        cfg.get("sweep", "num"))
    ratios = start + (stop - start) * np.arange(num) / (num - 1)
    separations = ratios * cat.sigma_x
    # one cat holding every separation: the closed form runs once, elementwise
    res = t_coh(replace(cat, delta_x0=separations), t, g, c=c)
    rows = np.column_stack((ratios, separations, res.t_sup, res.t_mix, res.t_coh)).tolist()
    header = ["delta_x0_over_sigma_x", "delta_x0", "t_sup", "t_mix", "t_coh"]
    return CsvTable(header=header, rows=rows), 0


_RUNNERS = {
    "dilation": _run_dilation,
    "coherence": _run_coherence,
    "precision": _run_precision,
    "measurement": _run_measurement,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig) -> tuple[CsvTable, int]:
    """Dispatch a parsed configuration; returns (table, exit code)."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# plot scripts


def emit_plot_script(table: CsvTable, kind: str, csv_path: str = "out.csv") -> str:
    """Plain-text plotting script (gnuplot dialect) for a results table.

    Deterministic: identical tables produce byte-identical scripts.
    """
    lines = [
        "# chronodil plot script (gnuplot dialect)",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set grid",
    ]
    if kind == "measurement":
        q_col = table.header.index("q") + 1
        t_col = table.header.index("t") + 1
        s_col = table.header.index("sigma_conditioned") + 1
        q_values = sorted({row[q_col - 1] for row in table.rows})
        lines += [
            "set xlabel 't (s)'",
            "set ylabel 'conditioned clock-time spread (s)'",
            "set key left top",
        ]
        plots = []
        for q in q_values:
            cell = _cell_format(q) % q
            selector = f"(${q_col} == {cell} ? ${s_col} : 1/0)"
            plots.append(f"'{csv_path}' using {t_col}:{selector} with linespoints "
                         f"title 'q = {cell}'")
        lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    elif kind == "sweep":
        x_col = table.header.index("delta_x0_over_sigma_x") + 1
        y_col = table.header.index("t_coh") + 1
        best = max(table.rows, key=lambda row: row[y_col - 1])
        lines += [
            "set xlabel 'packet separation over packet width'",
            "set ylabel 'coherence contribution to the mean clock time (s)'",
            f"set label 'maximum' at {_cell_format(best[x_col - 1]) % best[x_col - 1]},"
            f"{_cell_format(best[y_col - 1]) % best[y_col - 1]} point pt 7",
            f"plot '{csv_path}' using {x_col}:{y_col} with lines title 'coherence term'",
        ]
    else:
        raise ValueError(f"unsupported table kind {kind!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="chronodil",
                                     description="quantum clock time-dilation runs")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--no-timestamp", action="store_true")
    parser.add_argument("--plot-script", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"chronodil: config error: {exc}", file=sys.stderr)
        return 2
    if cfg.command != args.command:
        print(f"chronodil: config declares command {cfg.command!r}, "
              f"got {args.command!r} on the command line", file=sys.stderr)
        return 2
    if args.plot_script and cfg.command not in ("measurement", "sweep"):
        print("chronodil: --plot-script only supports measurement and sweep tables",
              file=sys.stderr)
        return 2

    text = io.StringIO()
    try:
        table, code = run(cfg)
        table.metadata = _metadata(cfg, timestamp=not args.no_timestamp) + table.metadata
        write_csv(table, cfg, text)
    except (ValueError, TypeError) as exc:
        print(f"chronodil: {exc}", file=sys.stderr)
        return 2

    out_path = args.out or cfg.out
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())

    if args.plot_script:
        script = emit_plot_script(table, cfg.command, csv_path=out_path or "out.csv")
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(script)
    return code


if __name__ == "__main__":
    sys.exit(main())

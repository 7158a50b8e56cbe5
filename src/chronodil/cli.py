"""Batch front-end: config-driven runs, sweeps, CSV emission, verification.

Usage::

    chronodil <command> --config <path> [--out <path>]
                        [--no-timestamp] [--plot-script <path>]

Exit codes: 0 success, 2 configuration or physics-domain error, or an
``--out`` or ``--plot-script`` path that cannot be written, 3 verification
failure (a ``verify`` run whose report did not pass, or whose correction
is below the floor it is judged at: ``# resolved = False``).

A command imports only the library modules it runs: ``coherence`` and
``sweep``, for example, never load ``oracle``, ``precision`` or
``measurement``. The argument parser is built once per process. The CSV
is written as bytes, UTF-8 with ``\n`` line ends on every platform.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import io
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import COMMANDS, RunConfig, echo_lines, linear_grid, parse_config
from .constants import C_LIGHT, HBAR

SCHEMA_VERSION = 1


@dataclass
class CsvTable:
    """Column names, float rows (a 2-D array or one sequence of cells per
    row) and the ``# key = value`` lines written above the config echo."""

    header: list[str]
    rows: list | np.ndarray
    metadata: list[tuple[str, str]] = field(default_factory=list)


def _columns(**columns) -> CsvTable:
    """A table whose header is the keyword names, one column per value; a
    scalar, as an IdealisedClock's columns are, repeats down every row."""
    return CsvTable(list(columns), np.column_stack(np.broadcast_arrays(*columns.values())))


def _metadata(cfg: RunConfig, timestamp: bool) -> list[tuple[str, str]]:
    meta = [
        ("schema", str(SCHEMA_VERSION)),
        ("library", f"chronodil {__version__}"),
        ("constants", f"hbar={HBAR!r} J s, c={C_LIGHT!r} m/s"),
        ("seed", str(cfg.get("run", "seed"))),
    ]
    if timestamp:
        meta.append(("generated", datetime.datetime.now(datetime.timezone.utc).isoformat()))
    return meta


# Tables with fewer cells keep the per-row '%' loop. Kernel against loop, whole
# write_csv on workload tables, medians of 3,000 interleaved calls (2-core
# x86-64): 79 vs 90 us at 120 cells, 72 vs 80 us at 100, 65 vs 22 us at 15.
_KERNEL_MIN_CELLS = 100
_BLOCK_CELLS = 2048  # cells per kernel block, which bounds its temporaries


def write_csv(table: CsvTable, cfg: RunConfig, stream) -> None:
    """Write the metadata, config echo, header and rows to a binary stream.

    Every cell is written as ``'%.17e' % x``. A table of at least
    ``_KERNEL_MIN_CELLS`` cells goes through the vectorised ``_write_floats``,
    which writes the same bytes. A non-finite cell raises before any write.
    """
    values = np.asarray(table.rows, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite value {values[~np.isfinite(values)][0]} in CSV output")
    lines = [f"# {key} = {value}" for key, value in table.metadata]
    lines += ["# config:", *(f"# cfg {line}" for line in echo_lines(cfg)), ",".join(table.header)]
    stream.write(("\n".join(lines) + "\n").encode())
    if not len(values):
        return
    if values.size < _KERNEL_MIN_CELLS:
        template = ",".join(["%.17e"] * values.shape[1]) + "\n"
        # Python floats format faster than numpy's, to the same bytes
        stream.write("".join(template % tuple(row) for row in values.tolist()).encode())
        return
    step = max(1, _BLOCK_CELLS // values.shape[1])
    for start in range(0, len(values), step):
        stream.write(_csv_rows(values[start:start + step]))


def _csv_rows(values: np.ndarray) -> bytes:
    """CSV bytes of a block of float rows. Each cell is laid out in a field of
    bytes and a separator; the zero bytes between them are dropped."""
    fields = np.empty((*values.shape, _FLOAT_FIELD + 1), dtype=np.uint8)
    _write_floats(values.ravel(), fields.reshape(-1, _FLOAT_FIELD + 1))
    fields[:, :, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")
    return fields.tobytes().translate(None, b"\0")


# --- the '%.17e' kernel ------------------------------------------------------
#
# '%.17e' % x writes the 18 significant digits N of |x| rounded to nearest,
# N in [1e17, 1e18), and the decimal exponent e, |x| ~ N 10^(e-17). The
# kernel takes e from log10|x|, corrected by one step where that lands N
# outside its range, and forms |x| 10^(17-e) in double-double arithmetic
# against an exact table of powers of ten. Its error is below 1e-13 in units
# of N's last digit, so only a fraction within _HALF_MARGIN of 1/2 can round
# otherwise than Python's correctly rounded conversion: those cells, zeros
# and cells outside the table's range go through '%.17e' one by one.

_E_MAX = 270  # the table holds 10^(17-e) for e in [-_E_MAX, _E_MAX]
_FAST_MIN, _FAST_MAX = 10.0 ** (2 - _E_MAX), 10.0 ** (_E_MAX - 2)  # slack for log10 and the step
_HALF_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter of a double into 26-bit halves
_EXP_MIN = -324  # the exponent of the smallest subnormal; the largest double's is 308
_FLOAT_FIELD = 33  # bytes of a float cell: sign, six digit groups, 'e' and the exponent


@functools.cache
def _pow10_table() -> np.ndarray:
    """Rows hi, hi's upper and lower 26-bit halves, and lo of the double-double
    hi + lo = 10^(17-e) for e in [-_E_MAX, _E_MAX], from exact integer ratios."""
    hi, lo = [], []
    for e in range(-_E_MAX, _E_MAX + 1):
        k = 17 - e
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))  # 10^k - h, correctly rounded
    hi = np.array(hi)
    c = _SPLIT * hi
    upper = c - (c - hi)
    return np.stack((hi, upper, hi - upper, np.array(lo)))


def _byte_table(texts, width: int, dtype) -> np.ndarray:
    """One ``dtype`` value per text: its ASCII bytes, padded with zero bytes."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=dtype)


@functools.cache
def _group_bytes() -> np.ndarray:
    """Three digits of N per uint32: first the last five groups' entries,
    with a zero pad byte, then the first group's, with the decimal point
    after its first digit."""
    return _byte_table([f"{i:03d}" for i in range(1000)]
                       + [f"{i // 100}.{i % 100:02d}" for i in range(1000)], 4, np.uint32)


@functools.cache
def _exp_bytes() -> np.ndarray:
    """'e' and the signed exponent of at least two digits per uint64, from _EXP_MIN."""
    return _byte_table((f"e{e:+03d}" for e in range(_EXP_MIN, 309)), 8, np.uint64)


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of ax 10^(17-e), e in the table's range.

    ax times hi is split exactly into p + err by Dekker's product; p is an
    integer, as every double above 2^53 is, and lo's product joins err."""
    hi, hi_upper, hi_lower, lo = _pow10_table().take(e + _E_MAX, axis=1)
    p = ax * hi
    c = _SPLIT * ax
    upper = c - (c - ax)
    lower = ax - upper
    err = ((upper * hi_upper - p) + upper * hi_lower + lower * hi_upper) + lower * hi_lower
    low = err + ax * lo
    whole = np.floor(low)
    return p.astype(np.int64) + whole.astype(np.int64), low - whole


def _decimal_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N and e of '%.17e' % v for each value of a finite 1-D float array."""
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)
    n, frac = _scaled(ax, e)
    step = (n >= 10**18).astype(np.int64) - (n < 10**17)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        n[moved], frac[moved] = _scaled(ax[moved], e[moved])
    n += frac > 0.5
    roll = n == 10**18  # rounded up to the next power of ten
    n[roll] = 10**17
    e[roll] += 1
    for i in np.flatnonzero(~fast | (np.abs(frac - 0.5) <= _HALF_MARGIN)):
        mantissa, _, exponent = ("%.17e" % x[i]).partition("e")
        n[i] = int(mantissa.lstrip("-").replace(".", ""))
        e[i] = int(exponent)
    return n, e


def _write_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17e' % v for each value of a finite 1-D float array into the
    first _FLOAT_FIELD bytes of its row of ``out``: the ASCII bytes, with zero
    bytes between them."""
    n, e = _decimal_parts(x)
    groups = np.empty((len(x), 6), dtype=np.intp)  # N as six three-digit groups
    for j in range(5, 0, -1):
        rest = n // 1000
        groups[:, j] = n - 1000 * rest
        n = rest
    groups[:, 0] = n + 1000  # the first group's entries come second
    out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    out[:, 1:25] = _group_bytes().take(groups).view(np.uint8).reshape(len(x), 24)
    out[:, 25:_FLOAT_FIELD] = _exp_bytes().take(e - _EXP_MIN).view(np.uint8).reshape(len(x), 8)


# ---------------------------------------------------------------------------
# command implementations: each imports the library function it calls, so
# that a command loads only its own modules


def _run_dilation(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .dilation import mean_clock_time

    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    res = mean_clock_time(clock, kstate, cfg.times(), g, c=c)
    return _columns(t=res.t, mean_t_nr=res.mean_t_nr, r_factor=res.r_factor,
                    error_trace=res.error_trace, mean_t=res.mean_t,
                    classical_tau=res.classical_tau), 0


def _run_coherence(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .dilation import t_coh
    from .kinematics import norm_factor

    cat = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    times = cfg.times()
    res = t_coh(cat, times, g, c=c)
    return _columns(t=times, norm_factor=norm_factor(cat),
                    t_sup=res.t_sup, t_mix=res.t_mix, t_coh=res.t_coh), 0


def _run_precision(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .precision import sigma_breakdown

    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    c = cfg.c_light()
    times = cfg.times()
    br = sigma_breakdown(clock, kstate, times, c=c)
    return _columns(t=times, sigma_nr=br.sigma_nr, sigma_i=br.sigma_i, sigma_ni=br.sigma_ni,
                    sigma_total=br.total), 0


def _run_measurement(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .measurement import MomentumBinning, conditioned_sigma

    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    c = cfg.c_light()
    times = cfg.times()
    q_values = cfg.get("measurement", "q_values")
    n = cfg.get("measurement", "bin")
    # the infinite bin (no measurement) reads no sigma_p, so it runs first: conditioned_sigma
    # rejects a clock or state it cannot condition before the bins below read sigma_p
    unconditioned = conditioned_sigma(clock, kstate, times, MomentumBinning(np.inf), 0, c=c)
    per_q = [conditioned_sigma(clock, kstate, times, MomentumBinning(q * kstate.sigma_p), n, c=c)
             for q in q_values]
    # one row per time and q, q running fastest
    conditioned = np.column_stack([res.sigma_t_given_n for res in per_q])
    table = _columns(t=np.repeat(times, len(q_values)), q=np.tile(q_values, len(times)),
                     probability=np.tile([res.probability for res in per_q], len(times)),
                     sigma_conditioned=conditioned.ravel(), sigma_nr=clock.sigma_t0,
                     sigma_unconditioned=np.repeat(unconditioned.sigma_t_given_n, len(q_values)))
    table.metadata.append(("bin", str(n)))
    return table, 0


def _run_verify(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .oracle import verify_mean_time, verify_sigma

    clock = cfg.clock()
    kstate = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    t = cfg.get("physics", "t")  # a single time, as the config requires
    scalings = cfg.get("verify", "c_scalings")
    if cfg.get("verify", "target") == "mean_time":
        report = verify_mean_time(clock, kstate, t, g, c_scalings=scalings, base_c=c)
    else:
        report = verify_sigma(clock, kstate, t, c_scalings=scalings, base_c=c)
    table = _columns(c_scaling=report.c_scalings, perturbative=report.perturbative,
                     exact=report.exact, residual=report.residuals,
                     relative_residual=report.relative_residuals)
    table.metadata.append(("quantity", report.quantity))
    table.metadata.append(("exponent_abs", repr(report.exponent_abs)))
    table.metadata.append(("exponent_rel", repr(report.exponent_rel)))
    table.metadata.append(("at_floor", str(report.at_floor)))
    table.metadata.append(("resolved", str(report.resolved)))
    table.metadata.append(("verdict", "pass" if report.passed else "fail"))
    return table, (0 if report.passed else 3)


def _run_sweep(cfg: RunConfig) -> tuple[CsvTable, int]:
    from .dilation import t_coh

    cat = cfg.kinematic_state()
    g = cfg.get("physics", "g")
    c = cfg.c_light()
    t = cfg.get("physics", "t")  # a single time, as the config requires
    ratios = linear_grid(*(cfg.get("sweep", key) for key in ("start", "stop", "num")))
    separations = ratios * cat.sigma_x
    # one cat holding every separation: the closed form runs once, elementwise
    res = t_coh(replace(cat, delta_x0=separations), t, g, c=c)
    return _columns(delta_x0_over_sigma_x=ratios, delta_x0=separations,
                    t_sup=res.t_sup, t_mix=res.t_mix, t_coh=res.t_coh), 0


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
            cell = f"{q:.17e}"
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
            f"set label 'maximum' at {best[x_col - 1]:.17e},{best[y_col - 1]:.17e} point pt 7",
            f"plot '{csv_path}' using {x_col}:{y_col} with lines title 'coherence term'",
        ]
    else:
        raise ValueError("--plot-script only supports measurement and sweep tables")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


# built once per process; parse_args keeps no state between calls
_PARSER = argparse.ArgumentParser(prog="chronodil", description="quantum clock time-dilation runs")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True)
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--no-timestamp", action="store_true")
_PARSER.add_argument("--plot-script", default=None)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, ValueError) as exc:  # a ConfigError, or a file that is not UTF-8
        print(f"chronodil: config error: {exc}", file=sys.stderr)
        return 2
    if cfg.command != args.command:
        print(f"chronodil: config declares command {cfg.command!r}, "
              f"got {args.command!r} on the command line", file=sys.stderr)
        return 2

    csv = io.BytesIO()
    try:
        table, code = run(cfg)
        table.metadata = _metadata(cfg, timestamp=not args.no_timestamp) + table.metadata
        write_csv(table, cfg, csv)
        files = [(args.out, csv.getbuffer())] if args.out else []
        if args.plot_script:
            script = emit_plot_script(table, cfg.command, csv_path=args.out or "out.csv")
            files.append((args.plot_script, script.encode()))
    except (ValueError, TypeError) as exc:
        print(f"chronodil: {exc}", file=sys.stderr)
        return 2

    if not args.out:
        sys.stdout.flush()
        sys.stdout.buffer.write(csv.getbuffer())
    for path, data in files:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"chronodil: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

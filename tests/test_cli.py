import dataclasses
import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronodil import cli
from chronodil.cli import CsvTable, main, run, write_csv
from chronodil.clocks import build_qubit_phase
from chronodil.config import ConfigError, RunConfig, echo_lines, linear_grid, parse_config
from chronodil.dilation import mean_clock_time, t_coh
from chronodil.kinematics import norm_factor
from chronodil.measurement import _conditional_w_moments, conditioned_sigma
from chronodil.oracle import verify_mean_time
from chronodil.precision import sigma_breakdown
from chronodil.constants import C_LIGHT, HBAR
from helpers import (BENCH_MASS, BENCH_OMEGA, BENCH_PERIOD, BENCH_SIGMA_X, BENCH_T, bench_c,
                     bin_edges, reference_write_csv)

REPO_ROOT = Path(__file__).resolve().parents[1]

MINIMAL_DILATION = """
[run]
command = dilation
seed = 3

[clock]
model = swp
d = 4
omega = 1e3

[kinematics]
type = gaussian
sigma_x = 1e-9
mass = 9.1093837015e-31

[physics]
g = 9.81
t = 1e-3
"""


def bench_config(command: str, extra: str = "", kin_type: str = "gaussian",
                 cat_keys: str = "") -> str:
    c_scale = bench_c() / 299792458.0
    return f"""
[run]
command = {command}

[clock]
model = swp
d = 4
omega = {BENCH_OMEGA!r}

[kinematics]
type = {kin_type}
sigma_x = {BENCH_SIGMA_X!r}
mass = {BENCH_MASS!r}
{cat_keys}

[physics]
g = 0.0
t = {BENCH_T!r}
c_scale = {c_scale!r}
{extra}
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal_dilation_config():
    cfg = parse_config(MINIMAL_DILATION)
    assert cfg.command == "dilation"
    assert cfg.get("run", "seed") == 3
    assert cfg.get("clock", "d") == 4
    assert cfg.get("kinematics", "sigma_x") == 1e-9
    clock = cfg.clock()
    assert clock.dim == 4
    state = cfg.kinematic_state()
    assert state.mass == 9.1093837015e-31


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"line \d+: unknown key 'omga'"):
        parse_config(MINIMAL_DILATION.replace("omega = 1e3", "omga = 1e3"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL_DILATION + "\n[plotting]\nstyle = 1\n")


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match=r"missing required key 'mass'"):
        parse_config(MINIMAL_DILATION.replace("mass = 9.1093837015e-31", ""))


def test_non_finite_value_rejected():
    with pytest.raises(ConfigError, match=r"line .*non-finite"):
        parse_config(MINIMAL_DILATION.replace("t = 1e-3", "t = nan"))


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(MINIMAL_DILATION + "\n[physics]\nt = 2e-3\n")


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_single_time_commands_reject_time_grid(command):
    single = bench_config(command, kin_type="cat",
                          cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0")
    parse_config(single)
    grid = single.replace(f"t = {BENCH_T!r}", "t_start = 1e-3\nt_stop = 2e-3\nt_num = 3")
    with pytest.raises(ConfigError, match="single time"):
        parse_config(grid)


def test_config_echo_is_lossless():
    cfg = parse_config(MINIMAL_DILATION)
    cfg2 = parse_config("\n".join(echo_lines(cfg)))
    assert cfg2.values == cfg.values
    assert cfg2.command == cfg.command


_ENDS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENDS, min_size=2, max_size=2, unique=True), st.integers(2, 5000))
def test_time_grid_is_the_scalar_formula_bit_for_bit(ends, num):
    # the CSV's t column: the grid's one numpy expression must give the bits
    # of the per-cell formula, signed zeros and subnormals included
    start, stop = sorted(ends)
    cfg = RunConfig(command="dilation", values={
        ("physics", "t_start"): start, ("physics", "t_stop"): stop, ("physics", "t_num"): num})
    expected = [start + (stop - start) * i / (num - 1) for i in range(num)]
    assert cfg.times().tobytes() == np.array(expected).tobytes()


# ---------------------------------------------------------------------------
# command runs


def test_dilation_run_columns_finite():
    table, code = run(parse_config(bench_config("dilation")))
    assert code == 0
    assert table.header[0] == "t"
    assert all(np.isfinite(v) for row in table.rows for v in row)


def test_aluminium_config_reproduces_coherence_run():
    cfg = parse_config((REPO_ROOT / "configs" / "aluminium.cfg").read_text())
    table, code = run(cfg)
    assert code == 0
    t_coh = table.rows[0][table.header.index("t_coh")]
    assert 1.9e-17 < t_coh < 2.4e-17


def _mpmath_t_coh(mpmath, kin: dict, t, g):
    """T_sup - T_mix = t (R_cat - R_mix) at 50 digits, from the cat's
    moments with their interference cross terms, at the physical c."""
    mpf = mpmath.mpf
    with mpmath.mp.workdps(50):
        hbar, c, t, g = mpf(HBAR), mpf(C_LIGHT), mpf(t), mpf(g)
        sx, dx, alpha, theta, mass, x1, p0 = (mpf(kin[key]) for key in (
            "sigma_x", "delta_x0", "alpha", "theta", "mass", "x0", "p0"))
        x2 = x1 + dx
        sp2 = (hbar / (2 * sx)) ** 2
        k_amp = 2 * mpmath.sqrt(alpha * (1 - alpha)) * mpmath.exp(-(dx / (2 * sx)) ** 2 / 2)
        n = 1 + k_amp * mpmath.cos(theta)
        phase = mpmath.expj(theta)
        mu = p0 - 1j * sp2 * dx / hbar  # mean of the cross terms' shifted Gaussian
        mean_p = (p0 + k_amp * mpmath.re(phase * mu)) / n
        mean_p2 = (p0**2 + sp2 + k_amp * mpmath.re(phase * (mu**2 + sp2))) / n
        mean_x = (alpha * x1 + (1 - alpha) * x2 + k_amp * mpmath.cos(theta) * (x1 + x2) / 2) / n

        def r(mean_x, mean_p, mean_p2):
            return (-mean_p2 / (2 * mass**2 * c**2) + g * mean_x / c**2
                    + mean_p * g * t / (mass * c**2) - (g * t / c) ** 2 / 3)

        r_mix = alpha * r(x1, p0, p0**2 + sp2) + (1 - alpha) * r(x2, p0, p0**2 + sp2)
        return t * (r(mean_x, mean_p, mean_p2) - r_mix)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 1.1, 2.5])
def test_coherence_column_matches_50_digits(theta):
    # the aluminium cat moving at 3 sigma_p, 20 times in [0.1, 2] s
    mpmath = pytest.importorskip("mpmath")
    text = (REPO_ROOT / "configs" / "aluminium.cfg").read_text()
    kin = {"sigma_x": 368e-12, "delta_x0": 736e-12, "alpha": 0.5, "mass": 4.483455479820e-26,
           "x0": 0.0, "p0": 3.0 * HBAR / (2.0 * 368e-12), "theta": theta}
    text = text.replace("p0 = 0.0", f"p0 = {kin['p0']!r}").replace("theta = 0.0",
                                                                   f"theta = {theta!r}")
    text = text.replace("t = 1.0", "t_start = 0.1\nt_stop = 2.0\nt_num = 20")
    table, code = run(parse_config(text))
    assert code == 0 and len(table.rows) == 20
    for row in table.rows:
        t, value = row[table.header.index("t")], row[table.header.index("t_coh")]
        ref = _mpmath_t_coh(mpmath, kin, t, 9.81)
        assert abs(value - ref) <= 5e-14 * abs(ref), (t, value, float(ref))


def test_coherence_zero_separation_gives_zero_column():
    cfg = parse_config(bench_config(
        "coherence", kin_type="cat",
        cat_keys="delta_x0 = 0.0\nalpha = 0.5\ntheta = 0.0"))
    table, _ = run(cfg)
    col = table.header.index("t_coh")
    assert all(row[col] == 0.0 for row in table.rows)


def test_sweep_finds_interior_maximum():
    cfg = parse_config(bench_config(
        "sweep", kin_type="cat",
        cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0",
        extra="\n[sweep]\nstart = 0.1\nstop = 8.0\nnum = 40\n"))
    table, _ = run(cfg)
    col = table.header.index("t_coh")
    values = [row[col] for row in table.rows]
    peak = int(np.argmax(values))
    assert 0 < peak < len(values) - 1


def test_sweep_parameter_key_is_unknown(tmp_path, capsys):
    # the swept variable is always delta_x0 / sigma_x, so no key names it
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(bench_config(
        "sweep", kin_type="cat", cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0",
        extra="\n[sweep]\nparameter = delta_x0_over_sigma_x\nnum = 4\n"))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")]) == 2
    assert "unknown key 'parameter' in section [sweep]" in capsys.readouterr().err


def test_verify_run_exit_codes():
    passing = parse_config(bench_config("verify", extra="\n[verify]\nc_scalings = 1,2,4\n"))
    table, code = run(passing)
    assert code == 0
    assert ("resolved", "True") in table.metadata and ("verdict", "pass") in table.metadata
    # the spread residual of the d = 4 dial falls as c^-4, short of the
    # report's c^-5 rule, and the CLI exits on the report's verdict
    failing_text = bench_config("verify", extra="\n[verify]\ntarget = sigma\nc_scalings = 1,2,4\n")
    failing = parse_config(failing_text)
    table, code = run(failing)
    assert code == 3
    assert ("verdict", "fail") in table.metadata
    # at 1e8 times the bench light speed sigma_I + sigma_NI is below 1e-12 of
    # the spread: every residual is at the floor, yet many times the
    # correction, so the report judges nothing and does not pass
    unresolved = re.sub(r"c_scale = .*", "c_scale = 0.011729", failing_text)
    table, code = run(parse_config(unresolved))
    assert code == 3
    for line in (("at_floor", "True"), ("resolved", "False"), ("verdict", "fail")):
        assert line in table.metadata
    assert min(row[4] for row in table.rows) > 10.0
    # at whole dial steps the d = 4 dial sits in a time ket, tr E = -1 and the
    # correction t R (1 + tr E) is rounding: its residuals stand above the
    # floor and fall as c^-2, yet the report does not pass
    passing_text = bench_config("verify", extra="\n[verify]\nc_scalings = 1,2,4\n")
    for frac in (0.25, 0.5, 0.75):
        text = passing_text.replace(f"t = {BENCH_T!r}", f"t = {frac * BENCH_PERIOD!r}")
        table, code = run(parse_config(text))
        assert code == 3
        for line in (("at_floor", "False"), ("resolved", "False"), ("verdict", "fail")):
            assert line in table.metadata
        assert min(row[4] for row in table.rows) > 1e12


@pytest.mark.parametrize("d, k", [(8, 4), (5, 2), (9, 4)], ids=["d8_k4", "d5_k2", "d9_k4"])
def test_verify_at_a_dial_step_time_is_unresolved(d, k, tmp_path):
    # at t = kP/d the dial's rate is within 1e-16 of 0 but not 0: a correction
    # t R rate formed from it is tiny yet not 0, so its relative residual is
    # finite, the CSV is written and the report is unresolved
    text = bench_config("verify", extra="\n[verify]\nc_scalings = 1,2,4\n").replace(
        "d = 4\n", f"d = {d}\n").replace(f"t = {BENCH_T!r}", f"t = {k * BENCH_PERIOD / d!r}")
    cfg_path, out = tmp_path / "step.cfg", tmp_path / "step.csv"
    cfg_path.write_text(text)
    assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]) == 3
    assert "# resolved = False" in out.read_text().splitlines()


def test_verify_sigma_target_reports_exponents():
    text = bench_config(
        "verify",
        extra="\n[verify]\ntarget = sigma\nc_scalings = 1,2\n",
    ).replace("model = swp", "model = quasi_ideal\nsigma_bar = 4.0\nm0 = 4.0"
              ).replace("d = 4", "d = 16")
    table, code = run(parse_config(text))
    assert ("quantity", "clock_time_spread") in table.metadata
    assert code in (0, 3)
    assert len(table.rows) == 2


def test_precision_requires_zero_gravity():
    text = bench_config("precision").replace("g = 0.0", "g = 9.81")
    with pytest.raises(ConfigError, match="g = 0"):
        parse_config(text)


def measurement_config() -> str:
    # a bin off the centre, so that a CSV whose '# bin' line is not the config's shows
    return bench_config(
        "measurement",
        extra="\n[measurement]\nq_values = 0.1,1.0,10.0\nbin = 1\n",
    ).replace("model = swp", "model = idealised\nsigma_t0 = 1e-9").replace(
        "d = 4\n", "").replace(f"omega = {BENCH_OMEGA!r}\n", "")


SWEEP_CONFIG = bench_config("sweep", kin_type="cat",
                            cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0",
                            extra="\n[sweep]\nstart = 0.1\nstop = 8.0\nnum = 40\n")


def test_import_loads_no_scipy(tmp_path):
    # the runtime needs numpy only: neither the import nor a command loads
    # scipy, the measurement command being the last one that used a scipy
    # routine. numpy.fft loads only where a dial clock is read, so the
    # import and the commands that read none do not pay for it
    measurement = tmp_path / "m.cfg"
    measurement.write_text(measurement_config())
    sweep = tmp_path / "s.cfg"
    sweep.write_text(SWEEP_CONFIG)
    runs = [[command, "--config", str(path), "--out", str(tmp_path / f"{command}.csv"),
             "--no-timestamp"]
            for command, path in (("measurement", measurement),
                                  ("coherence", REPO_ROOT / "configs" / "aluminium.cfg"),
                                  ("sweep", sweep))]
    code = ("import sys, chronodil, chronodil.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))\n"
            "print(loaded())\n"
            f"for argv in {runs!r}:\n"
            "    assert chronodil.cli.main(argv) == 0\n"
            "    print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["[]"] * 4


def test_cold_coherence_and_sweep_load_only_their_modules(tmp_path):
    # a command imports only the library modules it runs; -X importtime
    # names every module a cold `python -m chronodil.cli` process imports
    sweep = tmp_path / "s.cfg"
    sweep.write_text(SWEEP_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for command, path in (("coherence", REPO_ROOT / "configs" / "aluminium.cfg"),
                          ("sweep", sweep)):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "chronodil.cli", command, "--config",
             str(path), "--out", str(tmp_path / f"{command}.csv"), "--no-timestamp"],
            env=env, capture_output=True, text=True, check=True)
        loaded = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
        assert "chronodil.dilation" in loaded, command
        unused = {"chronodil.oracle", "chronodil.precision", "chronodil.measurement"}
        assert not loaded & unused, command


def test_shared_parser_keeps_nothing_between_calls(tmp_path):
    # one parser serves every call in a process: an option of one call must
    # not reach the next
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(SWEEP_CONFIG)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv + ["--no-timestamp"]) == 0
    assert "# generated = " not in out.read_text()
    assert main(argv) == 0
    assert "# generated = " in out.read_text()


def test_plot_script_flag_is_refused_before_any_work(tmp_path, capsys):
    # the CLI writes one CSV; --plot-script is an unknown argument, so argparse
    # exits 2 before the config is read and no file is written
    cfg_path, out, script = tmp_path / "m.cfg", tmp_path / "m.csv", tmp_path / "m.gp"
    cfg_path.write_text(measurement_config())
    with pytest.raises(SystemExit) as excinfo:
        main(["measurement", "--config", str(cfg_path), "--out", str(out),
              "--plot-script", str(script)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --plot-script" in capsys.readouterr().err
    assert not out.exists()
    assert not script.exists()


# ---------------------------------------------------------------------------
# CSV


def _write(table, cfg) -> bytes:
    buf = io.BytesIO()
    write_csv(table, cfg, buf)
    return buf.getvalue()


def test_csv_rows_keep_the_per_cell_bytes():
    cfg = parse_config(MINIMAL_DILATION)
    rows = [[-0.0, 0.0, 5e-324],
            [1.7976931348623157e308, np.float64(7.0), 1e-19],
            [np.float64(1e-19), 12.0, -1.7976931348623157e308]]
    lines = _write(CsvTable(header=["t", "n", "x"], rows=rows), cfg).decode().splitlines()
    assert lines[-4:] == ["t,n,x"] + [",".join(format(v, ".17e") for v in row) for row in rows]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_rejects_non_finite_cell(bad):
    buf = io.BytesIO()
    with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad!r} in CSV output")):
        write_csv(CsvTable(header=["t", "x"], rows=[[1.0, 2.0], [3.0, bad]]),
                  parse_config(MINIMAL_DILATION), buf)
    assert buf.getvalue() == b""


def test_cli_non_finite_output_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._RUNNERS, "dilation",
                        lambda cfg: (CsvTable(header=["t", "x"], rows=[[1.0, np.nan]]), 0))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    out = tmp_path / "out.csv"
    assert main(["dilation", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 2
    assert "non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_verify_on_idealised_clock_exits_2_and_writes_nothing(tmp_path, capsys):
    # idealised is the schema's default model; the oracle cannot evolve it
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text(bench_config("verify").replace("model = swp\nd = 4\n",
                                                       "model = idealised\nsigma_t0 = 1e-4\n"))
    out = tmp_path / "out.csv"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]) == 2
    assert "needs a ClockModel" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("precision", ""), ("verify", "\n[verify]\ntarget = sigma\n")], ids=["precision", "verify"])
def test_spread_of_the_qubit_exits_2_and_writes_nothing(command, extra, tmp_path, capsys):
    # sigma_NI assumes a projective measurement; the phase clock's is not
    cfg_path = tmp_path / "qubit.cfg"
    cfg_path.write_text(bench_config(command, extra=extra).replace("model = swp\nd = 4\n",
                                                                   "model = qubit_phase\n"))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]) == 2
    assert "assumes a projective time measurement" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (("model = idealised\nsigma_t0 = 1e-9", f"model = swp\nd = 4\nomega = {BENCH_OMEGA!r}"),
     "conditioning needs an IdealisedClock, got ClockModel"),
    (("type = gaussian", "type = cat\ndelta_x0 = 3e-7"),
     "conditioning needs a GaussianState, got CatState"),
], ids=["dial", "cat"])
def test_measurement_input_the_library_rejects_exits_2_and_writes_nothing(edit, message,
                                                                          tmp_path, capsys):
    # conditioned_sigma is the only check of the clock and the state it conditions
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(_edited(measurement_config(), edit))
    out = tmp_path / "out.csv"
    assert main(["measurement", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_measurement_at_zero_sigma_t0_is_the_motional_spread(tmp_path):
    # sigma_t0 = 0 is a valid IdealisedClock: each spread is t sqrt(var(W | n)) alone
    cfg_path, out = tmp_path / "m.cfg", tmp_path / "m.csv"
    cfg_path.write_text(_edited(measurement_config(), ("sigma_t0 = 1e-9", "sigma_t0 = 0.0")))
    assert main(["measurement", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 0
    cfg = parse_config(cfg_path.read_text())
    kstate = cfg.kinematic_state()
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    header, cells = rows[0], np.array(rows[1:], dtype=float)
    assert np.all(cells[:, header.index("sigma_nr")] == 0.0)
    (n,) = (int(line.removeprefix("# bin = ")) for line in out.read_text().splitlines()
            if line.startswith("# bin = "))
    for t, q, sigma in cells[:, [header.index(key) for key in ("t", "q", "sigma_conditioned")]]:
        var_w = _conditional_w_moments(kstate, *bin_edges(kstate, q, n), cfg.c_light())[2]
        assert abs(sigma - t * np.sqrt(var_w)) <= 1e-15 * sigma


@pytest.mark.parametrize("target", ["mean_time", "sigma"])
@pytest.mark.parametrize("edit, message", [
    (("c_scalings = 1,2,4", "c_scalings = 1, 1, 1"), "at least two distinct c scalings"),
    (("c_scalings = 1,2,4", "c_scalings = 1"), "at least two distinct c scalings"),
    ((f"t = {BENCH_T!r}", "t = 0.0"), "needs t != 0"),
], ids=["repeated_scaling", "one_scaling", "zero_time"])
def test_verify_input_it_cannot_judge_exits_2_and_writes_nothing(edit, message, target, tmp_path,
                                                                 capsys):
    # rejected as input, not reported as a failed verification (exit 3)
    text = bench_config("verify", extra=f"\n[verify]\ntarget = {target}\nc_scalings = 1,2,4\n")
    cfg_path = tmp_path / "verify.cfg"
    cfg_path.write_text(_edited(text, edit))
    out = tmp_path / "out.csv"
    assert main(["verify", "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _kernel_cells(values) -> list[str]:
    x = np.asarray(values, dtype=float)
    out = np.zeros((x.size, cli._FLOAT_FIELD), dtype=np.uint8)
    cli._write_floats(x, out)
    return [bytes(row[row != 0]).decode() for row in out]


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_kernel_writes_the_bytes_of_percent_17e(x):
    # every finite double, -0.0 and the subnormals included
    assert _kernel_cells([x]) == ["%.17e" % x]


def _text_table(texts, width: int, dtype) -> np.ndarray:
    """One ``dtype`` value per text: its ASCII bytes, padded with zero bytes."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=dtype)


def test_kernel_byte_tables_match_their_formatted_text():
    # the digit arithmetic builds the bytes that these f-strings spell out
    groups = _text_table([f"{i:03d}" for i in range(1000)]
                         + [f"{i // 100}.{i % 100:02d}" for i in range(1000)], 4, np.uint32)
    exponents = _text_table([f"e{e:+03d}" for e in range(cli._EXP_MIN, 309)], 8, np.uint64)
    for table, expected in ((cli._group_bytes(), groups), (cli._exp_bytes(), exponents)):
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)


def _edge_values() -> list[float]:
    values = [1.0 + 2.0**-18, 1.0 + 3.0 * 2.0**-18,  # exact ties, rounded half to even
              5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    for k in range(-300, 301):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf),
                   float(f"9.99999999999999999e{k}")]  # next to 10^(k+1)
    return values


def test_float_kernel_edge_cases():
    values = _edge_values()
    assert "%.17e" % values[0] == "1.00000381469726562e+00"
    assert _kernel_cells(values) == ["%.17e" % v for v in values]


def _float_rows(n_rows: int) -> np.ndarray:
    rng = np.random.default_rng(n_rows)
    scale = 10.0 ** rng.uniform(-40, 10, (n_rows, 6))
    values = rng.normal(size=(n_rows, 6)) * scale
    values[rng.random((n_rows, 6)) < 0.05] = 0.0
    values[:, 1] = np.arange(n_rows) % 3 - 1  # integral values, 0 among them
    values[:, 3] = 1e12 * np.arange(n_rows)
    values[-1, [0, 2, 4, 5]] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    return values


@pytest.mark.parametrize("kernel_min_cells", [cli._KERNEL_MIN_CELLS, 0])
@pytest.mark.parametrize("n_rows", [1, 3, 20, 2000])
def test_csv_table_bytes_match_the_per_row_writer(n_rows, kernel_min_cells, monkeypatch):
    monkeypatch.setattr(cli, "_KERNEL_MIN_CELLS", kernel_min_cells)
    cfg = parse_config(MINIMAL_DILATION)
    values = _float_rows(n_rows)
    header = ["a", "n", "b", "big", "c", "d"]
    # a list of rows and an array write the same bytes
    for table in (CsvTable(header, values.tolist()), CsvTable(header, values)):
        expected = io.BytesIO()
        reference_write_csv(table, cfg, expected)
        assert _write(table, cfg) == expected.getvalue()


GRID = f"t_start = {0.03 * BENCH_PERIOD!r}\nt_stop = {0.22 * BENCH_PERIOD!r}\nt_num = 40"
CAT_KEYS = "delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.7"


def _command_configs() -> dict:
    single = f"t = {BENCH_T!r}"
    return {
        "dilation": bench_config("dilation").replace(single, GRID).replace(
            "g = 0.0", "g = 9.81"),
        "coherence": bench_config("coherence", kin_type="cat", cat_keys=CAT_KEYS).replace(
            single, GRID).replace("g = 0.0", "g = 9.81"),
        "precision": bench_config("precision").replace(single, GRID),
        "measurement": measurement_config().replace(single, GRID),
        "verify": bench_config("verify", extra="\n[verify]\nc_scalings = 1,2,4\n"),
        "sweep": bench_config("sweep", kin_type="cat", cat_keys=CAT_KEYS,
                              extra="\n[sweep]\nstart = 0.1\nstop = 8.0\nnum = 100\n"),
    }


@pytest.mark.parametrize("kernel_min_cells", [cli._KERNEL_MIN_CELLS, 0])
def test_cli_bytes_of_every_command_match_the_per_row_writer(kernel_min_cells, tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(cli, "_KERNEL_MIN_CELLS", kernel_min_cells)
    for command, text in _command_configs().items():
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        outs = []
        for writer in (cli.write_csv, reference_write_csv):
            with monkeypatch.context() as m:
                m.setattr(cli, "write_csv", writer)
                out = tmp_path / f"{command}-{len(outs)}.csv"
                assert main([command, "--config", str(cfg_path), "--out", str(out),
                             "--no-timestamp"]) == 0, command
                outs.append(out.read_bytes())
        assert outs[0] == outs[1], command
        assert outs[0].count(b"\n") > 20 or command == "verify", command


def _library_columns(cfg: RunConfig) -> dict:
    """The value of each CSV column of ``cfg``'s command, by column name, from
    the library call whose field it names."""
    g, c, times = cfg.get("physics", "g"), cfg.c_light(), cfg.times()
    if cfg.command == "dilation":
        res = mean_clock_time(cfg.clock(), cfg.kinematic_state(), times, g, c=c)
        return {name: getattr(res, name) for name in
                ("t", "mean_t_nr", "r_factor", "error_trace", "mean_t", "classical_tau")}
    if cfg.command == "coherence":
        cat = cfg.kinematic_state()
        res = t_coh(cat, times, g, c=c)
        return {"t": times, "norm_factor": norm_factor(cat), "t_sup": res.t_sup,
                "t_mix": res.t_mix, "t_coh": res.t_coh}
    if cfg.command == "sweep":
        cat = cfg.kinematic_state()
        ratios = linear_grid(*(cfg.get("sweep", key) for key in ("start", "stop", "num")))
        separations = ratios * cat.sigma_x
        res = t_coh(dataclasses.replace(cat, delta_x0=separations), cfg.get("physics", "t"), g,
                    c=c)
        return {"delta_x0_over_sigma_x": ratios, "delta_x0": separations, "t_sup": res.t_sup,
                "t_mix": res.t_mix, "t_coh": res.t_coh}
    if cfg.command == "precision":
        br = sigma_breakdown(cfg.clock(), cfg.kinematic_state(), times, c=c)
        return {"t": times, "sigma_nr": br.sigma_nr, "sigma_i": br.sigma_i,
                "sigma_ni": br.sigma_ni, "sigma_total": br.total}
    if cfg.command == "verify":
        report = verify_mean_time(cfg.clock(), cfg.kinematic_state(), cfg.get("physics", "t"), g,
                                  c_scalings=cfg.get("verify", "c_scalings"), base_c=c)
        return {"c_scaling": report.c_scalings, "perturbative": report.perturbative,
                "exact": report.exact, "residual": report.residuals,
                "relative_residual": report.relative_residuals}
    # measurement: one row per time and q, q running fastest
    clock, kstate = cfg.clock(), cfg.kinematic_state()
    q_values, n = np.array(cfg.get("measurement", "q_values")), cfg.get("measurement", "bin")
    per_q = [conditioned_sigma(clock, kstate, times, q, n, c=c) for q in q_values]
    unconditioned = conditioned_sigma(clock, kstate, times, np.inf, 0, c=c)
    return {"t": np.repeat(times, q_values.size), "q": np.tile(q_values, times.size),
            "probability": np.tile([res.probability for res in per_q], times.size),
            "sigma_conditioned": np.array([res.sigma_t_given_n for res in per_q]).T.ravel(),
            "sigma_nr": clock.sigma_t0,
            "sigma_unconditioned": np.repeat(unconditioned.sigma_t_given_n, q_values.size)}


@pytest.mark.parametrize("command", sorted(_command_configs()))
def test_every_csv_column_is_the_library_value_it_names(command, tmp_path):
    # '%.17e' round-trips, so each cell reads back as its library value bit for bit
    text = _command_configs()[command]
    cfg_path, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--no-timestamp"]) == 0
    text_lines = out.read_text().splitlines()
    lines = [line for line in text_lines if not line.startswith("#")]
    cells = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    cfg = parse_config(text)
    expected = _library_columns(cfg)
    assert lines[0].split(",") == list(expected)
    if command == "measurement":  # the config's one bin, written once
        assert f"# bin = {cfg.get('measurement', 'bin')}" in text_lines
    for name, column in zip(expected, cells.T):
        np.testing.assert_array_equal(column, np.broadcast_to(expected[name], column.shape),
                                      err_msg=name)


def test_csv_determinism_via_entry_point(tmp_path, capsysbinary):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["dilation", "--config", str(cfg_path), "--out", str(out),
                     "--no-timestamp"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # without --out the same bytes go to standard output
    assert main(["dilation", "--config", str(cfg_path), "--no-timestamp"]) == 0
    assert capsysbinary.readouterr().out == outs[0]


def test_csv_contains_schema_and_config_echo(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    out = tmp_path / "out.csv"
    assert main(["dilation", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 0
    text = out.read_text()
    assert text.startswith("# schema = 1\n")
    assert "# cfg [run]" in text
    assert "nan" not in text.lower()


def test_timestamp_toggle(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    out = tmp_path / "out.csv"
    main(["dilation", "--config", str(cfg_path), "--out", str(out)])
    assert "# generated = " in out.read_text()


def test_cli_rejects_command_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    assert main(["coherence", "--config", str(cfg_path)]) == 2
    assert "declares command" in capsys.readouterr().err


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[run]\ncommand = dilation\nbogus = 1\n")
    assert main(["dilation", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path, out = tmp_path / "latin1.cfg", tmp_path / "out.csv"
    cfg_path.write_bytes(("# r\u00e9glage\n" + MINIMAL_DILATION).encode("latin-1"))
    assert main(["dilation", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "chronodil: config error: 'utf-8' codec can't decode byte 0xe9")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out"])
def test_output_path_that_cannot_be_opened_exits_2(flag, tmp_path, capsys):
    cfg_path, bad = tmp_path / "m.cfg", tmp_path / "no" / "such" / "file"
    cfg_path.write_text(measurement_config())
    assert main(["measurement", "--config", str(cfg_path), "--no-timestamp", flag, str(bad)]) == 2
    assert capsys.readouterr().err == (f"chronodil: cannot write {bad}: "
                                       f"{os.strerror(errno.ENOENT)}\n")
    assert not bad.exists()


def _edited(text: str, *edits: tuple[str, str]) -> str:
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    return text


# (config, message, the offending line or None): one case per ConfigError the
# parser or a builder raises. The parser names the line; the builders and the
# cross-key rules, which read more than one line, name none
CONFIG_ERRORS = {
    "clock_needs_omega": (_edited(MINIMAL_DILATION, ("omega = 1e3\n", "")),
                          "clock model 'swp' needs key 'omega'", None),
    "clock_needs_d": (_edited(MINIMAL_DILATION, ("d = 4\n", "")),
                      "clock model 'swp' needs key 'd'", None),
    "clock_needs_sigma_bar": (_edited(MINIMAL_DILATION, ("model = swp", "model = quasi_ideal")),
                              "'quasi_ideal' needs key 'sigma_bar'", None),
    "time_grid_incomplete": (_edited(MINIMAL_DILATION, ("t = 1e-3", "t_start = 1e-3")),
                             "needs either 't' or all of", None),
    "time_and_time_grid": (_edited(MINIMAL_DILATION, ("t = 1e-3", "t = 1e-3\nt_start = 0\n"
                                                                  "t_stop = 2e-3\nt_num = 50")),
                           "gives 't' and the time grid keys ['t_start', 't_stop', 't_num']", None),
    "choice": (_edited(MINIMAL_DILATION, ("model = swp", "model = sundial")),
               "key 'model': value 'sundial' not one of", "model = sundial"),
    "float_list": (MINIMAL_DILATION + "\n[verify]\nc_scalings = 1, two\n",
                   "key 'c_scalings': expected comma-separated floats", "c_scalings = 1, two"),
    "float_list_non_finite": (MINIMAL_DILATION + "\n[verify]\nc_scalings = 1, inf\n",
                              "key 'c_scalings': non-finite value", "c_scalings = 1, inf"),
    "float": (_edited(MINIMAL_DILATION, ("omega = 1e3", "omega = fast")),
              "key 'omega': expected float, got 'fast'", "omega = fast"),
    "no_equals": (_edited(MINIMAL_DILATION, ("omega = 1e3", "omega 1e3")),
                  "expected 'key = value', got 'omega 1e3'", "omega 1e3"),
    "outside_section": ("seed = 3\n" + MINIMAL_DILATION, "key outside any [section]",
                        "seed = 3"),
    "sweep_needs_cat": (_edited(SWEEP_CONFIG, ("type = cat", "type = gaussian")),
                        "command 'sweep' needs kinematics type 'cat'", None),
    "verify_sigma_needs_zero_gravity": (
        _edited(bench_config("verify", extra="\n[verify]\ntarget = sigma\n"),
                ("g = 0.0", "g = 9.81")),
        "command 'verify' with target 'sigma' is defined at g = 0; set g = 0 in [physics]", None),
    "run_out": (_edited(MINIMAL_DILATION, ("seed = 3", "seed = 3\nout = x.csv")),
                "unknown key 'out' in section [run]", "out = x.csv"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_every_config_error_names_itself_and_exits_2(case, tmp_path, capsys):
    text, message, bad_line = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError, match=re.escape(message)) as excinfo:
        parse_config(text).clock()  # the builders raise when the clock is built
    line = None if bad_line is None else text.splitlines().index(bad_line) + 1
    assert excinfo.value.line == line
    command = re.search(r"command = (\w+)", text).group(1)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


COHERENCE_CONFIG = bench_config("coherence", kin_type="cat",
                                cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0")
DILATION_CONFIG = bench_config("dilation")

# (config, message): one case per value the library checks where it takes it
# in. The parser checks no range, so each config parses, and main prints the
# library's message alone
LIBRARY_ERRORS = {
    "d": (_edited(DILATION_CONFIG, ("d = 4", "d = 1")), "clock dimension must be >= 2, got 1"),
    "omega": (_edited(bench_config("precision"), (f"omega = {BENCH_OMEGA!r}", "omega = 0.0")),
              "omega must be positive, got 0.0"),
    "sigma_bar": (_edited(DILATION_CONFIG, ("model = swp",
                                            "model = quasi_ideal\nsigma_bar = 0.0")),
                  "sigma_bar must lie in (0, d), got 0.0"),
    "sigma_t0": (_edited(measurement_config(), ("sigma_t0 = 1e-9", "sigma_t0 = -1e-9")),
                 "sigma_t0 must be finite and non-negative, got -1e-09"),
    "sigma_x": (_edited(DILATION_CONFIG, (f"sigma_x = {BENCH_SIGMA_X!r}", "sigma_x = 0.0")),
                "sigma_x must be positive, got 0.0"),
    "mass": (_edited(measurement_config(), (f"mass = {BENCH_MASS!r}", "mass = 0.0")),
             "mass must be positive, got 0.0"),
    "delta_x0": (_edited(COHERENCE_CONFIG, ("delta_x0 = 3e-7", "delta_x0 = -3e-7")),
                 "delta_x0 must be >= 0, got -3e-07"),
    "alpha": (_edited(SWEEP_CONFIG, ("alpha = 0.5", "alpha = 1.0")),
              "alpha must lie in (0, 1), got 1.0"),
    "c_scale": (re.sub(r"c_scale = .*", "c_scale = 0.0", DILATION_CONFIG),
                "light speed c must be finite and positive, one value or a 1-D stack, got 0.0"),
    **{f"t_num_{num}": (_edited(DILATION_CONFIG, (f"t = {BENCH_T!r}",
                                                  f"t_start = 1e-3\nt_stop = 2e-3\nt_num = {num}")),
                        f"a linear grid needs at least 2 points, got num = {num}")
       for num in (0, 1)},
    **{f"num_{num}": (_edited(SWEEP_CONFIG, ("num = 40", f"num = {num}")),
                      f"a linear grid needs at least 2 points, got num = {num}")
       for num in (0, 1)},
    "coherence_on_a_gaussian": (bench_config("coherence"),
                                "the coherence term needs a CatState, got GaussianState"),
    "q_values": (_edited(measurement_config(), ("q_values = 0.1,1.0,10.0", "q_values = 1.0, -2.0")),
                 "the bin width q must be positive, got -2.0"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_every_value_the_library_rejects_exits_2_with_its_message(case, tmp_path, capsys):
    text, message = LIBRARY_ERRORS[case]
    cfg = parse_config(text)
    cfg_path, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
    cfg_path.write_text(text)
    assert main([cfg.command, "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"chronodil: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("num", [1, 0, -1])
def test_linear_grid_needs_two_points(num):
    with pytest.raises(ValueError, match=f"at least 2 points, got num = {num}$"):
        linear_grid(0.0, 1.0, num)
    # a count that is not an integer, 2.5 say, would run the grid past stop
    with pytest.raises(TypeError):
        linear_grid(0.0, 1.0, num + 1.5)


def test_qubit_phase_config_runs_through_main(tmp_path):
    # the config's qubit branch builds the library's qubit phase clock
    text = _edited(MINIMAL_DILATION, ("model = swp\nd = 4", "model = qubit_phase"))
    cfg_path, out = tmp_path / "qubit.cfg", tmp_path / "qubit.csv"
    cfg_path.write_text(text)
    assert main(["dilation", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp"]) == 0
    cfg = parse_config(text)
    expected = mean_clock_time(build_qubit_phase(1e3), cfg.kinematic_state(), 1e-3, 9.81)
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    header, cells = rows[0].split(","), [float(x) for x in rows[1].split(",")]
    assert cells[header.index("mean_t")] == expected.mean_t
    assert cells[header.index("error_trace")] == expected.error_trace != 0.0


def test_csv_of_a_table_without_rows_is_its_header():
    stream = io.BytesIO()
    write_csv(CsvTable(header=["t", "x"], rows=np.empty((0, 2))), parse_config(MINIMAL_DILATION),
              stream)
    assert stream.getvalue().decode().endswith("# cfg t = 1e-3\nt,x\n")

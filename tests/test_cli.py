import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chronodil import cli
from chronodil.cli import CsvTable, emit_plot_script, main, run, write_csv
from chronodil.config import ConfigError, echo_lines, parse_config
from helpers import BENCH_MASS, BENCH_OMEGA, BENCH_SIGMA_X, BENCH_T, bench_c

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
    assert cfg.seed == 3
    assert cfg.get("clock", "d") == 4
    assert cfg.get("kinematics", "sigma_x") == 1e-9
    clock = cfg.clock()
    assert clock.dim == 4
    state = cfg.kinematic_state()
    assert state.mass == 9.1093837015e-31


def test_alpha_out_of_range_names_key_and_line():
    text = MINIMAL_DILATION.replace("type = gaussian", "type = gaussian\nalpha = 1.5")
    with pytest.raises(ConfigError, match=r"line \d+: key 'alpha'.*less than 1.0"):
        parse_config(text)


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
    assert ("verdict", "pass") in table.metadata
    # the spread residual of the d = 4 dial falls as c^-4, short of the
    # report's c^-5 rule, and the CLI exits on the report's verdict
    failing = parse_config(bench_config(
        "verify", extra="\n[verify]\ntarget = sigma\nc_scalings = 1,2,4\n"))
    table, code = run(failing)
    assert code == 3
    assert ("verdict", "fail") in table.metadata


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
    return bench_config(
        "measurement",
        extra="\n[measurement]\nq_values = 0.1,1.0,10.0\nbin = 0\n",
    ).replace("model = swp", "model = idealised\nsigma_t0 = 1e-9").replace(
        "d = 4\n", "").replace(f"omega = {BENCH_OMEGA!r}\n", "")


def test_import_loads_no_scipy(tmp_path):
    # the runtime needs numpy only: neither the import nor the measurement
    # command, the last one that used a scipy routine, loads scipy
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(measurement_config())
    argv = ["measurement", "--config", str(cfg_path), "--out", str(tmp_path / "m.csv"),
            "--no-timestamp"]
    code = ("import sys, chronodil, chronodil.cli; "
            f"assert chronodil.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# CSV and plot scripts


def _write(table, cfg) -> bytes:
    buf = io.StringIO()
    write_csv(table, cfg, buf)
    return buf.getvalue().encode()


def test_csv_rows_keep_the_per_cell_bytes():
    cfg = parse_config(MINIMAL_DILATION)
    rows = [[-0.0, 0, 5e-324],
            [1.7976931348623157e308, np.int64(7), 1e-19],
            [np.float64(1e-19), 12, -1.7976931348623157e308]]
    lines = _write(CsvTable(header=["t", "bin", "x"], rows=rows), cfg).decode().splitlines()
    expected = [",".join(str(int(v)) if isinstance(v, (int, np.integer)) else format(v, ".17e")
                         for v in row) for row in rows]
    assert lines[-4:] == ["t,bin,x"] + expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_rejects_non_finite_cell(bad):
    buf = io.StringIO()
    with pytest.raises(ValueError, match="non-finite value"):
        write_csv(CsvTable(header=["t", "x"], rows=[[1.0, 2.0], [3.0, bad]]),
                  parse_config(MINIMAL_DILATION), buf)
    assert buf.getvalue() == ""


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


def test_csv_determinism_via_entry_point(tmp_path):
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


def test_plot_script_measurement_one_curve_per_q(tmp_path):
    cfg_path = tmp_path / "m.cfg"
    cfg_path.write_text(measurement_config())
    out = tmp_path / "m.csv"
    script_path = tmp_path / "m.gp"
    assert main(["measurement", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp", "--plot-script", str(script_path)]) == 0
    script = script_path.read_text()
    assert script.count("title 'q = ") == 3


def test_plot_script_unsupported_command_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(bench_config("dilation"))
    out = tmp_path / "out.csv"
    script_path = tmp_path / "out.gp"
    assert main(["dilation", "--config", str(cfg_path), "--out", str(out),
                 "--no-timestamp", "--plot-script", str(script_path)]) == 2
    assert "--plot-script only supports" in capsys.readouterr().err
    assert not out.exists()
    assert not script_path.exists()


def test_plot_script_sweep_labels_extremum():
    cfg = parse_config(bench_config(
        "sweep", kin_type="cat",
        cat_keys="delta_x0 = 3e-7\nalpha = 0.5\ntheta = 0.0",
        extra="\n[sweep]\nstart = 0.5\nstop = 6.0\nnum = 16\n"))
    table, _ = run(cfg)
    script = emit_plot_script(table, "sweep", csv_path="sweep.csv")
    assert "set label 'maximum'" in script
    assert script == emit_plot_script(table, "sweep", csv_path="sweep.csv")


def test_plot_script_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unsupported table kind"):
        emit_plot_script(CsvTable(header=["a"], rows=[[1.0]]), "histogram")

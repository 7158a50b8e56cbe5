"""Compare the CLI outputs of two source trees of chronodil.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Every benchmark operation of ``perfbench/workloads.py`` at seeds 0-2, and
every configuration in ``configs/``, is run through both trees' CLI as

    python -m chronodil.cli <command> --config <file> --out <csv> --no-timestamp

For each operation the report gives both exit codes, whether the two CSVs
are byte-identical, and whether ``perfbench/reference.py`` accepts the
change's CSV. For each column whose cells differ it gives the number of
changed cells and the largest absolute and relative change, relative to
the parent's cell (inf where that cell is 0).

The operations and references are read from this checkout's
``perfbench/``, which is imported without writing bytecode and is not
modified. Exit status: 0 when every exit code matches and the reference
accepts every change output, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import reference  # noqa: E402
import workloads  # noqa: E402


def operations() -> list[tuple[str, workloads.Op]]:
    """(label, operation) of every benchmark operation at each seed, then of
    every configuration file."""
    ops = [(f"seed {seed} {op.name}", op) for seed in SEEDS for name in workloads.WORKLOADS
           for op in workloads.build(name, seed, ROOT)]
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        sections = workloads.parse_flat_config(path.read_text(encoding="utf-8"))
        config = str(path.relative_to(ROOT))
        ops.append((config, workloads.Op(path.stem, sections["run"]["command"], sections, config)))
    return ops


def run_cli(src: Path, op: workloads.Op, work: Path) -> tuple[int, bytes | None]:
    """(exit code, CSV bytes or None) of one operation on the tree at ``src``."""
    config = op.config_file
    if config is None:
        config = work / f"{op.name}.cfg"
        config.write_text(op.config_text(), encoding="utf-8")
    out = work / f"{op.name}.csv"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "chronodil.cli", op.command, "--config",
                           str(config), "--out", str(out), "--no-timestamp"],
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True)
    return proc.returncode, (out.read_bytes() if out.exists() else None)


def column_changes(parent: bytes, change: bytes) -> list[str]:
    """One line per differing column or metadata set of two CSVs."""
    (meta_a, cols_a), (meta_b, cols_b) = (reference.read_csv(x.decode()) for x in (parent, change))
    lines = []
    for key in sorted(k for k in meta_a.keys() | meta_b.keys() if meta_a.get(k) != meta_b.get(k)):
        lines.append(f"# {key}: {meta_a.get(key)} -> {meta_b.get(key)}")
    if list(cols_a) != list(cols_b):
        lines.append(f"columns {list(cols_a)} -> {list(cols_b)}")
    for name in (n for n in cols_a if n in cols_b):
        a, b = cols_a[name], cols_b[name]
        if a.shape != b.shape:
            lines.append(f"{name}: {a.size} rows -> {b.size}")
            continue
        changed = a != b
        if not changed.any():
            continue
        delta = np.abs(b - a)[changed]
        with np.errstate(divide="ignore"):
            rel = delta / np.abs(a[changed])
        lines.append(f"{name}: {int(changed.sum())} of {a.size} cells, "
                     f"max abs {delta.max():.3g}, max rel {rel.max():.3g}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    for src in (parent, change):
        if not (src / "chronodil" / "cli.py").is_file():
            print(f"{src} is not the src directory of a chronodil checkout", file=sys.stderr)
            return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, op in operations():
            (code_a, csv_a), (code_b, csv_b) = (run_cli(src, op, work) for src in (parent, change))
            if csv_b is None:
                verdict = "no output"
            else:
                problems = reference.check(op, csv_b.decode())[0]
                verdict = "reference accepts" if not problems else f"reference rejects ({len(problems)})"
            same = "identical" if csv_a == csv_b else "differ"
            print(f"{label}: exit {code_a} -> {code_b}, bytes {same}, {verdict}")
            ok &= code_a == code_b and verdict == "reference accepts"
            if csv_a is not None and csv_b is not None and csv_a != csv_b:
                for line in column_changes(csv_a, csv_b):
                    print(f"    {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

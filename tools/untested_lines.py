"""List the statements of ``src/chronodil`` that the test suite never runs.

    python tools/untested_lines.py [PYTEST_ARGS...]

Runs ``python -m pytest -q`` (plus any PYTEST_ARGS) from the repository
root under a ``sys.settrace`` line tracer limited to ``src/chronodil``.
The tracer is installed by a temporary ``sitecustomize.py`` put first on
``PYTHONPATH``, so the CLI child processes the tests start are traced
too; each traced process writes the lines it ran to a temporary
directory when it exits. The tracer uses the standard library only, so a
traced process loads no module its untraced twin would not.

A statement counts as run when any of its own lines ran: its lines less
those of the statements nested in it, and of those only the lines that
carry bytecode. Statements with no bytecode of their own (a function's
docstring, ``global``) are not listed. Every other statement that never
ran is printed as ``path:line: source``, followed by the count.

Exit status: 0 when every statement ran, 1 otherwise. Test failures do
not change it; the suite's own summary is printed above the list.
No ``coverage`` package is needed.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chronodil"

SITECUSTOMIZE = '''\
import atexit, os, sys

_PREFIX = os.environ["UNTESTED_LINES_PACKAGE"] + os.sep
_OUT = os.environ["UNTESTED_LINES_OUT"]
_ran = {}


def _local(frame, event, arg):
    if event == "line":
        _ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _local
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, f"{os.getpid()}.lines")
    with open(path, "a", encoding="utf-8") as out:
        for filename, lines in _ran.items():
            out.writelines(f"{filename}\\t{line}\\n" for line in lines)


sys.settrace(_global)
atexit.register(_dump)
'''


def run_traced(pytest_args: list[str]) -> dict[str, set[int]]:
    """{file name: lines run} over the test run and every process it started."""
    ran: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
                   PYTHONDONTWRITEBYTECODE="1", UNTESTED_LINES_PACKAGE=str(PACKAGE),
                   UNTESTED_LINES_OUT=str(out))
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        *pytest_args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
        for record in out.glob("*.lines"):
            for row in record.read_text(encoding="utf-8").splitlines():
                filename, line = row.rsplit("\t", 1)
                ran.setdefault(filename, set()).add(int(line))
    return ran


def code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree: ast.Module):
    """(statement, its own lines) of every statement in the module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own


def untested(ran: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """(file, line) of every statement with bytecode of its own that never ran."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        executable = code_lines(compile(source, str(path), "exec"))
        lines_run = ran.get(str(path), set())
        for node, own in statements(ast.parse(source)):
            own &= executable
            if own and not own & lines_run and not _is_docstring(node):
                missed.append((path, node.lineno))
    return sorted(set(missed))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    missed = untested(run_traced(list(argv)))
    for path, line in missed:
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {source}")
    print(f"{len(missed)} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

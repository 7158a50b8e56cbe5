"""The public surface: ``chronodil.__all__``, the fields of ``ClockModel``,
no public top-level definition in the library that nothing calls, and no
``module.name`` in README that the package lacks."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import chronodil
from chronodil.clocks import ClockModel

SRC = Path(chronodil.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = sorted("""
    ATOMIC_MASS_UNIT C_LIGHT ELECTRON_MASS G_STANDARD HBAR ClockModel IdealisedClock
    build_qubit_phase build_quasi_ideal build_swp free_reading CatState
    GaussianState moments norm_factor r_factor classical_proper_time
    mean_clock_time t_coh sigma_breakdown sigma_dispersion_exact sigma_ideal_term
    w_moments MomentumBinning conditioned_sigma JointState VerificationReport
    evolve_characteristics_g verify_mean_time verify_sigma""".split())

# the classical proper time that criterion 03 averages, which warns where the
# library's own classical_tau reads its formula silently, and the variance-law
# reference that criterion 7a prints and README documents
UNCALLED = ["dilation.classical_proper_time", "precision.sigma_dispersion_exact"]


def test_exports_are_pinned():
    assert sorted(chronodil.__all__) == EXPORTS


def test_every_export_resolves_from_its_module():
    # the package binds no export itself: each comes through the lazy
    # __getattr__ from the module the export table names
    for name in chronodil.__all__:
        module = importlib.import_module(f"chronodil.{chronodil._EXPORTS[name]}")
        assert getattr(chronodil, name) is getattr(module, name)
    assert not set(chronodil.__all__) & set(vars(chronodil))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(chronodil, "no_such_name")
    with pytest.raises(ImportError):
        from chronodil import no_such_name  # noqa: F401


def test_clock_model_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ClockModel)] == [
        "energies", "psi0", "time_values", "t_cl", "t2_cl"]


def test_every_public_definition_is_exported_or_used():
    # a public top-level def is loaded by name in some module of the library,
    # and a public class is called there: an export, an import alias or a field
    # of the same name is no caller, and for a class neither is an isinstance
    # check or an annotation
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    loaded = {node.id for node in nodes
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    called = {node.func.id for node in nodes
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    used = {ast.FunctionDef: loaded, ast.ClassDef: called}
    unused = [f"{module}.{node.name}" for module, tree in trees.items()
              for node in tree.body if type(node) in used
              and not node.name.startswith("_") and node.name not in used[type(node)]]
    assert unused == UNCALLED


def test_every_name_readme_cites_exists():
    # each `module.name` in README's inline code, outside fenced blocks and
    # .py file names, is an attribute of that chronodil module
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    cited = {(module, name) for span in re.findall(r"`([^`\n]+)`", text)
             for module, name in re.findall(r"(?:chronodil\.)?\b(\w+)\.(\w+)", span)
             if module in modules and name != "py"}
    assert cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"chronodil.{module}"), name)]
    assert missing == []


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore (dunders aside) stays inside its module
    private = [f"{path.stem}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("chronodil"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []

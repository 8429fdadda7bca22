"""The package keeps only what the library and the CLI run, and the tests
hold every behaviour check.

A module-level function or class of src/kstab that no code in src/kstab
refers to and that kstab.__all__ does not export is used by the tests at
most; it belongs in tests/ (conftest.py), not in the library.  A module's
__getattr__ and __dir__ (PEP 562) count as used: the interpreter calls them.

CI adds to the tests only the install, the console script, `pytest bench`
and the full-size workloads, so a local run of the tests sees every pin
that CI sees.
"""

import ast
import sys
from pathlib import Path

import kstab

SRC = Path(kstab.__file__).resolve().parent
CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def test_every_module_level_definition_is_used_or_exported():
    defined, used = {}, {"__getattr__", "__dir__"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in kstab.__all__)
    assert unused == []


def imports(module: str) -> set[str]:
    """The modules that src/kstab/<module>.py imports, relative ones with their dots."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return imported


def test_intpoly_is_a_leaf():
    # the exact layers share _intpoly and load no numpy through it: it may
    # import the standard library only, and nothing of kstab
    assert sorted(name for name in imports("_intpoly")
                  if name.split(".")[0] not in sys.stdlib_module_names) == []


def test_futaki_loads_no_numpy_or_scipy():
    # the lattice counts are Python int floor sums, so futaki and filtration
    # run without numpy and scipy
    assert sorted(name for name in imports("futaki")
                  if name.split(".")[0] in ("numpy", "scipy")) == []


def test_ci_runs_no_inline_checks():
    # an inline script or a grep pin is a check that only CI runs
    text = CI.read_text()
    assert "<<" not in text and "grep" not in text

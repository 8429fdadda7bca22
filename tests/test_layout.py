"""The package keeps only what the library and the CLI run.

A module-level function or class of src/kstab that no code in src/kstab
refers to and that kstab.__all__ does not export is used by the tests at
most; it belongs in tests/ (conftest.py), not in the library.  A module's
__getattr__ and __dir__ (PEP 562) count as used: the interpreter calls them.
"""

import ast
from pathlib import Path

import kstab

SRC = Path(kstab.__file__).resolve().parent


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

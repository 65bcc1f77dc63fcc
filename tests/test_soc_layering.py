"""Layering guard: ``repro.soc`` modules reach each other only through
public names.

A ``_``-prefixed name is private to the module that defines it.  When a
second module imports one, the helper has two owners and tends to grow
an alias.  This test fails on any ``from X import _name`` in
``src/repro/soc`` and on ``module._name`` through a module bound by
``import``, the same rule ``perfbench/public_api.py`` applies to the
benchmark.
"""

import ast
from pathlib import Path

SOC = Path(__file__).resolve().parents[1] / "src" / "repro" / "soc"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{path.name}:{node.lineno}: from {node.module} "
                      f"import {alias.name}"
                      for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0]
                           for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{path.name}:{node.lineno}: "
                         f"{node.value.id}.{node.attr}")
    return found


def test_soc_modules_import_no_private_names():
    paths = sorted(SOC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in private_imports(path)]
    assert found == []


def test_guard_catches_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom repro.soc.store import _x\n"
                   "os._exit(0)\n")
    assert private_imports(bad) == [
        "bad.py:2: from repro.soc.store import _x", "bad.py:3: os._exit"]

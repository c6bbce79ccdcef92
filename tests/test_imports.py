"""Every module of the package imports at its top, and uses what it
imports; and a run of the package loads no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import namoplan

MODULES = sorted(Path(namoplan.__file__).parent.glob("*.py"))


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, in code and in quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            quoted = getattr(node, field, None)
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= _used_names(ast.parse(quoted.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_its_top(path):
    tree = ast.parse(path.read_text())
    local = [f"line {node.lineno}" for top in tree.body
             if not isinstance(top, (ast.Import, ast.ImportFrom))
             for node in ast.walk(top)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"function-local imports in {path.name}: {local}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom)
                         and node.module == "__future__")
                for alias in node.names}
    unused = sorted(imported - _used_names(tree))
    assert not unused, f"unused imports in {path.name}: {unused}"


def test_package_import_loads_no_scipy():
    # scipy is a test dependency only: the tests use it as an oracle.
    code = ("import sys, namoplan.simulator, namoplan.experiments, namoplan.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(namoplan.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

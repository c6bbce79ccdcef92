"""Every module of the package imports at its top, and uses what it imports."""

import ast
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

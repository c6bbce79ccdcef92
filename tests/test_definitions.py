"""Every definition in the package has a caller, and the config dataclasses
are the one source of their defaults."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import namoplan
from namoplan import simulator

PACKAGE = Path(namoplan.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
MODULES = sorted(PACKAGE.glob("*.py"))

# Definitions whose callers are outside the package and its scripts:
# argparse calls `error`, and CI and the tests call `clear_memos`.
CALLED_FROM_OUTSIDE = {("cli.py", "error"), ("gridmap.py", "clear_memos")}

CONFIGS = (simulator.ScenarioConfig, *simulator._SECTIONS.values())


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read as a bare name or as an attribute, in code and in quoted
    annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        for field in ("annotation", "returns"):
            quoted = getattr(node, field, None)
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                names |= _referenced_names(ast.parse(quoted.value))
    return names


def _definitions(tree: ast.Module):
    """(name, line) of every function, method and class the module defines."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno


def _config_defaults() -> dict[str, list]:
    """The defaults of the config dataclasses' fields, by field name."""
    defaults: dict[str, list] = {}
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                defaults.setdefault(f.name, []).append(f.default)
    return defaults


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, default expression) of every parameter with a
    default."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg, default in pairs:
                yield node.name, arg.arg, default


def test_every_definition_is_referenced():
    referenced = set()
    for path in MODULES + sorted(SCRIPTS.glob("*.py")):
        referenced |= _referenced_names(ast.parse(path.read_text()))
    # Dunder methods are called by the language, not by name.
    unreferenced = [f"{path.name}:{line} {name}" for path in MODULES
                    for name, line in _definitions(ast.parse(path.read_text()))
                    if name not in referenced
                    and not (name.startswith("__") and name.endswith("__"))
                    and (path.name, name) not in CALLED_FROM_OUTSIDE]
    assert not unreferenced, f"definitions nothing references: {unreferenced}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_parameter_repeats_a_config_default(path):
    defaults = _config_defaults()
    repeated = []
    for function, name, default in _defaulted_parameters(
            ast.parse(path.read_text())):
        if name not in defaults:
            continue
        # The default's value, evaluated where it is written.
        module = importlib.import_module(f"namoplan.{path.stem}")
        value = eval(compile(ast.Expression(default), str(path), "eval"),
                     vars(module))
        if any(value == d for d in defaults[name]):
            repeated.append(f"{function}({name}={ast.unparse(default)})")
    assert not repeated, (f"defaults in {path.name} that repeat a config "
                          f"default: {repeated}")

"""The compiled kernel's build: one file per source, safe under
concurrent first imports, and shipped with the package."""

import contextlib
import fnmatch
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import namoplan
from namoplan import planner

PACKAGE = Path(namoplan.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Imports what the planner needs, waits for its stdin to close, then
# imports the planner, which builds the kernel into an empty cache.
RACER = """
import sys
import namoplan.gridmap
print(namoplan.__file__, flush=True)
sys.stdin.read()
import namoplan.planner
"""

# Records every file opened while the package's modules import, as JSON.
AUDIT = """
import importlib, json, os, pkgutil, sys
opened = []
sys.addaudithook(lambda event, args: opened.append(os.fsdecode(args[0]))
                 if event == "open" and isinstance(args[0], (str, bytes))
                 else None)
import namoplan
for module in pkgutil.iter_modules(namoplan.__path__):
    importlib.import_module(f"namoplan.{module.name}")
print(json.dumps(opened))
"""


def _env(path: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(path)}


def test_concurrent_first_imports_build_one_kernel(tmp_path):
    package = tmp_path / "namoplan"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (package / "__pycache__").mkdir()
    with contextlib.ExitStack() as stack:
        procs = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-c", RACER], cwd=tmp_path, env=_env(tmp_path),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)) for _ in range(4)]
        # Every interpreter is at the planner import before any goes on.
        ready = [proc.stdout.readline() for proc in procs]
        for proc in procs:
            proc.stdin.close()
        errors = [proc.stdout.read() for proc in procs]
        for proc in procs:
            proc.wait(timeout=120)
    assert ready == [f"{package / '__init__.py'}\n"] * 4, errors
    assert [proc.returncode for proc in procs] == [0] * 4, errors
    assert len(list((package / "__pycache__").glob("_kernel-*.so"))) == 1
    assert not list(tmp_path.rglob("*.tmp"))


def test_edited_source_builds_a_new_kernel(tmp_path):
    source = tmp_path / "_kernel.c"
    shutil.copy(planner._SOURCE, source)
    first = planner.build_kernel(source, tmp_path / "cache")
    built = first.read_bytes()
    source.write_text(source.read_text() + "/* edited */\n")
    second = planner.build_kernel(source, tmp_path / "cache")
    assert second != first and second.exists()
    assert first.read_bytes() == built
    planner.load_kernel(second)


def test_existing_build_is_reused(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copy(planner._SOURCE, source)
    first = planner.build_kernel(source, tmp_path)
    monkeypatch.setattr(subprocess, "run", None)  # any compile would fail
    assert planner.build_kernel(source, tmp_path) == first


def test_compile_error_raises_import_error_and_leaves_nothing(tmp_path):
    source = tmp_path / "_kernel.c"
    source.write_text("int astar(void) { return }\n")
    with pytest.raises(ImportError, match=r"cc -std=c99 (.|\n)*error"):
        planner.build_kernel(source, tmp_path / "cache")
    assert not list((tmp_path / "cache").iterdir())


def test_missing_compiler_raises_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(ImportError, match="cannot build the kernel: cc "):
        planner.build_kernel(planner._SOURCE, tmp_path / "cache")
    assert not list((tmp_path / "cache").iterdir())


def test_files_read_at_import_are_package_data():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    proc = subprocess.run([sys.executable, "-c", AUDIT],
                          env=_env(PACKAGE.parent), capture_output=True,
                          text=True, check=True, timeout=120)
    read = {Path(p).resolve() for p in json.loads(proc.stdout)}
    data = sorted(p.relative_to(PACKAGE).as_posix() for p in read
                  if p.is_relative_to(PACKAGE) and p.suffix not in (".py", ".pyc")
                  and "__pycache__" not in p.parts)
    assert "_kernel.c" in data
    globs = tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"][
        "package-data"]["namoplan"]
    missing = [p for p in data
               if not any(fnmatch.fnmatchcase(p, g) for g in globs)]
    assert not missing, f"read at import but not package data: {missing}"

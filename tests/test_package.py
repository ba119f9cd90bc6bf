"""Package-level consistency checks."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tandem

from conftest import REPO

MODULES = sorted(m.name for m in pkgutil.iter_modules(tandem.__path__, "tandem."))
SRC = Path(tandem.__file__).parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_alone(name):
    # A fresh interpreter per module: the package root imports nothing, so a
    # module that works only after another one was imported fails here.
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_dataclasses_inspect_or_thread_pool():
    # Records are NamedTuples: building them runs no generated-method exec,
    # and nothing pulls in dataclasses, or the inspect, ast and dis it loads.
    # Only a parallel suite needs the thread pool.
    unused = "{'dataclasses', 'inspect', 'concurrent.futures'}"
    probe = f"import sys, tandem.cli; print(sorted({unused} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SOURCES = sorted(Path(tandem.__file__).parent.glob("*.py"))

# Errors that only reading or parsing a file raises; protocol.read_text and
# protocol.parse_data turn them into InputError, so no other module catches them.
PARSE_ERRORS = {"YAMLError", "UnicodeDecodeError", "JSONDecodeError"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "protocol.py"], ids=lambda p: p.name
)
def test_only_protocol_parses_input_files(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert not [m for m in imported if m == "yaml" or m.startswith("yaml.")]
    caught = {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for h in ast.walk(tree)
        if isinstance(h, ast.ExceptHandler) and h.type is not None
        for n in ast.walk(h.type)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    assert not caught & PARSE_ERRORS


def test_no_module_copies_a_record_unchecked():
    # _make and _replace build a record without its constructor, so they
    # would skip a checked record's rules.
    calls = [
        f"{path.name}:{n.lineno} {n.attr}"
        for path in SOURCES
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Attribute) and n.attr in ("_make", "_replace")
    ]
    assert calls == []


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names used inside quoted annotations such as ``-> "RunRecorder"``."""
    annotations = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.arg, ast.AnnAssign)):
            annotations.append(n.annotation)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(n.returns)
    quoted = [
        c.value
        for a in annotations
        if a is not None
        for c in ast.walk(a)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    return {
        n.id for q in quoted for n in ast.walk(ast.parse(q, mode="eval")) if isinstance(n, ast.Name)
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) or (isinstance(n, ast.ImportFrom) and n.module != "__future__")
        for alias in n.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    exported = {
        c.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in n.targets)
        for c in ast.walk(n.value)
        if isinstance(c, ast.Constant)
    }
    assert sorted(imported - used - exported) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_needs_only_the_standard_library_and_pyyaml(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    outside = {name.split(".")[0] for name in imported} - sys.stdlib_module_names - {"yaml"}
    assert sorted(outside) == []


def test_declared_dependencies_are_pyyaml_alone():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["pyyaml>=6"]

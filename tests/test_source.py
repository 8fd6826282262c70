"""Checks on the package source itself, read with `ast` (no linter needed)."""

import ast
from pathlib import Path

import pytest

import synlin

MODULES = sorted(Path(synlin.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports at any depth and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np.pi, c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: e"]


CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that `source` imports at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_optim_starts_threads_or_processes(path):
    # Adagrad's pool is the package's one concurrent part: everything else
    # runs on the caller's thread.
    allowed = CONCURRENCY if path.name == "optim.py" else set()
    assert imported_modules(path.read_text(encoding="utf-8")) & CONCURRENCY <= allowed


def test_the_guard_sees_every_import_form():
    source = "import threading\nfrom concurrent.futures import wait\nimport multiprocessing.pool\n"
    assert imported_modules(source) & CONCURRENCY == CONCURRENCY

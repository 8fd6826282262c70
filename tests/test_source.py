"""Checks on the package source itself, read with `ast` (no linter needed)."""

import ast
from pathlib import Path

import pytest

import synlin

MODULES = sorted(Path(synlin.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def top_level_names(source: str) -> dict[str, int]:
    """The top-level functions, classes and constants of `source`, dunders
    (`__all__`) aside, by line."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.update((name, node.lineno) for name in targets if not name.startswith("__"))
    return names


def read_names(source: str) -> set[str]:
    """The names and attributes that `source` reads; the object an assignment
    writes into (`_X` of `_X.flags.writeable = False`) is not a read."""
    tree = ast.parse(source)
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                while isinstance(target, (ast.Attribute, ast.Subscript)):
                    target = target.value
                written.add(id(target))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in written:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_names(sources: dict[str, str], readers: dict[str, str] | None = None) -> list[str]:
    """The top-level names of each module of `sources` that no module of
    `readers` (by default `sources`) reads."""
    read = set().union(*map(read_names, (sources if readers is None else readers).values()))
    return [
        f"{module} line {line}: {name}"
        for module, source in sources.items()
        for name, line in top_level_names(source).items()
        if name not in read
    ]


def sources_of(paths) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in paths}


def test_every_top_level_name_is_read():
    # a helper or constant left behind by a refactor, or code that only a
    # test calls, shows up here
    assert unused_names(sources_of(MODULES)) == []


def test_every_reference_is_read():
    # a reference that no test compares against shows up here
    tests = sources_of(TESTS)
    references = {name: source for name, source in tests.items() if name.startswith("reference_")}
    assert references and unused_names(references, tests) == []


def test_the_check_sees_unused_private_names():
    first = (
        "_A = 1\n_B = 2\n_B.flags = 0\n_C: int = 3\n__all__ = []\n"
        "def _f():\n    return _A\nclass _K:\n    pass\ndef _g():\n    return _f()\n"
    )
    second = "import first\nprint(first._K)\n"
    assert unused_names({"first.py": first, "second.py": second}) == [
        "first.py line 2: _B",
        "first.py line 4: _C",
        "first.py line 10: _g",
    ]


def test_the_check_sees_unused_public_names():
    first = "LIMIT = 1\nUSED = 2\ndef api():\n    return USED\ndef helper():\n    pass\n"
    second = "from first import api\napi()\n"
    assert unused_names({"first.py": first, "second.py": second}) == [
        "first.py line 1: LIMIT",
        "first.py line 5: helper",
    ]


def test_the_reference_check_counts_the_tests_as_readers():
    reference = "def oracle():\n    return _table()\ndef _table():\n    pass\ndef stale():\n    pass\n"
    test = "from reference_x import oracle\ndef test_x():\n    assert oracle()\n"
    sources = {"reference_x.py": reference}
    assert unused_names(sources, sources | {"test_x.py": test}) == ["reference_x.py line 5: stale"]


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


def numpy_unique_uses(source: str) -> list[int]:
    """The lines of `source` that reach numpy's `unique`: `np.unique`,
    `numpy.unique` or `from numpy import unique`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "unique":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            lines += [node.lineno for alias in node.names if alias.name == "unique"]
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_calls_np_unique(path):
    # under numpy 2, the first `np.unique` call imports `numpy.ma`, resident
    # memory a decode then holds (1.7 MB of ru_maxrss in a bare numpy 2.4 process)
    assert numpy_unique_uses(path.read_text(encoding="utf-8")) == []


def test_the_unique_guard_sees_a_planted_call():
    source = (
        "import numpy as np\nimport numpy\nfrom numpy import sort, unique\n"
        "ids = np.unique([3, 1])\nmore = numpy.unique(ids)\nother = ids.unique\n"
    )
    assert numpy_unique_uses(source) == [3, 4, 5]

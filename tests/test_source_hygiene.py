"""Every import in the repository's Python sources is used.

An import whose name the module never reads misleads a reader about what
the module depends on. This scans ``src/``, ``tests/``, ``benchmarks/``,
``tools/`` and ``examples/`` with the standard library's :mod:`ast` and
lists each unused import as ``path:line: name``. ``__init__.py`` files
are skipped, since their imports are re-exports, and so are
``from __future__`` imports and star imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCANNED = ("src", "tests", "benchmarks", "tools", "examples")


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """``(bound name, line)`` of every import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend((alias.asname or alias.name, node.lineno)
                         for alias in node.names if alias.name != "*")
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted
    annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used.update(_quoted(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used.update(_quoted(node.returns))
    return used


def _quoted(annotation: ast.expr | None) -> set[str]:
    """Names inside the string parts of an annotation."""
    names = set()
    for node in ast.walk(annotation) if annotation is not None else ():
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(name.id for name in ast.walk(
                ast.parse(node.value, mode="eval"))
                if isinstance(name, ast.Name))
    return names


def unused_imports(root: Path = ROOT) -> list[str]:
    """``path:line: name`` of each import its module never uses."""
    found = []
    for directory in SCANNED:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = _used(tree)
            found.extend(f"{path.relative_to(root)}:{line}: {name}"
                         for name, line in _imported(tree)
                         if name not in used)
    return found


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scanner_finds_an_unused_import(tmp_path):
    package = tmp_path / "src"
    package.mkdir()
    (package / "module.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return np.asarray(x)\n")
    (package / "__init__.py").write_text("from .module import f\n")
    assert unused_imports(tmp_path) == ["src/module.py:2: json"]

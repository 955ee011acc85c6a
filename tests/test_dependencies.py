"""The package has no third-party dependencies (`dependencies = []` in
pyproject.toml): every module under src/latvoa imports only the standard
library and latvoa itself."""

import ast
import sys
from pathlib import Path

import latvoa

PACKAGE = Path(latvoa.__file__).resolve().parent


def _absolute_imports(tree):
    """(line, top-level module name) of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_modules_import_only_stdlib_and_latvoa():
    allowed = sys.stdlib_module_names | {"latvoa"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name not in allowed
    ]
    assert outside == []

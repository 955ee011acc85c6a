"""The package has no third-party dependencies (`dependencies = []` in
pyproject.toml): every module under src/latvoa imports only the standard
library and latvoa itself, and imports no name it never uses."""

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


def _unused_imports(tree):
    """(line, name) of every imported name that the module never reads; a
    name listed in `__all__` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {ast.literal_eval(elt) for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_have_no_unused_import():
    unused = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == []

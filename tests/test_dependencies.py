"""The package has no third-party dependencies (`dependencies = []` in
pyproject.toml): every module under src/latvoa imports only the standard
library and latvoa itself, imports no name it never uses and defines no
top-level function or class that nothing reads."""

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


def _dead_definitions(trees):
    """(module, name) of every top-level def or class that no module reads,
    as a name or as an attribute, that `latvoa.__all__` does not list and
    that is not a `cmd_*` command handler."""
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read
        and node.name not in latvoa.__all__
        and not node.name.startswith("cmd_")
    )


def test_modules_define_nothing_unread():
    trees = {
        str(path.relative_to(PACKAGE)): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert _dead_definitions(trees) == []


def test_dead_definition_scan_flags_an_unread_def():
    trees = {
        "a.py": ast.parse("def used(): pass\ndef unread(): pass\nclass Kept: pass\ndef cmd_x(): pass\n"),
        "b.py": ast.parse("import a\na.used()\nx = Kept\n"),
    }
    assert _dead_definitions(trees) == [("a.py", "unread")]


def _float_sites(tree):
    """(line, what) of every import of cmath, call of complex(...) or
    float(...) and imaginary literal in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node.lineno, "from cmath import"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("complex", "float"):
            yield node.lineno, f"{node.func.id}(...)"
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield node.lineno, "imaginary literal"


def test_floating_point_lives_only_in_vertexop():
    """The truncated fractional residue (`vertexop.residue_op`) is the one
    float path of the package; every other module stays exact.  `cli._json`
    may still write the floats it is given."""
    sites = {
        str(path.relative_to(PACKAGE)): [f"{line}: {what}" for line, what in _float_sites(ast.parse(path.read_text(), str(path)))]
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert sites.pop("vertexop.py")
    assert {module: found for module, found in sites.items() if found} == {}


def test_float_site_scan_flags_each_kind():
    tree = ast.parse("import cmath\nfrom cmath import pi\nx = complex(1)\ny = float('1')\nz = 2j\nw = float.__repr__(1.0)\n")
    assert list(_float_sites(tree)) == [
        (1, "import cmath"), (2, "from cmath import"), (3, "complex(...)"), (4, "float(...)"), (5, "imaginary literal"),
    ]

"""The README's library quick start runs as written, and every value its
comments state holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The fenced python block under the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under Library quick start"
    return match.group(1)


def run_block(source: str) -> tuple[dict, dict]:
    """Run the block one statement at a time.  Returns its namespace and
    {source line: value} for every expression statement."""
    namespace: dict = {}
    values = {}
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[lines[node.lineno - 1]] = eval(compile(ast.Expression(node.value), "<readme>", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "<readme>", "exec"), namespace)
    return namespace, values


def test_library_quick_start_runs_and_its_comments_hold():
    source = quick_start()
    assert "ScreeningLattices(build_root_system(\"B\", 2), 4)" in source
    namespace, values = run_block(source)
    stated = {}
    for line, value in values.items():
        code, _, comment = line.partition("#")
        stated[code.strip()] = (comment.strip(), value)
    assert stated["sl.central_charge"] == ("Fraction(-4)", -4)
    assert stated["rep.rows()"] == ("[[2, 1, 1], [8, 4, 0]]", [[2, 1, 1], [8, 4, 0]])
    assert stated["all(apply_screening(a, T).is_zero() for a in screens)"] == ("True", True)
    # gs, h = groundstates(sl, blue)     # two groundstates at h = 0
    assert "# two groundstates at h = 0" in source
    assert len(namespace["gs"]) == 2 and namespace["h"] == 0

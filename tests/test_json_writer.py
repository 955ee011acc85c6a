"""The command line's JSON writer (`cli._json`) against `json.dumps(x,
indent=2)`: on drawn nested documents, on every golden document and on the
report of every job of the three benchmark workloads."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latvoa import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))


def dumps(x) -> str:
    return json.dumps(x, indent=2)


# escapes, control characters, non-ASCII and astral characters
TEXT = st.text(st.characters() | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\ud800\u2028\xe9\u20ac\U0001f600'))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, 1e-7, 1e16, 1.5e300, float("nan"), float("inf"), float("-inf")])
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
@example([[], {}, (), [[]], {"": {}}, [(), ()], -0.0, 1e-7, 10**200, -(10**200), True, False, None])
@example([float("nan"), float("inf"), float("-inf")])
def test_writer_equals_dumps_on_drawn_documents(doc):
    assert cli._json(doc) == dumps(doc)


@pytest.mark.parametrize(
    "bad", [{1: 2}, {None: 1}, {(1,): 1}, {1.5: 0}, {True: 0}, {1, 2}, b"x", object(), [1, {"a": frozenset()}]]
)
def test_writer_refuses_other_types(bad):
    with pytest.raises(TypeError):
        cli._json(bad)


def test_golden_documents():
    assert len(GOLDEN) == 30
    for path in GOLDEN:
        doc = json.loads(path.read_text())
        assert cli._json(doc) == dumps(doc), path.name


def _str_keys(x) -> bool:
    if isinstance(x, dict):
        return all(isinstance(k, str) and _str_keys(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return all(_str_keys(y) for y in x)
    return True


def test_benchmark_reports(monkeypatch, capsys):
    # every report that the seed-7 benchmark jobs print, as the commands
    # build it, keys and all
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    reports = []
    real = cli._json

    def spy(x, indent=""):
        if not indent:
            reports.append(x)
        return real(x, indent)

    monkeypatch.setattr(cli, "_json", spy)
    count = 0
    for name in workloads.NAMES:
        for job in workloads.jobs_for(name, 7):
            assert cli.main(list(job["argv"])) == 0, job["argv"]
            count += 1
    out = capsys.readouterr().out
    assert len(reports) == count == 5 + 4 + 43
    assert out == "".join(dumps(doc) + "\n" for doc in reports)
    assert all(_str_keys(doc) for doc in reports)
    assert sum("approximate_result" in doc for doc in reports) == 10

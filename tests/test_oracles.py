"""The engine held to the definitions in `tests/oracles.py`.

The mode engine computes with the contraction coefficient of two monomials
(`_match_coefficient`), the cached coproduct splits of a monomial
(`_mono_splits`) and one pass per exponent window (`multi_mode_op`).  Each
must equal the oracle written from the definition: the Wick-rule pairing,
the binomial split and the window series.  The theories are A1 and B2 at
ell = 4 and G2 at ell = 6, whose Gram matrix has denominators; momenta
are fractional as well as integral.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa.expr import parse_state
from latvoa.freefield import FieldElement, _match_coefficient, _mono_splits
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system
from latvoa.vertexop import multi_mode_op

from oracles import coproduct, degree, pair_terms, vertex_op
from test_coords import HALF_PAIRS

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)
SL_G2 = ScreeningLattices(build_root_system("G", 2), 6)
THEORIES = (SL_A1, SL_B2, SL_G2)

ORACLES = Path(__file__).with_name("oracles.py")


def private_uses(tree) -> list[str]:
    """Every underscore-prefixed name the tree imports from latvoa, and every
    private attribute it reads (dunders aside)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latvoa":
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [f"{node.lineno}: from {node.module} import {p}" for p in parts if p.startswith("_")]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "latvoa" and any(p.startswith("_") for p in parts):
                    found.append(f"{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"{node.lineno}: .{node.attr}")
    return found


def test_oracles_use_no_private_latvoa_name():
    assert private_uses(ast.parse(ORACLES.read_text(), str(ORACLES))) == []


def test_private_use_scan_catches_each_form():
    source = (
        "from latvoa.freefield import FieldElement, _mono_splits\n"
        "import latvoa._hidden\n"
        "x = space._num\n"
        "y = space.gram.__class__\n"
    )
    assert private_uses(ast.parse(source)) == [
        "1: from latvoa.freefield import _mono_splits",
        "2: import latvoa._hidden",
        "3: ._num",
    ]


# --- strategies -------------------------------------------------------------------


@st.composite
def coords(draw, sl):
    """Momentum coordinates with denominators 1, 2 or 3, in canonical form."""
    values = [Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 1, 2, 3)))) for _ in range(sl.space.rank)]
    return sl.space.momentum(values).coords


@st.composite
def monomials(draw, sl, max_factors=3):
    factor = st.tuples(st.integers(1, 3), st.integers(0, sl.space.rank - 1))
    return tuple(sorted(draw(st.lists(factor, max_size=max_factors))))


@st.composite
def terms(draw, sl, max_factors=3):
    return draw(coords(sl)), draw(monomials(sl, max_factors))


@st.composite
def states(draw, sl, max_terms=2, max_factors=2):
    out = {}
    for key in draw(st.lists(terms(sl, max_factors), min_size=1, max_size=max_terms)):
        out[key] = Fraction(draw(st.sampled_from((-2, -1, 1, 3))), draw(st.sampled_from((1, 2))))
    return FieldElement(sl.space, out)


# --- the pairing and the coproduct ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_match_coefficient_equals_oracle_pairing(data):
    sl = data.draw(st.sampled_from(THEORIES))
    space = sl.space
    (alpha, u), (beta, v) = data.draw(terms(sl)), data.draw(terms(sl))
    coeff = _match_coefficient(space, list(u), list(v), alpha, beta)
    exponent = space.pair_coords(alpha, beta) - degree(u) - degree(v)
    assert pair_terms(space, (alpha, u), (beta, v)) == ({exponent: coeff} if coeff else {})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mono_splits_equal_oracle_coproduct(data):
    sl = data.draw(st.sampled_from(THEORIES))
    mom, mono = data.draw(terms(sl, max_factors=5))
    engine = {}
    for left, right, mult, right_degree in _mono_splits(mono):
        assert right_degree == degree(right)
        key = ((mom, left), (mom, right))
        assert key not in engine
        engine[key] = mult
    assert engine == coproduct(FieldElement(sl.space, {(mom, mono): 1}))


# --- the mode engine --------------------------------------------------------------


def exponent_grid(a, b, lo, hi) -> list[Fraction]:
    """Every exponent in [lo, hi] that a term pair of Y(a)b can reach: its
    momentum pairing plus an integer."""
    out = set()
    for alpha, _u in a.terms:
        for beta, _v in b.terms:
            e = a.space.pair_coords(alpha, beta)
            e -= math.floor(e - lo)
            while e <= hi:
                out.add(e)
                e += 1
    return sorted(out)


def assert_engine_equals_series(a, b, width=3):
    lo = min(
        a.space.pair_coords(alpha, beta) - degree(u) - degree(v)
        for alpha, u in a.terms
        for beta, v in b.terms
    )
    series = vertex_op(a, b, (lo, lo + width))
    grid = exponent_grid(a, b, lo, lo + width)
    assert set(series.support()) <= set(grid)
    engine = multi_mode_op(a, grid, b)
    for m in grid:
        assert engine[m] == series.coefficient(m), m
    return series


@pytest.mark.parametrize("sl, a_text, b_text", HALF_PAIRS)
def test_multi_mode_op_equals_oracle_series_on_half_pairs(sl, a_text, b_text):
    a, b = parse_state(a_text, sl), parse_state(b_text, sl)
    assert assert_engine_equals_series(a, b).support()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multi_mode_op_equals_oracle_series(data):
    sl = data.draw(st.sampled_from(THEORIES))
    a = data.draw(states(sl, max_terms=2, max_factors=2))
    b = data.draw(states(sl, max_terms=2, max_factors=2))
    assert_engine_equals_series(a, b)

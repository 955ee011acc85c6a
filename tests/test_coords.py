"""Canonical momentum coordinates: every integral coordinate is a plain int
and every other one a Fraction, wherever a coordinate tuple is built."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa.expr import parse_state
from latvoa.freefield import FieldElement
from latvoa.lattice import ScreeningLattices, canonical, groundstates, points_within
from latvoa.rootdata import build_root_system
from latvoa.screening import apply_screening, layer_basis, short_screening_set
from latvoa.vertexop import mode_op, multi_mode_op, residue_op
from latvoa.virasoro import stress_tensor, virasoro_modes

from conftest import random_state, support_min
from oracles import vertex_op

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


def is_canonical(coords) -> bool:
    return all(
        type(x) is int if x.denominator == 1 else type(x) is Fraction for x in coords
    )


def keys_canonical(elem) -> bool:
    return all(is_canonical(mom) for mom, _mono in elem.terms)


def test_canonical_maps_integral_entries_to_int():
    got = canonical((Fraction(2), Fraction(1, 2), 3, Fraction(-6, 3), Fraction(0)))
    assert got == (2, Fraction(1, 2), 3, -2, 0)
    assert [type(x) for x in got] == [int, Fraction, int, int, int]


@st.composite
def momenta(draw, sl):
    """A momentum whose coordinates have denominators 1, 2 or 3, given to
    `space.momentum` as a mix of ints and Fractions."""
    coords = []
    for _ in range(sl.space.rank):
        x = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3))))
        coords.append(int(x) if x.denominator == 1 and draw(st.booleans()) else x)
    return sl.space.momentum(coords)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_momentum_arithmetic_is_canonical(data):
    sl = data.draw(st.sampled_from((SL_A1, SL_B2)))
    u, v = data.draw(momenta(sl)), data.draw(momenta(sl))
    scalar = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.sampled_from((1, 2, 3))))
    for m in (u, v, u + v, u - v, -u, scalar * u, u * scalar, u + u, v - v):
        assert is_canonical(m.coords), m


def test_half_momenta_sum_to_ints():
    half = SL_B2.space.momentum([Fraction(1, 2), Fraction(-1, 2)])
    assert (half + half).coords == (1, -1)
    assert [type(x) for x in (half + half).coords] == [int, int]
    assert [type(x) for x in (2 * half).coords] == [int, int]


@pytest.mark.parametrize("sl", [SL_A1, SL_B2], ids=["A1", "B2"])
def test_points_within_and_layer_bases_are_canonical(sl):
    space = sl.space
    for coset in sl.named_cosets().values():
        for v, _d in points_within(space, coset.rep, coset.basis, sl.Q, 8):
            assert is_canonical(v.coords)
        for h in range(3):
            for b in layer_basis(sl, coset, groundstates(sl, coset)[1] + h).basis:
                assert keys_canonical(b)


@pytest.mark.parametrize(
    "text",
    [
        "exp[1/2*a1 + 1/2*a1]",
        "exp[1/2*a1] * exp[1/2*a1]",
        "exp[1/3*a1] * exp[2/3*a1] * d phi[a2]",
        "d^2 phi[1/2*a1 + 1/2*a2] * exp[Q - Q + a2]",
        "exp[l1] + 1/2 * exp[l2] * d phi[l2]",
    ],
)
def test_parse_state_keys_are_canonical(text):
    elem = parse_state(text, SL_B2)
    assert not elem.is_zero() and keys_canonical(elem)


# pairs (a, b) whose momenta are Fractions summing to an integer: the sums
# in FieldElement.__mul__ and in the mode engine must come out as ints
HALF_PAIRS = [
    (SL_A1, "exp[1/2*a1]", "exp[1/2*a1]"),
    (SL_A1, "d phi[a1] * exp[-1/2*a1]", "d^2 phi[a1] * exp[3/2*a1]"),
    (SL_B2, "exp[1/2*a1]", "d phi[a2] * exp[1/2*a1]"),
    (SL_B2, "exp[1/3*a1 + 1/2*a2]", "exp[2/3*a1 + 1/2*a2] * d phi[a1]"),
]


@pytest.mark.parametrize("sl, a_text, b_text", HALF_PAIRS)
def test_products_and_modes_of_fractional_momenta_are_canonical(sl, a_text, b_text):
    a, b = parse_state(a_text, sl), parse_state(b_text, sl)
    product = a * b
    assert not product.is_zero() and keys_canonical(product)
    assert keys_canonical(a.derive()) and keys_canonical(b.derive())
    lo = support_min(a, b)
    series = vertex_op(a, b, (lo, lo + 3))
    assert series.support()
    for e in series.support():
        assert keys_canonical(series.coefficient(e))
        assert keys_canonical(mode_op(a, e, b))
    res = residue_op(a, b, truncate=3)
    assert all(is_canonical(mom) for mom, _mono in res.element_terms)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_products_and_modes_are_canonical(rng):
    sl = rng.choice((SL_A1, SL_B2))
    a = random_state(sl, rng, max_terms=2, denominators=(1, 2, 3))
    b = random_state(sl, rng, max_terms=2, denominators=(1, 2, 3))
    for elem in (a, b, a * b, a.derive(), b.derive()):
        assert keys_canonical(elem)
    if a.is_zero() or b.is_zero():
        return
    lo = support_min(a, b)
    series = vertex_op(a, b, (lo, lo + 2))
    for e, elem in multi_mode_op(a, series.support(), b).items():
        assert keys_canonical(elem) and elem == series.coefficient(e)
    res = residue_op(a, b, truncate=2)
    assert all(is_canonical(mom) for mom, _mono in res.element_terms)


@pytest.mark.parametrize("sl", [SL_A1, SL_B2], ids=["A1", "B2"])
def test_integer_residues_and_virasoro_modes_are_canonical(sl):
    st_ = stress_tensor(sl)
    assert keys_canonical(st_.element)
    screens = short_screening_set(sl)
    for name in ("blue", "green"):
        coset = sl.named_cosets()[name]
        _gs, h0 = groundstates(sl, coset)
        for h in (h0, h0 + 1):
            for v in layer_basis(sl, coset, h).basis:
                for alpha in screens:
                    img = residue_op(FieldElement.exponential(sl.space, alpha), v)
                    assert keys_canonical(img)
                    assert keys_canonical(apply_screening(alpha, v))
                for elem in virasoro_modes(st_, range(-3, 4), v).values():
                    assert keys_canonical(elem)

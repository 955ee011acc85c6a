"""Canonical term coefficients: wherever the engine builds a coefficient,
an integral one is a plain int, any other a Fraction, and none is a float."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa.expr import parse_state
from latvoa.freefield import FieldElement
from latvoa.lattice import ScreeningLattices, groundstates
from latvoa.rootdata import build_root_system
from latvoa.screening import apply_screening, kernel_report, layer_basis, short_screening_set
from latvoa.vertexop import _dk_term, mode_op, multi_mode_op, residue_op
from latvoa.virasoro import stress_tensor, virasoro_modes

from conftest import random_state, support_min

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)
SL_A1_6 = ScreeningLattices(build_root_system("A", 1), 6)


def is_canonical_coeff(c) -> bool:
    if type(c) is int:
        return True
    return type(c) is Fraction and c.denominator != 1


def coeffs_canonical(terms) -> bool:
    return all(is_canonical_coeff(c) for c in terms.values())


def test_constructors():
    for sl in (SL_A1, SL_B2, SL_A1_6):
        space = sl.space
        assert coeffs_canonical(FieldElement.vacuum(space).terms)
        for coords in ([1] * space.rank, [Fraction(1, 2)] * space.rank, [Fraction(4, 2)] * space.rank):
            mom = space.momentum(coords)
            assert coeffs_canonical(FieldElement.exponential(space, mom).terms)
            assert coeffs_canonical(FieldElement.dphi(space, mom, 2).terms)


@pytest.mark.parametrize("sl", [SL_A1, SL_B2], ids=["A1", "B2"])
def test_layer_bases_derivatives_and_dk_terms(sl):
    space = sl.space
    for coset in sl.named_cosets().values():
        _gs, h0 = groundstates(sl, coset)
        for h in (h0, h0 + 1, h0 + 2):
            for v in layer_basis(sl, coset, h).basis:
                assert coeffs_canonical(v.terms)
                assert coeffs_canonical(v.derive().terms)
                ((mom, mono),) = v.terms
                for k in range(6):
                    assert coeffs_canonical(_dk_term(space, mom, mono, k))


@pytest.mark.parametrize("sl", [SL_A1, SL_B2], ids=["A1", "B2"])
def test_screenings_and_virasoro_modes(sl):
    st_ = stress_tensor(sl)
    assert coeffs_canonical(st_.element.terms)
    screens = short_screening_set(sl)
    for name in ("blue", "green"):
        coset = sl.named_cosets()[name]
        _gs, h0 = groundstates(sl, coset)
        for h in (h0, h0 + 1, h0 + 2):
            for v in layer_basis(sl, coset, h).basis:
                for alpha in screens:
                    e = FieldElement.exponential(sl.space, alpha)
                    assert coeffs_canonical(residue_op(e, v).terms)
                    once = apply_screening(alpha, v)
                    assert coeffs_canonical(once.terms)
                    assert coeffs_canonical(apply_screening(alpha, once).terms)
                for elem in virasoro_modes(st_, range(-4, 5), v).values():
                    assert coeffs_canonical(elem.terms)
                for m, elem in multi_mode_op(st_.element, range(-6, 3), v).items():
                    assert type(m) is int
                    assert coeffs_canonical(elem.terms)
                    assert coeffs_canonical(mode_op(st_.element, m, v).terms)


@pytest.mark.parametrize("sl", [SL_A1, SL_B2], ids=["A1", "B2"])
def test_kernel_intersection_bases(sl):
    screens = short_screening_set(sl)
    seen = 0
    for name in ("blue", "green"):
        for lk in kernel_report(sl, sl.named_cosets()[name], screens, 2).layers:
            for v in lk.intersection_basis:
                assert coeffs_canonical(v.terms)
                seen += 1
    assert seen


# the sums 1/2 + 1/2 and 1/3 + 2/3 must come out as ints
HALVES = [
    (SL_A1, "1/2 * exp[a1] * d phi[a1]", "exp[-a1]"),
    (SL_A1, "exp[1/2*a1]", "1/2 * exp[1/2*a1] * d^2 phi[a1]"),
    (SL_B2, "exp[1/3*a1 + 1/2*a2]", "exp[2/3*a1 + 1/2*a2] * d phi[a1]"),
    (SL_A1_6, "exp[a1]", "d phi[a1] * exp[a1]"),
]


@pytest.mark.parametrize("sl, a_text, b_text", HALVES)
def test_modes_of_fractional_coefficients(sl, a_text, b_text):
    a, b = parse_state(a_text, sl), parse_state(b_text, sl)
    assert coeffs_canonical(a.derive().terms) and coeffs_canonical(b.derive().terms)
    lo = support_min(a, b)
    modes = multi_mode_op(a, [lo + j for j in range(5)], b)
    assert any(not elem.is_zero() for elem in modes.values())
    for m, elem in modes.items():
        assert is_canonical_coeff(m)
        assert coeffs_canonical(elem.terms)
        assert coeffs_canonical(mode_op(a, m, b).terms)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_random_modes_and_derivatives(rng):
    sl = rng.choice((SL_A1, SL_B2, SL_A1_6))
    a = random_state(sl, rng, max_terms=2, denominators=(1, 2, 3))
    b = random_state(sl, rng, max_terms=2, denominators=(1, 2))
    assert coeffs_canonical(a.derive().terms)
    for (mom, mono) in a.terms:
        for k in range(4):
            assert coeffs_canonical(_dk_term(sl.space, mom, mono, k))
    if a.is_zero() or b.is_zero():
        return
    lo = support_min(a, b)
    for elem in multi_mode_op(a, [lo + j for j in range(4)], b).values():
        assert coeffs_canonical(elem.terms)
    for elem in virasoro_modes(stress_tensor(sl), range(-3, 4), b).values():
        assert coeffs_canonical(elem.terms)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa.freefield import FieldElement, FracLaurent
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system

from conftest import dphi_state, exp_state, random_state, tensor_multiply

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


# --- strategies -------------------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def momenta(sl):
    return st.tuples(*[rationals for _ in range(sl.space.rank)]).map(
        lambda t: sl.space.momentum(list(t))
    )


def elements(sl, max_terms=2, max_factors=2):
    def build(data):
        out = FieldElement.zero(sl.space)
        for mom, factors, coeff in data:
            term = FieldElement.exponential(sl.space, mom)
            for fmom, order in factors:
                if not fmom.is_zero():
                    term = term * FieldElement.dphi(sl.space, fmom, order)
            out = out + coeff * term
        return out

    factor = st.tuples(momenta(sl), st.integers(min_value=1, max_value=3))
    term = st.tuples(
        momenta(sl),
        st.lists(factor, max_size=max_factors),
        rationals.filter(lambda c: c != 0),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


# --- base pairing table -------------------------------------------------------


def test_pairing_base_cases():
    sp = SL_A1.space
    e1 = exp_state(SL_A1, [1])
    e2 = exp_state(SL_A1, [2])
    d1 = dphi_state(SL_A1, [1])
    pair_ee = e1.pair(e2)
    assert pair_ee == FracLaurent.monomial(F(1), 2)  # z^{(a,b)} with (1,2) pairing 2
    assert e1.pair(d1) == FracLaurent.monomial(F(-1), -1)
    assert d1.pair(e1) == FracLaurent.monomial(F(1), -1)
    assert d1.pair(d1) == FracLaurent.monomial(F(1), -2)


def test_pairing_higher_orders():
    d2 = dphi_state(SL_A1, [1], 2)
    e1 = exp_state(SL_A1, [1])
    d1 = dphi_state(SL_A1, [1])
    # left slot d/dz: <d2phi, e> = d/dz (z^-1) = -z^-2
    assert d2.pair(e1) == FracLaurent.monomial(F(-1), -2)
    # right slot -d/dz: <e, d2phi> = -d/dz(-z^-1) = -z^-2
    assert e1.pair(d2) == FracLaurent.monomial(F(-1), -2)
    assert d2.pair(d1) == FracLaurent.monomial(F(-2), -3)
    assert d1.pair(d2) == FracLaurent.monomial(F(2), -3)


def test_momentum_linearity_of_dphi():
    # d phi_{a+b} = d phi_a + d phi_b as stored terms
    d = dphi_state(SL_B2, [2, -1])
    manual = 2 * dphi_state(SL_B2, [1, 0]) - dphi_state(SL_B2, [0, 1])
    assert d == manual
    assert dphi_state(SL_B2, [0, 0]).is_zero()


def test_multiply_examples():
    one = FieldElement.vacuum(SL_A1.space)
    ea = exp_state(SL_A1, [1])
    eminus = exp_state(SL_A1, [-1])
    assert ea * eminus == one
    res = (dphi_state(SL_B2, [1, 0]) * exp_state(SL_B2, [0, 1])) * exp_state(SL_B2, [1, 1])
    assert res == dphi_state(SL_B2, [1, 0]) * exp_state(SL_B2, [1, 2])


def test_multiply_lattice_mismatch():
    with pytest.raises(ValueError):
        exp_state(SL_A1, [1]) * FieldElement.vacuum(SL_B2.space)


def test_coproduct_examples():
    eb = exp_state(SL_A1, [1])
    cop = eb.coproduct()
    (key,) = eb.terms
    assert cop == {(key, key): F(1)}
    da = dphi_state(SL_A1, [1])
    (dkey,) = da.terms
    (vkey,) = FieldElement.vacuum(SL_A1.space).terms
    assert da.coproduct() == {(dkey, vkey): F(1), (vkey, dkey): F(1)}


def test_coproduct_of_product_is_bialgebra_value():
    # Delta(dphi_a e^b) = e^b (x) dphi_a e^b + dphi_a e^b (x) e^b
    prod = dphi_state(SL_A1, [1]) * exp_state(SL_A1, [1])
    (pkey,) = prod.terms
    (ekey,) = exp_state(SL_A1, [1]).terms
    assert prod.coproduct() == {(ekey, pkey): F(1), (pkey, ekey): F(1)}


def test_derive_examples():
    ea = exp_state(SL_A1, [1])
    assert ea.derive() == dphi_state(SL_A1, [1]) * ea
    assert FieldElement.vacuum(SL_A1.space).derive().is_zero()
    st0 = dphi_state(SL_A1, [1]) * exp_state(SL_A1, [2])
    want = dphi_state(SL_A1, [1], 2) * exp_state(SL_A1, [2]) + dphi_state(
        SL_A1, [1]
    ) * dphi_state(SL_A1, [2]) * exp_state(SL_A1, [2])
    assert st0.derive() == want


@settings(max_examples=120, deadline=None)
@given(elements(SL_B2), elements(SL_B2))
def test_multiply_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(elements(SL_B2, max_terms=2, max_factors=1), elements(SL_B2, max_terms=2, max_factors=1), elements(SL_B2, max_terms=1, max_factors=1))
def test_multiply_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=120, deadline=None)
@given(elements(SL_B2, max_terms=2), elements(SL_B2, max_terms=2))
def test_coproduct_is_algebra_map(a, b):
    lhs = (a * b).coproduct()
    rhs = tensor_multiply(a.coproduct(), b.coproduct(), SL_B2.space)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(elements(SL_A1, max_terms=2))
def test_coproduct_coassociative(a):
    space = SL_A1.space

    def expand(tensor, side):
        out = {}
        for (l, r), c in tensor.items():
            inner = FieldElement(space, {l if side == 0 else r: F(1)}).coproduct()
            for (x, y), c2 in inner.items():
                key = (x, y, r) if side == 0 else (l, x, y)
                out[key] = out.get(key, 0) + c * c2
        return {k: v for k, v in out.items() if v}

    cop = a.coproduct()
    assert expand(cop, 0) == expand(cop, 1)


@settings(max_examples=120, deadline=None)
@given(elements(SL_B2, max_terms=2), elements(SL_B2, max_terms=2))
def test_pairing_derivation_equivariance(a, b):
    # left slot: +d/dz, right slot: -d/dz
    assert a.derive().pair(b) == a.pair(b).d_dz()
    assert a.pair(b.derive()) == -(a.pair(b).d_dz())


def test_pairing_exponent_grid(sl_b2):
    # pairings of dual-lattice states have exponents in (1/p) Z
    rng = random.Random(8)
    space = sl_b2.space

    def dual_elem():
        out = FieldElement.zero(space)
        for _ in range(rng.randint(1, 2)):
            mom = space.zero()
            for b in sl_b2.basis_dual:
                mom = mom + rng.randint(-2, 2) * b
            term = FieldElement.exponential(space, mom)
            for _ in range(rng.randint(0, 2)):
                dm = space.momentum([rng.randint(-1, 1) for _ in range(space.rank)])
                if not dm.is_zero():
                    term = term * FieldElement.dphi(space, dm, rng.randint(1, 2))
            out = out + rng.choice([1, -1, 2]) * term
        return out

    for _ in range(100):
        for e in dual_elem().pair(dual_elem()).exponents():
            assert (e * sl_b2.p).denominator == 1


def test_scalar_ops():
    a = exp_state(SL_A1, [1])
    assert (2 * a - a - a).is_zero()
    assert (a / 2) * 2 == a
    assert (0 * a).is_zero()

import cmath
import random
from fractions import Fraction
from math import factorial

import pytest

from latvoa.freefield import FieldElement
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system
from latvoa.vertexop import (
    FractionalResidue,
    mode_op,
    multi_mode_op,
    residue_op,
    vertex_op,
)

from conftest import dphi_state, exp_state, random_state, support_min

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


def integer_pairing(a, b):
    """Whether all exponential pairings between a and b are integers."""
    space = a.space
    for (ma, _u) in a.terms:
        for (mb, _v) in b.terms:
            if space.pair_coords(ma, mb).denominator != 1:
                return False
    return True


def test_vacuum_acts_as_identity():
    one = FieldElement.vacuum(SL_A1.space)
    rng = random.Random(9)
    for _ in range(20):
        b = random_state(SL_A1, rng)
        assert mode_op(one, 0, b) == b
        for m in (-2, -1, 1, 2):
            assert mode_op(one, m, b).is_zero()
        ser = vertex_op(one, b, (-2, 2))
        assert ser.coefficient(0) == b
        assert ser.support() in ([], [F(0)])


def test_ope_symplectic_fermion_pair():
    # Y(e^{-a/sqrt2}) d(e^{a/sqrt2}) = e0 z^-2 + 0 z^-1 + ...
    a = exp_state(SL_A1, [-1])
    b = exp_state(SL_A1, [1]).derive()
    ser = vertex_op(a, b, (-4, 1))
    assert ser.coefficient(-2) == FieldElement.vacuum(SL_A1.space)
    assert ser.coefficient(-1).is_zero()
    assert support_min(a, b) == -2


def test_ope_cross_pair_vanishes():
    # B2: the two orthogonal short-root fermion pairs do not see each other
    g1 = [1, 1]  # (a1+a2)/sqrt2
    g2 = [0, 1]  # a2/sqrt2
    for left, right in ((g1, g2), (g2, g1)):
        a = exp_state(SL_B2, [-c for c in left])
        b = exp_state(SL_B2, right).derive()
        ser = vertex_op(a, b, (-2, 0))
        assert ser.coefficient(-2).is_zero()
        assert ser.coefficient(-1).is_zero()
    # while the same-pair OPE has the fermionic normalization
    for g in (g1, g2):
        a = exp_state(SL_B2, [-c for c in g])
        b = exp_state(SL_B2, g).derive()
        ser = vertex_op(a, b, (-2, -1))
        assert ser.coefficient(-2) == FieldElement.vacuum(SL_B2.space)
        assert ser.coefficient(-1).is_zero()


def test_mode_linearity():
    rng = random.Random(10)
    a = dphi_state(SL_A1, [1]) * exp_state(SL_A1, [-1])
    for _ in range(20):
        b1 = random_state(SL_A1, rng)
        b2 = random_state(SL_A1, rng)
        m = rng.randint(-3, 2)
        lhs = mode_op(a, m, b1 + 3 * b2)
        assert lhs == mode_op(a, m, b1) + 3 * mode_op(a, m, b2)


def test_mode_grading_bookkeeping():
    # the z^m coefficient of Y(a)b is h-homogeneous of weight h(a)+h(b)+m
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        a = random_state(SL_B2, rng, max_terms=1)
        b = random_state(SL_B2, rng, max_terms=1)
        if a.is_zero() or b.is_zero():
            continue
        (ha,) = a.conformal_weights(SL_B2)
        (hb,) = b.conformal_weights(SL_B2)
        lo = support_min(a, b)
        for m in (lo, lo + 1, lo + 2):
            out = mode_op(a, m, b)
            if out.is_zero():
                continue
            assert out.conformal_weights(SL_B2) == {ha + hb + m}
        checked += 1


def test_grading_residue_example():
    # resY(dphi_a) u e^l = (a, l) u e^l
    rng = random.Random(12)
    for _ in range(25):
        amom = SL_B2.space.momentum([rng.randint(-2, 2), rng.randint(-2, 2)])
        if amom.is_zero():
            continue
        a = FieldElement.dphi(SL_B2.space, amom)
        b = random_state(SL_B2, rng, max_terms=1)
        if b.is_zero():
            continue
        (mom,) = b.momenta()
        want = SL_B2.space.pair(amom, SL_B2.space.momentum(mom)) * b
        assert residue_op(a, b) == want


def test_residue_is_z_minus_one_coefficient():
    rng = random.Random(13)
    a = exp_state(SL_A1, [2])
    for _ in range(20):
        b = random_state(SL_A1, rng, denominators=(1,))
        assert residue_op(a, b) == mode_op(a, -1, b)


def test_integer_residue_rejects_fractional():
    a = exp_state(SL_A1, [-1])
    b = exp_state(SL_A1, [F(1, 2)])
    assert not integer_pairing(a, b)
    with pytest.raises(ValueError, match="fractional"):
        residue_op(a, b)


def test_fractional_residue_matches_display_formula():
    # Z_{-a/sqrt2} e^{phi_{a/2 sqrt2}} =
    #   sum_k ((e^{2 pi i (k+1/2)} - 1)/(2 pi i (k+1/2))) e^{phi} d^k e^{phi_-}/k!
    # where _dk_term gives d^k e^{phi_-} without the 1/k!
    from latvoa.vertexop import _dk_term

    a = exp_state(SL_A1, [-1])
    b = exp_state(SL_A1, [F(1, 2)])
    K = 5
    res = residue_op(a, b, truncate=K)
    assert isinstance(res, FractionalResidue)
    assert res.approximate and res.truncation == K
    expect: dict = {}
    for k in range(K):
        w = (cmath.exp(2j * cmath.pi * (k + 0.5)) - 1) / (2j * cmath.pi * (k + 0.5))
        for (dm, dmono), c in _dk_term(SL_A1.space, (F(-1),), (), k).items():
            key = ((F(1, 2) + dm[0],), dmono)
            expect[key] = expect.get(key, 0) + w * complex(Fraction(c, factorial(k)))
    assert set(expect) == set(res.element_terms)
    for key, val in expect.items():
        assert abs(val - res.element_terms[key]) < 1e-12
    assert res.tail_scale  # a tail report is present
    assert min(res.tail_scale) >= K


def test_fractional_residue_requires_truncation():
    a = exp_state(SL_A1, [-1])
    b = exp_state(SL_A1, [F(1, 2)])
    with pytest.raises(ValueError, match="truncation bound >= 1"):
        residue_op(a, b, truncate=0)


def test_state_series_window():
    a = exp_state(SL_A1, [-1])
    b = exp_state(SL_A1, [1]).derive()
    ser = vertex_op(a, b, (-2, 3))
    with pytest.raises(ValueError):
        ser.coefficient(-3)
    # exhaustive within the window: compare against mode_op
    for m in range(-2, 4):
        assert ser.coefficient(m) == mode_op(a, m, b)


def test_multi_mode_matches_single():
    rng = random.Random(14)
    space = SL_B2.space

    def small_state(max_terms):
        out = FieldElement.zero(space)
        for _ in range(rng.randint(1, max_terms)):
            mom = space.momentum([rng.randint(-1, 1), rng.randint(-1, 1)])
            term = FieldElement.exponential(space, mom)
            for _ in range(rng.randint(0, 2)):
                dm = space.momentum([rng.randint(-1, 1), rng.randint(-1, 1)])
                if not dm.is_zero():
                    term = term * FieldElement.dphi(space, dm, rng.randint(1, 2))
            out = out + rng.choice([1, -1, 2]) * term
        return out

    for _ in range(10):
        a = small_state(1)
        b = small_state(2)
        ms = [-3, -2, -1, 0, 1]
        multi = multi_mode_op(a, ms, b)
        for m in ms:
            assert multi[F(m)] == mode_op(a, m, b)


def test_derivational_property_sign_is_plus():
    # Y(a)_{-1}(Y(b)_m c) = Y(Y(a)_{-1}b)_m c + Y(b)_m(Y(a)_{-1}c)
    # on the even lattice; the sign is not fixed a priori, the engine
    # determines it empirically (recorded: "+" for all bosonic triples).
    space = SL_A1.space
    triples = [
        (exp_state(SL_A1, [2]), exp_state(SL_A1, [-2]), exp_state(SL_A1, [2]), -1),
        (exp_state(SL_A1, [2]), dphi_state(SL_A1, [2]) * exp_state(SL_A1, [-2]), exp_state(SL_A1, [0]), 0),
        (dphi_state(SL_A1, [1]), exp_state(SL_A1, [2]), exp_state(SL_A1, [-2]), 1),
        (dphi_state(SL_A1, [1], 2), exp_state(SL_A1, [2]), dphi_state(SL_A1, [1]) * exp_state(SL_A1, [-2]), -2),
    ]
    for a, b, c, m in triples:
        lhs = mode_op(a, -1, mode_op(b, m, c))
        plus = mode_op(mode_op(a, -1, b), m, c) + mode_op(b, m, mode_op(a, -1, c))
        minus = mode_op(mode_op(a, -1, b), m, c) - mode_op(b, m, mode_op(a, -1, c))
        assert lhs == plus or lhs == minus
        assert lhs == plus  # the empirically recorded sign

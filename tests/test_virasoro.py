import random
from fractions import Fraction

import pytest

from latvoa import linalg
from latvoa.freefield import FieldElement
from latvoa.lattice import ScreeningLattices, canonical_scalar
from latvoa.rootdata import build_root_system
from latvoa.screening import layer_basis
from latvoa.vertexop import mode_op, multi_mode_op
from latvoa.virasoro import commutator_check, stress_tensor, virasoro_mode, virasoro_modes

from conftest import dphi_state, exp_state, random_state
from oracles import n0_degrees

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


def generic_mode(st, n, v):
    """L_n v by the generic vertex-operator route: the z^{-2-n}
    coefficient of Y(T)v."""
    return mode_op(st.element, -2 - n, v)


def routes(st, n, v):
    """L_n v by the package's closed form and by the generic route."""
    return virasoro_mode(st, n, v), generic_mode(st, n, v)


def general_basis_stress_tensor(sl, basis):
    """T = 1/2 sum_i dphi_{b_i} dphi_{b_i*} + sum_i q_i d2phi_{b_i} for any
    basis (b_i) with dual basis (b_i, b_j*) = delta_ij and Q = sum_i q_i b_i."""
    space = sl.space
    gb_inv = linalg.inverse([[space.pair(x, y) for y in basis] for x in basis])
    elem = FieldElement.zero(space)
    for i, b in enumerate(basis):
        dual = space.zero()
        for j, bj in enumerate(basis):
            dual = dual + gb_inv[j][i] * bj
        elem = elem + Fraction(1, 2) * (FieldElement.dphi(space, b) * FieldElement.dphi(space, dual))
    for i, b in enumerate(basis):
        qi = sum(gb_inv[i][j] * space.pair(bj, sl.Q) for j, bj in enumerate(basis))
        if qi:
            elem = elem + qi * FieldElement.dphi(space, b, order=2)
    return FieldElement(space, {k: canonical_scalar(c) for k, c in elem.terms.items()})


def test_stress_tensor_a1():
    st = stress_tensor(SL_A1)
    want = F(1, 2) * (dphi_state(SL_A1, [1]) * dphi_state(SL_A1, [1])) + F(1, 2) * dphi_state(
        SL_A1, [1], 2
    )
    assert st.element == want
    assert st.c == -2
    assert n0_degrees(st.element) == {2}


def test_stress_tensor_free_boson():
    # Q = 0 on a unit-norm rank-one lattice gives T = dphi dphi / 2, c = 1
    space_rs = build_root_system("A", 1)
    sl = ScreeningLattices(space_rs, 2)  # p = 1: Q = 0 for A1
    assert sl.Q.is_zero()
    st = stress_tensor(sl)
    assert st.c == 1
    # single kinetic term, no d^2 phi part
    assert all(all(order == 1 for order, _ in mono) for (_, mono) in st.element.terms)


def test_stress_tensor_basis_independent():
    # the ambient-basis T equals the general-basis formula in the ambient,
    # long and dual bases, term dict and coefficient types alike
    for sl in (SL_A1, SL_B2, ScreeningLattices(build_root_system("G", 2), 6)):
        st = stress_tensor(sl)
        ambient = [sl.space.basis_vector(i) for i in range(sl.space.rank)]
        for basis in (ambient, list(sl.basis_long), list(sl.basis_dual)):
            assert general_basis_stress_tensor(sl, basis) == st.element
        want = general_basis_stress_tensor(sl, ambient).terms
        assert list(st.element.terms.items()) == list(want.items())
        assert [type(c) for c in st.element.terms.values()] == [type(c) for c in want.values()]
    assert stress_tensor(SL_B2).c == -4


def test_h_of_stress_tensor_is_two():
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        assert routes(st, 0, st.element) == (2 * st.element,) * 2


def test_l0_eigenvalues():
    st = stress_tensor(SL_B2)
    rng = random.Random(15)
    for _ in range(50):
        mom = SL_B2.space.momentum([F(rng.randint(-4, 4), 2) for _ in range(2)])
        mono_orders = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        v = exp_state(SL_B2, mom.coords)
        deg = 0
        for order in mono_orders:
            idx = rng.randint(0, 1)
            v = v * FieldElement.dphi(SL_B2.space, SL_B2.space.basis_vector(idx), order)
            deg += order
        want = (SL_B2.conformal_dim(mom) + deg) * v
        assert routes(st, 0, v) == (want, want)


def test_l_minus_one_is_derivation():
    rng = random.Random(16)
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        for _ in range(50):
            v = random_state(sl, rng)
            assert routes(st, -1, v) == (v.derive(),) * 2


def test_l_minus_one_on_exponential():
    st = stress_tensor(SL_A1)
    e = exp_state(SL_A1, [1])
    assert routes(st, -1, e) == (dphi_state(SL_A1, [1]) * e,) * 2


def test_vacuum_annihilation():
    # L_n e^0 = 0 for n >= -1, but not below:
    # L_{-2} e^0 = T in any lattice VOA
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        one = FieldElement.vacuum(sl.space)
        for n in range(-1, 5):
            assert all(image.is_zero() for image in routes(st, n, one))
        assert routes(st, -2, one) == (st.element,) * 2


def test_modes_refuse_a_state_of_another_lattice():
    st = stress_tensor(SL_A1)
    v = exp_state(SL_B2, [1, 1])
    with pytest.raises(ValueError, match="different lattices"):
        virasoro_modes(st, [0, -1], v)
    with pytest.raises(ValueError, match="different lattices"):
        virasoro_mode(st, 0, v)


def test_commutator_check_refuses_a_state_of_another_lattice():
    st = stress_tensor(SL_A1)
    with pytest.raises(ValueError, match="different lattices"):
        commutator_check(st, [exp_state(SL_B2, [1, 1])], max_mode=2)
    # refused wherever the state stands, before any later state is checked
    with pytest.raises(ValueError, match="different lattices"):
        commutator_check(st, [exp_state(SL_A1, [1]), exp_state(SL_B2, [1, 1])], max_mode=2)
    # an equal space built by another ScreeningLattices is the same lattice
    twin = ScreeningLattices(build_root_system("A", 1), 4)
    assert commutator_check(st, [exp_state(twin, [1])], max_mode=2).ok


def test_fast_modes_match_generic():
    rng = random.Random(17)
    ns = list(range(-4, 5))
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        blue = sl.named_cosets()["blue"]
        states = []
        for h in range(0, 3):
            states.extend(layer_basis(sl, blue, h).basis)
        for _ in range(15):
            states.append(random_state(sl, rng))
        for v in states:
            fast = virasoro_modes(st, ns, v)
            generic = multi_mode_op(st.element, [-2 - n for n in ns], v)
            for n in ns:
                assert fast[n] == generic[Fraction(-2 - n)]


def test_commutators_small_layers():
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        blue = sl.named_cosets()["blue"]
        states = []
        for h in range(0, 3):
            states.extend(layer_basis(sl, blue, h).basis)
        rep = commutator_check(st, states, max_mode=2)
        assert rep.ok


def test_commutator_central_term():
    # [L_2, L_{-2}] = 4 L_0 + c/2 on states where both sides are nonzero
    st = stress_tensor(SL_A1)
    blue = SL_A1.named_cosets()["blue"]
    for h in range(0, 5):
        for v in layer_basis(SL_A1, blue, h).basis:
            for mode in (virasoro_mode, generic_mode):
                lhs = mode(st, 2, mode(st, -2, v)) - mode(st, -2, mode(st, 2, v))
                rhs = 4 * mode(st, 0, v) + (st.c / 2) * v
                assert lhs == rhs


def test_commutator_counterexample_reporting():
    # a deliberately wrong central charge must be caught
    st = stress_tensor(SL_A1)
    st_bad = type(st)(element=st.element, Q=st.Q, c=st.c + 1)
    blue = SL_A1.named_cosets()["blue"]
    states = layer_basis(SL_A1, blue, 2).basis
    rep = commutator_check(st_bad, states, max_mode=2)
    assert not rep.ok
    assert rep.counterexample is not None


def test_virasoro_modes_counts_a_repeated_n_once():
    st = stress_tensor(SL_A1)
    v = exp_state(SL_A1, [2])
    once = virasoro_modes(st, [0], v)
    assert once[0] == generic_mode(st, 0, v) == v
    assert virasoro_modes(st, [0, 0], v) == once
    repeated = virasoro_modes(st, [1, 0, 1, -2, 0], v)
    assert list(repeated) == [1, 0, -2]
    for n, image in repeated.items():
        assert image == generic_mode(st, n, v) == virasoro_mode(st, n, v)

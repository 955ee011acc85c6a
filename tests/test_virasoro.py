import random
from fractions import Fraction

from latvoa.freefield import FieldElement
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system
from latvoa.screening import layer_basis
from latvoa.vertexop import multi_mode_op
from latvoa.virasoro import commutator_check, stress_tensor, virasoro_mode, virasoro_modes

from conftest import dphi_state, exp_state, random_state

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


def test_stress_tensor_a1():
    st = stress_tensor(SL_A1)
    want = F(1, 2) * (dphi_state(SL_A1, [1]) * dphi_state(SL_A1, [1])) + F(1, 2) * dphi_state(
        SL_A1, [1], 2
    )
    assert st.element == want
    assert st.c == -2
    assert st.element.n0_degrees() == {2}


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
    for sl in (SL_A1, SL_B2):
        st1 = stress_tensor(sl)
        st2 = stress_tensor(sl, basis=list(sl.basis_long))
        st3 = stress_tensor(sl, basis=list(sl.basis_dual))
        assert st1.element == st2.element == st3.element
    assert stress_tensor(SL_B2).c == -4


def test_h_of_stress_tensor_is_two():
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        assert virasoro_mode(st, 0, st.element) == 2 * st.element


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
        assert virasoro_mode(st, 0, v) == want


def test_l_minus_one_is_derivation():
    rng = random.Random(16)
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        for _ in range(50):
            v = random_state(sl, rng)
            assert virasoro_mode(st, -1, v) == v.derive()


def test_l_minus_one_on_exponential():
    st = stress_tensor(SL_A1)
    e = exp_state(SL_A1, [1])
    assert virasoro_mode(st, -1, e) == dphi_state(SL_A1, [1]) * e


def test_vacuum_annihilation():
    # L_n e^0 = 0 for n >= -1, but not below:
    # L_{-2} e^0 = T in any lattice VOA
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        one = FieldElement.vacuum(sl.space)
        for n in range(-1, 5):
            assert virasoro_mode(st, n, one).is_zero()
        assert virasoro_mode(st, -2, one) == st.element


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
            lhs = virasoro_mode(st, 2, virasoro_mode(st, -2, v)) - virasoro_mode(
                st, -2, virasoro_mode(st, 2, v)
            )
            rhs = 4 * virasoro_mode(st, 0, v) + (st.c / 2) * v
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
    assert once[0] == virasoro_mode(st, 0, v) == v
    assert virasoro_modes(st, [0, 0], v) == once
    repeated = virasoro_modes(st, [1, 0, 1, -2, 0], v)
    assert list(repeated) == [1, 0, -2]
    for n, image in repeated.items():
        assert image == virasoro_mode(st, n, v)

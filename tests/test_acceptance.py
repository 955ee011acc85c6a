"""Acceptance suite: one test per criterion, each printing a PASS line
when its checks hold at the stated (exact) tolerance.

Criterion 3 contains one provably false sub-claim (cyclicity of the
module quotient for B2/B4): 2Q is the sum of the two long basis momenta
whenever the rank is even, so that quotient is Z2 x Z2, not Z4.  Those
sub-cases are strict xfails; the true structure is asserted alongside.
"""

import random
import time
from fractions import Fraction

import pytest

from latvoa.characters import graded_dim_module, sf_characters, theta_coset
from latvoa.degeneracy import classify, extension_report
from latvoa.expr import format_state, parse_state
from latvoa.freefield import FieldElement
from latvoa.lattice import Coset, ScreeningLattices, groundstates, num_simples
from latvoa.rootdata import build_root_system
from latvoa.screening import (
    apply_screening,
    kernel_layer,
    kernel_report,
    layer_basis,
    long_screening_suite,
    nichols_check,
    short_screening_set,
)
from latvoa.vertexop import mode_op
from latvoa.virasoro import commutator_check, stress_tensor, virasoro_mode

from conftest import random_state, tensor_multiply
from oracles import coproduct, d_dz, laurent_scale, pair, vertex_op
from test_screening import b2_cases

F = Fraction

SL = {
    "A1": ScreeningLattices(build_root_system("A", 1), 4),
    "B2": ScreeningLattices(build_root_system("B", 2), 4),
    "B3": ScreeningLattices(build_root_system("B", 3), 4),
    "B4": ScreeningLattices(build_root_system("B", 4), 4),
}


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text} ... PASS")


def test_criterion_01_lattice_data():
    a1 = SL["A1"]
    assert [b.coords for b in a1.basis_short] == [(F(-1),)]
    assert [b.coords for b in a1.basis_long] == [(F(2),)]
    assert [b.coords for b in a1.basis_dual] == [(F(1, 2),)]
    assert a1.Q.coords == (F(1, 2),)
    b2 = SL["B2"]
    assert [b.coords for b in b2.basis_short] == [(-1, 0), (0, -1)]
    assert [b.coords for b in b2.basis_long] == [(1, 0), (0, 2)]
    assert [b.coords for b in b2.basis_dual] == [(1, 1), (F(1, 2), 1)]
    assert b2.Q.coords == (F(1, 2), 1)
    for n in (2, 3, 4):
        sl = SL[f"B{n}"]
        assert sl.Q.coords == tuple(F(j, 2) for j in range(1, n + 1))
        for j, b in enumerate(sl.basis_long):
            scale = 1 if j < n - 1 else 2
            assert b.coords == tuple(
                F(scale) if i == j else F(0) for i in range(n)
            )
        assert [b.coords for b in sl.basis_short] == [
            tuple(F(-1) if i == j else F(0) for i in range(n)) for j in range(n)
        ]
        # l_n / sqrt2 = Q closes the dual basis check
        assert sl.basis_dual[n - 1] == sl.Q
        for a in sl.basis_short + sl.basis_long:
            assert sl.conformal_dim(a) == 1
    report(1, "lattice bases, Q, duals and h = 1 for A1, B2, B3, B4 at l = 4")


def test_criterion_02_central_charges():
    assert SL["A1"].central_charge == -2
    assert SL["B2"].central_charge == -4
    for n in (2, 3, 4):
        assert SL[f"B{n}"].central_charge == -2 * n
    report(2, "central charges -2, -4, -2n exact")


def test_criterion_03_simple_counts():
    for p in (1, 2, 3, 4, 5):
        assert num_simples(build_root_system("A", 1), 2 * p) == 2 * p
    for key in ("B2", "B3", "B4"):
        assert num_simples(SL[key].rs, 4) == 4
        assert SL[key].module_cosets().order == 4
    report(3, "simple-module counts 2p and 4 (quotient structure split below)")


@pytest.mark.parametrize(
    "key,factors",
    [
        ("A1", [4]),
        ("B3", [4]),
        pytest.param(
            "B2",
            [4],
            marks=pytest.mark.xfail(
                strict=True,
                reason="claimed Z4 is false for even rank: 2Q = a1+ + a2+ "
                "lies in the long lattice, so the quotient is Z2 x Z2",
            ),
        ),
        pytest.param(
            "B4",
            [4],
            marks=pytest.mark.xfail(
                strict=True,
                reason="claimed Z4 is false for even rank (2Q in the long lattice)",
            ),
        ),
    ],
)
def test_criterion_03_quotient_cyclic(key, factors):
    got = SL[key].module_cosets().invariant_factors
    if got == factors:
        report(3, f"{key} quotient group Z4")
    assert got == factors


def test_criterion_03_quotient_structure_documented():
    # the computed structures, asserted for the record
    assert SL["A1"].module_cosets().invariant_factors == [4]
    assert SL["B3"].module_cosets().invariant_factors == [4]
    assert SL["B2"].module_cosets().invariant_factors == [2, 2]
    assert SL["B4"].module_cosets().invariant_factors == [2, 2]
    two_q = 2 * SL["B2"].Q
    assert two_q == SL["B2"].basis_long[0] + SL["B2"].basis_long[1]
    report(3, "quotients are Z4 for odd rank and Z2 x Z2 for even rank "
              "(the Z4 claim fails for even rank; counterexample 2Q)")


def test_criterion_04_groundstates():
    expected_a1 = {
        "blue": (1, F(0), {(F(0),)}),
        "center": (1, F(-1, 8), {(F(1, 2),)}),
        "green": (1, F(0), {(F(1),)}),
        "steinberg": (2, F(3, 8), {(F(-1, 2),), (F(3, 2),)}),
    }
    for name, coset in SL["A1"].named_cosets().items():
        gs, h = groundstates(SL["A1"], coset)
        count, hw, reps = expected_a1[name]
        assert (len(gs), h, {g.coords for g in gs}) == (count, hw, reps)
    expected_b2 = {
        "blue": (2, F(0), {(F(0), F(0)), (F(1), F(2))}),
        "center": (1, F(-1, 4), {(F(1, 2), F(1))}),
        "green": (2, F(0), {(F(1), F(1)), (F(0), F(1))}),
        "steinberg": (
            4,
            F(1, 4),
            {(F(3, 2), F(2)), (F(1, 2), F(0)), (F(-1, 2), F(0)), (F(1, 2), F(2))},
        ),
    }
    for name, coset in SL["B2"].named_cosets().items():
        gs, h = groundstates(SL["B2"], coset)
        count, hw, reps = expected_b2[name]
        assert (len(gs), h, {g.coords for g in gs}) == (count, hw, reps)
    for n in (2, 3, 4):
        sl = SL[f"B{n}"]
        cosets = sl.named_cosets()
        for name, count, hw in [
            ("blue", 2 ** (n - 1), F(0)),
            ("green", 2 ** (n - 1), F(0)),
            ("center", 1, F(-n, 8)),
            ("steinberg", 2 * n, F(-n, 8) + F(1, 2)),
        ]:
            gs, h = groundstates(sl, cosets[name])
            assert (len(gs), h) == (count, hw), (n, name)
        # Steinberg groundstates are exactly Q +- the orthogonal short sums
        gammas = [
            sl.space.momentum([1 if i >= k else 0 for i in range(n)]) for k in range(n)
        ]
        gs, _ = groundstates(sl, cosets["steinberg"])
        want = {(sl.Q + g).coords for g in gammas} | {(sl.Q - g).coords for g in gammas}
        assert {g.coords for g in gs} == want
    report(4, "groundstate tables for A1, B2 and B3/B4 families exact")


def test_criterion_05_screening_goldens():
    sl = SL["A1"]
    space = sl.space
    E = lambda c: FieldElement.exponential(space, space.momentum(c))
    D = lambda c, o=1: FieldElement.dphi(space, space.momentum(c), o)
    Z = lambda mom, st: apply_screening(space.momentum(mom), st)
    one = FieldElement.vacuum(space)
    st = stress_tensor(sl)
    # the worked rank-one evaluations, short and long
    assert Z([-1], one).is_zero()
    assert Z([-1], D([1])) == E([-1])
    assert Z([-1], E([2])) == D([-1]) * E([1])
    assert Z([-1], E([1])) == one
    assert Z([-1], D([1]) * E([1])).is_zero()
    assert Z([-1], E([-1])).is_zero()
    assert Z([2], one).is_zero()
    assert Z([2], E([-1])) == D([2]) * E([1])
    assert Z([2], D([1]) * E([1])).is_zero()
    assert Z([2], st.element).is_zero()
    suite = long_screening_suite(sl, st)
    assert all(c.ok for c in suite.checks)
    assert suite.triplet is not None
    # the 40 B2 identities (with the recomputed corrections for source typos)
    for name, mom, state, want in b2_cases():
        got = apply_screening(SL["B2"].space.momentum(mom), state)
        assert got == want, name
    report(5, "rank-one worked screenings (incl. Z(T) = 0 and the triplet "
              "orbit) and all 40 B2 identities exact")


def test_criterion_06_kernel_tables():
    t0 = time.time()
    screens = short_screening_set(SL["B2"])
    expected = {
        "blue": ([2, 8], [1, 4], [1, 0]),
        "green": ([2, 8], [1, 4], [0, 4]),
        "center": ([1, 6], [0, 0], [0, 0]),
        "steinberg": ([4, 8], [4, 8], [4, 8]),
    }
    for name, coset in SL["B2"].named_cosets().items():
        rep = kernel_report(SL["B2"], coset, screens, 1)
        dims, kers, inters = expected[name]
        assert [l.dim for l in rep.layers] == dims, name
        assert [l.ker_dims[0] for l in rep.layers] == kers, name
        assert [l.intersection_dim for l in rep.layers] == inters, name
    blue_a1 = SL["A1"].named_cosets()["blue"]
    rep = kernel_report(SL["A1"], blue_a1, short_screening_set(SL["A1"]), 3)
    assert [l.intersection_dim for l in rep.layers] == [1, 0, 1, 4]
    st = stress_tensor(SL["A1"])
    (kernel_t,) = rep.layers[2].intersection_basis
    ratios = {F(kernel_t.terms[k]) / F(v) for k, v in st.element.terms.items()}
    assert set(kernel_t.terms) == set(st.element.terms) and len(ratios) == 1
    elapsed = time.time() - t0
    assert elapsed < 30
    report(6, f"B2 kernel table and A1 tower (T at level 2) exact in {elapsed:.1f}s")


def test_criterion_07_nichols_relations():
    b2 = SL["B2"]
    cosets = b2.named_cosets()
    reports = nichols_check(
        b2, short_screening_set(b2), [cosets["blue"], cosets["green"]], max_level=4
    )
    assert all(r.ok for r in reports)
    b3 = SL["B3"]
    cosets3 = b3.named_cosets()
    reports3 = nichols_check(
        b3, short_screening_set(b3), [cosets3["blue"], cosets3["green"]], max_level=3
    )
    assert all(r.ok for r in reports3)
    assert len(reports3) == 3 + 3  # three squares, three commutators
    report(7, "Z_i^2 = 0 and [Z_i, Z_j] = 0 on B2 levels <= 4 and B3 levels <= 3")


def test_criterion_08_virasoro():
    rng = random.Random(23)
    for key in ("A1", "B2"):
        sl = SL[key]
        st = stress_tensor(sl)
        blue = sl.named_cosets()["blue"]
        states = []
        for lvl in range(6):
            states.extend(layer_basis(sl, blue, lvl).basis)
        rep = commutator_check(st, states, max_mode=3)
        assert rep.ok, key
        for _ in range(100):
            v = random_state(sl, rng)
            assert virasoro_mode(st, -1, v) == mode_op(st.element, -1, v) == v.derive()
    report(8, "Virasoro commutators exact on A1/B2 vacuum levels <= 5, "
              "|m|,|n| <= 3; L_{-1} = derivation on 100 random states each, "
              "closed form and generic route")


def test_criterion_09a_jacobi_triple_product():
    dim = graded_dim_module(SL["A1"], SL["A1"].named_cosets()["blue"], 21)
    chi = sf_characters(1, 21)["ns+"]
    assert dim.agrees_with(chi, through=F(1, 12) + 20)
    report(9, "(a) A1 vacuum graded dimension = chi_ns+ through order 20")


def test_criterion_09b_b2_module_series():
    sl = SL["B2"]
    screens = short_screening_set(sl)
    cosets = sl.named_cosets()
    for name, want in (("blue", [1, 0]), ("green", [0, 4])):
        dims = [lk.intersection_dim for lk in kernel_report(sl, cosets[name], screens, 1).layers]
        assert dims == want
    center = graded_dim_module(sl, cosets["center"], 4).normalized()
    assert center.offset == F(1, 6) - F(1, 4)
    assert [int(c) for c in center.coeffs[:2]] == [1, 6]
    steinberg = graded_dim_module(sl, cosets["steinberg"], 4).normalized()
    assert steinberg.offset == F(1, 6) + F(1, 4)
    assert [int(c) for c in steinberg.coeffs[:2]] == [4, 8]
    report(9, "(b) B2 series: Lambda(1) 1,0; Pi(1) 0,4; Lambda(2) 1,6 at "
              "t^{1/6-1/4}; Pi(2) 4,8 at t^{1/6+1/4}")


def test_criterion_09c_sf_character_displays():
    chars = sf_characters(2, 10)
    assert chars["ns+"].offset == F(1, 6)
    assert [int(c) for c in chars["ns+"].coeffs[:3]] == [1, 4, 10]
    assert [int(c) for c in chars["ns-"].coeffs[:3]] == [1, -4, 2]
    rp = chars["r+"]
    rm = chars["r-"]
    assert rp.offset == F(-1, 12) and rp.step == F(1, 2)
    # displayed through t^{3/2}: 1, +-4, 6, +-8; the t^2 entry is 17 from
    # the product formula itself (the printed 16 is a typo; both the
    # fermionic mode count and the lattice theta computation give 17)
    assert [int(c) for c in rp.coeffs[:5]] == [1, 4, 6, 8, 17]
    assert [int(c) for c in rm.coeffs[:5]] == [1, -4, 6, -8, 17]
    assert len(rp.coeffs) >= 21  # exact through order 10 on the half grid
    center = graded_dim_module(SL["B2"], SL["B2"].named_cosets()["center"], 4)
    assert center.coefficient_at(F(-1, 12) + 2) == 17
    report(9, "(c) chi_ns+- and chi_r+- displays exact to order 10 "
              "(t^2 coefficient 17, display typo noted)")


def test_criterion_09d_series_vs_layer_oracle():
    for key in ("A1", "B2"):
        sl = SL[key]
        c24 = -sl.central_charge / 24
        for name, coset in sl.named_cosets().items():
            series = graded_dim_module(sl, coset, 7)
            _gs, h0 = groundstates(sl, coset)
            for lvl in range(7):
                assert series.coefficient_at(c24 + h0 + lvl) == layer_basis(
                    sl, coset, h0 + lvl
                ).dim, (key, name, lvl)
    report(9, "(d) graded dimensions equal layer dimensions to order 6 on "
              "all eight modules")


def test_criterion_10_ope_isomorphism():
    a1 = SL["A1"]
    a = FieldElement.exponential(a1.space, a1.space.momentum([-1]))
    b = FieldElement.exponential(a1.space, a1.space.momentum([1])).derive()
    ser = vertex_op(a, b, (-2, -1))
    assert ser.coefficient(-2) == FieldElement.vacuum(a1.space)
    assert ser.coefficient(-1).is_zero()
    b2 = SL["B2"]
    pairs = ([1, 1], [0, 1])
    for i, gi in enumerate(pairs):
        for j, gj in enumerate(pairs):
            a = FieldElement.exponential(b2.space, b2.space.momentum([-c for c in gi]))
            b = FieldElement.exponential(b2.space, b2.space.momentum(gj)).derive()
            ser = vertex_op(a, b, (-2, -1))
            if i == j:
                assert ser.coefficient(-2) == FieldElement.vacuum(b2.space)
            else:
                assert ser.coefficient(-2).is_zero()
            assert ser.coefficient(-1).is_zero()
    report(10, "symplectic-fermion OPE normalization, same-pair and "
               "cross-pair, exact")


def test_criterion_11_degeneracy_tables():
    samples = [
        ("A", 3, 1, ("0", "A3")),
        ("B", 2, 2, ("0", "B2")),
        ("A", 2, 6, ("A2", "A2")),
        ("B", 3, 6, ("B3", "B3")),
        ("C", 3, 6, ("C3", "C3")),
        ("F", 4, 6, ("F4", "F4")),
        ("G", 2, 8, ("G2", "G2")),
        ("B", 3, 8, ("B3", "C3")),
        ("C", 3, 8, ("C3", "B3")),
        ("F", 4, 8, ("F4", "F4")),
        ("G", 2, 12, ("G2", "G2")),
        ("B", 3, 4, ("A1^3", "C3")),
        ("C", 3, 4, ("D3", "B3")),
        ("F", 4, 4, ("D4", "F4")),
        ("G", 2, 6, ("A2", "G2")),
    ]
    for series, rank, ell, want in samples:
        assert classify(build_root_system(series, rank), ell) == want
    with pytest.raises(ValueError, match="exotic"):
        classify(build_root_system("G", 2), 4)
    rows = [
        ("B", 2, 4, 4, 2, F(-2 * 2)),
        ("B", 3, 4, 4, 4, F(-2 * 3)),
        ("B", 4, 4, 4, 8, F(-2 * 4)),
        ("C", 2, 4, 4, 2, F(3 * 4 - 2 * 8)),
        ("C", 3, 4, 8, 2, F(3 * 9 - 2 * 27)),
        ("F", 4, 4, 4, 4, F(-80)),
        ("G", 2, 6, 3, 3, F(-30)),
    ]
    for series, rank, ell, n_simples, dim_x, cc in rows:
        rep = extension_report(build_root_system(series, rank), ell)
        assert rep.num_simples == n_simples
        assert rep.dim_x == dim_x == rep.dim_x_from_counts
        assert rep.central_charge == rep.central_charge_table == cc
    for n in (2, 3, 4):
        rep = extension_report(build_root_system("B", n), 4)
        assert rep.central_charge == SL[f"B{n}"].central_charge == -2 * n
    report(11, "classification rows, extension table numerics, dim X by "
               "determinant ratio, and both central-charge paths agree")


def test_criterion_12_property_suites():
    rng = random.Random(24)
    b2 = SL["B2"]
    # Hopf-pairing equivariance signs, 100 instances
    for _ in range(100):
        a = random_state(b2, rng, max_terms=2, max_factors=1)
        b = random_state(b2, rng, max_terms=2, max_factors=1)
        assert pair(a.derive(), b) == d_dz(pair(a, b))
        assert pair(a, b.derive()) == laurent_scale(d_dz(pair(a, b)), -1)
    # coproduct multiplicativity, 100 instances
    for _ in range(100):
        a = random_state(b2, rng, max_terms=1, max_factors=1)
        b = random_state(b2, rng, max_terms=1, max_factors=1)
        assert coproduct(a * b) == tensor_multiply(coproduct(a), coproduct(b), b2.space)
    # coset-representative independence of groundstates, theta and kernels,
    # 100 randomized representatives each
    screens = short_screening_set(b2)
    names = list(b2.named_cosets())
    for i in range(100):
        name = names[i % 4]
        coset = b2.named_cosets()[name]
        shift = b2.space.zero()
        for bl in b2.basis_long:
            shift = shift + rng.randint(-3, 3) * bl
        moved = Coset(b2.space, coset.rep + shift, coset.basis)
        gs_ref, h_ref = groundstates(b2, coset)
        gs_new, h_new = groundstates(b2, moved)
        assert h_ref == h_new
        assert {g.coords for g in gs_ref} == {g.coords for g in gs_new}
        assert theta_coset(b2, moved, b2.Q, 4) == theta_coset(b2, coset, b2.Q, 4)
        lk_ref = kernel_layer(b2, layer_basis(b2, coset, h_ref), screens)
        lk_new = kernel_layer(b2, layer_basis(b2, moved, h_new), screens)
        assert (lk_ref.dim, lk_ref.ker_dims, lk_ref.intersection_dim) == (
            lk_new.dim,
            lk_new.ker_dims,
            lk_new.intersection_dim,
        )
    # parse/print round trip, 100 instances
    for i in range(100):
        sl = b2 if i % 2 else SL["A1"]
        elem = random_state(sl, rng)
        assert parse_state(format_state(elem), sl) == elem
    report(12, "equivariance, multiplicativity, representative "
               "independence and round-trip suites (100 instances each)")

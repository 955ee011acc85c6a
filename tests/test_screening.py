"""Golden screening tests: every worked identity of the rank-one and B2
families, the kernel tables, Nichols relations and grading operators.

Several displayed identities in the source tables carry typos (dropped
derivative factors where the mode index forces one, sign slips on
derivative inputs, and one out-of-module exponential); the expected values
here were recomputed by hand from the pairing axioms and double-checked
against conformal-dimension bookkeeping and linearity.
"""

import functools
import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import linalg, screening
from latvoa.cli import main
from latvoa.expr import parse_state
from latvoa.freefield import FieldElement, _numerators
from latvoa.lattice import Coset, Momentum, MomentumSpace, ScreeningLattices, groundstates, phase_exponent
from latvoa.rootdata import build_root_system
from latvoa.vertexop import residue_op
from latvoa.screening import (
    GradedLayer,
    _monomials_of_degree,
    apply_screening,
    braiding_matrix,
    kernel_layer,
    kernel_report,
    layer_basis,
    long_screening_suite,
    module_layers,
    nichols_check,
    short_screening_set,
    weyl_power_exponent,
)
from latvoa.virasoro import stress_tensor

from conftest import identity, integer_row
from oracles import conformal_weights, momenta
from test_linalg import bareiss_echelon, gj_rank


def grading_ops(sl, i, state):
    """Eigenvalues of the exponentiated short grading operator K_i, as the
    reduced exponent r of its phase e^{i pi r} with r = (a_i/sqrt p, lambda)
    mod 2, and of the long grading operator H_i (rational d * (a_i^v,
    lambda / sqrt p)) on a single-momentum state."""
    moms = momenta(state)
    if len(moms) != 1:
        raise ValueError("grading operators act on single-momentum states")
    (mom,) = moms
    lam = Momentum(mom)
    space = sl.space
    e_i = space.basis_vector(i)
    r = space.pair(e_i, lam)
    k_val = phase_exponent(r)
    d = max(sl.rs.d)
    h_val = Fraction(d, sl.p) * space.pair(sl.basis_long[i], lam)
    return k_val, h_val

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


def E(sl, coords):
    return FieldElement.exponential(sl.space, sl.space.momentum(coords))


def D(sl, coords, order=1):
    return FieldElement.dphi(sl.space, sl.space.momentum(coords), order)


def Z(sl, coords, state):
    return apply_screening(sl.space.momentum(coords), state)


def brute_monomials(rank, d):
    """Every multiset of at most d factors (order, idx) with orders summing
    to d, as sorted tuples in sorted order."""
    factors = [(order, idx) for order in range(1, d + 1) for idx in range(rank)]
    return sorted(
        combo
        for k in range(d + 1)
        for combo in combinations_with_replacement(factors, k)
        if sum(order for order, _idx in combo) == d
    )


@pytest.mark.parametrize("rank", range(5))
def test_monomials_of_degree_equal_brute_force(rank):
    for d in range(7):
        assert _monomials_of_degree(rank, d) == brute_monomials(rank, d)


# --- rank one (short screening -a/sqrt2, long screening a sqrt2) ---------


def test_a1_short_screening_goldens():
    sl = SL_A1
    one = FieldElement.vacuum(sl.space)
    a_s = [-1]
    assert Z(sl, a_s, one).is_zero()
    assert Z(sl, a_s, D(sl, [1])) == E(sl, [-1])
    assert Z(sl, a_s, E(sl, [2])) == D(sl, [-1]) * E(sl, [1])
    assert Z(sl, a_s, E(sl, [1])) == one
    assert Z(sl, a_s, D(sl, [1]) * E(sl, [1])).is_zero()
    assert Z(sl, a_s, E(sl, [-1])).is_zero()


def test_a1_long_screening_goldens():
    sl = SL_A1
    one = FieldElement.vacuum(sl.space)
    a_l = [2]
    assert Z(sl, a_l, one).is_zero()
    assert Z(sl, a_l, E(sl, [-1])) == D(sl, [2]) * E(sl, [1])
    assert Z(sl, a_l, (D(sl, [1]) * E(sl, [1]))).is_zero()
    assert Z(sl, a_l, stress_tensor(sl).element).is_zero()


def in_row_span(a, v):
    """Whether v lies in the row span of a."""
    if not a:
        return all(x == 0 for x in v)
    return gj_rank(a + [list(v)]) == gj_rank(a)


def test_a1_triplet_orbit():
    rep = long_screening_suite(SL_A1)
    assert all(c.ok for c in rep.checks)
    trip = rep.triplet
    assert set(trip) == {"W-", "W0", "W+"}
    st = stress_tensor(SL_A1)
    # all three live at conformal dimension 3 in the vacuum module
    for w in trip.values():
        assert conformal_weights(w, SL_A1) == {F(3)}
    # the h = 3 kernel layer is spanned by W-, W0, dT, W+
    blue = SL_A1.named_cosets()["blue"]
    lk = kernel_layer(SL_A1, layer_basis(SL_A1, blue, 3), short_screening_set(SL_A1))
    assert lk.intersection_dim == 4
    span = [list(v.terms.items()) for v in lk.intersection_basis]
    keys = sorted({k for v in lk.intersection_basis for k in v.terms})
    mat = [[F(v.terms.get(k, 0)) for k in keys] for v in lk.intersection_basis]
    for w in [trip["W-"], trip["W0"], trip["W+"], st.element.derive()]:
        row = [F(w.terms.get(k, 0)) for k in keys]
        assert all(w.terms.get(k, 0) == 0 for k in w.terms if k not in keys)
        assert in_row_span(mat, row)


def test_a1_kernel_tower():
    # W = <e0> + 0 + <T> + <W-, W0, dT, W+> + ...
    blue = SL_A1.named_cosets()["blue"]
    rep = kernel_report(SL_A1, blue, short_screening_set(SL_A1), 3)
    assert [r[2] for r in rep.rows()] == [1, 0, 1, 4]
    assert [l.dim for l in rep.layers] == [1, 2, 3, 6]
    st = stress_tensor(SL_A1)
    (t_kernel,) = rep.layers[2].intersection_basis
    ratios = {
        F(t_kernel.terms[k]) / F(st.element.terms[k]) for k in st.element.terms
    }
    assert set(t_kernel.terms) == set(st.element.terms) and len(ratios) == 1


# --- B2 goldens (Z1 = -(a1+a2)/sqrt2, Z2 = -a2/sqrt2) ----------------------


def b2_cases():
    sl = SL_B2
    one = FieldElement.vacuum(sl.space)
    zero = FieldElement.zero(sl.space)
    a1, a2 = [-1, -1], [0, -1]
    g2 = [1, 2]
    return [
        # Blue groundstates
        ("blue a Z2(1)", a2, one, zero),
        ("blue a Z1(1)", a1, one, zero),
        ("blue a Z2(e_g2)", a2, E(sl, g2), E(sl, [1, 1])),
        ("blue a Z1(e_g2)", a1, E(sl, g2), E(sl, [0, 1])),
        # Blue level 1 over the vacuum groundstate (source table prints + on the
        # two nonzero values; the pairing axioms give -)
        ("blue b Z2(d-a2)", a2, D(sl, [0, -1]), -1 * E(sl, [0, -1])),
        ("blue b Z1(d-a2)", a1, D(sl, [0, -1]), zero),
        ("blue b Z2(d-a12)", a2, D(sl, [-1, -1]), zero),
        ("blue b Z1(d-a12)", a1, D(sl, [-1, -1]), -1 * E(sl, [-1, -1])),
        # Blue level 1 over the second groundstate a1/sqrt2 + sqrt2 a2
        # (printed there as sqrt2 a1 + a2/sqrt2, which lies outside the module)
        ("blue b Z2(d+a12 e_g2)", a2, D(sl, [1, 1]) * E(sl, g2), D(sl, [1, 1]) * E(sl, [1, 1])),
        ("blue b Z1(d+a12 e_g2)", a1, D(sl, [1, 1]) * E(sl, g2), zero),
        ("blue b Z2(d-a2 e_g2)", a2, D(sl, [0, -1]) * E(sl, g2), zero),
        ("blue b Z1(d-a2 e_g2)", a1, D(sl, [0, -1]) * E(sl, g2), -1 * (D(sl, [0, 1]) * E(sl, [0, 1]))),
        # Blue level-1 exponentials
        ("blue c Z2(e-a1)", a2, E(sl, [-1, 0]), E(sl, [-1, -1])),
        ("blue c Z1(e-a1)", a1, E(sl, [-1, 0]), zero),
        ("blue c Z2(e+a1)", a2, E(sl, [1, 0]), zero),
        ("blue c Z1(e+a1)", a1, E(sl, [1, 0]), E(sl, [0, -1])),
        ("blue c Z2(e 2a12)", a2, E(sl, [2, 2]), zero),
        # k = 1 mode: the image carries a derivative factor the display drops
        ("blue c Z1(e 2a12)", a1, E(sl, [2, 2]), D(sl, [-1, -1]) * E(sl, [1, 1])),
        ("blue c Z2(e 2a2)", a2, E(sl, [0, 2]), D(sl, [0, -1]) * E(sl, [0, 1])),
        ("blue c Z1(e 2a2)", a1, E(sl, [0, 2]), zero),
        # Green groundstates
        ("green a Z2(e a12)", a2, E(sl, [1, 1]), zero),
        ("green a Z1(e a12)", a1, E(sl, [1, 1]), one),
        ("green a Z2(e a2)", a2, E(sl, [0, 1]), one),
        ("green a Z1(e a2)", a1, E(sl, [0, 1]), zero),
        # Green level 1 over groundstates
        ("green b Z2(L-1 e a12)", a2, D(sl, [1, 1]) * E(sl, [1, 1]), zero),
        ("green b Z1(L-1 e a12)", a1, D(sl, [1, 1]) * E(sl, [1, 1]), zero),
        ("green b Z2(L-1 e a2)", a2, D(sl, [0, 1]) * E(sl, [0, 1]), zero),
        ("green b Z1(L-1 e a2)", a1, D(sl, [0, 1]) * E(sl, [0, 1]), zero),
        ("green b Z2(d a2 e a12)", a2, D(sl, [0, 1]) * E(sl, [1, 1]), E(sl, [1, 0])),
        # display says d phi_{a1}; the index is a2
        ("green b Z1(d a2 e a12)", a1, D(sl, [0, 1]) * E(sl, [1, 1]), D(sl, [0, 1])),
        ("green b Z2(d-a12 e a2)", a2, D(sl, [-1, -1]) * E(sl, [0, 1]), D(sl, [-1, -1])),
        # display says +e^{-a1/sqrt2}; the pairing axioms give -
        ("green b Z1(d-a12 e a2)", a1, D(sl, [-1, -1]) * E(sl, [0, 1]), -1 * E(sl, [-1, 0])),
        # Green level-1 exponentials (second input printed without its minus)
        ("green c Z2(e-a12)", a2, E(sl, [-1, -1]), zero),
        ("green c Z1(e-a12)", a1, E(sl, [-1, -1]), zero),
        ("green c Z2(e-a2)", a2, E(sl, [0, -1]), zero),
        ("green c Z1(e-a2)", a1, E(sl, [0, -1]), zero),
        ("green c Z2(e 2a1 3a2)", a2, E(sl, [2, 3]), E(sl, [2, 2])),
        ("green c Z1(e 2a1 3a2)", a1, E(sl, [2, 3]), D(sl, [-1, -1]) * E(sl, [1, 2])),
        ("green c Z2(e a1 3a2)", a2, E(sl, [1, 3]), D(sl, [0, -1]) * E(sl, [1, 2])),
        ("green c Z1(e a1 3a2)", a1, E(sl, [1, 3]), E(sl, [0, 2])),
    ]


@pytest.mark.parametrize("case", b2_cases(), ids=lambda c: c[0])
def test_b2_screening_goldens(case):
    name, mom, state, want = case
    got = Z(SL_B2, mom, state)
    assert got == want


def test_b2_goldens_are_h_homogeneous():
    for name, mom, state, want in b2_cases():
        if not want.is_zero():
            assert len(conformal_weights(want, SL_B2)) == 1
            (h_in,) = conformal_weights(state, SL_B2)
            (h_out,) = conformal_weights(want, SL_B2)
            assert h_in == h_out


# --- kernel tables -----------------------------------------------------------


def test_b2_kernel_table():
    screens = short_screening_set(SL_B2)
    assert [tuple(map(int, s.coords)) for s in screens] == [(-1, -1), (0, -1)]
    expected = {
        "blue": ([2, 8], [1, 4], [1, 0], 1),
        "green": ([2, 8], [1, 4], [0, 4], 1),
        "center": ([1, 6], [0, 0], [0, 0], 0),
        "steinberg": ([4, 8], [4, 8], [4, 8], 2),
    }
    for name, coset in SL_B2.named_cosets().items():
        rep = kernel_report(SL_B2, coset, screens, 1)
        dims, kers, inters, power = expected[name]
        assert [l.dim for l in rep.layers] == dims
        for l, want in zip(rep.layers, kers):
            assert l.ker_dims == [want, want]
        assert [l.intersection_dim for l in rep.layers] == inters
        assert rep.weyl_powers == [power, power]


def test_b2_steinberg_level_structure():
    # the level above the Steinberg groundstates is pure differential
    # polynomials: 2 * 4 states, no new exponentials (those appear at +9/4)
    coset = SL_B2.named_cosets()["steinberg"]
    lay = layer_basis(SL_B2, coset, F(5, 4))
    assert lay.dim == 8
    assert all(mono for (_, mono) in (next(iter(v.terms)) for v in lay.basis))
    lay2 = layer_basis(SL_B2, coset, F(9, 4))
    assert any(not mono for (_, mono) in (next(iter(v.terms)) for v in lay2.basis))


def test_kernel_composition_series_bookkeeping():
    # The filtration V_[0] > Ker Z1 + Ker Z2 > Ker Z1 > Ker1 n Ker2 > 0
    # has layerwise quotient dimensions Lambda(1), Pi(1), Pi(1), Lambda(1)
    # (dim of the kernel sum = k1 + k2 - intersection), so each layer of
    # the vacuum module carries 2 Lambda(1) + 2 Pi(1):
    screens = short_screening_set(SL_B2)
    blue = SL_B2.named_cosets()["blue"]
    green = SL_B2.named_cosets()["green"]
    lam1 = [1, 0]  # Lambda(1) layer dims
    pi1 = [0, 4]  # Pi(1) layer dims
    blue_layers = kernel_report(SL_B2, blue, screens, 1).layers
    green_layers = kernel_report(SL_B2, green, screens, 1).layers
    for lvl, lb, lg in zip((0, 1), blue_layers, green_layers):
        k1, k2 = lb.ker_dims
        ksum = k1 + k2 - lb.intersection_dim
        assert lb.dim - ksum == lam1[lvl]
        assert ksum - k1 == pi1[lvl]
        assert k1 - lb.intersection_dim == pi1[lvl]
        assert lb.intersection_dim == lam1[lvl]
        assert lb.dim == 2 * lam1[lvl] + 2 * pi1[lvl]
        # Green: same total, socle Pi(1)
        assert lg.dim == lb.dim
        assert lg.intersection_dim == pi1[lvl]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_kernel_layer_builds_no_layer_basis(monkeypatch, rank):
    # the screening matrices number their rows by image terms, so a built
    # layer needs no target layer basis and hashes no coset
    sl = ScreeningLattices(build_root_system("B", rank), 4)
    screens = short_screening_set(sl)
    assert len(screens) == rank
    layers = [module_layers(sl, sl.named_cosets()[name], 1)[1] for name in ("blue", "green")]
    calls = []
    real_basis, real_hash = screening.layer_basis, Coset.__hash__

    def counted(sl_, coset, h):
        calls.append("layer_basis")
        return real_basis(sl_, coset, h)

    def hashed(coset):
        calls.append("hash")
        return real_hash(coset)

    monkeypatch.setattr(screening, "layer_basis", counted)
    monkeypatch.setattr(Coset, "__hash__", hashed)
    for layer in layers:
        lk = kernel_layer(sl, layer, screens)
        assert len(lk.ker_dims) == rank
    assert calls == []


@pytest.mark.parametrize("rank, level", [(2, 2), (3, 1)])
def test_kernel_layer_asks_for_vectors_once(monkeypatch, rank, level):
    # per-screening kernels are the lengths of their echelons; only the stacked
    # intersection is asked for a basis, once per integer-pairing layer
    sl = ScreeningLattices(build_root_system("B", rank), 4)
    screens = short_screening_set(sl)
    calls = []
    real = linalg.nullspace

    def counted(a, ncols=None):
        calls.append(ncols)
        return real(a, ncols)

    monkeypatch.setattr(linalg, "nullspace", counted)
    for name in ("blue", "green"):
        for layer in module_layers(sl, sl.named_cosets()[name], level):
            calls.clear()
            lk = kernel_layer(sl, layer, screens)
            assert calls == [lk.dim]
            assert len(lk.ker_dims) == rank


def test_kernel_representative_independence():
    rng = random.Random(18)
    screens = short_screening_set(SL_B2)
    base = SL_B2.named_cosets()["green"]
    ref = [
        (l.dim, tuple(l.ker_dims), l.intersection_dim)
        for l in kernel_report(SL_B2, base, screens, 1).layers
    ]
    for _ in range(8):
        shift = SL_B2.space.zero()
        for b in SL_B2.basis_long:
            shift = shift + rng.randint(-2, 2) * b
        moved = Coset(SL_B2.space, base.rep + shift, base.basis)
        got = [
            (l.dim, tuple(l.ker_dims), l.intersection_dim)
            for l in kernel_report(SL_B2, moved, screens, 1).layers
        ]
        assert got == ref


def test_screening_momentum_bookkeeping():
    # Z_a maps V_lambda into V_{lambda + a}
    rng = random.Random(19)
    a = SL_B2.space.momentum([0, -1])
    for _ in range(40):
        mom = SL_B2.space.momentum([rng.randint(-2, 2), rng.randint(-2, 2)])
        state = FieldElement.exponential(SL_B2.space, mom)
        if rng.random() < 0.5:
            state = state * FieldElement.dphi(SL_B2.space, SL_B2.space.basis_vector(rng.randint(0, 1)))
        out = apply_screening(a, state)
        for m in momenta(out):
            assert SL_B2.space.momentum(m) == mom + a


def test_screening_preserves_h_layerwise():
    blue = SL_B2.named_cosets()["blue"]
    for a in short_screening_set(SL_B2):
        for h in (0, 1, 2):
            for v in layer_basis(SL_B2, blue, h).basis:
                out = apply_screening(a, v)
                if not out.is_zero():
                    assert conformal_weights(out, SL_B2) == {F(h)}


def test_apply_screening_rejects_fractional():
    center = SL_B2.named_cosets()["center"]
    state = FieldElement.exponential(SL_B2.space, center.rep)
    with pytest.raises(ValueError, match="fractional"):
        apply_screening(SL_B2.space.momentum([0, -1]), state)


def test_apply_screening_error_names_momenta():
    state = FieldElement.exponential(SL_B2.space, SL_B2.Q)
    with pytest.raises(ValueError) as info:
        apply_screening(SL_B2.space.momentum([0, -1]), state)
    message = str(info.value)
    assert "pairing -1/2 of momenta -a2 and 1/2*a1 + a2 is fractional" in message
    assert "Fraction(" not in message


def test_fractional_pairing_is_refused_with_one_message(capsys):
    # alpha = -a2 on the center coset of B2, whose one groundstate is Q:
    # every integer route refuses this pairing with residue_op's text
    space = SL_B2.space
    a = space.momentum([0, -1])
    center = SL_B2.named_cosets()["center"]
    (layer,) = module_layers(SL_B2, center, 0)
    (state,) = layer.basis
    assert state == FieldElement.exponential(space, SL_B2.Q)
    d, terms = _numerators(state.terms)
    routes = [
        lambda: residue_op(FieldElement.exponential(space, a), state),
        lambda: apply_screening(a, state),
        lambda: screening.screening_numerators(space, a, [(d, terms)], {}),
        lambda: screening._screening_matrix(SL_B2, a, layer, {}),
    ]
    messages = []
    for route in routes:
        with pytest.raises(ValueError) as info:
            route()
        messages.append(str(info.value))
    text = (
        "pairing -1/2 of momenta -a2 and 1/2*a1 + a2 is fractional; "
        "use fractional mode with a truncation bound"
    )
    assert messages == [text] * len(routes)
    code = main(["screen-apply", "--algebra", "B2", "--ell", "4", "--momentum", "-a2", "--state", "exp[Q]"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and doc["ok"] is False
    assert doc["errors"] == [f"{text}; rerun with --fractional --truncate K"]


def test_screenings_refuse_a_momentum_of_another_rank():
    # an A1 momentum inside a B2 element: residue_op refuses the pair of
    # elements, and every screening route refuses the bare momentum (`_keys`)
    alpha = SL_A1.space.momentum([-1])
    state = parse_state("d phi[a1] * exp[a1+a2]", SL_B2)
    _ground, layer = module_layers(SL_B2, SL_B2.named_cosets()["blue"], 1)
    d, terms = _numerators(state.terms)
    routes = [
        lambda: apply_screening(alpha, state),
        lambda: screening.screening_numerators(SL_B2.space, alpha, [(d, terms)], {}),
        lambda: kernel_layer(SL_B2, layer, [alpha]),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
            route()
    with pytest.raises(ValueError, match="different lattices"):
        residue_op(FieldElement.exponential(SL_A1.space, alpha), state)


# --- braiding, Nichols, Weyl powers ---------------------------------------


def test_braiding_matrix_values():
    bm = braiding_matrix(SL_B2)
    assert bm[0][0] == 2  # degenerate long root: q = +1
    assert bm[1][1] == 1  # fermionic short root: q = -1
    assert phase_exponent(bm[0][0]) == 0
    assert phase_exponent(bm[1][1]) == 1
    bma = braiding_matrix(SL_A1)
    assert bma[0][0] == 1
    # row i holds (a_i, a_j): a pairing that is not symmetric shows the order
    space = SimpleNamespace(pair=lambda x, y: F(10 * x + y))
    assert braiding_matrix(SimpleNamespace(space=space, basis_short=[1, 2])) == ((11, 12), (21, 22))


def test_short_screening_set_degenerate_selection():
    moms = short_screening_set(SL_B2)
    assert [tuple(map(int, m.coords)) for m in moms] == [(-1, -1), (0, -1)]
    for m in moms:
        norm = SL_B2.space.norm(m)
        assert norm.denominator == 1 and norm.numerator % 2 == 1
    assert [tuple(map(int, m.coords)) for m in short_screening_set(SL_A1)] == [(-1,)]
    sl3 = ScreeningLattices(build_root_system("B", 3), 4)
    moms3 = short_screening_set(sl3)
    assert [tuple(map(int, m.coords)) for m in moms3] == [
        (-1, -1, -1),
        (0, -1, -1),
        (0, 0, -1),
    ]
    for i, x in enumerate(moms3):
        for j, y in enumerate(moms3):
            assert sl3.space.pair(x, y) == (1 if i == j else 0)


def test_nichols_relations_b2():
    screens = short_screening_set(SL_B2)
    cosets = SL_B2.named_cosets()
    reports = nichols_check(SL_B2, screens, [cosets["blue"], cosets["green"]], max_level=4)
    assert [r.name for r in reports] == ["Z1^2 = 0", "Z2^2 = 0", "[Z1, Z2] = 0"]
    assert all(r.ok for r in reports)


def _counted_builds(monkeypatch) -> tuple[list, list]:
    """(walks, built) from now on: (screening coords, monomial) of every
    walk of `_closed_images` over the splits of a monomial, and the key of
    every relative image it builds, in order."""
    walks, built = [], []
    real = screening._closed_images

    def counted(space, coords, misses):
        walks.extend((coords, mono) for mono in misses)
        images = real(space, coords, misses)
        built.extend(images)
        return images

    monkeypatch.setattr(screening, "_closed_images", counted)
    return walks, built


def test_nichols_check_applies_each_screening_image_once(monkeypatch):
    # per layer, each call over all its basis states: Z_a v for every
    # screening a, Z_a Z_a v for every a, and the two sides of each
    # commutator built from those first images
    calls = []
    real = screening.screening_numerators

    def counted(space, alpha, columns, images):
        columns = [(d, list(terms)) for d, terms in columns]
        calls.append((alpha, len(columns), [key for _d, terms in columns for key, _c in terms]))
        return real(space, alpha, columns, images)

    monkeypatch.setattr(screening, "screening_numerators", counted)
    _walks, built = _counted_builds(monkeypatch)
    screens = short_screening_set(SL_B2)
    cosets = SL_B2.named_cosets()
    chosen = [cosets["blue"], cosets["green"]]
    reports = nichols_check(SL_B2, screens, chosen, max_level=2)
    assert all(r.ok for r in reports)
    dims = []
    for coset in chosen:
        _gs, h0 = groundstates(SL_B2, coset)
        dims.extend(layer_basis(SL_B2, coset, h0 + lvl).dim for lvl in range(3))
    commutator_pairs = 1
    per_layer = 2 * len(screens) + commutator_pairs * 2
    assert per_layer == 6
    assert [columns for _alpha, columns, _keys in calls] == [dim for dim in dims for _ in range(per_layer)]
    # the first calls of each layer take its basis states, one term each
    firsts = [calls[k * per_layer + x] for k in range(len(dims)) for x in range(len(screens))]
    assert [alpha for alpha, _n, _keys in firsts] == list(screens) * len(dims)
    assert all(len(keys) == n for _alpha, n, keys in firsts)
    # one closed-form build per distinct (screening, monomial, pairing)
    triples = {
        (alpha.coords, mono, SL_B2.space.pair(alpha, Momentum(mu)))
        for alpha, _n, keys in calls
        for mu, mono in keys
    }
    assert len(built) == len(set(built)) == len(triples)
    assert set(built) == triples
    terms_applied = sum(len(keys) for _alpha, _n, keys in calls)
    assert len(built) < terms_applied


@pytest.mark.parametrize(
    "series, rank, ell, level", [("B", 2, 4, 4), ("B", 3, 4, 2), ("G", 2, 6, 3)], ids=["B2", "B3", "G2"]
)
def test_screening_matrix_builds_each_image_once(monkeypatch, series, rank, ell, level):
    # a fresh table per matrix: every (monomial, pairing) of the layer is
    # built once, and each monomial is one walk shared by its pairings
    walks, built = _counted_builds(monkeypatch)
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    if series == "B":
        cosets = [sl.named_cosets()[color] for color in ("blue", "green")]
    else:  # G2 has no four named modules; the vacuum coset has integer pairings
        cosets = [sl.long_lattice_coset(sl.space.zero())]
    total_walks = total_keys = 0
    for coset in cosets:
        _gs, h0 = groundstates(sl, coset)
        for lvl in range(level + 1):
            layer = layer_basis(sl, coset, h0 + lvl)
            monos = {mono for v in layer.basis for (_mu, mono) in v.terms}
            for a in short_screening_set(sl):
                keys = {
                    (a.coords, mono, sl.space.pair_coords(a.coords, mu))
                    for v in layer.basis
                    for (mu, mono) in v.terms
                }
                images: dict = {}
                walks.clear()
                built.clear()
                screening._screening_matrix(sl, a, layer, images)
                assert sorted(walks) == sorted((a.coords, mono) for mono in monos)
                assert len(built) == len(set(built)) == len(keys)
                assert set(built) == images.keys() == keys
                # a second matrix on the filled table builds nothing
                screening._screening_matrix(sl, a, layer, images)
                assert len(walks) == len(monos) and len(built) == len(keys)
                total_walks += len(walks)
                total_keys += len(keys)
    assert total_walks < total_keys  # some monomial occurs at several pairings


def test_screening_matrix_rows_equal_untranslated_images():
    # each sparse row is the row of untranslated images times a positive
    # scale, so the two have the same primitive part; the rows are numbered
    # by the target layer, built here as the oracle of their order, and
    # every image term lies in that layer (the screening keeps the weight)
    def primitive(row):
        den = math.lcm(*(F(x).denominator for x in row.values()))
        scaled = {j: int(F(x) * den) for j, x in row.items()}
        g = math.gcd(*scaled.values())
        return {j: x // g for j, x in scaled.items()}

    checked = 0
    for series, rank, ell in (("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4), ("G", 2, 6)):
        sl = ScreeningLattices(build_root_system(series, rank), ell)
        screens = short_screening_set(sl)
        for rep in sl.module_cosets().coset_reps:
            if any(sl.space.pair(a, rep).denominator != 1 for a in screens):
                continue
            coset = sl.long_lattice_coset(rep)
            _gs, h0 = groundstates(sl, coset)
            images: dict = {}
            for level in range(3):
                layer = layer_basis(sl, coset, h0 + level)
                for a in screens:
                    idx = layer_basis(sl, sl.long_lattice_coset(coset.rep + a), h0 + level).term_index()
                    expected: dict = {}
                    for j, v in enumerate(layer.basis):
                        img = residue_op(FieldElement.exponential(sl.space, a), v)
                        assert img.terms.keys() <= idx.keys()
                        for key, c in img.terms.items():
                            expected.setdefault(idx[key], {})[j] = c
                    rows = screening._screening_matrix(sl, a, layer, images)
                    assert [primitive(r) for r in rows] == [primitive(expected[i]) for i in sorted(expected)]
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "series, rank, ell, level", [("B", 2, 4, 4), ("B", 3, 4, 2), ("G", 2, 6, 4)], ids=["B2", "B3", "G2"]
)
def test_screening_matrix_rows_are_primitive(series, rank, ell, level):
    # the matrix rows keep their content, the gcd of their entries, and the
    # eliminator makes them primitive on entry: the raw rows and their
    # primitive parts have the same echelon form
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    if series == "B":
        cosets = [sl.named_cosets()[color] for color in ("blue", "green")]
    else:  # G2 has no four named modules; the vacuum coset has integer pairings
        cosets = [sl.long_lattice_coset(sl.space.zero())]
    rows = divided = 0
    for coset in cosets:
        _gs, h0 = groundstates(sl, coset)
        images: dict = {}
        for lvl in range(level + 1):
            layer = layer_basis(sl, coset, h0 + lvl)
            for a in short_screening_set(sl):
                assert sl.space.pair(a, coset.rep).denominator == 1
                raw = screening._screening_matrix(sl, a, layer, images)
                primitive = [{j: x // math.gcd(*row.values()) for j, x in row.items()} for row in raw]
                assert linalg.echelon(raw, layer.dim) == linalg.echelon(primitive, layer.dim)
                rows += len(raw)
                divided += sum(p != r for p, r in zip(primitive, raw))
    assert rows > divided > 0


def test_nichols_relations_a1():
    screens = short_screening_set(SL_A1)
    cosets = SL_A1.named_cosets()
    reports = nichols_check(SL_A1, screens, [cosets["blue"], cosets["green"]], max_level=4)
    assert all(r.ok for r in reports)


def test_long_root_screening_not_nilpotent():
    # the degenerate long-root screening Z_{a1 short momentum} coincides
    # with a long screening; its square does not vanish
    sl = SL_B2
    a = sl.basis_short[0]  # -a1/sqrt2, norm 2 (bosonic)
    assert sl.space.norm(a) == 2
    w = FieldElement.exponential(sl.space, -2 * a)
    once = apply_screening(a, w)
    twice = apply_screening(a, once)
    assert not once.is_zero() and not twice.is_zero()


def test_weyl_powers():
    screens_a = short_screening_set(SL_A1)
    for name, want in [("blue", 1), ("center", 0), ("green", 1), ("steinberg", 2)]:
        assert weyl_power_exponent(SL_A1, SL_A1.named_cosets()[name], screens_a[0]) == want
    screens_b = short_screening_set(SL_B2)
    for name, want in [("blue", 1), ("center", 0), ("green", 1), ("steinberg", 2)]:
        for a in screens_b:
            assert weyl_power_exponent(SL_B2, SL_B2.named_cosets()[name], a) == want


def test_weyl_power_refuses_a_momentum_of_another_rank():
    for coset in SL_B2.named_cosets().values():
        with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
            weyl_power_exponent(SL_B2, coset, Momentum((-1,)))


def test_weyl_power_representative_independence():
    rng = random.Random(20)
    screens = short_screening_set(SL_B2)
    for name, coset in SL_B2.named_cosets().items():
        ref = [weyl_power_exponent(SL_B2, coset, a) for a in screens]
        for _ in range(25):
            shift = SL_B2.space.zero()
            for b in SL_B2.basis_long:
                shift = shift + rng.randint(-2, 2) * b
            moved = Coset(SL_B2.space, coset.rep + shift, coset.basis)
            assert [weyl_power_exponent(SL_B2, moved, a) for a in screens] == ref


def test_long_screenings_kill_stress_tensor():
    for sl in (SL_A1, SL_B2):
        st = stress_tensor(sl)
        for a in sl.basis_long:
            assert apply_screening(a, st.element).is_zero()


# --- layer bases ------------------------------------------------------------


def test_layer_dimension_formula():
    # dim = sum over coset points mu with h - h(mu) in Z>=0 of the
    # rank-colored partition count
    for sl, name, h, want in [
        (SL_B2, "blue", 0, 2),
        (SL_B2, "blue", 1, 8),
        (SL_B2, "center", F(-1, 4), 1),
        (SL_B2, "center", F(3, 4), 6),
        (SL_B2, "steinberg", F(1, 4), 4),
        (SL_B2, "steinberg", F(5, 4), 8),
        (SL_A1, "blue", 3, 6),
    ]:
        coset = sl.named_cosets()[name]
        assert layer_basis(sl, coset, h).dim == want


def test_layer_basis_below_minimum_is_empty():
    blue = SL_B2.named_cosets()["blue"]
    assert layer_basis(SL_B2, blue, -1).dim == 0
    assert layer_basis(SL_B2, blue, F(1, 2)).dim == 0  # off the integer grid


@pytest.mark.parametrize(
    "series, rank, ell, vacuum_only",
    [("A", 1, 4, False), ("B", 2, 4, False), ("B", 3, 4, False), ("C", 2, 4, False),
     ("G", 2, 6, False), ("D", 4, 6, True)],
)
def test_module_layers_equal_layer_bases_from_the_groundstate(series, rank, ell, vacuum_only):
    # the walk's h0 layer is built from the groundstates, not enumerated
    # again; it must equal layer_basis at h0 (weights, bases and order),
    # and so must the layers above it.  D4 at ell = 6 has h0 = -9.
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    reps = [sl.space.zero()] if vacuum_only else sl.module_cosets().coset_reps
    for rep in reps:
        coset = sl.long_lattice_coset(rep)
        layers = module_layers(sl, coset, 2)
        _gs, h0 = groundstates(sl, coset)
        assert layers == [layer_basis(sl, coset, h0 + lvl) for lvl in range(3)]


# --- grading operators -------------------------------------------------------


def test_grading_ops():
    one = FieldElement.vacuum(SL_A1.space)
    k, h = grading_ops(SL_A1, 0, one)
    assert k == 0 and h == 0  # K = +1
    # A1, lam = a/sqrt2: K-phase exponent (2/l)(a, lam sqrt p) = 1, K = -1
    state = E(SL_A1, [1])
    k, h = grading_ops(SL_A1, 0, state)
    assert k == 1  # K = -1
    # H eigenvalue d*(a_i^v, lam/sqrt p) on the long basis is integral
    for i in range(2):
        for j, b in enumerate(SL_B2.basis_long):
            _, hval = grading_ops(SL_B2, i, FieldElement.exponential(SL_B2.space, b))
            assert hval.denominator == 1


def test_grading_ops_constancy_criterion():
    # K_i is constant on a module iff (e_i, long basis) is even; that holds
    # for every i in rank one, and fails for the short-root K in B2
    sl = SL_B2
    state0 = E(sl, [0, 0])
    shifted = E(sl, [1, 0])  # shift by the first long basis vector
    k0, _ = grading_ops(sl, 1, state0)
    k1, _ = grading_ops(sl, 1, shifted)
    assert k0 == 0 and k1 == 1  # K = +1, then -1: not constant
    ka0, _ = grading_ops(sl, 0, state0)
    ka1, _ = grading_ops(sl, 0, shifted)
    assert ka0 == ka1 == 0  # K = +1 on both: constant for K_1


def test_grading_ops_reject_mixed_momentum():
    mixed = E(SL_A1, [0]) + E(SL_A1, [2])
    with pytest.raises(ValueError):
        grading_ops(SL_A1, 0, mixed)


# --- the A1^n factorisation as a kernel oracle -----------------------------
# The kernel for B_n/sqrt2 is an extension of the one of rescaled A1^n.  Where
# the short screenings are orthonormal, one per ambient direction, Z_alpha_k
# acts on the k-th boson of an orthonormal Heisenberg basis alone.  So on the
# momentum block mu with degree gap D, with p_k = <alpha_k, mu> and ker1(p, d)
# the kernel dim of the norm-1 rank-1 screening on the degree-d states at
# pairing p:
#   ker Z_alpha_k = sum_d ker1(p_k, d) P_{n-1}(D - d),
#   intersection  = sum over d_1 + ... + d_n = D of prod_k ker1(p_k, d_k),
# with P_r(d) the number of r-coloured partitions of d.

# the largest level checked per rank, to keep each layer small
FACTOR_LEVELS = {1: 8, 2: 6, 3: 4, 4: 3}


@functools.cache
def orthonormal_theories():
    """(sl, cosets) for every theory of rank <= 4 and even ell <= 12 whose
    short screenings have the identity Gram matrix, one per ambient
    direction; cosets are its module cosets on which every short screening
    pairs integrally."""
    found = []
    for series, ranks in [("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (4,)), ("F", (4,)), ("G", (2,))]:
        for rank in ranks:
            for ell in range(2, 13, 2):
                try:
                    sl = ScreeningLattices(build_root_system(series, rank), ell)
                except ValueError:
                    continue
                screens = short_screening_set(sl)
                if [[sl.space.pair(a, b) for b in screens] for a in screens] != identity(rank):
                    continue
                cosets = [sl.long_lattice_coset(rep) for rep in sl.module_cosets().coset_reps]
                found.append((sl, [c for c in cosets if all(weyl_power_exponent(sl, c, a) == 1 for a in screens)]))
    return found


@functools.cache
def rank_one_kernel(p, d):
    """ker1(p, d) by an independent route: the generic engine (`residue_op`)
    applies e^alpha, alpha of norm 1 in the rank-1 space with Gram [[1]], to
    every degree-d state mono e^mu with <alpha, mu> = p, and the Bareiss
    echelon gives the rank of the images."""
    space = MomentumSpace([[1]], 2)
    alpha = FieldElement.exponential(space, space.momentum([1]))
    mu = space.momentum([p]).coords
    monos = _monomials_of_degree(1, d)
    rows: dict = {}
    for j, mono in enumerate(monos):
        for key, c in residue_op(alpha, FieldElement(space, {(mu, mono): 1})).terms.items():
            rows.setdefault(key, []).append((j, c))
    _red, pivots, _sign = bareiss_echelon([integer_row(row) for row in rows.values()], range(len(monos)))
    return len(monos) - len(pivots)


def coloured_partitions(r, d):
    """P_r(d), from the product over parts k of (1 - q^k)^-r."""
    counts = [1] + [0] * d
    for part in range(1, d + 1):
        for _ in range(r):
            for total in range(part, d + 1):
                counts[total] += counts[total - part]
    return counts[d]


def factorised_kernels(pairings, gap):
    """The ker_dims and intersection_dim that the factorisation predicts on
    one momentum block."""
    n = len(pairings)
    ker_dims = [
        sum(rank_one_kernel(p, d) * coloured_partitions(n - 1, gap - d) for d in range(gap + 1))
        for p in pairings
    ]
    conv = [1] + [0] * gap
    for p in pairings:
        conv = [sum(conv[e] * rank_one_kernel(p, t - e) for e in range(t + 1)) for t in range(gap + 1)]
    return ker_dims, conv[gap]


def test_orthonormal_screenings_are_found():
    """The property selects A1, B2-B4 and C2 at ell = 4, each with modules
    to check, so the factorisation test below is not vacuous."""
    labels = {(sl.rs.label, sl.ell) for sl, cosets in orthonormal_theories() if cosets}
    assert {("A1", 4), ("B2", 4), ("B3", 4), ("B4", 4), ("C2", 4)} <= labels


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernels_factor_over_rank_one_screenings(data):
    """kernel_layer's ker_dims and intersection_dim equal the A1^n
    predictions on every momentum block of a layer and on the whole layer."""
    sl, cosets = data.draw(st.sampled_from([t for t in orthonormal_theories() if t[1]]))
    coset = data.draw(st.sampled_from(cosets))
    level = data.draw(st.integers(0, FACTOR_LEVELS[sl.rs.rank]))
    screens = short_screening_set(sl)
    _gs, h0 = groundstates(sl, coset)
    layer = layer_basis(sl, coset, h0 + level)
    blocks: dict = {}
    for b in layer.basis:
        ((mu, mono),) = b.terms
        blocks.setdefault((mu, sum(order for order, _l in mono)), []).append(b)
    ker_total = [0] * len(screens)
    intersection_total = 0
    for (mu, gap), basis in blocks.items():
        pairings = [int(sl.space.pair_coords(a.coords, mu)) for a in screens]
        ker_dims, intersection = factorised_kernels(pairings, gap)
        block = kernel_layer(sl, GradedLayer(coset, layer.h, basis), screens)
        assert (block.ker_dims, block.intersection_dim) == (ker_dims, intersection), mu
        ker_total = [x + y for x, y in zip(ker_total, ker_dims)]
        intersection_total += intersection
    whole = kernel_layer(sl, layer, screens)
    assert (whole.ker_dims, whole.intersection_dim) == (ker_total, intersection_total)

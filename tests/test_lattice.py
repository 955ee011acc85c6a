import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import linalg
from latvoa.lattice import (
    Coset,
    Momentum,
    MomentumSpace,
    ScreeningLattices,
    groundstates,
    num_simples,
    points_within,
    quadratic_form_F,
)
from latvoa.rootdata import build_root_system

from conftest import mat_mul
from test_linalg import mat_vec

F = Fraction


def coords(momenta):
    return [tuple(m.coords) for m in momenta]


def test_a1_lattice_data(sl_a1):
    assert coords(sl_a1.basis_short) == [(-1,)]
    assert coords(sl_a1.basis_long) == [(2,)]
    assert coords(sl_a1.basis_dual) == [(F(1, 2),)]
    assert sl_a1.Q.coords == (F(1, 2),)
    assert sl_a1.space.norm(sl_a1.basis_short[0]) == 1
    assert sl_a1.space.norm(sl_a1.basis_long[0]) == 4
    assert sl_a1.central_charge == -2


def test_b2_lattice_data(sl_b2):
    assert coords(sl_b2.basis_short) == [(-1, 0), (0, -1)]
    assert coords(sl_b2.basis_long) == [(1, 0), (0, 2)]
    assert coords(sl_b2.basis_dual) == [(1, 1), (F(1, 2), 1)]
    assert sl_b2.Q.coords == (F(1, 2), 1)
    assert sl_b2.central_charge == -4
    # the second dual generator is Q itself
    assert sl_b2.basis_dual[1] == sl_b2.Q


def test_bn_lattice_data():
    for n in (2, 3, 4):
        sl = ScreeningLattices(build_root_system("B", n), 4)
        assert sl.central_charge == -2 * n
        assert sl.Q.coords == tuple(F(j, 2) for j in range(1, n + 1))
        long_want = [
            tuple((1 if i == j else 0) if j < n - 1 else (2 if i == j else 0) for i in range(n))
            for j in range(n)
        ]
        assert coords(sl.basis_long) == long_want
        for a in sl.basis_short + sl.basis_long:
            assert sl.conformal_dim(a) == 1


def test_q_vector_examples():
    assert ScreeningLattices(build_root_system("A", 1), 4).Q.coords == (F(1, 2),)
    assert ScreeningLattices(build_root_system("B", 2), 4).Q.coords == (F(1, 2), 1)
    assert ScreeningLattices(build_root_system("B", 3), 4).Q.coords == (F(1, 2), 1, F(3, 2))


def test_divisibility_rejected():
    with pytest.raises(ValueError, match=r"a_1"):
        ScreeningLattices(build_root_system("B", 2), 2)
    with pytest.raises(ValueError):
        ScreeningLattices(build_root_system("A", 1), 3)


# --- Gauss-Jordan coordinates ---------------------------------------------
# The rational solve that the lattice layer ran before it read coordinates
# off the diagonal long basis and the long Gram matrix; the coset and
# quotient tests hold the package to it.


def gj_solve(a, b):
    """A solution of a @ x = b with every free variable 0, or None if the
    system is inconsistent."""
    n = len(a)
    m = [row[:] + [Fraction(v)] for row, v in zip(a, b)]
    col = 0
    pivots = []
    for c in range(len(a[0])):
        piv = next((r for r in range(col, n) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][c]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        pivots.append(c)
        col += 1
    for r in range(col, n):
        if m[r][-1] != 0:
            return None
    x = [Fraction(0)] * len(a[0])
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def basis_coords(basis, v):
    """Coordinates of v in the basis momenta by Gauss-Jordan, or None when v
    is outside their span; a solution is checked by multiplying back."""
    a = [[F(x) for x in col] for col in zip(*(b.coords for b in basis))]
    x = gj_solve(a, list(v.coords))
    assert x is None or mat_vec(a, x) == list(v.coords)
    return x


def integer_combination(target, basis):
    x = basis_coords(basis, target)
    return x is not None and all(c.denominator == 1 for c in x)


def gj_canonical_rep(coset):
    """rep - sum floor(x_i) b_i for the basis coordinates x of rep."""
    x = basis_coords(coset.basis, coset.rep)
    return coset.rep - sum((math.floor(c) * b for c, b in zip(x, coset.basis)), coset.space.zero())


def test_lattice_containments():
    # long in short in dual, as integer spans
    for series, rank, ell in [("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 3, 4), ("F", 4, 4), ("G", 2, 6)]:
        sl = ScreeningLattices(build_root_system(series, rank), ell)
        for b in sl.basis_long:
            assert integer_combination(b, sl.basis_short)
        for b in sl.basis_short:
            assert integer_combination(b, sl.basis_dual)


def test_conformal_dim_identity(sl_b2):
    # h(lam) = |lam - Q|^2/2 - |Q|^2/2
    rng = random.Random(3)
    for _ in range(100):
        lam = sl_b2.space.momentum(
            [F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(2)]
        )
        lhs = sl_b2.conformal_dim(lam)
        diff = lam - sl_b2.Q
        rhs = sl_b2.space.norm(diff) / 2 - sl_b2.space.norm(sl_b2.Q) / 2
        assert lhs == rhs
    assert sl_b2.conformal_dim(sl_b2.Q) == F(-1, 4)
    assert sl_b2.conformal_dim(sl_b2.space.zero()) == 0


def test_num_simples():
    assert num_simples(build_root_system("A", 1), 4) == 4
    for p in (1, 2, 3, 5):
        assert num_simples(build_root_system("A", 1), 2 * p) == 2 * p
    assert num_simples(build_root_system("B", 2), 4) == 4
    assert num_simples(build_root_system("B", 3), 4) == 4
    assert num_simples(build_root_system("G", 2), 6) == 3
    assert num_simples(build_root_system("C", 3), 4) == 8
    assert num_simples(build_root_system("F", 4), 4) == 4


def test_quotient_group_matches_num_simples():
    for series, rank, ell in [("A", 1, 4), ("A", 1, 6), ("B", 2, 4), ("B", 3, 4), ("G", 2, 6)]:
        sl = ScreeningLattices(build_root_system(series, rank), ell)
        qg = sl.module_cosets()
        assert qg.order == num_simples(sl.rs, ell)
        assert len(qg.coset_reps) == qg.order
        # representatives are pairwise distinct as cosets
        seen = []
        for rep in qg.coset_reps:
            c = sl.long_lattice_coset(rep)
            assert not any(c == s for s in seen)
            seen.append(c)


def test_quotient_structure():
    # A1 and B3 are cyclic of order four; B2 and B4 are Klein four-groups
    # (2Q lies in the long lattice for even n, e.g. 2Q = a1+ + a2+ for B2)
    def factors(series, rank):
        sl = ScreeningLattices(build_root_system(series, rank), 4)
        return sl.module_cosets().invariant_factors

    assert factors("A", 1) == [4]
    assert factors("B", 3) == [4]
    assert factors("B", 2) == [2, 2]
    assert factors("B", 4) == [2, 2]


def test_b2_two_q_in_long_lattice(sl_b2):
    two_q = 2 * sl_b2.Q
    assert sl_b2.long_lattice_coset(sl_b2.space.zero()).contains(two_q)
    assert two_q == sl_b2.basis_long[0] + sl_b2.basis_long[1]


def test_a1_groundstates(sl_a1):
    expected = {
        "blue": (1, F(0), {(0,)}),
        "center": (1, F(-1, 8), {(F(1, 2),)}),
        "green": (1, F(0), {(1,)}),
        "steinberg": (2, F(3, 8), {(F(-1, 2),), (F(3, 2),)}),
    }
    for name, coset in sl_a1.named_cosets().items():
        gs, h = groundstates(sl_a1, coset)
        count, hw, reps = expected[name]
        assert len(gs) == count
        assert h == hw
        assert {g.coords for g in gs} == reps


def test_b2_groundstates(sl_b2):
    expected = {
        "blue": (2, F(0), {(0, 0), (1, 2)}),
        "center": (1, F(-1, 4), {(F(1, 2), 1)}),
        "green": (2, F(0), {(1, 1), (0, 1)}),
        "steinberg": (
            4,
            F(1, 4),
            {(F(3, 2), 2), (F(1, 2), 0), (F(-1, 2), 0), (F(1, 2), 2)},
        ),
    }
    for name, coset in sl_b2.named_cosets().items():
        gs, h = groundstates(sl_b2, coset)
        count, hw, reps = expected[name]
        assert (len(gs), h) == (count, hw)
        assert {g.coords for g in gs} == reps


def test_bn_groundstates_formula():
    # Blue/Green groundstates are Q + (1/2) sum e_k g_k over sign vectors
    # of fixed parity; the all-minus choice gives 0, so Blue carries parity
    # (-1)^n (the all-plus choice gives 2Q, which lands in Green for odd n).
    # Steinberg: Q +- g_k.  Counts 2^{n-1}, 2^{n-1}, 1, 2n.
    import itertools

    for n in (2, 3, 4):
        sl = ScreeningLattices(build_root_system("B", n), 4)
        gammas = [
            sl.space.momentum([1 if i >= k else 0 for i in range(n)]) for k in range(n)
        ]
        cosets = sl.named_cosets()
        for name, parity, count, hw in [
            ("blue", (-1) ** n, 2 ** (n - 1), F(0)),
            ("green", -((-1) ** n), 2 ** (n - 1), F(0)),
        ]:
            gs, h = groundstates(sl, cosets[name])
            assert len(gs) == count and h == hw
            want = set()
            for signs in itertools.product((1, -1), repeat=n):
                prod = 1
                for s in signs:
                    prod *= s
                if prod != parity:
                    continue
                v = sl.Q
                for s, g in zip(signs, gammas):
                    v = v + F(s, 2) * g
                want.add(v.coords)
            assert {g.coords for g in gs} == want
        gs, h = groundstates(sl, cosets["center"])
        assert len(gs) == 1 and h == F(-n, 8) and gs[0] == sl.Q
        gs, h = groundstates(sl, cosets["steinberg"])
        assert len(gs) == 2 * n and h == F(-n, 8) + F(1, 2)
        want = {(sl.Q + g).coords for g in gammas} | {(sl.Q - g).coords for g in gammas}
        assert {g.coords for g in gs} == want


def test_groundstates_representative_independence(sl_b2):
    rng = random.Random(4)
    base = sl_b2.named_cosets()["steinberg"]
    ref, href = groundstates(sl_b2, base)
    for _ in range(100):
        shift = sl_b2.space.zero()
        for b in sl_b2.basis_long:
            shift = shift + rng.randint(-3, 3) * b
        moved = Coset(sl_b2.space, base.rep + shift, base.basis)
        gs, h = groundstates(sl_b2, moved)
        assert h == href
        assert {g.coords for g in gs} == {g.coords for g in ref}


def test_quadratic_form():
    sl = ScreeningLattices(build_root_system("A", 1), 4)
    cosets = sl.named_cosets()
    assert quadratic_form_F(sl, cosets["blue"]) == 0
    assert quadratic_form_F(sl, cosets["center"]) == F(-1, 4)
    assert quadratic_form_F(sl, cosets["green"]) == 0
    assert quadratic_form_F(sl, cosets["steinberg"]) == F(3, 4)


def test_quadratic_form_b2(sl_b2):
    cosets = sl_b2.named_cosets()
    # F = e^{2 pi i h}: Steinberg h = 1/4 gives exponent 1/2, i.e. F = i
    assert quadratic_form_F(sl_b2, cosets["steinberg"]) == F(1, 2)
    assert quadratic_form_F(sl_b2, cosets["center"]) == F(-1, 2)


def test_quadratic_form_representative_independence(sl_b2):
    rng = random.Random(5)
    for name, coset in sl_b2.named_cosets().items():
        ref = quadratic_form_F(sl_b2, coset)
        for _ in range(25):
            shift = sl_b2.space.zero()
            for b in sl_b2.basis_long:
                shift = shift + rng.randint(-2, 2) * b
            moved = Coset(sl_b2.space, coset.rep + shift, coset.basis)
            assert quadratic_form_F(sl_b2, moved) == ref


def theory(series, rank, ell):
    """A theory's lattices and its module cosets: the named ones of a
    four-module theory, otherwise those of `module_cosets`, numbered in
    its order."""
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    reps = sl.module_cosets().coset_reps
    if len(reps) == 4:
        return sl, sl.named_cosets()
    return sl, {str(i): sl.long_lattice_coset(rep) for i, rep in enumerate(reps)}


THEORIES = {
    f"{series}{rank}": theory(series, rank, ell)
    for series, rank, ell in (("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4), ("G", 2, 6))
}


@st.composite
def shifted_module_cosets(draw):
    """A module coset and a long-lattice vector to shift its representative by."""
    sl, cosets = THEORIES[draw(st.sampled_from(sorted(THEORIES)))]
    name = draw(st.sampled_from(sorted(cosets)))
    shift = sl.space.zero()
    for b in sl.basis_long:
        shift = shift + draw(st.integers(-6, 6)) * b
    return cosets, name, shift


@settings(max_examples=200, deadline=None)
@given(shifted_module_cosets())
def test_coset_identity_under_lattice_shifts(case):
    cosets, name, shift = case
    coset = cosets[name]
    moved = Coset(coset.space, coset.rep + shift, coset.basis)
    assert moved == coset and coset == moved
    assert hash(moved) == hash(coset)
    assert moved.canonical_rep() == coset.canonical_rep()
    for other in cosets.values():
        assert (other == moved) == (other == coset)


@pytest.mark.parametrize("label", sorted(THEORIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coset_reduction_equals_gauss_jordan(label, data):
    """contains, canonical_rep, == and hash, which reduce coordinate by
    coordinate, agree with Gauss-Jordan coordinates in the long basis on
    every module coset and random momenta with denominators 1-3.  A
    momentum of the dual lattice lies in exactly one module coset."""
    sl = THEORIES[label][0]
    reps = sl.module_cosets().coset_reps
    rank = sl.space.rank
    v = data.draw(st.sampled_from(reps))
    for b in sl.basis_long:
        v = v + data.draw(st.integers(-3, 3)) * b
    if data.draw(st.booleans()):
        fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 3))
        v = v + sl.space.momentum(data.draw(st.lists(fractions, min_size=rank, max_size=rank)))
    moved = sl.long_lattice_coset(v)
    want = gj_canonical_rep(moved)
    assert moved.canonical_rep() == want
    assert list(map(type, moved.canonical_rep().coords)) == list(map(type, want.coords))
    assert hash(moved) == hash((sl.space, sl.basis_long, want.coords))
    hits = 0
    for rep in reps:
        coset = sl.long_lattice_coset(rep)
        inside = integer_combination(v - rep, sl.basis_long)
        assert coset.contains(v) == moved.contains(rep) == inside
        assert (coset == moved) == (moved == coset) == inside
        assert coset.canonical_rep() == gj_canonical_rep(coset)
        if inside:
            assert hash(coset) == hash(moved)
        hits += inside
    assert hits == integer_combination(v, sl.basis_dual)


def old_module_cosets(sl):
    """The module cosets as `quotient_group` found them before it read the
    long Gram matrix: the Gauss-Jordan coordinates of each long vector in
    the dual basis, then the Smith normal form of those columns."""
    rel = [[int(x) for x in basis_coords(sl.basis_dual, b)] for b in sl.basis_long]
    u, d_mat, _v = linalg.smith_normal_form([list(col) for col in zip(*rel)])
    diag = [d_mat[i][i] for i in range(len(d_mat))]
    dual = [[F(x) for x in col] for col in zip(*(w.coords for w in sl.basis_dual))]
    gen = mat_mul(dual, linalg.inverse(u))
    reps = [
        sl.space.momentum([sum(g * c for g, c in zip(row, combo)) for row in gen])
        for combo in itertools.product(*[range(f) for f in diag])
    ]
    return [f for f in diag if f > 1], reps


@pytest.mark.parametrize(
    "series, rank, ell",
    [
        ("A", 1, 4), ("A", 1, 6), ("A", 2, 4), ("A", 2, 6), ("A", 3, 4),
        ("A", 3, 6), ("B", 2, 4), ("B", 3, 4), ("B", 4, 4), ("C", 2, 4),
        ("C", 3, 4), ("D", 4, 4), ("F", 4, 4), ("G", 2, 6), ("G", 2, 12),
    ],
)
def test_module_cosets_equal_gauss_jordan_route(series, rank, ell):
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    qg = sl.module_cosets()
    factors, reps = old_module_cosets(sl)
    assert qg.invariant_factors == factors
    assert [r.coords for r in qg.coset_reps] == [r.coords for r in reps]
    assert [list(map(type, r.coords)) for r in qg.coset_reps] == [list(map(type, r.coords)) for r in reps]
    for rep in qg.coset_reps:
        coset = sl.long_lattice_coset(rep)
        assert coset.canonical_rep() == gj_canonical_rep(coset)


def test_coset_refuses_a_basis_off_the_diagonal(sl_b2):
    space, (b1, b2) = sl_b2.space, sl_b2.basis_long
    for basis in [(b1, b2 + b1), (b2, b1), (-1 * b1, b2), (0 * b1, b2), (b1,), (b1, b2, b2)]:
        with pytest.raises(ValueError, match="positive multiple of each ambient direction"):
            Coset(space, space.zero(), basis)
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        Coset(space, Momentum((0,)), (b1, b2))
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        Coset(space, space.zero(), (b1, b2)).contains(Momentum((0,)))
    assert Coset(space, sl_b2.Q, (b1, b2)) == sl_b2.named_cosets()["center"]


@pytest.mark.parametrize(
    "label",
    [
        "A1",
        "B2",
        "B3",
        pytest.param(
            "C2",
            marks=pytest.mark.xfail(
                strict=True,
                reason="named_cosets shifts by the last simple root, which is long "
                "for C_n and lies in the long lattice at ell = 4: green == blue "
                "and steinberg == center",
            ),
        ),
        "G2",
    ],
)
def test_module_cosets_pairwise_unequal(label):
    _sl, cosets = THEORIES[label]
    for a, b in itertools.combinations(cosets.values(), 2):
        assert a != b


@pytest.mark.parametrize(
    "series, rank, ell",
    [("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4), ("A", 2, 4), ("G", 2, 6), ("A", 1, 6)],
)
def test_named_cosets_refused_exactly_off_four_modules(series, rank, ell):
    # named_cosets reads the module count from num_simples; the quotient
    # order is the oracle of when it refuses and of the count it names
    sl = ScreeningLattices(build_root_system(series, rank), ell)
    order = sl.module_cosets().order
    if order == 4:
        assert sorted(sl.named_cosets()) == ["blue", "center", "green", "steinberg"]
    else:
        with pytest.raises(ValueError) as info:
            sl.named_cosets()
        assert str(info.value) == (
            f"named modules exist only for four-module data; this theory has {order}"
        )


def test_conformal_dim_integer_gap_on_lattice_shifts(sl_b2):
    # lam - mu in the short lattice with integer pairings gives an integer
    # conformal-dimension gap (layer alignment)
    rng = random.Random(6)
    count = 0
    while count < 100:
        mu = sl_b2.space.momentum([F(rng.randint(-4, 4), 2) for _ in range(2)])
        shift = sl_b2.space.zero()
        for b in sl_b2.basis_short:
            shift = shift + rng.randint(-3, 3) * b
        lam = mu + shift
        if sl_b2.space.pair(shift, mu).denominator != 1:
            continue
        gap = sl_b2.conformal_dim(lam) - sl_b2.conformal_dim(mu)
        assert gap.denominator == 1
        count += 1


# --- point enumeration --------------------------------------------------------


def box_search(
    space: MomentumSpace,
    rep,
    basis,
    center,
    max_norm2: Fraction,
):
    """Reference enumerator for `points_within`: a box search, slow but
    independent of its LDL^T pruning.

    Complete enumeration: integer coordinates are boxed by an exact lower
    bound on the smallest eigenvalue of the basis Gram matrix.
    """
    r = len(basis)
    gb = [[space.pair(basis[i], basis[j]) for j in range(r)] for i in range(r)]
    gb_inv = linalg.inverse(gb)
    # lambda_min(gb) >= 1 / max row sum of |gb_inv|
    lam_min = Fraction(1) / max(sum(abs(x) for x in row) for row in gb_inv)
    t = rep - center
    # real minimizer n0 of (t + B n)^T G (t + B n): gb n0 = -B^T G t
    rhs = [-space.pair(basis[i], t) for i in range(r)]
    n0 = mat_vec(gb_inv, rhs)
    f_min = space.norm(t) - sum(-rhs[i] * (-n0[i]) for i in range(r))
    # f(n) = f_min + (n - n0)^T gb (n - n0)
    slack = max_norm2 - f_min
    if slack < 0:
        return []
    radius2 = slack / lam_min
    rad = _isqrt_ceil(radius2)
    found = []
    ranges = [
        range(math.ceil(n0[i] - rad), math.floor(n0[i] + rad) + 1) for i in range(r)
    ]
    for combo in itertools.product(*ranges):
        v = rep
        for c, b in zip(combo, basis):
            if c:
                v = v + c * b
        if space.norm(v - center) <= max_norm2:
            found.append(v)
    return found


def _isqrt_ceil(x: Fraction) -> int:
    if x < 0:
        return 0
    n = math.isqrt(x.numerator // x.denominator)
    while Fraction(n * n) < x:
        n += 1
    return n


ENUMERATION_LATTICES = [
    ScreeningLattices(build_root_system(series, rank), ell)
    for series, rank, ells in [
        ("A", 1, (4, 6, 12)),
        ("B", 2, (4, 12)),
        ("B", 3, (4, 12)),
        ("C", 2, (4, 12)),
        ("G", 2, (6, 12)),
        ("B", 4, (4,)),
    ]
    for ell in ells
]


@st.composite
def enumeration_requests(draw):
    """A random coset of the long lattice, a rational centre and a bound
    small enough for the box search: up to 6 below rank 4, and up to 2,
    with shears of at most one basis vector, at rank 4."""
    sl = draw(st.sampled_from(ENUMERATION_LATTICES))
    space = sl.space
    rep = space.zero()
    for w in sl.basis_dual:
        rep = rep + draw(st.integers(-2, 2)) * w
    if draw(st.booleans()):
        rep = rep + sl.Q
    center = space.momentum(
        [
            Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 4, 6))))
            for _ in range(space.rank)
        ]
    )
    basis = list(sl.basis_long)
    shear, top = (1, 2) if space.rank >= 4 else (2, 6)
    if space.rank > 1:
        # an elementary shear keeps the lattice and skews its Gram matrix
        i, j = draw(st.permutations(range(space.rank)))[:2]
        basis[i] = basis[i] + draw(st.integers(-shear, shear)) * basis[j]
    den = draw(st.sampled_from((1, 2, 3, 4, 7)))
    bound = Fraction(draw(st.integers(-2, top * den)), den)
    return space, rep, tuple(basis), center, bound


def _sorted_coords(points):
    return sorted(v.coords for v in points)


def _checked_points(space, center, pairs):
    """The points of `points_within`'s (point, distance) pairs, once every
    reported distance equals the pairing's own (v - center, v - center)."""
    for v, d in pairs:
        assert isinstance(d, Fraction) and d == space.norm(v - center)
    return [v for v, _d in pairs]


@settings(max_examples=150, deadline=None)
@given(enumeration_requests())
def test_points_within_matches_box_search(request):
    # the box search runs over itertools.product, the lexicographic order
    # of n that points_within promises, so the lists agree as they come
    space, _rep, _basis, center, _bound = request
    got = points_within(*request)
    assert got == [(v, space.norm(v - center)) for v in box_search(*request)]
    assert all(type(d) is Fraction for _v, d in got)


def test_points_within_refuses_a_momentum_of_another_rank(sl_b2):
    space, coset = sl_b2.space, sl_b2.named_cosets()["blue"]
    short = Momentum((1,))
    requests = [
        (short, coset.basis, sl_b2.Q),
        (coset.rep, coset.basis, short),
        (coset.rep, (coset.basis[0], short), sl_b2.Q),
    ]
    for rep, basis, center in requests:
        with pytest.raises(ValueError, match="^expected 2 coordinates, got 1$"):
            points_within(space, rep, basis, center, 4)


def test_momentum_sum_refuses_another_rank():
    with pytest.raises(ValueError):
        Momentum((1, 2)) + Momentum((1,))
    with pytest.raises(ValueError):
        Momentum((1,)) - Momentum((1, 2))
    assert Momentum((1, 2)) + Momentum((F(1, 2), -2)) == Momentum((F(3, 2), 0))


@pytest.mark.parametrize("name", ["blue", "steinberg"])
def test_points_within_bound_edges(sl_b3, name):
    space, q = sl_b3.space, sl_b3.Q
    coset = sl_b3.named_cosets()[name]

    def within(center, bound):
        got = _checked_points(
            space, center, points_within(space, coset.rep, coset.basis, center, bound)
        )
        assert _sorted_coords(got) == _sorted_coords(
            box_search(space, coset.rep, coset.basis, center, bound)
        )
        return got

    pts = within(q, 4)
    norms = {space.norm(v - q) for v in pts}
    assert len(norms) >= 2
    for norm in norms:
        attained = [v for v in pts if space.norm(v - q) == norm]
        at = within(q, norm)
        below = within(q, norm - Fraction(1, 10**12))
        assert all(v in at for v in attained)
        assert not any(v in below for v in attained)
        assert len(at) - len(below) == len(attained)
    # below the minimum, and a negative bound
    assert within(q, min(norms) - Fraction(1, 10**12)) == []
    assert within(q, -1) == []
    # bound 0 around a lattice point is that point alone
    for v in pts:
        assert within(v, 0) == [v]


# --- construction-time invariants ---------------------------------------------


def _b2():
    return ScreeningLattices(build_root_system("B", 2), 4)


def _a2_at_level_2():
    # p = 1 on a simply-laced system: Q = rho - rho = 0, so h(v) = (v, v)/2
    sl = ScreeningLattices(build_root_system("A", 2), 2)
    assert sl.Q.is_zero()
    return sl


TAMPERED_BASES = [
    # a short momentum doubled: h = 2 (a, a) - 2 (a, Q) != 1
    (_b2, "basis_short", lambda sl: (2 * sl.basis_short[0], sl.basis_short[1]),
     "h(a_1 short momentum) != 1"),
    (_b2, "basis_long", lambda sl: (sl.basis_long[0], 2 * sl.basis_long[1]),
     "h(a_2 long momentum) != 1"),
    # the short momenta have h = 1, and (a_1, a_1)/p = 1 is odd
    (_b2, "basis_long", lambda sl: sl.basis_short, "long screening lattice is not even"),
    # (8/7, 3/7) has norm 2 and so h = 1, and pairs to 13/7 with a_1
    (_a2_at_level_2, "basis_long",
     lambda sl: (sl.basis_long[0], sl.space.momentum([F(8, 7), F(3, 7)])),
     "long screening lattice is not integral"),
    (_b2, "basis_dual", lambda sl: sl.basis_dual[::-1],
     "dual basis does not pair to identity with long basis"),
]


@pytest.mark.parametrize("build, name, tamper, message", TAMPERED_BASES)
def test_check_invariants_fires_on_each_tampered_basis(build, name, tamper, message):
    sl = build()
    sl._check_invariants()
    setattr(sl, name, tuple(tamper(sl)))
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        sl._check_invariants()


# --- pairing ------------------------------------------------------------------


def fraction_pair(space: MomentumSpace, u, v) -> Fraction:
    """Reference pairing: the double loop over the Fraction Gram matrix,
    independent of the integer numerators that `pair` uses."""
    total = Fraction(0)
    for i, ui in enumerate(u):
        if ui:
            row = space.gram[i]
            for j, vj in enumerate(v):
                if vj:
                    total += ui * row[j] * vj
    return total


PAIRING_LATTICES = [
    ScreeningLattices(build_root_system(series, rank), ell)
    for series, rank, ell in [("A", 1, 4), ("A", 1, 6), ("B", 2, 4), ("B", 3, 4), ("G", 2, 6)]
]


@st.composite
def coordinate_tuples(draw, rank: int):
    """Raw coordinates: ints, integral Fractions, and Fractions with
    denominators 2 and 3, mixed freely within one tuple."""
    out = []
    for _ in range(rank):
        num = draw(st.integers(-7, 7))
        form = draw(st.sampled_from(("int", "frac1", "frac2", "frac3")))
        if form == "int":
            out.append(num)
        else:
            out.append(Fraction(num, {"frac1": 1, "frac2": 2, "frac3": 3}[form]))
    return tuple(out)


@st.composite
def pairing_requests(draw):
    sl = draw(st.sampled_from(PAIRING_LATTICES))
    rank = sl.space.rank
    return sl.space, draw(coordinate_tuples(rank)), draw(coordinate_tuples(rank))


@settings(max_examples=300, deadline=None)
@given(pairing_requests())
def test_pair_equals_fraction_loop(request):
    space, u, v = request
    want = fraction_pair(space, u, v)
    for got in (
        space.pair_coords(u, v),
        space.pair(Momentum(u), Momentum(v)),
        space.pair(space.momentum(u), space.momentum(v)),
    ):
        assert got == want
        assert type(got) is Fraction
    assert space.norm(space.momentum(u)) == fraction_pair(space, u, u)


def test_space_hash_and_equality():
    rs = build_root_system("B", 2)
    a, b = ScreeningLattices(rs, 4).space, ScreeningLattices(rs, 4).space
    assert a is not b and a == b and hash(a) == hash(b) == hash((a.gram, a.p))
    assert a != ScreeningLattices(rs, 8).space
    assert all(type(x) is Fraction for row in a.gram for x in row)
    # a Gram matrix with a denominator, built twice
    g2 = build_root_system("G", 2)
    c, d = ScreeningLattices(g2, 6).space, ScreeningLattices(g2, 6).space
    assert c._den > 1 and c is not d and c == d and hash(c) == hash(d)
    assert c != a and a != c and a != "space"
    # the same Gram matrix under another p, and another Gram matrix under the same p
    assert MomentumSpace(a.gram, a.p + 1) != a
    assert MomentumSpace([[x * 2 for x in row] for row in a.gram], a.p) != a
    # equal integer numerators over another denominator
    halved = MomentumSpace([[x / 2 for x in row] for row in a.gram], a.p)
    assert halved._num == a._num and halved._den == 2 * a._den
    assert halved != a

"""The mode engine on integer Gram numerators against the plain Fraction
routines it replaced.

`fraction_pp_coeff`, `fraction_pe_coeff`, `fraction_ep_coeff` and
`fraction_fast_term_modes` are the earlier bodies of the generator
pairings and of the closed-form L_n action, written over the Fraction Gram
matrix with Fraction loop variables.  The engine must give exactly the
same values, and the same term keys.
"""

from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import linalg, virasoro
from latvoa.freefield import _ep_coeff, _pe_coeff, _pp_coeff
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system
from latvoa.virasoro import _creation_terms, _fast_term_modes


def fraction_pp_coeff(space, f_left, f_right) -> Fraction:
    (m, i), (k, j) = f_left, f_right
    c = space.gram[i][j]
    e = Fraction(-2)
    for _ in range(k - 1):  # right slot: -d/dz
        c *= -e
        e -= 1
    for _ in range(m - 1):  # left slot: +d/dz
        c *= e
        e -= 1
    return c


def fraction_pe_coeff(space, f_left, beta) -> Fraction:
    m, i = f_left
    c = sum(space.gram[i][j] * x for j, x in enumerate(beta))
    e = Fraction(-1)
    for _ in range(m - 1):
        c *= e
        e -= 1
    return c


def fraction_ep_coeff(space, alpha, f_right) -> Fraction:
    k, j = f_right
    c = -sum(space.gram[i][j] * x for i, x in enumerate(alpha))
    e = Fraction(-1)
    for _ in range(k - 1):
        c *= -e
        e -= 1
    return c


def _sorted_with(mono, factor):
    return tuple(sorted(mono + (factor,)))


def fraction_fast_term_modes(space, Q, key, ns: tuple) -> dict[int, dict]:
    """Closed-form L_n action on one basis term, every coefficient built
    from the Fraction Gram matrix and its inverse, term by term."""
    beta, mono = key
    rank = space.rank
    gram = space.gram
    gram_inv = linalg.inverse([list(r) for r in space.gram])
    gbeta = [sum(gram[i][j] * beta[j] for j in range(rank)) for i in range(rank)]
    q_pair = [sum(gram[i][j] * Q.coords[j] for j in range(rank)) for i in range(rank)]
    beta_sq = sum(beta[i] * gbeta[i] for i in range(rank))
    beta_q = sum(beta[i] * q_pair[i] for i in range(rank))
    out: dict[int, dict] = {n: {} for n in ns}

    def add(n, mono_new, coeff):
        if n not in out or not coeff:
            return
        bucket = out[n]
        k2 = (beta, mono_new)
        new = bucket.get(k2, 0) + coeff
        if new:
            bucket[k2] = new
        elif k2 in bucket:
            del bucket[k2]

    def removed(positions):
        rest = list(mono)
        for p in sorted(positions, reverse=True):
            del rest[p]
        return rest

    add(0, mono, beta_sq / 2 - beta_q)

    for t, (s_t, l_t) in enumerate(mono):
        rest_t = removed([t])
        add(
            s_t,
            tuple(rest_t),
            factorial(s_t) * gbeta[l_t] - factorial(s_t + 1) * q_pair[l_t],
        )
        for r in range(t + 1, len(mono)):
            s_r, l_r = mono[r]
            add(
                s_t + s_r,
                tuple(removed([t, r])),
                gram[l_t][l_r] * factorial(s_t) * factorial(s_r),
            )
        for n in ns:
            new_order = s_t - n
            if new_order >= 1:
                add(
                    n,
                    tuple(sorted(rest_t + [(new_order, l_t)])),
                    Fraction(factorial(s_t), factorial(new_order - 1)),
                )

    for n in ns:
        if n <= -1:
            coeff0 = Fraction(1, factorial(-1 - n))
            for i in range(rank):
                if beta[i]:
                    add(n, _sorted_with(mono, (-n, i)), beta[i] * coeff0)
        if n <= -2:
            k = -2 - n
            coeff0 = Fraction(1, factorial(k))
            for i, qi in enumerate(Q.coords):
                if qi:
                    add(n, _sorted_with(mono, (2 + k, i)), qi * coeff0)
            for r in range(k + 1):
                w = Fraction(1, 2 * factorial(r) * factorial(k - r))
                for i in range(rank):
                    for j in range(rank):
                        gij = gram_inv[i][j]
                        if gij:
                            add(
                                n,
                                tuple(sorted(mono + ((1 + r, i), (1 + k - r, j)))),
                                w * gij,
                            )
    return out


def _lattices(rows):
    return [ScreeningLattices(build_root_system(s, r), ell) for s, r, ell in rows]


# Gram matrices with integral entries (common denominator 1) and without
INTEGRAL = _lattices([("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4)])
FRACTIONAL = _lattices([("A", 1, 6), ("G", 2, 6), ("D", 4, 4)])
NS = tuple(range(-6, 7))


def test_lattice_denominators():
    assert [sl.space._den for sl in INTEGRAL] == [1, 1, 1, 1]
    assert [sl.space._den for sl in FRACTIONAL] == [3, 3, 2]


@st.composite
def momentum_coords(draw, sl):
    """Integral coordinates, a center or steinberg momentum (where the
    theory has the four named modules), or coordinates with denominators
    2 and 3."""
    space = sl.space
    kind = draw(st.sampled_from(("integral", "module", "rational")))
    shift = [draw(st.integers(-2, 2)) for _ in range(space.rank)]
    if kind == "module" and sl in INTEGRAL:
        coset = sl.named_cosets()[draw(st.sampled_from(("center", "steinberg")))]
        mom = coset.rep
        for n, b in zip(shift, coset.basis):
            mom = mom + n * b
        return mom.coords
    if kind == "rational":
        return space.momentum(
            [Fraction(x, draw(st.sampled_from((1, 2, 3)))) for x in shift]
        ).coords
    return space.momentum(shift).coords


@st.composite
def factors(draw, rank, max_order=4):
    return (draw(st.integers(1, max_order)), draw(st.integers(0, rank - 1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generator_pairings_equal_fraction_loops(data):
    sl = data.draw(st.sampled_from(INTEGRAL + FRACTIONAL))
    space = sl.space
    f, g = data.draw(factors(space.rank, 5)), data.draw(factors(space.rank, 5))
    alpha, beta = data.draw(momentum_coords(sl)), data.draw(momentum_coords(sl))
    for got, want in (
        (_pp_coeff(space, f, g), fraction_pp_coeff(space, f, g)),
        (_pe_coeff(space, f, beta), fraction_pe_coeff(space, f, beta)),
        (_ep_coeff(space, alpha, g), fraction_ep_coeff(space, alpha, g)),
    ):
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fast_term_modes_equal_fraction_loops(data):
    sl = data.draw(st.sampled_from(INTEGRAL + FRACTIONAL))
    space = sl.space
    beta = data.draw(momentum_coords(sl))
    mono = tuple(sorted(data.draw(st.lists(factors(space.rank), max_size=3))))
    key = (beta, mono)
    # compute afresh rather than read an entry another test left behind
    virasoro._FAST_CACHE.pop((space, sl.Q.coords, key, NS), None)
    got = _fast_term_modes(space, sl.Q, key, NS, _creation_terms(space, sl.Q, NS))
    want = fraction_fast_term_modes(space, sl.Q, key, NS)
    assert got == want
    for n in NS:
        for c in got[n].values():
            assert type(c) is (int if c.denominator == 1 else Fraction)

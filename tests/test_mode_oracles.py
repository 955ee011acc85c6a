"""The integer-numerator routines and the generic mode engine against the
plain Fraction routines they replaced.

`fraction_pp_coeff`, `fraction_pe_coeff`, `fraction_ep_coeff` and
`fraction_fast_term_modes` are the earlier bodies of the generator
pairings and of the closed-form L_n action, written over the Fraction Gram
matrix with Fraction loop variables.  `fraction_dk_term` and
`fraction_mode_terms` are the earlier vertex-operator engine, which divides
by k at every derivative step and sums Fractions in every bucket; the
engine keeps d^k without its 1/k! and divides each contribution once.
`reference_commutator_check` and `reference_nichols_check` are the earlier
checks, which apply one mode or one screening at a time; the screenings go
through `untranslated_screening`, one residue of the whole state, and never
through the relative-image table of `apply_screening`.  The engine must
give exactly the same values, the same term keys and the same reports.
"""

import math
from fractions import Fraction
from math import factorial

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import linalg, screening, virasoro
from latvoa.freefield import (
    FieldElement,
    _canonical_terms,
    _ep_coeff,
    _match_coefficient,
    _merge_mono,
    _mono_splits,
    _pe_coeff,
    _pp_coeff,
)
from latvoa.lattice import ScreeningLattices, canonical, canonical_scalar, groundstates
from latvoa.rootdata import build_root_system
from latvoa.screening import (
    RelationReport,
    apply_screening,
    layer_basis,
    module_layers,
    nichols_check,
    short_screening_set,
)
from latvoa.vertexop import _accumulate, _mode_terms, multi_mode_op, residue_op
from latvoa.virasoro import CommutatorReport, _TermRows, commutator_check, stress_tensor

from oracles import momenta


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


_FRACTION_DK: dict = {}


def fraction_dk_term(space, mom, mono, k: int):
    """Terms of d^k (mono e^{phi_mom}) / k!, each step divided by k."""
    key = (space, mom, mono, k)
    hit = _FRACTION_DK.get(key)
    if hit is not None:
        return hit
    if k == 0:
        result = {(mom, mono): 1}
    else:
        prev = fraction_dk_term(space, mom, mono, k - 1)
        elem = FieldElement(space, prev).derive()
        result = {kk: canonical_scalar(Fraction(c, k)) for kk, c in elem.terms.items()}
    _FRACTION_DK[key] = result
    return result


def fraction_mode_terms(a, b, want):
    """{exponent: term dict} of Y(a)b, every product and sum a Fraction."""
    space = a.space
    out: dict = {}
    for (alpha, mono_a), ca in a.terms.items():
        alpha_zero = not any(alpha)
        a_splits = _mono_splits(mono_a)
        for (beta, mono_b), cb in b.terms.items():
            beta_zero = not any(beta)
            pab = canonical_scalar(space.pair_coords(alpha, beta))
            scale0 = ca * cb
            for a_left, a_right, mult_a, deg_ar in a_splits:
                len_ar = len(a_right)
                for b_left, b_right, mult_b, deg_br in _mono_splits(mono_b):
                    if alpha_zero and len(b_right) > len_ar:
                        continue
                    if beta_zero and len_ar > len(b_right):
                        continue
                    e_pair = pab - deg_ar - deg_br
                    ks = want(e_pair)
                    if not ks:
                        continue
                    coeff = _match_coefficient(space, list(a_right), list(b_right), alpha, beta)
                    if not coeff:
                        continue
                    scale = scale0 * mult_a * mult_b * coeff
                    for k in ks:
                        exponent = e_pair + k
                        bucket = out.setdefault(exponent, {})
                        for (dm, dmono), dc in fraction_dk_term(space, alpha, a_left, k).items():
                            term_key = (
                                canonical(x + y for x, y in zip(beta, dm)),
                                _merge_mono(b_left, dmono),
                            )
                            _accumulate(bucket, term_key, scale * dc)
    return {e: _canonical_terms(terms) for e, terms in out.items()}


@functools.cache
def _cached_fraction_modes(space, Q, key, ns):
    return fraction_fast_term_modes(space, Q, key, ns)


def reference_commutator_check(st_, states, max_mode: int = 3) -> CommutatorReport:
    """[L_m, L_n] checked one mode application at a time."""
    space, Q = st_.element.space, st_.Q
    all_ns = tuple(range(-2 * max_mode, 2 * max_mode + 1))

    def apply_mode(n: int, elem: FieldElement) -> FieldElement:
        acc: dict = {}
        for key, c in elem.terms.items():
            for k2, c2 in _cached_fraction_modes(space, Q, key, all_ns)[n].items():
                _accumulate(acc, k2, c * c2)
        return FieldElement(space, _canonical_terms(acc))

    pairs = [
        (m, n)
        for m in range(-max_mode, max_mode + 1)
        for n in range(-max_mode, max_mode + 1)
        if m < n
    ]
    checked_states = 0
    for v in states:
        checked_states += 1
        images = {n: apply_mode(n, v) for n in range(-max_mode, max_mode + 1)}
        for m, n in pairs:
            lhs = apply_mode(m, images[n]) - apply_mode(n, images[m])
            rhs = (m - n) * apply_mode(m + n, v)
            if m + n == 0:
                rhs = rhs + (st_.c * Fraction(m**3 - m, 12)) * v
            if lhs != rhs:
                return CommutatorReport(
                    ok=False,
                    pairs_checked=len(pairs),
                    states_checked=checked_states,
                    counterexample=(m, n, v),
                )
    return CommutatorReport(ok=True, pairs_checked=len(pairs), states_checked=checked_states)


def untranslated_screening(a, v):
    """Z_a v as the residue of Y(e^a) on the whole state v, with no table
    of relative images."""
    return residue_op(FieldElement.exponential(v.space, a), v)


def reference_nichols_check(sl, screenings, cosets, max_level: int) -> list[RelationReport]:
    """The Nichols relations checked relation by relation, each screening
    image computed afresh by `untranslated_screening`."""
    Z = untranslated_screening
    reports = []
    states = []
    for coset in cosets:
        _gs, h0 = groundstates(sl, coset)
        for lvl in range(max_level + 1):
            states.extend((layer_basis(sl, coset, h0 + lvl).basis))
    for i, a in enumerate(screenings):
        ok = True
        bad = None
        for v in states:
            img = Z(a, Z(a, v))
            if not img.is_zero():
                ok, bad = False, v
                break
        reports.append(RelationReport(f"Z{i + 1}^2 = 0", ok, bad))
    for i in range(len(screenings)):
        for j in range(i + 1, len(screenings)):
            ok = True
            bad = None
            for v in states:
                lhs = Z(screenings[i], Z(screenings[j], v))
                rhs = Z(screenings[j], Z(screenings[i], v))
                if lhs != rhs:
                    ok, bad = False, v
                    break
            reports.append(RelationReport(f"[Z{i + 1}, Z{j + 1}] = 0", ok, bad))
    return reports


def _lattices(rows):
    return [ScreeningLattices(build_root_system(s, r), ell) for s, r, ell in rows]


# Gram matrices with integral entries (common denominator 1) and without
INTEGRAL = _lattices([("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4)])
FRACTIONAL = _lattices([("A", 1, 6), ("G", 2, 6), ("D", 4, 4)])
NS = tuple(range(-6, 7))


def test_lattice_denominators():
    assert [sl.space._den for sl in INTEGRAL] == [1, 1, 1, 1]
    assert [sl.space._den for sl in FRACTIONAL] == [3, 3, 2]
    assert [sl.space._den for sl in CLOSED] == [1, 1, 2, 3, 3]


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
    rows = _TermRows(space, sl.Q)
    # compute afresh rather than read a momentum-free part another test left behind
    virasoro._FAST_CACHE.pop((space, rows.qden, rows.qnum, mono), None)
    got = rows.rows(key, NS)
    want = fraction_fast_term_modes(space, sl.Q, key, NS)
    # each bucket holds int numerators over one int denominator
    for n in NS:
        den, nums = got[n]
        assert type(den) is int and den > 0
        assert all(type(x) is int for x in nums.values())
    assert {
        n: {(beta, m): Fraction(x, den) for m, x in nums.items()} for n, (den, nums) in got.items()
    } == want


# A1, B2 and B3 at ell = 4 (with center and steinberg momenta) and G2 at ell = 6
ROW_LATTICES = INTEGRAL[:3] + FRACTIONAL[1:2]
ROW_NS = tuple(range(-5, 6))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_term_rows_equal_fraction_loops_and_generic_route(data):
    # terms that share a monomial share its momentum-free part; each row
    # is built in two steps, the second gaining the missing n
    sl = data.draw(st.sampled_from(ROW_LATTICES), label="lattice")
    space = sl.space
    mono = tuple(sorted(data.draw(st.lists(factors(space.rank, 3), max_size=3), label="mono")))
    betas = data.draw(st.lists(momentum_coords(sl), min_size=1, max_size=3, unique=True), label="betas")
    first = tuple(data.draw(st.lists(st.sampled_from(ROW_NS), unique=True), label="first ns"))
    rows = _TermRows(space, sl.Q)
    if data.draw(st.booleans(), label="fresh momentum-free part"):
        virasoro._FAST_CACHE.pop((space, rows.qden, rows.qnum, mono), None)
    got = {}
    for beta in betas:
        rows.rows((beta, mono), first)
    for beta in betas:
        got[beta] = rows.rows((beta, mono), ROW_NS)
        assert rows.table[(beta, mono)] is got[beta]
    T = _stress(sl).element
    for beta, row in got.items():
        key = (beta, mono)
        oracle = fraction_fast_term_modes(space, sl.Q, key, ROW_NS)
        generic = multi_mode_op(T, [-2 - n for n in ROW_NS], FieldElement(space, {key: 1}))
        for n in ROW_NS:
            den, nums = row[n]
            assert type(den) is int and den > 0
            assert all(type(x) is int and x for x in nums.values())
            values = {(beta, m): Fraction(x, den) for m, x in nums.items()}
            assert values == oracle[n]
            assert values == generic[-2 - n].terms


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_commutator_check_equal_with_fresh_tables(data):
    # the term rows live for one call and the momentum-free parts are
    # keyed by Q: a second call, a call after another Q, and a call after
    # the parts are cleared all give the first call's report
    sl = data.draw(st.sampled_from(INTEGRAL + FRACTIONAL))
    st_ = _stress(sl)
    other = virasoro.StressTensor(st_.element, st_.Q + sl.space.basis_vector(0), st_.c)
    if data.draw(st.booleans()):
        st_, other = other, st_
    if data.draw(st.booleans()):
        st_ = virasoro.StressTensor(st_.element, st_.Q, st_.c + 1)
    states = data.draw(st.lists(elements(sl, max_terms=2), min_size=1, max_size=3))
    max_mode = data.draw(st.integers(1, 2))
    first = commutator_check(st_, states, max_mode)
    assert commutator_check(st_, states, max_mode) == first
    commutator_check(other, states, max_mode)
    assert commutator_check(st_, states, max_mode) == first
    virasoro._FAST_CACHE.clear()
    assert commutator_check(st_, states, max_mode) == first
    assert first == reference_commutator_check(st_, states, max_mode)


@st.composite
def elements(draw, sl, max_terms=3):
    """A small element: integral, module or rational momenta, monomials of
    degree up to 6, and int or Fraction coefficients."""
    space = sl.space
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = tuple(sorted(draw(st.lists(factors(space.rank, 3), max_size=2))))
        num = draw(st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)))
        terms[(draw(momentum_coords(sl)), mono)] = canonical_scalar(
            Fraction(num, draw(st.sampled_from((1, 2, 3))))
        )
    return FieldElement(space, terms)


@functools.cache
def _stress(sl):
    return stress_tensor(sl)


def _want_modes(targets, max_k=5):
    """The derivative indices up to max_k that land on the given exponents."""

    def want(e_pair):
        ks = []
        for m in targets:
            k = m - e_pair
            if 0 <= k <= max_k and k.denominator == 1:
                ks.append(k.numerator)
        return tuple(ks)

    return want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mode_terms_equal_fraction_engine(data):
    sl = data.draw(st.sampled_from(INTEGRAL + FRACTIONAL))
    space = sl.space
    b = data.draw(elements(sl))
    kind = data.draw(st.sampled_from(("stress", "exponential", "element", "residue")))
    if kind == "stress":
        a = _stress(sl).element
    elif kind == "exponential":
        a = FieldElement(space, {(data.draw(momentum_coords(sl)), ()): 1})
    else:
        a = data.draw(elements(sl, max_terms=1 if kind == "residue" else 2))
        if kind == "residue":
            # a z^{-1} coefficient with Fraction coefficients, built by the oracle
            res = fraction_mode_terms(_stress(sl).element, a, _want_modes((-1,))).get(-1)
            a = FieldElement(space, res) if res else a
    if data.draw(st.booleans()):
        want = _want_modes(
            sorted(
                {
                    canonical_scalar(Fraction(n, d))
                    for n, d in data.draw(
                        st.lists(
                            st.tuples(st.integers(-8, 3), st.sampled_from((1, 2, 3))),
                            min_size=1,
                            max_size=3,
                        )
                    )
                }
            )
        )
    else:
        depth = data.draw(st.integers(1, 5))

        def want(e_pair):
            return tuple(range(depth))

    got = _mode_terms(a, b, want)
    ref = fraction_mode_terms(a, b, want)
    assert list(got) == list(ref)  # exponents in first-seen order
    assert got == ref
    for exponent, terms in got.items():
        assert type(exponent) is (int if exponent.denominator == 1 else Fraction)
        for c in terms.values():
            assert type(c) is (int if c.denominator == 1 else Fraction)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutator_check_reports_equal_reference(data):
    sl = data.draw(st.sampled_from(INTEGRAL + FRACTIONAL))
    st_ = _stress(sl)
    variant = data.draw(st.sampled_from(("exact", "central charge + 1", "shifted Q")))
    if variant == "central charge + 1":
        st_ = virasoro.StressTensor(st_.element, st_.Q, st_.c + 1)
    elif variant == "shifted Q":
        st_ = virasoro.StressTensor(st_.element, st_.Q + sl.space.basis_vector(0), st_.c)
    states = data.draw(st.lists(elements(sl, max_terms=2), min_size=1, max_size=3))
    max_mode = data.draw(st.integers(1, 2))
    got = commutator_check(st_, states, max_mode)
    assert got == reference_commutator_check(st_, states, max_mode)
    if variant == "exact":
        assert got.ok


def test_commutator_check_counterexample_equals_reference():
    sl = INTEGRAL[1]
    st_ = _stress(sl)
    bad = virasoro.StressTensor(st_.element, st_.Q, st_.c + 1)
    blue = sl.named_cosets()["blue"]
    states = [v for h in range(3) for v in layer_basis(sl, blue, h).basis]
    got = commutator_check(bad, states, max_mode=3)
    assert not got.ok and got.counterexample is not None
    assert got == reference_commutator_check(bad, states, max_mode=3)


def _doubled(sl) -> tuple:
    """The simple short screening momenta times 2, whose Nichols relations
    fail on some states and not on others."""
    return tuple(sl.space.momentum([2 * c for c in m.coords]) for m in sl.basis_short)


def _nichols_cases():
    cases = []
    for sl in INTEGRAL:
        cosets = sl.named_cosets()
        pair = [cosets["blue"], cosets["green"]]
        mixed = (sl.basis_long[0],) + tuple(sl.basis_short[1:])
        for label, screenings in (
            ("short", short_screening_set(sl)),
            ("simple", sl.basis_short),
            ("long first", mixed),
            ("doubled", _doubled(sl)),
        ):
            cases.append(pytest.param(sl, screenings, pair, id=f"{sl.rs.label}-{label}"))
    return cases


@pytest.mark.parametrize("sl, screenings, cosets", _nichols_cases())
def test_nichols_check_reports_equal_reference(sl, screenings, cosets):
    level = 2 if sl.rs.rank < 3 else 1
    got = nichols_check(sl, screenings, cosets, level)
    assert got == reference_nichols_check(sl, screenings, cosets, level)


@pytest.mark.parametrize(
    "label, places",
    [
        # Z_1^2 fails on states 4 and 7 of the second blue layer
        ("simple", [[("blue", 1, 4)], [], [("blue", 0, 1)]]),
        # Z_1^2 first fails deep in the third green layer
        ("doubled", [[("green", 2, 17)], [("blue", 1, 3)], [("blue", 0, 1)]]),
    ],
)
def test_nichols_first_failures_sit_inside_later_layers(label, places):
    # two B2 cases above whose first failures sit past the first state of
    # a later layer or coset, so that the reference holds the order in
    # which states are searched within and across layers
    sl = INTEGRAL[1]
    cosets = sl.named_cosets()
    pair = [cosets["blue"], cosets["green"]]
    layers = [
        (name, k, layer.basis)
        for name in ("blue", "green")
        for k, layer in enumerate(module_layers(sl, cosets[name], 2))
    ]
    screenings = {"simple": sl.basis_short, "doubled": _doubled(sl)}[label]
    got = nichols_check(sl, screenings, pair, 2)
    assert [
        [(name, k, basis.index(r.counterexample)) for name, k, basis in layers if r.counterexample in basis]
        for r in got
    ] == places


@pytest.mark.parametrize("sl", INTEGRAL[:2], ids=lambda sl: sl.rs.label)
def test_checks_divide_no_coefficient(monkeypatch, sl):
    # a passing commutator or Nichols check decides on integer numerators:
    # neither wrapper's division is reached
    def refuse(num, den):
        raise AssertionError(f"divided {num} by {den}")

    monkeypatch.setattr(virasoro, "canonical_quotient", refuse)
    monkeypatch.setattr(screening, "canonical_quotient", refuse)
    cosets = sl.named_cosets()
    pair = [cosets["blue"], cosets["green"]]
    states = []
    for coset in pair:
        _gs, h0 = groundstates(sl, coset)
        states.extend(v for lvl in range(3) for v in layer_basis(sl, coset, h0 + lvl).basis)
    st_ = _stress(sl)
    got = commutator_check(st_, states, max_mode=2)
    assert got.ok and got.states_checked == len(states)
    assert got == reference_commutator_check(st_, states, max_mode=2)
    screenings = short_screening_set(sl)
    reports = nichols_check(sl, screenings, pair, 2)
    assert all(r.ok for r in reports)
    assert reports == reference_nichols_check(sl, screenings, pair, 2)


# --- translation-covariant screening images -----------------------------------

COVARIANT = _lattices([("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4), ("G", 2, 6)])


@functools.cache
def _screened_layer_terms(sl) -> tuple:
    """(short screenings, term keys) of the first three layers of every
    module on which all short screenings pair integrally."""
    space = sl.space
    screenings = short_screening_set(sl)
    keys = []
    for rep in sl.module_cosets().coset_reps:
        coset = sl.long_lattice_coset(rep)
        if any(
            space.pair(a, v).denominator != 1 for a in screenings for v in (coset.rep, *coset.basis)
        ):
            continue
        _gs, h0 = groundstates(sl, coset)
        for lvl in range(3):
            keys.extend(key for v in layer_basis(sl, coset, h0 + lvl).basis for key in v.terms)
    return screenings, keys


@st.composite
def layer_states(draw, sl, keys, max_terms=4):
    """A combination of layer terms with int or Fraction coefficients."""
    terms = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=max_terms)):
        num = draw(st.sampled_from((-3, -1, 1, 2)))
        terms[key] = canonical_scalar(Fraction(num, draw(st.sampled_from((1, 2, 3)))))
    return FieldElement(sl.space, terms)


def _integral(sl, a, elem) -> bool:
    """Whether the screening a pairs integrally with every momentum of elem."""
    return all(sl.space.pair_coords(a.coords, mom).denominator == 1 for mom in momenta(elem))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_screening_equals_untranslated_route(data):
    sl = data.draw(st.sampled_from(COVARIANT), label="lattice")
    screenings, keys = _screened_layer_terms(sl)
    table: dict = {}
    # term by term, then on combinations and on their images, one table throughout
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6)):
        a = data.draw(st.sampled_from(screenings))
        v = FieldElement(sl.space, {key: 1})
        assert apply_screening(a, v, table) == untranslated_screening(a, v)
    state = data.draw(layer_states(sl, keys))
    a, b = data.draw(st.sampled_from(screenings)), data.draw(st.sampled_from(screenings))
    image = apply_screening(a, state, table)
    assert image == untranslated_screening(a, state)
    if _integral(sl, b, image):
        assert apply_screening(b, image, table) == untranslated_screening(b, image)
    else:  # the image sits on a module that b pairs with fractionally
        with pytest.raises(ValueError, match="fractional"):
            apply_screening(b, image, table)
        with pytest.raises(ValueError, match="fractional"):
            untranslated_screening(b, image)
    for coeff in image.terms.values():
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_screening_filled_table_equals_fresh(data):
    sl = data.draw(st.sampled_from(COVARIANT), label="lattice")
    screenings, keys = _screened_layer_terms(sl)
    table: dict = {}
    for _ in range(data.draw(st.integers(1, 4))):
        earlier = data.draw(layer_states(sl, keys))
        first = apply_screening(data.draw(st.sampled_from(screenings)), earlier, table)
        second = data.draw(st.sampled_from(screenings))
        if _integral(sl, second, first):
            apply_screening(second, first, table)
    state = data.draw(layer_states(sl, keys))
    a = data.draw(st.sampled_from(screenings))
    assert apply_screening(a, state, table) == apply_screening(a, state)


# --- relative images filled from one engine pass per monomial -----------------

# (lattice, modules on which every short screening pairs integrally)
FILLED = [
    (sl, [sl.named_cosets()[color] for color in ("blue", "green")])
    for sl in _lattices([("B", 2, 4), ("B", 3, 4)])
] + [
    (sl, [sl.long_lattice_coset(sl.space.zero())])  # G2 vacuum; A1 at p = 3 has den 3
    for sl in _lattices([("G", 2, 6), ("A", 1, 6)])
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_filled_images_equal_residue_of_each_key(data):
    sl, cosets = data.draw(st.sampled_from(FILLED), label="lattice")
    space = sl.space
    coset = data.draw(st.sampled_from(cosets))
    a = data.draw(st.sampled_from(short_screening_set(sl)))
    shifts = st.lists(st.integers(-2, 2), min_size=len(coset.basis), max_size=len(coset.basis))
    keys = []
    # each monomial at several momenta, so that one pass serves several pairings
    for _ in range(data.draw(st.integers(1, 3))):
        degree = data.draw(st.integers(0, 4))
        mono = data.draw(st.sampled_from(screening._monomials_of_degree(space.rank, degree)))
        for _ in range(data.draw(st.integers(1, 4))):
            mu = coset.rep
            for c, b in zip(data.draw(shifts), coset.basis):
                mu = mu + c * b
            pairing = space.pair(a, mu)
            assert pairing.denominator == 1
            keys.append((mu.coords, mono, pairing.numerator))
    images: dict = {}
    got_images = screening._relative_images(space, a, keys, images)
    assert images.keys() == {(a.coords, mono, p) for _mu, mono, p in keys}
    assert got_images == [images[(a.coords, mono, p)] for _mu, mono, p in keys]
    for (mu, mono, p), (den, nums) in zip(keys, got_images):
        assert den > 0 and all(nums) and math.gcd(den, *(n for _m, n in nums)) == 1
        mom = canonical(x + y for x, y in zip(a.coords, mu))
        got = {(mom, m): Fraction(n, den) for m, n in nums}
        want = residue_op(FieldElement.exponential(space, a), FieldElement(space, {(mu, mono): 1}))
        assert got == {key: Fraction(c) for key, c in want.terms.items()}
    # a second call finds every key in the table and builds no image
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "_closed_images", lambda *args: builds.append(args))
        assert screening._relative_images(space, a, keys, images) == got_images
    assert not builds


# --- the closed-form images against the generic engine ------------------------

# Gram denominators 1, 1, 2, 3 and 3 (`test_lattice_denominators`)
CLOSED = _lattices([("A", 1, 4), ("B", 2, 4), ("A", 2, 4), ("G", 2, 6), ("A", 1, 6)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closed_images_equal_engine(data):
    # Y(e^alpha, z) mono e^mu0 is z^p0 times a series in z that reads mu0
    # only through p0 = <alpha, mu0>, so the image at pairing p is its
    # z^(p0 - 1 - p) coefficient, for any alpha and mu0, rational or not
    sl = data.draw(st.sampled_from(CLOSED), label="lattice")
    space = sl.space
    if data.draw(st.booleans()):
        alpha = data.draw(st.sampled_from(short_screening_set(sl)))
    else:
        alpha = space.momentum(data.draw(momentum_coords(sl)))
    mu0 = data.draw(momentum_coords(sl))
    p0 = space.pair_coords(alpha.coords, mu0)
    degree = data.draw(st.integers(0, 5))
    mono = data.draw(st.sampled_from(screening._monomials_of_degree(space.rank, degree)))
    pairings = set(data.draw(st.lists(st.integers(-3, degree + 1), min_size=1, max_size=4)))
    built = screening._closed_images(space, alpha.coords, {mono: pairings})
    assert built.keys() == {(alpha.coords, mono, p) for p in pairings}
    screen = FieldElement.exponential(space, alpha)
    state = FieldElement(space, {(mu0, mono): 1})
    want = multi_mode_op(screen, [p0 - 1 - p for p in pairings], state)
    mom = canonical(x + y for x, y in zip(alpha.coords, mu0))
    for p in pairings:
        den, nums = built[(alpha.coords, mono, p)]
        assert den > 0 and all(n for _m, n in nums) and math.gcd(den, *(n for _m, n in nums)) == 1
        got = {(mom, m): Fraction(n, den) for m, n in nums}
        coefficient = want[canonical_scalar(p0 - 1 - p)]
        assert got == {key: Fraction(c) for key, c in coefficient.terms.items()}
        if p == p0:
            assert coefficient == residue_op(screen, state)


# (lattice, alpha with a non-integral coordinate): every pairing of alpha
# with an integral momentum mu has denominator 1 or 2, so mu or 2 mu pairs
# integrally
HALF_ALPHAS = [
    (CLOSED[0], (Fraction(1, 2),)),  # A1 at ell = 4: a1/2 on even momenta
    (CLOSED[0], (Fraction(-3, 2),)),
    (CLOSED[1], (Fraction(1, 2), 0)),  # B2: <alpha, mu> = mu1 - mu2/2
    (CLOSED[2], (Fraction(1, 3), Fraction(2, 3))),  # A2 at ell = 4: <alpha, mu> = mu2/2
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_apply_screening_with_fractional_alpha_equals_residue(data):
    sl, coords = data.draw(st.sampled_from(HALF_ALPHAS), label="alpha")
    space = sl.space
    alpha = space.momentum(coords)
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        mu = space.momentum([data.draw(st.integers(-2, 2)) for _ in range(space.rank)])
        if space.pair(alpha, mu).denominator != 1:
            mu = mu + mu
        degree = data.draw(st.integers(0, 4))
        mono = data.draw(st.sampled_from(screening._monomials_of_degree(space.rank, degree)))
        num = data.draw(st.sampled_from((-3, -1, 1, 2)))
        terms[(mu.coords, mono)] = canonical_scalar(Fraction(num, data.draw(st.sampled_from((1, 2, 3)))))
    state = FieldElement(space, terms)
    screen = FieldElement.exponential(space, alpha)
    table: dict = {}
    image = apply_screening(alpha, state, table)
    assert image == residue_op(screen, state)
    assert apply_screening(alpha, state, table) == image  # from the filled table
    for coeff in image.terms.values():
        assert type(coeff) is (int if coeff.denominator == 1 else Fraction)

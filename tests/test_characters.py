import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import characters, cli
from latvoa.characters import (
    QSeries,
    _rational_gcd,
    eta_inverse_power,
    euler_product,
    graded_dim_module,
    kernel_char_match,
    sf_characters,
    theta_coset,
)
from latvoa.lattice import Coset, ScreeningLattices, groundstates, points_within
from latvoa.rootdata import build_root_system
from latvoa.screening import layer_basis

F = Fraction

SL_A1 = ScreeningLattices(build_root_system("A", 1), 4)
SL_B2 = ScreeningLattices(build_root_system("B", 2), 4)


# --- oracles ------------------------------------------------------------


def pentagonal_partitions(order):
    p = [F(1)] + [F(0)] * order
    for n in range(1, order + 1):
        total = F(0)
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_eta_inverse_rank1_oracle():
    eta = eta_inverse_power(1, 24)
    assert eta.offset == F(-1, 24)
    assert list(eta.coeffs) == pentagonal_partitions(24)
    assert [int(c) for c in eta.coeffs[:8]] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_eta_inverse_rank0():
    eta = eta_inverse_power(0, 5)
    assert eta.offset == 0 and list(eta.coeffs) == [1, 0, 0, 0, 0, 0]


def test_eta_inverse_rank2_is_convolution_square():
    one = eta_inverse_power(1, 15)
    two = eta_inverse_power(2, 15)
    conv = [
        sum(one.coeffs[i] * one.coeffs[n - i] for i in range(n + 1)) for n in range(16)
    ]
    assert list(two.coeffs) == conv


def test_theta_2z_lattice():
    # the 2Z lattice in unit-norm coordinates, shift 0: 1 + 2t^2 + 2t^8
    th = theta_coset(SL_A1, SL_A1.named_cosets()["blue"], SL_A1.space.zero(), 12)
    assert th.offset == 0
    expected = {F(0): 1, F(2): 2, F(8): 2}
    for e in range(13):
        assert th.coefficient_at(F(e)) == expected.get(F(e), 0)


def test_theta_brute_force_oracle():
    # direct box enumeration for the B2 Steinberg coset
    coset = SL_B2.named_cosets()["steinberg"]
    th = theta_coset(SL_B2, coset, SL_B2.Q, 6)
    counts = {}
    for x in range(-12, 13):
        for y in range(-12, 13):
            v = coset.rep - SL_B2.Q + x * SL_B2.basis_long[0] + y * SL_B2.basis_long[1]
            e = SL_B2.space.norm(v) / 2
            if e <= th.offset + 6:
                counts[e] = counts.get(e, 0) + 1
    for i, c in enumerate(th.coeffs):
        e = th.offset + i * th.step
        assert c == counts.get(e, 0), e
    assert th.coeffs[0] == 4  # leading coefficient of the Steinberg theta


def test_theta_leading_at_center():
    th = theta_coset(SL_B2, SL_B2.named_cosets()["center"], SL_B2.Q, 6)
    assert th.offset == 0 and th.coeffs[0] == 1


def test_theta_representative_independence():
    rng = random.Random(21)
    for name, coset in SL_B2.named_cosets().items():
        ref = theta_coset(SL_B2, coset, SL_B2.Q, 8)
        for _ in range(25):
            shift = SL_B2.space.zero()
            for b in SL_B2.basis_long:
                shift = shift + rng.randint(-2, 2) * b
            moved = Coset(SL_B2.space, coset.rep + shift, coset.basis)
            got = theta_coset(SL_B2, moved, SL_B2.Q, 8)
            assert got == ref


def fraction_theta_coset(sl, coset, shift, order) -> QSeries:
    """The theta series with one Fraction norm per point, each computed by
    the pairing itself rather than read from the enumerator's distances."""
    space = sl.space
    rep = coset.rep - shift
    zero = space.zero()
    probe = points_within(space, rep, coset.basis, zero, space.norm(rep))
    base = min(space.norm(v) / 2 for v, _d in probe)
    pts = points_within(space, rep, coset.basis, zero, 2 * (base + order))
    counts = {}
    for v, _d in pts:
        e = space.norm(v) / 2
        counts[e] = counts.get(e, 0) + 1
    offset = min(counts)
    step = _rational_gcd(*(e - offset for e in counts)) or F(1)
    n = int(F(order) / step)
    coeffs = [0] * (n + 1)
    for e, count in counts.items():
        pos = (e - offset) / step
        if pos <= n:
            coeffs[int(pos)] += count
    return QSeries(offset, tuple(coeffs), step)


def _theta_cases():
    """Every module coset of A1, B2, B3 and C2 at ell = 4 and G2 at ell = 6,
    unshifted and shifted by Q."""
    cases = []
    for series, rank, ell in (("A", 1, 4), ("B", 2, 4), ("B", 3, 4), ("C", 2, 4), ("G", 2, 6)):
        sl = ScreeningLattices(build_root_system(series, rank), ell)
        for i, rep in enumerate(sl.module_cosets().coset_reps):
            coset = sl.long_lattice_coset(rep)
            for label, shift in (("0", sl.space.zero()), ("Q", sl.Q)):
                cases.append(pytest.param(sl, coset, shift, id=f"{series}{rank}-{i}-{label}"))
    return cases


@pytest.mark.parametrize("sl, coset, shift", _theta_cases())
def test_theta_coset_equals_fraction_norms(sl, coset, shift):
    for order in (0, 1, 3, 8):
        assert theta_coset(sl, coset, shift, order) == fraction_theta_coset(sl, coset, shift, order)


def test_check_jtp_enumerates_each_theta_once(monkeypatch, capsys):
    # one probe and one enumeration per module: the JTP check reuses the
    # table's blue graded dimension
    calls = []
    real = characters.points_within

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(characters, "points_within", counted)
    argv = ["characters", "--algebra", "B2", "--ell", "4", "--order", "30", "--check-jtp"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 2 * 4


def test_jtp_mismatch_below_the_character_offset(capsys):
    # D4 at ell = 2: the vacuum series starts at -1/6, below the offset 1/3
    # of chi_ns+, so the check reports a mismatch for every order
    for order in (0, 3):
        argv = ["characters", "--algebra", "D4", "--ell", "2", "--order", str(order), "--check-jtp"]
        assert cli.main(argv) == 1
        assert "JTP check: MISMATCH" in capsys.readouterr().err


def test_jacobi_triple_product_order20():
    dim = graded_dim_module(SL_A1, SL_A1.named_cosets()["blue"], 21)
    chi = sf_characters(1, 21)["ns+"]
    assert dim.agrees_with(chi, through=F(1, 12) + 20)


def test_b2_module_series():
    dims = {
        name: graded_dim_module(SL_B2, coset, 6).normalized()
        for name, coset in SL_B2.named_cosets().items()
    }
    assert dims["blue"].offset == F(1, 6)
    assert [int(c) for c in dims["blue"].coeffs[:2]] == [2, 8]
    assert dims["center"].offset == F(1, 6) - F(1, 4)
    assert [int(c) for c in dims["center"].coeffs[:2]] == [1, 6]
    assert dims["steinberg"].offset == F(1, 6) + F(1, 4)
    assert [int(c) for c in dims["steinberg"].coeffs[:2]] == [4, 8]
    assert dims["green"].offset == F(1, 6)
    assert [int(c) for c in dims["green"].coeffs[:2]] == [2, 8]


def test_sf_characters_displays():
    chars = sf_characters(2, 10)
    ns_plus, ns_minus = chars["ns+"], chars["ns-"]
    assert ns_plus.offset == F(1, 6) == F(4, 24)
    assert [int(c) for c in ns_plus.coeffs[:3]] == [1, 4, 10]
    assert [int(c) for c in ns_minus.coeffs[:3]] == [1, -4, 2]
    r_plus, r_minus = chars["r+"], chars["r-"]
    assert r_plus.offset == F(-1, 12) == F(-4, 48)
    assert r_plus.step == F(1, 2)
    # display: 1 + 4 t^(1/2) + 6 t + 8 t^(3/2) + ... with t^2 coefficient 17
    # (the printed 16 contradicts the product formula itself)
    assert [int(c) for c in r_plus.coeffs[:5]] == [1, 4, 6, 8, 17]
    assert [int(c) for c in r_minus.coeffs[:5]] == [1, -4, 6, -8, 17]


def test_sf_r_sector_fermionic_mode_oracle():
    # independent count: monomials in 2n distinct fermionic modes at each
    # half-integer level; generating function prod_m (1 + t^{m-1/2})^{2n}
    # expanded by brute multiplication, through order 10
    for n in (1, 2, 3):
        order2 = 20
        coeffs = [F(0)] * (order2 + 1)
        coeffs[0] = F(1)
        m = 1
        while 2 * m - 1 <= order2:
            k = 2 * m - 1
            for _ in range(2 * n):
                for i in range(order2, k - 1, -1):
                    coeffs[i] += coeffs[i - k]
            m += 1
        chars = sf_characters(n, 10)
        assert list(chars["r+"].coeffs[: order2 + 1]) == coeffs[: order2 + 1]


def test_sf_groundstate_exponents():
    for n in (1, 2, 3):
        chars = sf_characters(n, 6)
        c24 = F(2 * n, 24)
        chi1 = chars["chi1"].normalized()
        chi2 = chars["chi2"].normalized()
        chi3 = chars["chi3"].normalized()
        chi4 = chars["chi4"].normalized()
        assert chi1.offset - c24 == 0
        assert chi2.offset - c24 == 1
        assert chi3.offset - c24 == F(-n, 8)
        assert chi4.offset - c24 == F(-n, 8) + F(1, 2)
        # Steinberg groundstate multiplicity 2n
        assert chi4.coeffs[0] == 2 * n


def test_sf_character_sums():
    chars = sf_characters(2, 12)
    assert chars["chi1"] + chars["chi2"] == chars["ns+"]
    assert chars["chi3"] + chars["chi4"] == chars["r+"]


def kernel_dims(rep, color):
    """Intersection-kernel dims that kernel_char_match compared, level by level."""
    return [
        int(c.detail.split()[1]) for c in rep.checks if c.name.startswith(f"{color} kernel")
    ]


def test_kernel_char_match_b2():
    rep = kernel_char_match(SL_B2, order=8, kernel_levels=4)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "dim Center = chi3" in names
    assert "dim Steinberg = chi4" in names
    assert kernel_dims(rep, "blue") == [1, 0, 6, 16, 23]
    assert kernel_dims(rep, "green") == [0, 4, 4, 8, 28]


def test_kernel_char_match_a1():
    rep = kernel_char_match(SL_A1, order=10, kernel_levels=3)
    assert rep.ok


def test_kernel_char_match_b3():
    sl3 = ScreeningLattices(build_root_system("B", 3), 4)
    rep = kernel_char_match(sl3, order=6, kernel_levels=3)
    assert rep.ok
    assert kernel_dims(rep, "blue") == [1, 0, 15, 36]
    assert kernel_dims(rep, "green") == [0, 6, 6, 26]


def test_kernel_char_match_b4():
    sl4 = ScreeningLattices(build_root_system("B", 4), 4)
    rep = kernel_char_match(sl4, order=4, kernel_levels=2)
    assert rep.ok
    assert kernel_dims(rep, "blue") == [1, 0, 28]
    assert kernel_dims(rep, "green") == [0, 8, 8]


def test_graded_dims_equal_layer_dims():
    # A1 and B2 through level 6; B3 (rank 3) and C2 (long last root)
    # through level 4
    cases = [
        (SL_A1, 6),
        (SL_B2, 6),
        (ScreeningLattices(build_root_system("B", 3), 4), 4),
        (ScreeningLattices(build_root_system("C", 2), 4), 4),
    ]
    for sl, levels in cases:
        c24 = -sl.central_charge / 24
        for name, coset in sl.named_cosets().items():
            series = graded_dim_module(sl, coset, levels + 1)
            _gs, h0 = groundstates(sl, coset)
            for lvl in range(levels + 1):
                assert series.coefficient_at(c24 + h0 + lvl) == layer_basis(
                    sl, coset, h0 + lvl
                ).dim


def test_qseries_arithmetic():
    a = QSeries.make(F(1, 2), [1, 2, 3])
    b = QSeries.make(F(1, 2), [1, 0, 1])
    assert (a + b).coeffs == (2, 2, 4)
    prod = a * b
    assert prod.offset == 1
    assert prod.coeffs == (1, 2, 4)  # truncated at the shared relative order
    assert (a * 2).coeffs == (2, 4, 6)
    sq = QSeries.make(0, [1, 1]) ** 3
    assert sq.coeffs[:2] == (1, 3)


def test_qseries_half_step_serialization_roundtrip():
    chars = sf_characters(2, 6)
    for series in chars.values():
        blob = json.dumps(series.to_json_dict())
        data = json.loads(blob)
        back = QSeries.make(
            Fraction(data["offset"]),
            [Fraction(c) for c in data["coeffs"]],
            Fraction(data["step"]),
        )
        assert back == series


def test_euler_product_values():
    # prod (1 + t^m) counts partitions into distinct parts
    ep = euler_product(10, +1)
    assert [int(c) for c in ep.coeffs] == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


# --- a slow oracle for QSeries ---------------------------------------------
#
# A series is modelled as (terms, offset, end): {exponent: coefficient} over
# the exponents it holds, its lowest exponent, and the last exponent through
# which it is exact.

STEPS = (F(1), F(1, 2), F(1, 3))


def model_of(series):
    terms = {series.offset + i * series.step: c for i, c in enumerate(series.coeffs)}
    return terms, series.offset, series.end_exponent


def at(terms, e):
    return terms.get(e, 0)


def naive_sum(a, b, sign=1):
    (ta, oa, ea), (tb, ob, eb) = a, b
    end = min(ea, eb)
    terms = {e: at(ta, e) + sign * at(tb, e) for e in set(ta) | set(tb) if e <= end}
    return terms, min(oa, ob), end


def naive_product(a, b):
    # each factor is exact through its own order, so the product is exact
    # through the smaller of the two orders relative to its offset
    (ta, oa, ea), (tb, ob, eb) = a, b
    end = oa + ob + min(ea - oa, eb - ob)
    terms = {}
    for xa, ca in ta.items():
        for xb, cb in tb.items():
            if xa + xb <= end:
                terms[xa + xb] = terms.get(xa + xb, 0) + ca * cb
    return terms, oa + ob, end


def assert_matches(series, model):
    """series is exact through the model's end, no further, and equals the
    model at every exponent; integral coefficients are ints."""
    terms, _offset, end = model
    got, _, got_end = model_of(series)
    assert got_end == end
    assert all(e <= end for e in terms)
    for e in set(got) | set(terms):
        assert at(got, e) == at(terms, e), e
    assert all(type(c) is int or (type(c) is F and c.denominator != 1) for c in series.coeffs)


def share_a_grid(a, b):
    common = F(1, lcm(a.step.denominator, b.step.denominator))
    return ((a.offset - b.offset) / common).denominator == 1


coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4)
)


@st.composite
def qseries(draw, max_len=7):
    step = draw(st.sampled_from(STEPS))
    offset = F(draw(st.integers(-12, 12)), draw(st.sampled_from((1, 2, 3, 6))))
    coeffs = draw(st.lists(coefficients, min_size=1, max_size=max_len))
    return QSeries.make(offset, coeffs, step)


@settings(max_examples=200, deadline=None)
@given(qseries(), qseries())
def test_qseries_sum_and_difference_oracle(a, b):
    if not share_a_grid(a, b):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a - b
        return
    assert_matches(a + b, naive_sum(model_of(a), model_of(b)))
    assert_matches(a - b, naive_sum(model_of(a), model_of(b), sign=-1))


def test_qseries_sum_rejects_incommensurable_offsets():
    with pytest.raises(ValueError):
        QSeries.make(0, [1, 2]) + QSeries.make(F(1, 2), [1, 2])
    with pytest.raises(ValueError):
        QSeries.make(0, [1, 2], F(1, 2)) + QSeries.make(F(1, 3), [1], F(1, 2))
    # a finer second grid makes the offsets commensurable: t^0 + 2 t plus
    # t^(1/2) + 2 t + 3 t^(3/2), exact through t^1
    total = QSeries.make(0, [1, 2]) + QSeries.make(F(1, 2), [1, 2, 3], F(1, 2))
    assert total.step == F(1, 2) and total.coeffs == (1, 1, 4)


@settings(max_examples=200, deadline=None)
@given(qseries(), coefficients)
def test_qseries_scalar_multiple_oracle(a, c):
    terms, offset, end = model_of(a)
    model = {e: c * x for e, x in terms.items()}, offset, end
    assert_matches(c * a, model)
    assert_matches(a * c, model)


@settings(max_examples=200, deadline=None)
@given(qseries(), qseries())
def test_qseries_product_oracle(a, b):
    assert_matches(a * b, naive_product(model_of(a), model_of(b)))


@settings(max_examples=100, deadline=None)
@given(qseries(max_len=5), st.integers(0, 4))
def test_qseries_power_oracle(a, k):
    power = a**k
    if k == 0:
        assert power.offset == 0 and power.coeffs[0] == 1 and not any(power.coeffs[1:])
        return
    model = model_of(a)
    for _ in range(k - 1):
        model = naive_product(model, model_of(a))
    assert_matches(power, model)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((F(1), F(1, 2))),
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
    st.integers(0, 8),
)
def test_qseries_power_equals_repeated_multiplication(step, coeffs, k):
    # __pow__ squares; the loop it replaced multiplies k times onto the
    # unit series one order longer than a
    a = QSeries.make(F(-1, 3), coeffs, step)
    loop = QSeries(F(0), (1,) + (0,) * len(a.coeffs), a.step)
    for _ in range(k):
        loop = loop * a
    assert a**k == loop


@settings(max_examples=300, deadline=None)
@given(qseries(), qseries(), st.data())
def test_qseries_agrees_with_oracle(a, b, data):
    # often b is a itself, laid out on a finer grid with leading zeros, so
    # that agreement is common; sometimes one coefficient is then changed
    if data.draw(st.booleans()):
        refine = data.draw(st.sampled_from((1, 2, 3)))
        pad = data.draw(st.integers(0, 3))
        step = a.step / refine
        terms = model_of(a)[0]
        offset = a.offset - pad * step
        n = pad + a.order * refine
        coeffs = [at(terms, offset + i * step) for i in range(n + 1)]
        if data.draw(st.booleans()):
            coeffs[data.draw(st.integers(0, n))] += 1
        b = QSeries.make(offset, coeffs, step)
    through = data.draw(st.sampled_from(sorted({
        min(a.offset, b.offset) - 1,
        (a.offset + b.offset) / 2,
        min(a.end_exponent, b.end_exponent),
        max(a.end_exponent, b.end_exponent),
    })))
    if a.end_exponent < through or b.end_exponent < through:
        with pytest.raises(ValueError):
            a.agrees_with(b, through=through)
        return
    ta, tb = model_of(a)[0], model_of(b)[0]
    expected = all(at(ta, e) == at(tb, e) for e in set(ta) | set(tb) if e <= through)
    assert a.agrees_with(b, through=through) == expected
    assert b.agrees_with(a, through=through) == expected


def test_qseries_agrees_with_on_grids_without_a_common_point():
    # exponents 0, 1, 2 against 1/2, 3/2: none is shared, so the series
    # agree exactly when every coefficient through the bound is zero
    a = QSeries.make(0, [0, 0, 1])
    assert a.agrees_with(QSeries.make(F(1, 2), [0, 0]), through=F(3, 2))
    assert not a.agrees_with(QSeries.make(F(1, 2), [0, 1]), through=F(3, 2))
    assert not QSeries.make(0, [1, 0]).agrees_with(QSeries.make(F(1, 2), [0, 0]), through=1)

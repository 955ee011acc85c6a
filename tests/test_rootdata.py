from fractions import Fraction

import pytest

from latvoa.rootdata import (
    build_root_system,
    classify_simply_laced,
    dual_root_system,
    parse_label,
    short_simple_system,
)

from conftest import identity

F = Fraction


def weyl_vectors(rs):
    return rs.rho, rs.rho_dual


def fundamental_weights(rs):
    return rs.fund_weights


def test_gram_matrices():
    assert [list(r) for r in build_root_system("B", 2).gram] == [[4, -2], [-2, 2]]
    assert [list(r) for r in build_root_system("A", 1).gram] == [[2]]
    assert [list(r) for r in build_root_system("B", 3).gram] == [
        [4, -2, 0],
        [-2, 4, -2],
        [0, -2, 2],
    ]
    assert [list(r) for r in build_root_system("G", 2).gram] == [[6, -3], [-3, 2]]


def test_gram_is_d_scaled_cartan():
    for series, rank in [("A", 3), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.gram[i][j] == rs.d[j] * rs.cartan[i][j]


def test_positive_root_counts():
    counts = {
        ("A", 1): 1,
        ("A", 3): 6,
        ("B", 2): 4,
        ("B", 3): 9,
        ("B", 4): 16,
        ("C", 2): 4,
        ("C", 3): 9,
        ("D", 4): 12,
        ("F", 4): 24,
        ("G", 2): 6,
    }
    for (series, rank), n in counts.items():
        assert len(build_root_system(series, rank).positive_roots) == n


def test_b2_positive_roots():
    rs = build_root_system("B", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_b2_dual_coroots_form_c2():
    rs = build_root_system("B", 2)
    dual = dual_root_system(rs)
    assert dual.label == "C2"
    # positive coroots of B2: a1v, a2v, a1v+a2v, 2a1v+a2v
    coroots = sorted(rs.coroot(r) for r in rs.positive_roots)
    # expressed in the coroot basis a1v = a1/2, a2v = a2:
    # a1 -> a1v*2... check via linear algebra: each coroot is an integer,
    # positive combination of the simple coroots
    simple_cors = [rs.coroot(tuple(int(i == j) for j in range(2))) for i in range(2)]
    combos = set()
    for cr in coroots:
        # cr = x * simple_cors[0] + y * simple_cors[1]
        x = cr[0] / simple_cors[0][0]
        y = cr[1] - x * simple_cors[0][1]
        combos.add((x, y))
    assert combos == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_weyl_vectors():
    rs = build_root_system("B", 2)
    rho, rho_dual = weyl_vectors(rs)
    assert rho == (F(3, 2), F(2))
    assert rho_dual == (F(1), F(3, 2))
    rs1 = build_root_system("A", 1)
    assert rs1.rho == rs1.rho_dual == (F(1, 2),)


def test_weyl_vector_pairings():
    for series, rank in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        for i, a in enumerate(simple):
            assert rs.pair_roots(a, rs.rho) == F(rs.gram[i][i], 2)
            cor = rs.coroot(a)
            assert rs.pair_roots(cor, rs.rho) == 1
            # rho_dual pairs to 1 with every simple root
            assert rs.pair_roots(a, rs.rho_dual) == 1


def test_bn_rho_closed_form():
    # rho = 1/2 sum_j j (2n - j) a_j
    for n in (2, 3, 4):
        rs = build_root_system("B", n)
        want = tuple(F(j * (2 * n - j), 2) for j in range(1, n + 1))
        assert rs.rho == want


def test_two_rho_is_positive_root_sum():
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        total = [sum(r[i] for r in rs.positive_roots) for i in range(rank)]
        assert tuple(F(t, 2) for t in total) == rs.rho


def test_fundamental_weights():
    rs = build_root_system("B", 2)
    fw = fundamental_weights(rs)
    assert fw[0] == (F(1), F(1))
    assert fw[1] == (F(1, 2), F(1))
    assert build_root_system("A", 1).fund_weights[0] == (F(1, 2),)
    # l_n = 1/2 (a1 + 2 a2 + ... + n an) for Bn
    for n in (2, 3, 4):
        rsn = build_root_system("B", n)
        assert rsn.fund_weights[n - 1] == tuple(F(j, 2) for j in range(1, n + 1))


def test_fund_weights_times_cartan_is_identity():
    # (fund_weights @ gram) scales to d delta_ij, and gram = cartan scaled
    # by d, so fund_weights @ cartan is exactly the identity
    from latvoa import linalg

    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        fw = [list(row) for row in rs.fund_weights]
        cart = linalg.frac_matrix(rs.cartan)
        assert linalg.mat_mul(fw, cart) == identity(rank)


def test_fund_weight_pairings():
    for series, rank in [("B", 3), ("C", 3), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        for i in range(rank):
            for j in range(rank):
                a_j = tuple(int(k == j) for k in range(rank))
                want = rs.d[j] if i == j else 0
                assert rs.pair_roots(rs.fund_weights[i], a_j) == want


def test_dual_round_trip():
    for series, rank in [("B", 3), ("C", 2), ("A", 4), ("F", 4), ("G", 2), ("D", 4)]:
        rs = build_root_system(series, rank)
        assert dual_root_system(dual_root_system(rs)).cartan == rs.cartan
    assert dual_root_system(build_root_system("B", 3)).label == "C3"
    assert dual_root_system(build_root_system("A", 1)).label == "A1"
    assert dual_root_system(build_root_system("F", 4)).label == "F4"


def test_fundamental_group_orders():
    for series, rank, det in [("A", 1, 2), ("A", 2, 3), ("B", 2, 2), ("B", 3, 2),
                              ("C", 3, 2), ("D", 4, 4), ("F", 4, 1), ("G", 2, 1)]:
        assert build_root_system(series, rank).fundamental_group_order == det


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 6)  # not in scope
    with pytest.raises(ValueError):
        build_root_system("C", 1)
    with pytest.raises(ValueError):
        build_root_system("D", 2)
    with pytest.raises(ValueError):
        build_root_system("F", 5)
    with pytest.raises(ValueError):
        build_root_system("G", 3)


def test_b1_aliases_a1():
    assert build_root_system("B", 1).series == "A"


def test_parse_label():
    assert parse_label("B2") == ("B", 2)
    assert parse_label("f4") == ("F", 4)
    with pytest.raises(ValueError):
        parse_label("42")


def test_short_simple_systems():
    rs = build_root_system("B", 2)
    assert short_simple_system(rs) == [(0, 1), (1, 1)]
    for n in (2, 3, 4):
        rsn = build_root_system("B", n)
        shorts = short_simple_system(rsn)
        want = sorted(tuple(1 if i >= k else 0 for i in range(n)) for k in range(n))
        assert sorted(shorts) == want


def test_simply_laced_classifier():
    def sub_label(series, rank):
        rs = build_root_system(series, rank)
        shorts = short_simple_system(rs)
        gram = [[rs.pair_roots(x, y) for y in shorts] for x in shorts]
        return classify_simply_laced(gram)

    assert sub_label("B", 3) == "A1^3"
    assert sub_label("C", 2) == "A1^2"  # D2
    assert sub_label("C", 3) == "A3"  # D3
    assert sub_label("C", 4) == "D4"
    assert sub_label("F", 4) == "D4"
    assert sub_label("G", 2) == "A2"

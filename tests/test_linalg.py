import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latvoa import linalg
from latvoa.lattice import ScreeningLattices, groundstates
from latvoa.rootdata import build_root_system
from latvoa.screening import (
    _screening_matrix,
    layer_basis,
    module_layers,
    short_screening_set,
    weyl_power_exponent,
)

from conftest import identity


def mat_vec(a, v):
    """The product of a dense matrix and a vector, as Fractions."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def fraction_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def check_snf(a):
    u, d, v = linalg.smith_normal_form(a)
    n, m = len(a), len(a[0])
    ud = [[sum(u[i][t] * a[t][j] for t in range(n)) for j in range(m)] for i in range(n)]
    udv = [[sum(ud[i][t] * v[t][j] for t in range(m)) for j in range(m)] for i in range(n)]
    assert udv == d
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(n, m))]
    for x, y in zip(diag, diag[1:]):
        assert x >= 0
        if y != 0:
            assert x != 0 and y % x == 0
    assert abs(linalg.det(u)) == 1
    assert abs(linalg.det(v)) == 1
    return diag


def test_snf_known():
    assert check_snf([[2, -2], [-2, 4]]) == [2, 2]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_random():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        check_snf([[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])


def test_nullspace_and_rank():
    a = fraction_matrix([[1, 2, 3], [2, 4, 6]])
    basis = dense_vectors(linalg.nullspace(linalg.sparse_rows(a), 3), 3)
    assert len(basis) == 2
    for v in basis:
        for row in a:
            assert sum(x * y for x, y in zip(row, v)) == 0
    assert gj_rank(a) == 1
    assert dense_vectors(linalg.nullspace([], ncols=3), 3) == identity(3)


# --- dense Bareiss reference ----------------------------------------------
# The dense elimination that linalg ran before it moved onto sparse integer
# rows; nullspace, nullity and _echelon are held to it exactly.


def dense_echelon(a):
    """Bareiss fraction-free forward elimination of the integerized dense
    matrix: the echelon form, its pivot columns, the sign of the row
    permutation and the product of the row scales."""
    m = []
    scale = 1
    for row in a:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
        scale *= den
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    sign = 1
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, sign, scale


def dense_kernel_vector(red, pivots, cols, f):
    """The kernel vector of free column f by rational back substitution on
    the dense echelon form: v[f] = 1 and v[g] = 0 at every other free
    column g."""
    v = [Fraction(0)] * cols
    v[f] = Fraction(1)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        total = sum(
            (Fraction(red[r][j]) * v[j] for j in range(c + 1, cols) if red[r][j]),
            Fraction(0),
        )
        v[c] = -total / red[r][c]
    return v


def dense_nullspace(a, ncols=None):
    """Whole-matrix elimination: the reference that linalg.nullspace must
    reproduce exactly, vectors and order."""
    if not a:
        assert ncols is not None
        return [row[:] for row in identity(ncols)]
    cols = len(a[0])
    red, pivots, _sign, _scale = dense_echelon(a)
    return [dense_kernel_vector(red, pivots, cols, f) for f in range(cols) if f not in pivots]


def bareiss_echelon(rows, columns):
    """Bareiss fraction-free forward elimination of sparse integer rows
    over the given columns, in ascending order: the one elimination of
    linalg before it moved onto primitive rows.

    The pivot of a column is the first remaining row with a nonzero in it.
    The one-step Bareiss update divides exactly by the previous pivot, so
    every entry is an exact integer (a minor of the input), and only stored
    entries are touched.  A row with no entry in the pivot column would just
    be scaled by pivot / previous pivot; that scale telescopes, so it is
    applied only when the row is next updated or becomes a pivot row (its
    entries are still exact minors then).  Returns the pivot rows, their
    pivot columns and the sign of the row permutation; for a square matrix
    of full rank the last pivot is sign * det.
    """
    m = [dict(row) for row in rows]
    n = len(m)
    # the pivot at which each row's stored entries are exact
    level = [1] * n
    red = []
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in columns:
        piv = next((i for i in range(r, n) if c in m[i]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        prow = m[r]
        if level[r] != prev:
            prow = {j: x * prev // level[r] for j, x in prow.items()}
        p = prow[c]
        rest = [(j, x) for j, x in prow.items() if j != c]
        for i in range(r + 1, n):
            row = m[i]
            x = row.pop(c, 0)
            if not x:
                continue
            lv = level[i]
            if lv != prev:
                scale, x = p * prev, x * prev // lv
                new = {j: y * scale // lv for j, y in row.items()}
            else:
                new = {j: y * p for j, y in row.items()}
            for j, z in rest:
                y = new.get(j, 0) - x * z
                if y:
                    new[j] = y
                else:
                    del new[j]
            m[i] = new if prev == 1 else {j: y // prev for j, y in new.items()}
            level[i] = p
        red.append(prow)
        pivots.append(c)
        prev = p
        r += 1
        if r == n:
            break
    return red, pivots, sign


def bareiss_kernel_vector(red, pivots, f):
    """The kernel vector of free column f of a Bareiss echelon, by integer
    back substitution on w = D * v with D the last pivot: up to sign, D is
    the determinant of the pivot rows at the pivot columns, so by Cramer's
    rule every step divides exactly."""
    d = red[-1][pivots[-1]] if red else 1
    w = {f: d}
    for r in range(len(pivots) - 1, -1, -1):
        row = red[r]
        total = sum(x * w[j] for j, x in row.items() if j in w)
        if total:
            c = pivots[r]
            w[c] = -total // row[c]
    return {j: Fraction(w[j], d) for j in sorted(w)}


def bareiss_nullspace(rows, ncols):
    """Whole-matrix Bareiss elimination of sparse integer rows and one
    kernel vector per free column, in column order."""
    red, pivots, _sign = bareiss_echelon([row for row in rows if row], range(ncols))
    return [bareiss_kernel_vector(red, pivots, f) for f in range(ncols) if f not in pivots]


def dense_vectors(vectors, ncols):
    """Full-width Fraction vectors of nullspace's sparse {column: Fraction}
    vectors."""
    return [[vec.get(j, Fraction(0)) for j in range(ncols)] for vec in vectors]


def densify(rows, ncols):
    """Dense rows of sparse {column: value} rows."""
    dense = []
    for row in rows:
        cells = [0] * ncols
        for j, x in row.items():
            cells[j] = x
        dense.append(cells)
    return dense


# --- Gauss-Jordan reference routines --------------------------------------
# The elimination loops that det, inverse and solve ran before they moved
# onto the Bareiss echelon; the tests hold the new routines to them exactly.


def gj_det(a):
    """Determinant by Gaussian elimination on a copy."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                for j in range(c, n):
                    m[r][j] -= f * m[c][j]
    return sign * result


def gj_inverse(a):
    """Exact inverse by Gauss-Jordan; raises ValueError on a singular matrix."""
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


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


def gj_rref(a):
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def gj_rank(a):
    if not a:
        return 0
    return len(gj_rref(a)[1])


def test_det_inverse_solve_equal_gauss_jordan():
    """det, inverse and solve equal the Gauss-Jordan references exactly on
    random rational systems: square (invertible and singular), consistent
    but singular, inconsistent and non-square."""
    rng = random.Random(3)
    entries = [Fraction(0)] * 3 + [Fraction(n, d) for n in (-3, -1, 1, 2, 5) for d in (1, 2, 3)]
    assert linalg.det([]) == gj_det([]) == 1
    assert linalg.inverse([]) == gj_inverse([]) == []
    kinds = {"square": 0, "singular": 0, "consistent_singular": 0, "inconsistent": 0, "non_square": 0}
    for _ in range(1500):
        n = rng.randint(1, 5)
        m = n if rng.random() < 0.6 else rng.randint(1, 5)
        a = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.3:
            # a dependent row
            a[-1] = [2 * x - y for x, y in zip(a[0], a[1])]
        if rng.random() < 0.5:
            b = mat_vec(a, [rng.choice(entries) for _ in range(m)])
        else:
            b = [rng.choice(entries) for _ in range(n)]
        x = linalg.solve(a, b)
        assert x == gj_solve(a, b), (a, b)
        if n != m:
            kinds["non_square"] += 1
            continue
        d = linalg.det(a)
        assert d == gj_det(a), a
        if d:
            kinds["square"] += 1
            assert linalg.inverse(a) == gj_inverse(a), a
            continue
        kinds["singular"] += 1
        kinds["consistent_singular" if x is not None else "inconsistent"] += 1
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.inverse(a)
        with pytest.raises(ValueError):
            gj_inverse(a)
    assert min(kinds.values()) >= 50, kinds


P = 2**61 - 1


def rank_mod_p(a):
    """Rank of a rational matrix reduced mod the prime 2^61 - 1, by plain
    Gaussian elimination over GF(p)."""
    rows = [[x.numerator * pow(x.denominator, -1, P) % P for x in row] for row in a]
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, P)
        prow = [x * inv % P for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % P for x, y in zip(rows[i], prow)]
        r += 1
    return r


@functools.cache
def screening_matrices(rank, color, level):
    """The sparse integer rows of each short screening on layer h0 + level
    of a B_rank module at ell = 4, with the layer's column count."""
    sl = ScreeningLattices(build_root_system("B", rank), 4)
    coset = sl.named_cosets()[color]
    _gs, h0 = groundstates(sl, coset)
    layer = layer_basis(sl, coset, h0 + level)
    matrices = []
    for a in short_screening_set(sl):
        matrices.append(_screening_matrix(sl, a, layer, {}))
    return matrices, layer.dim


def stacked_screening_matrix(rank, color, level):
    """The stacked short-screening matrix whose kernel kernel_layer returns
    on that layer, densified, with its column count."""
    matrices, ncols = screening_matrices(rank, color, level)
    return densify([row for rows in matrices for row in rows], ncols), ncols


ENTRIES = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]
)


@st.composite
def block_matrices(draw):
    """A sparse rational matrix made of independent column blocks, with
    shuffled columns and rows, zero rows and columns no row touches; plus
    the edge shapes: empty, single row, all zero and fully connected."""
    kind = draw(st.sampled_from(["blocks", "empty", "single_row", "all_zero", "connected"]))
    if kind == "empty":
        return [], draw(st.integers(0, 5))
    if kind in ("single_row", "all_zero"):
        cols = draw(st.integers(1, 8))
        nrows = 1 if kind == "single_row" else draw(st.integers(1, 4))
        fill = ENTRIES if kind == "single_row" else st.just(Fraction(0))
        return [[draw(fill) for _ in range(cols)] for _ in range(nrows)], cols
    if kind == "connected":
        cols = draw(st.integers(1, 6))
        nrows = draw(st.integers(1, 6))
        rows = [[draw(ENTRIES) for _ in range(cols)] for _ in range(nrows)]
        rows.append([Fraction(1)] * cols)
        return draw(st.permutations(rows)), cols
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    untouched = draw(st.integers(0, 3))
    cols = sum(widths) + untouched
    order = draw(st.permutations(range(cols)))
    rows = []
    start = 0
    for w in widths:
        block = order[start:start + w]
        start += w
        block_rows = []
        for _ in range(draw(st.integers(0, 4))):
            row = [Fraction(0)] * cols
            for j in block:
                row[j] = draw(ENTRIES)
            block_rows.append(row)
        if block_rows and draw(st.booleans()):
            # a dependent row: a multiple of the block's last row
            block_rows.append([2 * x for x in block_rows[-1]])
        rows.extend(block_rows)
    rows.extend([Fraction(0)] * cols for _ in range(draw(st.integers(0, 2))))
    return draw(st.permutations(rows)), cols


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_nullspace_equals_dense_elimination(case):
    a, ncols = case
    cols = len(a[0]) if a else ncols
    basis = linalg.nullspace(linalg.sparse_rows(a), cols)
    assert dense_vectors(basis, cols) == dense_nullspace(a, ncols)
    for vec in basis:
        assert all(vec.values())
        assert list(vec) == sorted(vec)


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_nullity_equals_dense_elimination(case):
    a, ncols = case
    assert linalg.nullity(linalg.sparse_rows(a), ncols) == len(dense_nullspace(a, ncols))


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_echelon_pivots_equal_dense_elimination(case):
    a, ncols = case
    cols = len(a[0]) if a else ncols
    if a:
        assert linalg._echelon(linalg.sparse_rows(a), range(cols))[1] == dense_echelon(a)[1]
    # the Bareiss oracle itself is held to the dense elimination
    red, pivots, sign = bareiss_echelon(linalg.sparse_rows(a), range(cols))
    dense_red, dense_pivots, dense_sign, _scale = dense_echelon(a) if a else ([], [], 1, 1)
    assert pivots == dense_pivots
    if all(any(row) for row in a):
        # the same rows in the same order: the same Bareiss rows and swaps,
        # so the deferred scaling of rows without the pivot column is exact
        assert red == [{j: x for j, x in enumerate(row) if x} for row in dense_red[: len(pivots)]]
        assert sign == dense_sign


def content(row):
    return gcd(*row.values())


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_primitive_rows_equal_bareiss(case):
    """Both eliminators give the same pivots, rank, nullity and nullspace,
    and every row the primitive one returns has content 1."""
    a, cols = case
    rows = linalg.sparse_rows(a)
    red, pivots, _sources = linalg._echelon(rows, range(cols))
    bareiss_red, bareiss_pivots, _sign = bareiss_echelon(rows, range(cols))
    assert pivots == bareiss_pivots
    assert len(linalg.echelon(rows, cols)) == len(bareiss_red)
    assert linalg.nullity(rows, cols) == cols - len(bareiss_pivots)
    assert linalg.nullspace(rows, cols) == bareiss_nullspace(rows, cols)
    assert all(content(row) == 1 for row in red)
    assert all(min(row) == c for row, c in zip(red, pivots))


@st.composite
def stacked_integer_matrices(draw):
    """A few sparse integer matrices on shared columns, as the screening
    matrices of one layer are: small entries, repeated and dependent rows."""
    cols = draw(st.integers(1, 10))
    entry = st.integers(-4, 4)
    matrices = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for _ in range(draw(st.integers(0, 6))):
            support = draw(st.lists(st.integers(0, cols - 1), max_size=4, unique=True))
            rows.append({j: x for j in support if (x := draw(entry))})
        if len(rows) >= 2 and draw(st.booleans()):
            rows.append({j: 3 * rows[0].get(j, 0) - 2 * rows[1].get(j, 0) for j in range(cols)
                         if 3 * rows[0].get(j, 0) - 2 * rows[1].get(j, 0)})
        matrices.append(rows)
    return matrices, cols


@settings(max_examples=300, deadline=None)
@given(stacked_integer_matrices())
def test_seeded_nullspace_equals_unseeded(case):
    """The intersection of the kernels from the concatenated echelons of
    each matrix equals the one from the raw stacked rows."""
    matrices, cols = case
    seeded = []
    for rows in matrices:
        reduced = linalg.echelon(rows, cols)
        assert len(reduced) == cols - linalg.nullity(rows, cols)
        assert all(content(row) == 1 for row in reduced)
        seeded.extend(reduced)
    raw = [row for rows in matrices for row in rows]
    assert linalg.nullspace(seeded, cols) == linalg.nullspace(raw, cols)
    assert linalg.nullspace(seeded, cols) == bareiss_nullspace(raw, cols)


def test_zero_rows_are_dropped():
    assert linalg.nullity([{}, {0: 2}], 2) == 1
    assert linalg.echelon([{}, {0: 2}, {}], 2) == [{0: 1}]
    assert linalg.nullspace([{}, {0: 2}], 2) == [{1: Fraction(1)}]
    assert linalg.nullspace([{}], 2) == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_sparse_rows_scale_to_integers_and_drop_zero_rows():
    a = [[Fraction(1, 2), 0, Fraction(-1, 3)], [0, 0, 0], [0, Fraction(4), 2]]
    assert linalg.sparse_rows(a) == [{0: 3, 2: -2}, {1: 4, 2: 2}]
    assert linalg.integer_row([(4, Fraction(0)), (7, Fraction(5, 6))]) == {7: 5}


def test_nullspace_equals_dense_on_screening_matrix():
    a, ncols = stacked_screening_matrix(3, "blue", 3)
    basis = dense_vectors(linalg.nullspace(linalg.sparse_rows(a), ncols), ncols)
    assert len(basis) == 36
    assert basis == dense_nullspace(a, ncols)


@pytest.mark.parametrize(
    "series, rank, color, level",
    [("A", 1, "blue", 3), ("B", 2, "blue", 3), ("B", 2, "green", 3), ("B", 3, "blue", 2), ("B", 3, "green", 2)],
)
def test_seeded_nullspace_equals_dense_on_kernel_goldens(series, rank, color, level):
    """On every layer of the integer-pairing kernel goldens (center and
    steinberg pair fractionally and have no matrices), the nullspace of the
    concatenated per-screening echelons, as kernel_layer computes it,
    equals the dense elimination of the raw stacked matrix."""
    sl = ScreeningLattices(build_root_system(series, rank), 4)
    coset = sl.named_cosets()[color]
    screens = short_screening_set(sl)
    assert all(weyl_power_exponent(sl, coset, a) == 1 for a in screens)
    images: dict = {}
    for layer in module_layers(sl, coset, level):
        matrices = [_screening_matrix(sl, a, layer, images) for a in screens]
        seeded = [row for rows in matrices for row in linalg.echelon(rows, layer.dim)]
        raw = densify([row for rows in matrices for row in rows], layer.dim)
        basis = linalg.nullspace(seeded, layer.dim)
        assert dense_vectors(basis, layer.dim) == dense_nullspace(raw, layer.dim)


@pytest.mark.parametrize(
    "rank, color, level",
    [(2, "blue", 4), (2, "green", 4), (3, "blue", 3), (3, "green", 3)],
)
def test_nullity_matches_rank_mod_p(rank, color, level):
    a, ncols = stacked_screening_matrix(rank, color, level)
    assert ncols - len(linalg.nullspace(linalg.sparse_rows(a), ncols)) == rank_mod_p(a)


@pytest.mark.parametrize(
    "rank, color, level",
    [(2, "blue", 4), (2, "green", 4), (3, "blue", 3), (3, "green", 3)],
)
def test_per_screening_nullity_matches_rank_mod_p(rank, color, level):
    matrices, ncols = screening_matrices(rank, color, level)
    assert len(matrices) == rank
    for rows in matrices:
        assert linalg.nullity(rows, ncols) == ncols - rank_mod_p(densify(rows, ncols))


def test_inverse_solve():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = fraction_matrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if linalg.det(a) == 0:
            continue
        inv = linalg.inverse(a)
        assert linalg.mat_mul(a, inv) == identity(n)
        b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = linalg.solve(a, b)
        assert mat_vec(a, x) == b

"""Exact linear algebra over the rationals and integers.

Dense matrices are plain lists of lists whose entries are ints or
Fractions (only ints for the lattice routines), and every result is exact;
the rational routines return Fractions.  Lattice matrices are small
(rank <= 8).

The elimination works on sparse integer rows: a row is a dict
{column: int} of its nonzero entries.  `integer_row` scales a row by the
lcm of its denominators, which leaves its kernel unchanged, and
`sparse_rows` turns a dense matrix into such rows, dropping zero rows.
Stacked screening matrices have a few hundred columns, but a screening
maps momentum mu to mu + a, so they fall apart into many small
independent column blocks; `nullity` and `nullspace` find those blocks
from the row keys and eliminate each one on its own, which returns exactly
the whole-matrix result.

There is one elimination, the Bareiss fraction-free echelon (Bareiss,
Math. Comp. 22, 1968) on sparse integer rows in `_echelon`, followed by
integer back substitution over one denominator per vector.  `nullity`,
`nullspace`, `det`, `solve` and `inverse` all run on it; the integer
Smith normal form at the end is unimodular and separate.  `nullspace`
keeps a dense signature, dense rows in and dense Fraction vectors out:
the benchmark's tracer reads its dense argument, and the tests hold it
to the dense whole-matrix elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

Row = list[Fraction]
Matrix = list[Row]
SparseRow = dict[int, int]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Row:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


# --- sparse integer rows ---------------------------------------------------


def _scaled_row(entries: Iterable[tuple[int, int | Fraction]]) -> tuple[SparseRow, int]:
    """The nonzero (column, value) entries times the lcm of their
    denominators, as a sparse integer row, and that lcm."""
    entries = [(j, x) for j, x in entries if x]
    den = 1
    for _j, x in entries:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return {j: x.numerator * (den // x.denominator) for j, x in entries}, den


def integer_row(entries: Iterable[tuple[int, int | Fraction]]) -> SparseRow:
    """The sparse integer row of the given (column, value) entries: the
    nonzero ones, scaled by the lcm of their denominators."""
    return _scaled_row(entries)[0]


def sparse_rows(a: Sequence[Sequence[int | Fraction]]) -> list[SparseRow]:
    """The nonzero rows of a dense matrix as sparse integer rows."""
    rows = (integer_row(compress(enumerate(row), row)) for row in a)
    return [row for row in rows if row]


def _echelon(
    rows: Sequence[SparseRow], columns: Iterable[int]
) -> tuple[list[SparseRow], list[int], int]:
    """Bareiss fraction-free forward elimination of sparse integer rows
    over the given columns, in ascending order.

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
    red: list[SparseRow] = []
    pivots: list[int] = []
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


def _kernel_vector(red: Sequence[SparseRow], pivots: Sequence[int], f: int) -> dict[int, Fraction]:
    """The nonzero entries of the kernel vector of free column f: v[f] = 1
    and v[g] = 0 at every other free column g.

    The back substitution runs on integer numerators w = D * v, with D
    the last pivot.  Up to sign, D is the determinant of the input rows
    that became pivot rows, at the pivot columns, so by Cramer's rule every
    D * v[c] is an integer and each step divides exactly; the vector is
    divided by D once at the end.
    """
    d = red[-1][pivots[-1]] if red else 1
    w = {f: d}
    for r in range(len(pivots) - 1, -1, -1):
        row = red[r]
        total = sum(x * w[j] for j, x in row.items() if j in w)
        if total:
            c = pivots[r]
            w[c] = -total // row[c]
    return {j: Fraction(x, d) for j, x in w.items()}


def _dense(vec: dict[int, Fraction], cols: int) -> Row:
    """The full-width vector with the given nonzero entries."""
    v = [Fraction(0)] * cols
    for j, x in vec.items():
        v[j] = x
    return v


def _blocks(rows: Sequence[SparseRow], cols: int) -> list[tuple[list[int], list[SparseRow]]]:
    """The independent column blocks of the rows: two columns share a
    block when some row is nonzero in both (union-find over the row keys).
    Each block is its columns in ascending order and its rows in input
    order; blocks come in order of their first column."""
    parent = list(range(cols))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for row in rows:
        it = iter(row)
        root = find(next(it))
        for j in it:
            other = find(j)
            if other != root:
                parent[other] = root
    blocks: dict[int, tuple[list[int], list[SparseRow]]] = {}
    for j in range(cols):
        blocks.setdefault(find(j), ([], []))[0].append(j)
    for row in rows:
        blocks[find(next(iter(row)))][1].append(row)
    return list(blocks.values())


def nullity(rows: Sequence[SparseRow], ncols: int) -> int:
    """Dimension of the right nullspace of the nonzero sparse integer rows
    over ncols columns: ncols minus the rank, summed over the column
    blocks.  No kernel vector is built."""
    rank = 0
    for members, block_rows in _blocks(rows, ncols):
        if block_rows:
            rank += len(_echelon(block_rows, members)[1])
    return ncols - rank


def nullspace(a: Matrix, ncols: int | None = None) -> list[Row]:
    """Basis of the right nullspace of the dense matrix a, one vector per
    free column.

    The rows become sparse integer rows and the columns are split into
    blocks (`_blocks`).  Each block is eliminated on its own rows, with its
    columns in ascending order, and its vectors are padded back to full
    width; zero rows are dropped and a column no row touches gives a unit
    vector.

    The output equals that of eliminating the whole matrix at once, order
    included.  Blocks share no rows, so a column is a pivot of a exactly
    when it is a pivot of its block; the vector of free column f is the
    unique kernel vector with v[f] = 1 and v[g] = 0 at every other free
    column g, and it is supported on f's block.  Vectors are returned in
    ascending order of their free column.
    """
    cols = len(a[0]) if a else ncols
    assert cols is not None
    basis = []
    for members, block_rows in _blocks(sparse_rows(a), cols):
        red, pivots, _sign = _echelon(block_rows, members)
        pivot_set = set(pivots)
        for f in members:
            if f not in pivot_set:
                basis.append((f, _dense(_kernel_vector(red, pivots, f), cols)))
    basis.sort(key=lambda item: item[0])
    return [v for _f, v in basis]


def det(a: Matrix) -> Fraction:
    """Determinant of a square matrix: the sign of the row permutation
    times the last Bareiss pivot, over the product of the row scales.  It is
    0 below full rank and 1 for the 0 x 0 matrix."""
    n = len(a)
    rows = []
    scale = 1
    for row in a:
        srow, den = _scaled_row(enumerate(row))
        if not srow:
            return Fraction(0)
        rows.append(srow)
        scale *= den
    red, pivots, sign = _echelon(rows, range(n))
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * red[-1][n - 1], scale) if n else Fraction(1)


def solve(a: Matrix, b: Sequence[Fraction]) -> Row | None:
    """A solution x of a @ x = b, or None if there is none.

    a may be singular or non-square.  x is the kernel vector of [a | -b]
    whose free column is the last one, cut to a's columns, so x is 0 at
    every free column of a.  There is no solution when the last column is
    a pivot, i.e. when b is not in the column span of a.
    """
    cols = len(a[0]) + 1
    rows = sparse_rows([[*row, -Fraction(v)] for row, v in zip(a, b)])
    red, pivots, _sign = _echelon(rows, range(cols))
    if pivots and pivots[-1] == cols - 1:
        return None
    return _dense(_kernel_vector(red, pivots, cols - 1), cols)[:-1]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError on a singular one.

    Column j is read from the kernel vector of [a | -I] whose free column is
    n + j.  a is invertible exactly when the free columns are n .. 2n - 1.
    """
    n = len(a)
    rows = sparse_rows([[*row, *(-int(i == j) for j in range(n))] for i, row in enumerate(a)])
    red, pivots, _sign = _echelon(rows, range(2 * n))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    columns = [_dense(_kernel_vector(red, pivots, n + j), 2 * n) for j in range(n)]
    return [[col[i] for col in columns] for i in range(n)]


# --- integer lattice routines -------------------------------------------

IMatrix = list[list[int]]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def smith_normal_form(a: IMatrix) -> tuple[IMatrix, IMatrix, IMatrix]:
    """Return (u, d, v) with u @ a @ v = d diagonal, u, v unimodular.

    Diagonal entries are nonnegative and satisfy d[i] | d[i+1].
    """
    d = [row[:] for row in a]
    n = len(d)
    m = len(d[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def combine_rows(i, j, col):
        """Unimodular transform making d[i][col] = gcd and d[j][col] = 0."""
        aa, bb = d[i][col], d[j][col]
        g, x, y = _exgcd(aa, bb)
        p, q = -bb // g, aa // g
        d[i], d[j] = (
            [x * r1 + y * r2 for r1, r2 in zip(d[i], d[j])],
            [p * r1 + q * r2 for r1, r2 in zip(d[i], d[j])],
        )
        u[i], u[j] = (
            [x * r1 + y * r2 for r1, r2 in zip(u[i], u[j])],
            [p * r1 + q * r2 for r1, r2 in zip(u[i], u[j])],
        )

    def combine_cols(i, j, row):
        aa, bb = d[row][i], d[row][j]
        g, x, y = _exgcd(aa, bb)
        p, q = -bb // g, aa // g
        for mat in (d, v):
            for r in mat:
                r[i], r[j] = x * r[i] + y * r[j], p * r[i] + q * r[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for mat in (d, v):
            for r in mat:
                r[i], r[j] = r[j], r[i]

    k = 0
    while k < min(n, m):
        piv = next(
            ((i, j) for i in range(k, n) for j in range(k, m) if d[i][j] != 0), None
        )
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            # Plain eliminations keep the pivot fixed and never re-dirty the
            # cleared line; gcd combines strictly shrink |pivot|, so the
            # loop terminates.
            for i in range(k + 1, n):
                if d[i][k] != 0:
                    if d[i][k] % d[k][k] == 0:
                        q = d[i][k] // d[k][k]
                        d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                    else:
                        combine_rows(k, i, k)
            for j in range(k + 1, m):
                if d[k][j] != 0:
                    if d[k][j] % d[k][k] == 0:
                        q = d[k][j] // d[k][k]
                        for mat in (d, v):
                            for r in mat:
                                r[j] -= q * r[k]
                    else:
                        combine_cols(k, j, k)
            if all(d[i][k] == 0 for i in range(k + 1, n)) and all(
                d[k][j] == 0 for j in range(k + 1, m)
            ):
                # divisibility fix-up: fold a bad row into the pivot row
                bad = next(
                    (
                        (i, j)
                        for i in range(k + 1, n)
                        for j in range(k + 1, m)
                        if d[k][k] != 0 and d[i][j] % d[k][k] != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                i_bad = bad[0]
                d[k] = [x + y for x, y in zip(d[k], d[i_bad])]
                u[k] = [x + y for x, y in zip(u[k], u[i_bad])]
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return u, d, v

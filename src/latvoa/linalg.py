"""Exact linear algebra over the rationals and integers.

Everything here works on plain lists of lists whose entries are ints or
Fractions (only ints for the lattice routines), and every result is exact;
the rational routines return Fractions.  Lattice matrices are small
(rank <= 8).  Stacked screening matrices have a few hundred columns, but a
screening maps momentum mu to mu + a, so they fall apart into many small
independent column blocks; `nullspace` finds those blocks and eliminates
each one on its own, which returns exactly the whole-matrix result.

There is one rational elimination, the Bareiss fraction-free echelon
(Bareiss, Math. Comp. 22, 1968) in `_fraction_free_echelon`, followed by
exact back substitution.  `nullspace`, `det`, `solve` and `inverse` all run
on it; the integer routines at the end (Hermite and Smith normal forms)
are unimodular and separate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


def frac_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


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


def _fraction_free_echelon(a: Matrix) -> tuple[list[list[int]], list[int], int, int]:
    """Bareiss fraction-free forward elimination of the integerized matrix.

    Rows are first scaled to integers (kernel unchanged); the one-step
    Bareiss update divides exactly by the previous pivot, so every
    intermediate entry is an exact integer.  Returns the echelon form, its
    pivot columns, the sign of the row permutation and the product of the
    row scales; for a square a of full rank the last pivot is sign * scale
    * det(a).
    """
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
    pivots: list[int] = []
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
        # every column left of c is zero from row r down (earlier pivot
        # columns were cleared at their own step, skipped columns were zero
        # already) and the update keeps it zero, so start at c + 1
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


def _kernel_vector(red: list[list[int]], pivots: list[int], cols: int, f: int) -> Row:
    """The kernel vector of free column f, by exact rational back
    substitution on the echelon form: v[f] = 1 and v[g] = 0 at every other
    free column g."""
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


def _echelon_kernel(a: Matrix, cols: int) -> list[tuple[int, Row]]:
    """(free column, kernel vector) pairs of a with the given column count,
    in ascending order of the free column."""
    red, pivots, _sign, _scale = _fraction_free_echelon(a)
    pivot_set = set(pivots)
    return [(f, _kernel_vector(red, pivots, cols, f)) for f in range(cols) if f not in pivot_set]


def nullspace(a: Matrix, ncols: int | None = None) -> list[Row]:
    """Basis of the right nullspace of a, one vector per free column.

    The columns are first split into blocks: two columns share a block when
    some row is nonzero in both (union-find over each row's support).  Each
    block is eliminated on its own rows, with its columns in ascending
    order, and its vectors are padded back to full width; zero rows are
    dropped and a column no row touches gives a unit vector.

    The output equals that of eliminating the whole matrix at once, order
    included.  Blocks share no rows, so a column is a pivot of a exactly
    when it is a pivot of its block; the vector of free column f is the
    unique kernel vector with v[f] = 1 and v[g] = 0 at every other free
    column g, and it is supported on f's block.  Vectors are returned in
    ascending order of their free column.
    """
    cols = len(a[0]) if a else ncols
    assert cols is not None
    parent = list(range(cols))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    supports = []
    for row in a:
        support = [j for j, x in enumerate(row) if x]
        if support:
            supports.append((row, support[0]))
            root = find(support[0])
            for j in support[1:]:
                other = find(j)
                if other != root:
                    parent[other] = root
    block_cols: dict[int, list[int]] = {}
    for j in range(cols):
        block_cols.setdefault(find(j), []).append(j)
    block_rows: dict[int, Matrix] = {root: [] for root in block_cols}
    for row, first in supports:
        block_rows[find(first)].append(row)
    basis = []
    for root, members in block_cols.items():
        sub = [[row[j] for j in members] for row in block_rows[root]]
        for f, vec in _echelon_kernel(sub, len(members)):
            v = [Fraction(0)] * cols
            for j, x in zip(members, vec):
                v[j] = x
            basis.append((members[f], v))
    basis.sort(key=lambda item: item[0])
    return [v for _f, v in basis]


def det(a: Matrix) -> Fraction:
    """Determinant of a square matrix: the sign of the row permutation
    times the last Bareiss pivot, over the product of the row scales.  It is
    0 below full rank and 1 for the 0 x 0 matrix."""
    n = len(a)
    red, pivots, sign, scale = _fraction_free_echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * red[n - 1][n - 1], scale) if n else Fraction(1)


def solve(a: Matrix, b: Sequence[Fraction]) -> Row | None:
    """A solution x of a @ x = b, or None if there is none.

    a may be singular or non-square.  x is the kernel vector of [a | -b]
    whose free column is the last one, cut to a's columns, so x is 0 at
    every free column of a.  There is no solution when the last column is
    a pivot, i.e. when b is not in the column span of a.
    """
    cols = len(a[0]) + 1
    red, pivots, _sign, _scale = _fraction_free_echelon(
        [[*row, -Fraction(v)] for row, v in zip(a, b)]
    )
    if pivots and pivots[-1] == cols - 1:
        return None
    return _kernel_vector(red, pivots, cols, cols - 1)[:-1]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError on a singular one.

    Column j is read from the kernel vector of [a | -I] whose free column is
    n + j.  a is invertible exactly when the free columns are n .. 2n - 1.
    """
    n = len(a)
    red, pivots, _sign, _scale = _fraction_free_echelon(
        [[*row, *(Fraction(-int(i == j)) for j in range(n))] for i, row in enumerate(a)]
    )
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    columns = [_kernel_vector(red, pivots, 2 * n, n + j) for j in range(n)]
    return [[col[i] for col in columns] for i in range(n)]


# --- integer lattice routines -------------------------------------------

IMatrix = list[list[int]]


def _swap_rows(m: IMatrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def hnf_row(a: IMatrix) -> IMatrix:
    """Row-style Hermite normal form of an integer matrix (copy).

    Result is upper triangular with positive pivots and entries above each
    pivot reduced into [0, pivot).  Zero rows sink to the bottom.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        _swap_rows(m, r, piv)
        # gcd out the column below the pivot
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                _swap_rows(m, r, i)
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m


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

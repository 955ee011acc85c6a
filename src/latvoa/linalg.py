"""Exact linear algebra over the rationals and integers.

Dense matrices are plain lists of lists whose entries are ints or
Fractions (only ints for the lattice routines), and every result is exact;
the rational routines return Fractions.  Lattice matrices are small
(rank <= 8).

The elimination works on sparse integer rows: a row is a dict
{column: int} of its nonzero entries.  `integer_row` scales a row by the
lcm of its denominators, which leaves its kernel unchanged, and
`sparse_rows` turns a dense matrix into such rows, dropping zero rows.
Stacked screening matrices have up to a few thousand columns but few
entries per row (a screening maps momentum mu to mu + a), so elimination
and back substitution visit only the rows that hold a column.

There is one elimination, `_echelon`: fraction-free, with every row kept
primitive (divided by its content; see Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, ch. 9) and a column -> rows index that
picks the sparsest holder of each column as its pivot.  `echelon`,
`nullity`, `nullspace`, `det`, `solve` and `inverse` all run on it; the
kernel vectors come from integer back substitution over a running
denominator, and the integer Smith normal form at the end is unimodular
and separate.  `nullspace` takes sparse integer rows and returns each
kernel vector as the sparse {column: Fraction} dict of its nonzero
entries; its output depends only on the row space, so the concatenated
echelons of several matrices give the kernel of their stacked rows.  The
tests hold it to a dense whole-matrix elimination and to the Bareiss
echelon (Bareiss, Math. Comp. 22, 1968) this module ran before.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
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
) -> tuple[list[SparseRow], list[int], list[tuple[int, int, int]]]:
    """Forward elimination of sparse integer rows over the given columns,
    which come in ascending order and cover every stored entry.

    Every row is kept primitive: it is divided by its content at the start
    and again after each update row <- (p/g)*row - (x/g)*pivot row, where p
    is the pivot, x the row's entry in the pivot column and g = gcd(p, x)
    with the sign of p, so the entries stay small.  A column -> rows index
    gives the rows that hold each column, and only those are visited.  The
    pivot row of a column is its sparsest holder, the first in input order
    among equals.  Zero rows are dropped.

    The pivot columns are those of every echelon form over the same column
    order: the columns that are not combinations of the columns before
    them.  Returns the pivot rows in pivot order, their pivot columns and
    where each pivot row came from, as (i, num, den): it is num/den times
    input row i plus multiples of the pivot rows before it.
    """
    m: dict[int, SparseRow] = {}
    scale: dict[int, list[int]] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            content = gcd(*row.values())
            m[i] = {j: x // content for j, x in row.items()}
            scale[i] = [1, content]
            for j in row:
                holders.setdefault(j, set()).add(i)
    red: list[SparseRow] = []
    pivots: list[int] = []
    sources: list[tuple[int, int, int]] = []
    for c in columns:
        if not m:
            break
        hold = holders.pop(c, None)
        if not hold:
            continue
        piv = min(hold, key=lambda i: (len(m[i]), i))
        hold.discard(piv)
        prow = m.pop(piv)
        p = prow[c]
        rest = [(j, z) for j, z in prow.items() if j != c]
        for j, _z in rest:
            holders[j].discard(piv)
        for i in hold:
            row = m[i]
            x = row.pop(c)
            g = gcd(p, x) if p > 0 else -gcd(p, x)
            a, b = p // g, x // g
            if a != 1:
                row = {j: a * y for j, y in row.items()}
                scale[i][0] *= a
            for j, z in rest:
                y = row.get(j, 0) - b * z
                if y:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    holders[j].discard(i)
            if not row:
                del m[i]
                continue
            content = gcd(*row.values())
            if content != 1:
                row = {j: y // content for j, y in row.items()}
                scale[i][1] *= content
            m[i] = row
        red.append(prow)
        pivots.append(c)
        sources.append((piv, *scale[piv]))
    return red, pivots, sources


def _kernel_vectors(
    red: Sequence[SparseRow], pivots: Sequence[int], free: Iterable[int]
) -> list[dict[int, Fraction]]:
    """The nonzero entries of the kernel vector of each given free column f
    of the echelon rows: v[f] = 1 and v[g] = 0 at every other free column.

    A column -> rows index gives the echelon rows that hold each column off
    their pivot.  Back substitution visits only the rows of the columns
    already set, in descending order, on integer numerators w = d * v over
    a running denominator d: when a pivot does not divide its row's sum, d
    and w take the missing factor, so every step divides exactly.  The
    entries come in ascending column order.
    """
    holders: dict[int, list[int]] = {}
    for r, (row, c) in enumerate(zip(red, pivots)):
        for j in row:
            if j != c:
                holders.setdefault(j, []).append(-r)
    vectors = []
    for f in free:
        d = 1
        w = {f: 1}
        todo = list(holders.get(f, ()))
        heapify(todo)
        last = 1
        while todo:
            key = heappop(todo)
            if key == last:
                continue  # rows come off in descending order, repeats together
            last = key
            r = -key
            row = red[r]
            total = sum(x * w[j] for j, x in row.items() if j in w)
            if total:
                c = pivots[r]
                p = row[c]
                g = gcd(total, p) if p > 0 else -gcd(total, p)
                q = p // g
                if q != 1:
                    w = {j: y * q for j, y in w.items()}
                    d *= q
                w[c] = -total // g
                for k in holders.get(c, ()):
                    heappush(todo, k)
        vectors.append({j: Fraction(w[j], d) for j in sorted(w)})
    return vectors


def echelon(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    """The primitive echelon rows of sparse integer rows over ncols columns
    (`_echelon`): a basis of their row space, as many rows as the rank."""
    return _echelon(rows, range(ncols))[0]


def nullity(rows: Sequence[SparseRow], ncols: int) -> int:
    """Dimension of the right nullspace of sparse integer rows over ncols
    columns: ncols minus the rank.  No kernel vector is built."""
    return ncols - len(echelon(rows, ncols))


def nullspace(a: Sequence[SparseRow], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace of the sparse integer rows a over ncols
    columns: per free column, in ascending order, the {column: Fraction}
    dict of the nonzero entries of its vector (`_kernel_vectors`).

    The output depends only on the row space of a: it fixes the pivot
    columns (`_echelon`) and, for each free column, the unique kernel
    vector of `_kernel_vectors`.  So any rows that span the same space, an
    echelon form of a among them, give the same basis.
    """
    red, pivots, _sources = _echelon(a, range(ncols))
    return _kernel_vectors(red, pivots, sorted(set(range(ncols)).difference(pivots)))


def det(a: Matrix) -> Fraction:
    """Determinant of a square matrix; 0 below full rank and 1 for the
    0 x 0 matrix.

    Each input row is scaled to integers and eliminated (`_echelon`).
    Adding multiples of other rows leaves the determinant alone, so it is
    the sign of the row permutation times the product of the pivots, over
    the product of every factor a row was scaled by.
    """
    n = len(a)
    rows = []
    scale = 1
    for row in a:
        srow, den = _scaled_row(enumerate(row))
        if not srow:
            return Fraction(0)
        rows.append(srow)
        scale *= den
    red, pivots, sources = _echelon(rows, range(n))
    if len(pivots) < n:
        return Fraction(0)
    order = [i for i, _num, _den in sources]
    top = (-1) ** sum(x > y for k, x in enumerate(order) for y in order[k + 1:])
    for row, c, (_i, num, den) in zip(red, pivots, sources):
        top *= row[c] * den
        scale *= num
    return Fraction(top, scale)


def solve(a: Matrix, b: Sequence[Fraction]) -> Row | None:
    """A solution x of a @ x = b, or None if there is none.

    a may be singular or non-square.  x is the kernel vector of [a | -b]
    whose free column is the last one, cut to a's columns, so x is 0 at
    every free column of a.  There is no solution when the last column is
    a pivot, i.e. when b is not in the column span of a.
    """
    cols = len(a[0]) + 1
    rows = sparse_rows([[*row, -Fraction(v)] for row, v in zip(a, b)])
    red, pivots, _sources = _echelon(rows, range(cols))
    if pivots and pivots[-1] == cols - 1:
        return None
    x = _kernel_vectors(red, pivots, [cols - 1])[0]
    return [x.get(j, Fraction(0)) for j in range(cols - 1)]


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raises ValueError on a singular one.

    Column j is read from the kernel vector of [a | -I] whose free column is
    n + j.  a is invertible exactly when the free columns are n .. 2n - 1.
    """
    n = len(a)
    rows = sparse_rows([[*row, *(-int(i == j) for j in range(n))] for i, row in enumerate(a)])
    red, pivots, _sources = _echelon(rows, range(2 * n))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    columns = _kernel_vectors(red, pivots, range(n, 2 * n))
    return [[col.get(i, Fraction(0)) for col in columns] for i in range(n)]


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

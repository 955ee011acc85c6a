"""Exact linear algebra over the rationals and integers: two primitives,
one job each.

Screening kernels run on sparse integer rows: a row is a dict
{column: int} of its nonzero entries.  Stacked screening matrices have up
to a few thousand columns but few entries per row (a screening maps
momentum mu to mu + a), so elimination and back substitution visit only
the rows that hold a column.  There is one elimination, `_echelon`:
fraction-free, with every row kept primitive (divided by its content; see
Geddes, Czapor and Labahn, Algorithms for Computer Algebra, ch. 9) and a
column -> rows index that picks the sparsest holder of each column as its
pivot.  `echelon` and `nullspace` run on it; the kernel vectors come from
integer back substitution over a running denominator.  `nullspace` takes
sparse integer rows and returns each kernel vector as the sparse
{column: Fraction} dict of its nonzero entries; its output depends only on
the row space, so the concatenated echelons of several matrices give the
kernel of their stacked rows.  The tests hold it to a dense whole-matrix
elimination and to the Bareiss echelon (Bareiss, Math. Comp. 22, 1968)
this module ran before.

Small dense lattice matrices (rank <= 8, plain lists of lists) go through
the integer Smith normal form u a v = diag(f) with u, v unimodular
(Cohen, A Course in Computational Algebraic Number Theory, 1993, 2.4.4).
It gives the module cosets of a screening lattice
(`lattice.quotient_group`), |det| as the product of the invariant factors
(`abs_det`) and the exact inverse of a rational matrix (`inverse`), whose
entries are Fractions; `smith_inverse` reads both the inverse and |det| of
an integer matrix off one Smith form.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, Sequence

Row = list[Fraction]
Matrix = list[Row]
SparseRow = dict[int, int]


# --- screening kernels: sparse integer rows -------------------------------


def _echelon(
    rows: Sequence[SparseRow], columns: Iterable[int]
) -> tuple[list[SparseRow], list[int]]:
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
    them.  Returns the pivot rows in pivot order and their pivot columns.
    """
    m: dict[int, SparseRow] = {}
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if row:
            content = gcd(*row.values())
            m[i] = {j: x // content for j, x in row.items()}
            for j in row:
                holders.setdefault(j, set()).add(i)
    red: list[SparseRow] = []
    pivots: list[int] = []
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
            m[i] = row
        red.append(prow)
        pivots.append(c)
    return red, pivots


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


def nullspace(a: Sequence[SparseRow], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace of the sparse integer rows a over ncols
    columns: per free column, in ascending order, the {column: Fraction}
    dict of the nonzero entries of its vector (`_kernel_vectors`).

    The output depends only on the row space of a: it fixes the pivot
    columns (`_echelon`) and, for each free column, the unique kernel
    vector of `_kernel_vectors`.  So any rows that span the same space, an
    echelon form of a among them, give the same basis.
    """
    red, pivots = _echelon(a, range(ncols))
    return _kernel_vectors(red, pivots, sorted(set(range(ncols)).difference(pivots)))


# --- small dense lattice matrices: the Smith normal form -----------------

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


def abs_det(a: IMatrix) -> int:
    """|det a| of a square integer matrix, the product of its invariant
    factors (`smith_normal_form`): 0 below full rank, 1 for the 0 x 0
    matrix."""
    _u, d, _v = smith_normal_form(a)
    return prod(d[k][k] for k in range(len(d)))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix, as Fractions; raises
    ValueError on a singular one.

    With L the lcm of the denominators, a = N / L for an integer matrix N,
    and a^-1 = L N^-1 (`smith_inverse`)."""
    den = lcm(*(x.denominator for row in a for x in row))
    return smith_inverse([[x.numerator * (den // x.denominator) for x in row] for row in a], den)[0]


def smith_inverse(a: IMatrix, scale: int = 1) -> tuple[Matrix, int]:
    """(scale * a^-1, |det a|) of a square integer matrix, both from one
    Smith form u a v = diag(f) (`smith_normal_form`); raises ValueError on
    a singular matrix.

    a^-1 = v diag(f)^-1 u, and every f_k divides the last invariant factor
    F, so entry (i, j) is the integer sum scale * sum_k v[i][k] (F / f_k)
    u[k][j] over F, one Fraction per entry.  |det a| is the product of the
    f_k, as in `abs_det`.
    """
    n = len(a)
    if not n:
        return [], 1
    u, d, v = smith_normal_form(a)
    top = d[-1][-1]
    if not top:
        raise ValueError("singular matrix")
    w = [scale * (top // d[k][k]) for k in range(n)]
    rows = [
        [Fraction(sum(vi[k] * w[k] * u[k][j] for k in range(n)), top) for j in range(n)]
        for vi in v
    ]
    return rows, prod(d[k][k] for k in range(n))

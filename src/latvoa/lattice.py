"""Rescaled screening lattices, conformal dimensions and coset arithmetic.

All momenta live in the ambient basis {a_i / sqrt(p)} where a_i are the
simple roots, so every inner product is an exact rational: the ambient Gram
matrix is gram(a_i, a_j) / p and sqrt(p) never appears unsquared.
Coordinates, and the term coefficients of `freefield`, are kept in one
canonical form (`canonical`, `canonical_scalar`): a plain int when
integral, a Fraction otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rootdata import RootSystem


def canonical(coords) -> tuple[int | Fraction, ...]:
    """The coordinate tuple with every integral entry as a plain int.

    Entries that are not integers stay Fractions.  Since n == Fraction(n)
    and both hash and sort alike, this changes no comparison, dict lookup
    or printed form; it only makes the tuple cheap to hash.
    """
    return tuple(x.numerator if x.denominator == 1 else x for x in coords)


def canonical_scalar(x):
    """One coefficient in the form of `canonical`: a plain int when x is
    integral, x itself (a Fraction) otherwise."""
    return x.numerator if x.denominator == 1 else x


def canonical_quotient(num, den: int):
    """num / den in the form of `canonical_scalar`; no Fraction is built
    when an int num is a multiple of den."""
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    return canonical_scalar(Fraction(num, den))


def common_numerators(values) -> tuple[int, list[int]]:
    """(d, [x * d for x in values]) with d the lcm of the denominators of
    the rational values, so that every x * d is an int."""
    values = list(values)
    d = math.lcm(*(x.denominator for x in values))
    return d, [_scaled(x, d) for x in values]


@dataclass(frozen=True)
class Momentum:
    """Ambient coordinates of a momentum: an int where the coordinate is
    integral and a Fraction otherwise (see `canonical`)."""

    coords: tuple[int | Fraction, ...]

    def __add__(self, other: "Momentum") -> "Momentum":
        return Momentum(canonical(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Momentum") -> "Momentum":
        return Momentum(canonical(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Momentum":
        return Momentum(canonical(-a for a in self.coords))

    def __rmul__(self, scalar) -> "Momentum":
        s = Fraction(scalar)
        return Momentum(canonical(s * a for a in self.coords))

    __mul__ = __rmul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __repr__(self) -> str:
        return "Momentum(" + ", ".join(str(c) for c in self.coords) + ")"


class MomentumSpace:
    """Rational quadratic space holding the ambient Gram matrix.

    `gram` is the matrix of Fractions; the pairing itself runs on integer
    numerators over one common denominator.
    """

    def __init__(self, gram: list[list[Fraction]], p: int):
        self.p = p
        self.rank = len(gram)
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self._den = math.lcm(*(x.denominator for row in self.gram for x in row))
        self._num = tuple(tuple(_scaled(x, self._den) for x in row) for row in self.gram)
        self._hash = hash((self.gram, self.p))

    def momentum(self, coords) -> Momentum:
        return Momentum(self.checked_coords(canonical(Fraction(x) for x in coords)))

    def checked_coords(self, coords):
        """coords itself, refused unless it has one entry per ambient
        direction."""
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return coords

    def zero(self) -> Momentum:
        return self.momentum([0] * self.rank)

    def basis_vector(self, i: int) -> Momentum:
        return self.momentum([int(j == i) for j in range(self.rank)])

    def pair_num(self, u, v):
        """sum u_i num_ij v_j for raw coordinate tuples: (u, v) times the
        common denominator of the Gram matrix, an int when u and v are
        integral."""
        total = 0
        for ui, row in zip(u, self._num):
            if ui:
                total += ui * sum(g * vj for g, vj in zip(row, v))
        return total

    def pair_coords(self, u, v) -> Fraction:
        """(u, v) for raw coordinate tuples, as a Fraction."""
        return Fraction(self.pair_num(u, v), self._den)

    def pair(self, u: Momentum, v: Momentum) -> Fraction:
        return self.pair_coords(u.coords, v.coords)

    def norm(self, u: Momentum) -> Fraction:
        return self.pair_coords(u.coords, u.coords)

    def __eq__(self, other) -> bool:
        """Equal p and Gram matrix, decided on the cached hash and the
        integer numerators: every job builds its own space, so a cache key
        from an earlier one is compared here, and no Fraction is."""
        return self is other or (
            isinstance(other, MomentumSpace)
            and self._hash == other._hash
            and self.p == other.p
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Coset:
    """A coset rep + span_Z(basis) inside a MomentumSpace.

    The basis is diagonal: basis[i] is L_i e_i with L_i > 0, as the long
    basis (2p/(a_i, a_i)) e_i is, so every coordinate reduces on its own.
    Any other basis is refused with a ValueError.
    """

    space: MomentumSpace
    rep: Momentum
    basis: tuple[Momentum, ...]

    def __post_init__(self):
        rank = len(self.space.checked_coords(self.rep.coords))
        if len(self.basis) != rank or any(
            len(b.coords) != rank
            or b.coords[i] <= 0
            or any(x for j, x in enumerate(b.coords) if j != i)
            for i, b in enumerate(self.basis)
        ):
            raise ValueError(
                "a coset basis must be a positive multiple of each ambient direction, in order"
            )

    def _steps(self):
        """The diagonal entries L_i of the basis."""
        return [b.coords[i] for i, b in enumerate(self.basis)]

    def contains(self, v: Momentum) -> bool:
        """Every v_i - rep_i is a multiple of L_i."""
        coords = self.space.checked_coords(v.coords)
        return all((a - r) % s == 0 for a, r, s in zip(coords, self.rep.coords, self._steps()))

    def canonical_rep(self) -> Momentum:
        """The representative reduced into the fundamental cell of the
        basis, coordinate by coordinate: rep_i mod L_i, which is rep minus
        floor(x_i) b_i for its basis coordinates x_i = rep_i / L_i.

        Every representative of the coset reduces to the same point, which
        is what equality testing and hashing rely on.
        """
        return Momentum(canonical(r % s for r, s in zip(self.rep.coords, self._steps())))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coset)
            and self.space == other.space
            and self.basis == other.basis
            and self.contains(other.rep)
        )

    def __hash__(self):
        return hash((self.space, self.basis, self.canonical_rep().coords))


@dataclass
class QuotientGroup:
    invariant_factors: list[int]
    coset_reps: list[Momentum]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


class ScreeningLattices:
    """All lattice data attached to a root system and an even level ell = 2p."""

    def __init__(self, rs: RootSystem, ell: int):
        if ell <= 0 or ell % 2 != 0:
            raise ValueError(f"level must be an even positive integer, got {ell}")
        for i in range(rs.rank):
            if ell % rs.gram[i][i] != 0:
                raise ValueError(
                    f"level {ell} is not divisible by (a_{i + 1}, a_{i + 1}) = {rs.gram[i][i]}"
                )
        self.rs = rs
        self.ell = ell
        self.p = ell // 2
        gram_ambient = [
            [Fraction(rs.gram[i][j], self.p) for j in range(rs.rank)] for i in range(rs.rank)
        ]
        self.space = MomentumSpace(gram_ambient, self.p)

        rank = rs.rank
        # short momenta -a_i/sqrt(p); ambient basis is a_i/sqrt(p) itself
        self.basis_short = tuple(
            self.space.momentum([-int(i == j) for j in range(rank)]) for i in range(rank)
        )
        # long momenta +a_i^v sqrt(p) = (2p/(a_i,a_i)) * e_i
        self.basis_long = tuple(
            self.space.momentum(
                [int(i == j) * (2 * self.p // rs.gram[i][i]) for j in range(rank)]
            )
            for i in range(rank)
        )
        # dual basis lambda_i / sqrt(p)
        self.basis_dual = tuple(self.space.momentum(list(w)) for w in rs.fund_weights)

        q_num = [self.p * rd - r for rd, r in zip(rs.rho_dual, rs.rho)]
        self.Q = self.space.momentum(q_num)
        self.central_charge = Fraction(rank) - 12 * self.space.norm(self.Q)

        self._check_invariants()

    # -- construction-time invariants --------------------------------
    def _check_invariants(self) -> None:
        """Decided on integer numerators: every momentum is written as
        (d, a) with coordinates a / d (`common_numerators`), and each
        pairing is `pair_num` over the Gram denominator g times the two d."""
        pair, g = self.space.pair_num, self.space._den
        qd, q = common_numerators(self.Q.coords)
        short, long, dual = (
            [common_numerators(v.coords) for v in vs]
            for vs in (self.basis_short, self.basis_long, self.basis_dual)
        )
        # h(a) = (a, a)/2 - (a, Q) = 1, times 2 g d^2 qd
        for kind, moms in (("short", short), ("long", long)):
            for i, (d, a) in enumerate(moms):
                if pair(a, a) * qd - 2 * d * pair(a, q) != 2 * g * d * d * qd:
                    raise AssertionError(f"h(a_{i + 1} {kind} momentum) != 1")
        for d, a in long:
            if pair(a, a) % (2 * g * d * d):
                raise AssertionError("long screening lattice is not even")
            for e, b in long:
                if pair(a, b) % (g * d * e):
                    raise AssertionError("long screening lattice is not integral")
        # dual basis pairs integrally (delta_ij style) with the long basis
        for i, (d, w) in enumerate(dual):
            for j, (e, b) in enumerate(long):
                if pair(w, b) != int(i == j) * g * d * e:
                    raise AssertionError("dual basis does not pair to identity with long basis")

    # -- conformal data ------------------------------------------------
    def conformal_dim(self, lam: Momentum) -> Fraction:
        """h(lam) = (lam,lam)/2 - (lam,Q) for the lowest state of V_lam."""
        return self.space.norm(lam) / 2 - self.space.pair(lam, self.Q)

    # -- cosets ----------------------------------------------------------
    def long_lattice_coset(self, rep: Momentum) -> Coset:
        return Coset(self.space, rep, self.basis_long)

    def module_cosets(self) -> QuotientGroup:
        return quotient_group(self)

    def named_cosets(self) -> dict[str, Coset]:
        """The Blue/Center/Green/Steinberg labels of the four-module theories.

        The module count is `num_simples`, the order of `module_cosets()`
        (which `lattice-info` checks), read without building the quotient."""
        count = num_simples(self.rs, self.ell)
        if count != 4:
            raise ValueError(
                f"named modules exist only for four-module data; this theory has {count}"
            )
        short = self.space.momentum(
            [int(j == self.rs.rank - 1) for j in range(self.rs.rank)]
        )
        return {
            "blue": self.long_lattice_coset(self.space.zero()),
            "center": self.long_lattice_coset(self.Q),
            "green": self.long_lattice_coset(short),
            "steinberg": self.long_lattice_coset(self.Q + short),
        }


# --- quotients ---------------------------------------------------------


def quotient_group(sl: ScreeningLattices) -> QuotientGroup:
    """The module cosets: the dual lattice over the long lattice, the
    discriminant group of the long lattice, by Smith normal form.

    The dual basis pairs to the identity with the long basis
    (`_check_invariants`), so a long vector's coordinates in the dual basis
    are its pairings with the long basis, and the relation matrix is the
    long lattice's integer Gram matrix.  With u G v = diag(f_i), the
    columns of u^-1 in the dual basis generate the quotient, with orders
    f_i.
    """
    space, dual = sl.space, sl.basis_dual
    gram = [
        [space.pair_num(a.coords, b.coords) // space._den for b in sl.basis_long]
        for a in sl.basis_long
    ]
    u, d_mat, _v = linalg.smith_normal_form(gram)
    diag = [d_mat[i][i] for i in range(len(d_mat))]
    u_inv = linalg.inverse(u)
    gens = [
        [sum(u_inv[k][i] * w.coords[r] for k, w in enumerate(dual)) for r in range(space.rank)]
        for i in range(len(dual))
    ]
    reps = [
        space.momentum([sum(c * g[r] for c, g in zip(combo, gens)) for r in range(space.rank)])
        for combo in itertools.product(*[range(f) for f in diag])
    ]
    return QuotientGroup(
        invariant_factors=[f for f in diag if f > 1], coset_reps=reps
    )


def num_simples(rs: RootSystem, ell: int) -> int:
    """|Lambda_W / Lambda_R| * prod_i ell / (a_i, a_i)."""
    for i in range(rs.rank):
        if ell % rs.gram[i][i] != 0:
            raise ValueError(f"level {ell} not divisible by (a_{i + 1}, a_{i + 1})")
    count = rs.fundamental_group_order
    for i in range(rs.rank):
        count *= ell // rs.gram[i][i]
    return count


# --- point enumeration (complete within a bound) -----------------------


def points_within(
    space: MomentumSpace,
    rep: Momentum,
    basis,
    center: Momentum,
    max_norm2: Fraction,
) -> list[tuple[Momentum, Fraction]]:
    """All v in rep + span_Z(basis) with (v-center, v-center) <= max_norm2,
    each as the pair (v, (v-center, v-center)).

    Complete Fincke-Pohst enumeration (Math. Comp. 44, 1985), in integers
    from setup to leaves.  rep, center and the basis are brought over one
    common denominator, and with t = rep - center and v = rep + sum_k n_k b_k
    the integer q(n) = |t + B n|^2 (times that denominator squared and the
    Gram matrix's own) is the quadratic form of the augmented Gram matrix
    of (b_0, .., b_{r-1}, t), read off `MomentumSpace.pair_num`.
    Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968),
    pivoting from the last index to the first, writes it with integer
    pivots p_k (p_r = 1) as

        q(n) = q_min + sum_k y_k^2 / (p_k p_{k+1}),
        y_k = p_k n_k - mid_k,

    where mid_k depends only on n_0 .. n_{k-1} and q_min is the corner of
    the eliminated matrix over p_0.  Coordinates are fixed depth-first from
    the first to the last, and each interval is cut against the remaining
    radius with integer square roots, so pruning loses no admissible point
    and admits no other: the remaining radius, an integer over one common
    denominator, never goes negative.  At a leaf it is exactly
    max_norm2 - |v - center|^2 over that denominator, which gives each
    point's squared distance.  The points of one distance share one
    Fraction, and equal coordinate numerators share one entry, an int when
    integral (`canonical`).  No floating point is involved, and no Fraction
    is built before a leaf.

    Points come in lexicographic order of their coordinates n.  rep,
    center and every basis vector must have one coordinate per ambient
    direction (`MomentumSpace.checked_coords`).
    """
    r = len(basis)
    vectors = [space.checked_coords(v.coords) for v in (rep, center, *basis)]
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    rep_num, centre_num, *columns = [[_scaled(x, den) for x in v] for v in vectors]
    t = [a - c for a, c in zip(rep_num, centre_num)]

    # Bareiss on the augmented Gram matrix, last pivot index first; row k
    # as it stands when k is the pivot holds mid_k's coefficients
    augmented = [*columns, t]
    m = [[space.pair_num(u, v) for v in augmented] for u in augmented]
    pivots = [0] * r
    prev = 1
    for k in reversed(range(r)):
        pivot, row = m[k][k], m[k]
        rest = [*range(k), r]
        for i in rest:
            mi, f = m[i], m[i][k]
            for j in rest:
                mi[j] = (pivot * mi[j] - f * row[j]) // prev
        pivots[k] = prev = pivot
    centre = [-m[k][r] for k in range(r)]
    coef = [[-x for x in m[k][:k]] for k in range(r)]

    # q(n) <= max_norm2 times the scale of q, over the common denominator
    # of the terms and of q_min (p_0 divides p_0 p_1) and max_norm2's own;
    # the radius drops by weight[k] y_k^2
    steps = [a * b for a, b in zip(pivots, [*pivots[1:], 1])]
    common = math.lcm(*steps)
    bound_den = max_norm2.denominator
    weight = [bound_den * (common // s) for s in steps]
    dist_den = bound_den * common * space._den * den * den
    bound_num = max_norm2.numerator * dist_den // bound_den
    radius = bound_num - bound_den * (common // prev) * m[r][r]
    if radius < 0:
        return []

    found = []
    distances: dict[int, Fraction] = {}
    entries: dict[int, int | Fraction] = {}
    n = [0] * r

    def entry(c: int) -> int | Fraction:
        value = entries.get(c)
        if value is None:
            value = entries[c] = canonical_quotient(c, den)
        return value

    def descend(k: int, rem: int, point: list[int]) -> None:
        if k < r:
            mid = centre[k] + sum(c * x for c, x in zip(coef[k], n))
            pivot, w, col = pivots[k], weight[k], columns[k]
            width = math.isqrt(rem // w)
            for x in range(-((width - mid) // pivot), (mid + width) // pivot + 1):
                n[k] = x
                off = pivot * x - mid
                descend(k + 1, rem - w * off * off, [a + x * b for a, b in zip(point, col)])
            return
        dist = distances.get(rem)
        if dist is None:
            dist = distances[rem] = Fraction(bound_num - rem, dist_den)
        found.append((Momentum(tuple(point) if den == 1 else tuple(map(entry, point))), dist))

    descend(0, radius, rep_num)
    return found


def _scaled(x: Fraction, denominator: int) -> int:
    """x * denominator as an int; denominator is a multiple of x's own."""
    return x.numerator * (denominator // x.denominator)


def groundstates(sl: ScreeningLattices, coset: Coset):
    """All coset representatives of minimal conformal dimension, and that h.

    Minimizing h(v) = (v-Q,v-Q)/2 - (Q,Q)/2 is the closest-vector problem
    for the point Q: the enumeration around Q reports each (v-Q, v-Q), and
    the least of them gives both the minima and h.
    """
    space = sl.space
    initial = coset.canonical_rep()
    bound = space.norm(initial - sl.Q)
    pts = points_within(space, coset.rep, coset.basis, sl.Q, bound)
    best = min(d for _v, d in pts)
    minima = sorted((v for v, d in pts if d == best), key=lambda v: v.coords)
    h = best / 2 - space.norm(sl.Q) / 2
    return minima, h


def phase_exponent(r) -> Fraction:
    """r reduced mod 2 into (-1, 1]: the exponent that names the phase
    e^{i pi r}.  This is the one reduction of a phase in the package: the
    quadratic form F and the residue weights (`vertexop._residue_weight`)
    reduce here, and the braiding exponents of `screening.braiding_matrix`
    reduce here to those of q_ij = e^{i pi (a_i, a_j)}."""
    r = Fraction(r) % 2
    return r - 2 if r > 1 else r


def quadratic_form_F(sl: ScreeningLattices, coset: Coset) -> Fraction:
    """The reduced exponent r (`phase_exponent`) of F([lam]) = e^{i pi r}.

    r = (lam - Q, lam - Q) - (Q, Q) = 2 h(lam); well-defined mod 2 on
    cosets of the even lattice.
    """
    return phase_exponent(2 * sl.conformal_dim(coset.canonical_rep()))

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
        return Momentum(canonical(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Momentum") -> "Momentum":
        return Momentum(canonical(a - b for a, b in zip(self.coords, other.coords)))

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
        c = canonical(Fraction(x) for x in coords)
        if len(c) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(c)}")
        return Momentum(c)

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
        return self is other or (
            isinstance(other, MomentumSpace) and self.gram == other.gram and self.p == other.p
        )

    def __hash__(self):
        return self._hash


def _basis_coords(basis, v: Momentum) -> list[Fraction] | None:
    """Rational coordinates of v in the given basis momenta, or None when v
    is not in their span."""
    return linalg.solve(linalg.transpose([list(b.coords) for b in basis]), list(v.coords))


@dataclass(frozen=True)
class Coset:
    """A coset rep + span_Z(basis) inside a MomentumSpace."""

    space: MomentumSpace
    rep: Momentum
    basis: tuple[Momentum, ...]

    def contains(self, v: Momentum) -> bool:
        sol = _basis_coords(self.basis, v - self.rep)
        return sol is not None and all(x.denominator == 1 for x in sol)

    def canonical_rep(self) -> Momentum:
        """The representative reduced into the fundamental cell of the
        basis: rep minus floor(x_i) b_i for its basis coordinates x_i.

        The basis must be a Z-basis of the lattice (linearly independent).
        Then every representative of the coset reduces to the same point,
        which is what equality testing and hashing rely on.
        """
        sol = _basis_coords(self.basis, self.rep)
        assert sol is not None
        shift = self.space.zero()
        for x, b in zip(sol, self.basis):
            shift = shift + Fraction(math.floor(x)) * b
        return self.rep - shift

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
        for i, a in enumerate(self.basis_short):
            if self.conformal_dim(a) != 1:
                raise AssertionError(f"h(a_{i + 1} short momentum) != 1")
        for i, a in enumerate(self.basis_long):
            if self.conformal_dim(a) != 1:
                raise AssertionError(f"h(a_{i + 1} long momentum) != 1")
        for a in self.basis_long:
            if self.space.norm(a).denominator != 1 or self.space.norm(a) % 2 != 0:
                raise AssertionError("long screening lattice is not even")
            for b in self.basis_long:
                if self.space.pair(a, b).denominator != 1:
                    raise AssertionError("long screening lattice is not integral")
        # dual basis pairs integrally (delta_ij style) with the long basis
        for i, w in enumerate(self.basis_dual):
            for j, b in enumerate(self.basis_long):
                val = self.space.pair(w, b)
                expected = Fraction(int(i == j))
                if val != expected:
                    raise AssertionError("dual basis does not pair to identity with long basis")

    # -- conformal data ------------------------------------------------
    def conformal_dim(self, lam: Momentum) -> Fraction:
        """h(lam) = (lam,lam)/2 - (lam,Q) for the lowest state of V_lam."""
        return self.space.norm(lam) / 2 - self.space.pair(lam, self.Q)

    # -- cosets ----------------------------------------------------------
    def long_lattice_coset(self, rep: Momentum) -> Coset:
        return Coset(self.space, rep, self.basis_long)

    def module_cosets(self) -> QuotientGroup:
        return quotient_group(self, self.basis_dual, self.basis_long)

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


def quotient_group(sl: ScreeningLattices, fine, coarse) -> QuotientGroup:
    """Quotient of span_Z(fine) by span_Z(coarse) via Smith normal form."""
    space = sl.space
    rel = []
    for c in coarse:
        sol = _basis_coords(fine, c)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise ValueError("coarse lattice is not contained in the fine lattice")
        rel.append([int(x) for x in sol])
    m = linalg.transpose(rel)  # columns = coarse vectors in fine coords
    u, d_mat, _v = linalg.smith_normal_form(m)
    diag = [d_mat[i][i] for i in range(len(d_mat))]
    if any(f == 0 for f in diag):
        raise ValueError("coarse lattice has lower rank than the fine lattice")
    u_inv = linalg.inverse(u)
    # columns of fine_mat @ u_inv generate the quotient with orders diag[i]
    fine_mat = linalg.transpose([list(b.coords) for b in fine])
    gen_mat = linalg.mat_mul(fine_mat, u_inv)
    reps = []
    for combo in itertools.product(*[range(f) for f in diag]):
        coords = [
            sum(gen_mat[r][i] * combo[i] for i in range(len(combo)))
            for r in range(space.rank)
        ]
        reps.append(space.momentum(coords))
    assert len(reps) == math.prod(diag)
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

    Complete Fincke-Pohst enumeration (Math. Comp. 44, 1985).  With
    t = rep - center and v = rep + sum_k n_k b_k, the exact split
    Gram = L^T D L (L unit lower triangular) gives
    |v - center|^2 = f_min + sum_k D_k (n_k - m_k)^2, where the centre m_k
    depends only on n_0 .. n_{k-1}.  Coordinates are fixed depth-first from
    the first to the last, and each interval is cut against the remaining
    radius with integer square roots, so pruning loses no admissible point
    and admits no other: the remaining radius, an integer over one common
    denominator, never goes negative.  At a leaf it is exactly
    max_norm2 - |v - center|^2 over that denominator, which gives each
    point's squared distance.  No floating point is involved.

    Points come in lexicographic order of their coordinates n.
    """
    r = len(basis)
    t = rep - center
    gram = [[space.pair(basis[i], basis[j]) for j in range(r)] for i in range(r)]
    lin = [space.pair(b, t) for b in basis]
    bound = Fraction(max_norm2)

    # Gram = L^T D L, then |t + B n|^2 = sum_k D_k (n_k - m_k)^2 + f_min
    low = [[Fraction(0)] * r for _ in range(r)]
    diag = [Fraction(0)] * r
    for k in reversed(range(r)):
        tail = range(k + 1, r)
        diag[k] = gram[k][k] - sum(diag[m] * low[m][k] ** 2 for m in tail)
        for i in range(k):
            low[k][i] = (
                gram[k][i] - sum(diag[m] * low[m][k] * low[m][i] for m in tail)
            ) / diag[k]
    # h solves L^T h = lin; m_k = -h_k / D_k - sum_{j<k} L_kj n_j
    h = [Fraction(0)] * r
    for k in reversed(range(r)):
        h[k] = lin[k] - sum(low[m][k] * h[m] for m in range(k + 1, r))
    radius = bound - space.norm(t) + sum(h[k] ** 2 / diag[k] for k in range(r))
    if radius < 0:
        return []

    # integer pruning: scale * m_k = centre[k] + sum_{j<k} coef[k][j] n_j, and
    # denom * (remaining radius) drops by weight[k] * (scale * (n_k - m_k))^2
    mu = [-h[k] / diag[k] for k in range(r)]
    scale = math.lcm(*(x.denominator for x in mu), *(x.denominator for row in low for x in row))
    centre = [_scaled(x, scale) for x in mu]
    coef = [[_scaled(-low[k][j], scale) for j in range(k)] for k in range(r)]
    steps = [d / scale**2 for d in diag]
    denom = math.lcm(radius.denominator, bound.denominator, *(x.denominator for x in steps))
    weight = [_scaled(x, denom) for x in steps]
    bound_num = _scaled(bound, denom)

    # point coordinates over one denominator, one column per ambient axis
    den = math.lcm(*(x.denominator for v in (rep, *basis) for x in v.coords))
    rep_num = [_scaled(x, den) for x in rep.coords]
    columns = [[_scaled(b.coords[a], den) for b in basis] for a in range(len(rep_num))]

    found = []
    n = [0] * r

    def descend(k: int, rem: int) -> None:
        if k < r:
            mid = centre[k] + sum(c * x for c, x in zip(coef[k], n))
            width = math.isqrt(rem // weight[k])
            for x in range(-((width - mid) // scale), (mid + width) // scale + 1):
                n[k] = x
                off = scale * x - mid
                descend(k + 1, rem - weight[k] * off * off)
            return
        point = Momentum(
            canonical(
                Fraction(c + sum(x * y for x, y in zip(n, col)), den)
                for c, col in zip(rep_num, columns)
            )
        )
        found.append((point, Fraction(bound_num - rem, denom)))

    descend(0, _scaled(radius, denom))
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


def quadratic_form_F(sl: ScreeningLattices, coset: Coset) -> Fraction:
    """Exponent r (mod 2, in (-1, 1]) of F([lam]) = e^{i pi r}.

    r = (lam - Q, lam - Q) - (Q, Q) = 2 h(lam); well-defined mod 2 on
    cosets of the even lattice.
    """
    lam = coset.canonical_rep()
    r = 2 * sl.conformal_dim(lam)
    r = r % 2
    if r > 1:
        r -= 2
    return r

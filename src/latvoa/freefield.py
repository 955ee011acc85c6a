"""The graded commutative Hopf algebra of differential polynomials times
exponentials: its states with product and derivation, the integer
numerators of a term dict (`_numerators`) that the closed forms of
`virasoro` and `screening` run on, and the two pieces of the coproduct
and the Hopf pairing that the mode engine runs on, the
coproduct splits of a monomial (`_mono_splits`) and the contraction
coefficient of two monomials (`_match_coefficient`).  The definitions
themselves, the pairing into Laurent polynomials and the coproduct of a
state, are test oracles outside the package.

A term is a pair (momentum coords, monomial) with a scalar coefficient.
The coords are in the canonical form of `lattice.canonical`: an int for
each integral coordinate, a Fraction otherwise.  The coefficients that the
constructors, the derivation and the pairings build follow the same rule
(`lattice.canonical_scalar`), so integral arithmetic stays on ints; sums
and products of elements keep whatever their operands give.  The
monomial is a sorted tuple of factors (order m, basis index i), one entry
per factor of the product of derivative generators of order m in the
i-th ambient direction; its total degree is the sum of the orders.
Derivative generators with arbitrary momentum are expanded over the
ambient basis before storage, so terms form an honest linear basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct

from .lattice import (
    Momentum,
    MomentumSpace,
    canonical,
    canonical_quotient,
    canonical_scalar,
    common_numerators,
)

Mono = tuple[tuple[int, int], ...]  # sorted ((order, index), ...)
TermKey = tuple[tuple[int | Fraction, ...], Mono]


def _accumulate(out: dict, key, val) -> None:
    """out[key] += val, dropping the entry when it cancels."""
    old = out.get(key)
    if old is None:
        if val:
            out[key] = val
        return
    new = old + val
    if new:
        out[key] = new
    else:
        del out[key]


def _merge_mono(a: Mono, b: Mono) -> Mono:
    return tuple(sorted(a + b))


def _mono_degree(mono: Mono) -> int:
    return sum(m for m, _ in mono)


def _canonical_terms(terms: dict) -> dict:
    """The term dict with every coefficient in canonical form."""
    return {k: canonical_scalar(c) for k, c in terms.items()}


def _numerators(terms: dict):
    """(d, [(key, c * d), ...]) with d the common denominator of the
    coefficients, so that every c * d is an int."""
    d, nums = common_numerators(terms.values())
    return d, list(zip(terms, nums))


_SPLIT_CACHE: dict[Mono, tuple] = {}


def _mono_splits(mono: Mono):
    """All coproduct splits (left, right, multiplicity, right degree) of a
    monomial.  A factor repeated n times contributes binomial(n, j) ways of
    sending j copies left."""
    hit = _SPLIT_CACHE.get(mono)
    if hit is not None:
        return hit
    distinct: list[tuple[tuple[int, int], int]] = []
    for f in mono:
        if distinct and distinct[-1][0] == f:
            distinct[-1] = (f, distinct[-1][1] + 1)
        else:
            distinct.append((f, 1))
    choices = [range(n + 1) for _, n in distinct]
    out = []
    for combo in iproduct(*choices):
        left: list[tuple[int, int]] = []
        right: list[tuple[int, int]] = []
        mult = 1
        for (f, n), j in zip(distinct, combo):
            left.extend([f] * j)
            right.extend([f] * (n - j))
            mult *= math.comb(n, j)
        out.append((tuple(left), tuple(right), mult, sum(m for m, _ in right)))
    result = tuple(out)
    _SPLIT_CACHE[mono] = result
    return result


class FieldElement:
    """Finite linear combination of terms u e^{phi_mom}."""

    __slots__ = ("space", "terms")

    def __init__(self, space: MomentumSpace, terms: dict[TermKey, object] | None = None):
        self.space = space
        self.terms: dict[TermKey, object] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[k] = c

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(space: MomentumSpace) -> "FieldElement":
        return FieldElement(space)

    @staticmethod
    def vacuum(space: MomentumSpace) -> "FieldElement":
        return FieldElement.exponential(space, space.zero())

    @staticmethod
    def exponential(space: MomentumSpace, mom: Momentum) -> "FieldElement":
        return FieldElement(space, {(mom.coords, ()): 1})

    @staticmethod
    def dphi(space: MomentumSpace, mom: Momentum, order: int = 1) -> "FieldElement":
        """The derivative generator of the given order and momentum,
        expanded linearly over the ambient basis."""
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        zero = space.zero().coords
        terms = {}
        for i, c in enumerate(mom.coords):
            if c:
                # the coefficient is the coordinate: an int when integral
                terms[(zero, ((order, i),))] = canonical_scalar(c)
        return FieldElement(space, terms)

    # -- ring structure ---------------------------------------------------
    def _check_space(self, other: "FieldElement") -> None:
        if self.space != other.space:
            raise ValueError("elements live over different lattices")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check_space(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return FieldElement(self.space, out)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.space, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check_space(other)
            out: dict[TermKey, object] = {}
            for (ma, ua), ca in self.terms.items():
                for (mb, ub), cb in other.terms.items():
                    key = (
                        canonical(x + y for x, y in zip(ma, mb)),
                        _merge_mono(ua, ub),
                    )
                    _accumulate(out, key, ca * cb)
            return FieldElement(self.space, out)
        if not other:
            return FieldElement.zero(self.space)
        return FieldElement(self.space, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FieldElement":
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.space == other.space
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    # -- Hopf structure -------------------------------------------------
    def derive(self) -> "FieldElement":
        """Hopf derivation: Leibniz on factors plus the exponential rule."""
        out: dict[TermKey, object] = {}
        for (mom, mono), c in self.terms.items():
            seen = set()
            for pos, (m, i) in enumerate(mono):
                if (m, i) in seen:
                    continue
                seen.add((m, i))
                mult = sum(1 for f in mono if f == (m, i))
                rest = list(mono)
                rest.remove((m, i))
                _accumulate(out, (mom, tuple(sorted(rest + [(m + 1, i)]))), c * mult)
            for i, x in enumerate(mom):
                if x:
                    _accumulate(out, (mom, _merge_mono(mono, ((1, i),))), c * x)
        return FieldElement(self.space, _canonical_terms(out))

    def __repr__(self) -> str:
        try:
            from .expr import format_state

            return f"<{format_state(self)}>"
        except ImportError:
            return f"FieldElement({self.terms!r})"


# --- base pairings -------------------------------------------------------
#
# The four generator pairings, extended to higher orders by equivariance:
# a derivation in the left slot acts as +d/dz on the value, in the right
# slot as -d/dz (signs forced by the four base values).  Each runs on the
# integer Gram numerators of the space and divides by their common
# denominator once, at the end.


def _over_den(space: MomentumSpace, num):
    """num / space._den in canonical form."""
    return canonical_quotient(num, space._den)


def _pp_coeff(space: MomentumSpace, f_left: tuple[int, int], f_right: tuple[int, int]):
    (m, i), (k, j) = f_left, f_right
    c = space._num[i][j]
    e = -2
    for _ in range(k - 1):  # right slot: -d/dz
        c *= -e
        e -= 1
    for _ in range(m - 1):  # left slot: +d/dz
        c *= e
        e -= 1
    return _over_den(space, c)


def _pe_coeff(space: MomentumSpace, f_left: tuple[int, int], beta):
    m, i = f_left
    c = sum(g * x for g, x in zip(space._num[i], beta))
    e = -1
    for _ in range(m - 1):
        c *= e
        e -= 1
    return _over_den(space, c)


def _ep_coeff(space: MomentumSpace, alpha, f_right: tuple[int, int]):
    k, j = f_right
    c = -sum(row[j] * x for row, x in zip(space._num, alpha))
    e = -1
    for _ in range(k - 1):
        c *= -e
        e -= 1
    return _over_den(space, c)


def _match_coefficient(space, fa: list, fb: list, alpha, beta):
    """Sum over partial matchings of the left factor list against the right.

    Every left factor pairs with one right factor or with e^{phi_beta};
    leftover right factors pair with e^{phi_alpha}.  The z-exponent is
    fixed by the total derivative order, so only the scalar is needed.
    """
    if not fa:
        total = 1
        for g in fb:
            total *= _ep_coeff(space, alpha, g)
            if not total:
                return 0
        return canonical_scalar(total)
    f, rest = fa[0], fa[1:]
    total = _pe_coeff(space, f, beta) * _match_coefficient(space, rest, fb, alpha, beta)
    for pos in range(len(fb)):
        c = _pp_coeff(space, f, fb[pos])
        if c:
            total += c * _match_coefficient(
                space, rest, fb[:pos] + fb[pos + 1 :], alpha, beta
            )
    return canonical_scalar(total)

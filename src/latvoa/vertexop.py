"""Mode operators of the vertex operator Y(a)b, and integer/fractional
residues.

Y(a)b = sum_k <a2, b2> * b1 * z^k/k! * d^k.a1 over the coproduct legs.
For a fixed output exponent the derivative index k is pinned by the
pairing exponent, so the engine (`_mode_terms`) sums the exact
coefficients of every target exponent in one pass over the legs.
`multi_mode_op`, `mode_op` and the integer `residue_op` run on it: the
generic route, and the test oracle of the closed forms of `virasoro` and
of the screenings.  No command runs it.

A screening's left side is a bare e^alpha, and the closed form of
Y(e^alpha, z) is one walk over the coproduct splits of a monomial
(`_contracted_splits`): `screening._closed_images` reads it for the
integer images and `residue_op` for the truncated fractional residue.
An integer residue needs every exponential pairing integral; one rule,
`_integral_pairing`, refuses a fractional one with one message.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .expr import format_momentum
from .freefield import (
    FieldElement,
    _accumulate,
    _match_coefficient,
    _merge_mono,
    _mono_degree,
    _mono_splits,
    _over_den,
)
from .lattice import (
    MomentumSpace,
    canonical,
    canonical_quotient,
    canonical_scalar,
    common_numerators,
    phase_exponent,
)

_DK_CACHE: dict = {}


def _dk_term(space: MomentumSpace, mom, mono, k: int):
    """Terms of d^k (mono e^{phi_mom}), without the 1/k! of the Taylor
    coefficient, cached incrementally.  Every term keeps the momentum mom;
    the coefficients are ints when mom is integral."""
    key = (space, mom, mono, k)
    hit = _DK_CACHE.get(key)
    if hit is not None:
        return hit
    if k == 0:
        result = {(mom, mono): 1}
    else:
        result = FieldElement(space, _dk_term(space, mom, mono, k - 1)).derive().terms
    _DK_CACHE[key] = result
    return result


def _contracted_splits(space: MomentumSpace, coords, monos) -> tuple[int, int, dict]:
    """The closed form of Y(e^alpha, z), alpha given by its coords, walked
    over the coproduct splits R of each mono of monos (`_mono_splits`).
    E^+(-alpha, z) contracts each factor (s, l) of R with -(s-1)!
    <alpha, e_l>, so a split weighs mult(R) times its contractions, c /
    D^len(mono) for an int c, and on mono e^mu gives (mono minus R)
    d^k e^alpha / k! at z^(<alpha, mu> - deg R + k).  Returns (da, D,
    {mono: [(mono minus R, deg R, c), ...]}) without the splits of c = 0:
    da is the common denominator of alpha, D = da times the Gram one."""
    da, scaled = common_numerators(coords)
    big_d = space._den * da
    g = [sum(x * row[l] for x, row in zip(scaled, space._num)) for l in range(space.rank)]
    out = {}
    for mono in monos:
        n = len(mono)
        splits = out[mono] = []
        for left, right, mult, deg in _mono_splits(mono):
            c = mult * big_d ** (n - len(right))
            for s, l in right:
                c *= -factorial(s - 1) * g[l]
            if c:
                splits.append((left, deg, c))
    return da, big_d, out


_MATCH_CACHE: dict = {}


def _mode_terms(a: FieldElement, b: FieldElement, targets) -> dict:
    """Core engine: the map {m: term dict} of the z^m coefficients of Y(a)b
    for the exponents m of targets (sorted, in canonical form) that some
    leg reaches, in the order they are first met.  Each coefficient is an
    exact sum, in canonical form: an int when integral, a Fraction
    otherwise, and zeros are dropped.  `_dk_term` leaves out the 1/k! of
    d^k, so each contribution through d^k is divided by k! as it is added.
    """
    space = a.space
    b_legs = [(beta, cb, _mono_splits(mono_b)) for (beta, mono_b), cb in b.terms.items()]
    out: dict[int | Fraction, dict] = {}
    for (alpha, mono_a), ca in a.terms.items():
        a_splits = _mono_splits(mono_a)
        for beta, cb, b_splits in b_legs:
            pab = _over_den(space, space.pair_num(alpha, beta))
            # d^k keeps the momentum alpha: every output term of this pair has alpha + beta
            mom = canonical(x + y for x, y in zip(beta, alpha))
            scale0 = ca * cb
            for a_left, a_right, mult_a, deg_ar in a_splits:
                for b_left, b_right, mult_b, deg_br in b_splits:
                    e_pair = pab - deg_ar - deg_br
                    ks = [k.numerator for k in (m - e_pair for m in targets) if k >= 0 and k.denominator == 1]
                    if not ks:
                        continue
                    mkey = (space, a_right, b_right, alpha, beta)
                    coeff = _MATCH_CACHE.get(mkey)
                    if coeff is None:
                        coeff = _MATCH_CACHE[mkey] = _match_coefficient(space, list(a_right), list(b_right), alpha, beta)
                    if not coeff:
                        continue
                    scale = scale0 * mult_a * mult_b * coeff
                    for k in ks:
                        bucket = out.setdefault(e_pair + k, {})
                        f = canonical_quotient(scale, factorial(k))
                        for (_mom, dmono), dc in _dk_term(space, alpha, a_left, k).items():
                            term_key = (mom, _merge_mono(b_left, dmono) if b_left else dmono)
                            bucket[term_key] = bucket.get(term_key, 0) + f * dc
    return {e: {key: canonical_scalar(c) for key, c in terms.items() if c} for e, terms in out.items()}


def multi_mode_op(a: FieldElement, ms, b: FieldElement) -> dict:
    """z^m coefficients of Y(a)b for every m in ms, in one pass, keyed by
    m in canonical form (an int when integral)."""
    a._check_space(b)
    targets = sorted({canonical_scalar(Fraction(m)) for m in ms})
    buckets = _mode_terms(a, b, targets)
    return {m: FieldElement(a.space, buckets.get(m, {})) for m in targets}


def mode_op(a: FieldElement, m, b: FieldElement) -> FieldElement:
    """The z^m coefficient of Y(a)b; exact for every rational m."""
    (coefficient,) = multi_mode_op(a, (m,), b).values()
    return coefficient


@dataclass
class FractionalResidue:
    """Truncated fractional residue: complex coefficients."""

    element_terms: dict
    truncation: int
    tail_scale: dict[int, float]


def _integral_pairing(space: MomentumSpace, ma, mb) -> int:
    """<ma, mb> for two momenta given as coordinate tuples.  This is the one
    integrality rule of the integer residue: a fractional pairing is
    refused, since its residue needs the fractional mode."""
    val = _over_den(space, space.pair_num(ma, mb))
    if val.denominator != 1:
        raise ValueError(
            f"pairing {val} of momenta {format_momentum(ma)} and "
            f"{format_momentum(mb)} is fractional; "
            "use fractional mode with a truncation bound"
        )
    return val


def _residue_weight(m) -> complex:
    """res z^m over one turn of z: 1 at m = -1, 0 at every other integer m,
    and (e^{2 i pi (m+1)} - 1)/(2 i pi (m+1)) at a fractional m.  This is
    the one complex value of the package.  The phase keeps its exponent
    exact (`lattice.phase_exponent`) up to this one conversion, and a
    reduced exponent of 0 or 1 gives the real phase 1 or -1."""
    if m.denominator == 1:
        return complex(m == -1)
    r = phase_exponent(2 * (m + 1))
    phase = complex(1 - 2 * r) if r.denominator == 1 else cmath.exp(1j * cmath.pi * float(r))
    return (phase - 1) / (2j * cmath.pi * float(m + 1))


def _residue_buckets(space: MomentumSpace, alpha, b: FieldElement, K: int):
    """(buckets, tail) of the truncated residue of Y(e^alpha) on b: buckets
    maps each exponent, in the order first met, to its exact coefficients
    over the whole of b (canonical, zeros dropped), from the closed form
    (`_contracted_splits`) on each term u e^mu of b.  At a fractional
    pairing <alpha, mu> each split keeps the first K terms of its k-sum,
    and at an integral one the one k that lands on z^{-1}.  tail maps each
    output degree to the weight of the first omitted term (k = K) of a
    fractional pairing."""
    _da, big_d, walks = _contracted_splits(space, alpha, {mono for _mu, mono in b.terms})
    buckets: dict = {}
    tail: dict[int, float] = {}
    for (mu, mono), cb in b.terms.items():
        p = _over_den(space, space.pair_num(alpha, mu))
        mom = canonical(x + y for x, y in zip(mu, alpha))
        fractional = p.denominator != 1
        if fractional:
            top = _mono_degree(mono) + K
            tail[top] = max(tail.get(top, 0.0), abs(_residue_weight(p + K)) / float(factorial(K)))
        den = big_d ** len(mono)
        for left, deg, c in walks[mono]:
            for k in range(K) if fractional else (deg - p - 1,):
                if k < 0:
                    continue
                bucket = buckets.setdefault(p - deg + k, {})
                f = canonical_quotient(cb * c, den * factorial(k))
                for (_mom, dmono), dc in _dk_term(space, alpha, (), k).items():
                    key = (mom, _merge_mono(left, dmono) if left else dmono)
                    bucket[key] = bucket.get(key, 0) + f * dc
    return {e: {key: canonical_scalar(c) for key, c in terms.items() if c} for e, terms in buckets.items()}, tail


def residue_op(a: FieldElement, b: FieldElement, truncate: int | None = None):
    """resY(a) b.

    Integer case (no `truncate`): requires every exponential pairing
    integral; the exact z^{-1} coefficient, on the generic engine.  For
    a = e^alpha this is the screening Z_alpha, which the package computes
    from its closed form (`screening.apply_screening`); this route is its
    test oracle.
    Fractional case (`screen-apply --fractional`): a must be a bare
    exponential e^alpha.  Each exponent's exact coefficients
    (`_residue_buckets`) are weighted by `_residue_weight` and summed as
    complex floats in the order the exponents are first met.
    """
    a._check_space(b)
    if truncate is None:
        for (ma, _u) in a.terms:
            for (mb, _v) in b.terms:
                _integral_pairing(a.space, ma, mb)
        return mode_op(a, -1, b)

    if truncate < 1:
        raise ValueError("fractional residues require a truncation bound >= 1")
    (alpha, mono_a), ca = next(iter(a.terms.items()), ((None, None), 0))
    if len(a.terms) != 1 or mono_a or ca != 1:
        raise ValueError("a truncated residue takes a bare exponential e^alpha on the left")
    buckets, tail = _residue_buckets(a.space, alpha, b, truncate)
    out: dict = {}
    for exponent, terms in buckets.items():
        weight = _residue_weight(exponent)
        for key, c in terms.items():
            # a sum that starts at 0: a -0.0 part prints as 0.0
            _accumulate(out, key, 0 + complex(c) * weight)
    return FractionalResidue(out, truncate, tail)

"""Mode operators of the vertex operator Y(a)b, and integer/fractional
residues.

Y(a)b = sum_k <a2, b2> * b1 * z^k/k! * d^k.a1 over the coproduct legs.
Every z-coefficient is a finite sum: for a fixed output exponent the
derivative index k is pinned by the pairing exponent.  The engine
(`_mode_numerators`) sums integer numerators and returns them: the
coefficients of a and b are brought over their common denominators, d^k
is kept without its 1/k!, and each exponent comes out as one denominator
with an int numerator per term.  Its callers divide: `multi_mode_op`
(with `mode_op` as its one-target case) and `residue_op` divide each
coefficient once (`_mode_terms`), and the screening table keeps the
numerators.  The whole series in a window, summed straight from the
definition, is a test oracle outside the package.

An integer residue needs every exponential pairing integral.  One rule,
`_integral_pairing`, checks that for `residue_op` and for the screening
images, and refuses a fractional pairing with one message.
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
)
from .scalars import Scalar

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


def _numerators(terms: dict):
    """(d, [(key, c * d), ...]) with d the common denominator of the
    coefficients, so that every c * d is an int."""
    d, nums = common_numerators(terms.values())
    return d, list(zip(terms, nums))


def _merged(per_k: dict, scale: int) -> tuple[int, dict]:
    """One exponent bucket from its numerators per derivative index k: each
    {term key: n} of index k stands for n / (scale * k!).  Returns (den,
    {term key: int}) over one positive denominator, zeros dropped and
    nothing reduced.  The indices are brought over the largest k!; where a
    numerator is a Fraction (the Gram matrix has a denominator), the
    bucket is brought over its common denominator."""
    top = max(per_k)
    if len(per_k) == 1:
        (merged,) = per_k.values()
    else:
        merged = {}
        for k, bucket in per_k.items():
            f = factorial(top) // factorial(k)
            for key, n in bucket.items():
                merged[key] = merged.get(key, 0) + f * n
    den = scale * factorial(top)
    merged = {key: n for key, n in merged.items() if n}
    if any(type(n) is not int for n in merged.values()):
        d, nums = common_numerators(merged.values())
        return den * d, dict(zip(merged, nums))
    return den, merged


def _divided(bucket: tuple[int, dict]) -> dict:
    """The term dict of one (den, {term key: int}) bucket, each coefficient
    divided once, in canonical form."""
    den, nums = bucket
    return {key: canonical_quotient(n, den) for key, n in nums.items()}


_MATCH_CACHE: dict = {}


def _mode_numerators(a: FieldElement, b: FieldElement, want):
    """Core engine: want(E) returns the iterable of derivative indices k to
    keep for a combination with pairing exponent E.  Returns the map
    {exponent E + k: (den, {term key: int})}, exponents in the order they
    are first met and in canonical form (an int when integral).  den is
    positive, no numerator is zero, and neither is reduced (`_merged`).

    Contributions are summed as numerators, one accumulator per (exponent,
    k): with da and db the common denominators of the coefficients of a
    and b, a contribution through d^k stands for its numerator over
    da * db * k!.
    """
    space = a.space
    da, a_terms = _numerators(a.terms)
    db, b_terms = _numerators(b.terms)
    b_legs = [
        (beta, not any(beta), cb, _mono_splits(mono_b)) for (beta, mono_b), cb in b_terms
    ]
    out: dict[int | Fraction, dict] = {}
    for (alpha, mono_a), ca in a_terms:
        alpha_zero = not any(alpha)
        a_splits = _mono_splits(mono_a)
        for beta, beta_zero, cb, b_splits in b_legs:
            pab = _over_den(space, space.pair_num(alpha, beta))
            # d^k keeps the momentum alpha: every output term of this pair has alpha + beta
            mom = canonical(x + y for x, y in zip(beta, alpha))
            scale0 = ca * cb
            for a_left, a_right, mult_a, deg_ar in a_splits:
                len_ar = len(a_right)
                for b_left, b_right, mult_b, deg_br in b_splits:
                    # a pure-exponential leg pairs to zero with any leftover
                    # primitive on the other side
                    if alpha_zero and len(b_right) > len_ar:
                        continue
                    if beta_zero and len_ar > len(b_right):
                        continue
                    e_pair = pab - deg_ar - deg_br
                    ks = want(e_pair)
                    if not ks:
                        continue
                    mkey = (space, a_right, b_right, alpha, beta)
                    coeff = _MATCH_CACHE.get(mkey)
                    if coeff is None:
                        coeff = _match_coefficient(
                            space, list(a_right), list(b_right), alpha, beta
                        )
                        _MATCH_CACHE[mkey] = coeff
                    if not coeff:
                        continue
                    scale = scale0 * mult_a * mult_b * coeff
                    for k in ks:
                        exponent = e_pair + k
                        per_k = out.get(exponent)
                        if per_k is None:
                            per_k = out[exponent] = {}
                        bucket = per_k.get(k)
                        if bucket is None:
                            bucket = per_k[k] = {}
                        for (_mom, dmono), dc in _dk_term(space, alpha, a_left, k).items():
                            term_key = (mom, _merge_mono(b_left, dmono) if b_left else dmono)
                            bucket[term_key] = bucket.get(term_key, 0) + scale * dc
    return {e: _merged(per_k, da * db) for e, per_k in out.items()}


def _mode_terms(a: FieldElement, b: FieldElement, want) -> dict:
    """{exponent: term dict} of `_mode_numerators`, every coefficient
    divided once and in canonical form: an int when integral, a Fraction
    otherwise."""
    return {e: _divided(bucket) for e, bucket in _mode_numerators(a, b, want).items()}


def multi_mode_op(a: FieldElement, ms, b: FieldElement) -> dict:
    """z^m coefficients of Y(a)b for every m in ms, in one pass, keyed by
    m in canonical form (an int when integral)."""
    a._check_space(b)
    targets = sorted({canonical_scalar(Fraction(m)) for m in ms})

    def want(e_pair):
        ks = []
        for m in targets:
            k = m - e_pair
            if k >= 0 and k.denominator == 1:
                ks.append(k.numerator)
        return tuple(ks)

    buckets = _mode_terms(a, b, want)
    return {m: FieldElement(a.space, buckets.get(m, {})) for m in targets}


def mode_op(a: FieldElement, m, b: FieldElement) -> FieldElement:
    """The z^m coefficient of Y(a)b; exact for every rational m."""
    (coefficient,) = multi_mode_op(a, (m,), b).values()
    return coefficient


@dataclass
class FractionalResidue:
    """Truncated fractional residue: complex coefficients, explicitly
    approximate."""

    element_terms: dict
    space: MomentumSpace
    truncation: int
    tail_scale: dict[int, float]
    approximate: bool = True

    def coefficient(self, term_key) -> complex:
        return complex(self.element_terms.get(term_key, 0))


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


def residue_op(a: FieldElement, b: FieldElement, truncate: int | None = None):
    """resY(a) b.

    Integer case (no `truncate`): requires every exponential pairing
    integral; equals the exact z^{-1} coefficient.  Fractional case (a
    `truncate` is given): the first `truncate` terms of each k-sum, with
    residue weights (e^{2 i pi m} - 1)/(2 i pi (m+1)) kept as exact phases
    until the final complex conversion.
    """
    a._check_space(b)
    if truncate is None:
        for (ma, _u) in a.terms:
            for (mb, _v) in b.terms:
                _integral_pairing(a.space, ma, mb)
        return mode_op(a, -1, b)

    if truncate < 1:
        raise ValueError("fractional residues require a truncation bound >= 1")
    K = truncate

    def want(e_pair):
        return tuple(range(K))

    buckets = _mode_terms(a, b, want)
    out: dict = {}
    tail: dict[int, float] = {}
    for exponent, terms in buckets.items():
        if exponent.denominator == 1:
            weight: complex | Fraction
            weight = Fraction(1) if exponent == -1 else Fraction(0)
        else:
            # res z^m for fractional m; the phase e^{2 i pi (m+1)} stays
            # exact until combined with 1/(2 i pi)
            phase = Scalar.phase(1, 2 * (exponent + 1))
            weight = (phase.to_complex() - 1) / (2j * cmath.pi * float(exponent + 1))
        if not weight:
            continue
        for key, c in terms.items():
            # a sum that starts at 0: a -0.0 part prints as 0.0
            _accumulate(out, key, 0 + complex(c) * complex(weight))
    # first omitted term scale per output degree (k = K contributions)
    for (alpha, mono_a), _ca in a.terms.items():
        for (beta, mono_b), _cb in b.terms.items():
            e0 = a.space.pair_coords(alpha, beta)
            m = e0 + K
            if m.denominator == 1:
                continue
            w = abs(
                (Scalar.phase(1, 2 * (m + 1)).to_complex() - 1)
                / (2j * cmath.pi * float(m + 1))
            ) / float(factorial(K))
            deg = _mono_degree(mono_a) + _mono_degree(mono_b) + K
            tail[deg] = max(tail.get(deg, 0.0), w)
    return FractionalResidue(out, a.space, K, tail)

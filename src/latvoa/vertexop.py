"""Mode operators of the vertex operator Y(a)b, and integer/fractional
residues.

Y(a)b = sum_k <a2, b2> * b1 * z^k/k! * d^k.a1 over the coproduct legs.
Every z-coefficient is a finite sum: for a fixed output exponent the
derivative index k is pinned by the pairing exponent.  The engine
(`_mode_terms`) makes one pass over the legs and sums the exact
coefficients of every wanted exponent.  `multi_mode_op` (with `mode_op`
as its one-target case) and `residue_op` run on it; they are the generic
route, and the test oracle of both closed forms in the package: the
Virasoro rows of `virasoro` and the screening images of
`screening._closed_images`, whose left side is a bare exponential.  The
command line runs the engine only for a fractional residue.  The whole
series in a window, summed straight from the definition, is a test
oracle outside the package.

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


_MATCH_CACHE: dict = {}


def _mode_terms(a: FieldElement, b: FieldElement, want) -> dict:
    """Core engine: want(E) returns the iterable of derivative indices k to
    keep for a combination with pairing exponent E.  Returns the map
    {exponent E + k: term dict}, exponents in the order they are first met
    and in canonical form (an int when integral).  Each coefficient is an
    exact sum, in canonical form: an int when integral, a Fraction
    otherwise, and zeros are dropped.  `_dk_term` leaves out the 1/k! of
    d^k, so each contribution through d^k is divided by k! as it is added.
    """
    space = a.space
    b_legs = [
        (beta, not any(beta), cb, _mono_splits(mono_b)) for (beta, mono_b), cb in b.terms.items()
    ]
    out: dict[int | Fraction, dict] = {}
    for (alpha, mono_a), ca in a.terms.items():
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
                        bucket = out.setdefault(e_pair + k, {})
                        f = canonical_quotient(scale, factorial(k))
                        for (_mom, dmono), dc in _dk_term(space, alpha, a_left, k).items():
                            term_key = (mom, _merge_mono(b_left, dmono) if b_left else dmono)
                            bucket[term_key] = bucket.get(term_key, 0) + f * dc
    return {
        e: {key: canonical_scalar(c) for key, c in terms.items() if c} for e, terms in out.items()
    }


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
    truncation: int
    tail_scale: dict[int, float]
    approximate: bool = True


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


def residue_op(a: FieldElement, b: FieldElement, truncate: int | None = None):
    """resY(a) b on the generic engine (`_mode_terms`).

    Integer case (no `truncate`): requires every exponential pairing
    integral; equals the exact z^{-1} coefficient.  For a = e^alpha this is
    the screening Z_alpha, which the package computes from its closed form
    (`screening.apply_screening`); this route is its test oracle.
    Fractional case (a `truncate` is given): the first `truncate` terms of
    each k-sum, each z^m weighted by `_residue_weight(m)`, summed as complex
    floats in the order the engine first meets the exponents; the tail
    scale of each output degree is the weight of the first omitted term
    (k = `truncate`).  `screen-apply --fractional` runs this case.
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
        weight = _residue_weight(exponent)
        if not weight:
            continue
        for key, c in terms.items():
            # a sum that starts at 0: a -0.0 part prints as 0.0
            _accumulate(out, key, 0 + complex(c) * weight)
    for (alpha, mono_a), _ca in a.terms.items():
        for (beta, mono_b), _cb in b.terms.items():
            m = a.space.pair_coords(alpha, beta) + K
            if m.denominator == 1:
                continue
            w = abs(_residue_weight(m)) / float(factorial(K))
            deg = _mono_degree(mono_a) + _mono_degree(mono_b) + K
            tail[deg] = max(tail.get(deg, 0.0), w)
    return FractionalResidue(out, K, tail)

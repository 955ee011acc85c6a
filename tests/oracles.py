"""The free-field definitions, summed straight from their formulas, as test
oracles for the engine.

The Hopf pairing, the coproduct and the vertex operator Y(a)b are the
definitions that the screening kernels and the Virasoro checks rest on.
The package computes with faster forms of them (contraction coefficients,
cached coproduct splits, one engine pass per exponent window); this module
writes them out again, independently, so the tests can hold the engine to
them.  It uses only the public interface of `latvoa`: states
(`FieldElement` with its product and derivation), momenta and the Gram
matrix of Fractions.  `tests/test_oracles.py` checks that it imports no
underscore-prefixed name and reads no private attribute.

- `pair(a, b)`: the Hopf pairing by the Wick rule.  Its value is a Laurent
  polynomial in z with rational exponents, a plain {exponent: coefficient}
  dict with no zero coefficient.
- `coproduct(a)`: the coproduct as a binomial split, every subset of the
  factors of a monomial sent left.
- `vertex_op(a, b, window)`: Y(a)b = sum <a2, b2> b1 z^k/k! d^k a1 over the
  coproduct legs, every coefficient with exponent in the window.
- `n0_degrees`, `momenta`, `conformal_weights`: gradings of a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from latvoa.freefield import FieldElement
from latvoa.lattice import Momentum


# --- Laurent polynomials as {exponent: coefficient} dicts -------------------


def laurent_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def laurent_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def laurent_scale(p: dict, s) -> dict:
    return {e: c * s for e, c in p.items() if c * s}


def d_dz(p: dict) -> dict:
    return {e - 1: c * e for e, c in p.items() if e}


# --- the Hopf pairing ---------------------------------------------------------


def degree(mono) -> int:
    """Total derivative order of a monomial."""
    return sum(order for order, _i in mono)


def _gram_pair(space, u, v) -> Fraction:
    """(u, v) for two coordinate tuples, from the Gram matrix of Fractions."""
    return sum((x * g * y for x, row in zip(u, space.gram) if x for g, y in zip(row, v)), Fraction(0))


def _unit(space, i: int) -> tuple:
    return tuple(int(j == i) for j in range(space.rank))


def _slot_derivatives(value: dict, left: int, right: int) -> dict:
    """A derivation in the left slot acts on the value as +d/dz, one in the
    right slot as -d/dz."""
    for _ in range(left):
        value = d_dz(value)
    for _ in range(right):
        value = laurent_scale(d_dz(value), -1)
    return value


def _factor_factor(space, f, g) -> dict:
    """<d^m phi_i, d^k phi_j> from <d phi_i, d phi_j> = G_ij z^-2."""
    (m, i), (k, j) = f, g
    return _slot_derivatives({-2: space.gram[i][j]}, m - 1, k - 1)


def _factor_exp(space, f, beta) -> dict:
    """<d^m phi_i, e^beta> from <d phi_i, e^beta> = (a_i, beta) z^-1."""
    m, i = f
    return _slot_derivatives({-1: _gram_pair(space, _unit(space, i), beta)}, m - 1, 0)


def _exp_factor(space, alpha, g) -> dict:
    """<e^alpha, d^k phi_j> from <e^alpha, d phi_j> = -(alpha, a_j) z^-1."""
    k, j = g
    return _slot_derivatives({-1: -_gram_pair(space, alpha, _unit(space, j))}, 0, k - 1)


def _matchings(n_left: int, n_right: int):
    """Every partial injection of the left factors into the right ones:
    a tuple with one right position or None per left factor."""
    for choice in product([None, *range(n_right)], repeat=n_left):
        taken = [t for t in choice if t is not None]
        if len(taken) == len(set(taken)):
            yield choice


def pair_terms(space, term_a, term_b) -> dict:
    """<u e^alpha, v e^beta> by the Wick rule: z^(alpha, beta) times the sum
    over matchings, where every left factor pairs with one right factor or
    with e^beta, and every right factor left over pairs with e^alpha."""
    (alpha, u), (beta, v) = term_a, term_b
    with_beta = [_factor_exp(space, f, beta) for f in u]
    with_alpha = [_exp_factor(space, alpha, g) for g in v]
    with_factor = [[_factor_factor(space, f, g) for g in v] for f in u]
    exponentials = {_gram_pair(space, alpha, beta): Fraction(1)}
    total: dict = {}
    for choice in _matchings(len(u), len(v)):
        value = exponentials
        for s, t in enumerate(choice):
            value = laurent_mul(value, with_beta[s] if t is None else with_factor[s][t])
        for t in range(len(v)):
            if t not in choice:
                value = laurent_mul(value, with_alpha[t])
        total = laurent_add(total, value)
    return total


def pair(a: FieldElement, b: FieldElement) -> dict:
    """The Hopf pairing <a, b>, bilinear over the terms."""
    if a.space != b.space:
        raise ValueError("elements live over different lattices")
    total: dict = {}
    for ta, ca in a.terms.items():
        for tb, cb in b.terms.items():
            total = laurent_add(total, laurent_scale(pair_terms(a.space, ta, tb), ca * cb))
    return total


# --- the coproduct -------------------------------------------------------------


def coproduct(a: FieldElement) -> dict:
    """Delta(u e^alpha) = sum over subsets S of the factors of u of
    u_S e^alpha (x) u_(not S) e^alpha: e^alpha is grouplike and every
    factor primitive.  Keyed by (left term, right term); a factor repeated
    n times gives binomial(n, j) equal keys with j copies left."""
    out: dict = {}
    for (mom, mono), c in a.terms.items():
        for sides in product((0, 1), repeat=len(mono)):
            left = tuple(f for f, s in zip(mono, sides) if s == 0)
            right = tuple(f for f, s in zip(mono, sides) if s == 1)
            key = ((mom, left), (mom, right))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# --- the vertex operator ---------------------------------------------------------


@dataclass
class StateSeries:
    """Coefficients of Y(a)b for every exponent inside an explicit window."""

    space: object
    window: tuple[Fraction, Fraction]
    coeffs: dict[Fraction, FieldElement] = field(default_factory=dict)

    def coefficient(self, exponent) -> FieldElement:
        e = Fraction(exponent)
        lo, hi = self.window
        if not (lo <= e <= hi):
            raise ValueError(f"exponent {e} outside computed window [{lo}, {hi}]")
        return self.coeffs.get(e, FieldElement.zero(self.space))

    def support(self) -> list[Fraction]:
        return sorted(e for e, c in self.coeffs.items() if not c.is_zero())


def vertex_op(a: FieldElement, b: FieldElement, window) -> StateSeries:
    """Every coefficient of Y(a)b = sum <a2, b2> b1 z^k/k! d^k a1 with
    exponent in the window [lo, hi], summed over the coproduct legs of a
    and b term by term."""
    if a.space != b.space:
        raise ValueError("elements live over different lattices")
    space = a.space
    lo, hi = Fraction(window[0]), Fraction(window[1])
    coeffs: dict[Fraction, FieldElement] = {}
    for (a1, a2), ca in coproduct(a).items():
        for (b1, b2), cb in coproduct(b).items():
            for e, c in pair_terms(space, a2, b2).items():
                k = max(0, math.ceil(lo - e))
                dk = FieldElement(space, {a1: 1})
                for _ in range(k):
                    dk = dk.derive()
                while e + k <= hi:
                    term = FieldElement(space, {b1: 1}) * dk * (ca * cb * Fraction(c, math.factorial(k)))
                    exponent = Fraction(e + k)
                    coeffs[exponent] = coeffs.get(exponent, FieldElement.zero(space)) + term
                    dk = dk.derive()
                    k += 1
    return StateSeries(space, (lo, hi), coeffs)


# --- gradings ---------------------------------------------------------------------


def n0_degrees(elem: FieldElement) -> set[int]:
    return {degree(mono) for (_mom, mono) in elem.terms}


def momenta(elem: FieldElement) -> set[tuple]:
    return {mom for (mom, _mono) in elem.terms}


def conformal_weights(elem: FieldElement, sl) -> set[Fraction]:
    """The h-values h(momentum) + degree of the terms."""
    return {sl.conformal_dim(Momentum(mom)) + degree(mono) for (mom, mono) in elem.terms}

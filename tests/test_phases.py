"""Phases as exponents.  `lattice.phase_exponent` is the one reduction of
a phase e^{i pi r}, and `vertexop._residue_weight` the one residue weight,
the only complex number the package makes."""

import cmath
import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from latvoa.lattice import phase_exponent
from latvoa.vertexop import _residue_weight


def phase_formula_weight(m: Fraction) -> complex:
    """(e - 1)/(2 pi i (m+1)) with e = mag * e^{i pi r'}: r' is 2(m+1)
    reduced mod 2 into (-1, 1], and (mag, r') collapses to (1, 0) at r' = 0
    and to (-1, 0) at r' = 1."""
    r = Fraction(2 * (m + 1)) % 2
    if r > 1:
        r -= 2
    mag = 1
    if r == 1:
        mag, r = -1, Fraction(0)
    e = complex(mag) * cmath.exp(1j * cmath.pi * float(r))
    return (e - 1) / (2j * cmath.pi * float(m + 1))


def same_float(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_residue_weight_equals_the_phase_formula_bit_for_bit():
    ms = sorted({Fraction(p, q) for q in range(2, 13) for p in range(-48, 49) if p % q})
    collapsed = 0
    for m in ms:
        got, want = _residue_weight(m), phase_formula_weight(m)
        assert same_float(got.real, want.real) and same_float(got.imag, want.imag), m
        collapsed += (2 * m).denominator == 1
    assert 0 < collapsed < len(ms)  # half-integers take the real phase -1


def test_residue_weight_of_an_integer_exponent():
    assert _residue_weight(-1) == _residue_weight(Fraction(-1)) == 1
    assert not any(_residue_weight(m) for m in range(-6, 6) if m != -1)


@given(st.fractions())
def test_phase_exponent_reduces_mod_2(r):
    s = phase_exponent(r)
    assert isinstance(s, Fraction)
    assert -1 < s <= 1
    assert ((r - s) / 2).denominator == 1


def test_phase_exponent_ends_of_the_interval():
    assert phase_exponent(1) == phase_exponent(-1) == phase_exponent(3) == 1
    assert phase_exponent(2) == phase_exponent(-2) == 0
    assert phase_exponent(Fraction(5, 4)) == Fraction(-3, 4)

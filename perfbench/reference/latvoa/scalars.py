"""Tiered scalar values: exact rationals, exact phases, complex floats.

A phase scalar is mag * e^{i pi r} with rational mag and r; r is reduced
mod 2 into (-1, 1], and r in {0, 1} collapses to the rational tier.
Addition never promotes silently: summing unequal phases raises, and
callers opt into floats via to_complex().  Complex values appear only on
the fractional-residue path.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction


class TierError(TypeError):
    """Raised when an operation would silently leave the exact tiers."""


@dataclass(frozen=True)
class Scalar:
    mag: Fraction
    phase_exponent: Fraction  # e^{i pi r}; 0 for plain rationals

    @staticmethod
    def rational(x) -> "Scalar":
        return Scalar(Fraction(x), Fraction(0))

    @staticmethod
    def phase(mag, r) -> "Scalar":
        mag = Fraction(mag)
        r = Fraction(r) % 2
        if mag == 0:
            return Scalar(Fraction(0), Fraction(0))
        if r == 0:
            return Scalar(mag, Fraction(0))
        if r == 1:
            return Scalar(-mag, Fraction(0))
        if r > 1:
            r -= 2
        if mag < 0:
            mag, r = -mag, r - 1 if r > 0 else r + 1
        return Scalar(mag, r)

    @property
    def is_rational(self) -> bool:
        return self.phase_exponent == 0

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar.phase(self.mag * other.mag, self.phase_exponent + other.phase_exponent)
        return Scalar.phase(self.mag * Fraction(other), self.phase_exponent)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.mag, self.phase_exponent)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.rational(other)
        if self.mag == 0:
            return other
        if other.mag == 0:
            return self
        if self.phase_exponent == other.phase_exponent:
            return Scalar.phase(self.mag + other.mag, self.phase_exponent)
        raise TierError(
            "sum of unequal phases is not exactly representable; "
            "use to_complex() to opt into floating point"
        )

    def to_complex(self) -> complex:
        return complex(self.mag) * cmath.exp(1j * cmath.pi * float(self.phase_exponent))

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise TierError(f"{self} is not rational")
        return self.mag

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.mag)
        if self.mag == 1:
            return f"e^(i pi {self.phase_exponent})"
        return f"{self.mag} e^(i pi {self.phase_exponent})"

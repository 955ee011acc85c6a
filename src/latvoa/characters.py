"""Exact truncated q-series: eta powers, lattice-coset theta functions,
module graded dimensions, symplectic-fermion characters, and the matching
of kernel dimensions against those characters.

Coefficients are ints when integral and Fractions otherwise.  Two series
are combined on one grid: the rational gcd of their steps (and offset
difference), on which every exponent of either is an integer position."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .lattice import Coset, Momentum, ScreeningLattices, canonical_scalar, points_within
from .screening import kernel_report, short_screening_set


def _rational_gcd(*xs) -> Fraction:
    """The largest rational g >= 0 of which every x is an integer multiple
    (0 when every x is 0)."""
    g = Fraction(0)
    for x in xs:
        x = Fraction(x)
        g = Fraction(
            gcd(g.numerator * x.denominator, x.numerator * g.denominator),
            g.denominator * x.denominator,
        )
    return g


@dataclass(frozen=True)
class QSeries:
    """sum_i coeffs[i] * t^(offset + i * step), exact up to the last entry.

    Coefficients are ints when integral (as `lattice.canonical_scalar`
    makes them) and Fractions otherwise; offset and step are Fractions.
    Series on different grids meet on one finer grid (`_on_grid`), where
    every exponent is an integer position."""

    offset: Fraction
    coeffs: tuple
    step: Fraction = Fraction(1)

    @staticmethod
    def make(offset, coeffs, step=1) -> "QSeries":
        coeffs = tuple(canonical_scalar(Fraction(c)) for c in coeffs)
        return QSeries(Fraction(offset), coeffs, Fraction(step))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def end_exponent(self) -> Fraction:
        """Largest exponent whose coefficient is known exactly."""
        return self.offset + self.order * self.step

    def coefficient_at(self, exponent):
        e = Fraction(exponent)
        pos = (e - self.offset) / self.step
        if pos.denominator != 1 or pos < 0:
            return 0
        if pos > self.order:
            raise ValueError(f"exponent {e} beyond computed order")
        return self.coeffs[int(pos)]

    def normalized(self) -> "QSeries":
        """Strip leading zero coefficients into the offset."""
        i = 0
        while i < len(self.coeffs) and self.coeffs[i] == 0:
            i += 1
        if i == 0:
            return self
        if i == len(self.coeffs):
            return QSeries(self.offset, (), self.step)
        return QSeries(self.offset + i * self.step, self.coeffs[i:], self.step)

    # -- arithmetic -----------------------------------------------------
    def _on_grid(self, offset: Fraction, step: Fraction, n: int) -> list:
        """The coefficients at offset + i * step for i = 0..n, zero where
        this series has no exponent.  This series' exponents must lie on
        that grid: it starts at an integer position and steps by an integer
        stride."""
        start = (self.offset - offset) / step
        stride = self.step / step
        if start.denominator != 1 or stride.denominator != 1:
            raise ValueError("series offsets are incommensurable")
        start, stride = int(start), int(stride)
        out = [0] * (n + 1)
        for k, c in enumerate(self.coeffs):
            pos = start + k * stride
            if pos > n:
                break
            if pos >= 0:
                out[pos] = c
        return out

    def __add__(self, other):
        if not isinstance(other, QSeries):
            raise TypeError("add QSeries to QSeries")
        step = _rational_gcd(self.step, other.step)
        offset = min(self.offset, other.offset)
        n = int((min(self.end_exponent, other.end_exponent) - offset) / step)
        a = self._on_grid(offset, step, n)
        b = other._on_grid(offset, step, n)
        return QSeries(offset, tuple(canonical_scalar(x + y) for x, y in zip(a, b)), step)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, QSeries):
            step = _rational_gcd(self.step, other.step)
            sa, sb = int(self.step / step), int(other.step / step)
            # relative accuracy: each factor exact through its own order
            n = min(self.order * sa, other.order * sb)
            out = [0] * (n + 1)
            for ia, a in zip(range(0, n + 1, sa), self.coeffs):
                if a:
                    for pos, b in zip(range(ia, n + 1, sb), other.coeffs):
                        if b:
                            out[pos] += a * b
            return QSeries(self.offset + other.offset, tuple(map(canonical_scalar, out)), step)
        c = Fraction(other)
        return QSeries(self.offset, tuple(canonical_scalar(c * x) for x in self.coeffs), self.step)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QSeries":
        """self^k by repeated squaring, exact through self's order; k = 0
        gives 1 through one order further."""
        if k < 0:
            raise ValueError("negative powers not supported")
        result = QSeries(Fraction(0), (1,) + (0,) * len(self.coeffs), self.step)
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def agrees_with(self, other: "QSeries", through) -> bool:
        """Exact coefficient agreement for all exponents <= through, on a
        grid that holds the exponents of both series."""
        bound = Fraction(through)
        if self.end_exponent < bound or other.end_exponent < bound:
            raise ValueError("series not computed far enough to compare")
        step = _rational_gcd(self.step, other.step, other.offset - self.offset)
        offset = min(self.offset, other.offset)
        n = (bound - offset) // step
        return self._on_grid(offset, step, n) == other._on_grid(offset, step, n)

    def to_json_dict(self) -> dict:
        return {
            "offset": str(self.offset),
            "step": str(self.step),
            "coeffs": [
                int(c) if c.denominator == 1 else str(c) for c in self.coeffs
            ],
        }

    def __repr__(self) -> str:
        parts = [
            f"{c} t^({self.offset + i * self.step})"
            for i, c in enumerate(self.coeffs[:6])
            if c
        ]
        tail = " + ..." if len(self.coeffs) > 6 else ""
        return "QSeries(" + (" + ".join(parts) or "0") + tail + ")"


# --- eta ---------------------------------------------------------------


def eta_inverse_power(rank: int, order: int) -> QSeries:
    """(1/eta)^rank = t^{-rank/24} sum p_rank(n) t^n with rank-colored
    partition counts, exact through t^order."""
    coeffs = [1] + [0] * order
    for _ in range(rank):
        for k in range(1, order + 1):
            for i in range(k, order + 1):
                coeffs[i] += coeffs[i - k]
    return QSeries(Fraction(-rank, 24), tuple(coeffs), Fraction(1))


def euler_product(order: int, sign: int, half_shift: bool = False) -> QSeries:
    """prod_m (1 + sign * t^{m - 1/2 if half_shift else m}) through t^order."""
    # on the grid of step 1/2 the factor t^{m - 1/2} sits at position 2m - 1
    n, stride = (2 * order, 2) if half_shift else (order, 1)
    coeffs = [1] + [0] * n
    for k in range(1, n + 1, stride):
        for i in range(n, k - 1, -1):
            if coeffs[i - k]:
                coeffs[i] += sign * coeffs[i - k]
    return QSeries(Fraction(0), tuple(coeffs), Fraction(1, stride))


# --- theta --------------------------------------------------------------


def theta_coset(sl: ScreeningLattices, coset: Coset, shift: Momentum, order: int) -> QSeries:
    """Theta series of the shifted coset: sum over nu in (rep - shift) + L
    of t^{(nu, nu)/2}, complete through offset + order.

    The points v of the coset are enumerated around `shift`, and the
    enumerator's squared distance (v - shift, v - shift) is twice each
    exponent.  The step is the rational gcd of the distinct exponents'
    distances above the least one."""
    space = sl.space
    rep, basis = coset.rep, coset.basis
    probe = points_within(space, rep, basis, shift, space.norm(rep - shift))
    base = min(d for _v, d in probe)
    counts = Counter(d for _v, d in points_within(space, rep, basis, shift, base + 2 * order))
    step = _rational_gcd(*((d - base) / 2 for d in counts)) or Fraction(1)
    n = int(order / step)
    coeffs = [0] * (n + 1)
    for d, count in counts.items():
        coeffs[int((d - base) / 2 / step)] += count
    return QSeries(base / 2, tuple(coeffs), step)


def graded_dim_module(sl: ScreeningLattices, coset: Coset, order: int) -> QSeries:
    """dim V_[coset](t) = Theta_{coset - Q}(t) / eta(t)^rank; the offset is
    -c/24 plus the groundstate dimension."""
    theta = theta_coset(sl, coset, sl.Q, order + 1)
    eta = eta_inverse_power(sl.space.rank, order + 1)
    prod = theta * eta
    n = int(Fraction(order) / prod.step)
    return QSeries(prod.offset, prod.coeffs[: n + 1], prod.step)


# --- symplectic fermion characters ----------------------------------------


def sf_characters(n_pairs: int, order: int) -> dict[str, QSeries]:
    """Characters of n pairs of fermions: the ns/r sector products with
    their parity-twisted companions, and the four irreducible combinations
    chi1..chi4 obtained by (anti)symmetrization."""
    if n_pairs < 1:
        raise ValueError("need at least one fermion pair")

    def sector(sign, half_shift, offset):
        power = euler_product(order, sign, half_shift) ** (2 * n_pairs)
        return QSeries(offset + power.offset, power.coeffs, power.step)

    ns_plus = sector(+1, False, Fraction(2 * n_pairs, 24))
    ns_minus = sector(-1, False, Fraction(2 * n_pairs, 24))
    r_plus = sector(+1, True, Fraction(-2 * n_pairs, 48))
    r_minus = sector(-1, True, Fraction(-2 * n_pairs, 48))
    half = Fraction(1, 2)
    return {
        "ns+": ns_plus,
        "ns-": ns_minus,
        "r+": r_plus,
        "r-": r_minus,
        "chi1": half * (ns_plus + ns_minus),
        "chi2": half * (ns_plus - ns_minus),
        "chi3": half * (r_plus + r_minus),
        "chi4": half * (r_plus - r_minus),
    }


# --- matching kernels against characters -----------------------------------


def matches_ns_character(sl: ScreeningLattices, dim: QSeries, chars: dict, order: int) -> bool:
    """Whether the graded dimension `dim` of a module equals 2^{n-1}
    chi_{ns,+} through t^order above the character's offset, where `chars`
    is sf_characters(n, order + 1).  dim's offset is its leading exponent,
    and dim must be exact through order above it.  On the blue (vacuum)
    module this is the Jacobi triple product check."""
    ns_plus = chars["ns+"]
    if dim.offset < ns_plus.offset:
        # the character vanishes at dim's leading exponent
        return False
    return dim.agrees_with(2 ** (sl.rs.rank - 1) * ns_plus, through=order + ns_plus.offset)


@dataclass
class MatchCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class KernelCharacterReport:
    checks: list[MatchCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(MatchCheck(name, ok, detail))


def kernel_char_match(sl: ScreeningLattices, order: int = 12, kernel_levels: int = 1) -> KernelCharacterReport:
    """Match the four-module family data against the fermion characters:

    * Blue and Green graded dimensions equal 2^{n-1} chi_{ns,+} (series);
    * Center equals chi3 and Steinberg equals chi4 (series);
    * intersection-kernel dimensions on Blue/Green layers equal the chi1 /
      chi2 coefficients, layer by layer.
    """
    n = sl.rs.rank
    report = KernelCharacterReport()
    chars = sf_characters(n, order + 1)
    cosets = sl.named_cosets()
    for color in ("blue", "green"):
        report.add(
            f"dim {color.capitalize()} = 2^{{n-1}} (chi1 + chi2)",
            matches_ns_character(sl, graded_dim_module(sl, cosets[color], order), chars, order),
        )
    center_dim = graded_dim_module(sl, cosets["center"], order + 1)
    steinberg_dim = graded_dim_module(sl, cosets["steinberg"], order + 1)
    bound_r = Fraction(order) + chars["chi3"].offset
    report.add("dim Center = chi3", center_dim.agrees_with(chars["chi3"], through=bound_r))
    report.add("dim Steinberg = chi4", steinberg_dim.agrees_with(chars["chi4"], through=bound_r))

    screens = short_screening_set(sl)
    for color, chi_name in (("blue", "chi1"), ("green", "chi2")):
        chi = chars[chi_name]
        for lvl, lk in enumerate(kernel_report(sl, cosets[color], screens, kernel_levels).layers):
            expected = chi.coefficient_at(Fraction(n, 12) + lk.h)
            ok = lk.intersection_dim == expected
            report.add(
                f"{color} kernel level {lvl} = {chi_name} coefficient",
                ok,
                f"kernel {lk.intersection_dim} vs {expected}",
            )
    return report

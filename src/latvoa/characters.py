"""Exact truncated q-series: eta powers, lattice-coset theta functions,
module graded dimensions, symplectic-fermion characters, and the matching
of kernel dimensions against those characters."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .lattice import Coset, Momentum, ScreeningLattices, groundstates, points_within
from .screening import kernel_layer, short_screening_set


@dataclass(frozen=True)
class QSeries:
    """sum_i coeffs[i] * t^(offset + i * step), exact up to the last entry."""

    offset: Fraction
    coeffs: tuple[Fraction, ...]
    step: Fraction = Fraction(1)

    @staticmethod
    def make(offset, coeffs, step=1) -> "QSeries":
        return QSeries(Fraction(offset), tuple(Fraction(c) for c in coeffs), Fraction(step))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def end_exponent(self) -> Fraction:
        """Largest exponent whose coefficient is known exactly."""
        return self.offset + self.order * self.step

    def coefficient_at(self, exponent) -> Fraction:
        e = Fraction(exponent)
        pos = (e - self.offset) / self.step
        if pos.denominator != 1 or pos < 0:
            return Fraction(0)
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
    def _common_step(self, other: "QSeries") -> Fraction:
        return Fraction(
            gcd(self.step.numerator * other.step.denominator,
                other.step.numerator * self.step.denominator),
            self.step.denominator * other.step.denominator,
        )

    def _common_grid(self, other: "QSeries") -> Fraction:
        step = self._common_step(other)
        shift = (other.offset - self.offset) / step
        if shift.denominator != 1:
            raise ValueError("series offsets are incommensurable")
        return step

    def __add__(self, other):
        if not isinstance(other, QSeries):
            raise TypeError("add QSeries to QSeries")
        step = self._common_grid(other)
        offset = min(self.offset, other.offset)
        end = min(self.end_exponent, other.end_exponent)
        n = int((end - offset) / step)
        coeffs = []
        for i in range(n + 1):
            e = offset + i * step
            c = Fraction(0)
            for s in (self, other):
                pos = (e - s.offset) / s.step
                if pos.denominator == 1 and 0 <= pos <= s.order:
                    c += s.coeffs[int(pos)]
            coeffs.append(c)
        return QSeries(offset, tuple(coeffs), step)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, QSeries):
            step = self._common_step(other)
            # relative accuracy: each factor exact through its own order
            n_self = int((self.end_exponent - self.offset) / step)
            n_other = int((other.end_exponent - other.offset) / step)
            n = min(n_self, n_other)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                ia = int(i * self.step / step)
                if ia > n or a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    pos = ia + int(j * other.step / step)
                    if pos > n:
                        break
                    if b:
                        out[pos] += a * b
            return QSeries(self.offset + other.offset, tuple(out), step)
        c = Fraction(other)
        return QSeries(self.offset, tuple(c * x for x in self.coeffs), self.step)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = QSeries(Fraction(0), (Fraction(1),) + (Fraction(0),) * len(self.coeffs), self.step)
        base = self
        first = True
        while k:
            if k & 1:
                result = base if first else result * base
                first = False
            base = base * base
            k >>= 1
        return result

    def agrees_with(self, other: "QSeries", through) -> bool:
        """Exact coefficient agreement for all exponents <= through,
        compared on the union of the two exponent grids."""
        bound = Fraction(through)
        if self.end_exponent < bound or other.end_exponent < bound:
            raise ValueError("series not computed far enough to compare")
        exponents = set()
        for s in (self, other):
            e = s.offset
            while e <= bound:
                exponents.add(e)
                e += s.step
        return all(self._at_or_zero(e) == other._at_or_zero(e) for e in exponents)

    def _at_or_zero(self, e) -> Fraction:
        pos = (Fraction(e) - self.offset) / self.step
        if pos.denominator != 1 or pos < 0 or pos > self.order:
            return Fraction(0)
        return self.coeffs[int(pos)]

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
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for _ in range(rank):
        for k in range(1, order + 1):
            for i in range(k, order + 1):
                coeffs[i] += coeffs[i - k]
    return QSeries(Fraction(-rank, 24), tuple(coeffs), Fraction(1))


def euler_product(order: int, sign: int, half_shift: bool = False) -> QSeries:
    """prod_m (1 + sign * t^{m - 1/2 if half_shift else m}) through t^order."""
    step = Fraction(1, 2) if half_shift else Fraction(1)
    n = int(Fraction(order) / step)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[0] = Fraction(1)
    m = 1
    while True:
        e = Fraction(2 * m - 1, 2) if half_shift else Fraction(m)
        k = int(e / step)
        if k > n:
            break
        for i in range(n, k - 1, -1):
            if coeffs[i - k]:
                coeffs[i] += sign * coeffs[i - k]
        m += 1
    return QSeries(Fraction(0), tuple(coeffs), step)


# --- theta --------------------------------------------------------------


def theta_coset(sl: ScreeningLattices, coset: Coset, shift: Momentum, order: int) -> QSeries:
    """Theta series of the shifted coset: sum over nu in (rep - shift) + L
    of t^{(nu, nu)/2}, complete through offset + order."""
    space = sl.space
    rep = coset.rep - shift
    zero = space.zero()
    probe = points_within(space, rep, coset.basis, zero, space.norm(rep))
    base = min(space.norm(v) / 2 for v in probe)
    bound = 2 * (base + order)
    pts = points_within(space, rep, coset.basis, zero, bound)
    exps = sorted(space.norm(v) / 2 for v in pts)
    offset = exps[0]
    diffs = [e - offset for e in exps if e != offset]
    step = Fraction(1)
    if diffs:
        step = diffs[0]
        for d in diffs[1:]:
            step = Fraction(
                gcd(step.numerator * d.denominator, d.numerator * step.denominator),
                step.denominator * d.denominator,
            )
    n = int(Fraction(order) / step)
    coeffs = [Fraction(0)] * (n + 1)
    for e in exps:
        pos = (e - offset) / step
        if pos <= n:
            coeffs[int(pos)] += 1
    return QSeries(offset, tuple(coeffs), step)


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
    ns_plus = euler_product(order, +1) ** (2 * n_pairs)
    ns_minus = euler_product(order, -1) ** (2 * n_pairs)
    r_plus = euler_product(order, +1, half_shift=True) ** (2 * n_pairs)
    r_minus = euler_product(order, -1, half_shift=True) ** (2 * n_pairs)
    off_ns = Fraction(2 * n_pairs, 24)
    off_r = Fraction(-2 * n_pairs, 48)
    ns_plus = QSeries(off_ns + ns_plus.offset, ns_plus.coeffs, ns_plus.step)
    ns_minus = QSeries(off_ns + ns_minus.offset, ns_minus.coeffs, ns_minus.step)
    r_plus = QSeries(off_r + r_plus.offset, r_plus.coeffs, r_plus.step)
    r_minus = QSeries(off_r + r_minus.offset, r_minus.coeffs, r_minus.step)
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
    weight = Fraction(2 ** (n - 1))
    bound = Fraction(order) + chars["ns+"].offset

    blue_dim = graded_dim_module(sl, cosets["blue"], order + 1)
    green_dim = graded_dim_module(sl, cosets["green"], order + 1)
    report.add(
        "dim Blue = 2^{n-1} (chi1 + chi2)",
        blue_dim.agrees_with(weight * chars["ns+"], through=bound),
    )
    report.add(
        "dim Green = 2^{n-1} (chi1 + chi2)",
        green_dim.agrees_with(weight * chars["ns+"], through=bound),
    )
    center_dim = graded_dim_module(sl, cosets["center"], order + 1)
    steinberg_dim = graded_dim_module(sl, cosets["steinberg"], order + 1)
    bound_r = Fraction(order) + chars["chi3"].offset
    report.add("dim Center = chi3", center_dim.agrees_with(chars["chi3"], through=bound_r))
    report.add("dim Steinberg = chi4", steinberg_dim.agrees_with(chars["chi4"], through=bound_r))

    screens = short_screening_set(sl)
    for color, chi_name in (("blue", "chi1"), ("green", "chi2")):
        coset = cosets[color]
        _gs, h0 = groundstates(sl, coset)
        chi = chars[chi_name]
        for lvl in range(kernel_levels + 1):
            lk = kernel_layer(sl, coset, screens, h0 + lvl)
            expected = chi.coefficient_at(Fraction(n, 12) + h0 + lvl)
            ok = Fraction(lk.intersection_dim) == expected
            report.add(
                f"{color} kernel level {lvl} = {chi_name} coefficient",
                ok,
                f"kernel {lk.intersection_dim} vs {expected}",
            )
    return report

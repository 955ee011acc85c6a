"""Screening charge operators, braiding data, graded layer bases, Nichols
relation checks, Weyl powers on modules, and the exact kernels whose
intersection is the W-algebra."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .expr import format_momentum
from .freefield import FieldElement, _over_den
from .lattice import (
    Coset,
    Momentum,
    ScreeningLattices,
    canonical,
    canonical_quotient,
    canonical_scalar,
    common_numerators,
    groundstates,
    points_within,
)
from .scalars import Scalar
from .vertexop import _numerators, residue_op
from .virasoro import StressTensor, stress_tensor


# --- braiding ------------------------------------------------------------


@dataclass
class BraidingMatrix:
    """q_ij = e^{i pi r_ij} with r_ij the pairing of the screening momenta."""

    q_exponents: tuple[tuple[Fraction, ...], ...]

    def q(self, i: int, j: int) -> Scalar:
        return Scalar.phase(1, self.q_exponents[i][j])


def braiding_matrix(sl: ScreeningLattices, momenta=None) -> BraidingMatrix:
    moms = momenta if momenta is not None else sl.basis_short
    rows = tuple(
        tuple(sl.space.pair(x, y) for y in moms) for x in moms
    )
    return BraidingMatrix(rows)


# --- screenings ------------------------------------------------------------


def _pairing(space, alpha: Momentum, mom) -> int:
    """<alpha, mom> for a state momentum mom; a fractional pairing is
    refused, since it needs the fractional residue with a truncation."""
    pairing = _over_den(space, space.pair_num(alpha.coords, mom))
    if pairing.denominator != 1:
        raise ValueError(
            f"screening momentum {format_momentum(alpha.coords)} pairs fractionally "
            f"with state momentum {format_momentum(mom)}; use vertexop.residue_op in "
            "fractional mode"
        )
    return pairing


def _translated(space, alpha: Momentum, mu, mono, pairing: int, images: dict):
    """Z_alpha(mono e^mu) as (alpha + mu, den, [(monomial, int numerator),
    ...]): every term has momentum alpha + mu, and the coefficients depend
    on mu only through pairing = <alpha, mu>, since the screening carries
    no cocycle.  The relative image (den, numerators) is looked up in
    `images` under (alpha.coords, mono, pairing); a miss runs `residue_op`
    once, on this single term."""
    key = (alpha.coords, mono, pairing)
    hit = images.get(key)
    if hit is None:
        img = residue_op(FieldElement.exponential(space, alpha), FieldElement(space, {(mu, mono): 1}))
        den, nums = common_numerators(img.terms.values())
        hit = images[key] = (den, [(m, n) for (_mom, m), n in zip(img.terms, nums)])
    return canonical(x + y for x, y in zip(alpha.coords, mu)), *hit


def apply_screening(alpha: Momentum, state: FieldElement, images: dict | None = None) -> FieldElement:
    """Z_alpha state, the integer-case screening charge.

    Rejects states whose exponential momenta pair fractionally with alpha;
    those need the fractional residue with an explicit truncation.

    The coefficients of state are brought over their common denominator,
    `screening_numerators` does the work on ints, and each output
    coefficient is divided once, here.  Calls that pass the same `images`
    dict share their relative images; by default a call keeps its own.
    """
    d, terms = _numerators(state.terms)
    den, acc = screening_numerators(state.space, alpha, d, terms, {} if images is None else images)
    return FieldElement(state.space, {key: canonical_quotient(x, den) for key, x in acc.items()})


def screening_numerators(space, alpha: Momentum, d: int, terms, images: dict) -> tuple[int, dict]:
    """(den, {term key: int}) with Z_alpha state = sum x/den key, where
    state = sum c/d key over the (key, int c) pairs of terms.  den is
    positive, no numerator is zero, and neither is reduced.

    Each term's image is translated from its relative image (`_translated`,
    which fills `images`), and the numerators are summed over one common
    denominator.  A momentum that pairs fractionally with alpha is refused
    (`_pairing`)."""
    pairings = {mu: _pairing(space, alpha, mu) for mu in {mu for (mu, _mono), _c in terms}}
    per_term = []
    for (mu, mono), c in terms:
        mom, den, nums = _translated(space, alpha, mu, mono, pairings[mu], images)
        if nums:
            per_term.append((c, mom, den, nums))
    top = lcm(*(den for _c, _mom, den, _nums in per_term))
    acc: dict = {}
    for c, mom, den, nums in per_term:
        f = c * (top // den)
        for mono, x in nums:
            key = (mom, mono)
            acc[key] = acc.get(key, 0) + f * x
    return d * top, {key: x for key, x in acc.items() if x}


def short_screening_set(sl: ScreeningLattices) -> tuple[Momentum, ...]:
    """Screening momenta used for the kernel algebra, ordered by descending
    root height (for B_n these are -(a_k + ... + a_n)/sqrt2, k = 1..n)."""
    moms = list(sl.short_screening_momenta())
    moms.sort(key=lambda m: sum(m.coords))
    return tuple(moms)


def weyl_power_exponent(sl: ScreeningLattices, coset: Coset, screening: Momentum) -> int:
    """Power k of the screening that acts as the Weyl dot-reflection on the
    module: k = 1 on integer-pairing modules, k = 0 on the module of the
    background charge Q, and the nilpotency order on the remaining
    fractional modules (where the power is identically zero)."""
    space = sl.space
    frac = space.pair(screening, coset.rep)
    for b in coset.basis:
        if space.pair(screening, b).denominator != 1:
            raise ValueError("screening momentum must pair integrally with the lattice")
    if frac.denominator == 1:
        return 1
    if coset.contains(sl.Q):
        return 0
    # nilpotency order of the screening: ord of q_ii = e^{i pi (a,a)}
    norm = space.norm(screening)
    order = 2 * norm.denominator // gcd(2 * norm.denominator, norm.numerator)
    return order


# --- graded layers ----------------------------------------------------------


@dataclass
class GradedLayer:
    coset: Coset
    h: Fraction
    basis: list[FieldElement]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def term_index(self) -> dict:
        idx = {}
        for i, b in enumerate(self.basis):
            (key,) = b.terms
            idx[key] = i
        return idx


def _monomials_of_degree(rank: int, d: int):
    """All monomials (sorted factor tuples) of total degree d in `rank`
    colors, in sorted order; count is the rank-colored partition number
    of d.  Factors are picked in ascending order, each from the last one
    picked on, so every multiset comes out once and already sorted."""
    factors = [(order, idx) for order in range(1, d + 1) for idx in range(rank)]
    out: list[tuple] = []

    def rec(remaining: int, start: int, acc: tuple):
        if remaining == 0:
            out.append(acc)
            return
        for i in range(start, len(factors)):
            factor = factors[i]
            if factor[0] > remaining:
                break
            rec(remaining - factor[0], i, acc + (factor,))

    rec(d, 0, ())
    return out


def layer_basis(sl: ScreeningLattices, coset: Coset, h) -> GradedLayer:
    """Basis of the conformal-dimension-h layer of the module V_[coset]:
    states u e^{phi_mu} with mu in the coset and h(mu) + deg(u) = h.

    h(mu) = (d - |Q|^2)/2 with d = |mu - Q|^2, so the momenta are the
    points with d <= 2h + |Q|^2 = bound, and the degree gap
    h - h(mu) = (bound - d)/2 comes from the enumerator's own d."""
    h = Fraction(h)
    space = sl.space
    bound = 2 * h + space.norm(sl.Q)
    pts = points_within(space, coset.rep, coset.basis, sl.Q, bound)
    basis: list[FieldElement] = []
    for mu, d in sorted(pts, key=lambda pt: pt[0].coords):
        gap = (bound - d) / 2
        if gap.denominator != 1:
            continue
        for mono in _monomials_of_degree(space.rank, int(gap)):
            basis.append(FieldElement(space, {(mu.coords, mono): 1}))
    return GradedLayer(coset=coset, h=h, basis=basis)


# --- kernels ----------------------------------------------------------------


@dataclass
class LayerKernel:
    h: Fraction
    dim: int
    ker_dims: list[int]
    intersection_dim: int
    intersection_basis: list[FieldElement] = field(default_factory=list)


@dataclass
class KernelReport:
    coset: Coset
    weyl_powers: list[int]
    layers: list[LayerKernel]

    def rows(self) -> list[list[int]]:
        """Compact [dim, ker, intersection] rows (ker collapsed when the
        per-screening kernels agree)."""
        out = []
        for lay in self.layers:
            kd = lay.ker_dims
            ker = kd[0] if kd and all(x == kd[0] for x in kd) else kd
            out.append([lay.dim, ker, lay.intersection_dim])
        return out


def _screening_matrix(
    sl: ScreeningLattices, a: Momentum, layer: GradedLayer, target: GradedLayer, images: dict | None = None
):
    """Matrix of Z_a from the layer basis to the target layer basis, as
    sparse integer rows: one {column: int} row per target basis element
    that some image reaches, in target order.  Each row is the relative
    images' numerators brought over their common denominator (which leaves
    the kernel unchanged); `images` is the table of `apply_screening`."""
    space = sl.space
    idx = target.term_index()
    images = {} if images is None else images
    rows: dict[int, dict] = {}
    dens = []
    for j, v in enumerate(layer.basis):
        ((mu, mono),) = v.terms  # coefficient 1
        mom, den, nums = _translated(space, a, mu, mono, _pairing(space, a, mu), images)
        dens.append(den)
        for m, x in nums:
            rows.setdefault(idx[(mom, m)], {})[j] = x
    out = []
    for i in sorted(rows):
        row = rows[i]
        top = lcm(*(dens[j] for j in row))
        out.append({j: x * (top // dens[j]) for j, x in row.items()})
    return out


def kernel_layer(sl: ScreeningLattices, coset: Coset, screenings, h, images: dict | None = None) -> LayerKernel:
    """Exact kernels (per screening and intersected) on one layer.

    Integer-pairing modules use the screening matrices directly: each
    per-screening kernel dimension is a `linalg.nullity` of its sparse rows,
    and only the stacked matrix, whose kernel is the intersection, is asked
    for basis vectors.  On fractional modules the Weyl power decides: k = 0
    leaves nothing (identity map), the nilpotent power keeps everything.
    Screenings that shift the module to the same coset share one target
    layer basis, and the screening matrices share the relative-image table
    `images` (see `apply_screening`).
    """
    h = Fraction(h)
    layer = layer_basis(sl, coset, h)
    fractional = any(
        sl.space.pair(a, coset.rep).denominator != 1 for a in screenings
    )
    if fractional:
        ks = [weyl_power_exponent(sl, coset, a) for a in screenings]
        if any(k == 1 for k in ks):
            raise ValueError("mixed integer/fractional screening set")
        if all(k == 0 for k in ks):
            return LayerKernel(h, layer.dim, [0] * len(ks), 0, [])
        return LayerKernel(
            h, layer.dim, [layer.dim] * len(ks), layer.dim, list(layer.basis)
        )
    targets: dict[Coset, GradedLayer] = {}
    images = {} if images is None else images
    stacked: list[dict[int, int]] = []
    ker_dims = []
    for a in screenings:
        shifted = coset.shifted(a)
        target = targets.get(shifted)
        if target is None:
            target = targets[shifted] = layer_basis(sl, shifted, h)
        rows = _screening_matrix(sl, a, layer, target, images)
        ker_dims.append(linalg.nullity(rows, layer.dim))
        stacked.extend(rows)
    # dense rows for perfbench/tracer.py until it reads obs counters (ROADMAP item 1)
    dense = []
    for row in stacked:
        cells = [0] * layer.dim
        for j, x in row.items():
            cells[j] = x
        dense.append(cells)
    null = linalg.nullspace(dense, ncols=layer.dim)
    # each layer basis element is one term with coefficient 1
    keys = list(layer.term_index())
    basis = [
        FieldElement(sl.space, {keys[j]: canonical_scalar(c) for j, c in vec.items()})
        for vec in null
    ]
    return LayerKernel(h, layer.dim, ker_dims, len(null), basis)


def kernel_report(sl: ScreeningLattices, coset: Coset, screenings, h_values) -> KernelReport:
    powers = [weyl_power_exponent(sl, coset, a) for a in screenings]
    images: dict = {}
    layers = [kernel_layer(sl, coset, screenings, h, images) for h in h_values]
    return KernelReport(coset=coset, weyl_powers=powers, layers=layers)


# --- relation checks ---------------------------------------------------------


@dataclass
class RelationReport:
    name: str
    ok: bool
    counterexample: FieldElement | None = None


def nichols_check(sl: ScreeningLattices, screenings, cosets, max_level: int) -> list[RelationReport]:
    """Z_i^2 = 0 and [Z_i, Z_j] = 0 on every layer of the given cosets up
    to max_level above the groundstate, checked state by state.

    Each Z_a v is computed once per state and shared by the relations that
    need it; only one state's images are held at a time.  All screenings
    share one relative-image table (see `apply_screening`) for the whole
    check.  The images stay integer numerators over one denominator
    (`screening_numerators`): Z_i^2 v = 0 exactly when its numerators are
    empty, and Z_i Z_j v = Z_j Z_i v is cross-multiplied over the two
    positive denominators, so no coefficient is divided.  A relation stops
    being checked at its first failing state, which it reports.
    """
    states = []
    for coset in cosets:
        _gs, h0 = groundstates(sl, coset)
        for lvl in range(max_level + 1):
            states.extend((layer_basis(sl, coset, h0 + lvl).basis))
    count = len(screenings)
    relations = [(f"Z{i + 1}^2 = 0", i, i) for i in range(count)] + [
        (f"[Z{i + 1}, Z{j + 1}] = 0", i, j) for i in range(count) for j in range(i + 1, count)
    ]
    bad: list[FieldElement | None] = [None] * len(relations)
    space = sl.space
    table: dict = {}

    def Z(x: int, image: tuple[int, dict]) -> tuple[int, dict]:
        den, nums = image
        return screening_numerators(space, screenings[x], den, nums.items(), table)

    for v in states:
        pending = [r for r in range(len(relations)) if bad[r] is None]
        if not pending:
            break
        needed = {x for r in pending for x in relations[r][1:]}
        d, terms = _numerators(v.terms)
        images = {x: screening_numerators(space, screenings[x], d, terms, table) for x in sorted(needed)}
        for r in pending:
            _name, i, j = relations[r]
            if i == j:
                failed = bool(Z(i, images[i])[1])
            else:
                # Z_i Z_j v = Z_j Z_i v, cross-multiplied over the two
                # positive denominators
                den_ij, ij = Z(i, images[j])
                den_ji, ji = Z(j, images[i])
                failed = ij.keys() != ji.keys() or any(
                    x * den_ji != ji[key] * den_ij for key, x in ij.items()
                )
            if failed:
                bad[r] = v
    return [RelationReport(name, b is None, b) for (name, _i, _j), b in zip(relations, bad)]


@dataclass
class LongScreeningReport:
    checks: list[RelationReport]
    triplet: dict[str, FieldElement] | None = None


def long_screening_suite(sl: ScreeningLattices, st: StressTensor | None = None) -> LongScreeningReport:
    """Checks that each long screening annihilates the stress tensor; for
    rank one also the triplet orbit W-, W0, W+ with (Z_long)^3 W- = 0.

    All screenings share one relative-image table (see `apply_screening`).
    """
    if st is None:
        st = stress_tensor(sl)
    space = sl.space
    table: dict = {}

    def Z(a: Momentum, state: FieldElement) -> FieldElement:
        return apply_screening(a, state, table)

    checks = []
    for i, a in enumerate(sl.basis_long):
        img = Z(a, st.element)
        checks.append(
            RelationReport(f"Z_long{i + 1}(T) = 0", img.is_zero(), None if img.is_zero() else img)
        )
    triplet = None
    if sl.rs.rank == 1:
        a_long = sl.basis_long[0]
        w_minus = FieldElement.exponential(space, -a_long)
        w_zero = Z(a_long, w_minus)
        w_plus = Z(a_long, w_zero)
        w_over = Z(a_long, w_plus)
        checks.append(RelationReport("W0 != 0", not w_zero.is_zero()))
        checks.append(RelationReport("W+ != 0", not w_plus.is_zero()))
        checks.append(
            RelationReport("Z_long^3 W- = 0", w_over.is_zero(), None if w_over.is_zero() else w_over)
        )
        triplet = {"W-": w_minus, "W0": w_zero, "W+": w_plus}
    return LongScreeningReport(checks=checks, triplet=triplet)

"""Screening charge operators, braiding data, graded layer bases, Nichols
relation checks, Weyl powers on modules, and the exact kernels whose
intersection is the W-algebra."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm

from . import linalg
from .freefield import FieldElement, _merge_mono, _numerators
from .lattice import (
    Coset,
    Momentum,
    ScreeningLattices,
    canonical,
    canonical_quotient,
    _scaled,
    canonical_scalar,
    groundstates,
    points_within,
)
from .rootdata import short_simple_system
from .vertexop import _contracted_splits, _dk_term, _integral_pairing
from .virasoro import StressTensor, stress_tensor


# --- braiding ------------------------------------------------------------


def braiding_matrix(sl: ScreeningLattices) -> tuple[tuple[Fraction, ...], ...]:
    """The exponents r_ij = (a_i, a_j) of the screening momenta, one row
    per momentum, unreduced: the braiding is q_ij = e^{i pi r_ij}, whose
    reduced exponent is `lattice.phase_exponent(r_ij)`."""
    moms = sl.basis_short
    return tuple(tuple(sl.space.pair(x, y) for y in moms) for x in moms)


# --- screenings ------------------------------------------------------------


def _keys(space, alpha: Momentum, terms) -> tuple[list, dict]:
    """(keys, shifted) for the (mu, mono) of terms: keys holds (mu, mono,
    <alpha, mu>) per term, the keys of `_relative_images`, and shifted maps
    each distinct mu to alpha + mu, the momentum of its image.  Each mu is
    paired and shifted once, in term order, and the first that pairs
    fractionally with alpha is refused (`vertexop._integral_pairing`).
    Every screening route passes through here, so this is also where an
    alpha of the wrong rank is refused (`MomentumSpace.checked_coords`)."""
    coords = space.checked_coords(alpha.coords)
    pairings: dict = {}
    shifted: dict = {}
    keys = []
    for mu, mono in terms:
        pairing = pairings.get(mu)
        if pairing is None:
            pairing = pairings[mu] = _integral_pairing(space, coords, mu)
            shifted[mu] = canonical(x + y for x, y in zip(coords, mu))
        keys.append((mu, mono, pairing))
    return keys, shifted


def _relative_images(space, alpha: Momentum, keys, images: dict) -> list:
    """The relative image of Z_alpha on every (mu, mono, pairing) of keys,
    in key order: the entry of `images` under (alpha.coords, mono,
    pairing), as (den, [(monomial, int numerator), ...]) reduced by their
    gcd.  This is the one reader of the table, and it first fills the keys
    that the table lacks from one `_closed_images` call.  An image depends
    on mu only through the pairing, so the table does not key it by mu."""
    coords = alpha.coords
    found = [images.get((coords, mono, pairing)) for _mu, mono, pairing in keys]
    if None not in found:
        return found
    misses: dict = {}  # mono -> {pairing, ...}
    for (_mu, mono, pairing), hit in zip(keys, found):
        if hit is None:
            misses.setdefault(mono, set()).add(pairing)
    images.update(_closed_images(space, coords, misses))
    return [images[(coords, mono, pairing)] for _mu, mono, pairing in keys]


def _closed_images(space, coords, misses: dict) -> dict:
    """{(coords, mono, p): image} for every pairing p of every mono of
    misses, a {mono: {p, ...}} map: the relative image of Z_alpha, alpha
    given by its coords, on mono e^mu with p = <alpha, mu>, as (den,
    [(monomial, int numerator), ...]) reduced by their gcd, den positive.

    Y(e^alpha, z) = z^alpha_0 E^-(-alpha, z) E^+(-alpha, z) e^alpha
    (Frenkel-Lepowsky-Meurman 1988, ch. 8): the screening carries no
    cocycle, so Z_alpha(mono e^mu) lies at alpha + mu and is the sum of
    c(R) (mono minus R) d^k e^alpha / k! over the contracted splits R of
    mono (`vertexop._contracted_splits`, one walk per monomial, shared by
    its pairings) with k = deg R - p - 1 >= 0.  Every coefficient of
    d^k e^alpha (`_dk_term`) times da^k is an int, so an image is summed
    over D^len(mono) da^K K!, K its largest k."""
    da, big_d, walks = _contracted_splits(space, coords, misses)
    dk: dict = {}  # k -> [(monomial, coefficient of d^k e^alpha times da^k)]
    out = {}
    for mono, pairings in misses.items():
        splits = walks[mono]  # (left, deg R, numerator over D^len(mono))
        top_deg = max((deg for _left, deg, _c in splits), default=0)
        for p in pairings:
            top = top_deg - p - 1
            if top < 0:
                out[(coords, mono, p)] = (1, [])
                continue
            acc: dict = {}
            for left, deg, c in splits:
                k = deg - p - 1
                if k < 0:
                    continue
                terms = dk.get(k)
                if terms is None:
                    dak = da**k
                    terms = dk[k] = [(m, _scaled(x, dak)) for (_mom, m), x in _dk_term(space, coords, (), k).items()]
                f = c * da ** (top - k) * (factorial(top) // factorial(k))
                for m, x in terms:
                    key = _merge_mono(left, m) if left else m
                    acc[key] = acc.get(key, 0) + f * x
            nums = [(m, x) for m, x in acc.items() if x]
            den = big_d ** len(mono) * da**top * factorial(top)
            h = gcd(den, *(x for _m, x in nums))
            out[(coords, mono, p)] = (den // h, [(m, x // h) for m, x in nums])
    return out


def apply_screening(alpha: Momentum, state: FieldElement, images: dict | None = None) -> FieldElement:
    """Z_alpha state, the integer-case screening charge.

    Rejects states whose exponential momenta pair fractionally with alpha,
    with the message of `residue_op`; those need the fractional residue
    with an explicit truncation.  An alpha of another rank than the state's
    space is refused too (`_keys`).  The integer `screen-apply` prints
    this image.

    The coefficients of state are brought over their common denominator,
    `screening_numerators` does the work on ints, and each output
    coefficient is divided once, here.  The relative images come from the
    closed form of Y(e^alpha, z) (`_closed_images`), so alpha may have
    non-integral coordinates as long as every pairing is integral.  Calls
    that pass the same `images` dict share their relative images
    (`_relative_images`); by default a call keeps its own.
    """
    columns = [_numerators(state.terms)]
    ((den, acc),) = screening_numerators(state.space, alpha, columns, {} if images is None else images)
    return FieldElement(state.space, {key: canonical_quotient(x, den) for key, x in acc.items()})


def screening_numerators(space, alpha: Momentum, columns, images: dict) -> list[tuple[int, dict]]:
    """Z_alpha of every state of columns, a list of (d, terms) with state =
    sum c/d key over the (key, int c) pairs of terms, which are read twice
    (a list or a dict's items): per column, in order, (den, {term key:
    int}) with Z_alpha state = sum x/den key.  den is positive, no
    numerator is zero, and neither is reduced.

    The terms of all columns go through one `_keys` call, which pairs each
    distinct momentum mu with alpha and shifts it to alpha + mu once and
    refuses the first fractional pairing in column order, and one
    `_relative_images` call.  Each column's numerators are summed over its
    own common denominator."""
    keys, shifted = _keys(space, alpha, [key for _d, terms in columns for key, _c in terms])
    relative = iter(_relative_images(space, alpha, keys, images))
    out = []
    for d, terms in columns:
        per_term = []
        # terms first: zip stops on them without taking another image
        for ((mu, _mono), c), (den, nums) in zip(terms, relative):
            if nums:
                per_term.append((c, shifted[mu], den, nums))
        top = lcm(*(den for _c, _mom, den, _nums in per_term))
        acc: dict = {}
        for c, mom, den, nums in per_term:
            f = c * (top // den)
            for mono, x in nums:
                key = (mom, mono)
                acc[key] = acc.get(key, 0) + f * x
        out.append((d * top, {key: x for key, x in acc.items() if x}))
    return out


def short_screening_set(sl: ScreeningLattices) -> tuple[Momentum, ...]:
    """Screening momenta used for the kernel algebra, ordered by descending
    root height (for B_n these are -(a_k + ... + a_n)/sqrt2, k = 1..n).

    Non-degenerate data: the short momenta -a_i/sqrt(p).  If some simple
    root is degenerate ((a_i short momentum, itself) even), the negated
    simple system of the subsystem of short roots is used instead."""
    space = sl.space
    if any(space.norm(a).denominator == 1 and space.norm(a) % 2 == 0 for a in sl.basis_short):
        moms = [space.momentum([-c for c in root]) for root in short_simple_system(sl.rs)]
    else:
        moms = list(sl.basis_short)
    moms.sort(key=lambda m: sum(m.coords))
    return tuple(moms)


def weyl_power_exponent(sl: ScreeningLattices, coset: Coset, screening: Momentum) -> int:
    """Power k of the screening that acts as the Weyl dot-reflection on the
    module: k = 1 on integer-pairing modules, k = 0 on the module of the
    background charge Q, and the nilpotency order on the remaining
    fractional modules (where the power is identically zero).  A screening
    of the wrong rank is refused (`MomentumSpace.checked_coords`)."""
    space = sl.space
    space.checked_coords(screening.coords)
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
    monomials: dict[int, list] = {}  # per degree gap, shared by its momenta
    for mu, d in sorted(pts, key=lambda pt: pt[0].coords):
        gap = (bound - d) / 2
        if gap.denominator != 1:
            continue
        monos = monomials.get(gap.numerator)
        if monos is None:
            monos = monomials[gap.numerator] = _monomials_of_degree(space.rank, gap.numerator)
        for mono in monos:
            basis.append(FieldElement(space, {(mu.coords, mono): 1}))
    return GradedLayer(coset=coset, h=h, basis=basis)


def module_layers(sl: ScreeningLattices, coset: Coset, max_level: int) -> list[GradedLayer]:
    """The layers h0, h0 + 1, ..., h0 + max_level of the module V_[coset],
    with h0 its groundstate weight.  Every level of the library and of the
    command line counts from h0, through this walk.

    The h0 layer is the groundstates themselves, each exponential with the
    empty monomial, in coordinate order: what `layer_basis(sl, coset, h0)`
    would build, without enumerating those points a second time."""
    gs, h0 = groundstates(sl, coset)
    first = GradedLayer(coset=coset, h=h0, basis=[FieldElement(sl.space, {(g.coords, ()): 1}) for g in gs])
    return [first, *(layer_basis(sl, coset, h0 + lvl) for lvl in range(1, max_level + 1))]


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


def _screening_matrix(sl: ScreeningLattices, a: Momentum, layer: GradedLayer, images: dict):
    """Matrix of Z_a on the layer basis, as sparse integer rows: one
    {column: int} row per image term (alpha + mu, monomial) that some image
    reaches, in sorted term order.  That is the order of the target layer's
    basis (`layer_basis` lists momenta in coordinate order and each
    momentum's monomials in sorted order), so the rows come out as if
    numbered by the target layer, which is never built.  `images` is the
    table of `apply_screening`; one `_relative_images` call reads the images
    of the whole layer basis and fills what the table lacks from the closed
    form, one walk over the splits of each monomial.  A momentum that pairs fractionally with a is refused
    (`_keys`).  Each row is the relative images' numerators brought over
    their common denominator, which does not change the kernel; the
    eliminator makes each row primitive on entry (`linalg._echelon`)."""
    space = sl.space
    terms = list(layer.term_index())  # each basis element is one term with coefficient 1
    keys, shifted = _keys(space, a, terms)
    relative = _relative_images(space, a, keys, images)
    rows: dict[tuple, dict] = {}
    dens = []
    for j, ((mu, _mono), (den, nums)) in enumerate(zip(terms, relative)):
        mom = shifted[mu]
        dens.append(den)
        for m, x in nums:
            rows.setdefault((mom, m), {})[j] = x
    out = []
    for key in sorted(rows):
        row = rows[key]
        top = lcm(*(dens[j] for j in row))
        out.append({j: x * (top // dens[j]) for j, x in row.items()})
    return out


def kernel_layer(sl: ScreeningLattices, layer: GradedLayer, screenings, images: dict | None = None) -> LayerKernel:
    """Exact kernels (per screening and intersected) on one built layer of
    the module V_[layer.coset].

    The Weyl powers (`weyl_power_exponent`) pick the route: k = 1 exactly
    when a screening pairs integrally with the module.  Integer-pairing
    modules eliminate each layer once: each screening matrix is reduced to
    its primitive echelon (`linalg.echelon`), whose length is the rank,
    and the concatenated echelons span the stacked matrix, whose kernel is
    the intersection; `linalg.nullspace` of them gives exactly the basis
    of the raw stacked rows.  On fractional modules the Weyl power
    decides: k = 0 leaves nothing (identity map), the nilpotent power
    keeps everything.  The screening matrices number their rows by image
    terms, so no target layer is built, and they share the relative-image
    table `images` (see `apply_screening`), which the closed form fills
    (`_closed_images`).
    """
    coset, h = layer.coset, layer.h
    ks = [weyl_power_exponent(sl, coset, a) for a in screenings]
    if any(k != 1 for k in ks):
        if any(k == 1 for k in ks):
            raise ValueError("mixed integer/fractional screening set")
        if all(k == 0 for k in ks):
            return LayerKernel(h, layer.dim, [0] * len(ks), 0, [])
        return LayerKernel(
            h, layer.dim, [layer.dim] * len(ks), layer.dim, list(layer.basis)
        )
    images = {} if images is None else images
    stacked: list[dict[int, int]] = []
    ker_dims = []
    for a in screenings:
        reduced = linalg.echelon(_screening_matrix(sl, a, layer, images), layer.dim)
        ker_dims.append(layer.dim - len(reduced))
        stacked.extend(reduced)
    # perfbench/tracer.py reads this one call per layer; `a` is sparse rows
    null = linalg.nullspace(stacked, layer.dim)
    # each layer basis element is one term with coefficient 1
    keys = list(layer.term_index())
    basis = [
        FieldElement(sl.space, {keys[j]: canonical_scalar(c) for j, c in vec.items()})
        for vec in null
    ]
    return LayerKernel(h, layer.dim, ker_dims, len(null), basis)


def kernel_report(sl: ScreeningLattices, coset: Coset, screenings, max_level: int) -> KernelReport:
    """Kernels on the layers h0 .. h0 + max_level of V_[coset] (see
    `module_layers`), with one relative-image table for the whole walk."""
    powers = [weyl_power_exponent(sl, coset, a) for a in screenings]
    images: dict = {}
    layers = [kernel_layer(sl, layer, screenings, images) for layer in module_layers(sl, coset, max_level)]
    return KernelReport(coset=coset, weyl_powers=powers, layers=layers)


# --- relation checks ---------------------------------------------------------


@dataclass
class RelationReport:
    name: str
    ok: bool
    counterexample: FieldElement | None = None


def nichols_check(sl: ScreeningLattices, screenings, cosets, max_level: int) -> list[RelationReport]:
    """Z_i^2 = 0 and [Z_i, Z_j] = 0 on the layers h0 .. h0 + max_level of
    each given coset (see `module_layers`), checked layer by layer.

    On each layer, Z_a v is computed for every basis state v and every
    screening a that a relation still needs, in one `screening_numerators`
    call per screening, and shared by the relations.  Each relation then
    takes one call over those first images (Z_i Z_i v for Z_i^2) or one
    per side (Z_i Z_j v and Z_j Z_i v for [Z_i, Z_j]).  All screenings
    share one relative-image table (see `apply_screening`) for the whole
    check.  The images stay integer numerators over one denominator per
    state: Z_i^2 v = 0 exactly when its numerators are empty, and
    Z_i Z_j v = Z_j Z_i v is cross-multiplied over the two positive
    denominators, so no coefficient is divided.  A relation reports its
    first failing state in state order and is not checked on later layers.
    """
    count = len(screenings)
    relations = [(f"Z{i + 1}^2 = 0", i, i) for i in range(count)] + [
        (f"[Z{i + 1}, Z{j + 1}] = 0", i, j) for i in range(count) for j in range(i + 1, count)
    ]
    bad: list[FieldElement | None] = [None] * len(relations)
    space = sl.space
    table: dict = {}

    def Z(x: int, columns) -> list[tuple[int, dict]]:
        return screening_numerators(space, screenings[x], columns, table)

    for layer in (layer for coset in cosets for layer in module_layers(sl, coset, max_level)):
        pending = [r for r in range(len(relations)) if bad[r] is None]
        if not pending:
            break
        needed = {x for r in pending for x in relations[r][1:]}
        states = [_numerators(v.terms) for v in layer.basis]
        first = {x: [(den, nums.items()) for den, nums in Z(x, states)] for x in sorted(needed)}
        for r in pending:
            _name, i, j = relations[r]
            if i == j:
                failed = [bool(nums) for _den, nums in Z(i, first[i])]
            else:
                # Z_i Z_j v = Z_j Z_i v, cross-multiplied over the two
                # positive denominators
                failed = [
                    ij.keys() != ji.keys() or any(x * den_ji != ji[key] * den_ij for key, x in ij.items())
                    for (den_ij, ij), (den_ji, ji) in zip(Z(i, first[j]), Z(j, first[i]))
                ]
            if True in failed:
                bad[r] = layer.basis[failed.index(True)]
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

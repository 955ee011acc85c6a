"""Screening charge operators, braiding data, graded layer bases, Nichols
relation checks, Weyl powers on modules, and the exact kernels whose
intersection is the W-algebra."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .expr import format_momentum
from .freefield import FieldElement, _mono_degree, _over_den
from .lattice import (
    Coset,
    Momentum,
    ScreeningLattices,
    canonical_scalar,
    groundstates,
    points_within,
)
from .scalars import Scalar
from .vertexop import residue_op
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


def apply_screening(alpha: Momentum, state: FieldElement) -> FieldElement:
    """Z_alpha state, the integer-case screening charge.

    Rejects states whose exponential momenta pair fractionally with alpha;
    those need the fractional residue with an explicit truncation.
    """
    space = state.space
    for mom in state.momenta():
        if _over_den(space, space.pair_num(alpha.coords, mom)).denominator != 1:
            raise ValueError(
                f"screening momentum {format_momentum(alpha.coords)} pairs fractionally "
                f"with state momentum {format_momentum(mom)}; use vertexop.residue_op in "
                "fractional mode"
            )
    return residue_op(FieldElement.exponential(space, alpha), state)


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
    colors; count is the rank-colored partition number of d."""
    out: list[tuple] = []

    def rec(remaining: int, max_order: int, acc: list):
        if remaining == 0:
            out.append(tuple(sorted(acc)))
            return
        for order in range(min(remaining, max_order), 0, -1):
            for idx in range(rank):
                rec(remaining - order, order, acc + [(order, idx)])

    rec(d, d, [])
    # deduplicate color arrangements produced in different orders
    uniq = sorted(set(out))
    return uniq


def layer_basis(sl: ScreeningLattices, coset: Coset, h) -> GradedLayer:
    """Basis of the conformal-dimension-h layer of the module V_[coset]:
    states u e^{phi_mu} with mu in the coset and h(mu) + deg(u) = h."""
    h = Fraction(h)
    space = sl.space
    # h(mu) = |mu - Q|^2/2 - |Q|^2/2 <= h bounds the exponential momenta
    bound = 2 * h + space.norm(sl.Q)
    pts = points_within(space, coset.rep, coset.basis, sl.Q, bound)
    basis: list[FieldElement] = []
    for mu in sorted(pts, key=lambda v: v.coords):
        gap = h - sl.conformal_dim(mu)
        if gap < 0 or gap.denominator != 1:
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


def _screening_matrix(sl: ScreeningLattices, a: Momentum, layer: GradedLayer, target: GradedLayer):
    """Matrix of Z_a from the layer basis to the target layer basis, as
    sparse integer rows (`linalg.integer_row`): one {column: int} row per
    target basis element that some image reaches, in target order, each
    scaled to integers (which leaves the kernel unchanged).  Zero rows are
    dropped."""
    idx = target.term_index()
    rows: dict[int, dict] = {}
    for j, v in enumerate(layer.basis):
        img = apply_screening(a, v)
        for key, c in img.terms.items():
            rows.setdefault(idx[key], {})[j] = c
    scaled = (linalg.integer_row(rows[i].items()) for i in sorted(rows))
    return [row for row in scaled if row]


def kernel_layer(sl: ScreeningLattices, coset: Coset, screenings, h) -> LayerKernel:
    """Exact kernels (per screening and intersected) on one layer.

    Integer-pairing modules use the screening matrices directly: each
    per-screening kernel dimension is a `linalg.nullity` of its sparse rows,
    and only the stacked matrix, whose kernel is the intersection, is asked
    for basis vectors.  On fractional modules the Weyl power decides: k = 0
    leaves nothing (identity map), the nilpotent power keeps everything.
    Screenings that shift the module to the same coset share one target
    layer basis.
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
    stacked: list[dict[int, int]] = []
    ker_dims = []
    for a in screenings:
        shifted = coset.shifted(a)
        target = targets.get(shifted)
        if target is None:
            target = targets[shifted] = layer_basis(sl, shifted, h)
        rows = _screening_matrix(sl, a, layer, target)
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
        FieldElement(sl.space, {key: canonical_scalar(c) for key, c in zip(keys, vec) if c})
        for vec in null
    ]
    return LayerKernel(h, layer.dim, ker_dims, len(null), basis)


def kernel_report(sl: ScreeningLattices, coset: Coset, screenings, h_values) -> KernelReport:
    powers = [weyl_power_exponent(sl, coset, a) for a in screenings]
    layers = [kernel_layer(sl, coset, screenings, h) for h in h_values]
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
    need it; only one state's images are held at a time.  A relation stops
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
    for v in states:
        pending = [r for r in range(len(relations)) if bad[r] is None]
        if not pending:
            break
        needed = {x for r in pending for x in relations[r][1:]}
        images = {x: apply_screening(screenings[x], v) for x in sorted(needed)}
        for r in pending:
            _name, i, j = relations[r]
            if i == j:
                failed = not apply_screening(screenings[i], images[i]).is_zero()
            else:
                lhs = apply_screening(screenings[i], images[j])
                failed = lhs != apply_screening(screenings[j], images[i])
            if failed:
                bad[r] = v
    return [RelationReport(name, b is None, b) for (name, _i, _j), b in zip(relations, bad)]


@dataclass
class LongScreeningReport:
    checks: list[RelationReport]
    triplet: dict[str, FieldElement] | None = None
    commutators: dict[tuple[int, int], bool] | None = None


def long_screening_suite(sl: ScreeningLattices, st: StressTensor | None = None) -> LongScreeningReport:
    """Long screenings annihilate the stress tensor; for rank one the
    triplet orbit W-, W0, W+ is computed and (Z_long)^3 W- checked zero.

    Pairwise long-screening commutators on the first two vacuum layers are
    recorded as data (whether they vanish), without asserting any algebra
    structure for them.
    """
    if st is None:
        st = stress_tensor(sl)
    space = sl.space
    checks = []
    for i, a in enumerate(sl.basis_long):
        img = apply_screening(a, st.element)
        checks.append(
            RelationReport(f"Z_long{i + 1}(T) = 0", img.is_zero(), None if img.is_zero() else img)
        )
    commutators = {}
    vac = Coset(space, space.zero(), sl.basis_long)
    low_states = [v for h in (0, 1) for v in layer_basis(sl, vac, h).basis]
    for i in range(len(sl.basis_long)):
        for j in range(i + 1, len(sl.basis_long)):
            ai, aj = sl.basis_long[i], sl.basis_long[j]
            vanishes = all(
                apply_screening(ai, apply_screening(aj, v))
                == apply_screening(aj, apply_screening(ai, v))
                for v in low_states
            )
            commutators[(i, j)] = vanishes
    triplet = None
    if sl.rs.rank == 1:
        a_long = sl.basis_long[0]
        w_minus = FieldElement.exponential(space, -a_long)
        w_zero = apply_screening(a_long, w_minus)
        w_plus = apply_screening(a_long, w_zero)
        w_over = apply_screening(a_long, w_plus)
        checks.append(RelationReport("W0 != 0", not w_zero.is_zero()))
        checks.append(RelationReport("W+ != 0", not w_plus.is_zero()))
        checks.append(
            RelationReport("Z_long^3 W- = 0", w_over.is_zero(), None if w_over.is_zero() else w_over)
        )
        triplet = {"W-": w_minus, "W0": w_zero, "W+": w_plus}
    return LongScreeningReport(checks=checks, triplet=triplet, commutators=commutators)

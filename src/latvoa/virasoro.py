"""Stress tensor, Virasoro modes L_n = Y(T)_{-2-n}, and exact commutator
verification with the central term."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import linalg
from .freefield import FieldElement, _canonical_terms, _over_den
from .lattice import Momentum, ScreeningLattices, canonical_scalar
from .vertexop import _accumulate, mode_op


@dataclass
class StressTensor:
    element: FieldElement
    Q: Momentum
    c: Fraction


def stress_tensor(sl: ScreeningLattices, basis=None) -> StressTensor:
    """T = 1/2 sum_i dphi_{b_i} dphi_{b_i*} + sum_i q_i d2phi_{b_i} for any
    basis with dual basis (b_i, b_j*) = delta_ij; the result is basis
    independent."""
    space = sl.space
    if basis is None:
        basis = [space.basis_vector(i) for i in range(space.rank)]
    gb = [[space.pair(x, y) for y in basis] for x in basis]
    gb_inv = linalg.inverse(gb)
    duals = []
    for i in range(len(basis)):
        d = space.zero()
        for j, b in enumerate(basis):
            d = d + gb_inv[j][i] * b
        duals.append(d)
    # coordinates of Q in the chosen basis
    qcoords = linalg.mat_vec(gb_inv, [space.pair(b, sl.Q) for b in basis])
    elem = FieldElement.zero(space)
    half = Fraction(1, 2)
    for b, dstar in zip(basis, duals):
        elem = elem + half * (FieldElement.dphi(space, b) * FieldElement.dphi(space, dstar))
    for qi, b in zip(qcoords, basis):
        if qi:
            elem = elem + qi * FieldElement.dphi(space, b, order=2)
    elem = FieldElement(space, _canonical_terms(elem.terms))
    return StressTensor(element=elem, Q=sl.Q, c=sl.central_charge)


def virasoro_mode(st: StressTensor, n: int, b: FieldElement) -> FieldElement:
    """L_n b, the z^{-2-n} coefficient of Y(T)b."""
    return mode_op(st.element, -2 - n, b)


def virasoro_modes(st: StressTensor, ns, b: FieldElement) -> dict[int, FieldElement]:
    """L_n b for every n in ns.

    Evaluates the closed-form free-field action of the stress-tensor modes
    on basis terms; it agrees with the generic vertex-operator route
    (multi_mode_op) and that agreement is pinned by tests.
    """
    space = b.space
    ns = tuple(ns)
    creation = _creation_terms(space, st.Q, ns)
    out = {n: {} for n in ns}
    for key, c in b.terms.items():
        per_term = _fast_term_modes(space, st.Q, key, ns, creation)
        for n in ns:
            bucket = out[n]
            for k2, c2 in per_term[n].items():
                _accumulate(bucket, k2, c * c2)
    return {n: FieldElement(space, _canonical_terms(terms)) for n, terms in out.items()}


def _creation_terms(space, Q: Momentum, ns: tuple) -> dict[int, list]:
    """The part of L_n, n <= -2, that does not depend on the term it acts
    on: one created factor from the background charge and the created
    G-inverse-paired couples, summed per set of added factors.  Returns
    {n: [(added factors, coeff), ...]}."""
    gram_inv = _gram_inv(space)
    rank = space.rank
    table = {}
    for n in ns:
        if n > -2:
            continue
        k = -2 - n
        acc: dict = {}
        for i, qi in enumerate(Q.coords):
            if qi:
                acc[((2 + k, i),)] = Fraction(qi, factorial(k))
        for r in range(k + 1):
            w = Fraction(1, 2 * factorial(r) * factorial(k - r))
            for i in range(rank):
                for j in range(rank):
                    gij = gram_inv[i][j]
                    if gij:
                        factors = tuple(sorted(((1 + r, i), (1 + k - r, j))))
                        acc[factors] = acc.get(factors, 0) + w * gij
        table[n] = [(f, canonical_scalar(c)) for f, c in acc.items() if c]
    return table


_FAST_CACHE: dict = {}


def _fast_term_modes(space, Q: Momentum, key, ns: tuple, creation: dict) -> dict[int, dict]:
    """Closed-form L_n action on a single basis term, for all n in ns.

    The contributions mirror the coproduct legs of Y(T): scalar action at
    n = 0, annihilation of one or two derivative factors, order shifts of
    a factor, and creation of factors from the momentum and, through
    `creation` (the `_creation_terms` of space, Q and ns), from Q and in
    G-inverse-paired couples.  Pairings with the momentum and with Q are
    integer numerators over the Gram denominator, divided once per
    coefficient.
    """
    cache_key = (space, Q.coords, key, ns)
    hit = _FAST_CACHE.get(cache_key)
    if hit is not None:
        return hit
    beta, mono = key
    num = space._num
    gbeta = [sum(g * x for g, x in zip(row, beta)) for row in num]
    q_pair = [sum(g * x for g, x in zip(row, Q.coords)) for row in num]
    beta_sq = sum(x * y for x, y in zip(beta, gbeta))
    beta_q = sum(x * y for x, y in zip(beta, q_pair))
    out: dict[int, dict] = {n: {} for n in ns}

    def add(n, mono_new, coeff):
        if n not in out or not coeff:
            return
        bucket = out[n]
        k2 = (beta, mono_new)
        old = bucket.get(k2)
        if old is None:
            bucket[k2] = canonical_scalar(coeff)
            return
        new = old + coeff
        if new:
            bucket[k2] = canonical_scalar(new)
        else:
            del bucket[k2]

    def removed(positions):
        rest = list(mono)
        for p in sorted(positions, reverse=True):
            del rest[p]
        return rest

    # n = 0 scalar part (momentum); the degree part arises from the order
    # shift below at n = 0
    add(0, mono, Fraction(beta_sq - 2 * beta_q, 2 * space._den))

    for t, (s_t, l_t) in enumerate(mono):
        rest_t = removed([t])
        # annihilate one factor against the exponential / background charge
        add(
            s_t,
            tuple(rest_t),
            _over_den(space, factorial(s_t) * gbeta[l_t] - factorial(s_t + 1) * q_pair[l_t]),
        )
        # annihilate a pair of factors
        for r in range(t + 1, len(mono)):
            s_r, l_r = mono[r]
            add(
                s_t + s_r,
                tuple(removed([t, r])),
                _over_den(space, num[l_t][l_r] * factorial(s_t) * factorial(s_r)),
            )
        # shift the order of one factor: (s, l) -> (s - n, l)
        for n in ns:
            new_order = s_t - n
            if new_order >= 1:
                add(
                    n,
                    tuple(sorted(rest_t + [(new_order, l_t)])),
                    Fraction(factorial(s_t), factorial(new_order - 1)),
                )

    for n in ns:
        if n <= -1:
            # create a factor from the exponential momentum
            inv = factorial(-1 - n)
            for i, x in enumerate(beta):
                if x:
                    add(n, tuple(sorted(mono + ((-n, i),))), Fraction(x, inv))
        for factors, c in creation.get(n, ()):
            add(n, tuple(sorted(mono + factors)), c)
    _FAST_CACHE[cache_key] = out
    return out


_GINV_CACHE: dict = {}


def _gram_inv(space):
    hit = _GINV_CACHE.get(space)
    if hit is None:
        hit = linalg.inverse([list(r) for r in space.gram])
        _GINV_CACHE[space] = hit
    return hit


@dataclass
class CommutatorReport:
    ok: bool
    pairs_checked: int
    states_checked: int
    counterexample: tuple | None = None


def commutator_check(st: StressTensor, states, max_mode: int = 3) -> CommutatorReport:
    """Verify [L_m, L_n] = (m - n) L_{m+n} + c/12 (m^3 - m) delta_{m+n,0}
    exactly on every given state, for all |m|, |n| <= max_mode."""
    space, Q = st.element.space, st.Q
    all_ns = tuple(range(-2 * max_mode, 2 * max_mode + 1))
    creation = _creation_terms(space, Q, all_ns)

    def apply_mode(n: int, elem: FieldElement) -> FieldElement:
        acc: dict = {}
        for key, c in elem.terms.items():
            for k2, c2 in _fast_term_modes(space, Q, key, all_ns, creation)[n].items():
                _accumulate(acc, k2, c * c2)
        return FieldElement(space, _canonical_terms(acc))

    pairs = [
        (m, n)
        for m in range(-max_mode, max_mode + 1)
        for n in range(-max_mode, max_mode + 1)
        if m < n
    ]
    checked_states = 0
    for v in states:
        checked_states += 1
        images = {n: apply_mode(n, v) for n in range(-max_mode, max_mode + 1)}
        for m, n in pairs:
            lhs = apply_mode(m, images[n]) - apply_mode(n, images[m])
            rhs = (m - n) * apply_mode(m + n, v)
            if m + n == 0:
                rhs = rhs + (st.c * Fraction(m**3 - m, 12)) * v
            if lhs != rhs:
                return CommutatorReport(
                    ok=False,
                    pairs_checked=len(pairs),
                    states_checked=checked_states,
                    counterexample=(m, n, v),
                )
    return CommutatorReport(ok=True, pairs_checked=len(pairs), states_checked=checked_states)

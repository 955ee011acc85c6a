"""Stress tensor, Virasoro modes L_n = Y(T)_{-2-n}, and exact commutator
verification with the central term."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, perm

from . import linalg
from .freefield import FieldElement, _canonical_terms
from .lattice import Momentum, ScreeningLattices, canonical_quotient, common_numerators
from .vertexop import _numerators, mode_op


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
    """L_n b for every n in ns, in one pass over the terms of b; a
    repeated n is computed once.

    Evaluates the closed-form free-field action of the stress-tensor modes
    on basis terms; it agrees with the generic vertex-operator route
    (multi_mode_op) and that agreement is pinned by tests.  The
    coefficients of b are brought over their common denominator and
    `mode_numerators` does the work on ints; each output coefficient is
    divided once, here.
    """
    space = b.space
    ns = tuple(dict.fromkeys(ns))
    creation = _creation_terms(space, st.Q, ns)
    d, terms = _numerators(b.terms)
    return {
        n: FieldElement(space, {key: canonical_quotient(x, den) for key, x in nums.items()})
        for n, (den, nums) in mode_numerators(space, st.Q, ns, creation, d, terms).items()
    }


def mode_numerators(space, Q: Momentum, ns: tuple, creation: dict, d: int, terms, want=None) -> dict:
    """{n: (den, {term key: int})} with L_n elem = sum x/den key, for every
    n in want (all of ns by default), where elem = sum c/d key over the
    (key, int c) pairs of terms.  Every den is positive and no numerator is
    zero; numerator and den are not reduced to lowest terms."""
    want = ns if want is None else want
    per_term = [(c, _fast_term_modes(space, Q, key, ns, creation, want)) for key, c in terms]
    out = {}
    for n in want:
        top = lcm(*(modes[n][0] for _c, modes in per_term))
        acc: dict = {}
        for c, modes in per_term:
            den, nums = modes[n]
            f = c * (top // den)
            for k2, x in nums.items():
                acc[k2] = acc.get(k2, 0) + f * x
        out[n] = (d * top, {k2: x for k2, x in acc.items() if x})
    return out


def _creation_terms(space, Q: Momentum, ns: tuple) -> dict[int, tuple[int, list]]:
    """The part of L_n, n <= -2, that does not depend on the term it acts
    on: one created factor from the background charge and the created
    G-inverse-paired couples, summed per set of added factors.  Returns
    {n: (den, [(added factors, numerator), ...])}, each coefficient the
    int numerator over the common denominator den of that n."""
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
        entries = {f: c for f, c in acc.items() if c}
        den, nums = common_numerators(entries.values())
        table[n] = (den, list(zip(entries, nums)))
    return table


_FAST_CACHE: dict = {}


def _fast_term_modes(space, Q: Momentum, key, ns: tuple, creation: dict, rows=None) -> dict:
    """Closed-form L_n action on a single basis term, for every n in rows
    (all of ns by default; rows is a subset of ns).  The cache entry of a
    term holds the rows built so far and gains the missing ones.

    The contributions mirror the coproduct legs of Y(T): scalar action at
    n = 0, annihilation of one or two derivative factors, order shifts of
    a factor, and creation of factors from the momentum and, through
    `creation` (the `_creation_terms` of space, Q and ns), from Q and in
    G-inverse-paired couples.  Returns {n: (den, {term key: numerator})}
    with int numerators over one denominator per n.  Pairings with the
    momentum and with Q are taken on the integer Gram numerators, with the
    coordinates of the momentum and of Q over their own denominators.
    """
    cache_key = (space, Q.coords, key, ns)
    entry = _FAST_CACHE.get(cache_key)
    if entry is None:
        entry = _FAST_CACHE[cache_key] = {}
    missing = [n for n in (ns if rows is None else rows) if n not in entry]
    if not missing:
        return entry
    beta, mono = key
    num = space._num
    bden, bnum = common_numerators(beta)
    qden, qnum = common_numerators(Q.coords)
    # gb[l] / (den bden) = (a_l, beta), gq[l] / (den qden) = (a_l, Q)
    gb = [sum(g * x for g, x in zip(row, bnum)) for row in num]
    gq = [sum(g * x for g, x in zip(row, qnum)) for row in num]
    pair_den = space._den * bden * qden
    # numerators per n, grouped by denominator: {n: {den: {new monomial: x}}}
    parts: dict[int, dict] = {n: {} for n in missing}

    def add(n, mono_new, x, den):
        if x and n in parts:
            group = parts[n].setdefault(den, {})
            group[mono_new] = group.get(mono_new, 0) + x

    def removed(positions):
        rest = list(mono)
        for p in sorted(positions, reverse=True):
            del rest[p]
        return rest

    # n = 0 scalar part (beta, beta)/2 - (beta, Q); the degree part arises
    # from the order shift below at n = 0
    beta_sq = sum(x * y for x, y in zip(bnum, gb))
    beta_q = sum(x * y for x, y in zip(bnum, gq))
    add(0, mono, qden * beta_sq - 2 * bden * beta_q, 2 * bden * pair_den)

    for t, (s_t, l_t) in enumerate(mono):
        rest_t = removed([t])
        # annihilate one factor against the exponential / background charge
        add(
            s_t,
            tuple(rest_t),
            qden * factorial(s_t) * gb[l_t] - bden * factorial(s_t + 1) * gq[l_t],
            pair_den,
        )
        # annihilate a pair of factors
        for r in range(t + 1, len(mono)):
            s_r, l_r = mono[r]
            add(
                s_t + s_r,
                tuple(removed([t, r])),
                num[l_t][l_r] * factorial(s_t) * factorial(s_r),
                space._den,
            )
        # shift the order of one factor: (s, l) -> (s - n, l), with the
        # factor s! / (s - n - 1)!
        for n in missing:
            new_order = s_t - n
            if new_order >= 1:
                shifted = tuple(sorted(rest_t + [(new_order, l_t)]))
                if n >= -1:
                    add(n, shifted, perm(s_t, n + 1), 1)
                else:
                    add(n, shifted, 1, perm(new_order - 1, -1 - n))

    for n in missing:
        if n <= -1:
            # create a factor from the exponential momentum
            inv = bden * factorial(-1 - n)
            for i, x in enumerate(bnum):
                add(n, tuple(sorted(mono + ((-n, i),))), x, inv)
        if n in creation:
            den, entries = creation[n]
            group = parts[n].setdefault(den, {})
            for factors, c in entries:
                mono_new = tuple(sorted(mono + factors))
                group[mono_new] = group.get(mono_new, 0) + c

    for n, groups in parts.items():
        top = lcm(*groups)
        bucket: dict = {}
        for den, group in groups.items():
            f = top // den
            for mono_new, x in group.items():
                bucket[mono_new] = bucket.get(mono_new, 0) + f * x
        entry[n] = (top, {(beta, m): x for m, x in bucket.items() if x})
    return entry


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
    exactly on every given state, for all |m|, |n| <= max_mode.

    Per state, every L_k v is computed in one pass over v, and L_m L_n v
    for all m != n in one pass over each L_n v.  Since m < n, the sum
    m + n stays within 2 max_mode - 1 of zero.  The images stay integer
    numerators over one denominator each (`mode_numerators`); per pair,
    lhs - rhs is summed over their common denominator, the central term
    as the numerator and denominator of c (m^3 - m)/12, and the identity
    holds exactly when every sum is zero.  No coefficient is divided.
    """
    space, Q = st.element.space, st.Q
    reach = max(2 * max_mode - 1, max_mode)
    all_ns = tuple(range(-reach, reach + 1))
    creation = _creation_terms(space, Q, all_ns)
    modes = range(-max_mode, max_mode + 1)
    pairs = [(m, n) for m in modes for n in modes if m < n]
    central = {m: st.c * Fraction(m**3 - m, 12) for m in modes}
    checked_states = 0
    for v in states:
        checked_states += 1
        d, terms = _numerators(v.terms)
        images = mode_numerators(space, Q, all_ns, creation, d, terms)
        twice = {}
        for n in modes:
            den, nums = images[n]
            twice[n] = mode_numerators(space, Q, all_ns, creation, den, nums.items(), [m for m in modes if m != n])
        for m, n in pairs:
            # (sign, den, numerators) of L_m L_n v, -L_n L_m v, -(m - n) L_{m+n} v
            # and -c/12 (m^3 - m) v
            parts = [(1, *twice[n][m]), (-1, *twice[m][n]), (n - m, *images[m + n])]
            if m + n == 0 and central[m]:
                parts.append((-central[m].numerator, central[m].denominator * d, dict(terms)))
            top = lcm(*(den for _s, den, _nums in parts))
            acc: dict = {}
            for s, den, nums in parts:
                f = s * (top // den)
                for key, x in nums.items():
                    acc[key] = acc.get(key, 0) + f * x
            if any(acc.values()):
                return CommutatorReport(
                    ok=False,
                    pairs_checked=len(pairs),
                    states_checked=checked_states,
                    counterexample=(m, n, v),
                )
    return CommutatorReport(ok=True, pairs_checked=len(pairs), states_checked=checked_states)

"""Stress tensor, Virasoro modes L_n = Y(T)_{-2-n}, and exact commutator
verification with the central term."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, perm

from . import linalg
from .freefield import FieldElement, _canonical_terms, _numerators
from .lattice import Momentum, ScreeningLattices, canonical_quotient, common_numerators


@dataclass
class StressTensor:
    element: FieldElement
    Q: Momentum
    c: Fraction


def stress_tensor(sl: ScreeningLattices) -> StressTensor:
    """T = 1/2 sum_ij G^ij dphi_i dphi_j + sum_i Q_i d2phi_i over the
    ambient basis, with G^ij the inverse ambient Gram matrix and Q_i the
    coordinates of the background charge."""
    space = sl.space
    gram_inv = _gram_inv(space)
    zero = space.zero().coords
    terms: dict = {}
    for i in range(space.rank):
        for j in range(space.rank):
            if gram_inv[i][j]:
                key = (zero, tuple(sorted(((1, i), (1, j)))))
                terms[key] = terms.get(key, 0) + Fraction(1, 2) * gram_inv[i][j]
    for i, qi in enumerate(sl.Q.coords):
        if qi:
            terms[(zero, ((2, i),))] = qi
    elem = FieldElement(space, _canonical_terms(terms))
    return StressTensor(element=elem, Q=sl.Q, c=sl.central_charge)


def virasoro_mode(st: StressTensor, n: int, b: FieldElement) -> FieldElement:
    """L_n b, the z^{-2-n} coefficient of Y(T)b: the one-mode case of
    `virasoro_modes`."""
    return virasoro_modes(st, (n,), b)[n]


def virasoro_modes(st: StressTensor, ns, b: FieldElement) -> dict[int, FieldElement]:
    """L_n b for every n in ns, in one pass over the terms of b; a
    repeated n is computed once.

    Evaluates the closed-form free-field action of the stress-tensor modes
    on basis terms.  This is the package's one route to L_n.  Its test
    oracle is the generic vertex-operator route: the z^{-2-n}
    coefficients of Y(T)b from the `vertexop` engine, which
    `tests/test_virasoro.py::test_fast_modes_match_generic` compares it
    with.  The rows of the terms of b come from a `_TermRows` table that
    lives for this call only.  The coefficients of b are brought over their common
    denominator and `_images` does the work on ints; each output
    coefficient is divided once, here.
    """
    st.element._check_space(b)
    space = b.space
    ns = tuple(dict.fromkeys(ns))
    d, terms = _numerators(b.terms)
    return {
        n: FieldElement(
            space,
            {(beta, m): canonical_quotient(x, den) for beta, nums in by_beta.items() for m, x in nums.items()},
        )
        for n, (den, by_beta) in _images(_TermRows(space, st.Q), ns, d, terms).items()
    }


def _add_scaled(acc: dict, beta, f: int, nums: dict) -> None:
    """acc[beta][m] += f * x for every (m, x) in nums."""
    bucket = acc.get(beta)
    if bucket is None:
        bucket = acc[beta] = {}
    get = bucket.get
    for m, x in nums.items():
        bucket[m] = get(m, 0) + f * x


def _images(rows: "_TermRows", ns: tuple, d: int, terms) -> dict:
    """{n: (den, {momentum: {monomial: int}})} with L_n elem = sum x/den
    (momentum, monomial), for every n in ns, where elem = sum c/d key over
    the (key, int c) pairs of terms.  L_n keeps the momentum of a term, so
    the numerators are grouped by it.  Every den is positive, and no
    numerator is zero and no group empty; numerator and den are not
    reduced to lowest terms."""
    per_term = [(key[0], c, rows.rows(key, ns)) for key, c in terms]
    out = {}
    for n in ns:
        top = lcm(*(row[n][0] for _beta, _c, row in per_term))
        acc: dict = {}
        for beta, c, row in per_term:
            den, nums = row[n]
            _add_scaled(acc, beta, c * (top // den), nums)
        groups = {}
        for beta, bucket in acc.items():
            nonzero = {m: x for m, x in bucket.items() if x}
            if nonzero:
                groups[beta] = nonzero
        out[n] = (d * top, groups)
    return out


def _creation_terms(space, Q: Momentum, n: int) -> tuple[int, list]:
    """The part of L_n, n <= -2, that does not depend on the term it acts
    on: one created factor from the background charge and the created
    G-inverse-paired couples, summed per set of added factors.  Returns
    (den, [(added factors, numerator), ...]), each coefficient the int
    numerator over the common denominator den."""
    gram_inv = _gram_inv(space)
    rank = space.rank
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
    return den, list(zip(entries, nums))


# the momentum-free parts of the rows, {n: (den, {monomial: int}, slots)},
# keyed by (space, Q's denominator, Q's numerators, monomial)
_FAST_CACHE: dict = {}


class _TermRows:
    """The closed-form L_n action on single basis terms under one stress
    tensor, kept for the life of this object: one call of
    `commutator_check` or `virasoro_modes`.

    L_n keeps the momentum of a basis term, so the row of a term
    (beta, u), beta its momentum and u its monomial, is
    {n: (den, {monomial: numerator})}, each monomial standing for the term
    (beta, monomial): int numerators over one positive denominator per n,
    no numerator zero.  A row may share its dict with `_FAST_CACHE`, so
    callers only read it.  `table` holds the rows built so far, keyed by
    the term alone, and an entry gains the missing n on request.

    The contributions mirror the coproduct legs of Y(T): scalar action at
    n = 0, annihilation of one or two derivative factors, order shifts of
    a factor, and creation of factors from the momentum, from Q and in
    G-inverse-paired couples.  Most of them read u alone: the pair
    annihilation, the order shifts, annihilation against Q, and creation
    from Q and in couples.  That momentum-free part is built once per
    (u, n) by `_free_rows` and shared across calls in `_FAST_CACHE`.  Per
    term, `rows` adds only the three parts that read beta: the n = 0
    scalar (beta, beta)/2 - (beta, Q), annihilation of a factor against
    beta, and creation of a factor from beta.  Pairings with beta and with
    Q are taken on the integer Gram numerators, with the coordinates of
    beta and of Q over their own denominators.
    """

    def __init__(self, space, Q: Momentum):
        self.space = space
        self.Q = Q
        self.qden, qnum = common_numerators(Q.coords)
        self.qnum = tuple(qnum)
        # gq[l] / (den qden) = (a_l, Q), den the Gram denominator
        self.gq = [sum(g * x for g, x in zip(row, qnum)) for row in space._num]
        self.table: dict = {}
        self._creation: dict = {}

    def rows(self, key, ns) -> dict:
        """The row of the term key, completed for every n in ns."""
        entry = self.table.get(key)
        if entry is None:
            entry = self.table[key] = {}
        missing = [n for n in ns if n not in entry]
        if not missing:
            return entry
        beta, mono = key
        space = self.space
        free = self._free_rows(mono, missing)
        bden, bnum = common_numerators(beta)
        # gb[l] / (den bden) = (a_l, beta)
        gb = [sum(g * x for g, x in zip(row, bnum)) for row in space._num]
        for n in missing:
            fden, fnums, slots = free[n]
            if n == 0:
                # (beta, beta)/2 - (beta, Q); the degree part is an order shift
                beta_sq = sum(x * y for x, y in zip(bnum, gb))
                beta_q = sum(x * y for x, y in zip(bnum, self.gq))
                part = [(mono, self.qden * beta_sq - 2 * bden * beta_q)]
                pden = 2 * bden * bden * space._den * self.qden
            elif n > 0:
                # annihilate a factor of order n against beta
                part = [(rest, c * gb[l]) for rest, l, c in slots]
                pden = space._den * bden
            else:
                # create a factor of order -n from beta
                part = list(zip(slots, bnum))
                pden = bden * factorial(-1 - n)
            part = [(m, x) for m, x in part if x]
            if not part:
                entry[n] = (fden, fnums)
                continue
            top = lcm(fden, pden)
            f, g = top // fden, top // pden
            nums = dict(fnums) if f == 1 else {m: f * x for m, x in fnums.items()}
            for m, x in part:
                y = nums.get(m, 0) + g * x
                if y:
                    nums[m] = y
                else:
                    del nums[m]
            entry[n] = (top, nums)
        return entry

    def _free_rows(self, mono, ns) -> dict:
        """{n: (den, {monomial: numerator}, slots)}: the momentum-free part
        of L_n on any term with monomial mono, for every n in ns (and any
        other n an earlier call built).  The slots say where beta enters:
        for n > 0, (monomial without the factor, its index l, n!) per
        factor of order n; for n < 0, the monomial with a factor (-n, i)
        added, per i; none for n = 0."""
        space = self.space
        cache_key = (space, self.qden, self.qnum, mono)
        entry = _FAST_CACHE.get(cache_key)
        if entry is None:
            entry = _FAST_CACHE[cache_key] = {}
        missing = [n for n in ns if n not in entry]
        if not missing:
            return entry
        num = space._num
        gq = self.gq
        qden = self.qden
        # numerators per n, grouped by denominator: {n: {den: {new monomial: x}}}
        parts: dict[int, dict] = {n: {} for n in missing}
        slots: dict[int, list] = {n: [] for n in missing}

        def add(n, mono_new, x, den):
            if x and n in parts:
                group = parts[n].setdefault(den, {})
                group[mono_new] = group.get(mono_new, 0) + x

        for t, (s_t, l_t) in enumerate(mono):
            rest_t = mono[:t] + mono[t + 1 :]
            # annihilate one factor against the background charge; the
            # momentum leg of this annihilation is a slot
            add(s_t, rest_t, -factorial(s_t + 1) * gq[l_t], space._den * qden)
            if s_t in slots:
                slots[s_t].append((rest_t, l_t, factorial(s_t)))
            # annihilate a pair of factors
            for r in range(t + 1, len(mono)):
                s_r, l_r = mono[r]
                add(
                    s_t + s_r,
                    rest_t[: r - 1] + rest_t[r:],
                    num[l_t][l_r] * factorial(s_t) * factorial(s_r),
                    space._den,
                )
            # shift the order of one factor: (s, l) -> (s - n, l), with the
            # factor s! / (s - n - 1)!
            for n in missing:
                new_order = s_t - n
                if new_order >= 1:
                    shifted = tuple(sorted(rest_t + ((new_order, l_t),)))
                    if n >= -1:
                        add(n, shifted, perm(s_t, n + 1), 1)
                    else:
                        add(n, shifted, 1, perm(new_order - 1, -1 - n))

        for n in missing:
            if n <= -1:
                # where a factor created from the momentum lands
                slots[n] = [tuple(sorted(mono + ((-n, i),))) for i in range(space.rank)]
            if n <= -2:
                if n not in self._creation:
                    self._creation[n] = _creation_terms(space, self.Q, n)
                den, entries = self._creation[n]
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
            entry[n] = (top, {m: x for m, x in bucket.items() if x}, tuple(slots[n]))
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

    Per state, every L_k v is computed in one pass over v.  Since m < n,
    the sum m + n stays within 2 max_mode - 1 of zero.  The images stay
    integer numerators over one denominator each (`_images`), and the rows
    of every term come from one `_TermRows` table that lives for this call.
    Per pair, L_m L_n v, -L_n L_m v, (n - m) L_{m+n} v and the central
    term, the numerator and denominator of c (m^3 - m)/12, are summed in
    one pass into one integer accumulator over their common denominator,
    grouped by momentum since every L_k keeps it; the identity holds
    exactly when every sum is zero.  No coefficient is divided.  A state
    over another lattice is refused, as `virasoro_modes` refuses it.
    """
    space, Q = st.element.space, st.Q
    reach = max(2 * max_mode - 1, max_mode)
    all_ns = tuple(range(-reach, reach + 1))
    modes = tuple(range(-max_mode, max_mode + 1))
    pairs = [(m, n) for m in modes for n in modes if m < n]
    central = {m: st.c * Fraction(m**3 - m, 12) for m in modes}
    rows = _TermRows(space, Q)
    checked_states = 0
    for v in states:
        st.element._check_space(v)
        checked_states += 1
        d, terms = _numerators(v.terms)
        by_beta: dict = {}
        for (beta, mono), y in terms:
            by_beta.setdefault(beta, {})[mono] = y
        images = _images(rows, all_ns, d, terms)
        # (den, [(momentum, numerator, row), ...]): the terms of L_n v, each
        # with its row completed for every mode
        on = {}
        for n in modes:
            den, groups = images[n]
            on[n] = (
                den,
                [(beta, x, rows.rows((beta, m), modes)) for beta, nums in groups.items() for m, x in nums.items()],
            )
        for m, n in pairs:
            # L_m L_n v - L_n L_m v - (m - n) L_{m+n} v - c/12 (m^3 - m) v
            (dn, on_n), (dm, on_m) = on[n], on[m]
            ds, sums = images[m + n]
            tops = [
                dn * lcm(*(row[m][0] for _beta, _x, row in on_n)),
                dm * lcm(*(row[n][0] for _beta, _x, row in on_m)),
                ds,
            ]
            c = central[m] if m + n == 0 else 0
            if c:
                tops.append(c.denominator * d)
            top = lcm(*tops)
            acc: dict = {}
            for sign, dk, on_k, k in ((1, dn, on_n, m), (-1, dm, on_m, n)):
                f = sign * (top // dk)
                for beta, x, row in on_k:
                    den, nums = row[k]
                    _add_scaled(acc, beta, x * (f // den), nums)
            f = (n - m) * (top // ds)
            for beta, nums in sums.items():
                _add_scaled(acc, beta, f, nums)
            if c:
                f = -c.numerator * (top // (c.denominator * d))
                for beta, nums in by_beta.items():
                    _add_scaled(acc, beta, f, nums)
            if any(any(bucket.values()) for bucket in acc.values()):
                return CommutatorReport(
                    ok=False,
                    pairs_checked=len(pairs),
                    states_checked=checked_states,
                    counterexample=(m, n, v),
                )
    return CommutatorReport(ok=True, pairs_checked=len(pairs), states_checked=checked_states)

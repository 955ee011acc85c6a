from fractions import Fraction
from math import lcm

import pytest

from latvoa.freefield import FieldElement, _mono_degree
from latvoa.lattice import ScreeningLattices
from latvoa.rootdata import build_root_system


@pytest.fixture(scope="session")
def sl_a1():
    return ScreeningLattices(build_root_system("A", 1), 4)


@pytest.fixture(scope="session")
def sl_b2():
    return ScreeningLattices(build_root_system("B", 2), 4)


@pytest.fixture(scope="session")
def sl_b3():
    return ScreeningLattices(build_root_system("B", 3), 4)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product of two dense matrices, as Fractions."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def integer_row(entries):
    """The sparse integer row {column: int} of the given (column, value)
    entries: the nonzero ones, scaled by the lcm of their denominators,
    which leaves the row's kernel unchanged."""
    entries = [(j, x) for j, x in entries if x]
    den = lcm(*(x.denominator for _j, x in entries))
    return {j: x.numerator * (den // x.denominator) for j, x in entries}


def sparse_rows(a):
    """The nonzero rows of a dense matrix as sparse integer rows, the input
    of `linalg.echelon` and `linalg.nullspace`."""
    rows = (integer_row(enumerate(row)) for row in a)
    return [row for row in rows if row]


def support_min(a, b):
    """Exact lower bound for z-exponents of Y(a)b; None for zero input."""
    lows = []
    pair = a.space.pair_coords
    for (ma, ua) in a.terms:
        for (mb, ub) in b.terms:
            lows.append(pair(ma, mb) - _mono_degree(ua) - _mono_degree(ub))
    return min(lows) if lows else None


def exp_state(sl, coords):
    return FieldElement.exponential(sl.space, sl.space.momentum(coords))


def dphi_state(sl, coords, order=1):
    return FieldElement.dphi(sl.space, sl.space.momentum(coords), order)


def random_state(sl, rng, max_terms=3, max_factors=2, denominators=(1, 2)):
    """Small random element with rational momenta and low-degree monomials."""
    space = sl.space
    out = FieldElement.zero(space)
    for _ in range(rng.randint(1, max_terms)):
        mom = space.momentum(
            [
                Fraction(rng.randint(-3, 3), rng.choice(denominators))
                for _ in range(space.rank)
            ]
        )
        term = FieldElement.exponential(space, mom)
        for _ in range(rng.randint(0, max_factors)):
            dm = space.momentum([rng.randint(-2, 2) for _ in range(space.rank)])
            if dm.is_zero():
                continue
            term = term * FieldElement.dphi(space, dm, rng.randint(1, 3))
        coeff = Fraction(rng.randint(-4, 4), rng.choice(denominators))
        if coeff:
            out = out + coeff * term
    return out


def tensor_multiply(left, right, space):
    """Componentwise product of two coproduct tensors (for algebra-map tests)."""
    out = {}
    for (la, ra), ca in left.items():
        ea = (FieldElement(space, {la: 1}), FieldElement(space, {ra: 1}))
        for (lb, rb), cb in right.items():
            eb = (FieldElement(space, {lb: 1}), FieldElement(space, {rb: 1}))
            prod_l = ea[0] * eb[0]
            prod_r = ea[1] * eb[1]
            for kl, cl in prod_l.terms.items():
                for kr, cr in prod_r.terms.items():
                    key = (kl, kr)
                    new = out.get(key, 0) + ca * cb * cl * cr
                    if new:
                        out[key] = new
                    elif key in out:
                        del out[key]
    return out

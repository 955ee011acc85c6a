"""The construction is not tied to l = 4: rank one at p = 3 reproduces
the expected triplet-family data (c = 1 - 6 (p-1)^2 / p = -7, six modules
in a cyclic quotient, a unique facet module with two groundstates, and
the stress tensor inside the vacuum kernel)."""

from fractions import Fraction

from latvoa.lattice import ScreeningLattices, groundstates
from latvoa.rootdata import build_root_system
from latvoa.screening import apply_screening, kernel_report, short_screening_set
from latvoa.virasoro import stress_tensor

F = Fraction


def test_a1_p3_lattice_data():
    sl = ScreeningLattices(build_root_system("A", 1), 6)
    p = 3
    assert sl.central_charge == 1 - Fraction(6 * (p - 1) ** 2, p) == -7
    qg = sl.module_cosets()
    assert qg.order == 6 and qg.invariant_factors == [6]
    counts = sorted(
        len(groundstates(sl, sl.long_lattice_coset(rep))[0]) for rep in qg.coset_reps
    )
    assert counts == [1, 1, 1, 1, 1, 2]
    for a in sl.basis_short + sl.basis_long:
        assert sl.conformal_dim(a) == 1


def test_a1_p3_vacuum_kernel():
    sl = ScreeningLattices(build_root_system("A", 1), 6)
    vac = sl.long_lattice_coset(sl.space.zero())
    screens = short_screening_set(sl)
    assert sl.space.norm(screens[0]) == F(2, 3)
    st = stress_tensor(sl)
    assert apply_screening(screens[0], st.element).is_zero()
    rep = kernel_report(sl, vac, screens, 4)
    assert [r[2] for r in rep.rows()] == [1, 0, 1, 1, 2]
    # the level-2 kernel is the stress tensor again
    (kernel_t,) = rep.layers[2].intersection_basis
    ratios = {F(kernel_t.terms[k]) / F(v) for k, v in st.element.terms.items()}
    assert set(kernel_t.terms) == set(st.element.terms) and len(ratios) == 1

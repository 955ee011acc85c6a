"""Exact-arithmetic lattice vertex algebras with screening charges:
root systems, rescaled lattices, free-field states, vertex-operator
modes, Virasoro action, screening kernels, graded characters, and
quantum-group degeneracy tables."""

from .freefield import FieldElement
from .lattice import (
    Coset,
    Momentum,
    MomentumSpace,
    ScreeningLattices,
    groundstates,
    num_simples,
    quadratic_form_F,
    quotient_group,
)
from .rootdata import RootSystem, build_root_system, dual_root_system
from .scalars import Scalar
from .screening import (
    apply_screening,
    braiding_matrix,
    kernel_layer,
    kernel_report,
    layer_basis,
    long_screening_suite,
    module_layers,
    nichols_check,
    short_screening_set,
    weyl_power_exponent,
)
from .vertexop import mode_op, residue_op
from .virasoro import commutator_check, stress_tensor, virasoro_mode

__version__ = "0.1.0"

__all__ = [
    "Coset",
    "FieldElement",
    "Momentum",
    "MomentumSpace",
    "RootSystem",
    "Scalar",
    "ScreeningLattices",
    "apply_screening",
    "braiding_matrix",
    "build_root_system",
    "commutator_check",
    "dual_root_system",
    "groundstates",
    "kernel_layer",
    "kernel_report",
    "layer_basis",
    "long_screening_suite",
    "mode_op",
    "module_layers",
    "nichols_check",
    "num_simples",
    "quadratic_form_F",
    "quotient_group",
    "residue_op",
    "short_screening_set",
    "stress_tensor",
    "virasoro_mode",
    "weyl_power_exponent",
]

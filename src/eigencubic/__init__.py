"""Verification workbench for cubic minimal cones and their algebras."""

from .composition import CDElement, cd_conj, cd_mul, cd_norm
from .clifford import CliffordSystem, build_clifford_system, hurwitz_radon, \
    verify_clifford_system
from .cubics import (CATALOG, CubicForm, albert_contraction_cubic,
                     cartan_cubic, catalog_build, clifford_cubic,
                     complexified_cubic, involution_cubic, octonion_cubic21,
                     trivial_cubic)
from .jordan import (HermMat3, freudenthal_det, fullspace_basis, involution,
                     trace_form, tracefree_basis)
from .poly import Poly
from .scalars import QSqrt3

__version__ = "0.1.0"

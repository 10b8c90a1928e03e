from .determinants import (
    determinant_stack,
    npoint_det,
    one_hole_det,
    one_hole_stack_check,
    one_point_stack_check,
    recursion_expand_check,
    recursion_sides,
    single_det_form,
)
from .fock import StateVector, pair, vacuum
from .limits import limit_correspondence, limit_sides
from .monodromy import (
    apply_local_L,
    build_conj_state,
    build_state,
    r_matrix,
    verify_rtt,
)
from .scalar import METHODS, boundary_monomial, scalar_product
from .skew import (
    boundary_correlator,
    correlator_npoint,
    correlator_one_hole,
    correlator_seeded,
    npoint_state,
    skew_conj_state,
    skew_state,
    validate_npoint_indices,
)

__all__ = [
    "METHODS",
    "StateVector",
    "apply_local_L",
    "boundary_correlator",
    "boundary_monomial",
    "build_conj_state",
    "build_state",
    "correlator_npoint",
    "correlator_one_hole",
    "correlator_seeded",
    "determinant_stack",
    "limit_correspondence",
    "limit_sides",
    "npoint_det",
    "npoint_state",
    "one_hole_det",
    "one_hole_stack_check",
    "one_point_stack_check",
    "pair",
    "r_matrix",
    "recursion_expand_check",
    "recursion_sides",
    "scalar_product",
    "single_det_form",
    "skew_conj_state",
    "skew_state",
    "vacuum",
    "validate_npoint_indices",
    "verify_rtt",
]

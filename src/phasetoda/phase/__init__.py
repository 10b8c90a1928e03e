from .determinants import (
    npoint_det,
    one_hole_det,
    one_hole_stack_check,
    one_point_stack_check,
    recursion_expand_check,
    single_det_form,
)
from .fock import (
    FockState,
    StateVector,
    all_occupations,
    pair,
    vacuum,
)
from .limits import LIMIT_KINDS, limit_correspondence
from .monodromy import (
    apply_local_L,
    build_conj_state,
    build_state,
    monodromy_apply,
    r_matrix,
    verify_rtt,
)
from .scalar import METHODS, prefactor, scalar_product, vandermonde_divide
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
    "FockState",
    "LIMIT_KINDS",
    "METHODS",
    "StateVector",
    "all_occupations",
    "apply_local_L",
    "boundary_correlator",
    "build_conj_state",
    "build_state",
    "correlator_npoint",
    "correlator_one_hole",
    "correlator_seeded",
    "limit_correspondence",
    "monodromy_apply",
    "npoint_det",
    "npoint_state",
    "one_hole_det",
    "one_hole_stack_check",
    "one_point_stack_check",
    "pair",
    "prefactor",
    "r_matrix",
    "recursion_expand_check",
    "scalar_product",
    "single_det_form",
    "skew_conj_state",
    "skew_state",
    "vacuum",
    "validate_npoint_indices",
    "vandermonde_divide",
    "verify_rtt",
]

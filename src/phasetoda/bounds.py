"""Versioned desk-scale bounds used by the verification suites."""

BOUNDS_VERSION = "1"

BOUNDS = {
    "version": BOUNDS_VERSION,
    # scalar product three-way agreement
    "scalar_symbolic_n": 2,
    "scalar_symbolic_m": 3,
    "scalar_numeric_n": (3, 4),
    "scalar_numeric_m": 3,
    "scalar_numeric_points": 20,
    # state-vector coefficient checks
    "state_coeff_n": 3,
    "state_coeff_m": 3,
    # combinatorial universes
    "combi_n": 3,
    "combi_m": 3,
    # hierarchy sizes
    "prop1_size": 4,
    "bilinear_size": 4,
    "bilinear_tuples": 50,
    # evaluation points drawn before the bilinear item fails as degenerate
    "bilinear_draws": 16,
    "linear_size": 3,
    "linear_flows": 2,
    "schur_expand_size": 4,
    # correspondence checks
    "correspondence_n": 3,
    "correspondence_m": 3,
    "npoint_order": 3,
    # intertwining
    "rtt_m": 2,
    "rtt_cap": 3,
    "rtt_pairs": 5,
}

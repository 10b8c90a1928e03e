from .multipoly import (
    MultiPoly,
    ZERO,
    as_poly,
    constant_over,
    constants_over_lcm,
    grevlex_key,
    poly_sum,
    var_key,
)
from .matrix import RingMatrix, det_cofactor, det_exact
from .ratio import RatioPoly, reduce_pair

__all__ = [
    "MultiPoly",
    "ZERO",
    "RingMatrix",
    "RatioPoly",
    "as_poly",
    "constant_over",
    "constants_over_lcm",
    "det_cofactor",
    "det_exact",
    "grevlex_key",
    "poly_sum",
    "reduce_pair",
    "var_key",
]

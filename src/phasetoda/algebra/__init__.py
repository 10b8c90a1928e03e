from .multipoly import (
    MultiPoly,
    ONE,
    ZERO,
    as_poly,
    grevlex_key,
    var_key,
)
from .matrix import RingMatrix, det_cofactor, det_exact
from .ratio import RatioPoly, reduce_pair

__all__ = [
    "MultiPoly",
    "ONE",
    "ZERO",
    "RingMatrix",
    "RatioPoly",
    "as_poly",
    "det_cofactor",
    "det_exact",
    "grevlex_key",
    "reduce_pair",
    "var_key",
]

from .multipoly import (
    MultiPoly,
    ONE,
    ZERO,
    grevlex_key,
    var_key,
)
from .matrix import RingMatrix, det_cofactor, det_exact
from .ratio import RatioMatrix, RatioPoly, reduce_pair

__all__ = [
    "MultiPoly",
    "ONE",
    "ZERO",
    "RingMatrix",
    "RatioMatrix",
    "RatioPoly",
    "det_cofactor",
    "det_exact",
    "grevlex_key",
    "reduce_pair",
    "var_key",
]

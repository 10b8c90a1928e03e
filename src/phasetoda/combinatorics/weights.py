"""Weighted sums over the three combinatorial pictures.

The state-vector coefficient attached to a partition lambda can be computed
three ways: summing vertex-letter weights over lattice-path configurations,
summing diagonal-difference weights over plane-partition halves, or summing
content weights over semi-standard tableaux.  All three agree per
configuration (the bijections preserve the weight) and sum to closed
Schur-polynomial forms; the functions below expose each route separately so
the agreements can be tested rather than assumed.

Exponent dictionaries per picture, with t_l the tableau multiplicity of l:

  creation side      u_l exponent  2*t_l - M   (descending tableaux)
  annihilation side  v_l exponent  M - 2*t_l   (ascending tableaux)
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ..algebra import MultiPoly
from ..errors import ShapeViolation
from .partitions import Partition, SkewShape, column, hook, partitions_in_box
from .paths import LatticePathConfig, pp_to_path
from .planepartitions import (
    HalfPlanePartition,
    combine_halves,
    constant_half,
    lower_diagonal,
    upper_diagonal,
)
from .tableaux import enumerate_tableaux

PICTURES = ("paths", "pp", "tableaux")


def _full_config(half: HalfPlanePartition) -> LatticePathConfig:
    """The path configuration of ``half`` joined to the constant half of the
    other side on the same diagonal."""
    upper = half.side == "upper"
    other = constant_half(half.diagonal(), half.n, half.m, "lower" if upper else "upper")
    return pp_to_path(combine_halves(half, other) if upper else combine_halves(other, half))


def _upper_exponents_pp(upper: HalfPlanePartition) -> list:
    d = upper.diagonal_sums() + [0]
    m = upper.m
    return [2 * (d[l - 1] - d[l]) - m for l in range(1, upper.n + 1)]


def _lower_exponents_pp(lower: HalfPlanePartition) -> list:
    d = lower.diagonal_sums() + [0]
    n, m = lower.n, lower.m
    # ascending-tableau letter l has multiplicity d[n-l] - d[n+1-l]
    return [m - 2 * (d[n - l] - d[n + 1 - l]) for l in range(1, n + 1)]


def weighted_sum_f(
    lam: Partition, n: int, m: int, u_names: Sequence[str], picture: str
) -> MultiPoly:
    """Creation-side coefficient of lambda as a weighted sum: the seeded
    coefficient with no seed, (u_1..u_N)^-M * S_lambda(u^2) for every
    picture."""
    return weighted_sum_psi2(0, lam, n, m, u_names, picture)


def weighted_sum_g(
    lam: Partition, n: int, m: int, v_names: Sequence[str], picture: str
) -> MultiPoly:
    """Annihilation-side coefficient: (v_1..v_N)^M * S_lambda(v^-2)."""
    if not lam.fits_in_box(n, m):
        raise ShapeViolation(f"{lam} outside ({m})^{n}")
    if picture == "paths":
        exps = ([config.annihilation_exponent(l) for l in range(1, n + 1)]
                for config in map(_full_config, lower_diagonal(lam, n, m)))
    elif picture == "pp":
        exps = map(_lower_exponents_pp, lower_diagonal(lam, n, m))
    elif picture == "tableaux":
        exps = ([m - 2 * t for t in tab.weight(n)]
                for tab in enumerate_tableaux(SkewShape(lam, Partition(())), n, "ascending"))
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return MultiPoly(v_names, Counter(map(tuple, exps)))


def psi1_support(k: int, n: int, m: int) -> list:
    """Partitions with hook(k) <= lambda <= ((M)^{N-1}, k)."""
    lo = hook(k)
    out = []
    for lam in partitions_in_box(n, m):
        if lam.contains(lo) and lam.get(n) <= k:
            out.append(lam)
    return out


def psi2_support(k: int, n: int, m: int) -> list:
    """Partitions with column(k) <= lambda <= ((M)^{N-k}, 1^k)."""
    lo = column(k)
    out = []
    for lam in partitions_in_box(n, m):
        if lam.contains(lo) and all(lam.get(i) <= 1 for i in range(n - k + 1, n + 1)):
            out.append(lam)
    return out


def weighted_sum_psi1(
    k: int, lam: Partition, n: int, m: int, v_names: Sequence[str], picture: str
) -> MultiPoly:
    """Coefficient of lambda in the one-hole conjugate vector.

    v_names lists the N-1 surviving annihilation variables (indices 2..N).
    Equals (v_2..v_N)^M * S_{lambda/(k)}(v_2^-2, .., v_N^-2).
    """
    if len(v_names) != n - 1:
        raise ShapeViolation("need N-1 annihilation variables")
    if not (lam.contains(hook(k)) and lam.fits_in_box(n, m) and lam.get(n) <= k):
        raise ShapeViolation(f"{lam} outside the allowed range for hole {k}")
    exps = []
    if picture in ("paths", "pp"):
        for lower in lower_diagonal(lam, n, m):
            if lower.entry(n, 1) != k:
                continue
            if picture == "paths":
                config = _full_config(lower)
                assert config.turns[0][0] == k
                exps.append([config.annihilation_exponent(l) for l in range(2, n + 1)])
            else:
                exps.append(_lower_exponents_pp(lower)[1:])
    elif picture == "tableaux":
        exps = ([m - 2 * t for t in tab.weight(n - 1)]
                for tab in enumerate_tableaux(SkewShape(lam, hook(k)), n - 1, "ascending"))
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return MultiPoly(v_names, Counter(map(tuple, exps)))


def weighted_sum_psi2(
    k: int, lam: Partition, n: int, m: int, u_names: Sequence[str], picture: str
) -> MultiPoly:
    """Coefficient of lambda in the k-fold seeded state vector.

    u_names lists the N-k surviving creation variables.  Equals
    (u_1..u_{N-k})^-M * S_{lambda/(1^k)}(u_1^2, .., u_{N-k}^2).
    """
    if len(u_names) != n - k:
        raise ShapeViolation("need N-k creation variables")
    ok = (
        lam.contains(column(k))
        and lam.fits_in_box(n, m)
        and all(lam.get(i) <= 1 for i in range(n - k + 1, n + 1))
    )
    if not ok:
        raise ShapeViolation(f"{lam} outside the allowed range for seed 1^{k}")
    exps = []
    if picture in ("paths", "pp"):
        for upper in upper_diagonal(lam, n, m):
            if not all(
                upper.entry(i, j) == 1
                for i in range(1, k + 1)
                for j in range(max(i, n - k + 1), n + 1)
            ):
                continue
            if picture == "paths":
                config = _full_config(upper)
                exps.append([config.creation_exponent(l) for l in range(1, n - k + 1)])
            else:
                exps.append(_upper_exponents_pp(upper)[: n - k])
    elif picture == "tableaux":
        exps = ([2 * t - m for t in tab.weight(n - k)]
                for tab in enumerate_tableaux(SkewShape(lam, column(k)), n - k, "descending"))
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return MultiPoly(u_names, Counter(map(tuple, exps)))

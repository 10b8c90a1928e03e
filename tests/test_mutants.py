"""Mutant gate: each planted fault must make the checks fail, with witnesses.

Every row of ``FAULTS`` replaces one function with a wrong copy: a Schur
layer function in every module that holds it, a kernel routine in the
module that looks it up (the packing helper once in the polynomial module,
once in the determinant module).  Under each fault, every family of
its row must yield at least one failed item of its own identities that
carries a witness, and ``run_family`` must return rather than raise.
Every family of ``suites.FAMILIES`` must be in at least one row.
``BOUNDS`` is shrunk for speed; the same small bounds pass without the fault.
"""

import collections
import inspect
import sys
import textwrap

import pytest

from phasetoda import suites, symfunc, toda
from phasetoda.algebra import MultiPoly, RatioPoly, RingMatrix, det_exact, matrix, multipoly
from phasetoda.combinatorics import Partition, SkewShape, planepartitions
from phasetoda.phase import determinants, monodromy, scalar
from phasetoda.toda import TauContext, linear, restrict, waves

# M = 2 puts (2, 1) in the box: a flipped Jacobi-Trudi offset still gives
# the right S_(1,1), so a 2x1 box cannot see it; for the same reason the
# tau expansion needs size 4, whose boxes at s = 2 hold (2, 1)
SMALL = dict(
    scalar_symbolic_n=2, scalar_symbolic_m=2, scalar_numeric_n=(2,), scalar_numeric_m=1,
    scalar_numeric_points=2, combi_n=2, combi_m=1,
    schur_expand_size=4, prop1_size=3, bilinear_size=3, bilinear_tuples=4, linear_flows=1,
    correspondence_n=2, correspondence_m=1,
)
SCHUR_FAMILIES = ("scalar-equivalence", "triple-agreement")
KERNEL_FAMILIES = ("tau-expansion", "prop1", "bilinear")


def jacobi_trudi_offset_flipped(shape, h):
    # the Jacobi-Trudi offset + j - i written as + i - j
    skew = shape if isinstance(shape, SkewShape) else SkewShape(shape, Partition(()))
    n = len(skew.outer.parts)
    if n == 0:
        return MultiPoly.const(1)
    rows = [
        [h[d] if d >= 0 else MultiPoly.zero()
         for d in (skew.outer.get(i) - skew.inner.get(j) + i - j for j in range(1, n + 1))]
        for i in range(1, n + 1)
    ]
    return det_exact(RingMatrix.from_rows(rows))


def h_row_without_last_letter(kmax, gens):
    return RIGHT["h_row"](kmax, list(gens)[:-1])


def pk_without_last_letter(k, gens):
    return symfunc.pk(k, list(gens)[:-1])


def edited(owner, name, old, new):
    """A copy of ``owner.name`` compiled from its own source in a copy of its
    module's namespace, with the one occurrence of ``old`` replaced."""
    fn = getattr(owner, name)
    module = sys.modules[fn.__module__]
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


# the determinant without the sign (-1)^{n(n-1)/2} of its reversed row
# Vandermonde: every form with two or three annihilation rows changes sign
row_sign_parity_dropped = edited(
    scalar, "_divided_difference_det", "(-1) ** (len(vs) * (len(vs) - 1) // 2) * ", ""
)
# the divided-difference column over u_1^2..u_{k+1}^2 without u_{k+1}^2
divided_difference_column_drops_letter = edited(
    scalar, "_divided_difference_det", "u2[: k + 1] + ys", "u2[:k] + ys"
)
# the divided-difference row over v_1^2..v_{j+1}^2 keeping v_{j+1}^2 alone
divided_difference_row_drops_letter = edited(
    scalar, "_divided_difference_det", "v2[: j + 1]", "v2[j : j + 1]"
)
# the n-point seed columns one degree high: M - r_i + i for M - r_i + i - 1
npoint_det_shape_off_by_one = edited(
    determinants, "npoint_det", "m - rs[i - 1] + i - 1", "m - rs[i - 1] + i"
)
# (prod top / prod bottom)^-M for ^M, so every boundary monomial is inverted
boundary_monomial_exponent_sign = edited(scalar, "boundary_monomial", "** m", "** -m")
# every packed field one slot narrower, so the top exponent of a variable
# carries into the next field (a width-1 field holds a single exponent and
# cannot carry, so it stays 1); planted where the product looks the packing
# up, and separately where the determinant expansion does
packing_narrow_fields = edited(
    multipoly, "_packing",
    "    radix = []\n",
    "    width = [max(w - 1, 1) for w in width]\n    radix = []\n",
)
# the cofactor sign (-1)^pos without the row's (-1)^k, so every 3x3
# determinant changes sign
det_dp_sign_flipped = edited(
    matrix, "_det_minor_dp",
    "neg = (k + (cols & (bit - 1)).bit_count()) & 1",
    "neg = (cols & (bit - 1)).bit_count() & 1",
)
# results keep numerators and denominator with a common factor, 2/2 for 1
make_without_gcd = edited(MultiPoly, "_make", "if den != 1:", "if False:")
# the same for a product of two constants, which bypasses _make
constant_product_without_gcd = edited(MultiPoly, "__mul__", "g = gcd(num, den)", "g = 1")
# fraction-free elimination without its exact division by the previous
# pivot, so each step scales the rows below it; the constant determinants
# take this route at every size
det_integer_without_division = edited(
    matrix, "_det_bareiss",
    "divide(pivot * row[j] - lead * top[j], prev)", "pivot * row[j] - lead * top[j]",
)
# the integer route's shift weight pq read as q^2, so every shifted quantum
# at a rational u = p/q is scaled as if u were 1
integer_shift_weight_q_squared = edited(
    monodromy, "_integer_weights", "return q * q, p * q, p * p", "return q * q, q * q, p * p"
)
# the diagonal weight of the intertwiner from v^2 instead of u^2
r_matrix_weight_from_v = edited(monodromy, "r_matrix", "f = u * u / denom", "f = v * v / denom")
# the carrier's 'a' step scaled by the 'd' weight: by u instead of 1/u on
# polynomials, by p^2 instead of q^2 on integers at u = p/q
transfer_a_step_scaled_by_u = edited(
    monodromy, "_transfer", "{occ: a * c for occ, c in first.items()}", "{occ: d * c for occ, c in first.items()}"
)
# a bra carried through sites 0..M, the ket order, instead of M..0
bra_swept_in_ket_order = edited(
    monodromy, "_transfer", "range(m, -1, -1) if dual else range(m + 1)", "range(m + 1)"
)
# the annihilation times y_k = +p_k(v^-2)/k, without their sign
miwa_map_drops_y_sign = edited(symfunc, "miwa_map", "y = [-(pk(k, vg)", "y = [(pk(k, vg)")
# every term of an n-ary sum added at its own denominator, not scaled to
# their lcm: a sum of terms over different denominators comes out wrong
poly_sum_skips_denominator_scale = edited(multipoly, "poly_sum", "f = den // p.den", "f = 1")
# the raising Toeplitz band one step off: zeta_{j-i+1} for zeta_{j-i}
shift_exp_band_off_by_one = edited(toda, "shift_exp", "z(j - i) if", "z(j - i + 1) if")

# the point pass's raising band one step off: zeta_{l-i+1}(x) for
# zeta_{l-i}(x), so no numeric dressed matrix is exp(x.raise) A exp(-y.lower);
# a band shifted the other way, zeta_{l-i-1}, would only dress raise * A,
# for which the identity holds as well
point_band_off_by_one = edited(
    TauContext, "at_point", "sum(map(mul, xs, col[i:]))", "sum(map(mul, xs[1:], col[i:]))"
)

# Jacobi's identity without its sign (-1)^(sum I + sum J): every dual
# minor whose rows and columns sum to an odd number changes sign
dual_minor_sign_dropped = edited(
    TauContext, "_dual_minor", "-1 if (sum(rows) + sum(cols)) % 2 else 1", "1"
)
# the dual context with the times left unswapped, so its dressed matrix is
# no longer J D^-1 J and the dual minors come out wrong
dual_keeps_times_unswapped = edited(TauContext, "_dual", "a, self.y, self.x", "a, self.x, self.y")

# a sum over the common denominator without the other side's leftover
# factors: nothing is divided out of a numerator, so the factor lists alone
# carry the taus, and every sum over two different lists comes out wrong
cross_drops_other_leftovers = edited(
    RatioPoly, "_cross", "common + a_only + remaining", "common + a_only"
)
# the triangular W^-1 kept under W's key: whichever of the two a context
# builds first stands in for both, so L and M come out wrong
wave_inverse_reads_matrix_key = edited(
    linear, "_hat_factor", '("hat_factor", kind, inverse)', '("hat_factor", kind, False)'
)
# the residue reads the lam^(power+k) coefficient of the shifted-tau
# product against zeta_k, one below the lam^(power+1+k) it pairs with
residue_coefficient_off_by_one = edited(
    waves, "bilinear_check", "power + 1 + k", "power + k"
)
# zeta_k(-grad) applied as zeta_k(+grad): the recurrence without its sign
zeta_recurrence_drops_sign = edited(
    symfunc, "zeta_diff_apply", "Fraction(sign, d)", "Fraction(1, d)"
)

# diagonal k of the half counts the cells of layer >= k, so every diagonal
# repeats the one before it
tableau_to_half_layer_off_by_one = edited(
    planepartitions, "tableau_to_pp_half", "layer > k", "layer >= k"
)
# each entry of a diagonal stops one above its lower bound (the next entry
# of the diagonal before it), so fewer halves are listed
enumerate_half_drops_lower_end = edited(
    planepartitions, "_enumerate_half", "prev[i + 1] - 1", "prev[i + 1]"
)

# MacMahon's row factor C(i + b + c - 1, b) / C(i + b - 1, b) read with its
# top one step high, so every box of a row or more is overcounted
macmahon_factor_off_by_one = edited(
    planepartitions, "macmahon_count", "comb(i + n + height - 1, n)", "comb(i + n + height, n)"
)
# a row leads only to the rows strictly below it in every entry, so every
# box of two rows or more loses chains
row_chains_strictly_below = edited(
    planepartitions, "_row_chains", "_dominates(row, b)", "all(map(operator.gt, row, b))"
)
# the rows of the box range over [0, M + 1]: the once-per-row check of the
# enumerator refuses the first row that reaches M + 1
box_rows_reach_past_m = edited(
    planepartitions, "enumerate_plane_partitions", "range(m, -1, -1)", "range(m + 1, -1, -1)"
)
# each entry of a diagonal starts one above its upper bound (the same entry
# of the diagonal before it): the check where each diagonal is made refuses it
enumerate_half_starts_above_upper_end = edited(
    planepartitions, "_enumerate_half", "range(prev[i],", "range(prev[i] + 1,"
)

RIGHT = {
    "h_row": symfunc.h_row, "jacobi_trudi": symfunc.jacobi_trudi, "shift_exp": toda.shift_exp,
    "macmahon_count": planepartitions.macmahon_count, "_row_chains": planepartitions._row_chains,
    "enumerate_plane_partitions": planepartitions.enumerate_plane_partitions,
    "tableau_to_pp_half": planepartitions.tableau_to_pp_half,
    "npoint_det": determinants.npoint_det,
    "_divided_difference_det": scalar._divided_difference_det,
    "boundary_monomial": scalar.boundary_monomial, "poly_sum": multipoly.poly_sum,
    "bilinear_check": toda.bilinear_check, "zeta_diff_apply": symfunc.zeta_diff_apply,
    "miwa_map": symfunc.miwa_map,
}


def plant_everywhere(name, fake):
    def plant(monkeypatch):
        """Replace the function in every phasetoda module that imported it."""
        planted = 0
        for modname, module in list(sys.modules.items()):
            if modname.startswith("phasetoda") and getattr(module, name, None) is RIGHT[name]:
                monkeypatch.setattr(module, name, fake)
                planted += 1
        assert planted
    return plant


def plant_on(owner, name, fake):
    def plant(monkeypatch):
        assert name in vars(owner)
        monkeypatch.setattr(owner, name, fake)
    return plant


def with_bound(key, value, plant):
    """The plant, with ``BOUNDS[key]`` set to ``value``."""
    def planted(monkeypatch):
        monkeypatch.setitem(suites.BOUNDS, key, value)
        plant(monkeypatch)
    return planted


FAULTS = {
    # char_poly, and so the tau expansion, reads jacobi_trudi too
    "jacobi-trudi-offset":
        (plant_everywhere("jacobi_trudi", jacobi_trudi_offset_flipped),
         SCHUR_FAMILIES + ("tau-expansion",)),
    "h-row-drops-last-letter":
        (plant_everywhere("h_row", h_row_without_last_letter), SCHUR_FAMILIES),
    "packed-product-narrow-fields":
        (plant_on(multipoly, "_packing", packing_narrow_fields), KERNEL_FAMILIES),
    # a determinant seldom reaches the top of every field at once: the
    # tau expansion's symbolic 3x3 minors do
    "det-dp-narrow-fields": (plant_on(matrix, "_packing", packing_narrow_fields), ("tau-expansion",)),
    # the 3x3 determinants of the state vectors, taus and wave functions;
    # the linear problem at size 3 reads its three-row minors through the
    # inverse, from complements of at most one row, so it is not listed
    "det-dp-cofactor-sign":
        (plant_on(matrix, "_det_minor_dp", det_dp_sign_flipped),
         ("state-coefficients", "tau-expansion", "bilinear", "tau-duality")),
    "make-skips-gcd": (plant_on(MultiPoly, "_make", make_without_gcd), KERNEL_FAMILIES),
    # also fails linear; the numeric scalar products mix denominators, and
    # the taus and wave functions sum characters with rational coefficients
    "poly-sum-skips-denominator-scale":
        (plant_everywhere("poly_sum", poly_sum_skips_denominator_scale),
         ("scalar-equivalence",) + KERNEL_FAMILIES),
    # 2/2 is not equal to 1: the numeric scalar products compare constants
    # (the intertwining runs on integers and multiplies none)
    "constant-product-skips-gcd":
        (plant_on(MultiPoly, "__mul__", constant_product_without_gcd), ("scalar-equivalence",)),
    # the taus of the constant matrices; no family's constant determinant
    # has a vanishing leading minor, so a row swap (and its sign) is left
    # to the oracle tests of tests/test_matrix.py
    "det-integer-skips-division":
        (plant_on(matrix, "_det_bareiss", det_integer_without_division), ("tau-expansion",)),
    "r-matrix-weight-from-v": (plant_on(monodromy, "r_matrix", r_matrix_weight_from_v), ("rtt",)),
    # the intertwining and the numeric Fock pairings take the integer route
    "integer-shift-weight-q-squared":
        (plant_on(monodromy, "_integer_weights", integer_shift_weight_q_squared),
         ("rtt", "scalar-equivalence")),
    "transfer-a-step-scaled-by-u":
        (plant_on(monodromy, "_transfer", transfer_a_step_scaled_by_u), ("rtt", "state-coefficients")),
    # the kets stay right, so only bra items fail
    "bra-swept-in-ket-order":
        (plant_on(monodromy, "_transfer", bra_swept_in_ket_order), ("state-coefficients",)),
    # the matrix identities of the linear problem name their first differing (i, j)
    "shift-exp-band-off-by-one":
        (plant_everywhere("shift_exp", shift_exp_band_off_by_one), ("linear",)),
    # W^-1 read as W: the wave-inverse identities name their first (i, j)
    "wave-inverse-reads-matrix-key":
        (with_bound("linear_size", 2, plant_on(linear, "_hat_factor", wave_inverse_reads_matrix_key)),
         ("linear",)),
    # G W sums entries over tau(i) tau(l + 1) tau(l), one list per l, and a
    # derivative adds a squared tau: the flows and the compatibility
    # identities fail, the wave inverses (one list per entry) do not
    "cross-drops-other-leftovers":
        (plant_on(RatioPoly, "_cross", cross_drops_other_leftovers), ("linear",)),
    # the failing residue names its sites and time points
    "residue-coefficient-off-by-one":
        (plant_everywhere("bilinear_check", residue_coefficient_off_by_one), ("bilinear",)),
    # the failing residue names its sites and time points
    "point-band-off-by-one": (plant_on(TauContext, "at_point", point_band_off_by_one), ("bilinear",)),
    # the non-principal dual minors: the wave entries' minors against the
    # direct route, and the limits' wave entries against the correlators
    "dual-minor-sign-dropped":
        (plant_on(TauContext, "_dual_minor", dual_minor_sign_dropped), ("tau-duality", "limits")),
    # every dual minor against the direct route, and the limits' wave
    # entries against the correlators
    "dual-keeps-times-unswapped":
        (plant_on(TauContext, "_dual", dual_keeps_times_unswapped), ("tau-duality", "limits")),
    # the w_inf and w_zero derivative identities take zeta_k of the negated gradient
    "zeta-recurrence-drops-sign":
        (plant_everywhere("zeta_diff_apply", zeta_recurrence_drops_sign), ("prop1",)),
    # the failing round trip names the half, its tableau and the half it maps back to
    "tableau-to-half-layer-off-by-one":
        (plant_everywhere("tableau_to_pp_half", tableau_to_half_layer_off_by_one),
         ("bijections",)),
    # the failing count names the enumerated count and the formula's
    "macmahon-factor-off-by-one":
        (plant_everywhere("macmahon_count", macmahon_factor_off_by_one), ("bijections",)),
    # planted for the plane partitions and the paths alike
    "row-chains-strictly-below":
        (plant_everywhere("_row_chains", row_chains_strictly_below), ("bijections",)),
    "enumerate-half-drops-lower-end":
        (plant_on(planepartitions, "_enumerate_half", enumerate_half_drops_lower_end),
         ("triple-agreement",)),
    # the failing counts name the entry out of range
    "box-rows-reach-past-m":
        (plant_everywhere("enumerate_plane_partitions", box_rows_reach_past_m), ("bijections",)),
    # the failing weighted sums and round trips name the broken interlacing
    "enumerate-half-starts-above-upper-end":
        (plant_on(planepartitions, "_enumerate_half", enumerate_half_starts_above_upper_end),
         ("triple-agreement", "bijections")),
    # the failing determinant forms name their first q and both sides; the
    # hole rows hold two annihilation letters from N = 3
    "row-sign-parity-dropped":
        (with_bound("correspondence_n", 3, plant_everywhere("_divided_difference_det", row_sign_parity_dropped)),
         ("scalar-equivalence", "single-determinant")),
    "divided-difference-column-drops-letter":
        (plant_everywhere("_divided_difference_det", divided_difference_column_drops_letter),
         ("scalar-equivalence", "single-determinant")),
    "divided-difference-row-drops-letter":
        (plant_everywhere("_divided_difference_det", divided_difference_row_drops_letter),
         ("scalar-equivalence", "single-determinant")),
    # the failing power sum names its first k and both sides
    "power-sum-drops-last-letter": (plant_on(restrict, "pk", pk_without_last_letter), ("power-sums",)),
    # the recursion's children and its target are n-point determinants too,
    # but the expansion of the wrong target stops matching its children
    "npoint-det-shape-off-by-one":
        (plant_everywhere("npoint_det", npoint_det_shape_off_by_one),
         ("recursions", "single-determinant")),
    # the restricted tau against the pairing, and the limits against the
    # correlator sides, carry the monomial on one side only
    "boundary-monomial-exponent-sign":
        (plant_everywhere("boundary_monomial", boundary_monomial_exponent_sign), ("prop2", "limits")),
    # the restricted taus, read against the pairing and the correlator sides
    "miwa-map-drops-y-sign": (plant_everywhere("miwa_map", miwa_map_drops_y_sign), ("prop2", "limits")),
}
CASES = [(fault, family) for fault in sorted(FAULTS) for family in FAULTS[fault][1]]


@pytest.fixture
def small_bounds(monkeypatch):
    for key, value in SMALL.items():
        monkeypatch.setitem(suites.BOUNDS, key, value)


@pytest.mark.parametrize("family", tuple(suites.FAMILIES))
def test_small_bounds_pass_without_a_fault(small_bounds, family):
    items = suites.run_family(family, 7)
    assert items and all(it["pass"] for it in items)


def test_no_family_divides(small_bounds, monkeypatch):
    # exact division serves only reduce_pair and the polynomial Bareiss
    # oracle: with it refused, every family still passes at the small bounds
    def never(*args):
        raise AssertionError("a family tried an exact division")

    monkeypatch.setattr(MultiPoly, "divide_exact", never)
    for family in suites.FAMILIES:
        items = suites.run_family(family, 7)
        assert items and all(it["pass"] for it in items), family


def test_linear_at_size_2_passes_without_a_fault(small_bounds, monkeypatch):
    monkeypatch.setitem(suites.BOUNDS, "linear_size", 2)
    items = suites.run_family("linear", 7)
    assert items and all(it["pass"] for it in items)


@pytest.mark.parametrize("fault, family", CASES, ids=[f"{f}-{g}" for f, g in CASES])
def test_fault_fails_family_with_witness(small_bounds, monkeypatch, fault, family):
    plant, _ = FAULTS[fault]
    plant(monkeypatch)
    items = suites.run_family(family, 7)
    own = suites.FAMILIES[family].identities
    caught = [it for it in items if not it["pass"] and it["identity"] in own]
    assert caught, (fault, family)
    if family == "linear":
        assert all("(i, j)=" in it["witness"] for it in caught)
    # the enumerator's own check refuses the broken row or diagonal, before
    # any box is counted or any sum is built
    refusal = {
        "box-rows-reach-past-m": "(ShapeViolation: entry ",
        "enumerate-half-starts-above-upper-end": "ShapeViolation: diagonals must interlace",
    }
    if family == "bijections":
        # a refused round trip names the refusal (below), not a tableau
        marks = {"half-tableau-round-trip": "" if fault in refusal else "tableau=",
                 "plane-partition-count-macmahon": "enumerated "}
        assert all(marks.get(it["identity"], "") in it["witness"] for it in caught)
        # a refusal fails its own item only: every (N, M) round trip still runs
        assert [(it["identity"], it["parameters"]) for it in items if "round-trip" in it["identity"]] == [
            (identity, {"N": n, "M": m})
            for n in range(1, SMALL["combi_n"] + 1) for m in range(SMALL["combi_m"] + 1)
            for identity in ("path-pp-round-trip", "half-tableau-round-trip")
        ]
    if family == "power-sums":
        assert all(it["witness"].startswith("k=") for it in caught)
    if family == "single-determinant":
        marks = {"hole-determinant-form": "q=", "npoint-determinant-form": "rs="}
        assert all(it["witness"].startswith(marks.get(it["identity"], "")) for it in caught)
        if fault == "row-sign-parity-dropped":
            assert any(it["identity"] == "hole-determinant-form" for it in caught)
    if fault == "bra-swept-in-ket-order":
        assert all(it["witness"].startswith("bra lambda=") for it in caught)
    if fault in refusal:
        assert all(refusal[fault] in it["witness"] for it in caught)
    for it in items:
        assert it["pass"] or it.get("witness"), it


@pytest.mark.parametrize("family", tuple(suites.FAMILIES))
def test_every_family_is_made_false_by_a_fault(family):
    # the rows come from the family table, so a family added without a
    # planted fault fails here; each listed pair is run by the test above
    assert any(family in families for _, families in FAULTS.values()), family


def test_failing_linear_items_build_their_sides_once(small_bounds, monkeypatch):
    """Each linear item runs its identity's pair generator once, and a
    failing item reads its witness from that one run."""
    FAULTS["shift-exp-band-off-by-one"][0](monkeypatch)
    calls = collections.Counter()
    for identity, pairs in list(linear._PAIRS.items()):
        def counted(*args, identity=identity, pairs=pairs):
            calls[identity] += 1
            return pairs(*args)
        monkeypatch.setitem(linear._PAIRS, identity, counted)
    items = suites.run_family("linear", 7)
    assert any(not it["pass"] for it in items)
    assert calls == collections.Counter(it["identity"] for it in items)

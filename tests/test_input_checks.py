"""Argument checks of the library and the JSON writer: each rejects with its message."""

import mpmath
import numpy as np
import pytest

from surfspline import (
    ApproximantDump,
    CenterSet,
    DensityField,
    DyadicParams,
    KernelParams,
    MultiresSpec,
    assemble,
    bad_cube_bound_check,
    build_reproduction,
    bump,
    cardinality_report,
    certify_self_majorization,
    certify_slow_growth,
    classify,
    enumerate_cubes,
    evaluate,
    genders,
    geometric_tail_bound,
    fundamental_normalization,
    local_kernel_error_precise,
    laplacian_power,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    max_overlap,
    minimal_density,
    monomial_exponents,
    phi_radial,
    plan_transition,
    quadrature_cells,
    refine_weights,
    validate_theorem1_params,
)
from surfspline.centers import _check_real
from surfspline.cli import _json_text

CLOUD = np.arange(6.0).reshape(3, 2)
FIELD = DensityField(CLOUD, [1.0, 2.0, 3.0])
BOX = ([-8.0, -8.0], [8.0, 8.0])
BAD_BOX = "box must be a (lo, hi) pair of d-vectors with hi > lo"



def bound(c_sm=0.5, r=1.0, d=2):
    """The bad-cube bound of the level-0 cubes of the unit box in d dimensions
    on ``FIELD``."""
    cubes = enumerate_cubes((np.zeros(d), np.ones(d)), [0], d)
    return bad_cube_bound_check(cubes, FIELD, DyadicParams(1.5, 1.0, 2.0), c_sm, r)

def spec(**overrides):
    return MultiresSpec(**{"j": 1, "k": 2, "d": 2, "defect": [[0.0, 0.0]], "box": BOX,
                           **overrides})


def reproduction():
    """A degree-1 reproduction on the 9 points of a 3x3 lattice, and its centers."""
    cs = CenterSet(np.array(list(np.ndindex(3, 3)), dtype=float))
    return build_reproduction(cs, [0.9, 1.1], 2.0, 1), cs


def reproduce(degree):
    """``build_reproduction`` of ``degree`` at the origin, on ``CLOUD``."""
    return build_reproduction(CenterSet(CLOUD), [0.0, 0.0], 1.0, degree)


def density(degree, **kwargs):
    """``minimal_density`` of ``degree`` at the origin, on ``CLOUD``."""
    return minimal_density(CenterSet(CLOUD), [0.0, 0.0], degree, **kwargs)


def kernel_error(params=KernelParams(d=2, k=2, degree=1), **kwargs):
    pr, cs = reproduction()
    return local_kernel_error_precise(pr, cs, [5.0, 5.0], params, **kwargs)


DPS = "dps must be >= 16 and an integer"
DEGREE = "degree must be >= 0 and an integer"
POSITIVE = "must be a real in (0, inf)"
UNIT = "must be a real in (0, 1)"
AT_LEAST_1 = "must be a real in [1, inf)"
CENTER = "center must be a finite, nonempty 1-D vector"

#: (id, call, exception, text its message must hold)
CHECKS = [
    ("levels length", lambda: CenterSet(CLOUD, levels=[0, 1]), ValueError,
     "levels must have one entry per point"),
    ("value count", lambda: DensityField(CLOUD, [1.0, 2.0]), ValueError,
     "need one value per sample point"),
    # values of shape (n,) only: a column or a row of n values is no vector
    ("value column", lambda: DensityField(CLOUD, [[1.0], [2.0], [3.0]]), ValueError,
     "need one value per sample point (3), got (3, 1)"),
    ("value row", lambda: DensityField(CLOUD, [[1.0, 2.0, 3.0]]), ValueError,
     "need one value per sample point (3), got (1, 3)"),
    ("non-finite value", lambda: DensityField(CLOUD, [1.0, np.nan, 3.0]), ValueError,
     "samples must be finite"),
    ("non-positive value", lambda: DensityField(CLOUD, [1.0, 0.0, 3.0]), ValueError,
     "density values must be strictly positive"),
    ("non-finite coordinate", lambda: DensityField([[0.0, np.inf]], [1.0]), ValueError,
     "point coordinates must be finite"),
    ("neighbor radius", lambda: CenterSet(CLOUD).neighbor_arrays([0.0, 0.0], 0.0), ValueError,
     f"radius {POSITIVE}; got 0.0"),
    ("majorant r", lambda: majorant(FIELD, [0.0, 0.0], 0.0), ValueError, f"r {POSITIVE}; got 0.0"),
    ("slow growth epsilon", lambda: certify_slow_growth(FIELD, 1.0), ValueError,
     f"epsilon {UNIT}; got 1.0"),
    ("self-majorization r", lambda: certify_self_majorization(FIELD, -1.0), ValueError,
     f"r {POSITIVE}; got -1.0"),
    ("sm to sg c_sm", lambda: lemma_transfer_sm_to_sg(0.0, 1.0), ValueError,
     f"c_sm {POSITIVE}; got 0.0"),
    ("sm to sg r", lambda: lemma_transfer_sm_to_sg(0.5, 0.0), ValueError,
     f"r {POSITIVE}; got 0.0"),
    ("sg to sm c_sg", lambda: lemma_transfer_sg_to_sm(0.5, 0.5), ValueError,
     f"c_sg {AT_LEAST_1}; got 0.5"),
    ("sg to sm epsilon", lambda: lemma_transfer_sg_to_sm(2.0, 0.0), ValueError,
     f"epsilon {UNIT}; got 0.0"),
    ("spec j", lambda: spec(j=0), ValueError, "j must be >= 1"),
    ("spec j underflow", lambda: spec(j=512), ValueError, "j must be >= 1 and at most 511"),
    ("spec defect dimension", lambda: spec(defect=[[0.0, 0.0, 0.0]]), ValueError,
     "points have shape (1, 3); expected (2,) for one point or (n, 2) for a batch"),
    ("spec defect nan", lambda: spec(defect=[[0.0, 0.0], [np.nan, 0.0]]), ValueError,
     "point coordinates must be finite"),
    ("spec defect inf", lambda: spec(defect=[0.0, np.inf]), ValueError,
     "point coordinates must be finite"),
    ("spec box", lambda: spec(box=([8.0, -8.0], [-8.0, 8.0])), ValueError,
     "box must be a (lo, hi) pair of d-vectors with hi > lo"),
    ("spec box inf", lambda: spec(box=([-8.0, -np.inf], [8.0, 8.0])), ValueError, BAD_BOX),
    ("cubes box inverted", lambda: enumerate_cubes(([1, 1], [0, 0]), [0, 1], 2), ValueError,
     BAD_BOX),
    ("cubes box length", lambda: enumerate_cubes(([0, 0, 5], [1, 1, -5]), [0, 1], 2),
     ValueError, BAD_BOX),
    ("cubes box short", lambda: enumerate_cubes(([0], [1]), [0, 1], 2), ValueError, BAD_BOX),
    ("quadrature box ragged", lambda: quadrature_cells(([0, 0], [1]), 4, np.ones), ValueError,
     BAD_BOX),
    ("quadrature box inf", lambda: quadrature_cells(([0, 0], [1, np.inf]), 4, np.ones),
     ValueError, BAD_BOX),
    # a reader that returns a rho that is not positive and finite, or neither a
    # scalar nor one value per cell, is rejected before the cells split
    ("quadrature rho zero", lambda: quadrature_cells(([-1.0], [1.0]), 4,
                                                     lambda p: np.zeros(len(p))),
     ValueError, "rho_at must return one positive finite value per cell or a scalar; "
     "got shape (1,) for 1 cells, min 0.0"),
    ("quadrature rho negative", lambda: quadrature_cells(([-1.0], [1.0]), 4, lambda p: -1.0),
     ValueError, "got shape () for 1 cells, min -1.0"),
    ("quadrature rho nan", lambda: quadrature_cells(([-1.0], [1.0]), 4,
                                                    lambda p: np.full(len(p), np.nan)),
     ValueError, "got shape (1,) for 1 cells, min nan"),
    ("quadrature rho inf", lambda: quadrature_cells(([-1.0], [1.0]), 4, lambda p: np.inf),
     ValueError, "got shape () for 1 cells, min inf"),
    ("quadrature rho one for two cells", lambda: quadrature_cells(([0.0, 0.0], [2.0, 1.0]), 4,
                                                                  lambda p: np.ones(1)),
     ValueError, "got shape (1,) for 2 cells"),
    ("quadrature rho column", lambda: quadrature_cells(([0.0, 0.0], [2.0, 1.0]), 4,
                                                       lambda p: np.ones((len(p), 1))),
     ValueError, "got shape (2, 1) for 2 cells"),
    ("quadrature rho zero on split", lambda: quadrature_cells(
        ([-1.0], [1.0]), 4, lambda p: np.where(len(p) > 1, 0.0, 1.0) * np.ones(len(p))),
     ValueError, "got shape (2,) for 2 cells, min 0.0"),
    # a kernel, bump or density of another dimension than the centers; the
    # density's reader raises on the points of the first quadrature level
    ("assemble params.d", lambda: assemble(CenterSet(CLOUD), bump(6, [0.0, 0.0], 1.0),
                                           KernelParams(d=3, k=2, degree=2), FIELD.nearest, 4),
     ValueError, "dimensions differ: centers 2, bump 2, params.d 3"),
    ("assemble bump", lambda: assemble(CenterSet(CLOUD), bump(4, [0.0], 1.0),
                                       KernelParams(d=2, k=2, degree=2), FIELD.nearest, 4),
     ValueError, "dimensions differ: centers 2, bump 1, params.d 2"),
    ("assemble density", lambda: assemble(CenterSet(CLOUD), bump(6, [0.0, 0.0], 1.0),
                                          KernelParams(d=2, k=2, degree=2),
                                          DensityField([[0.0], [1.0]], [1.0, 1.0]).nearest, 4),
     ValueError, "points have shape (1, 2); expected (1,) for one point or (n, 1) for a batch"),
    ("evaluate params.d 1", lambda: evaluate(ApproximantDump(CenterSet(CLOUD), np.ones(3)),
                                             [0.3], KernelParams(d=1, k=1, degree=2)),
     ValueError, "dimensions differ: centers 2, params.d 1"),
    ("evaluate params.d 3", lambda: evaluate(ApproximantDump(CenterSet(CLOUD), np.ones(3)),
                                             [0.3, 0.3, 0.3], KernelParams(d=3, k=2, degree=2)),
     ValueError, "dimensions differ: centers 2, params.d 3"),
    # coefficients: one finite float per center
    ("dump coefficients short", lambda: ApproximantDump(CenterSet(np.arange(10.0).reshape(5, 2)),
                                                        np.ones(3)),
     ValueError, "need one coefficient per center (5), got (3,)"),
    ("dump coefficients long", lambda: ApproximantDump(CenterSet(CLOUD), np.ones(4)), ValueError,
     "need one coefficient per center (3), got (4,)"),
    ("dump coefficients 2-D", lambda: ApproximantDump(CenterSet(CLOUD), np.ones((3, 1))),
     ValueError, "need one coefficient per center (3), got (3, 1)"),
    ("dump coefficients list", lambda: ApproximantDump(CenterSet(CLOUD), [1.0, 2.0]), ValueError,
     "need one coefficient per center (3), got (2,)"),
    ("dump coefficients scalar", lambda: ApproximantDump(CenterSet(CLOUD), 1.0), ValueError,
     "need one coefficient per center (3), got ()"),
    ("dump coefficients nan", lambda: ApproximantDump(CenterSet(CLOUD), [1.0, np.nan, 0.0]),
     ValueError, "coefficients must be finite"),
    ("dump coefficients inf", lambda: ApproximantDump(CenterSet(CLOUD), [1.0, 0.0, -np.inf]),
     ValueError, "coefficients must be finite"),
    ("bump exponent", lambda: bump(1, [0.0], 1.0), ValueError, "exponent must be >= 2"),
    ("bump exponent rounding", lambda: bump(15, [0.0], 1.0), ValueError,
     "exponent 15 exceeds 14: the rounding error of the bump's expansion could exceed 1e-10"),
    ("bump scale underflow", lambda: bump(14, [0.0], 1e12), ValueError,
     "scale 1e+12 makes a coefficient scale^(-2m), m <= 14, overflow or underflow"),
    ("laplacian overflow", lambda: laplacian_power(bump(5, [0.0], 10**-30.8), 1), ValueError,
     "makes a coefficient of Delta^1 f overflow"),
    ("bump scale", lambda: bump(4, [0.0], 0.0), ValueError, f"scale {POSITIVE}; got 0.0"),
    ("bump scale inf", lambda: bump(4, [0.0], np.inf), ValueError, f"scale {POSITIVE}; got inf"),
    ("bump center", lambda: bump(4, [0.0, np.nan], 1.0), ValueError, f"{CENTER}; got [0.0, nan]"),
    ("bump center nested", lambda: bump(4, [[0.0, 0.0]], 1.0), ValueError,
     f"{CENTER}; got [[0.0, 0.0]]"),
    ("bump center scalar", lambda: bump(4, 0.0, 1.0), ValueError, f"{CENTER}; got 0.0"),
    ("bump center empty", lambda: bump(4, [], 1.0), ValueError, f"{CENTER}; got []"),
    ("laplacian power k", lambda: laplacian_power(bump(4, [0.0], 1.0), -1), ValueError,
     "k must be >= 0"),
    ("reproduction degree", lambda: build_reproduction(CenterSet(CLOUD), [0.0, 0.0], 1.0, -1),
     ValueError, "degree must be >= 0"),
    ("reproduction degree bool", lambda: reproduce(True), ValueError, f"{DEGREE}; got True"),
    ("reproduction degree float", lambda: reproduce(2.5), ValueError, f"{DEGREE}; got 2.5"),
    ("minimal_density degree -1", lambda: density(-1), ValueError, f"{DEGREE}; got -1"),
    ("minimal_density degree -1 capped", lambda: density(-1, stability_cap=10.0), ValueError,
     f"{DEGREE}; got -1"),
    ("minimal_density degree -3", lambda: density(-3), ValueError, f"{DEGREE}; got -3"),
    ("minimal_density degree float", lambda: density(2.5), ValueError, f"{DEGREE}; got 2.5"),
    ("minimal_density degree bool", lambda: density(True), ValueError, f"{DEGREE}; got True"),
    ("kernel params degree -1", lambda: KernelParams(d=2, k=2, degree=-1), ValueError,
     f"{DEGREE}; got -1"),
    ("kernel params degree float", lambda: KernelParams(d=2, k=2, degree=2.5), ValueError,
     f"{DEGREE}; got 2.5"),
    ("spec degree float", lambda: spec(degree=14.9), ValueError, f"{DEGREE}; got 14.9"),
    ("monomial dim", lambda: monomial_exponents(0, 3), ValueError,
     "dim must be >= 1 and an integer; got 0"),
    ("monomial degree float", lambda: monomial_exponents(2, 2.5), ValueError,
     f"{DEGREE}; got 2.5"),
    ("monomial degree bool", lambda: monomial_exponents(2, True), ValueError,
     f"{DEGREE}; got True"),
    ("monomial dim float", lambda: monomial_exponents(2.0, 2), ValueError,
     "dim must be >= 1 and an integer; got 2.0"),
    ("transition s", lambda: plan_transition(0.0, 0.5, 1), ValueError, f"s {POSITIVE}; got 0.0"),
    ("transition epsilon", lambda: plan_transition(1.0, 1.0, 1), ValueError,
     f"epsilon {UNIT}; got 1.0"),
    ("transition k", lambda: plan_transition(1.0, 0.5, 0), ValueError, "k must be >= 1"),
    ("bound c_sm negative", lambda: bound(c_sm=-1.0), ValueError, f"c_sm {POSITIVE}; got -1.0"),
    ("bound c_sm zero", lambda: bound(c_sm=0.0), ValueError, f"c_sm {POSITIVE}; got 0.0"),
    ("bound c_sm nan", lambda: bound(c_sm=np.nan), ValueError, f"c_sm {POSITIVE}; got nan"),
    ("bound r negative", lambda: bound(r=-1.0), ValueError, f"r {POSITIVE}; got -1.0"),
    ("bound r inf", lambda: bound(r=np.inf), ValueError, f"r {POSITIVE}; got inf"),
    ("bound dimension", lambda: bound(d=1), ValueError, "dimensions differ: cubes 1, density 2"),
    ("classify dimension", lambda: classify(enumerate_cubes(([0.0], [1.0]), [0], 1), FIELD,
                                            DyadicParams(1.5, 1.0, 2.0)),
     ValueError, "dimensions differ: cubes 1, density 2"),
    ("dyadic gamma inf", lambda: DyadicParams(np.inf, 1.0, 2.0), ValueError,
     f"gamma {AT_LEAST_1}; got inf"),
    ("kernel error weight count", lambda: kernel_error(weights=[0.125] * 8), ValueError,
     "need one weight per center of the reproduction (9), got 8"),
    ("kernel error weights extra", lambda: kernel_error(weights=[0.1] * 10), ValueError,
     "need one weight per center of the reproduction (9), got 10"),
    ("kernel error params.d 3", lambda: kernel_error(KernelParams(d=3, k=2, degree=4)),
     ValueError, "dimensions differ: centers 2, params.d 3"),
    ("kernel error params.d 1", lambda: kernel_error(KernelParams(d=1, k=1, degree=1)),
     ValueError, "dimensions differ: centers 2, params.d 1"),
    ("kernel error nan weight", lambda: kernel_error(weights=[0.1] * 4 + [np.nan] + [0.1] * 4),
     ValueError, "weights must be finite; weight 4 is nan"),
    ("kernel error mpf inf weight", lambda: kernel_error(weights=[0.1] * 8 + [mpmath.inf]),
     ValueError, "weights must be finite; weight 8 is +inf"),
    ("kernel error -inf weight", lambda: kernel_error(weights=np.r_[-np.inf, [0.1] * 8]),
     ValueError, "weights must be finite; weight 0 is -inf"),
    ("kernel error dps 0", lambda: kernel_error(dps=0), ValueError, f"{DPS}; got 0"),
    ("kernel error dps -1", lambda: kernel_error(dps=-1), ValueError, f"{DPS}; got -1"),
    ("kernel error dps 15", lambda: kernel_error(dps=15), ValueError, f"{DPS}; got 15"),
    ("refine dps 0", lambda: refine_weights(*reproduction(), dps=0), ValueError,
     f"{DPS}; got 0"),
    ("refine dps -3", lambda: refine_weights(*reproduction(), dps=-3), ValueError,
     f"{DPS}; got -3"),
    ("refine dps bool", lambda: refine_weights(*reproduction(), dps=True), ValueError,
     f"{DPS}; got True"),
    ("refine dps float", lambda: refine_weights(*reproduction(), dps=60.0), ValueError,
     f"{DPS}; got 60.0"),
    # k, d and j: integers (numpy's too, not bool), checked before any work
    ("kernel params k float", lambda: KernelParams(d=2, k=2.5, degree=3), ValueError,
     "k must be >= 1 and an integer; got 2.5"),
    ("kernel params d float", lambda: KernelParams(d=2.0, k=2, degree=3), ValueError,
     "d must be >= 1 and an integer; got 2.0"),
    ("spec k float", lambda: spec(j=2, k=2.5), ValueError,
     "k must be >= 1 and an integer; got 2.5"),
    ("spec j float", lambda: spec(j=2.5), ValueError, "j must be >= 1 and an integer; got 2.5"),
    ("spec j bool", lambda: spec(j=True), ValueError, "j must be >= 1 and an integer; got True"),
    ("spec defect empty", lambda: spec(defect=np.zeros((0, 2))), ValueError,
     "defect must hold at least one point"),
    ("spec d float", lambda: spec(d=2.0), ValueError, "d must be >= 1 and an integer; got 2.0"),
    ("phi_radial k float", lambda: phi_radial(1.0, 2, 2.5), ValueError,
     "k must be >= 1 and an integer; got 2.5"),
    ("normalization d float", lambda: fundamental_normalization(2.0, 2), ValueError,
     "d must be >= 1 and an integer; got 2.0"),
    ("theorem 1 k float", lambda: validate_theorem1_params(2.5, 2, 20, 0.5), ValueError,
     "k must be >= 1 and an integer; got 2.5"),
    ("theorem 1 d bool", lambda: validate_theorem1_params(2, True, 20, 0.5), ValueError,
     "d must be >= 1 and an integer; got True"),
    ("theorem 1 2k <= d", lambda: validate_theorem1_params(1, 2, 20, 0.5), ValueError,
     "need 2k > d; got k = 1, d = 2"),
    ("transition k float", lambda: plan_transition(1, 0.5, 1.5), ValueError,
     "k must be >= 1 and an integer; got 1.5"),
    ("laplacian power k float", lambda: laplacian_power(bump(6, [0.0], 1.0), 2.5), ValueError,
     "k must be >= 0 and an integer; got 2.5"),
    # integers of the bump, the dyadic cubes and the quadrature
    ("bump exponent float", lambda: bump(2.5, [0.0], 1.0), ValueError,
     "exponent must be >= 2 and an integer; got 2.5"),
    ("genders d float", lambda: genders(2.0), ValueError,
     "d must be >= 1 and an integer; got 2.0"),
    ("max_overlap d float", lambda: max_overlap(2.0, 2.0), ValueError,
     "d must be >= 1 and an integer; got 2.0"),
    ("max_overlap gamma negative", lambda: max_overlap(2, -5.0), ValueError,
     f"gamma {AT_LEAST_1}; got -5.0"),
    ("max_overlap gamma below 1", lambda: max_overlap(2, 0.5), ValueError,
     f"gamma {AT_LEAST_1}; got 0.5"),
    ("max_overlap gamma inf", lambda: max_overlap(2, np.inf), ValueError,
     f"gamma {AT_LEAST_1}; got inf"),
    ("max_overlap gamma nan", lambda: max_overlap(2, np.nan), ValueError,
     f"gamma {AT_LEAST_1}; got nan"),
    ("cubes level float", lambda: enumerate_cubes(BOX, [1.5], 2), ValueError,
     "level must be >= -511 and an integer; got 1.5"),
    ("cubes level bool", lambda: enumerate_cubes(BOX, [True], 2), ValueError,
     "level must be >= -511 and an integer; got True"),
    ("cubes level 2000", lambda: enumerate_cubes(BOX, [2000], 2), ValueError,
     "level must be >= -511 and at most 511; got 2000"),
    ("cubes level -2000", lambda: enumerate_cubes(BOX, [-2000], 2), ValueError,
     "level must be >= -511 and an integer; got -2000"),
    ("cubes d float", lambda: enumerate_cubes(BOX, [1], 2.0), ValueError,
     "d must be >= 1 and an integer; got 2.0"),
    ("cubes box nested", lambda: enumerate_cubes(([[-1, -1]], [[1, 1]]), [0], 2), ValueError,
     BAD_BOX),
    ("quadrature cells_per_rho float", lambda: quadrature_cells(BOX, 2.5, np.ones), ValueError,
     "cells_per_rho must be >= 2 and an integer; got 2.5"),
    # reals that must be positive (c_sg: at least 1) and finite
    ("sm to sg c_sm inf", lambda: lemma_transfer_sm_to_sg(np.inf, 1.0), ValueError,
     f"c_sm {POSITIVE}; got inf"),
    ("sm to sg r inf", lambda: lemma_transfer_sm_to_sg(0.5, np.inf), ValueError,
     f"r {POSITIVE}; got inf"),
    ("sg to sm c_sg inf", lambda: lemma_transfer_sg_to_sm(np.inf, 0.5), ValueError,
     f"c_sg {AT_LEAST_1}; got inf"),
    ("majorant r inf", lambda: majorant(FIELD, [0.0, 0.0], np.inf), ValueError,
     f"r {POSITIVE}; got inf"),
    ("self-majorization r inf", lambda: certify_self_majorization(FIELD, np.inf), ValueError,
     f"r {POSITIVE}; got inf"),
    ("transition s inf", lambda: plan_transition(np.inf, 0.5, 1), ValueError,
     f"s {POSITIVE}; got inf"),
    ("neighbor radius inf", lambda: CenterSet(CLOUD).neighbor_arrays([0.0, 0.0], np.inf),
     ValueError, f"radius {POSITIVE}; got inf"),
    # values that are no real, each of which leaked a TypeError, numpy's error
    # or a silent bool before one contract checked every real
    ("majorant r None", lambda: majorant(FIELD, [0.0, 0.0], None), ValueError,
     f"r {POSITIVE}; got None"),
    ("majorant r array", lambda: majorant(FIELD, [0.0, 0.0], np.array([1.0, 2.0])), ValueError,
     f"r {POSITIVE}; got array([1., 2.])"),
    ("majorant r bool", lambda: majorant(FIELD, [0.0, 0.0], True), ValueError,
     f"r {POSITIVE}; got True"),
    ("slow growth epsilon None", lambda: certify_slow_growth(FIELD, None), ValueError,
     f"epsilon {UNIT}; got None"),
    ("minimal_density stability_cap str", lambda: density(1, stability_cap="9"), ValueError,
     "stability_cap must be a real in (1, inf); got '9'"),
    ("dyadic gamma str", lambda: DyadicParams(gamma="2", sigma=1.0, two_k=2.0), ValueError,
     f"gamma {AT_LEAST_1}; got '2'"),
    ("dyadic sigma at 2k", lambda: DyadicParams(1.5, 2.0, 2.0), ValueError,
     "sigma must be a real in (0, 2.0); got 2.0"),
    ("dyadic two_k zero", lambda: DyadicParams(1.5, 1.0, 0.0), ValueError,
     f"two_k {POSITIVE}; got 0.0"),
    ("transition epsilon complex", lambda: plan_transition(1.0, 0.5j, 1), ValueError,
     f"epsilon {UNIT}; got 0.5j"),
    ("bump scale None", lambda: bump(6, [0.0], None), ValueError, f"scale {POSITIVE}; got None"),
    ("tail bound sigma None", lambda: geometric_tail_bound(None, 4.0, 0), ValueError,
     "sigma must be a real in (0, 4.0); got None"),
    ("tail bound sigma at 2k", lambda: geometric_tail_bound(4.0, 4.0, 0), ValueError,
     "sigma must be a real in (0, 4.0); got 4.0"),
    ("sm to sg r bool", lambda: lemma_transfer_sm_to_sg(0.5, True), ValueError,
     f"r {POSITIVE}; got True"),
    # constants beyond float64: 2^r, 2^r / c_sm and the tail sums
    ("sm to sg 2^r overflow", lambda: lemma_transfer_sm_to_sg(0.5, 1100.0), ValueError,
     "C_sg = 2^r / c_sm overflows float64 at r = 1100.0, c_sm = 0.5"),
    ("sm to sg C_sg overflow", lambda: lemma_transfer_sm_to_sg(1e-300, 1000.0), ValueError,
     "C_sg = 2^r / c_sm overflows float64 at r = 1000.0, c_sm = 1e-300"),
    ("tail bound base_level 2000", lambda: geometric_tail_bound(1.0, 2.0, 2000), ValueError,
     "base_level must be >= -511 and at most 511; got 2000"),
    ("tail bound base_level float", lambda: geometric_tail_bound(1.0, 2.0, 1.5), ValueError,
     "base_level must be >= -511 and an integer; got 1.5"),
    ("tail bound overflow", lambda: geometric_tail_bound(3.0, 4.0, 400), ValueError,
     "tail sums not finite floats at sigma 3.0, 2k 4.0, base_level 400"),
    # a placement report against centers of another dimension
    ("cardinality 1-D centers", lambda: cardinality_report(spec(), CenterSet(np.arange(4.0))),
     ValueError, "dimensions differ: centers 1, spec.d 2"),
    ("cardinality 2-D centers",
     lambda: cardinality_report(spec(d=1, k=1, defect=[0.0], box=([-8.0], [8.0])),
                                CenterSet(CLOUD)),
     ValueError, "dimensions differ: centers 2, spec.d 1"),
    ("json string", lambda: _json_text({"a": "text"}), TypeError, "cannot write a str as JSON"),
    ("json bool", lambda: _json_text([True]), TypeError, "cannot write a bool as JSON"),
    ("json null", lambda: _json_text(None), TypeError, "cannot write a NoneType as JSON"),
]


@pytest.mark.parametrize("name,call,exc,text", CHECKS, ids=[c[0] for c in CHECKS])
def test_input_check(count_solves, name, call, exc, text):
    with pytest.raises(exc) as err:
        call()
    assert text in str(err.value)
    if name.startswith("minimal_density"):  # rejected before any solve
        assert count_solves == []


#: Values that are no finite real, or lie outside (0, 1): bools, strings,
#: None, complex numbers, arrays, NaN, the infinities, each bound and an int
#: beyond the float range.
NOT_IN_UNIT = [True, np.bool_(True), "2", None, 0.5j, np.array([1.0, 2.0]), np.nan, np.inf,
               -np.inf, 0, 0.0, 1, 1.0, np.float32(1.0), 10**400]


@pytest.mark.parametrize("value", NOT_IN_UNIT, ids=[repr(v)[:24] for v in NOT_IN_UNIT])
def test_check_real_rejects(value):
    with pytest.raises(ValueError) as err:
        _check_real("x", value, 0, 1)
    assert str(err.value) == f"x must be a real in (0, 1); got {value!r}"


@pytest.mark.parametrize("value,low,closed", [
    (0.5, 0, False), (np.float64(0.5), 0, False), (np.float32(0.5), 0, False), (3, 0, False),
    (np.int64(3), 0, False), (1, 1, True), (np.int8(1), 1, True), (2.0**1023, 0, False)])
def test_check_real_accepts(value, low, closed):
    # Python and numpy ints and floats, the closed end, the largest floats
    got = _check_real("x", value, low, closed=closed)
    assert type(got) is float and got == value


def test_large_r_reaches_the_float_limits_without_warning():
    # (1 + d / rho)^(-r) underflows at r = 5000: a far pair's ratio is inf and
    # the diagonal's 1 is the minimum; (1 + 2 gamma)^(-700) = 2^-1400 underflows
    # too, so every bad cube's ratio is its limit 0 (a warning fails the suite)
    assert certify_self_majorization(FIELD, 5000.0) == 1.0
    assert bound(c_sm=0.5, r=700.0) == 0.0
    assert bound(c_sm=0.5, r=1.0) > 0.0


def test_degree_numpy_integer():
    cs, x = CenterSet(np.array(list(np.ndindex(3, 3)), dtype=float)), [0.9, 1.1]
    degree = np.int64(1)
    got, want = build_reproduction(cs, x, 2.0, degree), build_reproduction(cs, x, 2.0, 1)
    assert np.array_equal(got.weights, want.weights) and got.degree == 1
    assert minimal_density(cs, x, degree)[0] == minimal_density(cs, x, 1)[0]
    assert KernelParams(d=2, k=2, degree=degree) == KernelParams(d=2, k=2, degree=1)
    assert type(spec(degree=np.int64(14)).degree) is int


def test_dps_numpy_integer():
    pr, cs = reproduction()
    dps = np.int64(60)
    assert refine_weights(pr, cs, dps=dps) == refine_weights(pr, cs, dps=60)
    assert kernel_error(dps=dps) == kernel_error(dps=60)


def test_k_d_j_numpy_integers():
    two = np.int64(2)
    assert KernelParams(d=two, k=two, degree=1) == KernelParams(d=2, k=2, degree=1)
    assert phi_radial(3.0, two, two) == phi_radial(3.0, 2, 2)
    assert spec(j=two, k=two, d=two).global_spacing == spec(j=2).global_spacing
    assert plan_transition(1.0, 0.5, two) == plan_transition(1.0, 0.5, 2)
    assert laplacian_power(bump(6, [0.0], 1.0), two).exponent == 4

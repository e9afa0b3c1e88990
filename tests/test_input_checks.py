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
    certify_self_majorization,
    certify_slow_growth,
    classify,
    enumerate_cubes,
    evaluate,
    fundamental_normalization,
    local_kernel_error_precise,
    laplacian_power,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
    monomial_exponents,
    phi_radial,
    plan_transition,
    quadrature_cells,
    refine_weights,
    validate_theorem1_params,
)
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


DPS = "dps must be an int above 15, more digits than float64 carries"
DEGREE = "degree must be >= 0 and an integer"

#: (id, call, exception, text its message must hold)
CHECKS = [
    ("levels length", lambda: CenterSet(CLOUD, levels=[0, 1]), ValueError,
     "levels must have one entry per point"),
    ("value count", lambda: DensityField(CLOUD, [1.0, 2.0]), ValueError,
     "need one value per sample point"),
    ("non-finite value", lambda: DensityField(CLOUD, [1.0, np.nan, 3.0]), ValueError,
     "samples must be finite"),
    ("non-positive value", lambda: DensityField(CLOUD, [1.0, 0.0, 3.0]), ValueError,
     "density values must be strictly positive"),
    ("non-finite coordinate", lambda: DensityField([[0.0, np.inf]], [1.0]), ValueError,
     "point coordinates must be finite"),
    ("neighbor radius", lambda: CenterSet(CLOUD).neighbor_arrays([0.0, 0.0], 0.0), ValueError,
     "radius must be positive"),
    ("majorant r", lambda: majorant(FIELD, [0.0, 0.0], 0.0), ValueError,
     "r must be positive"),
    ("slow growth epsilon", lambda: certify_slow_growth(FIELD, 1.0), ValueError,
     "epsilon must lie in (0, 1)"),
    ("self-majorization r", lambda: certify_self_majorization(FIELD, -1.0), ValueError,
     "r must be positive"),
    ("sm to sg c_sm", lambda: lemma_transfer_sm_to_sg(0.0, 1.0), ValueError,
     "c_sm must be positive"),
    ("sm to sg r", lambda: lemma_transfer_sm_to_sg(0.5, 0.0), ValueError,
     "r must be positive"),
    ("sg to sm c_sg", lambda: lemma_transfer_sg_to_sm(0.5, 0.5), ValueError,
     "c_sg must be >= 1"),
    ("sg to sm epsilon", lambda: lemma_transfer_sg_to_sm(2.0, 0.0), ValueError,
     "epsilon must lie in (0, 1)"),
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
    # a kernel, bump or density of another dimension than the centers
    ("assemble params.d", lambda: assemble(CenterSet(CLOUD), bump(6, [0.0, 0.0], 1.0),
                                           KernelParams(d=3, k=2, degree=2), FIELD, 4),
     ValueError, "dimensions differ: centers 2, bump 2, params.d 3, density 2"),
    ("assemble bump", lambda: assemble(CenterSet(CLOUD), bump(4, [0.0], 1.0),
                                       KernelParams(d=2, k=2, degree=2), FIELD, 4),
     ValueError, "dimensions differ: centers 2, bump 1, params.d 2, density 2"),
    ("evaluate params.d 1", lambda: evaluate(ApproximantDump(CenterSet(CLOUD), np.ones(3)),
                                             [0.3], KernelParams(d=1, k=1, degree=2)),
     ValueError, "dimensions differ: centers 2, params.d 1"),
    ("evaluate params.d 3", lambda: evaluate(ApproximantDump(CenterSet(CLOUD), np.ones(3)),
                                             [0.3, 0.3, 0.3], KernelParams(d=3, k=2, degree=2)),
     ValueError, "dimensions differ: centers 2, params.d 3"),
    ("bump exponent", lambda: bump(1, [0.0], 1.0), ValueError, "exponent must be >= 2"),
    ("bump exponent rounding", lambda: bump(15, [0.0], 1.0), ValueError,
     "exponent 15 exceeds 14: the rounding error of the bump's expansion could exceed 1e-10"),
    ("bump scale underflow", lambda: bump(14, [0.0], 1e12), ValueError,
     "scale 1e+12 makes a coefficient scale^(-2m), m <= 14, overflow or underflow"),
    ("laplacian overflow", lambda: laplacian_power(bump(5, [0.0], 10**-30.8), 1), ValueError,
     "makes a coefficient of Delta^1 f overflow"),
    ("bump scale", lambda: bump(4, [0.0], 0.0), ValueError, "scale must be positive"),
    ("bump scale inf", lambda: bump(4, [0.0], np.inf), ValueError,
     "scale must be positive and finite"),
    ("bump center", lambda: bump(4, [0.0, np.nan], 1.0), ValueError,
     "scale must be positive and finite, and center finite"),
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
     "need degree >= 0 and dim >= 1"),
    ("transition s", lambda: plan_transition(0.0, 0.5, 1), ValueError, "s must be positive"),
    ("transition epsilon", lambda: plan_transition(1.0, 1.0, 1), ValueError,
     "epsilon must lie in (0, 1)"),
    ("transition k", lambda: plan_transition(1.0, 0.5, 0), ValueError, "k must be >= 1"),
    ("bound c_sm negative", lambda: bound(c_sm=-1.0), ValueError,
     "c_sm must be positive and finite, got -1.0"),
    ("bound c_sm zero", lambda: bound(c_sm=0.0), ValueError,
     "c_sm must be positive and finite, got 0.0"),
    ("bound c_sm nan", lambda: bound(c_sm=np.nan), ValueError,
     "c_sm must be positive and finite, got nan"),
    ("bound r negative", lambda: bound(r=-1.0), ValueError,
     "r must be positive and finite, got -1.0"),
    ("bound r inf", lambda: bound(r=np.inf), ValueError, "r must be positive and finite, got inf"),
    ("bound dimension", lambda: bound(d=1), ValueError, "dimensions differ: cubes 1, density 2"),
    ("classify dimension", lambda: classify(enumerate_cubes(([0.0], [1.0]), [0], 1), FIELD,
                                            DyadicParams(1.5, 1.0, 2.0)),
     ValueError, "dimensions differ: cubes 1, density 2"),
    ("dyadic gamma inf", lambda: DyadicParams(np.inf, 1.0, 2.0), ValueError,
     "gamma must be >= 1 and finite"),
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


def test_degree_numpy_integer():
    cs, x = CenterSet(np.array(list(np.ndindex(3, 3)), dtype=float)), [0.9, 1.1]
    degree = np.int64(1)
    got, want = build_reproduction(cs, x, 2.0, degree), build_reproduction(cs, x, 2.0, 1)
    assert np.array_equal(got.weights, want.weights) and got.degree == 1
    assert minimal_density(cs, x, degree)[0] == minimal_density(cs, x, 1)[0]
    assert KernelParams(d=2, k=2, degree=degree) == KernelParams(d=2, k=2, degree=1)
    assert type(spec(degree=np.int64(14)).degree) is int


def test_k_d_j_numpy_integers():
    two = np.int64(2)
    assert KernelParams(d=two, k=two, degree=1) == KernelParams(d=2, k=2, degree=1)
    assert phi_radial(3.0, two, two) == phi_radial(3.0, 2, 2)
    assert spec(j=two, k=two, d=two).global_spacing == spec(j=2).global_spacing
    assert plan_transition(1.0, 0.5, two) == plan_transition(1.0, 0.5, 2)
    assert laplacian_power(bump(6, [0.0], 1.0), two).exponent == 4

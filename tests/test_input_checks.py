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
    enumerate_cubes,
    evaluate,
    local_kernel_error_precise,
    laplacian_power,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    monomial_exponents,
    plan_transition,
    quadrature_cells,
    refine_weights,
)
from surfspline.cli import _json_text

CLOUD = np.arange(6.0).reshape(3, 2)
FIELD = DensityField(CLOUD, [1.0, 2.0, 3.0])
BOX = ([-8.0, -8.0], [8.0, 8.0])
BAD_BOX = "box must be a (lo, hi) pair of d-vectors with hi > lo"


def spec(**overrides):
    return MultiresSpec(**{"j": 1, "k": 2, "d": 2, "defect": [[0.0, 0.0]], "box": BOX,
                           **overrides})


def reproduction():
    """A degree-1 reproduction on the 9 points of a 3x3 lattice, and its centers."""
    cs = CenterSet(np.array(list(np.ndindex(3, 3)), dtype=float))
    return build_reproduction(cs, [0.9, 1.1], 2.0, 1), cs


def kernel_error(params=KernelParams(d=2, k=2, degree=1), **kwargs):
    pr, cs = reproduction()
    return local_kernel_error_precise(pr, cs, [5.0, 5.0], params, **kwargs)


DPS = "dps must be an int above 15, more digits than float64 carries"

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
    ("monomial dim", lambda: monomial_exponents(0, 3), ValueError,
     "need degree >= 0 and dim >= 1"),
    ("transition s", lambda: plan_transition(0.0, 0.5, 1), ValueError, "s must be positive"),
    ("transition epsilon", lambda: plan_transition(1.0, 1.0, 1), ValueError,
     "epsilon must lie in (0, 1)"),
    ("transition k", lambda: plan_transition(1.0, 0.5, 0), ValueError, "k must be >= 1"),
    ("rho_min shape", lambda: bad_cube_bound_check(
        enumerate_cubes(([0.0], [1.0]), [0], 1), [1.0, 2.0], DyadicParams(1.5, 1.0, 2.0),
        0.5, 1.0), ValueError, "need one rho_min per bad cube (1), got (2,)"),
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
    ("json string", lambda: _json_text({"a": "text"}), TypeError, "cannot write a str as JSON"),
    ("json bool", lambda: _json_text([True]), TypeError, "cannot write a bool as JSON"),
    ("json null", lambda: _json_text(None), TypeError, "cannot write a NoneType as JSON"),
]


@pytest.mark.parametrize("call,exc,text", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_input_check(call, exc, text):
    with pytest.raises(exc) as err:
        call()
    assert text in str(err.value)

"""Surface-spline approximation from highly nonuniform centers.

A numpy/scipy library for constructing stable local polynomial
reproductions, measuring and certifying local density fields, placing
multiresolution centers around defects, and verifying the predicted
pointwise approximation rates of polyharmonic quasi-interpolation.
"""

from .centers import CenterSet, sorted_candidate_radii
from .density import (
    DensityField,
    NoAdmissibleRadius,
    certify_self_majorization,
    certify_slow_growth,
    default_stability_cap,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
    validate_theorem1_params,
)
from .dyadic import (
    DyadicCubes,
    DyadicParams,
    UndersampledDensity,
    bad_cube_bound_check,
    classify,
    enumerate_cubes,
    genders,
    geometric_tail_bound,
    max_overlap,
    overlap_count,
)
from .kernels import (
    KernelParams,
    RadialBump,
    bump,
    fundamental_normalization,
    laplacian_power,
    local_kernel_error_precise,
    phi,
    phi_radial,
)
from .placement import (
    CardinalityReport,
    MultiresSpec,
    RingPlan,
    TransitionPlan,
    build_ring_plan,
    cardinality_report,
    density_profile_check,
    generate_centers,
    plan_transition,
)
from .polyrep import (
    InsufficientPoints,
    PolyRep,
    RankDeficient,
    ReproductionError,
    build_reproduction,
    monomial_exponents,
    polynomial_dim,
    refine_weights,
    verify_reproduction,
)
from .quasiinterp import (
    ApproximantDump,
    AssemblyError,
    StudyResult,
    assemble,
    convergence_study,
    error_bound_map,
    evaluate,
    fit_slope,
    quadrature_cells,
)

__version__ = "0.1.0"

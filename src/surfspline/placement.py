"""Multiresolution center placement with provable density profiles.

Around a defect set the spacing of gridded centers is refined from the
global value ``h = 2^-j`` down to ``h^2 = 2^-2j``, through ``j`` concentric
rings whose widths grow geometrically.  Ring ``J`` has outer radius
``7k * 2^(3J/2 - 2j)`` and grid spacing ``2^(J-1-2j)``; the core has radius
``7k * 2^-2j`` and spacing ``2^-2j``.  The resulting local density grows
slowly (exponent 2/3 for the default epsilon = 1/3), which is exactly the
global-compatibility condition the pointwise error estimates need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .centers import CenterSet, DUPLICATE_TOL, _as_points, _lattice
from .density import minimal_density, validate_theorem1_params


@dataclass(frozen=True)
class MultiresSpec:
    """Parameters of a ring placement.

    j        -- global spacing h = 2^-j
    k        -- spline order (2k > d)
    d        -- ambient dimension
    epsilon  -- slow-growth exponent, default 1/3
    degree   -- reproduction precision, default 7k
    defect   -- (m, d) array of defect points (a single point or a sampled set)
    box      -- (lo, hi) arrays bounding the global grid
    """

    j: int
    k: int
    d: int
    defect: np.ndarray
    box: tuple[np.ndarray, np.ndarray]
    epsilon: float = 1.0 / 3.0
    degree: int | None = None

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("j must be >= 1")
        defect = np.atleast_2d(np.asarray(self.defect, dtype=float))
        if defect.shape[1] != self.d:
            raise ValueError("defect points must live in R^d")
        object.__setattr__(self, "defect", defect)
        lo = np.asarray(self.box[0], dtype=float).reshape(-1)
        hi = np.asarray(self.box[1], dtype=float).reshape(-1)
        if lo.shape != (self.d,) or hi.shape != (self.d,) or not np.all(hi > lo):
            raise ValueError("box must be a (lo, hi) pair of d-vectors with hi > lo")
        object.__setattr__(self, "box", (lo, hi))
        degree = self.degree if self.degree is not None else 7 * self.k
        object.__setattr__(self, "degree", int(degree))
        violations = validate_theorem1_params(self.k, self.d, self.degree, self.epsilon)
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def global_spacing(self) -> float:
        return 2.0**-self.j

    @property
    def anchor(self) -> np.ndarray:
        """Grid anchor: centroid of the defect set (the origin for a point defect
        at 0).  Fixing the phase makes generation reproducible and symmetric."""
        return self.defect.mean(axis=0)


@dataclass(frozen=True)
class Ring:
    index: int
    inner: float
    outer: float
    spacing: float


@dataclass(frozen=True)
class RingPlan:
    core_radius: float
    core_spacing: float
    rings: tuple[Ring, ...]
    global_spacing: float


def build_ring_plan(spec: MultiresSpec) -> RingPlan:
    """Ring radii and spacings for J = 0..j plus the global spacing."""
    seven_k = 7 * spec.k
    core_radius = seven_k * 2.0 ** (-2 * spec.j)
    rings = []
    inner = core_radius
    for J in range(1, spec.j + 1):
        outer = seven_k * 2.0 ** (1.5 * J - 2 * spec.j)
        rings.append(Ring(index=J, inner=inner, outer=outer,
                          spacing=2.0 ** (J - 1 - 2 * spec.j)))
        inner = outer
    return RingPlan(
        core_radius=core_radius,
        core_spacing=2.0 ** (-2 * spec.j),
        rings=tuple(rings),
        global_spacing=spec.global_spacing,
    )


def _defect_distance(spec: MultiresSpec, pts: np.ndarray) -> np.ndarray:
    if spec.defect.shape[0] == 1:
        return np.linalg.norm(pts - spec.defect[0], axis=1)
    dist, _ = cKDTree(spec.defect).query(pts)
    return dist


def _region_grid(spec: MultiresSpec, spacing: float, reach: float | None) -> np.ndarray:
    """Axis-aligned grid of the given spacing, anchored at the defect centroid,
    clipped to the bounding box and (optionally) to |offset| <= reach per axis."""
    (lo, hi), anchor = spec.box, spec.anchor
    if reach is not None:
        lo, hi = np.maximum(lo, anchor - reach), np.minimum(hi, anchor + reach)
    return _lattice(lo, hi, spacing, anchor)


def generate_centers(spec: MultiresSpec) -> CenterSet:
    """Union of the global grid and the per-region refined grids.

    Region membership is by distance to the defect set, boundary ties going
    inward; duplicate points across grids (the grids nest dyadically) are
    removed keeping the finest region's tag.  Centers are tagged with their
    region index J; the global grid is level j + 1.
    """
    plan = build_ring_plan(spec)
    lo, hi = spec.box
    outermost = plan.rings[-1].outer
    if np.any(spec.anchor - outermost < lo - 1e-12) or np.any(spec.anchor + outermost > hi + 1e-12):
        raise ValueError("bounding box must contain the outermost ring")

    chunks: list[np.ndarray] = []
    tags: list[np.ndarray] = []

    def add(pts: np.ndarray, level: int):
        if pts.size:
            chunks.append(pts)
            tags.append(np.full(pts.shape[0], level, dtype=int))

    # the global grid first: its size follows from the box and j alone, so a
    # grid too large to allocate fails before any region grid is built
    global_grid = _region_grid(spec, plan.global_spacing, None)
    core = _region_grid(spec, plan.core_spacing, plan.core_radius)
    dist = _defect_distance(spec, core)
    add(core[dist <= plan.core_radius], 0)
    for ring in plan.rings:
        grid = _region_grid(spec, ring.spacing, ring.outer)
        dist = _defect_distance(spec, grid)
        add(grid[(dist > ring.inner) & (dist <= ring.outer)], ring.index)
    add(global_grid, spec.j + 1)

    pts = np.concatenate(chunks, axis=0)
    levels = np.concatenate(tags)
    # exact-grid duplicates: quantize at the duplicate tolerance, keep first
    keys = np.round(pts / DUPLICATE_TOL).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    first.sort()
    pts, levels = pts[first], levels[first]
    order = np.lexsort(tuple(pts[:, a] for a in range(spec.d - 1, -1, -1)) + (levels,))
    return CenterSet(pts[order], levels=levels[order])


@dataclass(frozen=True)
class CardinalityReport:
    ball_radius: float
    actual: int
    bound: float
    uniform_count: float
    ratio_to_bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ratio_to_bound", self.actual / self.bound)


def cardinality_report(spec: MultiresSpec, cs: CenterSet) -> CardinalityReport:
    """Center count in the transition ball against the geometric-series bound.

    The ball is ``B(defect, 7k * 2^(-j/2))``; the bound is
    ``sum_J (7k)^d 2^(dJ/2)`` and the comparison value is the count a uniform
    spacing-h grid would place in the same ball, ``(7k)^d 2^(dj/2)``.

    The bound counts ``(7k)^d 2^(dJ/2)`` per region: it omits the unit-ball
    volume ``omega_d`` and the factor ``2^d`` that the spacing
    ``2^(J-1-2j)`` of ``build_ring_plan`` adds (ring J's outer radius over
    its spacing is ``2 * 7k 2^(J/2)``).  Ring J is an annulus whose inner
    radius is ``2^(-3/2)`` times its outer one, so ``ratio_to_bound`` rises
    with j toward ``2^d omega_d (1 - 2^(-3d/2))``, about 11.0 (3.5 pi) in
    d = 2; a ratio near that limit is the pinned geometry, not a defect.
    """
    seven_k = 7 * spec.k
    radius = seven_k * 2.0 ** (-spec.j / 2.0)
    dist = _defect_distance(spec, cs.points)
    actual = int(np.sum(dist <= radius))
    bound = sum((seven_k**spec.d) * 2.0 ** (spec.d * J / 2.0) for J in range(spec.j + 1))
    uniform = (seven_k**spec.d) * 2.0 ** (spec.d * spec.j / 2.0)
    return CardinalityReport(ball_radius=radius, actual=actual, bound=bound, uniform_count=uniform)


@dataclass(frozen=True)
class TransitionPlan:
    radius_exponent: float
    min_degree: int
    valid: bool


def plan_transition(s: float, epsilon: float, k: int) -> TransitionPlan:
    """Transition-region exponent and degree requirement for target density h^s.

    The transition radius scales like ``h^((1 - s*epsilon)/(1 - epsilon))``;
    it shrinks with h only when ``s * epsilon < 1`` (returned as ``valid``).
    ``min_degree`` is the smallest integer strictly above ``2k / epsilon``.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    threshold = 2 * k / epsilon
    min_degree = int(np.floor(threshold)) + 1
    return TransitionPlan(
        radius_exponent=(1.0 - s * epsilon) / (1.0 - epsilon),
        min_degree=min_degree,
        valid=s * epsilon < 1.0,
    )


@dataclass(frozen=True)
class ProfileCheck:
    rho_origin: float
    max_ratio: float
    max_reciprocal: float
    ratios: np.ndarray


def density_profile_check(cs: CenterSet, spec: MultiresSpec, sample_points) -> ProfileCheck:
    """Measured density in the transition annulus against the model profile.

    The model is ``rho(0) (1 + |x|/rho(0))^(1-epsilon)`` with ``rho(0)``
    measured at the defect; returns the worst ratio in both directions.
    """
    sample_points = _as_points(sample_points, spec.d)[0]
    rho, _ = minimal_density(cs, np.vstack([spec.anchor, sample_points]), spec.degree)
    rho0, rho = float(rho[0]), rho[1:]
    model = rho0 * (1.0 + _defect_distance(spec, sample_points) / rho0) ** (1.0 - spec.epsilon)
    ratios = rho / model
    return ProfileCheck(
        rho_origin=rho0,
        max_ratio=float(np.max(ratios)),
        max_reciprocal=float(np.max(1.0 / ratios)),
        ratios=ratios,
    )

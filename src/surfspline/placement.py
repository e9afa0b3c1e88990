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

from .centers import CenterSet, _Cloud, _as_box, _as_points, _lattice, _pair_distances
from .density import minimal_density, validate_theorem1_params
from .polyrep import _check_int

#: Largest level: a placement's finest spacing 2^-2j, and a dyadic cube's
#: side 2^-level and its inverse, stay normal float64s up to level 511.
_MAX_LEVEL = 511


@dataclass(frozen=True)
class MultiresSpec:
    """Parameters of a ring placement.

    j        -- global spacing h = 2^-j
    k        -- spline order (2k > d)
    d        -- ambient dimension
    epsilon  -- slow-growth exponent, default 1/3
    degree   -- reproduction precision, default 7k
    defect   -- one defect point (d,) or a sampled set (m, d), finite
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
        _check_int("j", self.j, 1)
        if self.j > _MAX_LEVEL:
            raise ValueError(f"j must be >= 1 and at most {_MAX_LEVEL}; got {self.j}")
        if self.degree is not None:
            _check_int("degree", self.degree, 0)
        degree = self.degree if self.degree is not None else 7 * self.k
        object.__setattr__(self, "degree", int(degree))
        violations = validate_theorem1_params(self.k, self.d, self.degree, self.epsilon)
        if violations:
            raise ValueError("; ".join(violations))
        object.__setattr__(self, "defect", _as_points(self.defect, self.d)[0])
        object.__setattr__(self, "box", _as_box(self.box, self.d))

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
    if spec.defect.shape[0] == 1:  # the kd-tree's bits, several times faster
        return _pair_distances(pts, spec.defect[0])
    return _Cloud(spec.defect)._tree.query(pts)[0]


def _region_grid(spec: MultiresSpec, spacing: float, reach: float) -> np.ndarray:
    """Axis-aligned grid of the given spacing, anchored at the defect centroid,
    clipped to the bounding box and to the defect set's bounding box grown by
    ``reach`` per axis (an infinite reach clips to the box alone)."""
    (lo, hi), defect = spec.box, spec.defect
    lo = np.maximum(lo, defect.min(axis=0) - reach)
    hi = np.minimum(hi, defect.max(axis=0) + reach)
    return _lattice(lo, hi, spacing, spec.anchor)


def generate_centers(spec: MultiresSpec) -> CenterSet:
    """Centers of every region, each built once by the region that owns it.

    A center belongs to the region whose interval of distance to the defect
    set holds it: ``[0, core_radius]`` for the core (level 0), ``(inner,
    outer]`` for ring J (level J) and ``(outermost, inf)`` for the global
    grid (level j + 1).  The intervals are disjoint, and every region
    lattice ``anchor + s Z^d`` holds the coarser ones with the same bits
    (the spacings are powers of two), so no center is built twice or lost.
    """
    plan = build_ring_plan(spec)
    lo, hi = spec.box
    outermost = plan.rings[-1].outer
    if (np.any(spec.defect.min(axis=0) - outermost < lo - 1e-12)
            or np.any(spec.defect.max(axis=0) + outermost > hi + 1e-12)):
        raise ValueError("bounding box must contain the outermost ring")
    # (level, spacing, inner, outer), the global grid first: its size follows
    # from the box and j alone, so a grid too large to allocate fails before
    # any region grid is built
    regions = [(spec.j + 1, plan.global_spacing, outermost, np.inf)]
    regions += [(r.index, r.spacing, r.inner, r.outer) for r in reversed(plan.rings)]
    regions.append((0, plan.core_spacing, -np.inf, plan.core_radius))
    chunks, tags = [], []
    for level, spacing, inner, outer in regions:
        grid = _region_grid(spec, spacing, outer)
        dist = _defect_distance(spec, grid)
        chunks.append(np.compress((dist > inner) & (dist <= outer), grid, axis=0))
        tags.append(np.full(chunks[-1].shape[0], level, dtype=int))
    pts, levels = np.concatenate(chunks, axis=0), np.concatenate(tags)
    order = np.lexsort(tuple(pts[:, a] for a in range(spec.d - 1, -1, -1)) + (levels,))
    return CenterSet(np.take(pts, order, axis=0), levels=np.take(levels, order))


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
    radius is ``2^(-3/2)`` times its outer one, so for a one-point defect
    ``ratio_to_bound`` rises with j toward ``2^d omega_d (1 - 2^(-3d/2))``,
    about 11.0 (3.5 pi) in d = 2; a ratio near that limit is the pinned
    geometry, not a defect.  The ball and the rings are measured from the
    whole defect set while the bound stays the one-point series, so a wider
    set holds more centers in the ball and can pass that limit: the 21-point
    segment [-0.5, 0.5] x {0} at j = 2, k = 2, box +-10 reads 15,389 / 1,372
    = 11.2.
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
    _check_int("k", k, 1)
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

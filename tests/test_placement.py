"""Multiresolution ring placement and transition planning."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from surfspline import (
    MultiresSpec,
    build_ring_plan,
    cardinality_report,
    certify_slow_growth,
    generate_centers,
    minimal_density,
    plan_transition,
)
from surfspline.centers import DUPLICATE_TOL, _lattice
from surfspline.density import DensityField
from surfspline.placement import _defect_distance


def spec_2d(j=3, k=2, box_half=6.0):
    return MultiresSpec(j=j, k=k, d=2, defect=np.zeros((1, 2)),
                        box=(np.full(2, -box_half), np.full(2, box_half)))


def spec_1d(j=2, k=1, box_half=10.0, epsilon=0.5, degree=7):
    return MultiresSpec(j=j, k=k, d=1, defect=np.zeros((1, 1)),
                        box=(np.array([-box_half]), np.array([box_half])),
                        epsilon=epsilon, degree=degree)


def test_ring_plan_reference_values():
    plan = build_ring_plan(spec_2d())
    outs = [r.outer for r in plan.rings]
    assert outs == pytest.approx([14 * 2**-4.5, 14 * 2**-3, 14 * 2**-1.5])
    assert plan.core_spacing == 2**-6
    assert [r.spacing for r in plan.rings] == [2**-6, 2**-5, 2**-4]
    assert plan.core_radius == pytest.approx(14 * 2**-6)
    assert plan.global_spacing == 2**-3


def test_ring_plan_single_ring():
    spec = MultiresSpec(j=1, k=1, d=1, defect=np.zeros((1, 1)),
                        box=(np.array([-8.0]), np.array([8.0])),
                        epsilon=0.5, degree=7)
    plan = build_ring_plan(spec)
    assert len(plan.rings) == 1
    assert plan.rings[0].outer == pytest.approx(7 * 2**-0.5)
    assert plan.rings[0].spacing == 2**-2


def test_outermost_spacing_is_half_h():
    for j in (2, 3, 4):
        plan = build_ring_plan(spec_2d(j=j))
        assert plan.rings[-1].spacing == pytest.approx(plan.global_spacing / 2)


def test_rings_partition_annulus():
    plan = build_ring_plan(spec_2d())
    inner = plan.core_radius
    for r in plan.rings:
        assert r.inner == pytest.approx(inner)  # contiguous
        assert r.outer > r.inner
        inner = r.outer
    spacings = [plan.core_spacing] + [r.spacing for r in plan.rings]
    assert all(b == 2 * a or b == a for a, b in zip(spacings, spacings[1:]))
    # exactly a factor 2 per ring after the core
    ring_sp = [r.spacing for r in plan.rings]
    assert all(b == 2 * a for a, b in zip(ring_sp, ring_sp[1:]))


def test_generate_centers_1d_region_counts():
    spec = spec_1d()
    cs = generate_centers(spec)
    plan = build_ring_plan(spec)
    dist = np.abs(cs.points[:, 0])
    # brute-force region membership: per-level counts match a direct scan of
    # the grid of that spacing over the annulus (ties go inward)
    regions = [(0, 0.0, plan.core_radius, plan.core_spacing, True)]
    regions += [(r.index, r.inner, r.outer, r.spacing, False) for r in plan.rings]
    for lv, lo, hi, sp, is_core in regions:
        mask = cs.levels == lv
        if not is_core:
            assert np.all(dist[mask] > lo)
        assert np.all(dist[mask] <= hi + 1e-12)
        grid = np.abs(np.arange(np.ceil(-hi / sp), np.floor(hi / sp) + 1) * sp)
        expected = grid <= hi + 1e-12 if is_core else (grid > lo) & (grid <= hi + 1e-12)
        assert mask.sum() == int(expected.sum())
    # every point in the core has a neighbor at the core spacing
    core = np.sort(cs.points[cs.levels == 0][:, 0])
    assert np.max(np.diff(core)) <= plan.core_spacing + 1e-12


def test_generate_centers_sign_symmetry():
    cs = generate_centers(spec_2d(j=2, box_half=8.0))
    keys = {tuple(np.round(p, 9)) for p in cs.points}
    for p in cs.points:
        assert tuple(np.round(-p, 9)) in keys


def test_generate_centers_box_too_small():
    # the box must hold the defect set's bounding box +- the outermost radius
    # (4.95 at j = 3, k = 2): +-5.45 for the segment, so +-5.3 is too small
    for defect, half in [(np.zeros((1, 2)), 1.0), ([[-0.5, 0.0], [0.5, 0.0]], 5.3)]:
        spec = MultiresSpec(j=3, k=2, d=2, defect=defect,
                            box=(np.full(2, -half), np.full(2, half)))
        with pytest.raises(ValueError, match="bounding box"):
            generate_centers(spec)


def test_global_grid_built_before_region_grids(monkeypatch):
    # the global grid's size follows from the box and j alone: at j = 34 it
    # would hold 2^37 points, so it must be the first grid asked for, before
    # the core and ring grids (millions of points) are built
    import surfspline.placement as placement

    class Stop(Exception):
        pass

    calls = []

    def spy(spec, spacing, reach):  # records the request, allocates nothing
        calls.append((spacing, reach))
        raise Stop

    monkeypatch.setattr(placement, "_region_grid", spy)
    with pytest.raises(Stop):
        generate_centers(spec_1d(j=34, box_half=4.0))
    assert calls == [(2.0**-34, np.inf)]


def test_density_at_defect():
    # rho(0) <= 14 * 2^-6 for j=3, k=2, d=2 with the degree-14 reproduction
    spec = spec_2d()
    cs = generate_centers(spec)
    rho, _ = minimal_density(cs, np.zeros(2), spec.degree)
    assert rho <= 14 * 2.0**-6


def test_cardinality_report_values():
    spec = spec_2d()
    cs = generate_centers(spec)
    rep = cardinality_report(spec, cs)
    assert rep.bound == pytest.approx(196 * 15)  # sum_J 196 * 2^J, J = 0..3
    assert rep.ball_radius == pytest.approx(14 * 2**-1.5)
    assert rep.uniform_count == pytest.approx(196 * 2**3)
    assert rep.actual == int(np.sum(np.linalg.norm(cs.points, axis=1) <= rep.ball_radius))
    # a one-point defect's norms are a fast path: the kd-tree query that a
    # defect set takes gives the same bits
    kd_tree = cKDTree(spec.defect).query(cs.points)[0]
    assert _defect_distance(spec, cs.points).tobytes() == kd_tree.tobytes()


def test_cardinality_ratio_limit_holds_for_a_point_only():
    # the bound is the one-point series and the ball is measured from the
    # whole defect set: a point stays below 3.5 pi, a segment passes it
    t = np.linspace(-0.5, 0.5, 21)
    limit = 4 * np.pi * (1 - 2.0**-3)
    for defect, actual in ((np.zeros((1, 2)), 13_541), (np.stack([t, 0 * t], axis=1), 15_389)):
        spec = MultiresSpec(j=2, k=2, d=2, defect=defect,
                            box=(np.full(2, -10.0), np.full(2, 10.0)))
        rep = cardinality_report(spec, generate_centers(spec))
        assert (rep.actual, rep.bound) == (actual, 1372.0)
        assert (rep.ratio_to_bound < limit) == (len(defect) == 1)
    assert round(rep.ratio_to_bound, 1) == 11.2


def test_cardinality_bound_j0_term():
    # single-term instance of the geometric sum
    spec = spec_1d(j=1)
    bound_terms = [7 * 2 ** (J / 2) for J in range(2)]
    cs = generate_centers(spec)
    rep = cardinality_report(spec, cs)
    assert rep.bound == pytest.approx(sum(bound_terms))


def test_cardinality_ratio_stable_in_j():
    # ratio actual/uniform bounded by a j-independent constant (d = 1)
    ratios = []
    for j in (2, 3, 4, 5):
        spec = spec_1d(j=j, box_half=8.0)
        cs = generate_centers(spec)
        rep = cardinality_report(spec, cs)
        ratios.append(rep.actual / rep.uniform_count)
    assert max(ratios) <= 3 * min(ratios)


def test_curve_defect_tubular_rings():
    # defect = sampled segment in d = 2: rings become tubular neighborhoods
    t = np.linspace(-0.5, 0.5, 21)
    defect = np.stack([t, np.zeros_like(t)], axis=1)
    spec = MultiresSpec(j=2, k=2, d=2, defect=defect,
                        box=(np.full(2, -8.0), np.full(2, 8.0)))
    cs = generate_centers(spec)
    plan = build_ring_plan(spec)
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(defect).query(cs.points)
    core = cs.levels == 0
    assert core.any()
    # each center's level is the region whose distance interval holds it,
    # along the whole segment and not only near its midpoint
    bounds = np.array([plan.core_radius] + [r.outer for r in plan.rings])
    assert np.array_equal(cs.levels, np.searchsorted(bounds, dist, side="left"))
    assert np.all(dist[cs.levels == spec.j + 1] > plan.rings[-1].outer)
    # the core covers the segment's whole tube at the core spacing
    assert np.count_nonzero(core) == 1053


def dedupe_centers(spec):
    """The construction by union and dedupe, kept as an oracle: each region
    grid clipped to the defect set's bounding box +- its outer radius, the
    global grid over the whole box, and a quantize-and-unique pass keeping
    the first (finest) copy of each point."""
    plan = build_ring_plan(spec)
    (lo, hi), defect = spec.box, spec.defect

    def grid(spacing, reach):
        return _lattice(np.maximum(lo, defect.min(axis=0) - reach),
                        np.minimum(hi, defect.max(axis=0) + reach), spacing, spec.anchor)

    chunks, tags = [], []
    regions = [(0, plan.core_spacing, -np.inf, plan.core_radius)]
    regions += [(r.index, r.spacing, r.inner, r.outer) for r in plan.rings]
    for level, spacing, inner, outer in regions:
        pts = grid(spacing, outer)
        dist = _defect_distance(spec, pts)
        chunks.append(pts[(dist > inner) & (dist <= outer)])
        tags.append(np.full(len(chunks[-1]), level))
    chunks.append(grid(plan.global_spacing, np.inf))
    tags.append(np.full(len(chunks[-1]), spec.j + 1))
    pts, levels = np.concatenate(chunks), np.concatenate(tags)
    _, first = np.unique(np.round(pts / DUPLICATE_TOL).astype(np.int64), axis=0,
                         return_index=True)
    first.sort()
    pts, levels = pts[first], levels[first]
    order = np.lexsort(tuple(pts[:, a] for a in range(spec.d - 1, -1, -1)) + (levels,))
    return pts[order], levels[order]


@pytest.mark.parametrize("seed", range(6))
def test_generate_centers_equals_dedupe_oracle(seed):
    # d = 1 and 2, defect sets of 1-4 points (dyadic or arbitrary offsets), box
    # faces on the global lattice or off it: every center is built once, with
    # the bits and the level the union-and-dedupe construction gives it
    rng = np.random.default_rng(seed)
    for _ in range(8):
        d = int(rng.integers(1, 3))
        k, j = d, int(rng.integers(1, 5 if d == 1 else 3))
        m = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            defect = rng.integers(-16, 17, (m, d)) / 16.0
        else:
            defect = rng.uniform(-0.6, 0.6, (m, d))
        anchor = defect.mean(axis=0)
        outer = build_ring_plan(MultiresSpec(j=j, k=k, d=d, defect=defect,
                                             box=(anchor - 1, anchor + 1))).rings[-1].outer
        lo, hi = defect.min(axis=0) - outer, defect.max(axis=0) + outer
        if rng.random() < 0.5:  # faces on the lattice anchor + 2^-j Z^d
            h = 2.0**-j
            lo = anchor + (np.floor((lo - anchor) / h) - rng.integers(0, 3, d)) * h
            hi = anchor + (np.ceil((hi - anchor) / h) + rng.integers(0, 3, d)) * h
        else:
            lo, hi = lo - rng.uniform(0, 1, d), hi + rng.uniform(0, 1, d)
        spec = MultiresSpec(j=j, k=k, d=d, defect=defect, box=(lo, hi))
        cs = generate_centers(spec)
        pts, levels = dedupe_centers(spec)
        assert cs.points.tobytes() == pts.tobytes()
        assert np.array_equal(cs.levels, levels)


def test_plan_transition_reference():
    tp = plan_transition(2, 1 / 3, 2)
    assert tp.radius_exponent == pytest.approx(0.5)
    assert tp.min_degree == 13
    assert tp.valid


def test_plan_transition_s_one():
    tp = plan_transition(1, 0.4, 1)
    assert tp.radius_exponent == pytest.approx(1.0)
    assert tp.valid


def test_plan_transition_invalid():
    assert not plan_transition(3, 0.5, 2).valid


def test_slow_growth_of_generated_field():
    # measured density over a small probe set satisfies slow growth with a
    # constant below 7k
    spec = spec_1d()
    cs = generate_centers(spec)
    probes = np.linspace(-2.0, 2.0, 17)[:, None]
    rho = np.array([minimal_density(cs, p, spec.degree)[0] for p in probes])
    df = DensityField(probes, rho)
    assert certify_slow_growth(df, spec.epsilon) <= 7 * spec.k

"""Dyadic cubes, one row standing for each cube's genders: partition rule,
bad-cube bound, overlap count."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfspline import (
    DensityField,
    DyadicCubes,
    DyadicParams,
    UndersampledDensity,
    bad_cube_bound_check,
    certify_self_majorization,
    classify,
    enumerate_cubes,
    genders,
    geometric_tail_bound,
    max_overlap,
    overlap_count,
)


def test_genders():
    assert genders(1) == [(1,)]
    assert len(genders(2)) == 3
    assert (0, 0) not in genders(2)
    assert len(genders(3)) == 7


def test_cube_geometry():
    cube = DyadicCubes(np.array([2]), np.array([[3, -1]]))
    assert len(cube) == 1
    assert cube.side.tolist() == [0.25]
    assert cube.corner.tolist() == [[0.75, -0.25]]


def test_row_indexing_kinds_match_numpy():
    # a boolean mask, an index array (negatives and repeats included) and a
    # slice pick each field's rows as plain numpy indexing does
    cubes = enumerate_cubes((-np.ones(3), np.ones(3)), [0, 1], 3)
    mask = np.random.default_rng(5).random(len(cubes)) < 0.4
    for rows in (mask, ~mask, np.flatnonzero(mask), np.array([-1, 0, 7, 7, 3]),
                 np.array([], dtype=int), slice(None), slice(3, 40, 5), slice(None, None, -2)):
        got = cubes[rows]
        for field in ("level", "index"):
            want = getattr(cubes, field)[rows]
            assert getattr(got, field).tobytes() == want.tobytes()
            assert getattr(got, field).shape == want.shape
    with pytest.raises(IndexError):
        cubes[mask[:-1]]


def test_params_validation():
    with pytest.raises(ValueError):
        DyadicParams(gamma=0.5, sigma=1.0, two_k=4.0)
    with pytest.raises(ValueError):
        DyadicParams(gamma=2.0, sigma=4.0, two_k=4.0)  # sigma = 2k boundary


def test_enumerate_cubes_counts():
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), [0, 1], 1)
    # level 0: 1 cube, level 1: 2 cubes, one row each
    assert len(cubes) == 3
    levels = cubes.level.tolist()
    assert levels == sorted(levels)


def test_classify_constant_density_threshold():
    df = DensityField(np.linspace(0, 1, 9), np.full(9, 0.3))
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), [0, 1, 2, 3], 1)
    good = classify(cubes, df, params)
    assert good.shape == (len(cubes),)
    assert np.all(cubes.side[good] >= 0.3)
    assert np.all(cubes.side[~good] < 0.3)


def test_classify_spike():
    # density spike at the origin: small cubes whose inflated support sees
    # the spike are bad
    pts = np.linspace(-1, 1, 41)
    vals = np.where(np.abs(pts) < 1e-12, 1.0, 2.0**-10)
    df = DensityField(pts, vals)
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.array([-1.0]), np.array([1.0])), [1, 4], 1)
    good = classify(cubes, df, params)
    sees_spike = np.abs(cubes.corner[:, 0]) <= params.gamma * cubes.side
    small = sees_spike & (cubes.side < 1.0)
    assert small.any()
    assert not good[small].any()


def test_classify_monotone_in_density():
    rng = np.random.default_rng(40)
    pts = rng.uniform(0, 1, size=20)
    vals = np.exp(rng.normal(size=20) * 0.5) * 0.1
    params = DyadicParams(gamma=1.5, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), [0, 1, 2, 3, 4], 1)
    good_lo = classify(cubes, DensityField(pts, vals), params)
    good_hi = classify(cubes, DensityField(pts, vals * 3.0), params)
    # increasing the density never moves a cube from bad to good
    assert not np.any(good_hi & ~good_lo)


def test_classify_undersampled():
    df = DensityField(np.array([[50.0]]), np.array([0.1]))
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), [3], 1)
    with pytest.raises(UndersampledDensity, match=r"level 3 cube with corner index \(0,\)"):
        classify(cubes, df, params)


@pytest.mark.parametrize("d", [1, 2])
def test_classify_no_cubes(d):
    # no levels, no cubes: an empty mask, and an empty record, which the
    # bound check and the overlap count accept like any other record
    df = DensityField(np.zeros((1, d)), [0.5])
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(d), np.ones(d)), [], d)
    good = classify(cubes, df, params)
    assert good.shape == (0,) and good.dtype == bool
    assert bad_cube_bound_check(cubes[~good], df, params, 1.0, 1.0) == 0.0
    assert overlap_count(cubes, np.zeros(d), params) == 0


def test_conditional_parent_goodness():
    # assertable form: if ell(nu) >= rho over the PARENT's support, the
    # parent (with double sidelength) is good
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 1, size=(60, 1))
    vals = np.exp(rng.normal(size=60) * 0.7) * 0.05
    df = DensityField(pts, vals)
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), [2, 3], 1)
    children = cubes[cubes.level == 3]
    parents = DyadicCubes(children.level - 1, children.index // 2)
    rho_parent, _ = support_extrema_by_listing(parents, df, params.gamma)
    good_parents = classify(parents, df, params)
    assert np.all(good_parents[children.side >= rho_parent])


def test_self_majorization_hand_value_and_cap():
    # two-sample field: C_sm = 0.11 at r = 1; Gamma = 1 gives C = 3/0.11
    df = DensityField(np.array([[0.0], [1.0]]), np.array([1.0, 10.0]))
    c_sm = certify_self_majorization(df, 1.0)
    assert c_sm == pytest.approx(0.11)
    gamma = 1.0
    cap = 1.0 / (c_sm * (1 + 2 * gamma) ** (-1.0))
    assert cap == pytest.approx(3.0 / 0.11)


def test_bad_cube_bound_with_certified_constants():
    # densely sampled growing field: certified (c_sm, r) make the bad-cube
    # sidelength bound hold with ratio <= 1 across levels 0..6
    pts = np.linspace(0.0, 1.0, 65)
    df = DensityField(pts, 1.0 + 9.0 * pts)
    r = 1.0
    c_sm = certify_self_majorization(df, r)
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), range(0, 7), 1)
    good = classify(cubes, df, params)
    assert not good.all()  # the field exceeds every sidelength somewhere
    assert bad_cube_bound_check(cubes[~good], df, params, c_sm, r) <= 1.0


def test_bad_cube_bound_no_bad_cubes():
    df = DensityField(np.linspace(0, 1, 5), np.full(5, 1e-6))
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = enumerate_cubes((np.zeros(1), np.ones(1)), range(0, 3), 1)
    good = classify(cubes, df, params)
    assert good.all()
    assert bad_cube_bound_check(cubes[~good], df, params, 1.0, 1.0) == 0.0


def test_overlap_count_d1():
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    level = 4
    cubes = DyadicCubes(np.full(40, level), np.arange(-20, 20)[:, None])
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.uniform(-1, 1, size=1)
        assert overlap_count(cubes, x, params) <= max_overlap(1, 1.0)
    assert max_overlap(1, 1.0) == 3


def test_overlap_count_far_point():
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    cubes = DyadicCubes(np.full(4, 2), np.arange(4)[:, None])
    assert overlap_count(cubes, np.array([100.0]), params) == 0


def test_overlap_count_d2_corner():
    params = DyadicParams(gamma=1.0, sigma=1.0, two_k=2.0)
    level = 3
    side = 2.0**-level
    # corner indices -4..4 on both axes, each row counted for its three genders
    cubes = enumerate_cubes((np.full(2, -4 * side), np.full(2, 5 * side)), [level], 2)
    assert len(cubes) == 81
    x = np.zeros(2)
    count = overlap_count(cubes, x, params)
    # brute force: corners within distance gamma * side of the origin
    corners = sum(1 for i in range(-4, 5) for jj in range(-4, 5)
                  if np.hypot(i * side, jj * side) <= side)
    assert count == 3 * corners
    assert count <= max_overlap(2, 1.0)


def test_geometric_tail_closed_forms():
    good, _ = geometric_tail_bound(1.0, 4.0, 0)
    assert good == pytest.approx(8.0 / 7.0)
    with pytest.raises(ValueError):
        geometric_tail_bound(4.0, 4.0, 0)
    with pytest.raises(ValueError):
        geometric_tail_bound(0.0, 4.0, 0)


def test_geometric_tail_partial_sums():
    sigma, two_k, j = 1.5, 4.0, 2
    good, bad = geometric_tail_bound(sigma, two_k, j)
    gsum = sum((2.0 ** (j + i)) ** (sigma - two_k) for i in range(41))
    bsum = sum((2.0 ** (j - i)) ** sigma for i in range(200))
    assert abs(gsum - good) <= 1e-10
    assert abs(bsum - bad) <= 1e-10


# ---------------------------------------------------------------------------
# the array layer against per-cube brute force


def random_case(seed, d):
    """A random positive field on [0, 1]^d, random levels and gamma in [1, 3]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 80))
    df = DensityField(rng.uniform(-0.1, 1.1, size=(n, d)), np.exp(rng.normal(size=n)) * 0.1)
    lo = int(rng.integers(0, 3))
    levels = range(lo, lo + int(rng.integers(1, 4)))
    params = DyadicParams(gamma=float(rng.uniform(1.0, 3.0)), sigma=1.0, two_k=2.0)
    return rng, df, enumerate_cubes((np.zeros(d), np.ones(d)), levels, d), params


def support_values(cubes, df, gamma):
    """Density samples in each cube's inflated support, one cube at a time."""
    out = []
    for level, index in zip(cubes.level.tolist(), cubes.index.tolist()):
        side = 2.0**-level
        corner = np.array(index, dtype=float) * side
        out.append(df.values[np.linalg.norm(df.points - corner, axis=1) <= gamma * side])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_classify_and_bound_match_brute_force(seed, d):
    rng, df, cubes, params = random_case(seed, d)
    vals = support_values(cubes, df, params.gamma)
    if not all(v.size for v in vals):
        with pytest.raises(UndersampledDensity):
            classify(cubes, df, params)
        return
    good = classify(cubes, df, params)
    sides = cubes.side.tolist()
    assert good.tolist() == [s >= v.max() for s, v in zip(sides, vals)]
    r = float(rng.uniform(0.5, 3.0))
    c_sm = certify_self_majorization(df, r)
    cap = 1.0 / (c_sm * (1.0 + 2.0 * params.gamma) ** (-r))
    ratios = [s / (cap * v.min()) for s, v, g in zip(sides, vals, good) if not g]
    expected = max(ratios) if ratios else 0.0
    assert bad_cube_bound_check(cubes[~good], df, params, c_sm, r) == expected


def support_extrema_by_listing(cubes, density, gamma):
    """(rho_max, rho_min) of each cube's support from a per-ball listing: one
    batched ``query_ball_point`` over the corners, each ball's hits reduced in
    one slice."""
    radius = gamma * cubes.side
    balls = density._tree.query_ball_point(cubes.corner, radius)
    counts = np.array([len(ball) for ball in balls], dtype=np.intp)
    hits = np.concatenate([np.asarray(ball, dtype=np.intp) for ball in balls])
    if not counts.all():
        i = np.flatnonzero(counts == 0)[0]
        raise UndersampledDensity(
            f"no density sample within {radius[i]:g} of the corner of the level "
            f"{cubes.level[i]} cube with corner index {tuple(cubes.index[i].tolist())}"
        )
    vals, starts = density.values[hits], np.cumsum(counts) - counts
    return np.maximum.reduceat(vals, starts), np.minimum.reduceat(vals, starts)


def extrema_by_scan(cubes, df, gamma, within=np.less_equal):
    """(rho_max, rho_min) over the samples whose distance to each cube's corner
    is ``within`` ``gamma * side``, from a full distance scan (-inf, inf if none)."""
    from scipy.spatial.distance import cdist

    hi, lo = [], []
    for s in range(0, len(cubes), 512):
        rows = cubes[s:s + 512]
        inside = within(cdist(rows.corner, df.points), gamma * rows.side[:, None])
        hi.append(np.max(np.where(inside, df.values, -np.inf), axis=1))
        lo.append(np.min(np.where(inside, df.values, np.inf), axis=1))
    return np.concatenate(hi), np.concatenate(lo)


def partition_from_extrema(cubes, extrema, params, c_sm=0.5, r=2.0, good_if=np.greater_equal):
    """The good mask ``side >= rho_max`` (or ``good_if``) that per-cube support
    extrema give, and the worst bad-cube ratio ``side / (C rho_min)`` per level."""
    rho_max, rho_min = extrema
    good = good_if(cubes.side, rho_max)
    ratio = cubes.side / (1.0 / (c_sm * (1.0 + 2.0 * params.gamma) ** (-r)) * rho_min)
    return good, [float(np.max(ratio[~good & (cubes.level == lv)], initial=0.0))
                  for lv in np.unique(cubes.level)]


def partition(cubes, df, params, c_sm=0.5, r=2.0):
    """``partition_from_extrema``'s pair from :func:`classify` and the bound."""
    good = classify(cubes, df, params)
    return good, [bad_cube_bound_check(cubes[~good & (cubes.level == lv)], df, params, c_sm, r)
                  for lv in np.unique(cubes.level)]


def lattice_points(x_min=0.0):
    """The spacing-2^-6 lattice of [0, 1]^2, where every corner of a cube of
    level <= 6 sits on a sample, right of ``x_min``."""
    xs = np.arange(65) * 2.0**-6
    pts = np.stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    return pts[pts[:, 0] >= x_min]


def lattice_field(seed, x_min=0.0):
    """Random values, about 1, on ``lattice_points``: above every side of levels
    1..6 or nearly so."""
    pts = lattice_points(x_min)
    return DensityField(pts, np.exp(np.random.default_rng(seed).normal(size=len(pts))))


def step_field(seed):
    """1 at the origin and from the lattice column 33 on, below 2^-11 left of
    it and rising column by column (random within a column): a cube is bad
    iff its support reaches column 33 or holds the origin, so the samples at
    distance exactly gamma * side and 0 decide some cubes."""
    pts = lattice_points()
    vals = 2.0**-12 * (1.0 + pts[:, 0] + 2.0**-7 * np.random.default_rng(seed).random(len(pts)))
    vals[(pts[:, 0] >= 33 * 2.0**-6) | ~pts.any(axis=1)] = 1.0
    return DensityField(pts, vals)


def plateau_field():
    """1 at the origin, 2^-2 on the upper half of the lattice and 2^-5 on the
    rest: no sample above the side at level 0, one at level 1, some at
    levels 2..5 and all at level 6; samples equal the sides of levels 0, 2, 5."""
    pts = lattice_points()
    vals = np.where(pts[:, 1] >= 0.5, 2.0**-2, 2.0**-5)
    vals[0] = 1.0
    return DensityField(pts, vals)


@pytest.mark.parametrize("gamma", [1.25, 1.5, 5.0])
def test_support_extrema_on_lattice(gamma):
    # gamma 1.25 at level 4 and gamma 5 at level 6 give the radius 5 * 2^-6,
    # which the samples (3, 4) * 2^-6 from a corner meet exactly (and their
    # multiples at coarser levels), as (5, 0) * 2^-6 does for 1.5 at level 5;
    # at level 0 the supports for 1.5 and 5 hold every sample; every corner
    # is a sample at distance 0.  The mask and the per-level bound of
    # classify match the listing's and the scan's support extrema
    params = DyadicParams(gamma, 1.0, 2.0)
    cubes = enumerate_cubes((np.zeros(2), np.ones(2)), range(7), 2)
    fields = {"random": lattice_field(int(4 * gamma)), "step": step_field(int(4 * gamma)),
              "plateau": plateau_field()}
    masks = {}
    for name, df in fields.items():
        good, ratios = partition(cubes, df, params)
        want = partition_from_extrema(cubes, support_extrema_by_listing(cubes, df, gamma), params)
        assert good.tolist() == want[0].tolist() and ratios == want[1]
        want = partition_from_extrema(cubes, extrema_by_scan(cubes, df, gamma), params)
        assert good.tolist() == want[0].tolist() and ratios == want[1]
        assert bad_cube_bound_check(cubes[~good], df, params, 0.5, 2.0) == max(ratios)
        if gamma > 2**0.5:  # one level-0 support holds every sample
            level0 = cubes[cubes.level == 0]
            assert classify(level0, df, params).tolist() == [df.values.max() <= 1.0]
            assert (bad_cube_bound_check(level0, df, params, 0.5, 2.0)
                    == 1.0 / (1.0 / (0.5 * (1.0 + 2.0 * gamma) ** -2.0) * df.values.min()))
        masks[name] = good.tolist()
    # the boundary and the zero distance each decide some cubes on the step field
    for within in (np.less, lambda dist, r: (dist > 0) & (dist <= r)):
        other = extrema_by_scan(cubes, fields["step"], gamma, within)
        assert masks["step"] != partition_from_extrema(cubes, other, params)[0].tolist()
    # per level none, one, some or all of the plateau field's samples are above
    # the side, and samples equal to the side are good and decide some cubes
    vals = fields["plateau"].values
    above = [np.count_nonzero(vals > side) for side in 2.0 ** -np.arange(7)]
    assert above[0] == 0 and above[1] == 1 and 1 < above[3] < len(vals) and above[6] == len(vals)
    other = partition_from_extrema(cubes, extrema_by_scan(cubes, fields["plateau"], gamma),
                                   params, good_if=np.greater)
    assert masks["plateau"] != other[0].tolist()


def lattice_case(seed, d):
    """Random samples on the spacing-2^-3 lattice of [-0.25, 1.25]^d with values
    2^-k over a random span of k, a gamma that puts lattice points exactly at
    gamma * side, levels 0..3 (every corner a lattice point)."""
    rng = np.random.default_rng(seed)
    axis = np.arange(-2, 11) * 2.0**-3
    grid = np.stack([m.ravel() for m in np.meshgrid(*[axis] * d, indexing="ij")], axis=1)
    pts = grid[rng.random(len(grid)) < rng.uniform(0.3, 1.0)]
    if not len(pts):
        pts = grid[:1]
    k0 = int(rng.integers(0, 4))
    vals = 2.0 ** -rng.integers(k0, k0 + int(rng.integers(1, 4)), len(pts)).astype(float)
    params = DyadicParams(float(rng.choice([1.0, 1.25, 1.5, 2.0])), 1.0, 2.0)
    return DensityField(pts, vals), enumerate_cubes((np.zeros(d), np.ones(d)), range(4), d), params


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_classify_and_bound_match_brute_force_on_lattice(seed, d):
    # power-of-two values equal the sides, lattice points lie at distance 0 and
    # exactly gamma * side from corners: the mask and the per-level bound match
    # the per-cube support values
    df, cubes, params = lattice_case(seed, d)
    vals = support_values(cubes, df, params.gamma)
    if not all(v.size for v in vals):
        with pytest.raises(UndersampledDensity):
            classify(cubes, df, params)
        return
    extrema = (np.array([v.max() for v in vals]), np.array([v.min() for v in vals]))
    got, want = partition(cubes, df, params), partition_from_extrema(cubes, extrema, params)
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


@pytest.mark.parametrize("order", [1, -1])
def test_support_extrema_undersampled_names_first_empty_run(order):
    # samples on the right half only: cubes near the left edge hold none; the
    # listing and classify name the same first one in row order
    df = lattice_field(3, x_min=0.5)
    cubes = enumerate_cubes((np.zeros(2), np.ones(2)), [1, 2, 3], 2)[::order]
    with pytest.raises(UndersampledDensity) as want:
        support_extrema_by_listing(cubes, df, 1.25)
    with pytest.raises(UndersampledDensity) as got:
        classify(cubes, df, DyadicParams(1.25, 1.0, 2.0))
    assert str(got.value) == str(want.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_overlap_count_matches_loop(seed, d):
    rng, _, cubes, params = random_case(seed, d)
    xs = rng.uniform(-0.2, 1.2, size=(5, d))
    loops = [(2**d - 1) * sum(1 for level, index in zip(cubes.level.tolist(), cubes.index.tolist())
                              if np.linalg.norm(x - np.array(index, dtype=float) * 2.0**-level)
                              <= params.gamma * 2.0**-level) for x in xs]
    for x, loop in zip(xs, loops):
        assert overlap_count(cubes, x, params) == loop
    batch = overlap_count(cubes, xs, params)  # the batch: one count per point
    assert batch.shape == (5,) and batch.tolist() == loops


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_enumerate_cubes_order_and_count(seed, d):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 0.5, size=d)
    hi = lo + rng.uniform(0.1, 1.5, size=d)
    levels = range(int(rng.integers(0, 3)), int(rng.integers(3, 6)))
    cubes = enumerate_cubes((lo, hi), levels, d)
    rows = list(zip(cubes.level.tolist(), cubes.index.tolist()))
    assert rows == sorted(rows)
    assert len(set(map(str, rows))) == len(rows)
    count = sum(math.prod(math.ceil(b * 2**lv) - math.floor(a * 2**lv) for a, b in zip(lo, hi))
                for lv in levels)
    assert len(cubes) == count

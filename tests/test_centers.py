"""Geometry-core: neighbor queries and candidate radii."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfspline import CenterSet, DensityField, sorted_candidate_radii
from surfspline.centers import DUPLICATE_TOL, _grid_points, _sort_separates


def test_duplicate_rejection():
    with pytest.raises(ValueError, match="duplicate"):
        CenterSet([[0.0], [1e-13]])


def test_duplicate_rejection_names_first_pair():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 5e-13], [3.0, 0.0]])
    with pytest.raises(ValueError, match="rows 1 and 4$"):
        CenterSet(pts)


ATTACKS = ["axis", "diagonal", "repeat", "near tie", "interleaved", "lattice"]


def attacked_points(rng, d, attack):
    """A lattice of spacing 10^e, whose sort proves it distinct, and partners
    of a few of its points that a sort alone cannot judge: at DUPLICATE_TOL
    times 1 +- 1e-6 or 1e-10 along an axis or the diagonal, exact repeats,
    far points within DUPLICATE_TOL on the first axis (near ties) and a far
    point sorted between a point and its partner (interleaved); or a lattice
    of spacing that close to DUPLICATE_TOL."""
    tol = DUPLICATE_TOL * (1.0 + rng.choice([-1e-6, -1e-10, 0.0, 1e-10, 1e-6]))
    axes = [np.arange(rng.integers(1, 5)) for _ in range(d)]
    if attack == "lattice":
        return _grid_points(axes) * tol + rng.integers(-2, 3, d) * 10.0 ** rng.integers(-3, 4)
    scale = 10.0 ** rng.integers(-3, 4)
    base = (_grid_points(axes) + rng.integers(-3, 4, d)) * scale
    assert _sort_separates(base)
    p = base[rng.integers(len(base), size=2)]
    step, far = np.zeros(d), np.zeros(d)
    step[rng.integers(d) if attack == "axis" else 0] = tol * rng.choice([-1.0, 1.0])
    far[-1] = 0.5 * scale if d > 1 else 0.0
    partners = {"axis": p + step,
                "diagonal": p + tol / np.sqrt(d) * rng.choice([-1.0, 1.0], size=(2, d)),
                "repeat": p,
                "near tie": p + rng.uniform(-1, 1, (2, 1)) * step + far,
                "interleaved": np.concatenate([p + step, p + 0.5 * step + far])}[attack]
    return np.concatenate([base, partners])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from(ATTACKS))
def test_sort_proof_agrees_with_tree(seed, d, attack):
    # CenterSet rejects a set iff the kd-tree finds a pair within
    # DUPLICATE_TOL; where the sort alone accepts, the tree finds none
    from scipy.spatial import cKDTree

    pts = attacked_points(np.random.default_rng(seed), d, attack)
    tree_pairs = cKDTree(pts).query_pairs(DUPLICATE_TOL, output_type="ndarray")
    if _sort_separates(pts):
        assert tree_pairs.size == 0
    try:
        CenterSet(pts)
    except ValueError as exc:  # naming the pair query's least pair
        assert tree_pairs.size
        i, j = tree_pairs[np.argmin(tree_pairs[:, 0] * len(pts) + tree_pairs[:, 1])]
        assert str(exc).endswith(f"rows {i} and {j}")
    else:
        assert not tree_pairs.size


def test_duplicate_check_memory_is_linear_in_repeats():
    # 2,000 exact repeats make 1,999,000 pairs, 32 MB as an index array; the
    # check names the first pair from per-row ball sizes instead
    import tracemalloc

    pts = np.zeros((2000, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="rows 0 and 1$"):
            CenterSet(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_nonfinite_rejection():
    with pytest.raises(ValueError):
        CenterSet([[0.0], [np.nan]])


def test_constructors_copy_before_freezing():
    from surfspline import DensityField

    rng = np.random.default_rng(0)
    p, v, q = rng.uniform(size=(5, 2)), rng.uniform(1, 2, size=5), rng.uniform(size=(5, 2))
    lv = np.arange(5)
    df, cs = DensityField(p, v), CenterSet(q, levels=lv)
    for caller in (p, v, q, lv):
        assert caller.flags.writeable
    for frozen in (df.points, df.values, cs.points, cs.levels):
        assert not frozen.flags.writeable
        with pytest.raises(ValueError):
            frozen[0] = 0
    p[0], q[0] = 9.0, 9.0  # the caller's edits do not reach the objects
    assert df.points[0, 0] != 9.0 and cs.points[0, 0] != 9.0


@pytest.mark.parametrize("make,shape", [
    (lambda: CenterSet(np.zeros((3, 0))), "(3, 0)"),
    (lambda: DensityField(np.zeros((3, 0)), [1, 1, 1]), "(3, 0)"),
    (lambda: DensityField(np.zeros((3, 2, 2)), [1, 1, 1]), "(3, 2, 2)"),
], ids=["centers-0d", "density-0d", "density-3d"])
def test_constructors_reject_pointless_shapes(make, shape):
    # zero-dimensional points and deeper arrays are not (n, d) point clouds
    with pytest.raises(ValueError, match=re.escape(shape)):
        make()


def test_dimension_mismatch():
    cs = CenterSet([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        cs.neighbor_arrays([0.0], 1.0)


def test_neighbors_line_example():
    # {0, 1, 2} in R^1, center 0.9, radius 1.0 -> (1, 0.1) then (0, 0.9)
    cs = CenterSet([0.0, 1.0, 2.0])
    idx, dist = cs.neighbor_arrays([0.9], 1.0)
    assert idx.tolist() == [1, 0]
    assert dist.tolist() == [pytest.approx(0.1), pytest.approx(0.9)]


def test_neighbors_all_enclosing():
    rng = np.random.default_rng(0)
    cs = CenterSet(rng.uniform(-1, 1, size=(30, 2)))
    idx, dist = cs.neighbor_arrays([0.0, 0.0], 10.0)
    assert sorted(idx.tolist()) == list(range(30))
    assert np.all(np.diff(dist) >= 0)


def test_neighbors_grid_cross():
    # unit grid 8x8, center at a grid node, radius 1.0 -> node + 4 axis neighbors
    xs = np.arange(8.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    idx, dist = cs.neighbor_arrays([3.0, 3.0], 1.0)
    # the four neighbors at exactly the radius are included, tied ones by index
    assert idx.tolist() == [27, 19, 26, 28, 35]
    assert dist.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]
    # brute force agreement
    brute = np.linalg.norm(cs.points - np.array([3.0, 3.0]), axis=1)
    assert len(idx) == int(np.sum(brute <= 1.0))


@pytest.mark.parametrize("r2, expected", [(13, 45), (18, 61)])
def test_neighbors_grid_boundary_ring(r2, expected):
    # unit 9x9 grid centered at 0: the ring at distance sqrt(r2) sits exactly
    # on the radius, where a squared-distance comparison can drop it
    xs = np.arange(-4.0, 5.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    radius = np.sqrt(r2)
    idx, dist = cs.neighbor_arrays([0.0, 0.0], radius)
    brute = np.linalg.norm(cs.points, axis=1)
    assert idx.size == expected == int(np.sum(brute <= radius))
    assert dist[-1] == radius


def test_neighbors_monotone_in_radius():
    rng = np.random.default_rng(1)
    cs = CenterSet(rng.normal(size=(60, 3)))
    c = rng.normal(size=3)
    small = set(cs.neighbor_arrays(c, 0.8)[0].tolist())
    large = set(cs.neighbor_arrays(c, 1.6)[0].tolist())
    assert small <= large


def test_neighbors_exact_cut():
    rng = np.random.default_rng(2)
    cs = CenterSet(rng.uniform(size=(100, 2)))
    c = np.array([0.5, 0.5])
    r = 0.3
    idx = set(cs.neighbor_arrays(c, r)[0].tolist())
    dist = np.linalg.norm(cs.points - c, axis=1)
    for i in range(len(cs)):
        assert (i in idx) == (dist[i] <= r)


def test_candidate_radii_line():
    cs = CenterSet([0.0, 1.0, 2.0])
    assert sorted_candidate_radii(cs, [0.0]).tolist() == [0.0, 1.0, 2.0]


def test_candidate_radii_symmetric_dedup():
    cs = CenterSet([-1.0, 1.0])
    assert sorted_candidate_radii(cs, [0.0]).tolist() == [1.0]


def test_candidate_radii_brute_force():
    rng = np.random.default_rng(3)
    cs = CenterSet(rng.normal(size=(50, 2)))
    c = np.zeros(2)
    radii = sorted_candidate_radii(cs, c)
    brute = np.sort(np.linalg.norm(cs.points - c, axis=1))
    # every brute distance is within tolerance of a kept radius
    assert np.all(np.diff(radii) > 1e-12)
    for r in brute:
        assert np.min(np.abs(radii - r)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 3.0), st.booleans())
def test_neighbor_arrays_property(seed, radius, at_center):
    rng = np.random.default_rng(seed)
    cs = CenterSet(rng.normal(size=(25, 2)))
    c = rng.normal(size=2)
    if at_center:  # the radius is an actual center distance: a boundary point
        radius = float(np.linalg.norm(cs.points[rng.integers(25)] - c))
    idx, dist = cs.neighbor_arrays(c, radius)
    brute = np.linalg.norm(cs.points - c, axis=1)
    assert set(idx.tolist()) == set(np.flatnonzero(brute <= radius).tolist())
    assert np.allclose(dist, brute[idx], rtol=0, atol=1e-12)
    # ascending distance, ties by index
    assert np.array_equal(np.lexsort((idx, dist)), np.arange(idx.size))


def tie_groups(idx, dist, beyond=np.inf):
    """The tie groups among the centers ``idx`` (ascending) at distances
    ``dist`` from a point, every other center lying at least ``beyond`` from
    it: the centers in ``neighbor_arrays`` order, the candidate radii and the
    number of centers each captures.  Groups chain through DUPLICATE_TOL, and
    a group is kept only if ``beyond`` lies more than that past its radius.
    The per-point rule that ``_nearest_groups`` applies a block at a time."""
    order = np.argsort(dist, kind="stable")
    order, dist = idx[order], dist[order]
    counts = np.append(np.flatnonzero(np.diff(dist) > DUPLICATE_TOL) + 1, dist.size)
    counts = counts[beyond - dist[counts - 1] > DUPLICATE_TOL]
    return order, dist[counts - 1], counts


def ball_by_point(cs, center, radius):
    """One point's ball by its own padded tree query, index sort, stable
    distance sort and exact cut: ``neighbor_arrays`` before the batched
    ball routine."""
    from surfspline.centers import _CUTOFF_PAD

    idx = np.sort(np.asarray(cs._tree.query_ball_point(center, radius * (1.0 + _CUTOFF_PAD)),
                             dtype=np.intp))
    dist = np.linalg.norm(cs.points[idx] - center, axis=1)
    order = np.argsort(dist, kind="stable")
    idx, dist = idx[order], dist[order]
    n = int(np.searchsorted(dist, radius, side="right"))
    return idx[:n], dist[:n]


def lattice_or_cloud(rng, d, lattice):
    """Centers on a lattice of spacing 0.25 or 0.1 (exact ties at many
    radii), or a random cloud, and query points on centers and midpoints."""
    if lattice:
        h = float(rng.choice([0.25, 0.1]))
        ax = np.arange(-4, 5) * h if d < 3 else np.arange(-3, 4) * h
        pts = np.stack([m.ravel() for m in np.meshgrid(*[ax] * d, indexing="ij")], axis=1)
        return CenterSet(pts), h
    return CenterSet(rng.uniform(-1, 1, size=(60 * d, d))), 0.1


class ShuffledTree:
    """A kd-tree whose ball queries list each ball's hits in random order,
    and whose pair joins list their pairs in random order."""

    def __init__(self, tree, rng):
        self.tree, self.rng = tree, rng

    def query_ball_point(self, x, r, return_sorted=None):
        hits = self.tree.query_ball_point(x, r)
        if np.ndim(x) == 1:
            return self.rng.permutation(hits).tolist()
        return [self.rng.permutation(h).tolist() for h in hits]

    def sparse_distance_matrix(self, other, max_distance, output_type):
        pairs = self.tree.sparse_distance_matrix(other, max_distance, output_type=output_type)
        return pairs[self.rng.permutation(len(pairs))]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans(),
       st.sampled_from(["1", "BLOCK-1", "BLOCK", "BLOCK+1"]), st.booleans())
def test_balls_match_ball_by_point(seed, d, lattice, count, shuffled):
    # each radius is the distance to some center, so centers at exactly the
    # radius occur, on a lattice with exact ties among them; the order in
    # which the tree lists a ball's hits does not matter.  _balls lists each
    # ball by index, neighbor_arrays by distance, ties by index
    from surfspline.centers import _BLOCK, _balls

    rng = np.random.default_rng(seed)
    cs, h = lattice_or_cloud(rng, d, lattice)
    if shuffled:
        cs._tree = ShuffledTree(cs._tree, rng)
    n = {"1": 1, "BLOCK-1": _BLOCK - 1, "BLOCK": _BLOCK, "BLOCK+1": _BLOCK + 1}[count]
    pts = cs.points[rng.integers(len(cs), size=n)]
    pts = pts + 0.5 * h * rng.choice([-1.0, 0.0, 1.0], size=pts.shape)
    radii = np.linalg.norm(cs.points[rng.integers(len(cs), size=n)] - pts, axis=1)
    radii = np.where(radii > 0, radii, h)
    blocks = list(_balls(cs, pts, radii))
    assert [len(c) for _, _, c in blocks] == [min(_BLOCK, n - s) for s in range(0, n, _BLOCK)]
    idx = np.concatenate([i for i, _, _ in blocks])
    dist = np.concatenate([r for _, r, _ in blocks])
    counts = np.concatenate([c for _, _, c in blocks])
    ends = np.cumsum(counts)
    for p, r, a, b in zip(pts, radii, ends - counts, ends):
        ref_idx, ref_dist = ball_by_point(cs, p, r)
        by_index = np.argsort(ref_idx)
        assert np.array_equal(idx[a:b], ref_idx[by_index])
        assert dist[a:b].tobytes() == ref_dist[by_index].tobytes()
        got_idx, got_dist = cs.neighbor_arrays(p, r)
        assert np.array_equal(got_idx, ref_idx)
        assert got_dist.tobytes() == ref_dist.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans(), st.integers(1, 80),
       st.sampled_from(["1", "BLOCK-1", "BLOCK", "BLOCK+1"]))
def test_nearest_groups_match_tie_groups(seed, d, lattice, size, count):
    # the block-sorted windows equal the per-row rule on the same tree query
    from surfspline.centers import _BLOCK, _CUTOFF_PAD, _nearest_groups

    rng = np.random.default_rng(seed)
    cs, h = lattice_or_cloud(rng, d, lattice)
    n = {"1": 1, "BLOCK-1": _BLOCK - 1, "BLOCK": _BLOCK, "BLOCK+1": _BLOCK + 1}[count]
    pts = cs.points[rng.integers(len(cs), size=n)]
    pts = pts + 0.5 * h * rng.choice([-1.0, 0.0, 1.0], size=pts.shape)
    size = min(size, len(cs))
    near_dist, near = cs._tree.query(pts, k=size + 1)
    idx = np.sort(near[:, :size], axis=1)
    dist = np.linalg.norm(cs.points[idx] - pts[:, None, :], axis=2)
    beyond = near_dist[:, size] * (1.0 - _CUTOFF_PAD) - _CUTOFF_PAD
    windows = list(_nearest_groups(cs, pts, size))
    assert len(windows) == n
    for i, (order, radii, counts) in enumerate(windows):
        ref_order, ref_radii, ref_counts = tie_groups(idx[i], dist[i], beyond[i])
        assert np.array_equal(order, ref_order)
        assert radii.tobytes() == ref_radii.tobytes()
        assert np.array_equal(counts, ref_counts)


def contract_targets(d):
    """The functions under the point/batch contract, each as x -> value."""
    from surfspline import (ApproximantDump, DensityField, DyadicParams, KernelParams,
                            build_reproduction, bump, enumerate_cubes, evaluate,
                            local_kernel_error_precise, majorant, minimal_density,
                            overlap_count, phi)

    rng = np.random.default_rng(4)
    cs = CenterSet(rng.uniform(-1, 1, size=(12, d)))
    params = KernelParams(d=d, k=2, degree=3)
    dump = ApproximantDump(centers=cs, coefficients=rng.normal(size=12))
    df = DensityField(cs.points, np.exp(rng.normal(size=12)))
    pr = build_reproduction(cs, np.zeros(d), 3.0, 1)
    cubes = enumerate_cubes((np.full(d, -1.0), np.ones(d)), [1, 2], d)
    return {
        "overlap_count": lambda x: overlap_count(cubes, x, DyadicParams(1.5, 1.0, 4.0)),
        "local_kernel_error_precise": lambda x: local_kernel_error_precise(pr, cs, x, params),
        "RadialBump.__call__": bump(5, np.zeros(d), 1.0),
        "evaluate": lambda x: evaluate(dump, x, params),
        "phi": lambda x: phi(x, params),
        "majorant": lambda x: majorant(df, x, 2.0),
        "DensityField.nearest": df.nearest,
        "CenterSet.neighbor_arrays": lambda x: cs.neighbor_arrays(x, 0.7),
        "minimal_density": lambda x: minimal_density(cs, x, 1)[0],
    }


#: Functions that take one query point only and reject a batch.
ONE_POINT = {"CenterSet.neighbor_arrays", "local_kernel_error_precise"}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", list(contract_targets(1)))
def test_point_batch_contract(name, d):
    fn = contract_targets(d)[name]
    flat = np.linspace(-0.5, 0.5, 5)
    batch = np.stack([flat] * d, axis=1)
    if name in ONE_POINT:
        value = fn(batch[1])
        if name == "CenterSet.neighbor_arrays":
            assert value[0].shape == value[1].shape
        with pytest.raises(ValueError, match=r"one query point"):
            fn(batch)
    else:
        value = fn(batch[1])
        assert isinstance(value, int if name == "overlap_count" else float)  # a count
        values = fn(batch)
        assert isinstance(values, np.ndarray) and values.shape == (5,)
        assert np.array_equal(values, [fn(p) for p in batch])
    bad = [batch.T, np.zeros((5, d + 1)), np.zeros(d + 1), np.full(d, np.nan)]
    if d == 1:  # five 1-D points in a flat vector used to pass as one point
        bad.append(flat)
    for x in bad:
        with pytest.raises(ValueError, match=r"expected|finite"):
            fn(x)


def under_both_builds(run):
    """``run(make)`` twice, ``make(cls, *args)`` building the cloud ``cls(*args)``:
    with the library's kd-tree (sliding midpoint, uncompacted nodes), then
    with scipy's default build (median splits) set on the instance before
    its constructor runs, so even the constructor's queries use it."""
    from scipy.spatial import cKDTree

    from surfspline.centers import _as_cloud

    def default(cls, *args):
        cloud = cls.__new__(cls)
        cloud._tree = cKDTree(_as_cloud(args[0]))
        cloud.__init__(*args)
        return cloud

    return [run(lambda cls, *args: cls(*args)), run(default)]


def duplicate_verdict(make, pts):
    """CenterSet's duplicate message on ``pts``, or None if it accepts them."""
    try:
        make(CenterSet, pts)
    except ValueError as exc:
        return str(exc)
    return None


def layout_cloud(kind):
    """A 2^-3 lattice (exact ties at every radius) and its degree, or a
    Remark-1 ring placement around the origin and its degree."""
    from surfspline.placement import MultiresSpec, generate_centers

    if kind == "lattice":
        return _grid_points([np.arange(-12, 13) / 8.0] * 2), 6
    spec = MultiresSpec(j=2, k=2, d=2, defect=[0.0, 0.0], box=([-7.5, -7.5], [7.5, 7.5]))
    return generate_centers(spec).points, 14


@pytest.mark.parametrize("kind", ["lattice", "remark1"])
def test_center_tree_layout_changes_no_result(kind):
    # the two builds order the points differently, yet every query of a
    # center set is tie-robust: density radii and witnesses, the balls at
    # radii where exact ties sit on the boundary, and the duplicate verdicts
    from surfspline import minimal_density
    from surfspline.centers import _balls

    pts, degree = layout_cloud(kind)
    rng = np.random.default_rng(31)
    queries = pts[rng.integers(len(pts), size=12)] + rng.choice([-1, 0, 1], size=(12, 2)) / 16.0
    radii = np.linalg.norm(pts[rng.integers(len(pts), size=12)] - queries, axis=1)
    # partners on the diagonal, which the sort leaves to the tree: at
    # DUPLICATE_TOL times 1.01 (kept) and 0.99, and exact repeats
    partners = pts[rng.integers(len(pts), size=3)]
    doubled = [np.concatenate([pts, partners + DUPLICATE_TOL * (1.0 + e) / np.sqrt(2.0)])
               for e in (0.01, -0.01)] + [np.concatenate([pts, partners])]

    def run(make):
        cs = make(CenterSet, pts)
        rho, witnesses = minimal_density(cs, queries, degree)
        return (cs._tree.indices.tobytes(), rho.tobytes(),
                [(w.indices.tobytes(), w.weights.tobytes()) for w in witnesses],
                [tuple(a.tobytes() for a in block) for block in _balls(cs, queries, radii)],
                [duplicate_verdict(make, p) for p in doubled])

    sliding, balanced = under_both_builds(run)
    assert sliding[0] != balanced[0]  # the layouts differ
    assert sliding[1:] == balanced[1:]
    assert sliding[-1][0] is None and sliding[-1][1] and sliding[-1][2]


def test_field_tree_layout_changes_no_result():
    # a density field on a 2^-3 lattice with power-of-two values: exact ties
    # among the samples' distances, samples at distance 0 and exactly gamma *
    # side from the dyadic corners, and values equal to the sides.  The pair
    # extrema and the good/bad partition are exact under ties, so they keep
    # their bits on either build; ``nearest`` breaks the exact ties of the
    # midpoints between samples by the tree's traversal
    from surfspline import (DyadicParams, bad_cube_bound_check, certify_self_majorization,
                            certify_slow_growth, classify, enumerate_cubes, majorant)

    pts = _grid_points([np.arange(-8, 17) / 8.0] * 2)
    vals = 2.0 ** -np.random.default_rng(35).integers(2, 6, len(pts)).astype(float)
    queries = np.concatenate([pts[::7], pts[::11] + 1.0 / 16.0])
    cubes = enumerate_cubes((np.zeros(2), np.ones(2)), range(4), 2)

    def run(make):
        df = make(DensityField, pts, vals)
        out = [df._tree.indices.tobytes(), df.nearest((pts[1:] + pts[:-1]) / 2.0).tobytes(),
               majorant(df, queries, 2.0).tobytes(), certify_slow_growth(df, 1.0 / 3.0),
               certify_self_majorization(df, 2.0)]
        # samples at gamma * side from a corner: (3, 4) * side / 4 on levels 0
        # and 1 for gamma 1.25, (2, 0) * side on every level for gamma 2
        for gamma in (1.25, 2.0):
            params = DyadicParams(gamma, 1.0, 2.0)
            good = classify(cubes, df, params)
            out += [good.tobytes(), bad_cube_bound_check(cubes[~good], df, params, 0.5, 2.0)]
        return out

    sliding, balanced = under_both_builds(run)
    assert sliding[0] != balanced[0] and sliding[1] != balanced[1]
    assert sliding[2:] == balanced[2:]

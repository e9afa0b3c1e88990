"""Geometry-core: neighbor queries and candidate radii."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfspline import CenterSet, sorted_candidate_radii


def test_duplicate_rejection():
    with pytest.raises(ValueError, match="duplicate"):
        CenterSet([[0.0], [1e-13]])


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


def contract_targets(d):
    """The functions under the point/batch contract, each as x -> value."""
    from surfspline import (ApproximantDump, DensityField, DyadicParams, KernelParams,
                            build_reproduction, bump, enumerate_cubes, evaluate,
                            local_kernel_error_precise, majorant, overlap_count, phi)

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
    }


#: Functions that take one query point only and reject a batch.
ONE_POINT = {"CenterSet.neighbor_arrays", "overlap_count", "local_kernel_error_precise"}


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
        assert isinstance(value, float)
        values = fn(batch)
        assert isinstance(values, np.ndarray) and values.shape == (5,)
        assert np.array_equal(values, [fn(p) for p in batch])
    bad = [batch.T, np.zeros((5, d + 1)), np.zeros(d + 1), np.full(d, np.nan)]
    if d == 1:  # five 1-D points in a flat vector used to pass as one point
        bad.append(flat)
    for x in bad:
        with pytest.raises(ValueError, match=r"expected|finite"):
            fn(x)


"""Immutable center sets in R^d with exact-radius neighbor queries.

All distances are Euclidean.  A :class:`CenterSet`'s points are read-only
after construction, so queries are safe to issue concurrently.  A cloud's
kd-tree is built on its first neighbor query, not with the cloud: concurrent
first queries may each build an identical one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

#: Two centers closer than this are considered duplicates and rejected;
#: duplicates make the downstream Vandermonde systems rank-deficient.
DUPLICATE_TOL = 1e-12

#: Relative slack, and relative and absolute pad, on a bound or radius that
#: meets the kd-tree: far above the rounding of a ratio, of a radius and of the
#: tree's squared distances, so a padded query keeps extra centers, never
#: drops one.
_CUTOFF_PAD = 1e-9

#: Query points per kd-tree query of :func:`_balls` and :func:`_nearest_groups`.
_BLOCK = 64


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Point/batch contract in R^dim: ``(dim,)`` is one point, ``(n, dim)`` a batch.

    Any other shape raises.  Returns the ``(n, dim)`` points and whether x was
    one point, for which callers return a float instead of an ``(n,)`` array.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,) and (x.ndim != 2 or x.shape[1] != dim):
        raise ValueError(f"points have shape {x.shape}; expected ({dim},) for one point "
                         f"or (n, {dim}) for a batch")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
    return x.reshape(-1, dim), x.ndim == 1


def _as_point(x, dim: int) -> np.ndarray:
    """The one query point x, shape ``(dim,)``; a batch or any other shape raises."""
    pts, single = _as_points(x, dim)
    if not single:
        raise ValueError(f"expected one query point of shape ({dim},), got shape {pts.shape}")
    return pts[0]


def _as_cloud(points) -> np.ndarray:
    """A float copy of ``points`` as a nonempty (n, d) array with d >= 1;
    ``(n,)`` is n points in R^1.  Any other shape raises."""
    pts = np.array(points, dtype=float)
    shape = pts.shape
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError(f"points have shape {shape}; expected nonempty (n, d), d >= 1")
    return pts


def _as_box(box, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The finite float corners ``(lo, hi)`` of ``box``, length ``dim`` (lo's if None), hi > lo."""
    lo, hi = (np.asarray(c, dtype=float).reshape(-1) for c in box)
    if not (0 < lo.size == hi.size == (lo.size if dim is None else dim)
            and np.isfinite([lo, hi]).all() and np.all(hi > lo)):
        raise ValueError("box must be a (lo, hi) pair of d-vectors with hi > lo, all finite")
    return lo, hi


def _grid_points(axes) -> np.ndarray:
    """Tensor-product grid of the 1-D ``axes`` as (n, d) rows, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _lattice(lo, hi, spacing: float, anchor) -> np.ndarray:
    """The points of ``anchor + spacing * Z^d`` in the box ``[lo, hi]`` as
    :func:`_grid_points` rows; a point within 1e-9 spacings outside a face
    counts as on it, so rounding cannot drop a face's row."""
    return _grid_points([a + np.arange(int(np.ceil((lo_a - a) / spacing - 1e-9)),
                                       int(np.floor((hi_a - a) / spacing + 1e-9)) + 1) * spacing
                         for lo_a, hi_a, a in zip(lo.tolist(), hi.tolist(), anchor.tolist())])


class _Cloud:
    """A frozen cloud: ``points``, a read-only (n, d) copy, its ``dim`` and kd-tree
    ``_tree``, built on first use (concurrent first uses may each build one)."""

    def __init__(self, points):
        pts = _as_cloud(points)  # a copy: freezing it leaves the caller's
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        self.points = pts
        self.dim = pts.shape[1]

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.points)

    def __len__(self):
        return self.points.shape[0]


def _ball_hits(cloud: _Cloud, pts: np.ndarray, radii) -> tuple[np.ndarray, np.ndarray]:
    """The (n,) hit counts of the kd-tree balls of ``radii`` around the (n, d)
    ``pts``, and the hits' indices ball after ball, each ball's unsorted."""
    hits = cloud._tree.query_ball_point(pts, radii, return_sorted=False)
    counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    return counts, np.fromiter(chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum()))


class CenterSet(_Cloud):
    """A finite point cloud in R^d with optional per-point resolution tags.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Center coordinates.  Must be finite and pairwise distinct
        (separation > ``DUPLICATE_TOL``).
    levels : array_like of int, shape (n,), optional
        Resolution-region index for each center (used by the
        multiresolution placement; plain clouds leave this ``None``).

    Local solves on the set share its memo ``_solves`` (see :func:`~surfspline.polyrep._solve`).
    """

    def __init__(self, points, levels=None):
        super().__init__(points)
        if levels is not None:
            levels = np.array(levels, dtype=int)
            if levels.shape != (len(self),):
                raise ValueError("levels must have one entry per point")
            levels.setflags(write=False)
        self.levels = levels
        self._solves: dict = {}
        if not _sort_separates(self.points):
            # ball sizes, not pairs (n exact repeats hold n(n-1)/2): the first
            # pair is the first row with a neighbor and the least other in its ball
            counts = self._tree.query_ball_point(self.points, DUPLICATE_TOL, return_length=True)
            if np.any(counts > 1):
                i = int(np.argmax(counts > 1))
                j = min(set(self._tree.query_ball_point(self.points[i], DUPLICATE_TOL)) - {i})
                raise ValueError(f"duplicate centers within {DUPLICATE_TOL}: rows {i} and {j}")

    def __repr__(self):
        return f"CenterSet(n={len(self)}, dim={self.dim})"

    def neighbor_arrays(self, center, radius) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of centers with |xi - center| <= radius.

        Sorted by ascending distance, ties broken by index; boundary points
        (distance exactly ``radius``) are included.  One row of :func:`_balls`.
        """
        center = _as_point(center, self.dim)
        if not radius > 0:
            raise ValueError("radius must be positive")
        idx, dist, _ = next(_balls(self, center[None], np.array([radius], dtype=float)))
        return idx, dist


def _sort_separates(pts: np.ndarray) -> bool:
    """Whether a lexicographic sort proves the (n, d) ``pts`` farther apart than
    ``DUPLICATE_TOL``: each sorted row steps to the next by more than it (padded
    by ``_CUTOFF_PAD``) on the first axis where they differ, so any two rows
    differ by at least one such step there.  Exact repeats and near-ties on an
    axis are left to the kd-tree."""
    rows = np.take(pts, np.lexsort(pts.T[::-1]), axis=0)
    steps = np.diff(rows, axis=0)
    gaps = np.take(steps, np.argmax(steps != 0, axis=1) + np.arange(0, steps.size, pts.shape[1]))
    return bool(np.all(gaps > DUPLICATE_TOL * (1.0 + _CUTOFF_PAD)))


def _balls(cs: CenterSet, pts: np.ndarray, radii: np.ndarray):
    """Per block of ``_BLOCK`` of the (n, d) points ``pts``, their balls of
    ``radii`` as ``(idx, dist, counts)``: :meth:`CenterSet.neighbor_arrays`
    of each point concatenated, and the (b,) ball sizes.  One kd-tree pair
    join of the centers with the block at the block's largest radius, padded
    (see ``_CUTOFF_PAD``); the exact cut is on the norms, bit for bit.  The
    kept hits are sorted by point and index, then each point's row by one
    row-wise stable sort on the norms, the rule of :func:`_nearest_groups`."""
    for s in range(0, len(pts), _BLOCK):
        block, r = pts[s:s + _BLOCK], radii[s:s + _BLOCK]
        hits = cs._tree.sparse_distance_matrix(
            cKDTree(block), float(np.max(r)) * (1.0 + _CUTOFF_PAD), output_type="ndarray")
        idx, owner = hits["i"], hits["j"]
        dist = _pair_distances(np.take(cs.points, idx, axis=0), np.take(block, owner, axis=0))
        inside = dist <= np.take(r, owner)
        idx, owner, dist = (np.compress(inside, a) for a in (idx, owner, dist))
        order = np.argsort(owner * len(cs) + idx)
        idx, owner, dist = (np.take(a, order) for a in (idx, owner, dist))
        counts = np.bincount(owner, minlength=len(block))
        starts = np.cumsum(counts) - counts
        width = counts.max(initial=0)
        table = np.full(len(block) * width, np.inf)
        table[np.arange(len(idx)) + np.take(np.arange(len(block)) * width - starts, owner)] = dist
        cols = np.argsort(table.reshape(len(block), width), axis=1, kind="stable")
        order = np.compress((cols < counts[:, None]).ravel(), (starts[:, None] + cols).ravel())
        yield np.take(idx, order), np.take(dist, order), counts


def _pair_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| over the last axis of two broadcasting arrays, bit for bit
    ``cdist``'s value: squared differences summed over the axes in order,
    then one sqrt.  The library's one distance routine: the ball and window
    sorts here, the density pair engine, ``kernels.phi``, ``evaluate``, the
    defect distance of the placement and ``overlap_count``.  In d <= 7 it
    also equals ``np.linalg.norm(x - y, axis=-1)`` bit for bit, which sums
    pairwise from 8 terms on."""
    sq = np.square(x[..., 0] - y[..., 0])
    for a in range(1, x.shape[-1]):
        diff = x[..., a] - y[..., a]
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def _nearest(cloud: _Cloud, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The windows of the (b, d) points ``pts``: the (b, k) indices of each
    point's ``k`` nearest cloud points, ascending along the row, and the (b,)
    lower bound ``beyond`` on the distance of every point outside the window:
    the kd-tree's (k+1)-th distance shrunk by ``_CUTOFF_PAD`` relative and
    absolute, which holds even where rounding made the tree swap near-ties
    across the window's edge.  A window of ``k >= len(cloud)`` is the whole
    cloud in index order, taken without the tree; its ``beyond`` is ``inf``."""
    n = len(cloud)
    if k >= n:
        return np.broadcast_to(np.arange(n), (len(pts), n)), np.full(len(pts), np.inf)
    near_dist, near = cloud._tree.query(pts, k=k + 1)
    return np.sort(near[:, :k], axis=1), near_dist[:, k] * (1.0 - _CUTOFF_PAD) - _CUTOFF_PAD


def _nearest_groups(cs: CenterSet, pts: np.ndarray, size: int):
    """The tie groups among the ``size`` centers nearest each of the (b, d)
    points ``pts``, yielded point by point as ``(order, radii, counts)``: the
    window's centers in :meth:`CenterSet.neighbor_arrays` order, the candidate
    radii and the number of centers each captures, so ``order[:counts[i]]`` is
    the ball of radius ``radii[i]``.

    Per block of ``_BLOCK`` points, one :func:`_nearest` window of ``size``;
    a block's windows live only while its points are consumed.  Each is sorted
    by one row-wise stable ``argsort`` of its ascending indices on the norms
    of a full scan, bit for bit.  Groups chain through ``DUPLICATE_TOL``, so
    one is kept only if the window's ``beyond`` lies more than it past its
    radius: the kept groups are a prefix of the whole set's, bit for bit, and
    a whole-set window keeps them all."""
    for s in range(0, len(pts), _BLOCK):
        block = pts[s:s + _BLOCK]
        idx, beyond = _nearest(cs, block, size)
        dist = _pair_distances(np.take(cs.points, idx, axis=0), block[:, None, :])
        flat = (np.argsort(dist, axis=1, kind="stable")  # each row's order, as flat indices
                + np.arange(0, dist.size, dist.shape[1])[:, None])
        idx, dist = np.take(idx, flat), np.take(dist, flat)
        ends = ((np.diff(dist, axis=1, append=np.inf) > DUPLICATE_TOL)
                & (beyond[:, None] - dist > DUPLICATE_TOL))
        for i in range(len(block)):
            counts = np.flatnonzero(ends[i]) + 1
            yield idx[i], dist[i, counts - 1], counts


def sorted_candidate_radii(cs: CenterSet, center) -> np.ndarray:
    """Strictly increasing distinct distances from ``center`` to all centers.

    Distances closer than ``DUPLICATE_TOL`` are merged, keeping the largest,
    so a ball of each returned radius holds every center of its tie group.
    The result enumerates every radius at which the neighbor set of
    ``center`` can change, which drives the minimal-density search.
    """
    center = _as_point(center, cs.dim)
    return next(_nearest_groups(cs, center[None], len(cs)))[1]

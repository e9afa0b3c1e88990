"""Immutable center sets in R^d with exact-radius neighbor queries.

All distances are Euclidean.  A :class:`CenterSet`'s points are read-only
after construction, so queries are safe to issue concurrently.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

#: Two centers closer than this are considered duplicates and rejected;
#: duplicates make the downstream Vandermonde systems rank-deficient.
DUPLICATE_TOL = 1e-12

#: Entries of a center set's solve memo (a few KB each).
_SOLVE_MEMO_CAP = 4096


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


def _grid_points(axes) -> np.ndarray:
    """Tensor-product grid of the 1-D ``axes`` as (n, d) rows, last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class CenterSet:
    """A finite point cloud in R^d with optional per-point resolution tags.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Center coordinates.  Must be finite and pairwise distinct
        (separation > ``DUPLICATE_TOL``).
    levels : array_like of int, shape (n,), optional
        Resolution-region index for each center (used by the
        multiresolution placement; plain clouds leave this ``None``).

    Local solves on the set (``build_reproduction`` and the attempts of
    ``minimal_density``) share one memo owned by the set, keyed by the exact
    bytes of a solve's only inputs: the ordered neighbor offsets from the
    base point, the radius and the degree.  A hit is bit for bit a fresh
    solve, rank failures included; lattice placements repeat one neighbor
    geometry at many base points.  The memo holds at most
    ``_SOLVE_MEMO_CAP`` entries (cleared when full) and dies with the set.
    Concurrent use stays safe: each value is a pure function of its key, so
    a race can only repeat a solve or overshoot the cap by one entry a thread.
    """

    def __init__(self, points, levels=None):
        pts = np.array(points, dtype=float)  # a copy: freezing it leaves the caller's
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("center coordinates must be finite")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        self.points = pts
        self.dim = pts.shape[1]
        if levels is not None:
            levels = np.array(levels, dtype=int)
            if levels.shape != (pts.shape[0],):
                raise ValueError("levels must have one entry per point")
            levels.setflags(write=False)
        self.levels = levels
        self._tree = cKDTree(pts)
        self._solves: dict = {}
        if len(pts) > 1 and self._tree.query_pairs(DUPLICATE_TOL, output_type="ndarray").size:
            raise ValueError(f"duplicate centers within {DUPLICATE_TOL}")

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"CenterSet(n={len(self)}, dim={self.dim})"

    def neighbor_arrays(self, center, radius) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of centers with |xi - center| <= radius.

        Sorted by ascending distance, ties broken by index; boundary points
        (distance exactly ``radius``) are included.
        """
        center = _as_point(center, self.dim)
        if not radius > 0:
            raise ValueError("radius must be positive")
        # the tree compares squared distances, which can drop a center at
        # exactly ``radius``: pad far above that rounding, then cut exactly
        idx = self._tree.query_ball_point(center, radius * (1.0 + 1e-9))
        idx, dist = _by_distance(self, center, np.sort(np.asarray(idx, dtype=np.intp)))
        n = int(np.searchsorted(dist, radius, side="right"))
        return idx[:n], dist[:n]


def _by_distance(cs: CenterSet, center, idx) -> tuple[np.ndarray, np.ndarray]:
    """The ascending indices ``idx`` and their distances to ``center``, ordered
    by distance with ties kept in index order: the one distance sort."""
    dist = np.linalg.norm(cs.points[idx] - center, axis=1)
    order = np.argsort(dist, kind="stable")
    return idx[order], dist[order]


def _tie_groups(cs: CenterSet, center) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All centers in :meth:`CenterSet.neighbor_arrays` order, the
    :func:`sorted_candidate_radii` and the number of centers each radius
    captures, so ``order[:counts[i]]`` is the ball of radius ``radii[i]``."""
    center = _as_point(center, cs.dim)
    order, dist = _by_distance(cs, center, np.arange(len(cs)))
    counts = np.append(np.flatnonzero(np.diff(dist) > DUPLICATE_TOL) + 1, dist.size)
    return order, dist[counts - 1], counts


def sorted_candidate_radii(cs: CenterSet, center) -> np.ndarray:
    """Strictly increasing distinct distances from ``center`` to all centers.

    Distances closer than ``DUPLICATE_TOL`` are merged, keeping the largest,
    so a ball of each returned radius holds every center of its tie group.
    The result enumerates every radius at which the neighbor set of
    ``center`` can change, which drives the minimal-density search.
    """
    return _tie_groups(cs, center)[1]

"""Gendered dyadic cubes and the density-driven good/bad partition.

A gendered cube is a pair (gender, dyadic cube): the gender is a nonzero
0/1 vector (2^d - 1 per cube) and the cube at level j has corner
``2^-j * corner_index`` and sidelength ``2^-j``.  Cubes are held as arrays,
one row per gendered cube, in a :class:`DyadicCubes` record; every function
here works on whole records, and the support extrema come from one kd-tree
pair join per level between its distinct corners and the samples, made once
by :func:`classify` for both the partition and the bad-cube bound.  No
wavelets are ever constructed; the inflated support is modeled as the ball
``B(corner, Gamma * sidelength)``, which is all the partition machinery
depends on.  A cube is *good* when its sidelength
dominates the density over its inflated support, *bad* otherwise; bad cubes
have their sidelength bounded by a multiple of the density anywhere in their
support, which is the step that tames the rough part of a smoothness split.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from .centers import _as_box, _as_points, _grid_points, _pair_distances
from .density import DensityField


@dataclass(frozen=True, eq=False)
class DyadicCubes:
    """Gendered dyadic cubes, one row each.

    ``level`` (n,) ints, corner ``index`` (n, d) ints and ``gender`` (n, d)
    0/1 ints: row i is the cube of sidelength ``2^-level[i]`` with corner
    ``index[i] * 2^-level[i]`` and gender ``gender[i]``.  Indexing by a
    boolean mask, an index array or a slice selects rows.
    """

    level: np.ndarray
    index: np.ndarray
    gender: np.ndarray

    @property
    def side(self) -> np.ndarray:
        return 2.0**-self.level

    @property
    def corner(self) -> np.ndarray:
        return self.index * self.side[:, None]

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, rows) -> "DyadicCubes":
        rows = np.arange(len(self))[rows]  # numpy's rows and errors, as one index array
        return DyadicCubes(*(f.take(rows, axis=0) for f in (self.level, self.index, self.gender)))


@dataclass(frozen=True)
class DyadicParams:
    """gamma >= 1 inflates supports; 0 < sigma < 2k is the smoothness index."""

    gamma: float
    sigma: float
    two_k: float

    def __post_init__(self):
        if not 1 <= self.gamma < np.inf:
            raise ValueError("gamma must be >= 1 and finite")
        if not 0 < self.sigma < self.two_k:
            raise ValueError("need 0 < sigma < 2k")


class UndersampledDensity(Exception):
    """A cube's inflated support holds no density sample."""


def genders(d: int) -> list[tuple[int, ...]]:
    """The 2^d - 1 nonzero elements of {0,1}^d, in lexicographic order."""
    return [g for g in product((0, 1), repeat=d) if any(g)]


def enumerate_cubes(box, levels, d: int) -> DyadicCubes:
    """All gendered cubes at the given levels whose cube intersects the box.

    Deterministic row order: (level, corner index, gender).
    """
    lo, hi = _as_box(box, d)
    level, index = [np.empty(0, dtype=int)], [np.empty((0, d), dtype=int)]
    for lv in levels:
        side = 2.0**-lv
        corners = _grid_points([np.arange(int(np.floor(lo[a] / side)), int(np.ceil(hi[a] / side)))
                                for a in range(d)])
        level.append(np.full(len(corners), lv))
        index.append(corners)
    gs = np.array(genders(d))
    level, index = np.concatenate(level), np.concatenate(index)
    return DyadicCubes(np.repeat(level, len(gs)), np.repeat(index, len(gs), axis=0),
                       np.tile(gs, (len(level), 1)))


def _support_extrema(cubes: DyadicCubes, density: DensityField, gamma: float):
    """(rho_max, rho_min) of density samples in each cube's inflated support.

    Adjacent rows with the same level and corner share one support (the
    genders of a corner are adjacent in :func:`enumerate_cubes` order), so
    each such run is searched once.  The runs of one level share the radius
    ``gamma * 2^-level``: one kd-tree pair join of their corners against the
    samples lists every pair within it, boundary and distance zero (a corner
    on a sample) included, and the pairs are reduced per run.
    """
    key = np.column_stack([cubes.level, cubes.index])
    new = np.r_[True, np.any(key[1:] != key[:-1], axis=1)]
    runs = cubes[new]
    rho_max, rho_min = np.full(len(runs), -np.inf), np.full(len(runs), np.inf)
    for lv in np.unique(runs.level):
        rows = np.flatnonzero(runs.level == lv)
        pairs = cKDTree(runs[rows].corner).sparse_distance_matrix(
            density._tree, gamma * 2.0**-lv, output_type="ndarray")
        i, vals = np.take(rows, pairs["i"]), np.take(density.values, pairs["j"])
        np.maximum.at(rho_max, i, vals)
        np.minimum.at(rho_min, i, vals)
    if np.isinf(rho_min).any():  # a run without a pair keeps its +inf
        i = np.flatnonzero(np.isinf(rho_min))[0]
        raise UndersampledDensity(
            f"no density sample within {gamma * runs.side[i]:g} of the corner of the level "
            f"{runs.level[i]} cube with corner index {tuple(runs.index[i].tolist())}"
        )
    run_of_row = np.cumsum(new) - 1
    return np.take(rho_max, run_of_row), np.take(rho_min, run_of_row)


def classify(cubes: DyadicCubes, density: DensityField,
             params: DyadicParams) -> tuple[np.ndarray, np.ndarray]:
    """``(good, rho_min)``: the mask of the good cubes and the smallest density
    sample in each cube's inflated support, both aligned with ``cubes``.

    A cube is good iff its sidelength is at least the max density sample in
    ``B(corner, gamma * sidelength)``; ``cubes[~good]`` are the bad cubes and
    ``rho_min[~good]`` what :func:`bad_cube_bound_check` takes for them.
    Raises :class:`UndersampledDensity` for cubes whose support holds no
    sample.
    """
    rho_max, rho_min = _support_extrema(cubes, density, params.gamma)
    return cubes.side >= rho_max, rho_min


def bad_cube_bound_check(bad: DyadicCubes, rho_min, params: DyadicParams,
                         c_sm: float, r: float) -> float:
    """Worst ratio of ell(nu) against C * rho(x) over bad cubes and samples x.

    ``rho_min`` holds each bad cube's smallest density sample in its inflated
    support, as :func:`classify` returns it (``rho_min[~good]``).
    ``C = [c_sm (1 + 2 Gamma)^(-r)]^(-1)``; with (c_sm, r) certified on the
    density's samples the ratio never exceeds 1 (the pointwise argument of
    the rough-part estimate, restated at sample level).  Returns 0.0 when
    there are no bad cubes.
    """
    rho_min = np.asarray(rho_min, dtype=float)
    if rho_min.shape != (len(bad),):
        raise ValueError(f"need one rho_min per bad cube ({len(bad)}), got {rho_min.shape}")
    if not len(bad):
        return 0.0
    cap = 1.0 / (c_sm * (1.0 + 2.0 * params.gamma) ** (-r))
    return float(np.max(bad.side / (cap * rho_min)))


def overlap_count(cubes: DyadicCubes, x, params: DyadicParams) -> int | np.ndarray:
    """Number of cubes whose inflated support contains x: an int at one point
    (d,), an (n,) array for a batch (n, d).  For cubes of a fixed level it is
    at most ``(2^d - 1) (2 ceil(Gamma) + 1)^d``, whatever x and the level."""
    pts, single = _as_points(x, cubes.index.shape[1])
    corner, reach = cubes.corner, params.gamma * cubes.side
    counts = np.array([np.count_nonzero(_pair_distances(p, corner) <= reach)
                       for p in pts], dtype=int)
    return int(counts[0]) if single else counts


def max_overlap(d: int, gamma: float) -> int:
    """The level-uniform overlap bound (2^d - 1)(2 ceil(Gamma) + 1)^d."""
    return (2**d - 1) * (2 * int(np.ceil(gamma)) + 1) ** d


def geometric_tail_bound(sigma: float, two_k: float, base_level: int) -> tuple[float, float]:
    """Closed forms of the two geometric series in the smooth/rough estimates.

    Returns ``(good_sum, bad_sum)``:

    * good: sum_{i>=0} (2^(j+i))^(sigma - 2k) = 2^(j (sigma-2k)) / (1 - 2^(sigma-2k)),
      over sidelengths 2^j and larger (requires sigma < 2k);
    * bad: sum_{i>=0} (2^(j-i))^sigma = 2^(j sigma) / (1 - 2^-sigma),
      over sidelengths 2^j and smaller (requires sigma > 0).

    Here ``2^j`` abbreviates ``2^base_level``.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive (bad-cube series diverges)")
    if not sigma < two_k:
        raise ValueError("sigma must be below 2k (good-cube series diverges)")
    e = sigma - two_k
    good = 2.0 ** (base_level * e) / (1.0 - 2.0**e)
    bad = 2.0 ** (base_level * sigma) / (1.0 - 2.0**-sigma)
    return good, bad

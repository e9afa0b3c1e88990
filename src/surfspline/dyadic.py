"""Gendered dyadic cubes and the density-driven good/bad partition.

A gendered cube is a pair (gender, dyadic cube): the gender is a nonzero
0/1 vector (2^d - 1 per cube) and the cube at level j has corner
``2^-j * corner_index`` and sidelength ``2^-j``.  Cubes are held as arrays,
one row per dyadic cube, in a :class:`DyadicCubes` record: a row stands for
its 2^d - 1 gendered cubes, which share its inflated support and so its
class.  Every function here works on whole records.  No wavelets are ever
constructed; the inflated support is modeled as the ball
``B(corner, Gamma * sidelength)``.
A cube is *good* when its sidelength dominates the density over its
inflated support, *bad* otherwise; bad cubes have their sidelength bounded
by a multiple of the density anywhere in their support, which is the step
that tames the rough part of a smoothness split.  Both are decided by
kd-tree nearest-sample queries of each level's corners, exact on the
samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .centers import _Cloud, _as_box, _as_points, _grid_points, _pair_distances
from .density import DensityField


@dataclass(frozen=True, eq=False)
class DyadicCubes:
    """Dyadic cubes, one row each, a row standing for its 2^d - 1 gendered cubes.

    ``level`` (n,) ints and corner ``index`` (n, d) ints: row i is the cube
    of sidelength ``2^-level[i]`` with corner ``index[i] * 2^-level[i]``,
    under every gender of :func:`genders`.  Indexing by a boolean mask, an
    index array or a slice selects rows.
    """

    level: np.ndarray
    index: np.ndarray

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
        return DyadicCubes(self.level.take(rows), self.index.take(rows, axis=0))


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
    """All dyadic cubes at the given levels that intersect the box, one row
    each, in deterministic (level, corner index) order."""
    lo, hi = _as_box(box, d)
    level, index = [np.empty(0, dtype=int)], [np.empty((0, d), dtype=int)]
    for lv in levels:
        side = 2.0**-lv
        corners = _grid_points([np.arange(int(np.floor(lo[a] / side)), int(np.ceil(hi[a] / side)))
                                for a in range(d)])
        level.append(np.full(len(corners), lv))
        index.append(corners)
    return DyadicCubes(np.concatenate(level), np.concatenate(index))


def _check_dims(cubes: DyadicCubes, density: DensityField) -> None:
    if cubes.index.shape[1] != density.dim:
        raise ValueError(f"dimensions differ: cubes {cubes.index.shape[1]}, density {density.dim}")


def classify(cubes: DyadicCubes, density: DensityField, params: DyadicParams) -> np.ndarray:
    """The mask of the good cubes, one flag per row of ``cubes`` (for all its
    genders): a cube is good iff its sidelength is at least every density
    sample in ``B(corner, gamma * sidelength)``, distance 0 and exactly the
    radius included.  One nearest query of the corners against all samples
    finds empty supports, then one per level against the samples above its
    sidelength, unless all or none are.  Raises :class:`UndersampledDensity`
    for the first cube in row order whose support holds no sample.
    """
    _check_dims(cubes, density)
    corner, radius = cubes.corner, params.gamma * cubes.side
    bad = density._tree.query(corner)[0] <= radius  # so far: the support holds a sample
    if not bad.all():
        i = np.flatnonzero(~bad)[0]
        raise UndersampledDensity(
            f"no density sample within {radius[i]:g} of the corner of the level "
            f"{cubes.level[i]} cube with corner index {tuple(cubes.index[i].tolist())}"
        )
    for lv in np.unique(cubes.level):
        above, at = density.values > 2.0**-lv, cubes.level == lv
        if not above.all():  # all above: each support's samples are
            bad[at] = above.any() and _Cloud(
                density.points[above])._tree.query(corner[at])[0] <= radius[at]
    return ~bad


def bad_cube_bound_check(bad: DyadicCubes, density: DensityField, params: DyadicParams,
                         c_sm: float, r: float) -> float:
    """Worst ratio of ell(nu) against C * rho(x) over the cubes nu of ``bad``
    (``cubes[~good]``) and the density samples x in their inflated supports.

    ``C = [c_sm (1 + 2 Gamma)^(-r)]^(-1)``; with (c_sm, r) certified on the
    density's samples the ratio never exceeds 1 (the pointwise argument of
    the rough-part estimate, restated at sample level).  Rounded, the ratio
    never rises with rho, so a level's worst is at the first sample, in
    ascending value order, that a kd-tree of its corners finds within reach.
    Returns 0.0 when no support holds a sample (no bad cubes).
    """
    for name, value in (("c_sm", c_sm), ("r", r)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    _check_dims(bad, density)
    cap = 1.0 / (c_sm * (1.0 + 2.0 * params.gamma) ** (-r))
    chunks = np.split(np.argsort(density.values), 16 * (2 ** np.arange(1, 16) - 1))
    corner, worst = bad.corner, 0.0
    for lv in np.unique(bad.level):
        side, tree = 2.0**-lv, _Cloud(corner[bad.level == lv])._tree
        for rows in chunks:  # of sizes 16, 32, ...: most often the first sample is inside
            inside = np.flatnonzero(tree.query(density.points[rows])[0] <= params.gamma * side)
            if inside.size:
                worst = max(worst, side / (cap * density.values[rows[inside[0]]]))
                break
    return float(worst)


def overlap_count(cubes: DyadicCubes, x, params: DyadicParams) -> int | np.ndarray:
    """Number of gendered cubes whose inflated support contains x, 2^d - 1
    for each row whose support does: an int at one point (d,), an (n,) array
    for a batch (n, d).  For cubes of a fixed level it is at most
    ``(2^d - 1) (2 ceil(Gamma) + 1)^d``, whatever x and the level."""
    d = cubes.index.shape[1]
    pts, single = _as_points(x, d)
    corner, reach = cubes.corner, params.gamma * cubes.side
    counts = (2**d - 1) * np.array([np.count_nonzero(_pair_distances(p, corner) <= reach)
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

"""Local density fields, majorants, and global-compatibility certificates.

The minimal local density at a point is the smallest radius capturing a
stable polynomial reproduction.  A density field is represented by samples
``(point, rho)``; the majorant and the two global-compatibility properties
(slow growth, self-majorization) are extrema over pairs of samples.  A
kd-tree pair engine skips the pairs that provably cannot reach the extremum,
so the certificates stay exact on the samples (bit for bit an exhaustive
scan) and heuristic off them.
"""

from __future__ import annotations

import numpy as np

from .centers import (CenterSet, _CUTOFF_PAD, _Cloud, _as_points, _ball_hits, _nearest,
                      _nearest_groups, _pair_distances)
from .polyrep import PolyRep, _serial_blas, _solve, polynomial_dim

#: First window of a density query's distance order, in multiples of
#: ``dim Pi_degree`` centers; doubled while the search needs more groups.
_WINDOW = 2

#: Effective radius substituted when the minimal candidate radius is zero
#: (base point coincident with a center); anything below the duplicate
#: tolerance captures only that center.
_ZERO_RADIUS = 1e-13


class NoAdmissibleRadius(Exception):
    """No radius captures a unisolvent neighbor set under the stability cap."""


def default_stability_cap(dim: int, degree: int) -> float:
    """Default cap K = 4 * dim Pi_degree.

    Minimum-norm weights on unisolvent gridded neighborhoods satisfy this
    with slack; override it for adversarial configurations.
    """
    return 4.0 * polynomial_dim(dim, degree)


class DensityField(_Cloud):
    """A sampled density: points (n, d) with strictly positive values.

    The field holds samples only; the reproduction degree that produced them
    and the exponents they are certified against are arguments of the
    functions that read it.
    """

    def __init__(self, points, values):
        super().__init__(points)
        vals = np.array(values, dtype=float).reshape(-1)  # a copy: freezing it leaves the caller's
        if vals.shape != (len(self),):
            raise ValueError("need one value per sample point")
        if not np.all(np.isfinite(vals)):
            raise ValueError("samples must be finite")
        if not np.all(vals > 0):
            raise ValueError("density values must be strictly positive")
        vals.setflags(write=False)
        self.values = vals

    def nearest(self, x) -> float | np.ndarray:
        """Value at the sample nearest to x: float at a point, (n,) for a batch."""
        pts, single = _as_points(x, self.dim)
        _, i = self._tree.query(pts)
        return float(self.values[i[0]]) if single else self.values[i]


class _LazyField(_Cloud):
    """The minimal density of degree ``degree`` on the centers ``cs``, sampled
    at ``points`` and measured on read.  Each :meth:`nearest` call measures
    the samples it returns that no earlier call measured, in one batched
    :func:`minimal_density` in index order, so a sample that no call returns
    is never measured and its failure raises nothing.  Read values are bit
    for bit those of the :class:`DensityField` of every sample's density."""

    def __init__(self, cs: CenterSet, points, degree: int):
        super().__init__(points)
        self._cs, self._degree = cs, degree
        self._rho = np.empty(len(self))
        self._measured = np.zeros(len(self), dtype=bool)

    def nearest(self, x) -> float | np.ndarray:
        """Value at the sample nearest to x: float at a point, (n,) for a batch."""
        pts, single = _as_points(x, self.dim)
        _, i = self._tree.query(pts)
        new = np.unique(i[~self._measured[i]])
        if new.size:
            self._rho[new] = minimal_density(self._cs, self.points[new], self._degree)[0]
            self._measured[new] = True
        return float(self._rho[i[0]]) if single else self._rho[i]


def minimal_density(
    cs: CenterSet,
    alpha,
    degree: int,
    stability_cap: float | None = None,
) -> tuple[float, PolyRep] | tuple[np.ndarray, list[PolyRep]]:
    """Smallest candidate radius admitting a K-stable reproduction at alpha.

    The candidate radii are :func:`~surfspline.centers.sorted_candidate_radii`.
    ``alpha`` is one point (d,) or a batch (n, d).  Each point's search starts
    from its window, its nearest ``_WINDOW * dim Pi_degree`` centers, which
    :func:`~surfspline.centers._nearest_groups` takes for a block of points at
    a time; a search that needs a tie group past its window's edge queries
    its point again with the window doubled, up to the whole set.  The
    neighbor set at each candidate radius is a prefix of the window (whole
    tie groups), the same set in the same order as the ball query of
    ``build_reproduction``.  Each group takes at most one memo lookup or solve,
    on offsets taken once per window, and the witness reuses its group's solve.
    Unisolvency is monotone in the radius, so the smallest unisolvent candidate
    is located by exponential search plus bisection; the stability cap need
    not be monotone, so from there the candidates are scanned linearly.

    Returns ``(rho, witness)`` for one point, where ``witness`` is the
    reproduction built at radius ``rho`` on its whole tie group, equal bit for
    bit to ``build_reproduction(cs, alpha, rho, degree)``; for a batch, the
    (n,) rho and the list of witnesses.  Raises :class:`NoAdmissibleRadius`,
    naming the first point in input order whose full set fails.
    """
    if stability_cap is None:
        stability_cap = default_stability_cap(cs.dim, degree)
    pts, single = _as_points(alpha, cs.dim)
    size = _WINDOW * polynomial_dim(cs.dim, degree)
    with _serial_blas():
        witnesses = [_search(cs, p, degree, stability_cap, size, window)
                     for p, window in zip(pts, _nearest_groups(cs, pts, size))]
    if single:
        return witnesses[0].radius, witnesses[0]
    return np.array([pr.radius for pr in witnesses]), witnesses


def _search(cs: CenterSet, alpha: np.ndarray, degree: int, stability_cap: float,
            size: int, window) -> PolyRep:
    """The witness of :func:`minimal_density` at the point alpha, starting from
    ``window``, the tie groups of its ``size`` nearest centers."""
    m = polynomial_dim(cs.dim, degree)
    if len(cs) < m:
        raise NoAdmissibleRadius(
            f"at alpha {alpha.tolist()}: only {len(cs)} centers, need {m} for degree {degree}")
    order, radii, counts = window
    offsets = np.take(cs.points, order, axis=0) - alpha

    def held(i: int) -> bool:
        """Grow the window until it holds group i; False if i is past the last."""
        nonlocal size, order, radii, counts, offsets
        while i >= radii.size and size < len(cs):
            size *= 2
            order, radii, counts = next(_nearest_groups(cs, alpha[None], size))
            offsets = np.take(cs.points, order, axis=0) - alpha
        return i < radii.size

    def radius(i: int) -> float:
        return max(float(radii[i]), _ZERO_RADIUS)

    solves: dict[int, tuple] = {}

    def attempt(i: int) -> tuple:
        """The solve ``(weights, rank, stability)`` at group i's radius."""
        if i not in solves:
            solves[i] = _solve(cs, offsets[:counts[i]], radius(i), degree)
        return solves[i]

    while not (radii.size and counts[-1] >= m):  # grow to m centers; the set has them
        held(radii.size)
    first = int(np.searchsorted(counts, m, side="left"))
    # exponential ascent to the first success
    lo, hi, step = first - 1, first, 1
    while attempt(hi)[0] is None:
        if not held(hi + 1):
            raise NoAdmissibleRadius(
                f"at alpha {alpha.tolist()}: no unisolvent neighbor set at any radius")
        lo = hi
        step *= 2
        hi = hi + step if held(hi + step) else radii.size - 1
    # bisection: success is monotone in the radius for unisolvency
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if attempt(mid)[0] is None:
            lo = mid
        else:
            hi = mid
    # linear scan upward for the stability cap (not monotone in general)
    i, (weights, _, st) = hi, attempt(hi)
    while st is None or not st < stability_cap:
        i += 1
        if not held(i):  # the scan's attempts hi .. i - 1 are cached; hi's is unisolvent
            best = min(s for s in (attempt(j)[2] for j in range(hi, i)) if s is not None)
            raise NoAdmissibleRadius(
                f"at alpha {alpha.tolist()}: stability cap {stability_cap:g} never met "
                f"(best Sum|a| = {best:g})"
            )
        weights, _, st = attempt(i)
    # a copy: a witness must not hold its whole window
    return PolyRep(alpha=alpha, radius=radius(i), indices=order[:counts[i]].copy(),
                   weights=weights, degree=degree)


def majorant(df: DensityField, x, r: float) -> float | np.ndarray:
    """Finite-sample majorant H(x) = max_y rho(y) (1 + |x-y|/rho(y))^(-r).

    The max runs over the sample set, so this lower-bounds the true
    supremum and is exact whenever the supremum is attained on a sample.
    Returns a float for one point x and an (n,) array for a batch.  The
    pair engine prunes with the bound ``rho_max (1 + |x-y|/rho_max)^(-r)`` on
    each term (a term grows with rho(y)), which falls with the distance; the
    value is the one an exhaustive scan returns, bit for bit.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    pts, single = _as_points(x, df.dim)
    v, top = df.values, float(np.max(df.values))
    out = _pair_extremum(
        df, pts, lambda i, j, d: v[j] * (1.0 + d / v[j]) ** (-r),
        lambda best, i: top * ((top / best) ** (1.0 / r) - 1.0), maximize=True, shared=False)
    return float(out[0]) if single else out


#: Rows per block of :func:`_pair_extremum`; a block holds at most
#: ``_PAIR_CHUNK * len(df)`` pairs.
_PAIR_CHUNK = 512


def _pair_extremum(df: DensityField, x: np.ndarray, ratio, cutoff, *, maximize: bool,
                   shared: bool) -> np.ndarray:
    """Per-row extremum over the samples y_j of ``ratio(i, j, |x_i - y_j|)``.

    ``x`` is an (n, d) array; ``ratio`` maps broadcasting arrays of row
    indices i, sample indices j and their distances to the pair values.
    Returns an (n,) array, each entry the max (``maximize``) or min over all
    samples, bit for bit what an exhaustive ``cdist`` scan gives.

    Exactness.  A first bound ``best`` comes from the exact ratios of each
    row's window, its ``2^d + 1`` nearest samples
    (:func:`~surfspline.centers._nearest`): per row, or with ``shared`` one
    value for all rows (whose extremum the caller takes).  ``cutoff(b, i)``
    gives, for rows i, a radius R_i beyond which no pair's ratio can reach b in
    exact arithmetic; it is called with ``best`` loosened by the relative
    slack ``_CUTOFF_PAD``, which covers the rounding of the ratio, and each
    R_i is padded by ``_CUTOFF_PAD`` relative and absolute, which covers the
    rounding of R_i and of the tree's squared distances.  So every pair
    whose computed ratio beats ``best`` lies in the kd-tree ball of radius
    R_i; a non-finite R_i becomes ``inf``, and rows with R_i < 0 have no such
    pair.  A row is settled, and makes no ball query, when its padded R_i lies
    below its window's ``beyond``, or when its window is every sample: its
    ball holds only pairs already evaluated.  Each kept pair's distance equals
    ``cdist``'s bit for bit (:func:`_pair_distances`) and goes through the
    same ratio expression, and max/min are exact in any order, so pruning
    changes no bit.

    Blocks whose balls hold more than an eighth of their pairs are scanned
    against every sample instead: that is cheaper than listing their hits,
    and a superset of the kept pairs.
    """
    extremum = np.maximum if maximize else np.minimum
    n = len(x)
    rows = np.arange(n)
    blocks = [rows[s:s + _PAIR_CHUNK] for s in range(0, n, _PAIR_CHUNK)]
    best, beyond = np.empty(n), np.empty(n)
    for b in blocks:
        near, beyond[b] = _nearest(df, x[b], 2**df.dim + 1)
        dist = _pair_distances(x[b, None, :], df.points[near])
        best[b] = extremum.reduce(ratio(b[:, None], near, dist), axis=1)
    if shared:
        best[:] = extremum.reduce(best)
    loose = best * (1.0 - _CUTOFF_PAD if maximize else 1.0 + _CUTOFF_PAD)
    for b in blocks:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            radius = cutoff(loose[b], b)
        radius = np.where(np.isfinite(radius), radius, np.inf)
        keep = (radius >= 0) & (beyond[b] < np.inf)
        radius = radius * (1.0 + _CUTOFF_PAD) + _CUTOFF_PAD
        keep &= radius >= beyond[b]  # a settled row's ball holds only its window
        if not keep.any():
            continue
        b, radius = b[keep], radius[keep]
        counts = df._tree.query_ball_point(x[b], radius, return_length=True)
        if 8 * int(counts.sum()) > b.size * len(df):  # the block against every sample
            dist = _pair_distances(x[b, None, :], df.points[None, :, :])
            vals = ratio(b[:, None], np.arange(len(df)), dist)
            best[b] = extremum(best[b], extremum.reduce(vals, axis=1))
            continue
        counts, j = _ball_hits(df, x[b], radius)
        i = np.repeat(b, counts)
        vals = ratio(i, j, _pair_distances(x[i], df.points[j]))
        some = counts > 0
        best[b[some]] = extremum(best[b[some]],
                                 extremum.reduceat(vals, (np.cumsum(counts) - counts)[some]))
    return best


def certify_slow_growth(df: DensityField, epsilon: float) -> float:
    """Smallest constant C_sg putting the samples in the slow-growth class.

    Returns the max over ordered pairs (x, alpha) of
    ``rho(alpha) / [rho(x) (1 + |x-alpha|/rho(x))^(1-epsilon)]``.
    The diagonal pair contributes exactly 1, so the result is >= 1.  The
    pair engine prunes with the bound ``rho_max / [rho(x) (1 +
    |x-alpha|/rho(x))^(1-epsilon)]``, which falls with the distance; the
    value is the one an exhaustive scan returns, bit for bit.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    v, top = df.values, float(np.max(df.values))
    return float(np.max(_pair_extremum(
        df, df.points,
        lambda i, j, d: v[j] / (v[i] * (1.0 + d / v[i]) ** (1.0 - epsilon)),
        lambda best, i: v[i] * ((top / (best * v[i])) ** (1.0 / (1.0 - epsilon)) - 1.0),
        maximize=True, shared=True)))


def certify_self_majorization(df: DensityField, r: float) -> float:
    """Largest constant C_sm for which the samples are self-majorizing.

    Returns the min over ordered pairs (x, y) of
    ``rho(y) / [rho(x) (1 + |x-y|/rho(x))^(-r)]``; always <= 1 because the
    diagonal pair contributes exactly 1.  The pair engine prunes with the
    bound ``rho_min / [rho(x) (1 + |x-y|/rho(x))^(-r)]``, which grows with
    the distance; the value is the one an exhaustive scan returns, bit for
    bit.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    v, bottom = df.values, float(np.min(df.values))
    return float(np.min(_pair_extremum(
        df, df.points,
        lambda i, j, d: v[j] / (v[i] * (1.0 + d / v[i]) ** (-r)),
        lambda best, i: v[i] * ((best * v[i] / bottom) ** (1.0 / r) - 1.0),
        maximize=False, shared=True)))


def lemma_transfer_sm_to_sg(c_sm: float, r: float) -> tuple[float, float]:
    """Slow-growth constants implied by self-majorization of order r.

    Returns ``(epsilon, C_sg)`` with epsilon = 1/(r+1) and
    C_sg = max(2^r / C_sm, (2^r / C_sm)^(1/(1+r))).
    """
    if not c_sm > 0:
        raise ValueError("c_sm must be positive")
    if not r > 0:
        raise ValueError("r must be positive")
    base = 2.0**r / c_sm
    return 1.0 / (r + 1.0), max(base, base ** (1.0 / (1.0 + r)))


def lemma_transfer_sg_to_sm(c_sg: float, epsilon: float) -> tuple[float, float]:
    """Self-majorization constants implied by (1 - epsilon) slow growth.

    Returns ``(r, C_sm)`` with r = (1-epsilon)/epsilon and
    C_sm = min(2^(epsilon-1) / C_sg, (2^(epsilon-1) / C_sg)^(1/epsilon)).
    """
    if not c_sg >= 1:
        raise ValueError("c_sg must be >= 1")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    base = 2.0 ** (epsilon - 1.0) / c_sg
    return (1.0 - epsilon) / epsilon, min(base, base ** (1.0 / epsilon))


def validate_theorem1_params(k: int, d: int, degree: int, epsilon: float) -> list[str]:
    """Check the parameter constraints of the pointwise convergence theorem.

    Requires degree > 2k - d + 1, 0 < epsilon < 1 and, for such a degree,
    epsilon > 2k / degree.  Returns the list of violated conditions (empty =
    ok).
    """
    if k < 1 or d < 1 or 2 * k <= d:
        raise ValueError("need k >= 1, d >= 1 and 2k > d")
    violations = []
    if not degree > 2 * k - d + 1:
        violations.append(f"degree {degree} must exceed 2k-d+1 = {2 * k - d + 1}")
    elif not epsilon > 2 * k / degree:
        violations.append(f"epsilon {epsilon:g} must exceed 2k/degree = {2 * k / degree:g}")
    if not 0 < epsilon < 1:
        violations.append(f"epsilon {epsilon:g} must lie in (0, 1)")
    return violations

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

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .centers import CenterSet, _as_point, _as_points, _tie_groups
from .polyrep import PolyRep, ReproductionError, _reproduce, polynomial_dim

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


class DensityField:
    """A sampled density: points (n, d) with strictly positive values.

    The field holds samples only; the reproduction degree that produced them
    and the exponents they are certified against are arguments of the
    functions that read it.
    """

    def __init__(self, points, values):
        pts = np.array(points, dtype=float)  # copies: freezing them leaves the caller's
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.array(values, dtype=float).reshape(-1)
        if pts.shape[0] != vals.shape[0] or pts.shape[0] == 0:
            raise ValueError("need one value per sample point, at least one sample")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("samples must be finite")
        if not np.all(vals > 0):
            raise ValueError("density values must be strictly positive")
        pts.setflags(write=False)
        vals.setflags(write=False)
        self.points = pts
        self.values = vals
        self._tree = cKDTree(pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def nearest(self, x) -> float | np.ndarray:
        """Value at the sample nearest to x: float at a point, (n,) for a batch."""
        pts, single = _as_points(x, self.dim)
        _, i = self._tree.query(pts)
        return float(self.values[i[0]]) if single else self.values[i]


def minimal_density(
    cs: CenterSet,
    alpha,
    degree: int,
    stability_cap: float | None = None,
) -> tuple[float, PolyRep]:
    """Smallest candidate radius admitting a K-stable reproduction at alpha.

    The candidate radii are :func:`~surfspline.centers.sorted_candidate_radii`.
    Distances are sorted once per query; the neighbor set at each candidate
    radius is a prefix of that order (whole tie groups), the same set in the
    same order as the ball query of ``build_reproduction``, and each solve
    goes through the center set's solve memo.  Unisolvency is monotone in
    the radius, so the smallest unisolvent candidate is located by
    exponential search plus bisection; the stability cap need not be
    monotone, so from there the candidates are scanned linearly until the
    cap is met.

    Returns ``(rho, witness)`` where ``witness`` is the reproduction built at
    radius ``rho`` on its whole tie group, equal bit for bit to
    ``build_reproduction(cs, alpha, rho, degree)``.  Raises
    :class:`NoAdmissibleRadius`, naming alpha, if even the full set fails.
    """
    if stability_cap is None:
        stability_cap = default_stability_cap(cs.dim, degree)
    alpha = _as_point(alpha, cs.dim)
    m = polynomial_dim(cs.dim, degree)
    if len(cs) < m:
        raise NoAdmissibleRadius(
            f"at alpha {alpha.tolist()}: only {len(cs)} centers, need {m} for degree {degree}")
    order, radii, counts = _tie_groups(cs, alpha)
    first = int(np.searchsorted(counts, m, side="left"))

    def attempt(i: int) -> PolyRep | None:
        r = max(float(radii[i]), _ZERO_RADIUS)
        try:
            return _reproduce(cs, alpha, r, order[:counts[i]], degree)
        except ReproductionError:
            return None

    # exponential ascent to the first success
    last = radii.size - 1
    lo, hi, pr_hi = first - 1, first, attempt(first)
    step = 1
    while pr_hi is None:
        if hi == last:
            raise NoAdmissibleRadius(
                f"at alpha {alpha.tolist()}: no unisolvent neighbor set at any radius")
        lo = hi
        step *= 2
        hi = min(hi + step, last)
        pr_hi = attempt(hi)
    # bisection: success is monotone in the radius for unisolvency
    while hi - lo > 1:
        mid = (lo + hi) // 2
        pr_mid = attempt(mid)
        if pr_mid is None:
            lo = mid
        else:
            hi, pr_hi = mid, pr_mid
    # linear scan upward for the stability cap (not monotone in general)
    i, pr = hi, pr_hi
    while pr is None or not pr.stability < stability_cap:
        i += 1
        if i > last:
            raise NoAdmissibleRadius(
                f"at alpha {alpha.tolist()}: stability cap {stability_cap:g} never met "
                f"(best Sum|a| = {pr.stability if pr else float('nan'):g})"
            )
        pr = attempt(i)
    return pr.radius, pr


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

#: Inputs of at most this many pairs are scanned whole: below it the pruning
#: costs more than it saves.
_SCAN_PAIRS = 32768

#: Relative slack on the pruning bound, and relative and absolute pad on each
#: cutoff radius: far above the rounding of a ratio, of a radius and of the
#: kd-tree's squared distances, so pruning keeps extra pairs, never drops one.
_CUTOFF_PAD = 1e-9


def _pair_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| over the last axis of two broadcasting arrays, bit for bit
    ``cdist``'s value: squared differences summed over the axes in order,
    then one sqrt."""
    sq = np.square(x[..., 0] - y[..., 0])
    for a in range(1, x.shape[-1]):
        diff = x[..., a] - y[..., a]
        sq += np.square(diff, out=diff)
    return np.sqrt(sq, out=sq)


def _pair_extremum(df: DensityField, x: np.ndarray, ratio, cutoff, *, maximize: bool,
                   shared: bool) -> np.ndarray:
    """Per-row extremum over the samples y_j of ``ratio(i, j, |x_i - y_j|)``.

    ``x`` is an (n, d) array; ``ratio`` maps broadcasting arrays of row
    indices i, sample indices j and their distances to the pair values.
    Returns an (n,) array, each entry the max (``maximize``) or min over all
    samples, bit for bit what an exhaustive ``cdist`` scan gives.

    Exactness.  A first bound ``best`` comes from the exact ratios of each
    row's ``2^d + 1`` nearest samples: per row, or with ``shared`` one value
    for all rows (whose extremum the caller takes).  ``cutoff(b, i)`` gives,
    for rows i, a radius R_i beyond which no pair's ratio can reach b in
    exact arithmetic; it is called with ``best`` loosened by the relative
    slack ``_CUTOFF_PAD``, which covers the rounding of the ratio, and each
    R_i is padded by ``_CUTOFF_PAD`` relative and absolute, which covers the
    rounding of R_i and of the tree's squared distances.  So every pair
    whose computed ratio beats ``best`` lies in the kd-tree ball of radius
    R_i; a non-finite R_i becomes the farthest any sample lies from x_i, and
    rows with R_i < 0 have no such pair.  Each kept pair's distance equals
    ``cdist``'s bit for bit (:func:`_pair_distances`) and goes through the
    same ratio expression, and max/min are exact in any order, so pruning
    changes no bit.

    Inputs of at most ``_SCAN_PAIRS`` pairs, and blocks whose balls hold
    more than an eighth of their pairs, are scanned against every sample
    instead: that is cheaper than pruning them (or listing their hits), and
    a superset of the kept pairs.
    """
    extremum = np.maximum if maximize else np.minimum
    everyone = np.arange(len(df))

    def scan(b):  # rows b against every sample
        dist = _pair_distances(x[b, None, :], df.points[None, :, :])
        return extremum.reduce(ratio(b[:, None], everyone, dist), axis=1)

    n = len(x)
    rows = np.arange(n)
    if n * len(df) <= _SCAN_PAIRS:
        return scan(rows)
    blocks = [rows[s:s + _PAIR_CHUNK] for s in range(0, n, _PAIR_CHUNK)]
    k = min(2**df.dim + 1, len(df))
    best = np.empty(n)
    for b in blocks:
        _, near = df._tree.query(x[b], k=k)
        near = near.reshape(len(b), k)
        dist = _pair_distances(x[b, None, :], df.points[near])
        best[b] = extremum.reduce(ratio(b[:, None], near, dist), axis=1)
    if shared:
        best[:] = extremum.reduce(best)
    loose = best * (1.0 - _CUTOFF_PAD if maximize else 1.0 + _CUTOFF_PAD)
    lo, hi = df.points.min(axis=0), df.points.max(axis=0)
    for b in blocks:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            radius = cutoff(loose[b], b)
        reach = np.linalg.norm(x[b] - (lo + hi) / 2, axis=1) + np.linalg.norm(hi - lo) / 2
        radius = np.where(np.isfinite(radius), np.minimum(radius, reach), reach)
        keep = radius >= 0
        if not keep.any():
            continue
        dense = bool(np.all(radius == reach))
        b, radius = b[keep], radius[keep] * (1.0 + _CUTOFF_PAD) + _CUTOFF_PAD
        if not dense:
            counts = df._tree.query_ball_point(x[b], radius, return_length=True)
            dense = 8 * int(counts.sum()) > b.size * len(df)
        if dense:
            best[b] = extremum(best[b], scan(b))
            continue
        hits = df._tree.query_ball_point(x[b], radius, return_sorted=False)
        i = np.repeat(b, counts)
        j = np.fromiter(chain.from_iterable(hits), np.intp, i.size)
        del hits
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

    Requires degree > 2k - d + 1 and epsilon > 2k / degree.  Returns the
    list of violated conditions (empty = ok).
    """
    if k < 1 or d < 1 or 2 * k <= d:
        raise ValueError("need k >= 1, d >= 1 and 2k > d")
    violations = []
    if not degree > 2 * k - d + 1:
        violations.append(f"degree {degree} must exceed 2k-d+1 = {2 * k - d + 1}")
    if not epsilon > 2 * k / degree:
        violations.append(f"epsilon {epsilon:g} must exceed 2k/degree = {2 * k / degree:g}")
    return violations

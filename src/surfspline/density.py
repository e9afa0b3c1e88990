"""Local density fields, majorants, and global-compatibility certificates.

The minimal local density at a point is the smallest radius capturing a
stable polynomial reproduction.  A density field is represented by samples
``(point, rho)``; the majorant and the two global-compatibility properties
(slow growth, self-majorization) are evaluated exhaustively over the sample
set, so the certificates are exact on the samples and heuristic off them.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(values, dtype=float).reshape(-1)
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
    Returns a float for one point x and an (n,) array for a batch.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    pts, single = _as_points(x, df.dim)
    out = _chunked_pair_extremum(df, pts, lambda rows, d, vy: vy * (1.0 + d / vy) ** (-r),
                                 np.max)
    return float(out[0]) if single else out


#: Rows per distance block in :func:`_chunked_pair_extremum`.
_PAIR_CHUNK = 512


def _chunked_pair_extremum(df: DensityField, x: np.ndarray, ratio_fn, reduce_fn) -> np.ndarray:
    """Per-row extremum over the samples y of ratio_fn(rows, |x - y|, rho_y).

    ``x`` is an (n, d) array and ``rows`` the slice of x in the current
    block, by which a ratio that needs rho at x (x being the samples) selects
    it.  Returns an (n,) array; max and min are exact, so neither the
    blocking nor a further reduction over the rows changes any bit.
    """
    out = np.empty(len(x))
    for start in range(0, len(x), _PAIR_CHUNK):
        rows = slice(start, start + _PAIR_CHUNK)
        out[rows] = reduce_fn(ratio_fn(rows, cdist(x[rows], df.points), df.values[None, :]),
                              axis=1)
    return out


def certify_slow_growth(df: DensityField, epsilon: float) -> float:
    """Smallest constant C_sg putting the samples in the slow-growth class.

    Returns the max over ordered pairs (x, alpha) of
    ``rho(alpha) / [rho(x) (1 + |x-alpha|/rho(x))^(1-epsilon)]``.
    The diagonal pair contributes exactly 1, so the result is >= 1.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    vx = df.values[:, None]
    return float(np.max(_chunked_pair_extremum(
        df, df.points,
        lambda rows, d, va: va / (vx[rows] * (1.0 + d / vx[rows]) ** (1.0 - epsilon)),
        np.max,
    )))


def certify_self_majorization(df: DensityField, r: float) -> float:
    """Largest constant C_sm for which the samples are self-majorizing.

    Returns the min over ordered pairs (x, y) of
    ``rho(y) / [rho(x) (1 + |x-y|/rho(x))^(-r)]``; always <= 1 because the
    diagonal pair contributes exactly 1.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    vx = df.values[:, None]
    return float(np.min(_chunked_pair_extremum(
        df, df.points,
        lambda rows, d, vy: vy / (vx[rows] * (1.0 + d / vx[rows]) ** (-r)),
        np.min,
    )))


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

"""Polyharmonic kernels, radial test bumps, and the local kernel error.

The kernel is ``phi(x) = |x|^(2k-d)`` for odd d and ``|x|^(2k-d) log|x|``
for even d, the fundamental solution of the k-fold Laplacian up to the
normalization constant ``c_{d,k}`` carried explicitly here.  Test functions
are compactly supported radial polynomial bumps ``(1 - (r/scale)^2)^p`` whose
iterated Laplacians are available in closed form, which removes one source of
error from rate studies.  The local kernel error of a reproduction is taken
in extended precision, from exact integer squared distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, pi

import numpy as np

from .centers import CenterSet, _as_point, _as_points, _pair_distances
from .polyrep import PolyRep, _check_dps, _check_int, _float_fixed_point

#: Supported ambient dimensions at desk scale.
SUPPORTED_DIMS = (1, 2, 3)
MAX_ORDER = 4

#: Largest rounding error, on a bump of sup 1, that :func:`bump` accepts.
_BUMP_ROUNDING = 1e-10

#: Largest exponent p whose rounding bound (p + 1) 2^p eps is within it.
_MAX_BUMP_EXPONENT = max(p for p in range(2, 64)
                         if (p + 1) * 2.0**p * np.finfo(float).eps <= _BUMP_ROUNDING)


def _check_dk(d: int, k: int) -> None:
    _check_int("d", d, 1)
    _check_int("k", k, 1)
    if d not in SUPPORTED_DIMS or not (2 * k > d) or k > MAX_ORDER:
        raise ValueError(f"unsupported (d, k) = ({d}, {k}); need d in {SUPPORTED_DIMS}, d/2 < k <= {MAX_ORDER}")


@dataclass(frozen=True)
class KernelParams:
    """Kernel order, dimension, reproduction degree, decay exponent, normalization.

    ``degree`` is the one reproduction degree of ``assemble`` and
    ``convergence_study``.  ``nu = degree + d - 2k`` is the far-field decay
    exponent of the local kernel-approximation error at that degree.
    """

    d: int
    k: int
    degree: int
    nu: float = field(init=False)
    normalization: float = field(init=False)

    def __post_init__(self):
        _check_dk(self.d, self.k)
        _check_int("degree", self.degree, 0)
        object.__setattr__(self, "nu", float(self.degree + self.d - 2 * self.k))
        object.__setattr__(self, "normalization", fundamental_normalization(self.d, self.k))


def phi_radial(r, d: int, k: int):
    """Kernel profile as a function of the radius; phi(0) = 0 by continuity."""
    _check_dk(d, k)
    r = np.asarray(r, dtype=float)
    p = 2 * k - d
    if d % 2 == 1:
        out = r**p
    else:
        out = np.log(r, out=np.zeros_like(r), where=r > 0)
        out *= r**p
    return out if out.ndim else float(out)


def phi(x, params: KernelParams) -> float | np.ndarray:
    """Kernel value (not normalized by c_{d,k}): float at a point, (n,) for a batch."""
    pts, single = _as_points(x, params.d)
    vals = phi_radial(_pair_distances(pts, np.zeros(params.d)), params.d, params.k)
    return float(vals[0]) if single else vals


def fundamental_normalization(d: int, k: int) -> float:
    """Constant c with  Delta^k (c * phi) = delta  in the distributional sense.

    Derived by peeling Laplacians off the radial power until the classical
    fundamental solution of the single Laplacian remains:
    Delta |x|^s = s (s + d - 2) |x|^(s-2).
    """
    _check_dk(d, k)
    if d == 1:
        # Delta^{k-1} |x|^{2k-1} = (2k-1)! |x|;  (|x|/2)'' = delta
        return 1.0 / (2.0 * factorial(2 * k - 1))
    if d == 3:
        # Delta^{k-1} |x|^{2k-3} -> (2k-2)! |x|^{-1};  -1/(4 pi |x|) is fundamental
        return -1.0 / (4.0 * pi * factorial(2 * k - 2))
    # d == 2:  Delta^{k-1} (|x|^{2k-2} log|x|) = (2^{k-1} (k-1)!)^2 log|x| + poly,
    # and (1/2pi) log|x| is fundamental for the Laplacian.
    return 1.0 / (2.0 * pi * (2 ** (k - 1) * factorial(k - 1)) ** 2)


@dataclass(frozen=True)
class RadialBump:
    """A compactly supported radial polynomial around ``center``.

    ``coeffs[m]`` multiplies ``(r^2)^m`` on ``r <= scale``; the function is
    zero outside.  ``exponent`` records the vanishing order at the support
    boundary (p for a fresh bump, p - k after k Laplacians), which is what
    controls smoothness across the boundary.
    """

    exponent: int
    center: np.ndarray
    scale: float
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __call__(self, x) -> float | np.ndarray:
        """Values at x: a float for one point, an (n,) array for a batch."""
        pts, single = _as_points(x, self.dim)
        t = np.sum((pts - self.center) ** 2, axis=1)
        inside = t <= self.scale**2
        vals = np.zeros(pts.shape[0])
        if np.any(inside):
            vals[inside] = np.polynomial.polynomial.polyval(t[inside], self.coeffs)
        return float(vals[0]) if single else vals

    def sup_norm(self) -> float:
        """Max of |values| over the support: dense radial grid plus the
        critical points of the polynomial in t = r^2."""
        tmax = self.scale**2
        ts = np.linspace(0.0, tmax, 10_001)
        best = float(np.max(np.abs(np.polynomial.polynomial.polyval(ts, self.coeffs))))
        deriv = np.polynomial.polynomial.polyder(self.coeffs)
        if deriv.size:
            roots = np.polynomial.polynomial.polyroots(deriv)
            real = roots[np.abs(roots.imag) < 1e-10].real
            real = real[(real >= 0) & (real <= tmax)]
            if real.size:
                best = max(best, float(np.max(np.abs(
                    np.polynomial.polynomial.polyval(real, self.coeffs)))))
        return best


def bump(p: int, center, scale: float) -> RadialBump:
    """The bump (1 - (r/scale)^2)^p around ``center``; C^(p-1) at the boundary.

    The values come from the binomial expansion in t = r^2, whose terms
    alternate in sign: on the support the moduli of the terms sum to 2^p, so
    Horner's rounding error is about (p + 1) 2^p eps.  An exponent is legal
    while that bound stays within ``_BUMP_ROUNDING`` = 1e-10 of the bump's
    sup 1, that is for 2 <= p <= 14.  Every coefficient ``comb(p, m)
    scale^(-2m)`` must be finite and nonzero, which bounds the scale from
    both sides (about 1e-11 to 3e11 at p = 14).
    """
    if p < 2:
        raise ValueError("exponent must be >= 2")
    if p > _MAX_BUMP_EXPONENT:
        raise ValueError(f"exponent {p} exceeds {_MAX_BUMP_EXPONENT}: the rounding error of "
                         f"the bump's expansion could exceed {_BUMP_ROUNDING:g}")
    center = np.asarray(center, dtype=float).reshape(-1)
    if not (0 < scale < np.inf and np.all(np.isfinite(center))):
        raise ValueError("scale must be positive and finite, and center finite")
    # binomial expansion in t = r^2
    m = np.arange(p + 1)
    with np.errstate(over="ignore"):
        coeffs = np.array([comb(p, int(mm)) * (-1.0) ** mm * scale ** (-2.0 * mm) for mm in m])
    if not np.all(np.isfinite(coeffs) & (coeffs != 0)):
        raise ValueError(f"scale {scale:g} makes a coefficient scale^(-2m), m <= {p}, "
                         "overflow or underflow")
    return RadialBump(exponent=p, center=center, scale=float(scale), coeffs=coeffs)


def laplacian_power(f: RadialBump, k: int) -> RadialBump:
    """Apply the radial Laplacian k times, termwise on the polynomial in r^2.

    Uses ``Delta r^(2m) = 2m (2m + d - 2) r^(2m-2)`` in the ambient dimension
    of the bump's center.  Requires boundary vanishing order >= 2k + 2 so the
    result is still continuously differentiable across the support boundary
    (each Laplacian costs one order), and every coefficient to stay finite.
    """
    _check_int("k", k, 0)
    if f.exponent < 2 * k + 2:
        raise ValueError(f"bump boundary order {f.exponent} too small for Delta^{k} (need >= {2 * k + 2})")
    d = f.dim
    coeffs = f.coeffs.copy()
    with np.errstate(over="ignore"):
        for _ in range(k):
            if coeffs.size <= 1:
                coeffs = np.zeros(1)
                break
            m = np.arange(1, coeffs.size)
            coeffs = coeffs[1:] * (2 * m) * (2 * m + d - 2)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"scale {f.scale:g} makes a coefficient of Delta^{k} f overflow")
    return RadialBump(exponent=f.exponent - k, center=f.center, scale=f.scale, coeffs=coeffs)


def local_kernel_error_precise(pr: PolyRep, cs: CenterSet, x, params: KernelParams,
                               weights=None, dps: int = 60) -> tuple[float, float]:
    """Error of replacing phi(x - alpha) by the reproduction's combination.

    Returns ``(error, normalized)`` where ``normalized`` divides by the decay
    profile ``rho^(2k-d) (1 + |x-alpha|/rho)^(-nu)``, both computed in
    ``dps``-digit arithmetic.  A direct float64 difference bottoms out near
    ``eps * |phi|`` long before the true far-field error does, so decay
    studies past a few support radii need high-precision kernel sums and the
    weights of :func:`surfspline.polyrep.refine_weights` (moment residual at
    most ``10^(10 - dps)``), passed as ``weights``; ``x`` is one point.
    ``weights`` must hold one finite weight (anything ``mpmath.mpf`` takes)
    per entry of ``pr.indices``, ``params.d`` equal the centers' dimension
    and ``dps`` be an int above 15 (else ``ValueError``).

    Each squared distance (the profile's ``|x - alpha|^2`` too) is one exact
    integer sum of squares on the coordinates' common fixed point, rounded
    once; the kernel values take ``mpf_sqrt``, ``mpf_pow_int`` and
    ``mpf_log`` of it on raw mpf tuples (``mpmath.libmp``), and the weighted
    terms are summed by one ``mpf_sum``.
    """
    import mpmath as mp
    from mpmath.libmp import (from_man_exp, fzero, mpf_abs, mpf_log, mpf_mul, mpf_pow_int,
                              mpf_sqrt, mpf_sub, mpf_sum, round_nearest)

    _check_dps(dps)
    if params.d != cs.dim:
        raise ValueError(f"dimensions differ: centers {cs.dim}, params.d {params.d}")
    if weights is None:
        weights = pr.weights
    if len(weights) != len(pr.indices):
        raise ValueError(f"need one weight per center of the reproduction ({len(pr.indices)}), "
                         f"got {len(weights)}")
    x = _as_point(x, cs.dim)
    two_k_d = 2 * params.k - params.d

    with mp.workdps(dps):
        prec, rnd = mp.mp.prec, round_nearest
        # an mpf weight keeps its own bits: w * phi rounds once, at the product
        wts = [(w if isinstance(w, mp.mpf) else mp.mpf(w))._mpf_ for w in weights]
        for i, (_, man, exp, _) in enumerate(wts):
            if exp and not man:
                raise ValueError(f"weights must be finite; weight {i} is {weights[i]}")
        # exact differences: float64 differencing of O(|x|) coordinates
        # injects ~1e-16 relative noise, far above the true far-field error
        ints, low = _float_fixed_point(np.vstack([x, pr.alpha, cs.points[pr.indices]]))
        sums = ((ints[1:] - ints[0]) ** 2).sum(axis=1).tolist()
        r2s = [from_man_exp(v, 2 * low, prec, rnd) for v in sums]

        def phimp(r2):
            if not r2[1]:
                return fzero
            r = mpf_sqrt(r2, prec, rnd)
            val = mpf_pow_int(r, two_k_d, prec, rnd)
            if params.d % 2 == 0:
                val = mpf_mul(val, mpf_log(r, prec, rnd), prec, rnd)
            return val

        target, *phis = map(phimp, r2s)
        total = mpf_sum([mpf_mul(w, v, prec, rnd) for w, v in zip(wts, phis)], prec, rnd)
        err = mp.mpf(mpf_abs(mpf_sub(target, total, prec, rnd), prec, rnd))
        rho = mp.mpf(pr.radius)
        profile = rho**two_k_d * (1 + mp.sqrt(mp.mpf(r2s[0])) / rho) ** (-params.nu)
        return float(err), float(err / profile)

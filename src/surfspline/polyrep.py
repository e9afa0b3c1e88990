"""Stable local polynomial reproductions.

Given a center set, a base point ``alpha``, a support radius and a total
degree, we look for weights ``a(xi, alpha)`` supported on the centers inside
``B(alpha, radius)`` that reproduce every polynomial of total degree at most
``degree`` exactly:

    sum_xi a(xi, alpha) p(xi) = p(alpha).

Among all weight vectors satisfying these moment constraints we return the
one of minimum Euclidean norm, computed on a shifted-and-scaled monomial
basis (shifting to ``alpha`` and scaling by the radius keeps the
conditioning independent of location and scale) from one column-pivoted QR
of the transposed moment matrix ``B^T``.  Its R gives the rank: a smallest
ratio ``|R_kk| / |R_00|`` at most ``RANK_RTOL`` proves the system deficient,
one above a guard band over ``RANK_RTOL`` is taken as full rank, and inside
the band a norm bound on R's condition proves full rank or else the singular
values of R decide.  Before any QR, a system whose scaled centers take at most
``degree`` distinct values on one axis is proven deficient: the product of
the linear factors through those values is a nonzero polynomial of degree at
most ``degree`` that vanishes on every center, so no weights reproduce
Pi_degree there (Wendland, *Scattered Data Approximation*, 2005, ch. 2).  The
sum of absolute weights is the stability norm of the reproduction.

Local solves run on one BLAS thread (:func:`_serial_blas`): at degree 14 a
QR's level-2 calls cross OpenBLAS's threading threshold, and a second thread
costs more than it saves on so small a problem.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, frexp

import numpy as np
import scipy.linalg
from scipy.linalg import svdvals
from scipy.linalg.lapack import dgeqp3, dormqr, dtrtri, dtrtrs

from .centers import CenterSet, _as_point

#: Relative rank tolerance separating genuine unisolvency failures from
#: round-off: full rank means sigma_min > RANK_RTOL * sigma_max.  A deficient
#: rank is reported as pivoted QR's count of |R_kk| > RANK_RTOL * |R_00| (of
#: singular values, inside the guard band).
RANK_RTOL = 1e-10

#: Pivoted QR can overrate a rank, so a smallest ratio ``|R_kk| / |R_00|`` up
#: to ``_GUARD * RANK_RTOL`` is checked by a norm bound, then if need be by the
#: singular values of R (:func:`_min_norm`).
_GUARD = 1e3

#: Solves held by a center set's solve memo (a few KB each, and as much again
#: for the keys of their index).
_SOLVE_MEMO_CAP = 4096


def _blas_thread_control() -> tuple:
    """The thread-count getter and setter of the OpenBLAS behind scipy's
    BLAS wrappers, or ``(None, None)`` where it exposes none (MKL, Accelerate,
    other builds)."""
    try:
        lib = ctypes.CDLL(scipy.linalg._fblas.__file__)
    except (AttributeError, OSError):
        return None, None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None, None


_get_blas_threads, _set_blas_threads = _blas_thread_control()
_blas_lock = threading.Lock()
_blas_depth = 0  # entries of _serial_blas not yet left, over all threads
_blas_saved = 0  # the thread count when the outermost entry began


@contextmanager
def _serial_blas():
    """Run the body with scipy's OpenBLAS on one thread, then restore the
    count found at entry; a no-op where the count cannot be set.

    Enter it once per batch of solves: an entry costs a few microseconds.
    Nested and concurrent entries share one depth count, so the count is
    saved by the first entry and restored by the last exit.  While any
    thread is inside, every scipy BLAS call of the process runs on one
    thread, since the count is global to the library.
    """
    global _blas_depth, _blas_saved
    get, put = _get_blas_threads, _set_blas_threads
    if get is None or put is None:
        yield
        return
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                put(_blas_saved)


class ReproductionError(Exception):
    """Base class for local-reproduction construction failures."""


class InsufficientPoints(ReproductionError):
    """Fewer neighbors inside the support ball than polynomial-space dimension."""


class RankDeficient(ReproductionError):
    """Neighbors inside the support ball are not unisolvent for the degree."""


def polynomial_dim(dim: int, degree: int) -> int:
    """Dimension of the space of polynomials of total degree <= degree in R^dim."""
    return comb(degree + dim, dim)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Multi-indices of total degree <= degree, graded lexicographic, (M, dim).

    The zero multi-index always comes first; the ordering is deterministic.
    The array is cached per (dim, degree) and therefore read-only.
    """
    if degree < 0 or dim < 1:
        raise ValueError("need degree >= 0 and dim >= 1")
    grid = [e for e in product(range(degree + 1), repeat=dim) if sum(e) <= degree]
    expo = np.array(sorted(grid, key=sum), dtype=int)  # stable: lexicographic per degree
    expo.setflags(write=False)
    return expo


def _monomials(scaled, degree) -> np.ndarray:
    """The monomials of total degree <= degree (rows, in
    :func:`monomial_exponents` order) at the points ``scaled`` (columns), a
    float64 or object array (n, d): per-axis power tables (d, degree + 1, n)
    by running products (a vector pow falls back to scalar libm on negative
    bases), gathered by exponent and multiplied left to right, elementwise,
    so a column's bits depend on its own point only.  On Python ints it is
    exact."""
    expo = monomial_exponents(scaled.shape[1], degree)
    table = np.empty((scaled.shape[1], degree + 1, len(scaled)), dtype=scaled.dtype)
    table[:, 0] = 1
    for e in range(1, degree + 1):
        table[:, e] = table[:, e - 1] * scaled.T
    bmat = table[0][expo[:, 0]]
    for a in range(1, scaled.shape[1]):
        bmat *= table[a][expo[:, a]]
    return bmat


def _moment_system(offsets, radius, degree) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrix (rows = monomials, columns = centers) on the neighbor
    ``offsets`` from the base point scaled by ``radius``, and the moments of
    the base point in that basis (1 for the constant, 0 otherwise)."""
    bmat = _monomials(offsets / radius, degree)
    rhs = np.zeros(bmat.shape[0])
    rhs[0] = 1.0
    return bmat, rhs


@dataclass(frozen=True)
class PolyRep:
    """A local polynomial reproduction at a single base point.

    ``weights[i]`` is the coefficient attached to center ``indices[i]``; all
    weighted centers lie inside ``B(alpha, radius)``.  The property
    ``stability`` is the sum of absolute weights, >= 1 for any reproduction.
    """

    alpha: np.ndarray
    radius: float
    indices: np.ndarray
    weights: np.ndarray
    degree: int

    @property
    def stability(self) -> float:
        return float(np.sum(np.abs(self.weights)))


def build_reproduction(cs: CenterSet, alpha, radius: float, degree: int) -> PolyRep:
    """Minimum-norm weights reproducing Pi_degree from centers in B(alpha, radius).

    The weights are read-only: equal local geometries share one array
    through the center set's solve memo.

    Raises
    ------
    InsufficientPoints
        If the ball holds fewer centers than ``dim Pi_degree``.
    RankDeficient
        If the local Vandermonde has numerical rank below ``dim Pi_degree``
        at relative tolerance ``RANK_RTOL``; the rank it reports is pivoted
        QR's count of ``|R_kk| > RANK_RTOL * |R_00|`` (see ``RANK_RTOL``).
    """
    _check_int("degree", degree, 0)
    alpha = _as_point(alpha, cs.dim)
    idx, _ = cs.neighbor_arrays(alpha, radius)  # raises unless radius > 0
    with _serial_blas():
        w = _weights(cs, cs.points[idx] - alpha, float(radius), degree)
    return PolyRep(alpha=alpha, radius=float(radius), indices=idx, weights=w, degree=degree)


def _weights(cs: CenterSet, offsets: np.ndarray, radius: float, degree: int) -> np.ndarray:
    """The weights of :func:`_solve`, raising :class:`InsufficientPoints` or
    :class:`RankDeficient` where :func:`build_reproduction` does; the error
    text takes the rank of one QR."""
    m = polynomial_dim(cs.dim, degree)
    if len(offsets) < m:
        raise InsufficientPoints(
            f"{len(offsets)} centers in B(alpha, {radius:g}), need {m} for degree {degree}"
        )
    sol = _solve(cs, offsets, radius, degree)[0]
    if sol is None:
        rank = _min_norm(_moment_system(offsets, radius, degree)[0])[1]
        raise RankDeficient(f"local Vandermonde rank {rank} < {m}")
    return sol


def _solve(cs: CenterSet, offsets: np.ndarray, radius: float, degree: int) -> tuple:
    """The one local solve: ``(weights, stability)`` on the neighbor
    ``offsets`` from a base point (at least ``dim Pi_degree`` rows), both None
    if deficient.  On a memo miss :func:`_axis_deficient` reads the scaled
    offsets, the exact float inputs of the moment matrix, and a set with at
    most ``degree`` values on an axis is deficient with no moment matrix and
    no QR.  Otherwise :func:`_min_norm` decides.

    Every local solve on a center set (``build_reproduction``, ``assemble``
    and the attempts of ``minimal_density``) goes through the set's memo
    ``cs._solves``, keyed by the exact bytes of the scaled offsets
    ``offsets / radius`` and the degree: the moment matrix is a function of
    those alone (:func:`_moment_system`), so a hit is a fresh solve bit for
    bit, rank failures included.  Lattice placements repeat one neighbor
    geometry at many base points, and the Remark-1 rings, whose spacings are
    powers of two, repeat it at scales a power of two apart, which divide out
    exactly.  The index ``cs._solve_index`` maps the exact inputs (offsets,
    radius, degree) already seen to their entry, so a repeated input skips
    the division.  The memo holds at most ``_SOLVE_MEMO_CAP`` solves; when
    full, it and the index are cleared, and both die with the set.
    Concurrent use stays safe: each value is a pure function of its key, so
    a race can only repeat a solve or overshoot the cap by one entry a thread.
    """
    memo, index = cs._solves, cs._solve_index
    inputs = (offsets.tobytes(), radius, degree)
    hit = index.get(inputs)
    if hit is None:
        scaled = offsets / radius
        key = (scaled.tobytes(), degree)
        hit = memo.get(key)
        if hit is None:
            sol = None
            if not _axis_deficient(scaled, degree):
                sol = _min_norm(_moment_system(offsets, radius, degree)[0])[0]
            hit = sol, None if sol is None else float(np.sum(np.abs(sol)))
            if len(memo) >= _SOLVE_MEMO_CAP:
                memo.clear()
                index.clear()
            memo[key] = hit
        index[inputs] = hit
    return hit


def _axis_deficient(scaled: np.ndarray, degree: int) -> bool:
    """Whether some axis of the points ``scaled`` (n, d) holds at most
    ``degree`` distinct values c_1 .. c_k: then ``prod_i (x_a - c_i)`` is a
    nonzero polynomial of degree k <= ``degree`` that vanishes on every point,
    so the moment matrix on these points has rank below ``dim Pi_degree`` in
    exact arithmetic (``-0.0`` and ``0.0`` are one value)."""
    ranked = np.sort(scaled.T)  # one row per axis
    steps = ranked[:, 1:] != ranked[:, :-1]
    return any(np.count_nonzero(row) < degree for row in steps)


def _lapack(routine, *args, **kwargs):
    """The outputs of a LAPACK wrapper call but its trailing ``info``; a
    nonzero ``info`` raises ``LinAlgError``, a numerical failure."""
    *out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} failed with info {info}")
    return out


def _min_norm(bmat: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Minimum-norm ``w`` with ``bmat @ w = e_0``, and the rank of ``bmat``
    (M, n), M <= n, at ``RANK_RTOL``; ``w`` is read-only, and None for a
    deficient system.

    One column-pivoted QR ``bmat^T P = Q R`` (Businger & Golub, *Numer.
    Math.* 7, 1965) gives both: the rank from R's diagonal, and for full rank
    ``w = Q R^-T P^T e_0``, one triangular solve and one application of Q.
    ``bmat`` is overwritten.

    Inside the guard band a norm certificate decides first: ``c = 1 /
    (||R||_F ||R^-1||_F) <= sigma_min / sigma_max``, with ``R^-1`` from LAPACK
    ``dtrtri``; ``c > 2 RANK_RTOL`` proves full rank, and otherwise (a
    non-finite inverse too) the singular values of R decide.  It never
    overrules them: the inverse X has ``|X R - I| <= c_M u |X| |R|`` (Du Croz
    & Higham, *IMA J. Numer. Anal.* 12, 1992), so an accepted c is off by a
    relative ``c_M u / (2 RANK_RTOL)``, below 0.1 up to M = 400 even for
    ``c_M = M^2``, and the singular values, computed to O(u sigma_max), read
    a ratio above ``1.8 RANK_RTOL``.
    """
    m = bmat.shape[0]
    qr, jpvt, tau, _ = _lapack(dgeqp3, bmat.T, overwrite_a=1)
    diag = np.abs(np.diagonal(qr))
    # R's diagonal lies between its extreme singular values, which are B's
    ratio = diag.min() / diag[0]  # >= sigma_min / sigma_max
    if ratio <= RANK_RTOL:
        return None, int(np.count_nonzero(diag > RANK_RTOL * diag[0]))
    if ratio <= _GUARD * RANK_RTOL:
        rfac = np.triu(qr[:m])
        inv, = _lapack(dtrtri, rfac)
        # ufunc sums, not np.linalg.norm: numpy's own BLAS would wake its threads
        if not np.sqrt(np.sum(np.square(inv)) * np.sum(np.square(rfac))) < 0.5 / RANK_RTOL:
            sv = svdvals(rfac)
            if sv[-1] <= RANK_RTOL * sv[0]:
                return None, int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
    pivoted = (jpvt == 1).astype(float)[:, None]  # P^T e_0; jpvt counts from 1
    z, = _lapack(dtrtrs, qr, pivoted, trans=1)
    w = np.zeros((qr.shape[0], 1))
    w[:m] = z
    w, _ = _lapack(dormqr, "L", "N", qr, tau, w, 1, overwrite_c=1)  # Q [z; 0]
    w.setflags(write=False)
    return w[:, 0], m


def verify_reproduction(pr: PolyRep, cs: CenterSet) -> float:
    """Max residual of the moment constraints over the monomial test set.

    Evaluated in the same shifted-and-scaled basis used for construction, so
    the value is comparable across locations and scales.  The caller decides
    what tolerance to hold it to.
    """
    bmat, rhs = _moment_system(cs.points[pr.indices] - pr.alpha, pr.radius, pr.degree)
    return float(np.max(np.abs(bmat @ pr.weights - rhs)))


def _check_int(name: str, value, least: int) -> None:
    """``name`` must be an integer (numpy's too, not bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer; got {value!r}")


def _check_dps(dps) -> None:
    """``dps`` must be an int (not bool) above 15: more digits than float64 carries."""
    if isinstance(dps, bool) or not isinstance(dps, int) or dps <= 15:
        raise ValueError(f"dps must be an int above 15, more digits than float64 carries; "
                         f"got {dps!r}")


def _fixed_point(values) -> tuple[np.ndarray, int]:
    """Python ints ``m`` (a 1-D object array) and one exponent ``e`` with
    ``values[i] == m[i] 2^e`` exactly, for an iterable of finite mpf and
    Python ints: each signed mantissa shifted to the smallest exponent of the
    nonzero entries (a zero carries no exponent)."""
    from mpmath.libmp import from_int

    parts = [from_int(v) if type(v) is int else v._mpf_ for v in values]
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    return np.array([(-man if sign else man) << (exp - low) if man else 0
                     for sign, man, exp, _ in parts], dtype=object), low


def _float_fixed_point(values) -> tuple[np.ndarray, int]:
    """Python ints ``m`` (an object array of ``values``' shape) and one
    exponent ``e`` with ``values == m 2^e`` exactly, for finite float64
    ``values``: the 53-bit mantissas of ``np.frexp`` shifted to the smallest
    exponent of the nonzero values."""
    frac, exp = np.frexp(np.asarray(values, dtype=float))
    man = (frac * 2.0**53).astype(np.int64)
    exp -= 53
    low = int(exp[man != 0].min()) if man.any() else 0
    return man.astype(object) << np.where(man != 0, exp - low, 0).astype(object), low


def _exact_moments(points, alpha, s: int, degree: int) -> tuple[np.ndarray, int]:
    """Python ints (M, n) and one exponent ``e`` whose product is exactly the
    moment matrix of the float64 ``points`` around ``alpha`` scaled by
    ``2^s``: the :func:`_monomials` of the integer offsets of
    :func:`_float_fixed_point`, each row shifted left onto the exponent of
    the degree-``degree`` rows.  The shifts are non-negative when some offset
    coordinate is nonzero and all are below ``2^(s + 1)``, as for the centers
    of a reproduction of degree >= 1 whose radius has the ``frexp`` exponent
    s; degree 0 shifts nothing."""
    ints, low = _float_fixed_point(np.vstack([alpha, points]))
    rows = degree - monomial_exponents(len(alpha), degree).sum(axis=1)
    shifts = ((s - low) * rows).astype(object)[:, None]
    return _monomials(ints[1:] - ints[0], degree) << shifts, (low - s) * degree


def _products(ints: np.ndarray, low: int, vec) -> list:
    """The mpf entries of ``(ints 2^low) @ vec``, ``ints`` a matrix of Python
    ints (:func:`_fixed_point`) and ``vec`` a sequence of mpf: one exact
    integer dot product of an object-array ``@`` per entry, rounded once to
    the working precision."""
    import mpmath as mp

    vints, vlow = _fixed_point(vec)
    return [mp.mpf((s, low + vlow)) for s in ints @ vints]


def refine_weights(pr: PolyRep, cs: CenterSet, dps: int = 60):
    """The minimum-norm weights of ``pr`` to ``dps`` digits, as ``mpmath.mpf``
    aligned with ``pr.indices``, for far-field studies that need moment
    residuals far below float64's ``1e-14``.  With ``w = B^T y``, y solves
    ``B B^T y = e_0`` by mixed-precision refinement (Bjorck, *BIT* 7, 1967;
    Carson & Higham, *SIAM J. Sci. Comput.* 40(2), 2018): residuals in ``dps``
    digits, corrections from ``R^T R dy = r`` with R of a float64 QR of
    ``B^T``.  Refining y, not w, keeps w in B's row space, so minimum-norm.
    B is scaled by ``2^s``, the power of two of ``math.frexp(pr.radius)``, in
    both precisions, so that it is an exact integer matrix
    (:func:`_exact_moments`) and ``B^T y`` and ``B w`` are exact integer dot
    products rounded once per entry (:func:`_products`); scaling B's rows
    leaves the minimum-norm w unchanged.  Stops once the residual no longer
    halves, and raises :class:`ReproductionError` if it is then above
    ``10^(10 - dps)``.  ``dps`` must be an int above 15, and each center
    less than ``2^(s + 1)`` from alpha in every coordinate, as the ball's
    centers are (else ``ValueError``, before any shift).
    """
    import mpmath as mp

    _check_dps(dps)
    pts = cs.points[pr.indices]
    offsets, s = pts - pr.alpha, frexp(pr.radius)[1]
    if not np.all(np.abs(offsets) < 2.0 ** (s + 1)):  # else _exact_moments shifts right
        raise ValueError(f"refine_weights: a center lies outside B(alpha, {pr.radius:g}), "
                         f"against the PolyRep contract (alpha {pr.alpha}, a coordinate "
                         f"2^{s + 1} or more away)")
    rfac = np.linalg.qr(_monomials(np.ldexp(offsets, -s), pr.degree).T, mode="r")
    ints, low = _exact_moments(pts, pr.alpha, s, pr.degree)
    with mp.workdps(dps):
        y, prev = [mp.mpf(0)] * len(ints), mp.inf
        for it in range(1, 4 * dps + 1):  # 4 dps halvings end below 10^(10 - dps)
            w = _products(ints.T, low, y)
            r = [(i == 0) - v for i, v in enumerate(_products(ints, low, w))]
            res = max(abs(v) for v in r)
            if not 0 < res < prev / 2:
                break
            prev = res
            dy = scipy.linalg.cho_solve((rfac, False), [float(v / res) for v in r])
            y = [a + res * mp.mpf(b) for a, b in zip(y, dy)]
        if res > mp.mpf(10) ** (10 - dps):
            raise ReproductionError(f"refine_weights: residual {mp.nstr(res, 3)} after {it} "
                                    f"iterations, alpha {pr.alpha}, degree {pr.degree}, dps {dps}")
        return w

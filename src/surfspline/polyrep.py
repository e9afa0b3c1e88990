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
the band the singular values of R decide.  The sum of absolute weights is the
stability norm of the reproduction.

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
from math import comb

import numpy as np
import scipy.linalg
from scipy.linalg import svdvals
from scipy.linalg.lapack import dgeqp3, dormqr, dtrtrs

from .centers import CenterSet, _as_point

#: Relative rank tolerance separating genuine unisolvency failures from
#: round-off: full rank means sigma_min > RANK_RTOL * sigma_max.  A deficient
#: rank is reported as pivoted QR's count of |R_kk| > RANK_RTOL * |R_00| (of
#: singular values, inside the guard band).
RANK_RTOL = 1e-10

#: Pivoted QR can overrate a rank, so a smallest ratio ``|R_kk| / |R_00|`` up
#: to ``_GUARD * RANK_RTOL`` is checked against the singular values of R.
_GUARD = 1e3

#: Entries of a center set's solve memo (a few KB each).
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


def _moment_system(offsets, radius, degree) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrix (rows = monomials, columns = centers) on the neighbor
    ``offsets`` from the base point scaled by ``radius``, and the moments of
    the base point in that basis (1 for the constant, 0 otherwise)."""
    expo = monomial_exponents(offsets.shape[1], degree)
    scaled = offsets / radius
    # per-axis power tables (d, degree + 1, n) by running products (a vector
    # pow falls back to scalar libm on negative bases), gathered by exponent
    # and multiplied left to right: elementwise, so a column's bits depend on
    # its own offset only.  It also runs on mpmath object arrays, which
    # _moment_fixed_point reproduces on raw mpf tuples.
    table = np.empty((offsets.shape[1], degree + 1, len(offsets)), dtype=scaled.dtype)
    table[:, 0] = 1
    for e in range(1, degree + 1):
        table[:, e] = table[:, e - 1] * scaled.T
    bmat = table[0][expo[:, 0]]
    for a in range(1, offsets.shape[1]):
        bmat *= table[a][expo[:, a]]
    rhs = np.zeros(expo.shape[0])
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
    if degree < 0:
        raise ValueError("degree must be >= 0")
    alpha = _as_point(alpha, cs.dim)
    idx, _ = cs.neighbor_arrays(alpha, radius)  # raises unless radius > 0
    with _serial_blas():
        w = _weights(cs, cs.points[idx] - alpha, float(radius), degree)
    return PolyRep(alpha=alpha, radius=float(radius), indices=idx, weights=w, degree=degree)


def _weights(cs: CenterSet, offsets: np.ndarray, radius: float, degree: int) -> np.ndarray:
    """The weights of :func:`_solve`, raising :class:`InsufficientPoints` or
    :class:`RankDeficient` where :func:`build_reproduction` does."""
    m = polynomial_dim(cs.dim, degree)
    if len(offsets) < m:
        raise InsufficientPoints(
            f"{len(offsets)} centers in B(alpha, {radius:g}), need {m} for degree {degree}"
        )
    sol, rank, _ = _solve(cs, offsets, radius, degree)
    if sol is None:
        raise RankDeficient(f"local Vandermonde rank {rank} < {m}")
    return sol


def _solve(cs: CenterSet, offsets: np.ndarray, radius: float, degree: int) -> tuple:
    """The one local solve: ``(weights, rank, stability)`` on the neighbor
    ``offsets`` from a base point (at least ``dim Pi_degree`` rows), weights
    and stability None if deficient.

    Every local solve on a center set (``build_reproduction``, ``assemble``
    and the attempts of ``minimal_density``) goes through the set's memo
    ``cs._solves``, keyed by the exact bytes of the solve's only inputs: the
    ordered offsets, the radius and the degree.  A hit is a fresh solve bit
    for bit, rank failures included; lattice placements repeat one neighbor
    geometry at many base points.  The memo holds at most
    ``_SOLVE_MEMO_CAP`` entries (cleared when full) and dies with the set.
    Concurrent use stays safe: each value is a pure function of its key, so
    a race can only repeat a solve or overshoot the cap by one entry a thread.
    """
    key = (offsets.tobytes(), radius, degree)
    memo = cs._solves
    hit = memo.get(key)
    if hit is None:
        sol, rank = _min_norm(_moment_system(offsets, radius, degree)[0])
        hit = sol, rank, None if sol is None else float(np.sum(np.abs(sol)))
        if len(memo) >= _SOLVE_MEMO_CAP:
            memo.clear()
        memo[key] = hit
    return hit


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
    Math.* 7, 1965) gives both: the rank from R's diagonal, with the singular
    values of R deciding inside the guard band, and for full rank
    ``w = Q R^-T P^T e_0``, one triangular solve and one application of Q.
    ``bmat`` is overwritten.
    """
    m = bmat.shape[0]
    qr, jpvt, tau, _ = _lapack(dgeqp3, bmat.T, overwrite_a=1)
    diag = np.abs(np.diagonal(qr))
    # R's diagonal lies between its extreme singular values, which are B's
    ratio = diag.min() / diag[0]  # >= sigma_min / sigma_max
    if ratio <= RANK_RTOL:
        return None, int(np.count_nonzero(diag > RANK_RTOL * diag[0]))
    if ratio <= _GUARD * RANK_RTOL:
        sv = svdvals(np.triu(qr[:m]))
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


def _check_dps(dps) -> None:
    """``dps`` must be an int (not bool) above 15: more digits than float64 carries."""
    if isinstance(dps, bool) or not isinstance(dps, int) or dps <= 15:
        raise ValueError(f"dps must be an int above 15, more digits than float64 carries; "
                         f"got {dps!r}")


def _fixed_point(values) -> tuple[np.ndarray, int]:
    """Python ints ``m`` (a 1-D object array) and one exponent ``e`` with
    ``values[i] == m[i] 2^e`` exactly, for an iterable of finite mpf and
    Python ints (row 0 of an mpmath moment matrix holds int 1): the
    :func:`_aligned` raw mpf tuples of the values."""
    from mpmath.libmp import from_int

    return _aligned([from_int(v) if type(v) is int else v._mpf_ for v in values])


def _aligned(parts: list) -> tuple[np.ndarray, int]:
    """The raw finite mpf tuples ``parts`` as :func:`_fixed_point` returns
    them: each signed mantissa shifted to the smallest exponent of the nonzero
    entries (a zero carries no exponent)."""
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    ints = np.empty(len(parts), dtype=object)
    ints[:] = [(-man if sign else man) << (exp - low) if man else 0
               for sign, man, exp, _ in parts]
    return ints, low


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


def _moment_fixed_point(points, alpha, radius: float, degree: int) -> tuple[np.ndarray, int]:
    """``_fixed_point`` of the moment matrix that :func:`_moment_system`
    builds at the working mpmath precision from ``mpf(points) - mpf(alpha)``
    and ``mpf(radius)``, reshaped to (M, n), bit for bit, built on raw mpf
    tuples: each offset rounded once from its exact integer difference (as
    ``mpf_sub`` rounds it) and divided by the radius, the per-axis power
    tables by running ``mpf_mul``, then the exponent gather multiplied left
    to right, as ``_moment_system`` does."""
    import mpmath as mp
    from mpmath.libmp import fone, from_float, from_man_exp, mpf_div, mpf_mul, round_nearest

    prec, rnd = mp.mp.prec, round_nearest
    ints, low = _float_fixed_point(np.vstack([alpha, points]))
    rad = from_float(radius)
    tables = []
    for col in (ints[1:] - ints[0]).T.tolist():
        scaled = [mpf_div(from_man_exp(v, low, prec, rnd), rad, prec, rnd) for v in col]
        table = [[fone] * len(col), scaled]  # a factor 1 leaves an entry's bits
        for _ in range(2, degree + 1):
            table.append([mpf_mul(s, t, prec, rnd) for s, t in zip(table[-1], scaled)])
        tables.append(table)
    entries = []
    for expo in monomial_exponents(len(tables), degree).tolist():
        row = tables[0][expo[0]]
        for table, e in zip(tables[1:], expo[1:]):
            if e:
                row = [mpf_mul(s, t, prec, rnd) for s, t in zip(row, table[e])]
        entries += row
    ints, low = _aligned(entries)
    return ints.reshape(-1, len(points)), low


def _products(ints: np.ndarray, low: int, vec) -> list:
    """The mpf entries of ``(ints 2^low) @ vec``, ``ints`` a matrix of Python
    ints (:func:`_fixed_point`) and ``vec`` a sequence of mpf, each rounded
    once to the working precision from the exact integer dot product of one
    object-array ``@``.  ``mp.fdot`` rounds the same exact sum of exact
    products, except where its ``mpf_sum`` drops a term, one whose exponent
    lies more than 2 prec bits from the running sum's: wherever none is
    dropped, each entry equals ``mp.fdot``'s bit for bit."""
    import mpmath as mp

    vints, vlow = _fixed_point(vec)
    return [mp.mpf((s, low + vlow)) for s in ints @ vints]


def refine_weights(pr: PolyRep, cs: CenterSet, dps: int = 60):
    """The minimum-norm weights of ``pr`` to ``dps`` digits, as ``mpmath.mpf``
    aligned with ``pr.indices``, for far-field studies that need moment
    residuals far below float64's ``1e-14``.  With ``w = B^T y``, y solves
    ``B B^T y = e_0`` by mixed-precision refinement (Bjorck, *BIT* 7, 1967;
    Carson & Higham, *SIAM J. Sci. Comput.* 40(2), 2018): residuals in ``dps``
    digits from B built on raw mpf tuples straight into fixed point
    (:func:`_moment_fixed_point`, the bits of ``_moment_system`` on mpmath
    arrays), corrections from ``R^T R dy = r`` with R of a float64 QR of
    ``B^T``.  Refining y, not w, keeps w in B's row space, so minimum-norm.
    The products ``B^T y`` and ``B w`` are exact integer dot products on
    that fixed point, rounded once per entry (:func:`_products`): equal to
    ``mp.fdot``'s wherever its sum drops no term.  Stops once the residual
    no longer halves, and raises :class:`ReproductionError` if it is then
    above ``10^(10 - dps)``; ``dps`` must be an int above 15 (else
    ``ValueError``).
    """
    import mpmath as mp

    _check_dps(dps)
    pts = cs.points[pr.indices]
    rfac = np.linalg.qr(_moment_system(pts - pr.alpha, pr.radius, pr.degree)[0].T, mode="r")
    with mp.workdps(dps):
        # exact offsets: float64 ones would cap residuals at 1e-16
        ints, low = _moment_fixed_point(pts, pr.alpha, pr.radius, pr.degree)
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

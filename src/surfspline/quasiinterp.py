"""Quasi-interpolation: assembling the approximant and rate studies.

The approximant is

    T f(x) = sum_xi c_xi phi(x - xi),
    c_xi = c_{d,k} * integral  Delta^k f(alpha) a(xi, alpha) d alpha,

with the integral truncated (exactly) to the support box of the bump f and
evaluated by the 2-point Gauss rule per axis on cells sized proportionally
to the local density, so the integrand is resolved where the reproductions
vary fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centers import (CenterSet, _BLOCK, _MAX_LEVEL, _as_box, _as_points, _balls, _check_int,
                      _grid_points, _pair_distances)
from .density import _lazy_rho, validate_theorem1_params
from .kernels import KernelParams, RadialBump, laplacian_power, phi_radial
from .polyrep import ReproductionError, _weights

_SQRT3 = np.sqrt(3.0)

#: Support radius of an assembly reproduction, in units of the nearest
#: density sample.
_RADIUS_FACTOR = 1.5

#: Probe-center pairs per block of :func:`evaluate`: small enough for a
#: block's distances and kernel values to stay in cache.
_PAIR_CHUNK = 2**14


class AssemblyError(Exception):
    """Reproduction failure at a quadrature node (inadequate centers)."""


@dataclass(frozen=True)
class ApproximantDump:
    """Kernel coefficients over a center set: a read-only copy, one finite float per center."""

    centers: CenterSet
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)  # a copy: freezing it leaves the caller's
        if c.shape != (len(self.centers),):
            raise ValueError(f"need one coefficient per center ({len(self.centers)}), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def quadrature_cells(box, cells_per_rho: int, rho_at) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic dyadic subdivision of the ``(lo, hi)`` box into density-sized cells.

    Returns (centers, sides) with sides[i] a d-vector; a cell is split while
    its longest side exceeds ``rho(center) / cells_per_rho`` (``cells_per_rho``
    >= 2).  ``rho_at`` is called once per level, on the (n, d) centers of that
    level's new cells, and must return a scalar or (n,) values, all finite
    and positive (else ``ValueError`` before that level splits); a cell that
    splits is replaced in place by its 2^d children in reversed ``ndindex``
    order, so the cells come out in depth-first order.
    """
    _check_int("cells_per_rho", cells_per_rho, 2)
    lo, hi = _as_box(box)
    d = lo.shape[0]
    extent = hi - lo
    # near-cubic root cells
    n0 = np.maximum(1, np.round(extent / np.min(extent)).astype(int))
    side0 = extent / n0
    centers = lo + (_grid_points([np.arange(n) for n in n0]) + 0.5) * side0
    sides = np.tile(side0, (len(centers), 1))
    kids = _grid_points([[0.5, -0.5]] * d)
    fresh = np.ones(len(centers), dtype=bool)
    while fresh.any():
        rho, n = np.asarray(rho_at(centers[fresh]), dtype=float), int(fresh.sum())
        if rho.shape not in ((), (n,)) or not np.all(np.isfinite(rho) & (rho > 0)):
            raise ValueError(f"rho_at must return one positive finite value per cell or a scalar; "
                             f"got shape {rho.shape} for {n} cells, min {rho.min(initial=np.inf)}")
        split = np.zeros(len(centers), dtype=bool)
        split[fresh] = np.max(sides[fresh], axis=1) > rho / cells_per_rho
        reps = np.where(split, 2**d, 1)
        centers, sides = np.repeat(centers, reps, axis=0), np.repeat(sides, reps, axis=0)
        fresh = np.repeat(split, reps)
        half = sides[fresh] / 2.0
        centers[fresh] += np.tile(kids, (int(split.sum()), 1)) * half
        sides[fresh] = half
    return centers, sides


def _cell_nodes(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the 2-point Gauss rule per axis on cells with (n, d) centers c
    and sides s, cell-major and in ``ndindex`` order within a cell, and one
    weight per node."""
    vol = np.prod(s, axis=1)
    d = c.shape[1]
    offsets = _grid_points([[-0.5, 0.5]] * d)
    nodes = c[:, None, :] + offsets * (s / _SQRT3)[:, None, :]
    return nodes.reshape(-1, d), np.repeat(vol / 2**d, 2**d)


def assemble(cs: CenterSet, f: RadialBump, params: KernelParams, rho_at,
             cells_per_rho: int) -> ApproximantDump:
    """Aggregate kernel coefficients for the quasi-interpolant of f.

    The integral runs over the bump's support box ``f.center -+ f.scale``,
    which holds ``supp Delta^k f``: the 2-point Gauss rule per axis on the
    cells of :func:`quadrature_cells`, with rho read by ``rho_at`` ((n, d)
    points to (n,) values; ``field.nearest`` for a sampled field).  The
    centers, f and ``params.d`` must share one dimension (else
    ``ValueError``).  Each node where ``Delta^k f`` is not 0 gets
    reproduction weights of degree ``params.degree`` with support radius 1.5
    times its rho, read in one call (the inflation absorbs the sampling error
    of the density field; any admissible radius preserves the rates), and
    each coefficient gets the per-node additions in node order
    (``np.add.at``), as a loop over the nodes would.  The theorem's parameter
    constraints are checked by :func:`convergence_study`.
    """
    if not cs.dim == f.dim == params.d:
        raise ValueError(f"dimensions differ: centers {cs.dim}, bump {f.dim}, params.d {params.d}")
    dkf = laplacian_power(f, params.k)
    coeffs = np.zeros(len(cs))
    box = (f.center - f.scale, f.center + f.scale)
    nodes, w = _cell_nodes(*quadrature_cells(box, cells_per_rho, rho_at))
    vals = dkf(nodes)
    nodes, wv = np.compress(vals != 0.0, nodes, axis=0), np.compress(vals != 0.0, w * vals)
    radii = _RADIUS_FACTOR * rho_at(nodes)
    for s, (idx, _, counts) in zip(range(0, len(nodes), _BLOCK), _balls(cs, nodes, radii)):
        block = slice(s, s + _BLOCK)
        offsets = np.take(cs.points, idx, axis=0) - np.repeat(nodes[block], counts, axis=0)
        bounds = np.cumsum(counts).tolist()
        weights = []
        for node, radius, a, b in zip(nodes[block], radii[block], [0] + bounds, bounds):
            try:
                weights.append(_weights(cs, offsets[a:b], float(radius), params.degree))
            except ReproductionError as exc:
                raise AssemblyError(
                    f"reproduction failed at node {node.tolist()}: {exc}") from exc
        np.add.at(coeffs, idx, np.repeat(wv[block], counts) * np.concatenate(weights))
    coeffs *= params.normalization
    return ApproximantDump(centers=cs, coefficients=coeffs)


def evaluate(ad: ApproximantDump, x, params: KernelParams) -> float | np.ndarray:
    """Sum of coefficient-weighted kernel translates: float at a point, (n,) for a batch.

    The centers must be points of R^``params.d`` (else ``ValueError``).  The sum runs
    over the live centers, those with a nonzero coefficient, in index order:
    one ``ddot`` a probe, in blocks of at most ``_PAIR_CHUNK`` probe-center pairs."""
    if ad.centers.dim != params.d:
        raise ValueError(f"dimensions differ: centers {ad.centers.dim}, params.d {params.d}")
    pts, single = _as_points(x, params.d)
    out = np.empty(pts.shape[0])
    live = np.flatnonzero(ad.coefficients)
    centers, column = ad.centers.points[live], ad.coefficients[live, None]
    rows = max(1, _PAIR_CHUNK // max(1, len(live)))
    for s in range(0, len(pts), rows):
        block = phi_radial(_pair_distances(pts[s:s + rows, None, :], centers), params.d, params.k)
        out[s:s + len(block)] = (block[:, None, :] @ column)[:, 0, 0]  # one ddot a row
    return float(out[0]) if single else out


def error_bound_map(rho_at, f: RadialBump, k: int, points) -> float | np.ndarray:
    """Per-point bound shape ``rho_at(points)^(2k) * sup|Delta^k f|`` (unit constant)."""
    sup = laplacian_power(f, k).sup_norm()
    return rho_at(points) ** (2 * k) * sup


@dataclass(frozen=True)
class StudyResult:
    js: tuple[int, ...]
    global_errors: np.ndarray
    defect_errors: np.ndarray | None
    global_slope: float
    defect_slope: float | None


def fit_slope(js, errors) -> float:
    """Least-squares slope of log2(error) against -j (positive = decay rate)."""
    js = np.asarray(js, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return float(-np.polyfit(js, np.log2(errors), 1)[0])


def _level(j: int, cs: CenterSet, f: RadialBump, params: KernelParams, cells_per_rho: int,
           points: np.ndarray, samples: np.ndarray | None) -> np.ndarray:
    """The (n,) absolute errors at the (n, d) ``points`` of the approximant of
    f on the centers ``cs``, its minimal density sampled at ``samples`` (by
    default the centers inside the bump's support box grown by half the
    bump's scale on every side) and measured only at the samples that the
    quadrature's cells and nodes read (:func:`~surfspline.density._lazy_rho`).
    A level j with no sample raises ``ValueError``."""
    margin = 0.5 * f.scale
    lo, hi = f.center - f.scale - margin, f.center + f.scale + margin
    if samples is None:
        inside = np.all((cs.points >= lo) & (cs.points <= hi), axis=1)
        samples = np.compress(inside, cs.points, axis=0)
    if len(samples) == 0:
        raise ValueError(f"level j = {j} has no density sample (by default the centers in the "
                         f"box {lo.tolist()} .. {hi.tolist()}, the bump's support grown by half "
                         "its scale); pass density_points_factory returning samples there")
    dump = assemble(cs, f, params, _lazy_rho(cs, samples, params.degree), cells_per_rho)
    return np.abs(evaluate(dump, points, params) - f(points))


def convergence_study(
    js,
    center_factory,
    f: RadialBump,
    params: KernelParams,
    epsilon: float,
    probes,
    cells_per_rho: int = 4,
    defect=None,
    density_points_factory=None,
) -> StudyResult:
    """Sup-error versus refinement level, with optional defect-point tracking.

    ``params.degree`` is the degree of the minimal density and of the
    assembly.  Every input is checked before level 1: a level that is not an
    integer of at most ``_MAX_LEVEL`` in modulus, a violated constraint of
    the pointwise theorem, a bump of another dimension than ``params.d``
    or too rough for ``Delta^k``, ``cells_per_rho`` below 2, or ``probes``
    or a ``defect`` that is not one point (d,) or a nonempty set (n, d) of
    finite coordinates raises ``ValueError`` before ``center_factory`` is
    first called.  Each j is one :func:`_level` call on the centers
    ``center_factory(j)`` and the density samples
    ``density_points_factory(j)`` (a point or batch; by default the centers
    inside the inflated support box of f), of which only those that the
    quadrature reads are measured, so no other can fail the study; a level
    with none raises ``ValueError``.  The study records the sup of the errors
    over the probes and their maximum over the defect; slopes are
    least-squares fits of log2(error) against -j.
    """
    js = tuple(_check_int("j", j, -_MAX_LEVEL, _MAX_LEVEL) for j in js)
    if len(set(js)) < 3:
        raise ValueError(f"need a sweep of at least 3 distinct levels, got js = {list(js)}")
    validate_theorem1_params(params.k, params.d, params.degree, epsilon)
    if f.dim != params.d:
        raise ValueError(f"dimensions differ: bump {f.dim}, params.d {params.d}")
    laplacian_power(f, params.k)  # raises for a boundary order below 2k + 2
    sets = [_as_points(s, params.d)[0] for s in ([probes] if defect is None else [probes, defect])]
    if min(map(len, sets)) == 0:
        raise ValueError("probes and defect must each hold at least one point")
    _check_int("cells_per_rho", cells_per_rho, 2)
    points = np.concatenate(sets)
    errors = np.array([
        _level(j, center_factory(j), f, params, cells_per_rho, points,
               None if density_points_factory is None
               else _as_points(density_points_factory(j), params.d)[0])
        for j in js])
    n = len(sets[0])
    g_errors = errors[:, :n].max(axis=1)
    d_errors = errors[:, n:].max(axis=1) if defect is not None else None
    return StudyResult(js=js, global_errors=g_errors, defect_errors=d_errors,
                       global_slope=fit_slope(js, g_errors),
                       defect_slope=fit_slope(js, d_errors) if defect is not None else None)

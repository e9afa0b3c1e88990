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

from .centers import CenterSet, _BLOCK, _as_box, _as_points, _balls, _grid_points, _pair_distances
from .density import DensityField, _LazyField, validate_theorem1_params
from .kernels import KernelParams, RadialBump, laplacian_power, phi_radial
from .polyrep import ReproductionError, _serial_blas, _weights

_SQRT3 = np.sqrt(3.0)

#: Support radius of an assembly reproduction, in units of the nearest
#: density sample.
_RADIUS_FACTOR = 1.5

#: Probe-center pairs per block of :func:`evaluate`: small enough for a
#: block's distances and kernel values to stay in cache.
_PAIR_CHUNK = 2**14

#: Entries of :func:`evaluate`'s buffer of full rows (512 KB), which holds 0
#: at the centers whose coefficient is 0.
_ROW_BUFFER = 2**16


class AssemblyError(Exception):
    """Reproduction failure at a quadrature node (inadequate centers)."""


@dataclass(frozen=True)
class ApproximantDump:
    """Aggregated kernel coefficients over a center set."""

    centers: CenterSet
    coefficients: np.ndarray


def quadrature_cells(box, cells_per_rho: int, rho_at) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic dyadic subdivision of the ``(lo, hi)`` box into density-sized cells.

    Returns (centers, sides) with sides[i] a d-vector; a cell is split while
    its longest side exceeds ``rho(center) / cells_per_rho`` (``cells_per_rho``
    >= 2).  ``rho_at`` is called once per level, on the (n, d) centers of that
    level's new cells; a cell that splits is replaced in place by its 2^d
    children in reversed ``ndindex`` order, so the cells come out in
    depth-first order.
    """
    if cells_per_rho < 2:
        raise ValueError("cells_per_rho must be >= 2")
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
        split = np.zeros(len(centers), dtype=bool)
        split[fresh] = ~(np.max(sides[fresh], axis=1) <= rho_at(centers[fresh]) / cells_per_rho)
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


def assemble(cs: CenterSet, f: RadialBump, params: KernelParams, density: DensityField,
             cells_per_rho: int) -> ApproximantDump:
    """Aggregate kernel coefficients for the quasi-interpolant of f.

    The integral runs over the bump's support box ``f.center -+ f.scale``,
    which holds ``supp Delta^k f``: the 2-point Gauss rule per axis on the
    cells of :func:`quadrature_cells`, with rho read off the density's
    nearest samples.  The centers, f, ``params.d`` and the density must
    share one dimension (else ``ValueError``).  The nodes of all cells, their
    values of ``Delta^k f`` and their nearest density samples are taken at
    once, and nodes where the value is 0 dropped.
    Each other node gets reproduction weights of degree ``params.degree`` with
    support radius 1.5 times its nearest density sample (the inflation
    absorbs the sampling error of the density field; any admissible radius
    preserves the rates).  Per block of nodes of one ball query
    (:func:`~surfspline.centers._balls`): one solve-memo lookup per node in
    cell order (lattice geometry recurs; a hit is bit for bit a fresh solve),
    and one ``np.add.at`` in node order, so every coefficient gets the
    per-node additions in their order.  The theorem's parameter constraints
    are checked by :func:`convergence_study`, not here.
    """
    if not cs.dim == f.dim == params.d == density.dim:
        raise ValueError(f"dimensions differ: centers {cs.dim}, bump {f.dim}, "
                         f"params.d {params.d}, density {density.dim}")
    dkf = laplacian_power(f, params.k)
    coeffs = np.zeros(len(cs))
    box = (f.center - f.scale, f.center + f.scale)
    nodes, w = _cell_nodes(*quadrature_cells(box, cells_per_rho, density.nearest))
    vals = dkf(nodes)
    nodes, wv = np.compress(vals != 0.0, nodes, axis=0), np.compress(vals != 0.0, w * vals)
    radii = _RADIUS_FACTOR * density.nearest(nodes)
    with _serial_blas():
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

    The centers must lie in R^``params.d`` (else ``ValueError``).  Kernel
    values are computed only at the live centers, those with a nonzero
    coefficient, in blocks of at most ``_PAIR_CHUNK`` probe-center pairs and
    ``_ROW_BUFFER`` entries of full rows: a block's values are scattered into
    a buffer of full rows that holds 0 at the other centers, and each row's
    sum is one ``ddot`` with the coefficients over the full row, the one
    ``coefficients @ row`` takes: the zero terms stay zeros, so the sum keeps
    its bits."""
    if ad.centers.dim != params.d:
        raise ValueError(f"dimensions differ: centers {ad.centers.dim}, params.d {params.d}")
    pts, single = _as_points(x, params.d)
    out = np.empty(pts.shape[0])
    live = np.flatnonzero(ad.coefficients)
    centers = ad.centers.points[live]
    n = len(ad.coefficients)
    rows = max(1, min(_PAIR_CHUNK // max(1, len(live)), _ROW_BUFFER // n))
    buf = np.zeros((min(rows, len(pts)), n))
    column = ad.coefficients[:, None]
    for s in range(0, len(pts), rows):
        block = phi_radial(_pair_distances(pts[s:s + rows, None, :], centers), params.d, params.k)
        buf[:len(block), live] = block
        out[s:s + len(block)] = (buf[:len(block), None, :] @ column)[:, 0, 0]  # one ddot a row
    return float(out[0]) if single else out


def error_bound_map(density: DensityField, f: RadialBump, k: int, points) -> float | np.ndarray:
    """Per-point bound shape rho(x)^(2k) * sup|Delta^k f| (unit constant)."""
    sup = laplacian_power(f, k).sup_norm()
    return density.nearest(points) ** (2 * k) * sup


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


def _level(cs: CenterSet, f: RadialBump, params: KernelParams, cells_per_rho: int,
           points: np.ndarray, samples: np.ndarray | None) -> np.ndarray:
    """The (n,) absolute errors at the (n, d) ``points`` of the approximant of
    f on the centers ``cs``, its minimal density sampled at ``samples`` (by
    default the centers inside the bump's support box grown by half the
    bump's scale on every side) and measured only at the samples that the
    quadrature's cells and nodes read (:class:`~surfspline.density._LazyField`)."""
    if samples is None:
        lo, hi = f.center - f.scale, f.center + f.scale
        margin = 0.5 * f.scale
        inside = np.all((cs.points >= lo - margin) & (cs.points <= hi + margin), axis=1)
        samples = np.compress(inside, cs.points, axis=0)
    dump = assemble(cs, f, params, _LazyField(cs, samples, params.degree), cells_per_rho)
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
    assembly.  Every input is checked before level 1: a violated constraint
    of the pointwise theorem, a bump of another dimension than ``params.d``
    or too rough for ``Delta^k``, ``cells_per_rho`` below 2, or ``probes``
    or a ``defect`` that is not one point (d,) or a nonempty set (n, d) of
    finite coordinates raises ``ValueError`` before ``center_factory`` is
    first called.  Each j is one :func:`_level` call: it gets the centers
    ``center_factory(j)`` and the density samples (the point or batch
    ``density_points_factory(j)``, by default the centers inside the
    inflated support box of f), measures the minimal density only at the
    samples nearest some quadrature cell or node (so a sample that none reads
    cannot fail the study), and returns the errors at the probes and the
    defect points, stacked so that one evaluation serves both.  The
    study records their sup over the probes and their maximum over the
    defect; slopes are least-squares fits of log2(error) against -j.
    """
    js = tuple(int(j) for j in js)
    if len(set(js)) < 3:
        raise ValueError(f"need a sweep of at least 3 distinct levels, got js = {list(js)}")
    violations = validate_theorem1_params(params.k, params.d, params.degree, epsilon)
    if violations:
        raise ValueError("; ".join(violations))
    if f.dim != params.d:
        raise ValueError(f"dimensions differ: bump {f.dim}, params.d {params.d}")
    laplacian_power(f, params.k)  # raises for a boundary order below 2k + 2
    sets = [_as_points(s, params.d)[0] for s in ([probes] if defect is None else [probes, defect])]
    if min(map(len, sets)) == 0:
        raise ValueError("probes and defect must each hold at least one point")
    if cells_per_rho < 2:
        raise ValueError("cells_per_rho must be >= 2")
    points = np.concatenate(sets)
    errors = np.array([
        _level(center_factory(j), f, params, cells_per_rho, points,
               None if density_points_factory is None
               else _as_points(density_points_factory(j), params.d)[0])
        for j in js])
    n = len(sets[0])
    g_errors = errors[:, :n].max(axis=1)
    d_errors = errors[:, n:].max(axis=1) if defect is not None else None
    return StudyResult(js=js, global_errors=g_errors, defect_errors=d_errors,
                       global_slope=fit_slope(js, g_errors),
                       defect_slope=fit_slope(js, d_errors) if defect is not None else None)

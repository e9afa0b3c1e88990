"""Quasi-interpolation: assembling the approximant and rate studies.

The approximant is

    T f(x) = sum_xi c_xi phi(x - xi),
    c_xi = c_{d,k} * integral  Delta^k f(alpha) a(xi, alpha) d alpha,

with the integral truncated (exactly) to the support of ``Delta^k f`` and
evaluated by a composite rule on cells sized proportionally to the local
density, so the integrand is resolved where the reproductions vary fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .centers import CenterSet, _as_points
from .density import DensityField, minimal_density, validate_theorem1_params
from .kernels import KernelParams, RadialBump, laplacian_power, phi_radial
from .polyrep import ReproductionError, build_reproduction

_SQRT3 = np.sqrt(3.0)

#: Support radius of an assembly reproduction, in units of the nearest
#: density sample.
_RADIUS_FACTOR = 1.5


class AssemblyError(Exception):
    """Reproduction failure at a quadrature node (inadequate centers)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite quadrature on density-proportional cells.

    cells_per_rho -- target cell size = local rho / cells_per_rho (>= 2)
    rule          -- "midpoint" or "gauss2" (2-point Gauss per axis)
    domain        -- (lo, hi) bounding box of supp Delta^k f
    """

    cells_per_rho: int
    rule: str
    domain: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.cells_per_rho < 2:
            raise ValueError("cells_per_rho must be >= 2")
        if self.rule not in ("midpoint", "gauss2"):
            raise ValueError("rule must be 'midpoint' or 'gauss2'")
        lo = np.asarray(self.domain[0], dtype=float).reshape(-1)
        hi = np.asarray(self.domain[1], dtype=float).reshape(-1)
        if not np.all(hi > lo):
            raise ValueError("domain must satisfy hi > lo")
        object.__setattr__(self, "domain", (lo, hi))


@dataclass(frozen=True)
class ApproximantDump:
    """Aggregated kernel coefficients over a center set."""

    centers: CenterSet
    coefficients: np.ndarray


def quadrature_cells(qs: QuadratureSpec, rho_at) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic dyadic subdivision of the domain into density-sized cells.

    Returns (centers, sides) with sides[i] a d-vector; a cell is split while
    its longest side exceeds ``rho(center) / cells_per_rho``.
    """
    lo, hi = qs.domain
    d = lo.shape[0]
    extent = hi - lo
    # near-cubic root cells
    n0 = np.maximum(1, np.round(extent / np.min(extent)).astype(int))
    side0 = extent / n0
    stack = []
    for idx in np.ndindex(*n0):
        stack.append((lo + (np.array(idx) + 0.5) * side0, side0.copy()))
    stack.reverse()
    centers, sides = [], []
    while stack:
        c, s = stack.pop()
        if np.max(s) <= rho_at(c) / qs.cells_per_rho:
            centers.append(c)
            sides.append(s)
            continue
        half = s / 2.0
        for idx in np.ndindex(*(2,) * d):
            stack.append((c + (np.array(idx) - 0.5) * half, half.copy()))
    return np.array(centers), np.array(sides)


def _cell_nodes(c: np.ndarray, s: np.ndarray, rule: str) -> tuple[np.ndarray, float]:
    vol = float(np.prod(s))
    if rule == "midpoint":
        return c[None, :], vol
    d = c.shape[0]
    offsets = np.array(list(np.ndindex(*(2,) * d))) - 0.5
    nodes = c + offsets * (s / _SQRT3)
    return nodes, vol / 2**d


def assemble(
    cs: CenterSet,
    f: RadialBump,
    params: KernelParams,
    qs: QuadratureSpec,
    density: DensityField,
) -> ApproximantDump:
    """Aggregate kernel coefficients for the quasi-interpolant of f.

    At each quadrature node a reproduction of degree ``params.degree`` is
    built with support radius 1.5 times the nearest density sample (the
    inflation absorbs the sampling error of the density field; any
    admissible radius preserves the rates).  Nodes whose neighbor
    offsets, radius and degree match an earlier solve exactly (lattice
    geometry recurs at many nodes) reuse its weights from the center set's
    solve memo, bit for bit what a fresh solve would return.  The theorem's
    parameter constraints are checked by :func:`convergence_study`, not here.
    """
    dkf = laplacian_power(f, params.k)
    coeffs = np.zeros(len(cs))
    centers_arr, sides_arr = quadrature_cells(qs, density.nearest)
    for c, s in zip(centers_arr, sides_arr):
        nodes, w = _cell_nodes(c, s, qs.rule)
        vals = dkf(nodes)
        for node, v in zip(nodes, vals):
            if v == 0.0:
                continue
            radius = _RADIUS_FACTOR * density.nearest(node)
            try:
                pr = build_reproduction(cs, node, radius, params.degree)
            except ReproductionError as exc:
                raise AssemblyError(f"reproduction failed at node {node.tolist()}: {exc}") from exc
            coeffs[pr.indices] += (w * v) * pr.weights
    coeffs *= params.normalization
    return ApproximantDump(centers=cs, coefficients=coeffs)


def evaluate(ad: ApproximantDump, x, params: KernelParams) -> float | np.ndarray:
    """Sum of coefficient-weighted kernel translates: float at a point, (n,) for a batch."""
    pts, single = _as_points(x, params.d)
    out = np.empty(pts.shape[0])
    centers = ad.centers.points
    for i, p in enumerate(pts):
        r = np.linalg.norm(centers - p, axis=1)
        out[i] = float(ad.coefficients @ phi_radial(r, params.d, params.k))
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


def convergence_study(
    js,
    center_factory,
    f: RadialBump,
    params: KernelParams,
    epsilon: float,
    probes,
    cells_per_rho: int = 4,
    rule: str = "gauss2",
    defect=None,
    density_points_factory=None,
) -> StudyResult:
    """Sup-error versus refinement level, with optional defect-point tracking.

    ``params.degree`` is the degree of the minimal density and of the
    assembly; a violated constraint of the pointwise theorem or a bad
    quadrature (``cells_per_rho``, ``rule``) raises ``ValueError`` before any
    level is generated.  For each j: generate
    centers, measure the minimal density on a sample set (by default the
    centers inside the inflated quadrature domain), assemble the approximant,
    and record the sup error over ``probes`` and the error at ``defect``;
    ``probes`` is one point (d,) or a batch (n, d).  Slopes are least-squares
    fits of log2(error) against -j.
    """
    js = tuple(int(j) for j in js)
    if len(set(js)) < 3:
        raise ValueError(f"need a sweep of at least 3 distinct levels, got js = {list(js)}")
    violations = validate_theorem1_params(params.k, params.d, params.degree, epsilon)
    if violations:
        raise ValueError("; ".join(violations))
    lo = f.center - f.scale
    hi = f.center + f.scale
    qs = QuadratureSpec(cells_per_rho=cells_per_rho, rule=rule, domain=(lo, hi))
    g_errors, d_errors = [], []
    for j in js:
        cs = center_factory(j)
        if density_points_factory is not None:
            sample_pts = np.atleast_2d(np.asarray(density_points_factory(j), dtype=float))
        else:
            margin = 0.5 * f.scale
            inside = np.all((cs.points >= lo - margin) & (cs.points <= hi + margin), axis=1)
            sample_pts = cs.points[inside]
        rho = np.empty(sample_pts.shape[0])
        for i, p in enumerate(sample_pts):
            rho[i], _ = minimal_density(cs, p, params.degree)
        density = DensityField(sample_pts, rho)
        dump = assemble(cs, f, params, qs, density)
        approx = evaluate(dump, probes, params)
        exact = f(probes)
        g_errors.append(float(np.max(np.abs(approx - exact))))
        if defect is not None:
            dpt = np.asarray(defect, dtype=float).reshape(-1)
            d_errors.append(abs(evaluate(dump, dpt, params) - f(dpt)))
    g_errors = np.array(g_errors)
    result_defect = np.array(d_errors) if defect is not None else None
    return StudyResult(
        js=js,
        global_errors=g_errors,
        defect_errors=result_defect,
        global_slope=fit_slope(js, g_errors),
        defect_slope=fit_slope(js, result_defect) if defect is not None else None,
    )

"""Quasi-interpolation assembly, evaluation, and convergence studies."""

import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfspline import (
    ApproximantDump,
    CenterSet,
    DensityField,
    KernelParams,
    assemble,
    bump,
    error_bound_map,
    evaluate,
    fit_slope,
    laplacian_power,
    minimal_density,
    phi,
    quadrature_cells,
)


def uniform_1d(j, half=2.5):
    h = 2.0**-j
    return CenterSet(np.arange(np.ceil(-half / h), np.floor(half / h) + 1) * h)


def density_for(cs, degree, lo=-1.6, hi=1.6):
    inside = np.all((cs.points >= lo) & (cs.points <= hi), axis=1)
    pts = cs.points[inside]
    rho = np.array([minimal_density(cs, p, degree)[0] for p in pts])
    return DensityField(pts, rho)


def test_quadrature_spec_validation():
    # quadrature_cells checks its cell count and its box before any rho_at call
    def rho_at(c):
        pytest.fail("rho_at ran before the check")

    with pytest.raises(ValueError, match="cells_per_rho must be >= 2"):
        quadrature_cells(([0.0], [1.0]), 1, rho_at)
    with pytest.raises(ValueError, match="box must be"):
        quadrature_cells(([1.0], [0.0]), 4, rho_at)


def test_quadrature_cells_cover_and_size():
    centers, sides = quadrature_cells(([-1.0], [1.0]), 2, lambda c: 0.5)
    assert np.sum(sides[:, 0]) == pytest.approx(2.0)  # exact cover
    assert np.all(sides <= 0.25 + 1e-15)


def test_quadrature_integral_of_laplacian_vanishes():
    # integral of Delta f over a region containing supp f is 0 (divergence
    # theorem); the gauss2 composite error shrinks at 4th order in the cell size
    from surfspline.quasiinterp import _cell_nodes

    f = bump(5, [0.0], 1.0)
    df = laplacian_power(f, 1)
    totals = []
    for cpr in (8, 16):
        nodes, w = _cell_nodes(*quadrature_cells(([-1.0], [1.0]), cpr, lambda c: 0.5))
        totals.append(abs(float(np.sum(w * df(nodes)))))
    assert totals[0] <= 1e-3
    assert totals[1] <= totals[0] / 8.0


def test_assemble_zero_function():
    cs = uniform_1d(3)
    density = density_for(cs, 4)
    params = KernelParams(d=1, k=1, degree=4)
    from surfspline.kernels import RadialBump

    zero = RadialBump(exponent=5, center=np.zeros(1), scale=1.0, coeffs=np.zeros(6))
    dump = assemble(cs, zero, params, density.nearest, 4)
    assert np.all(dump.coefficients == 0.0)
    assert evaluate(dump, [0.3], params) == 0.0


def test_assemble_linearity():
    cs = uniform_1d(3)
    density = density_for(cs, 4)
    params = KernelParams(d=1, k=1, degree=4)
    from surfspline.kernels import RadialBump

    f1 = bump(5, [0.0], 1.0)
    f2 = bump(6, [0.0], 1.0)
    fsum = RadialBump(exponent=5, center=np.zeros(1), scale=1.0,
                      coeffs=np.polynomial.polynomial.polyadd(f1.coeffs, f2.coeffs))
    c1 = assemble(cs, f1, params, density.nearest, 4).coefficients
    c2 = assemble(cs, f2, params, density.nearest, 4).coefficients
    cs_sum = assemble(cs, fsum, params, density.nearest, 4).coefficients
    assert np.max(np.abs(cs_sum - (c1 + c2))) <= 1e-12 * max(1.0, np.max(np.abs(c1 + c2)))


@pytest.mark.parametrize("d", [1, 2])
def test_assemble_reads_any_reader(d):
    # a plain constant reader and the reader of a constant sampled field give
    # the same coefficients, bit for bit: assemble reads rho only through it
    r0 = 0.4
    ax = np.arange(-2.0, 2.01, 0.125)
    cs = CenterSet(np.stack([m.ravel() for m in np.meshgrid(*[ax] * d, indexing="ij")], axis=1))
    k, degree = ORDERS[d]
    params = KernelParams(d=d, k=k, degree=degree)
    f = bump(2 * k + 2, [0.1] * d, 1.0)
    samples = np.random.default_rng(d).uniform(-1.5, 1.5, size=(25, d))
    plain = assemble(cs, f, params, lambda p: np.full(len(p), r0), 4).coefficients
    field = assemble(cs, f, params, DensityField(samples, np.full(25, r0)).nearest, 4)
    assert np.any(plain != 0.0)
    assert plain.tobytes() == field.coefficients.tobytes()


def test_evaluate_trivial_cases():
    cs = CenterSet([0.0, 1.0, 2.0])
    params = KernelParams(d=1, k=1, degree=4)
    dump = ApproximantDump(centers=cs, coefficients=np.zeros(3))
    assert evaluate(dump, [0.7], params) == 0.0
    one = ApproximantDump(centers=cs, coefficients=np.array([0.0, 1.0, 0.0]))
    assert evaluate(dump, [0.7], params) == 0.0
    assert evaluate(one, [0.7], params) == pytest.approx(
        phi(np.array([0.7 - 1.0]), params))


def test_dump_copies_and_freezes_coefficients():
    cs = CenterSet([0.0, 1.0, 2.0])
    caller = np.array([1.0, -2.0, 0.5])
    dump = ApproximantDump(centers=cs, coefficients=caller)
    assert caller.flags.writeable and not dump.coefficients.flags.writeable
    with pytest.raises(ValueError):
        dump.coefficients[0] = 0.0
    caller[0] = 9.0  # the caller's edit does not reach the dump
    assert dump.coefficients.tolist() == [1.0, -2.0, 0.5]
    listed = ApproximantDump(centers=cs, coefficients=[1, -2, 0.5])  # any float-like sequence
    assert listed.coefficients.dtype == float
    assert listed.coefficients.tobytes() == dump.coefficients.tobytes()


def test_evaluate_brute_force():
    rng = np.random.default_rng(30)
    cs = CenterSet(rng.uniform(-1, 1, size=(15, 2)))
    coeffs = rng.normal(size=15)
    params = KernelParams(d=2, k=2, degree=14)
    dump = ApproximantDump(centers=cs, coefficients=coeffs)
    x = np.array([0.3, -0.4])
    brute = sum(c * phi(x - p, params) for c, p in zip(coeffs, cs.points))
    assert evaluate(dump, x, params) == pytest.approx(brute, rel=1e-13)


def test_error_bound_map_scaling():
    f = bump(6, [0.0], 1.0)
    pts = np.linspace(-0.5, 0.5, 9)[:, None]
    df1 = DensityField(pts, np.full(9, 0.2))
    df2 = DensityField(pts, np.full(9, 0.1))
    k = 2
    b1 = error_bound_map(df1.nearest, f, k, pts)
    b2 = error_bound_map(df2.nearest, f, k, pts)
    assert np.allclose(b2 / b1, 2.0 ** (-2 * k))


def test_error_bound_map_value():
    f = bump(6, [0.0], 1.0)
    sup = laplacian_power(f, 2).sup_norm()
    df = DensityField(np.zeros((1, 1)), np.array([2.0**-6]))
    b = error_bound_map(df.nearest, f, 2, np.zeros((1, 1)))
    assert b[0] == pytest.approx(2.0**-24 * sup)


def test_fit_slope():
    js = [3, 4, 5, 6]
    errors = [2.0 ** (-2 * j) for j in js]
    assert fit_slope(js, errors) == pytest.approx(2.0)


def test_quadrature_refinement_cauchy():
    # errors for cells_per_rho 2 -> 4 -> 8 form a Cauchy sequence
    cs = uniform_1d(4)
    density = density_for(cs, 4)
    params = KernelParams(d=1, k=1, degree=4)
    f = bump(5, [0.0], 1.0)
    probes = np.linspace(-1.2, 1.2, 121)[:, None]
    errs = []
    for cpr in (2, 4, 8):
        dump = assemble(cs, f, params, density.nearest, cpr)
        errs.append(float(np.max(np.abs(evaluate(dump, probes, params) - f(probes)))))
    assert abs(errs[2] - errs[1]) <= abs(errs[1] - errs[0]) + 1e-12


def test_uniform_convergence_d1():
    from surfspline import convergence_study

    f = bump(5, [0.0], 1.0)
    params = KernelParams(d=1, k=1, degree=4)
    probes = np.linspace(-1.2, 1.2, 241)[:, None]
    res = convergence_study([3, 4, 5], uniform_1d, f, params, epsilon=0.6, probes=probes)
    assert res.global_slope >= 1.5
    assert np.all(np.diff(res.global_errors) < 0)


def uniform_2d(j):
    ax = np.arange(-2 * 2**j, 2 * 2**j + 1) * 2.0**-j
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))


def test_uniform_convergence_d2():
    # the 2-D rate study: rate 2k = 4 on 2^-j grids of [-2, 2]^2
    from surfspline import convergence_study

    t0 = time.perf_counter()
    k = 2
    f = bump(6, [0.0, 0.0], 1.0)
    params = KernelParams(d=2, k=k, degree=7)
    xs = np.linspace(-1.2, 1.2, 41)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    probes = np.stack([gx.ravel(), gy.ravel()], axis=1)
    res = convergence_study([1, 2, 3], uniform_2d, f, params, epsilon=0.6, probes=probes)
    elapsed = time.perf_counter() - t0
    assert np.all(np.diff(res.global_errors) < 0)
    assert res.global_slope >= 0.75 * 2 * k
    assert elapsed < 10.0, f"2-D rate study took {elapsed:.1f}s, budget 10s"


def test_convergence_study_checks_theorem_params_before_placing_centers():
    # epsilon 0.2 at degree 7, k = 2 violates epsilon > 2k/degree = 4/7
    from surfspline import convergence_study

    def factory(j):
        pytest.fail("center_factory ran before the parameter check")

    params = KernelParams(d=2, k=2, degree=7)
    with pytest.raises(ValueError, match="epsilon 0.2 must exceed 2k/degree"):
        convergence_study([1, 2, 3], factory, bump(6, [0.0, 0.0], 1.0), params,
                          epsilon=0.2, probes=np.zeros(2))


@pytest.mark.parametrize("quadrature,message", [({"cells_per_rho": 1}, "cells_per_rho"),
                                                ({"f": bump(3, [0.0], 1.0)},
                                                 "bump boundary order 3 too small"),
                                                ({"probes": np.zeros((3, 2))},
                                                 r"points have shape \(3, 2\)"),
                                                ({"probes": [[np.nan]]}, "must be finite"),
                                                ({"probes": np.zeros((0, 1))},
                                                 "must each hold at least one point"),
                                                ({"defect": np.zeros((0, 1))},
                                                 "must each hold at least one point"),
                                                ({"f": bump(5, [0.0, 0.0], 1.0)},
                                                 "dimensions differ: bump 2, params.d 1")])
def test_convergence_study_checks_quadrature_before_placing_centers(quadrature, message):
    # a bump too rough for Delta^k (order 3 < 2k + 2 = 4) or of another
    # dimension, and probes or a defect set that are not nonempty finite
    # points, are rejected up front too
    from surfspline import convergence_study

    def factory(j):
        pytest.fail("center_factory ran before the quadrature check")

    params = KernelParams(d=1, k=1, degree=4)
    kwargs = {"f": bump(5, [0.0], 1.0), "probes": np.zeros(1), **quadrature}
    with pytest.raises(ValueError, match=message):
        convergence_study([3, 4, 5], factory, params=params, epsilon=0.6, **kwargs)


def uniform_1d(j):
    h = 2.0**-j
    return CenterSet(np.arange(-2.5, 2.5 + h / 2, h))


def test_study_density_points_factory():
    # the density sampled at every other center instead of the default set
    from surfspline import convergence_study

    params = KernelParams(d=1, k=1, degree=4)
    probes = np.linspace(-1.2, 1.2, 41)[:, None]
    asked = []

    def samples(j):
        asked.append(j)
        return uniform_1d(j).points[::2]

    res = convergence_study([3, 4, 5], uniform_1d, bump(5, [0.0], 1.0), params, 0.6, probes,
                            density_points_factory=samples)
    assert asked == [3, 4, 5]
    assert np.all(np.isfinite(res.global_errors))
    assert np.all(np.diff(res.global_errors) < 0)


@pytest.mark.parametrize("samples", [None, lambda j: np.zeros((0, 1))], ids=["default", "factory"])
def test_study_level_without_density_sample(samples):
    # the bump's support box grown by half its scale, [0.045, 0.075], holds no
    # center of the 2^-3 lattice, and a factory may return no point: the
    # study names the level and the box instead of an empty point set
    from surfspline import convergence_study

    params = KernelParams(d=1, k=1, degree=4)
    message = ("level j = 3 has no density sample (by default the centers in the box "
               "[0.045] .. [0.075], the bump's support grown by half its scale); "
               "pass density_points_factory")
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_study([3, 4, 5], uniform_1d, bump(5, [0.06], 0.01), params, 0.6,
                          np.zeros((1, 1)), density_points_factory=samples)


def test_flat_sample_set_rejected_in_1d():
    # (n,) in R^1 is neither one point (1,) nor a batch (n, 1)
    from surfspline import MultiresSpec, convergence_study, density_profile_check

    params = KernelParams(d=1, k=1, degree=4)
    with pytest.raises(ValueError, match=r"points have shape \(21,\)"):
        convergence_study([3, 4, 5], uniform_1d, bump(5, [0.0], 1.0), params, 0.6,
                          np.zeros((1, 1)),
                          density_points_factory=lambda j: uniform_1d(j).points[::2, 0])
    spec = MultiresSpec(j=1, k=1, d=1, defect=[[0.0]], box=([-8.0], [8.0]))
    with pytest.raises(ValueError, match=r"points have shape \(3,\)"):
        density_profile_check(uniform_1d(2), spec, np.array([0.5, 1.0, 1.5]))


def test_study_defect_set_takes_worst_point():
    # the error at a defect set is the max over its points; one defect point,
    # or one probe, as (d,) or (1, d) gives the same bits
    from surfspline import convergence_study

    params = KernelParams(d=1, k=1, degree=4)
    f = bump(5, [0.0], 1.0)
    probes = np.linspace(-1.2, 1.2, 41)[:, None]

    def factory(j):
        return CenterSet(np.arange(-2.5, 2.5 + 2.0**-j / 2, 2.0**-j))

    def errors(defect):
        res = convergence_study([3, 4, 5], factory, f, params, 0.6, probes, defect=defect)
        return res.defect_errors

    one, other = errors([0.1]), errors([[0.3]])
    assert one.tobytes() == errors([[0.1]]).tobytes()
    assert errors([[0.1], [0.3]]).tobytes() == np.maximum(one, other).tobytes()
    with pytest.raises(ValueError, match=r"points have shape \(1, 2\)"):
        convergence_study([3, 4, 5], factory, f, params, 0.6, probes, defect=[[0.0, 1.0]])

    def result_bits(probe):
        res = convergence_study([3, 4, 5], factory, f, params, 0.6, probe, defect=[0.1])
        return res.js, np.hstack([res.global_errors, res.defect_errors, res.global_slope,
                                  res.defect_slope]).tobytes()

    assert result_bits([0.5]) == result_bits([[0.5]])


def study_bits(*args, **kwargs):
    """Every output of one ``convergence_study`` run, as bytes."""
    from surfspline import convergence_study

    res = convergence_study(*args, **kwargs)
    defect = [] if res.defect_errors is None else [res.defect_errors, res.defect_slope]
    return res.js, np.hstack([res.global_errors, res.global_slope, *defect]).tobytes()


def eager_rho(cs, samples, degree):
    """The reader of the density field with every sample measured up front."""
    return DensityField(samples, minimal_density(cs, samples, degree)[0]).nearest


@pytest.mark.parametrize("config", ["2-D uniform", "1-D multires defect set"])
def test_study_lazy_density_equals_eager(monkeypatch, config):
    # measuring only the samples the quadrature reads changes no output bit
    from surfspline import MultiresSpec, generate_centers, quasiinterp

    if config == "2-D uniform":
        xs = np.linspace(-1.2, 1.2, 21)
        probes = np.stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")], axis=1)
        args = ([1, 2, 3], uniform_2d, bump(6, [0.0, 0.0], 1.0), KernelParams(d=2, k=2, degree=7),
                0.6, probes)
        kwargs = {}
    else:
        defect = [[-0.25], [0.25]]

        def factory(j):
            return generate_centers(MultiresSpec(j=j, k=1, d=1, defect=defect,
                                                 box=([-4.0], [4.0]), degree=7))

        args = ([3, 4, 5], factory, bump(5, [0.0], 1.0), KernelParams(d=1, k=1, degree=7),
                1 / 3, np.linspace(-1.2, 1.2, 121)[:, None])
        kwargs = {"defect": defect}
    lazy = study_bits(*args, **kwargs)
    monkeypatch.setattr(quasiinterp, "_lazy_rho", eager_rho)
    assert study_bits(*args, **kwargs) == lazy


def test_lazy_density_measures_the_samples_read(monkeypatch):
    # each sample is measured once, and only if some call of the reader returned it
    from surfspline import density, quasiinterp
    from surfspline.centers import _Cloud
    from surfspline.quasiinterp import _level

    readers, read, measured = [], [], []
    lazy_rho, measure = density._lazy_rho, density.minimal_density

    def lazy_rho_spy(cs, points, degree):
        samples, rho_at = _Cloud(points), lazy_rho(cs, points, degree)

        def reader(x):
            read.append(samples._tree.query(x)[1])
            return rho_at(x)

        readers.append(samples)
        return reader

    def measure_spy(cs, alpha, degree, stability_cap=None):
        measured.append(np.array(alpha))
        return measure(cs, alpha, degree, stability_cap)

    monkeypatch.setattr(quasiinterp, "_lazy_rho", lazy_rho_spy)
    monkeypatch.setattr(density, "minimal_density", measure_spy)
    _level(2, uniform_2d(2), bump(6, [0.0, 0.0], 1.0), KernelParams(d=2, k=2, degree=7), 4,
           np.zeros((1, 2)), None)
    (samples,) = readers
    assert len(read) > 1  # the quadrature's levels and its nodes
    returned = np.unique(np.concatenate(read))
    assert 0 < len(returned) < len(samples)  # the default sample set's margin goes unread
    got = np.concatenate(measured)
    assert len(got) == len(returned)
    assert sorted(map(tuple, got)) == sorted(map(tuple, samples.points[returned]))


def test_unread_failing_sample_is_not_measured():
    # a sample at x = 100, far from the centers on [-2.5, 2.5], admits no
    # stable reproduction; no quadrature point reads it, so the study runs
    # and writes what it writes without that sample
    from surfspline import NoAdmissibleRadius

    params = KernelParams(d=1, k=1, degree=4)
    with pytest.raises(NoAdmissibleRadius, match="stability cap"):
        minimal_density(uniform_1d(3), [100.0], params.degree)
    args = ([3, 4, 5], uniform_1d, bump(5, [0.0], 1.0), params, 0.6,
            np.linspace(-1.2, 1.2, 41)[:, None])
    far = study_bits(*args, density_points_factory=lambda j: np.vstack(
        [uniform_1d(j).points, [[100.0]]]))
    assert far == study_bits(*args, density_points_factory=lambda j: uniform_1d(j).points)


# The per-probe, per-node and stack versions of evaluate, assemble and
# quadrature_cells, kept as oracles: the array-at-a-time routines must return
# their bytes.


def evaluate_by_probe(ad, x, params):
    from surfspline.centers import _as_points
    from surfspline.kernels import phi_radial

    pts, single = _as_points(x, params.d)
    out = np.empty(pts.shape[0])
    live = ad.coefficients != 0.0  # a center whose coefficient is 0 is no term
    centers, coeffs = ad.centers.points[live], ad.coefficients[live]
    for i, p in enumerate(pts):
        r = np.linalg.norm(centers - p, axis=1)
        out[i] = float(coeffs @ phi_radial(r, params.d, params.k))
    return float(out[0]) if single else out


def cells_by_stack(box, cells_per_rho, rho_at):
    lo, hi = (np.asarray(c, dtype=float) for c in box)
    d = lo.shape[0]
    extent = hi - lo
    n0 = np.maximum(1, np.round(extent / np.min(extent)).astype(int))
    side0 = extent / n0
    stack = []
    for idx in np.ndindex(*n0):
        stack.append((lo + (np.array(idx) + 0.5) * side0, side0.copy()))
    stack.reverse()
    centers, sides = [], []
    while stack:
        c, s = stack.pop()
        if np.max(s) <= rho_at(c) / cells_per_rho:
            centers.append(c)
            sides.append(s)
            continue
        half = s / 2.0
        for idx in np.ndindex(*(2,) * d):
            stack.append((c + (np.array(idx) - 0.5) * half, half.copy()))
    return np.array(centers), np.array(sides)


def assemble_by_node(cs, f, params, rho_at, cells_per_rho):
    from surfspline import polyrep, quasiinterp
    from surfspline.polyrep import ReproductionError

    def rho(p):  # one point at a time
        return rho_at(p[None])[0]

    dkf = laplacian_power(f, params.k)
    coeffs = np.zeros(len(cs))
    box = (f.center - f.scale, f.center + f.scale)
    for c, s in zip(*cells_by_stack(box, cells_per_rho, rho)):
        offsets = np.array(list(np.ndindex(*(2,) * len(c)))) - 0.5
        nodes, w = c + offsets * (s / np.sqrt(3.0)), float(np.prod(s)) / 2**len(c)
        for node, v in zip(nodes, dkf(nodes)):
            if v == 0.0:
                continue
            radius = quasiinterp._RADIUS_FACTOR * rho(node)
            try:
                pr = polyrep.build_reproduction(cs, node, radius, params.degree)
            except ReproductionError as exc:
                raise quasiinterp.AssemblyError(
                    f"reproduction failed at node {node.tolist()}: {exc}") from exc
            coeffs[pr.indices] += (w * v) * pr.weights
    coeffs *= params.normalization
    return ApproximantDump(centers=cs, coefficients=coeffs)


#: (k, degree) per dimension: the smallest order with 2k > d, a low degree.
ORDERS = {1: (1, 3), 2: (2, 3), 3: (2, 2)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 300),
       st.sampled_from(["one", "rows-1", "rows", "rows+1"]),
       st.sampled_from(["none", "+0", "-0", "all"]))
def test_evaluate_bitwise_equals_by_probe(seed, d, n, count, zeros):
    # coefficients exactly 0.0 or -0.0 on about half the centers, center 0
    # among them, or 0.0 and -0.0 on all; blocks hold rows of live centers
    from surfspline.quasiinterp import _PAIR_CHUNK

    rng = np.random.default_rng(seed)
    params = KernelParams(d=d, k=ORDERS[d][0], degree=ORDERS[d][1])
    coeffs = rng.normal(size=n)
    dead = rng.random(n) < 0.5
    dead[0] = True
    signed = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    coeffs = {"none": coeffs, "+0": np.where(dead, 0.0, coeffs),
              "-0": np.where(dead, -0.0, coeffs), "all": signed}[zeros]
    dump = ApproximantDump(CenterSet(rng.uniform(-1, 1, size=(n, d))), coeffs)
    rows = _PAIR_CHUNK // max(1, np.count_nonzero(coeffs))
    m = {"one": 1, "rows-1": max(1, rows - 1), "rows": rows, "rows+1": rows + 1}[count]
    probes = rng.uniform(-1.5, 1.5, size=(m, d))
    probes[0] = dump.centers.points[0]  # r = 0, where phi is 0 by continuity
    assert evaluate(dump, probes, params).tobytes() == \
        evaluate_by_probe(dump, probes, params).tobytes()
    assert evaluate(dump, probes[-1], params) == evaluate_by_probe(dump, probes[-1], params)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 200), st.integers(1, 200),
       st.integers(1, 40))
def test_evaluate_ignores_dead_centers(seed, d, n, extra, m):
    # centers appended with coefficient 0.0 or -0.0 are no terms of the sum:
    # the values keep their bytes
    rng = np.random.default_rng(seed)
    params = KernelParams(d=d, k=ORDERS[d][0], degree=ORDERS[d][1])
    points = rng.uniform(-1, 1, size=(n + extra, d))
    coeffs = rng.normal(size=n)
    zeros = np.where(rng.random(extra) < 0.5, 0.0, -0.0)
    probes = rng.uniform(-1.5, 1.5, size=(m, d))
    base = evaluate(ApproximantDump(CenterSet(points[:n]), coeffs), probes, params)
    grown = evaluate(ApproximantDump(CenterSet(points), np.concatenate([coeffs, zeros])),
                     probes, params)
    assert grown.tobytes() == base.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluate_bitwise_one_row_per_block(d):
    # more centers than pairs in a block: every block holds one probe
    from surfspline.quasiinterp import _PAIR_CHUNK

    rng = np.random.default_rng(d)
    n = _PAIR_CHUNK + 7
    params = KernelParams(d=d, k=ORDERS[d][0], degree=ORDERS[d][1])
    dump = ApproximantDump(CenterSet(rng.uniform(-1, 1, size=(n, d))), rng.normal(size=n))
    probes = rng.uniform(-1.5, 1.5, size=(3, d))
    assert evaluate(dump, probes, params).tobytes() == \
        evaluate_by_probe(dump, probes, params).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(2, 4), st.booleans())
def test_quadrature_cells_bitwise_equals_stack(seed, d, cells_per_rho, batch):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1.0, 0.0, size=d)
    hi = lo + rng.uniform(0.5, 2.0, size=d)  # root grids up to 4 cells an axis
    scale = float(np.max(hi - lo))
    if batch:
        field = DensityField(rng.uniform(lo, hi, size=(20, d)), rng.uniform(0.2, 0.4, 20) * scale)
        rho_at = field.nearest
    else:
        rho = rng.uniform(0.2, 1.0) * scale

        def rho_at(c):
            return rho
    centers, sides = quadrature_cells((lo, hi), cells_per_rho, rho_at)
    ref_centers, ref_sides = cells_by_stack((lo, hi), cells_per_rho, rho_at)
    assert centers.tobytes() == ref_centers.tobytes()
    assert sides.tobytes() == ref_sides.tobytes()
    assert centers.shape == ref_centers.shape == sides.shape


def test_quadrature_cells_calls_rho_once_per_level():
    seen = []

    def rho_at(c):
        seen.append(np.shape(c))
        return 0.9 * np.linalg.norm(c, axis=1) + 0.05

    centers, sides = quadrature_cells(([-1.0, -1.0], [1.0, 1.0]), 2, rho_at)
    levels = np.unique(np.log2(2.0 / sides[:, 0]))  # one root cell of side 2
    assert len(seen) == levels.max() + 1 and len(levels) > 2
    assert seen[0] == (1, 2) and all(len(s) == 2 and s[1] == 2 for s in seen)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_assemble_bitwise_equals_by_node(count_solves, seed, d):
    # assemble takes its nodes in blocks of one ball query (rows by index):
    # one solve-memo lookup per node in cell order, where a hit is bit for bit
    # a fresh solve in any row order, and one np.add.at in node order, so each
    # coefficient gets the per-node additions of the loop in their order
    rng = np.random.default_rng(seed)
    k, degree = ORDERS[d]
    params = KernelParams(d=d, k=k, degree=degree)
    h = 0.25 if d < 3 else 0.5
    ax = np.arange(-2.0, 2.0 + h / 2, h)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[ax] * d, indexing="ij")], axis=1)
    cs = CenterSet(grid + rng.uniform(-0.2, 0.2, size=grid.shape) * h)
    f = bump(2 * k + 2, rng.uniform(-0.2, 0.2, size=d), 1.0)
    density = DensityField(rng.uniform(-1.2, 1.2, size=(30, d)),
                           rng.uniform(2.5, 4.0, size=30) * h)
    got = assemble(cs, f, params, density.nearest, 2).coefficients
    assert got.tobytes() == assemble_by_node(cs, f, params, density.nearest,
                                             2).coefficients.tobytes()
    # on fresh sets the memo absorbs the same repeats: as many solves
    solves = []
    for run in (assemble, assemble_by_node):
        count_solves.clear()
        run(CenterSet(cs.points), f, params, density.nearest, 2)
        solves.append(len(count_solves))
    assert solves[0] == solves[1] > 0


def test_assemble_fails_at_the_same_node(monkeypatch):
    # a hole in the centers under the domain, in the quadrant the depth-first
    # cell order visits last: assemble fails at the same node as the per-node
    # loop, after the same solves, and never takes the ball of (so never
    # solves) a node where Delta^k f is 0 (the corners of the square domain).
    # A solve is its offsets, rows sorted (assemble's balls come by index,
    # build_reproduction's by distance), and its radius
    import surfspline.centers
    from surfspline import polyrep, quasiinterp
    from surfspline.quasiinterp import AssemblyError

    ax = np.arange(-2.0, 2.01, 0.25)
    grid = np.stack([m.ravel() for m in np.meshgrid(ax, ax, indexing="ij")], axis=1)
    cs = CenterSet(grid[np.linalg.norm(grid - [-0.5, -0.3], axis=1) > 0.5])
    f = bump(6, [0.0, 0.0], 1.0)
    params = KernelParams(d=2, k=2, degree=2)
    density = DensityField(np.zeros((1, 2)), np.array([0.3]))
    solved = {}
    solve, balls = polyrep._solve, surfspline.centers._balls
    dkf = laplacian_power(f, params.k)

    def spy(cs_, offsets, radius, degree):
        solved[name].append((offsets[np.lexsort(offsets.T[::-1])].tobytes(), radius))
        return solve(cs_, offsets, radius, degree)

    def balls_spy(cs_, pts, radii):
        assert np.all(dkf(pts) != 0.0)
        return balls(cs_, pts, radii)

    monkeypatch.setattr(polyrep, "_solve", spy)
    monkeypatch.setattr(surfspline.centers, "_balls", balls_spy)
    monkeypatch.setattr(quasiinterp, "_balls", balls_spy)
    messages = {}
    for name, run in (("array", assemble), ("by_node", assemble_by_node)):
        solved[name] = []
        with pytest.raises(AssemblyError) as info:
            run(cs, f, params, density.nearest, 2)
        messages[name] = str(info.value)
    assert messages["array"] == messages["by_node"]
    assert "reproduction failed at node" in messages["array"]
    assert solved["array"] == solved["by_node"] and len(solved["array"]) > 1
    nodes, _ = quasiinterp._cell_nodes(*quadrature_cells(([-1.0, -1.0], [1.0, 1.0]), 2,
                                                         density.nearest))
    assert np.any(dkf(nodes) == 0.0)


def shuffled_balls(balls, rng, moved):
    """``balls`` with the rows inside each ball in random order, or as listed
    if ``rng`` is None; ``moved`` collects whether each block's rows moved."""
    def listed(cloud, pts, radii):
        for idx, dist, counts in balls(cloud, pts, radii):
            order = np.arange(idx.size)
            if rng is not None:
                starts = np.cumsum(counts) - counts
                order = np.concatenate([a + rng.permutation(c) for a, c in zip(starts, counts)])
            moved.append(not np.array_equal(order, np.arange(idx.size)))
            yield np.take(idx, order), np.take(dist, order), counts
    return listed


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_no_reader_of_balls_depends_on_row_order(seed, d):
    # assemble's coefficients, and the pair engine's values on a field where
    # each of them lists balls, are bit for bit the same with the rows inside
    # every ball shuffled; the centers are an exact lattice in about half
    # the examples, so solves recur through the memo
    import surfspline.density as density
    from surfspline import certify_self_majorization, certify_slow_growth, majorant, quasiinterp

    rng = np.random.default_rng(seed)
    k, degree = ORDERS[d]
    params = KernelParams(d=d, k=k, degree=degree)
    h = 0.25 if d < 3 else 0.5
    ax = np.arange(-2.0, 2.0 + h / 2, h)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[ax] * d, indexing="ij")], axis=1)
    points = grid + rng.uniform(-0.2, 0.2, size=grid.shape) * h * rng.integers(2)
    f = bump(2 * k + 2, rng.uniform(-0.2, 0.2, size=d), 1.0)
    field = DensityField(rng.uniform(-1.2, 1.2, size=(30, d)), rng.uniform(2.5, 4.0, size=30) * h)
    fixed = np.random.default_rng(3)
    df = DensityField((np.arange(400) * 0.5)[:, None], np.exp(0.3 * fixed.normal(size=400)))
    probes = fixed.uniform(0.0, 200.0, size=(150, 1))
    calls = [lambda: assemble(CenterSet(points), f, params, field.nearest, 2).coefficients,
             lambda: majorant(df, probes, 3.0), lambda: certify_slow_growth(df, 0.25),
             lambda: certify_self_majorization(df, 3.0)]

    def run(rng):
        values, moved = [], []
        with pytest.MonkeyPatch.context() as mp:
            for module in (quasiinterp, density):
                mp.setattr(module, "_balls", shuffled_balls(module._balls, rng, moved))
            for call in calls:
                listed = len(moved)
                values.append(np.asarray(call()).tobytes())
                assert len(moved) > listed  # each call lists balls
        return values, any(moved)

    plain, _ = run(None)
    shuffled, moved = run(rng)
    assert shuffled == plain and moved


def test_defect_refined_2d_level_solves_few_geometries(count_solves):
    # one level (j = 2) of the 2-D defect-refined study: k = 2, degree 14,
    # box +-10, defect at 0, 41 x 41 probes.  Its 17,649 centers are lattice
    # regions, so the nodes and density samples repeat a few neighbor
    # geometries up to the axis symmetries, each solved once; the error at the
    # defect is well below the sup over the probes
    from surfspline import MultiresSpec, generate_centers
    from surfspline.quasiinterp import _level

    spec = MultiresSpec(j=2, k=2, d=2, defect=[[0.0, 0.0]], box=([-10.0, -10.0], [10.0, 10.0]),
                        epsilon=1 / 3, degree=14)
    cs = generate_centers(spec)
    assert len(cs) == 17_649
    xs = np.linspace(-1.2, 1.2, 41)
    probes = np.stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    errors = _level(2, cs, bump(6, [0.0, 0.0], 1.0), KernelParams(d=2, k=2, degree=14), 4,
                    np.vstack([probes, spec.defect]), None)
    assert len(count_solves) <= 9
    assert errors[-1] < errors[:-1].max() / 4


def test_convergence_study_rejects_levels_before_placing_centers():
    from surfspline import convergence_study

    def factory(j):
        pytest.fail("center_factory ran before the level check")

    params = KernelParams(d=1, k=1, degree=4)
    for js, message in (([3.5, 4.5, 5.5], "j must be >= -511 and an integer; got 3.5"),
                        ([3, 4, 512], "j must be >= -511 and at most 511; got 512")):
        with pytest.raises(ValueError, match=re.escape(message)):
            convergence_study(js, factory, bump(5, [0.0], 1.0), params, 0.6, np.zeros(1))

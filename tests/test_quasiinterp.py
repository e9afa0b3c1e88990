"""Quasi-interpolation assembly, evaluation, and convergence studies."""

import time

import numpy as np
import pytest

from surfspline import (
    ApproximantDump,
    CenterSet,
    DensityField,
    KernelParams,
    QuadratureSpec,
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
    with pytest.raises(ValueError):
        QuadratureSpec(cells_per_rho=1, rule="midpoint", domain=([0.0], [1.0]))
    with pytest.raises(ValueError):
        QuadratureSpec(cells_per_rho=4, rule="simpson", domain=([0.0], [1.0]))
    with pytest.raises(ValueError):
        QuadratureSpec(cells_per_rho=4, rule="gauss2", domain=([1.0], [0.0]))


def test_quadrature_cells_cover_and_size():
    qs = QuadratureSpec(cells_per_rho=2, rule="midpoint", domain=([-1.0], [1.0]))
    centers, sides = quadrature_cells(qs, lambda c: 0.5)
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
        qs = QuadratureSpec(cells_per_rho=cpr, rule="gauss2", domain=([-1.0], [1.0]))
        centers, sides = quadrature_cells(qs, lambda c: 0.5)
        total = 0.0
        for c, s in zip(centers, sides):
            nodes, w = _cell_nodes(c, s, "gauss2")
            total += w * float(np.sum(df(nodes)))
        totals.append(abs(total))
    assert totals[0] <= 1e-3
    assert totals[1] <= totals[0] / 8.0


def test_assemble_zero_function():
    cs = uniform_1d(3)
    density = density_for(cs, 4)
    params = KernelParams(d=1, k=1, degree=4)
    from surfspline.kernels import RadialBump

    zero = RadialBump(exponent=5, center=np.zeros(1), scale=1.0, coeffs=np.zeros(6))
    qs = QuadratureSpec(cells_per_rho=4, rule="gauss2", domain=([-1.0], [1.0]))
    dump = assemble(cs, zero, params, qs, density)
    assert np.all(dump.coefficients == 0.0)
    assert evaluate(dump, [0.3], params) == 0.0


def test_assemble_linearity():
    cs = uniform_1d(3)
    density = density_for(cs, 4)
    params = KernelParams(d=1, k=1, degree=4)
    qs = QuadratureSpec(cells_per_rho=4, rule="gauss2", domain=([-1.0], [1.0]))
    from surfspline.kernels import RadialBump

    f1 = bump(5, [0.0], 1.0)
    f2 = bump(6, [0.0], 1.0)
    fsum = RadialBump(exponent=5, center=np.zeros(1), scale=1.0,
                      coeffs=np.polynomial.polynomial.polyadd(f1.coeffs, f2.coeffs))
    c1 = assemble(cs, f1, params, qs, density).coefficients
    c2 = assemble(cs, f2, params, qs, density).coefficients
    cs_sum = assemble(cs, fsum, params, qs, density).coefficients
    assert np.max(np.abs(cs_sum - (c1 + c2))) <= 1e-12 * max(1.0, np.max(np.abs(c1 + c2)))


def test_evaluate_trivial_cases():
    cs = CenterSet([0.0, 1.0, 2.0])
    params = KernelParams(d=1, k=1, degree=4)
    dump = ApproximantDump(centers=cs, coefficients=np.zeros(3))
    assert evaluate(dump, [0.7], params) == 0.0
    one = ApproximantDump(centers=cs, coefficients=np.array([0.0, 1.0, 0.0]))
    assert evaluate(dump, [0.7], params) == 0.0
    assert evaluate(one, [0.7], params) == pytest.approx(
        phi(np.array([0.7 - 1.0]), params))


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
    b1 = error_bound_map(df1, f, k, pts)
    b2 = error_bound_map(df2, f, k, pts)
    assert np.allclose(b2 / b1, 2.0 ** (-2 * k))


def test_error_bound_map_value():
    f = bump(6, [0.0], 1.0)
    sup = laplacian_power(f, 2).sup_norm()
    df = DensityField(np.zeros((1, 1)), np.array([2.0**-6]))
    b = error_bound_map(df, f, 2, np.zeros((1, 1)))
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
        qs = QuadratureSpec(cells_per_rho=cpr, rule="gauss2", domain=([-1.0], [1.0]))
        dump = assemble(cs, f, params, qs, density)
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

    def uniform_2d(j):
        ax = np.arange(-2 * 2**j, 2 * 2**j + 1) * 2.0**-j
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))

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


@pytest.mark.parametrize("quadrature,message", [({"rule": "simpson"}, "rule must be"),
                                                ({"cells_per_rho": 1}, "cells_per_rho")])
def test_convergence_study_checks_quadrature_before_placing_centers(quadrature, message):
    from surfspline import convergence_study

    def factory(j):
        pytest.fail("center_factory ran before the quadrature check")

    params = KernelParams(d=1, k=1, degree=4)
    with pytest.raises(ValueError, match=message):
        convergence_study([3, 4, 5], factory, bump(5, [0.0], 1.0), params, epsilon=0.6,
                          probes=np.zeros(1), **quadrature)

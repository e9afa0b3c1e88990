"""Polyharmonic kernels, radial bumps, iterated Laplacians, kernel error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfspline import (
    CenterSet,
    KernelParams,
    build_reproduction,
    bump,
    fundamental_normalization,
    laplacian_power,
    local_kernel_error_precise,
    phi,
    phi_radial,
    polynomial_dim,
    refine_weights,
)


def test_phi_values():
    assert phi([1.0, 0.0], KernelParams(d=2, k=2, degree=14)) == pytest.approx(0.0)
    assert phi([0.0, 0.0, 2.0], KernelParams(d=3, k=2, degree=14)) == pytest.approx(2.0)
    e = np.e
    assert phi([e, 0.0], KernelParams(d=2, k=2, degree=14)) == pytest.approx(e**2)


def test_phi_origin_and_symmetry():
    p = KernelParams(d=2, k=2, degree=14)
    assert phi([0.0, 0.0], p) == 0.0
    x = np.array([0.3, -0.7])
    assert phi(x, p) == phi(-x, p)


def test_phi_homogeneity_odd_dim():
    d, k = 3, 2
    x = np.array([0.4, -0.1, 0.8])
    lam = 3.7
    p = KernelParams(d=d, k=k, degree=10)
    assert phi(lam * x, p) == pytest.approx(lam ** (2 * k - d) * phi(x, p), rel=1e-12)


def test_unsupported_pairs():
    with pytest.raises(ValueError):
        KernelParams(d=4, k=3, degree=10)
    with pytest.raises(ValueError):
        KernelParams(d=2, k=1, degree=10)  # 2k > d fails
    with pytest.raises(ValueError):
        fundamental_normalization(1, 5)  # k beyond supported order


def test_normalization_closed_forms():
    assert fundamental_normalization(1, 1) == pytest.approx(0.5)
    assert fundamental_normalization(2, 2) == pytest.approx(1.0 / (8 * np.pi))
    assert fundamental_normalization(3, 2) == pytest.approx(-1.0 / (8 * np.pi))


def test_normalization_d1_discrete_delta():
    # second central difference of |x|/2 integrates to 1 against anything
    h = 1e-3
    xs = np.array([-h, 0.0, h])
    vals = 0.5 * np.abs(xs)
    second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    assert second * h == pytest.approx(1.0)


def test_bump_basics():
    f = bump(4, [0.0], 1.0)
    assert f(np.array([0.0])) == pytest.approx(1.0)
    assert f(np.array([1.0])) == 0.0
    assert f(np.array([2.0])) == 0.0
    assert f(np.array([0.5])) == pytest.approx((1 - 0.25) ** 4)


def test_bump_scale_and_center():
    f = bump(3, [2.0, 0.0], 0.5)
    assert f(np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert f(np.array([2.0, 0.49])) > 0
    assert f(np.array([2.0, 0.51])) == 0.0


def test_laplacian_d1_hand():
    # d=1: Delta (1-r^2)^2 = 12 r^2 - 4 on the support
    f = bump(4, [0.0], 1.0)  # exponent >= 2k+2 = 4 for k = 1
    g = laplacian_power(bump(2, [0.0], 1.0), 0)  # identity at k = 0
    assert np.allclose(g.coeffs, bump(2, [0.0], 1.0).coeffs)
    lf = laplacian_power(f, 1)
    # (1-t)^4 -> termwise second derivative in r: check against symbolic
    for r in (0.0, 0.3, 0.7):
        t = r**2
        exact = -8 * (1 - t) ** 3 + 4 * t * 12 * (1 - t) ** 2  # d^2/dr^2 of (1-r^2)^4
        assert lf(np.array([r])) == pytest.approx(exact, abs=1e-12)


def test_laplacian_degree_drop_to_zero():
    # k Laplacians of a polynomial of degree < k in r^2 vanish identically
    from surfspline.kernels import RadialBump

    const = RadialBump(exponent=10, center=np.zeros(2), scale=1.0,
                       coeffs=np.array([3.0, -1.5]))  # degree 1 in r^2
    g = laplacian_power(const, 2)
    assert np.all(g.coeffs == 0.0)
    assert g(np.array([0.3, 0.1])) == 0.0


def test_laplacian_exponent_guard():
    with pytest.raises(ValueError):
        laplacian_power(bump(3, [0.0], 1.0), 1)  # needs exponent >= 4


def central_laplacian(fn, x, h=1e-4):
    d = x.shape[0]
    total = 0.0
    for a in range(d):
        e = np.zeros(d)
        e[a] = h
        total += (fn(x + e) - 2 * fn(x) + fn(x - e)) / h**2
    return total


@pytest.mark.parametrize("d,k", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3)])
def test_laplacian_vs_finite_differences(d, k):
    rng = np.random.default_rng(20 + d + k)
    f = bump(2 * k + 3, np.zeros(d), 1.0)
    target = laplacian_power(f, k)
    # nest central differences k times through intermediate closed forms
    inner = laplacian_power(f, k - 1)
    for _ in range(20):
        x = rng.uniform(-0.6, 0.6, size=d)
        approx = central_laplacian(lambda y: inner(y), x)
        scale = max(1.0, abs(target(x)))
        # central differences at h = 1e-4 carry O(h^2) truncation plus
        # cancellation noise; 1e-4 relative is comfortably above both
        assert abs(approx - target(x)) <= 1e-4 * scale


def test_local_kernel_error_point_mass():
    cs = CenterSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    params = KernelParams(d=2, k=2, degree=14)
    pr = build_reproduction(cs, [1.0, 0.0], 0.1, 0)
    err, _ = local_kernel_error_precise(pr, cs, [5.0, 5.0], params)
    assert err == 0.0


def test_local_kernel_error_affine_exact():
    # d=1, k=1: phi = |.| is affine away from [0, 1]; degree-1 reproduction
    # at 0.5 with weights (0.5, 0.5) reproduces it exactly at x = 10
    cs = CenterSet([0.0, 1.0])
    params = KernelParams(d=1, k=1, degree=2)
    pr = build_reproduction(cs, [0.5], 0.6, 1)
    err, _ = local_kernel_error_precise(pr, cs, [10.0], params)
    assert err <= 1e-12


def test_local_kernel_error_at_a_center():
    # x on a center of the reproduction: that center's term is phi(0) = 0,
    # not the log's limit, and the error is the float sum's to rounding
    xs = np.arange(-3, 4, 1.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    params = KernelParams(d=2, k=2, degree=5)
    pr = build_reproduction(cs, [0.3, 0.2], 2.0, 2)
    x = cs.points[pr.indices[0]]
    err, _ = local_kernel_error_precise(pr, cs, x, params)
    terms = phi(x - cs.points[pr.indices], params)
    assert terms[0] == 0.0
    assert err == pytest.approx(abs(phi(x - pr.alpha, params) - pr.weights @ terms), rel=1e-9)


def test_normalized_error_bounded():
    # interior grid reproduction: normalized error stays bounded as x recedes
    xs = np.arange(-6, 7, 1.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    params = KernelParams(d=2, k=2, degree=5)
    pr = build_reproduction(cs, [0.3, 0.2], 3.0, 5)
    norms = []
    for dist in (2.0, 3.0, 4.5):
        _, nrm = local_kernel_error_precise(pr, cs, [dist * pr.radius, 0.1], params)
        norms.append(nrm)
    # no growth trend over the measured range
    assert norms[-1] <= max(norms) * 1.01


def kernel_error_by_mpf(pr, cs, x, params, weights=None, dps=60):
    """``local_kernel_error_precise`` on mpf objects: every difference,
    square, sum and kernel value by mpf's operators and ``mp.fsum``, the
    profile's distance ``|x - alpha|`` too; run with digits to spare, the
    oracle for its exact squared distances and raw-tuple sums."""
    import mpmath as mp

    x = np.asarray(x, dtype=float)
    two_k_d = 2 * params.k - params.d

    with mp.workdps(dps):
        xm = [mp.mpf(v) for v in x]

        def dist2(point):
            return mp.fsum((a - mp.mpf(b)) ** 2 for a, b in zip(xm, point))

        def phimp_at(point):
            r2 = dist2(point)
            if r2 == 0:
                return mp.mpf(0)
            r = mp.sqrt(r2)
            val = r**two_k_d
            if params.d % 2 == 0:
                val *= mp.log(r)
            return val

        if weights is None:
            weights = [mp.mpf(w) for w in pr.weights]
        target = phimp_at(pr.alpha)
        total = mp.fsum(w * phimp_at(cs.points[i]) for w, i in zip(weights, pr.indices))
        err = abs(target - total)
        rho = mp.mpf(pr.radius)
        profile = rho**two_k_d * (1 + mp.sqrt(dist2(pr.alpha)) / rho) ** (-params.nu)
        return float(err), float(err / profile)


def term_magnitude(pr, cs, x, params, weights):
    """``|phi(x - alpha)| + sum_i |w_i phi(x - xi_i)|`` in float64: the scale
    of the rounding error of the kernel error's sum."""
    pts = np.vstack([pr.alpha, cs.points[pr.indices]])
    vals = np.abs(phi_radial(np.linalg.norm(np.asarray(x) - pts, axis=1), params.d, params.k))
    return vals[0] + np.abs(np.array([float(w) for w in weights])) @ vals[1:]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 2),
                                                (3, 3)]),
       st.integers(-3, 2), st.sampled_from([5.0, 5e6]), st.sampled_from(["near", "far", "center"]),
       st.sampled_from(["float64", "refined", "refined finer"]), st.sampled_from([20, 60]))
def test_kernel_error_matches_finer_mpf(seed, dk, log_scale, spread, probe, weights, dps):
    # against mpf objects at 40 more digits: each term w_i phi_i rounds a few
    # times at dps digits, so the error may move by 10^(2 - dps) of the
    # terms' moduli, and each float64 result by its own rounding.  A spread
    # of 5e6 puts the cloud where float64 differences would round
    d, k = dk
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    degree = int(rng.integers(0, 4))
    offset = rng.uniform(-spread, spread, size=d)
    cs = CenterSet(scale * (offset + rng.uniform(-1, 1, size=(2 * polynomial_dim(d, degree) + 4,
                                                               d))))
    radius = scale * 1.5 * np.sqrt(d)  # the ball holds every center
    pr = build_reproduction(cs, scale * (offset + rng.uniform(-0.5, 0.5, size=d)), radius, degree)
    if probe == "near":
        x = pr.alpha + radius * rng.uniform(-1, 1, size=d)
    elif probe == "far":
        direction = rng.normal(size=d)
        x = pr.alpha + radius * 10 ** rng.uniform(1, 3) * direction / np.linalg.norm(direction)
    else:
        x = cs.points[pr.indices[rng.integers(len(pr.indices))]]
    w = None if weights == "float64" else refine_weights(
        pr, cs, dps=dps + (20 if weights == "refined finer" else 0))
    params = KernelParams(d=d, k=k, degree=degree)
    err, nrm = local_kernel_error_precise(pr, cs, x, params, weights=w, dps=dps)
    ref_err, ref_nrm = kernel_error_by_mpf(pr, cs, x, params, weights=w, dps=dps + 40)
    tol = 10.0 ** (2 - dps) * term_magnitude(pr, cs, x, params, pr.weights if w is None else w)
    profile = radius**(2 * k - d) * (1 + np.linalg.norm(x - pr.alpha) / radius) ** -params.nu
    assert abs(err - ref_err) <= tol + 2.0**-52 * ref_err
    assert abs(nrm - ref_nrm) <= 1.01 * tol / profile + 2.0**-52 * ref_nrm


def test_kernel_error_weight_types_agree():
    # Python floats, numpy floats and mpf: one value each, one result
    import mpmath as mp

    xs = np.arange(-3, 4, 1.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    params = KernelParams(d=2, k=2, degree=3)
    pr = build_reproduction(cs, [0.3, 0.2], 2.5, 3)
    floats = pr.weights.tolist()
    results = {local_kernel_error_precise(pr, cs, [7.3, -2.1], params, weights=w)
               for w in (None, floats, pr.weights, [mp.mpf(v) for v in floats])}
    assert len(results) == 1


def test_kernel_error_keeps_finer_weight_bits():
    # weights refined to 40 digits, errors taken at 20: each weighted term
    # rounds once, at the product.  Where the kernel is a polynomial beyond
    # the centers the error is rounding noise, so a weight rounded to 20
    # digits first would change its bits (on 3 of these 72 cases)
    rng = np.random.default_rng(5)
    cs = CenterSet(rng.uniform(-1, 1, 12))
    for degree in (1, 2, 3):
        pr = build_reproduction(cs, [0.1], 1.5, degree)
        w = refine_weights(pr, cs, dps=40)
        for k in (1, 2, 3):
            params = KernelParams(d=1, k=k, degree=degree)
            for x in np.linspace(2, 9, 8):
                assert (local_kernel_error_precise(pr, cs, [x], params, weights=w, dps=20)
                        == kernel_error_by_mpf(pr, cs, [x], params, weights=w, dps=20))

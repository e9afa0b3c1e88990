"""Local polynomial reproductions: precision, stability, covariance."""

from fractions import Fraction
from math import frexp

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfspline import (
    CenterSet,
    InsufficientPoints,
    NoAdmissibleRadius,
    RankDeficient,
    ReproductionError,
    build_reproduction,
    minimal_density,
    monomial_exponents,
    polynomial_dim,
    refine_weights,
    verify_reproduction,
)
from surfspline import polyrep
from surfspline.centers import DUPLICATE_TOL
from surfspline.polyrep import (
    _GUARD,
    RANK_RTOL,
    _exact_moments,
    _fixed_point,
    _float_fixed_point,
    _min_norm,
    _monomials,
    _products,
)
from test_density import CLOUDS, consistency_cloud


def random_unisolvent(rng, d, degree, n_extra=6):
    """A jittered grid comfortably unisolvent for the degree."""
    per_axis = degree + 2
    axes = [np.linspace(-1, 1, per_axis) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts + rng.uniform(-0.2, 0.2, size=pts.shape) / per_axis
    extra = rng.uniform(-1, 1, size=(n_extra, d))
    return CenterSet(np.concatenate([pts, extra]))


def test_polynomial_dim():
    assert polynomial_dim(1, 3) == 4
    assert polynomial_dim(2, 2) == 6
    assert polynomial_dim(3, 4) == 35


def test_monomial_exponents_ordering():
    expo = monomial_exponents(2, 2)
    assert expo.shape == (6, 2)
    assert expo[0].tolist() == [0, 0]
    totals = expo.sum(axis=1)
    assert np.all(np.diff(totals) >= 0)  # graded


def test_point_mass_degree_zero():
    cs = CenterSet([0.0, 1.0, 2.0])
    pr = build_reproduction(cs, [1.0], 0.1, 0)
    assert pr.indices.tolist() == [1]
    assert pr.weights == pytest.approx([1.0])
    assert pr.stability == pytest.approx(1.0)


def test_midpoint_linear_weights():
    # {0, 1}, alpha = 0.5, degree 1 -> (0.5, 0.5) by the 2x2 moment system
    cs = CenterSet([0.0, 1.0])
    pr = build_reproduction(cs, [0.5], 0.6, 1)
    assert sorted(pr.weights.tolist()) == pytest.approx([0.5, 0.5])
    assert pr.stability == pytest.approx(1.0)


def test_triangle_barycentric():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cs = CenterSet(tri)
    alpha = np.array([0.25, 0.35])
    pr = build_reproduction(cs, alpha, 2.0, 1)
    # degree-1 weights on three non-collinear points are barycentric coords
    expected = {0: 1 - 0.25 - 0.35, 1: 0.25, 2: 0.35}
    for i, w in zip(pr.indices, pr.weights):
        assert w == pytest.approx(expected[int(i)], abs=1e-12)
        assert 0 < w < 1
    assert pr.stability == pytest.approx(1.0)


def test_insufficient_points():
    cs = CenterSet([0.0, 1.0])
    with pytest.raises(InsufficientPoints):
        build_reproduction(cs, [0.5], 0.6, 2)


def test_rank_deficient_collinear():
    # three collinear points in R^2 are not unisolvent for degree 1... they
    # are (affine functions on a line are underdetermined but solvable);
    # degree 1 needs non-collinearity only for uniqueness of interpolation,
    # reproduction of the transverse coordinate fails.
    cs = CenterSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(RankDeficient):
        build_reproduction(cs, [1.0, 0.5], 3.0, 1)


def test_residual_after_build():
    rng = np.random.default_rng(4)
    cs = random_unisolvent(rng, 2, 3)
    pr = build_reproduction(cs, [0.1, -0.2], 1.5, 3)
    assert verify_reproduction(pr, cs) <= 1e-9


def test_residual_perturbation():
    cs = CenterSet([0.0, 1.0, 2.0])
    pr = build_reproduction(cs, [1.0], 0.1, 0)
    from surfspline.polyrep import PolyRep

    bent = PolyRep(alpha=pr.alpha, radius=pr.radius, indices=pr.indices,
                   weights=pr.weights + 0.1, degree=0)
    assert verify_reproduction(bent, cs) == pytest.approx(0.1)


def test_random_polynomial_reproduction():
    # exactness on the monomial basis extends to arbitrary degree-l polys
    rng = np.random.default_rng(5)
    degree = 3
    cs = random_unisolvent(rng, 2, degree)
    alpha = np.array([0.05, 0.12])
    pr = build_reproduction(cs, alpha, 1.4, degree)
    expo = monomial_exponents(2, degree)
    coeff = rng.normal(size=expo.shape[0])

    def poly(x):
        return float(coeff @ np.prod(x[None, :] ** expo, axis=1))

    lhs = sum(w * poly(cs.points[i]) for w, i in zip(pr.weights, pr.indices))
    assert abs(lhs - poly(alpha)) <= 1e-8 * np.max(np.abs(coeff))


def test_support_clause():
    rng = np.random.default_rng(6)
    cs = random_unisolvent(rng, 2, 2)
    pr = build_reproduction(cs, [0.0, 0.0], 1.1, 2)
    dist = np.linalg.norm(cs.points[pr.indices] - pr.alpha, axis=1)
    assert np.all(dist <= pr.radius)


def test_translation_covariance():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(40, 2))
    shift = np.array([5.3, -2.7])
    alpha = np.array([0.1, 0.2])
    pr0 = build_reproduction(CenterSet(pts), alpha, 1.0, 2)
    pr1 = build_reproduction(CenterSet(pts + shift), alpha + shift, 1.0, 2)
    assert np.array_equal(pr0.indices, pr1.indices)
    assert np.max(np.abs(pr0.weights - pr1.weights)) <= 1e-10


def test_scaling_covariance():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, size=(40, 2))
    lam = 7.5
    alpha = np.array([0.1, 0.2])
    pr0 = build_reproduction(CenterSet(pts), alpha, 1.0, 2)
    pr1 = build_reproduction(CenterSet(pts * lam), alpha * lam, lam, 2)
    assert np.array_equal(pr0.indices, pr1.indices)
    assert np.max(np.abs(pr0.weights - pr1.weights)) <= 1e-10


def test_deterministic_rerun():
    rng = np.random.default_rng(9)
    cs = random_unisolvent(rng, 2, 4)
    a = build_reproduction(cs, [0.0, 0.0], 1.5, 4)
    b = build_reproduction(cs, [0.0, 0.0], 1.5, 4)
    assert np.array_equal(a.weights, b.weights)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(0, 4))
def test_precision_and_stability_property(seed, d, degree):
    rng = np.random.default_rng(seed)
    cs = random_unisolvent(rng, d, degree)
    radius = 2.5 if d == 1 else 2.0
    pr = build_reproduction(cs, rng.uniform(-0.5, 0.5, size=d), radius, degree)
    assert verify_reproduction(pr, cs) <= 1e-9
    assert pr.stability >= 1 - 1e-9


def monomials_by_pow(scaled, degree):
    """The monomials with per-axis power tables from one vector pow, each
    power one libm ``pow``: the oracle for the rank decisions of the running
    products in ``_monomials``."""
    expo = monomial_exponents(scaled.shape[1], degree)
    table = scaled.T[:, None, :] ** np.arange(degree + 1)[:, None]
    bmat = table[0][expo[:, 0]]
    for a in range(1, scaled.shape[1]):
        bmat *= table[a][expo[:, a]]
    return bmat


def moment_matrix_by_running_products(offsets, radius, degree):
    """The moment matrix entry by entry over (M, n): each axis' power a
    running product of its scaled offset from 1, the axes' powers multiplied
    left to right."""
    expo = monomial_exponents(offsets.shape[1], degree)
    scaled = offsets / radius
    bmat = None
    for a in range(offsets.shape[1]):
        power = np.ones((expo.shape[0], len(offsets)))
        for e in range(1, degree + 1):
            power = np.where(expo[:, a, None] >= e, power * scaled[None, :, a], power)
        bmat = power if bmat is None else bmat * power
    return bmat


def random_offsets(seed, d, n, log_scale):
    """n offsets in R^d at scale 10^log_scale, about a tenth of the
    coordinates exactly 0, and a radius around their largest coordinate."""
    rng = np.random.default_rng(seed)
    offsets = rng.normal(size=(n, d)) * 10.0**log_scale
    offsets[rng.random(size=(n, d)) < 0.1] = 0.0  # exponent 0 must give 1 at 0
    radius = float(np.max(np.abs(offsets), initial=1e-3)) * rng.uniform(0.5, 2.0)
    return offsets, radius


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 200),
       st.floats(-3.0, 3.0))
def test_monomials_bitwise_equals_running_products(seed, d, n, log_scale):
    offsets, radius = random_offsets(seed, d, n, log_scale)
    for degree in range(16):
        bmat = _monomials(offsets / radius, degree)
        ref = moment_matrix_by_running_products(offsets, radius, degree)
        assert bmat.shape == ref.shape and bmat.dtype == ref.dtype
        assert bmat.tobytes() == ref.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(1, 15), (2, 14), (3, 7)]), st.data(),
       st.integers(1, 30), st.floats(-3.0, 3.0))
def test_monomials_within_gamma_of_exact(seed, dim_and_top, data, n, log_scale):
    import mpmath as mp

    d, top = dim_and_top
    degree = data.draw(st.integers(0, top))
    offsets, radius = random_offsets(seed, d, n, log_scale)
    bmat = _monomials(offsets / radius, degree)
    expo = monomial_exponents(d, degree)
    u = mp.mpf(2) ** -53
    gamma = (degree + d) * u / (1 - (degree + d) * u)
    with mp.workprec(200):  # exact powers of the float64 scaled offsets, to 2^-200
        scaled = [[mp.mpf(v) for v in row] for row in offsets / radius]
        for row, e in enumerate(expo):
            for col in range(n):
                exact = mp.fprod(scaled[col][a] ** int(e[a]) for a in range(d))
                assert abs(mp.mpf(bmat[row, col]) - exact) <= gamma * abs(exact)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 120),
       st.floats(-3.0, 3.0), st.integers(0, 15), st.data())
def test_monomials_prefix_columns(seed, d, n, log_scale, degree, data):
    offsets, radius = random_offsets(seed, d, n, log_scale)
    scaled = offsets / radius
    k = data.draw(st.integers(1, n))
    full = _monomials(scaled, degree)
    assert _monomials(scaled[:k], degree).tobytes() == full[:, :k].tobytes()


def moment_matrix_mp(pr, cs):
    """The moment matrix in the current mpmath precision, entry by entry:
    offsets subtracted in mpmath, each monomial a product of powers."""
    import mpmath as mp

    expo = monomial_exponents(cs.dim, pr.degree)
    pts = cs.points[pr.indices]
    scaled = [[(mp.mpf(pts[i, a]) - mp.mpf(pr.alpha[a])) / mp.mpf(pr.radius)
               for a in range(cs.dim)] for i in range(pts.shape[0])]
    bm = mp.matrix(expo.shape[0], pts.shape[0])
    for row, e in enumerate(expo):
        for col in range(pts.shape[0]):
            v = mp.mpf(1)
            for a in range(cs.dim):
                if e[a]:
                    v *= scaled[col][a] ** int(e[a])
            bm[row, col] = v
    return bm


def refine_by_normal_equations(pr, cs, dps):
    """The minimum-norm weights from the normal equations ``B B^T y = e_0``,
    solved by LU in ``dps``-digit mpmath: the oracle for ``refine_weights``.
    It loses cond(B)^2, so it is run with digits to spare."""
    import mpmath as mp

    with mp.workdps(dps):
        bm = moment_matrix_mp(pr, cs)
        rhs = mp.matrix([mp.mpf(0)] * bm.rows)
        rhs[0] = mp.mpf(1)
        sol = bm.T * mp.lu_solve(bm * bm.T, rhs)
        return [sol[i] for i in range(sol.rows)]


def oracle_cloud(rng, kind, d, degree):
    """A unisolvent cloud in [-1, 1]^d: a lattice, the jittered lattice of
    ``random_unisolvent``, or 2 dim Pi_degree + 4 uniform random points."""
    if kind == "jittered":
        return random_unisolvent(rng, d, degree)
    if kind == "random":
        return CenterSet(rng.uniform(-1, 1, size=(2 * polynomial_dim(d, degree) + 4, d)))
    axes = [np.linspace(-1, 1, degree + 2)] * d
    return CenterSet(np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1))


# d = 3 stops at degree 4: the oracle's mpmath Gram matrix costs M^2 n
# products, several seconds per case at degree 6 and more beyond
ORACLE_CASES = (st.integers(0, 10_000), st.sampled_from([(1, 8), (2, 8), (3, 4)]), st.data(),
                st.sampled_from(["lattice", "jittered", "random"]), st.sampled_from([20, 60, 100]))
#: An ``ORACLE_CASES`` dimension and a degree up to its top, as one drawn pair.
ORACLE_DIM_AND_DEGREE = ORACLE_CASES[1].flatmap(
    lambda dim_and_top: st.tuples(st.just(dim_and_top[0]), st.integers(0, dim_and_top[1])))


def oracle_case(seed, dim_and_top, data, kind):
    """The center set and a reproduction of one drawn ``ORACLE_CASES`` case."""
    d, top = dim_and_top
    return oracle_reproduction(seed, d, data.draw(st.integers(0, top)), kind)


def oracle_reproduction(seed, d, degree, kind):
    """The center set and a reproduction of an ``ORACLE_CASES`` case of that degree."""
    rng = np.random.default_rng(seed)
    cs = oracle_cloud(rng, kind, d, degree)
    return cs, build_reproduction(cs, rng.uniform(-0.5, 0.5, size=d), 1.5 * np.sqrt(d), degree)


@settings(max_examples=30, deadline=None)
@given(*ORACLE_CASES)
def test_refine_weights_matches_normal_equations(seed, dim_and_top, data, kind, dps):
    import mpmath as mp

    cs, pr = oracle_case(seed, dim_and_top, data, kind)
    d, degree = cs.dim, pr.degree
    cond = np.linalg.cond(_monomials((cs.points[pr.indices] - pr.alpha) / pr.radius, degree))
    weights = refine_weights(pr, cs, dps=dps)
    assert len(weights) == pr.indices.size
    with mp.workdps(dps):  # running products and pows differ by at most degree + 2d roundings
        mpf = np.frompyfunc(mp.mpf, 1, 1)
        bmat = _monomials((mpf(cs.points[pr.indices]) - mpf(pr.alpha)) / mp.mpf(pr.radius),
                          degree)
        ref = moment_matrix_mp(pr, cs)
        assert all(abs(bmat[i, j] - ref[i, j]) <= (degree + d) * mp.eps * abs(ref[i, j])
                   for i in range(ref.rows) for j in range(ref.cols))
    with mp.workdps(dps + 40):
        bm = moment_matrix_mp(pr, cs)
        residual = max(abs(mp.fsum(bm[i, j] * weights[j] for j in range(bm.cols)) - (i == 0))
                       for i in range(bm.rows))
        assert residual <= mp.mpf(10) ** (10 - dps)
        oracle = refine_by_normal_equations(pr, cs, dps + 40)
        gap = max(abs(w - o) for w, o in zip(weights, oracle))
        assert gap <= cond * mp.mpf(10) ** (5 - dps) * max(abs(o) for o in oracle)


def mpf_tuples(values):
    return [v._mpf_ for v in values]


@settings(max_examples=30, deadline=None)
@given(*ORACLE_CASES, st.integers(-8, 8), st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
       st.sampled_from([1.0, 1e-12]))
def test_exact_moments_equal_fractions(seed, dim_and_top, data, kind, dps, log_scale, shift,
                                       squeeze):
    # scaled and shifted clouds; with the base point squeezed to 1e-12 of its
    # place and no shift, the offsets span many binary orders
    cs, pr = oracle_case(seed, dim_and_top, data, kind)
    scale = 10.0**log_scale
    pts, alpha = cs.points[pr.indices] * scale + shift, pr.alpha * squeeze * scale + shift
    s = frexp(pr.radius * scale)[1]
    ints, low = _exact_moments(pts, alpha, s, pr.degree)
    assert ints.shape == (polynomial_dim(cs.dim, pr.degree), len(pts))
    unit = Fraction(2) ** low
    offsets = [[(Fraction(p) - Fraction(a)) / Fraction(2) ** s for p, a in zip(row, alpha)]
               for row in pts]
    for e, row in zip(monomial_exponents(cs.dim, pr.degree).tolist(), ints.tolist()):
        want = [np.prod([o**k for o, k in zip(off, e)], dtype=object) for off in offsets]
        assert [m * unit for m in row] == want


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), ORACLE_DIM_AND_DEGREE, ORACLE_CASES[3], st.integers(-8, 8),
       st.floats(-1e6, 1e6))
@example(0, (1, 8), "jittered", -7, 0.0)  # centers 1.47e-6 apart, scaled to 1.47e-13
def test_exact_moment_shifts_are_nonnegative(seed, dim_and_degree, kind, log_scale, shift):
    # every offset of a reproduction's centers is at most its radius, below
    # 2^s, and a nonzero one is at least 2^low: so s >= low, and each row's
    # shift (s - low)(degree - |e|) is non-negative.  A scale that brings two
    # centers within DUPLICATE_TOL makes no center set
    from scipy.spatial.distance import pdist

    cs, pr = oracle_reproduction(seed, *dim_and_degree, kind)
    scale = 10.0**log_scale
    pts = cs.points * scale + shift * scale
    if np.min(pdist(pts), initial=np.inf) <= DUPLICATE_TOL:
        with pytest.raises(ValueError, match="duplicate centers"):
            CenterSet(pts)
        return
    cs = CenterSet(pts)
    pr = build_reproduction(cs, pr.alpha * scale + shift * scale, pr.radius * scale, pr.degree)
    s = frexp(pr.radius)[1]
    low = _float_fixed_point(np.vstack([pr.alpha, cs.points[pr.indices]]))[1]
    assert pr.degree == 0 or s >= low
    _exact_moments(cs.points[pr.indices], pr.alpha, s, pr.degree)  # a negative shift raises


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_float_fixed_point_is_exact(values):
    ints, low = _float_fixed_point(values)
    assert all(type(m) is int for m in ints)
    assert [Fraction(v) for v in values] == [m * Fraction(2) ** low for m in ints]


def mp_entries(draw, size, ints):
    """``size`` entries: signed mpf of up to 64 bits with exponents in
    [-30, 30], exact zeros and, with ``ints``, Python ints below 2^32, so
    that no exponent of a product lies 2 prec bits (140 at 20 digits) from
    another and ``mpf_sum`` drops no term."""
    import mpmath as mp

    kinds = ["mpf", "zero", "int"] if ints else ["mpf", "zero"]
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=size, max_size=size)):
        if kind == "mpf":
            man = draw(st.integers(-(2**64) + 1, 2**64 - 1))
            out.append(mp.mpf((man, draw(st.integers(-30, 30)))))
        else:
            out.append(mp.mpf(0) if kind == "zero" else draw(st.integers(1 - 2**32, 2**32 - 1)))
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([20, 60, 100]), st.integers(1, 6), st.integers(1, 12), st.data())
def test_products_bitwise_equal_fdot(dps, rows, cols, data):
    import mpmath as mp

    with mp.workdps(dps):
        mat = np.empty((rows, cols), dtype=object)
        mat.ravel()[:] = mp_entries(data.draw, rows * cols, ints=True)
        vec = mp_entries(data.draw, cols, ints=data.draw(st.booleans()))
        ints, low = _fixed_point(mat.ravel())
        got = _products(ints.reshape(mat.shape), low, vec)
        assert mpf_tuples(got) == mpf_tuples(mp.fdot(row, vec) for row in mat.tolist())


def test_refine_weights_raises_when_refinement_stalls(monkeypatch):
    import scipy.linalg

    cs = random_unisolvent(np.random.default_rng(3), 2, 3)
    pr = build_reproduction(cs, [0.1, -0.2], 1.5, 3)
    # a float64 correction of zeros leaves the residual at 1
    monkeypatch.setattr(scipy.linalg, "cho_solve", lambda factor, rhs: np.zeros(len(rhs)))
    with pytest.raises(ReproductionError, match=r"refine_weights: residual 1\.0 after 2 "
                                                r"iterations, alpha \[ 0\.1 -0\.2\], degree 3, "
                                                r"dps 60"):
        refine_weights(pr, cs)


def test_refine_weights_rejects_centers_outside_the_ball():
    # centers 2^66 radii away: no reproduction of the library builds this, and
    # the exact moment matrix's row shifts would be negative
    from surfspline.polyrep import PolyRep

    cs = CenterSet([0.0, 1.0, 2.0])
    pr = PolyRep(alpha=np.array([1.0]), radius=1e-20, indices=np.arange(3),
                 weights=np.array([0.0, 1.0, 0.0]), degree=1)
    with pytest.raises(ValueError, match=r"refine_weights: a center lies outside "
                                         r"B\(alpha, 1e-20\), against the PolyRep contract"):
        refine_weights(pr, cs)


def solve_by_gelsd(bmat):
    """The SVD-based solve the pivoted QR replaced: minimum-norm ``w`` with
    ``bmat @ w = e_0``, the rank at ``RANK_RTOL`` and the singular values."""
    import scipy.linalg

    rhs = np.zeros(bmat.shape[0])
    rhs[0] = 1.0
    sol, _, rank, sv = scipy.linalg.lstsq(bmat, rhs, cond=RANK_RTOL, lapack_driver="gelsd")
    return sol, int(rank), sv


def min_norm_by_gelsd(bmat):
    """:func:`solve_by_gelsd` in the shape of ``_min_norm``."""
    sol, rank, _ = solve_by_gelsd(bmat)
    return (sol if rank == bmat.shape[0] else None), rank


def prefix_offsets(cs, alpha, degree):
    """The offsets from alpha of every prefix of the distance order about
    alpha that holds dim Pi_degree centers, and the distance of its last
    center."""
    from surfspline.density import _ZERO_RADIUS

    dist = np.linalg.norm(cs.points - alpha, axis=1)
    order = np.argsort(dist, kind="stable")
    for n in range(polynomial_dim(cs.dim, degree), len(cs) + 1):
        idx = order[:n]
        yield cs.points[idx] - alpha, max(dist[idx[-1]], _ZERO_RADIUS)


def prefix_systems(cs, alpha, degree):
    """The moment matrix of every prefix of :func:`prefix_offsets`."""
    for offsets, radius in prefix_offsets(cs, alpha, degree):
        yield _monomials(offsets / radius, degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data(), st.sampled_from(CLOUDS))
def test_min_norm_matches_gelsd_on_every_prefix(seed, d, data, kind):
    degree = data.draw(st.integers(0, 3 if d == 3 else 6))
    cs, alpha = consistency_cloud(seed, d, kind)
    m = polynomial_dim(d, degree)
    for bmat in prefix_systems(cs, alpha, degree):
        ref, rank, sv = solve_by_gelsd(bmat)
        weights, qr_rank = _min_norm(bmat.copy())
        assert (qr_rank < m) == (rank < m)
        if rank < m:
            assert weights is None
        else:
            err = np.linalg.norm(weights - ref)
            assert err <= sv[0] / sv[-1] * 1e-14 * np.linalg.norm(ref)


def minimal_density_with(name, routine, cs, alpha, degree):
    """``minimal_density``'s rho and witness indices, or its error text, on a
    fresh copy of ``cs`` with ``surfspline.polyrep.<name>`` replaced."""
    import surfspline.polyrep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surfspline.polyrep, name, routine)
        try:
            rho, pr = minimal_density(CenterSet(cs.points), alpha, degree)
            return rho, pr.indices.tolist()
        except NoAdmissibleRadius as exc:
            return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data(), st.sampled_from(CLOUDS))
def test_minimal_density_matches_gelsd_oracle(seed, d, data, kind):
    degree = data.draw(st.integers(0, 3 if d == 3 else 6))
    cs, alpha = consistency_cloud(seed, d, kind)
    assert (minimal_density_with("_min_norm", _min_norm, cs, alpha, degree)
            == minimal_density_with("_min_norm", min_norm_by_gelsd, cs, alpha, degree))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.data(), st.sampled_from(CLOUDS))
def test_minimal_density_matches_pow_oracle(seed, d, data, kind):
    degree = data.draw(st.integers(0, 7))
    cs, alpha = consistency_cloud(seed, d, kind)
    assert (minimal_density_with("_monomials", _monomials, cs, alpha, degree)
            == minimal_density_with("_monomials", monomials_by_pow, cs, alpha, degree))


# ---------------------------------------------------------------------------
# the axis certificate: deficient systems decided without a QR


def test_axis_certificate_counts_distinct_values():
    # degree values on one axis fire, degree + 1 do not; -0.0 and 0.0 are
    # one value (one factor x - 0 vanishes on both)
    on_three = np.array([[-0.5, 0.1], [0.0, 0.2], [0.5, 0.3], [-0.0, 0.4], [0.5, 0.5]])
    assert polyrep._axis_deficient(on_three, 3)
    assert not polyrep._axis_deficient(on_three, 2)
    on_four = np.vstack([on_three, [0.25, 0.6]])
    assert not polyrep._axis_deficient(on_four, 3)
    assert polyrep._axis_deficient(on_four * [0.0, 1.0], 1)  # a zero axis
    assert not polyrep._axis_deficient(on_four, 0)  # a constant never vanishes


def lattice_subset(seed, d, degree):
    """Offsets of a random subset (dim Pi_degree points or more) of an
    axis-aligned lattice of spacing 2^-3 or 0.1 whose axes hold 1 to
    ``degree + 3`` values, from a base point near it, and a radius holding
    them."""
    rng = np.random.default_rng(seed)
    m = polynomial_dim(d, degree)
    h = float(rng.choice([0.125, 0.1]))
    counts = rng.integers(1, degree + 4, size=d)
    while np.prod(counts) < m:
        counts[rng.integers(d)] += 1
    axes = [h * (np.arange(c) - c // 2) for c in counts]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    n = int(rng.integers(m, min(len(pts), 2 * m) + 1))
    offsets = pts[rng.choice(len(pts), size=n, replace=False)] - h * rng.uniform(-1, 1, size=d)
    return offsets, float(np.max(np.linalg.norm(offsets, axis=1))) * rng.uniform(1.0, 1.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(1, 14))
def test_axis_certificate_agrees_with_qr_and_gelsd(seed, d, degree):
    # wherever the certificate fires, the pivoted QR and the SVD read the
    # computed moment matrix deficient at RANK_RTOL too
    offsets, radius = lattice_subset(seed, d, degree)
    if polyrep._axis_deficient(offsets / radius, degree):
        bmat = _monomials(offsets / radius, degree)
        weights, rank = _min_norm(bmat.copy())
        assert weights is None and rank < bmat.shape[0]
        assert solve_by_gelsd(bmat)[1] < bmat.shape[0]


def spied_certificate(mp, on):
    """Patch ``polyrep._axis_deficient`` with a spy that answers as it does,
    or False throughout unless ``on``; the list of the spy's answers."""
    answers, certify = [], polyrep._axis_deficient

    def spy(scaled, degree):
        answers.append(on and certify(scaled, degree))
        return answers[-1]

    mp.setattr(polyrep, "_axis_deficient", spy)
    return answers


def densities_with(certify, points, probes, degree):
    """``minimal_density``'s radii and witness bytes on a fresh center set,
    or its error text, with the certificate in place or patched out; and
    whether the certificate fired."""
    with pytest.MonkeyPatch.context() as mp:
        answers = spied_certificate(mp, certify)
        try:
            rho, witnesses = minimal_density(CenterSet(points), np.atleast_2d(probes), degree)
        except NoAdmissibleRadius as exc:
            return str(exc), any(answers)
        return (rho.tobytes(), [(pr.indices.tobytes(), pr.weights.tobytes()) for pr in witnesses],
                any(answers))


def test_certificate_changes_no_density_on_lattice_and_remark1():
    from surfspline import MultiresSpec, generate_centers

    xs = np.arange(-8, 9) / 8.0
    lattice = np.stack([g.ravel() for g in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    spec = MultiresSpec(j=2, k=2, d=2, defect=[[0.0, 0.0]], box=([-7.5, -7.5], [7.5, 7.5]))
    cases = [(lattice, [[0.0, 0.0], [0.0625, 0.3], [-0.41, 0.77]], 5),
             (generate_centers(spec).points, [[0.0, 0.0], [0.3, 0.1], [2.5, 2.5], [6.2, -3.1]], 14)]
    for points, probes, degree in cases:
        *with_certificate, fired = densities_with(True, points, probes, degree)
        *without, silent = densities_with(False, points, probes, degree)
        assert with_certificate == without
        assert fired and not silent


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data(), st.sampled_from(CLOUDS))
def test_certificate_changes_no_density_on_consistency_clouds(seed, d, data, kind):
    degree = data.draw(st.integers(0, 3 if d == 3 else 6))
    cs, alpha = consistency_cloud(seed, d, kind)
    assert (densities_with(True, cs.points, alpha, degree)[:-1]
            == densities_with(False, cs.points, alpha, degree)[:-1])


@pytest.mark.parametrize("points, alpha, radius, degree", [
    ([[float(i), 0.0] for i in range(6)], [0.5, 0.0], 6.0, 1),  # one y value
    ([[x, y] for x in (0.0, 0.5, 1.0) for y in (0.0, 0.3, 0.7, 1.0)], [0.4, 0.4], 2.0, 3),
    ([[x, y, z] for x in (0.0, 1.0) for y in range(4) for z in range(3)],
     [0.5, 1.5, 1.0], 5.0, 2),
])
def test_certified_rank_deficient_text_equals_qr(points, alpha, radius, degree):
    # a certified system raises the text of the QR's rank, which _weights
    # then takes; with the certificate patched out the QR decides alone
    texts = []
    for certify in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            answers = spied_certificate(mp, certify)
            with pytest.raises(RankDeficient) as err:
                build_reproduction(CenterSet(points), alpha, radius, degree)
        assert any(answers) == certify
        texts.append(str(err.value))
    assert texts[0] == texts[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.data())
def test_certificate_silent_in_1d_and_on_random_clouds(seed, d, data):
    # in 1-D the values of dim Pi_degree = degree + 1 distinct centers are
    # too many; a uniform or clustered cloud repeats no coordinate
    kind = data.draw(st.sampled_from(CLOUDS if d == 1 else ["uniform", "clustered"]))
    degree = data.draw(st.integers(0, 3 if d == 3 else 8))
    cs, alpha = consistency_cloud(seed, d, kind)
    for offsets, radius in prefix_offsets(cs, alpha, degree):
        assert not polyrep._axis_deficient(offsets / radius, degree)


def near_deficient(d, degree, gap):
    """The square moment matrix of dim Pi_degree fixed centers in [-1, 1]^d,
    the last one ``gap`` away from the first."""
    m = polynomial_dim(d, degree)
    pts = np.random.default_rng(degree).uniform(-1, 1, size=(m, d))
    pts[-1] = pts[0] + gap / np.sqrt(d)
    return _monomials(pts / 2.0, degree)


def tuned_gap(d, degree, ratio):
    """The gap at which ``near_deficient`` has sigma_min / sigma_max = ratio."""
    import scipy.linalg

    gap = 1e-6
    for _ in range(6):  # sigma_min is about proportional to the gap
        sv = scipy.linalg.svdvals(near_deficient(d, degree, gap))
        gap *= ratio / (sv[-1] / sv[0])
    return gap


GUARD_CASES = [(1, 2), (1, 4), (2, 2), (2, 3), (3, 1)]


@pytest.mark.parametrize("d, degree", GUARD_CASES)
def test_guard_band_decides_by_singular_values(monkeypatch, d, degree):
    import scipy.linalg

    import surfspline.polyrep

    calls = {"svdvals": 0, "dormqr": 0}

    def spy(name):
        routine = getattr(surfspline.polyrep, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        monkeypatch.setattr(surfspline.polyrep, name, counted)

    spy("svdvals")
    spy("dormqr")
    m = polynomial_dim(d, degree)
    # (gap, inside the band, deficient, singular values taken): sigma_min /
    # sigma_max just below and just above RANK_RTOL; 30 and 300 times it,
    # inside the band but certified full rank by the norm bound; a repeated
    # center; a well-spread set
    cases = [(tuned_gap(d, degree, 0.99 * RANK_RTOL), True, True, True),
             (tuned_gap(d, degree, 1.01 * RANK_RTOL), True, False, True),
             (tuned_gap(d, degree, 30 * RANK_RTOL), True, False, False),
             (tuned_gap(d, degree, 300 * RANK_RTOL), True, False, False),
             (0.0, False, True, False), (0.5, False, False, False)]
    for gap, in_band, deficient, by_svd in cases:
        bmat = near_deficient(d, degree, gap)
        rdiag = np.abs(np.diag(scipy.linalg.qr(bmat.T, mode="r", pivoting=True)[0]))
        ratio = rdiag.min() / rdiag[0]
        assert (RANK_RTOL < ratio <= _GUARD * RANK_RTOL) == in_band
        ref, rank, sv = solve_by_gelsd(bmat)
        calls.update(svdvals=0, dormqr=0)
        weights, qr_rank = _min_norm(bmat.copy())
        assert (rank < m) == (qr_rank < m) == deficient
        assert deficient or qr_rank == rank == m
        assert calls["svdvals"] == by_svd  # only inside the band, where no bound decides
        if deficient:
            assert weights is None
            assert calls["dormqr"] == 0  # a deficient attempt never applies Q
        else:
            assert calls["dormqr"] == 1
            err = np.linalg.norm(weights - ref)
            assert err <= sv[0] / sv[-1] * 1e-14 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GUARD_CASES), st.floats(-0.5, 3.5))
def test_certificate_never_overrules_singular_values(case, decades):
    # gaps from sigma_min / sigma_max = 10^-0.5 RANK_RTOL up past the band's
    # top; inside the band the rank must be the singular values' whether the
    # norm certificate or svdvals decided it
    import scipy.linalg
    from scipy.linalg.lapack import dgeqp3

    d, degree = case
    m = polynomial_dim(d, degree)
    bmat = near_deficient(d, degree, tuned_gap(d, degree, RANK_RTOL) * 10.0**decades)
    qr = dgeqp3(bmat.T.copy())[0]
    ratio = np.abs(np.diag(qr)).min() / abs(qr[0, 0])
    sv = scipy.linalg.svdvals(np.triu(qr[:m]))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scipy.linalg.svdvals(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyrep, "svdvals", counted)
        weights, rank = _min_norm(bmat.copy())
    if RANK_RTOL < ratio <= _GUARD * RANK_RTOL:
        assert (weights is None) == (sv[-1] <= RANK_RTOL * sv[0])
        if not calls:  # certified: the singular values call it full rank
            assert rank == m and sv[-1] > RANK_RTOL * sv[0]


# ---------------------------------------------------------------------------
# local solves on one BLAS thread


@pytest.fixture
def blas_threads():
    """The caller's BLAS thread count, set to 2 for the test so that a serial
    section's restore shows; the count found before comes back afterwards."""
    get, put = polyrep._get_blas_threads, polyrep._set_blas_threads
    if get is None or put is None:
        pytest.skip("scipy's BLAS exposes no thread-count control")
    before = get()
    put(2)
    yield get()
    put(before)


def read_threads_in_qr(monkeypatch, depths=None):
    """The BLAS thread counts read inside each local QR from here on; with
    ``depths``, the serial sections' depth at each QR goes there."""
    reads, qr, get = [], polyrep.dgeqp3, polyrep._get_blas_threads

    def spy(*args, **kwargs):
        reads.append(get())
        if depths is not None:
            depths.append(polyrep._blas_depth)
        return qr(*args, **kwargs)

    monkeypatch.setattr(polyrep, "dgeqp3", spy)
    return reads


def solving_calls():
    """One call of each public entry that makes local solves, each on a fresh
    center set (an empty solve memo), and for each entry a call that raises,
    with its error."""
    from surfspline import DensityField, KernelParams, assemble, bump
    from surfspline.quasiinterp import AssemblyError

    grid = np.arange(-16, 17) / 8.0
    f, params = bump(5, [0.0], 1.0), KernelParams(d=1, k=1, degree=4)

    def assembled(rho):
        return lambda: assemble(CenterSet(grid), f, params,
                                DensityField(np.zeros((1, 1)), [rho]).nearest, 2)

    collinear = CenterSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    ok = {
        "build_reproduction": lambda: build_reproduction(CenterSet(grid), [0.1], 0.7, 4),
        "minimal_density": lambda: minimal_density(CenterSet(grid), [[0.1], [0.3]], 4),
        "assemble": assembled(0.5),
    }
    failing = {
        "build_reproduction": (RankDeficient,
                               lambda: build_reproduction(collinear, [1.0, 0.5], 3.0, 1)),
        "minimal_density": (NoAdmissibleRadius,
                            lambda: minimal_density(CenterSet(grid), [0.1], 4, 1.1)),
        "assemble": (AssemblyError, assembled(0.05)),  # 1 center in each node's ball
    }
    return ok, failing


def test_local_solves_run_on_one_blas_thread(monkeypatch, blas_threads):
    reads = read_threads_in_qr(monkeypatch)
    for name, call in solving_calls()[0].items():
        del reads[:]
        call()
        assert reads and set(reads) == {1}, name
        assert polyrep._get_blas_threads() == blas_threads, name


def test_neighbor_queries_keep_the_callers_blas_threads(monkeypatch, blas_threads):
    # only the factorizations run on one BLAS thread: the neighbor queries of
    # each solving entry, read at the call and at each block a generator
    # yields, run on the caller's count
    import inspect

    from surfspline import density, quasiinterp

    get, reads = polyrep._get_blas_threads, {}

    def spy(owner, name):
        original = getattr(owner, name)

        def reading(*args, **kwargs):
            reads.setdefault(name, []).append(get())
            out = original(*args, **kwargs)

            def each():
                for item in out:
                    reads[name].append(get())
                    yield item
            return each() if inspect.isgenerator(out) else out

        monkeypatch.setattr(owner, name, reading)

    spy(quasiinterp, "_balls")
    spy(density, "_nearest_groups")
    spy(CenterSet, "neighbor_arrays")
    in_qr = read_threads_in_qr(monkeypatch)
    for call in solving_calls()[0].values():
        call()
    assert {name: set(seen) for name, seen in reads.items()} == {
        name: {blas_threads} for name in ("_balls", "_nearest_groups", "neighbor_arrays")}
    assert in_qr and set(in_qr) == {1}


def test_blas_threads_restored_on_raise(monkeypatch, blas_threads):
    ok, failing = solving_calls()
    for name, (error, call) in failing.items():
        with pytest.raises(error):
            call()
        assert polyrep._get_blas_threads() == blas_threads, name
    # a LAPACK wrapper reporting info 1 from the local QR
    qr = polyrep.dgeqp3
    monkeypatch.setattr(polyrep, "dgeqp3", lambda *args, **kwargs: (*qr(*args, **kwargs)[:-1], 1))
    for name, call in ok.items():
        with pytest.raises(np.linalg.LinAlgError, match="failed with info 1"):
            call()
        assert polyrep._get_blas_threads() == blas_threads, name


def test_concurrent_searches_match_serial_runs(monkeypatch, blas_threads):
    # 4 threads search one center set (and its solve memo) at once, their
    # serial sections overlapping, switching often: every QR of every thread
    # runs on one BLAS thread, so no thread's exit restores the count while
    # another is inside
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=(400, 2))
    batches = rng.uniform(-0.8, 0.8, size=(4, 40, 2))
    serial = [minimal_density(CenterSet(pts), batch, 8) for batch in batches]
    depths = []
    reads = read_threads_in_qr(monkeypatch, depths)
    shared, start = CenterSet(pts), threading.Barrier(4, timeout=60)

    def run(batch):
        start.wait()
        return minimal_density(shared, batch, 8)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, batches, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert reads and set(reads) == {1} and max(depths) > 1
    assert polyrep._get_blas_threads() == blas_threads
    for (rho, witnesses), (rho0, witnesses0) in zip(results, serial):
        assert rho.tobytes() == rho0.tobytes()
        for pr, pr0 in zip(witnesses, witnesses0):
            assert pr.indices.tobytes() == pr0.indices.tobytes()
            assert pr.weights.tobytes() == pr0.weights.tobytes()


def test_degree14_solves_equal_on_one_and_two_blas_threads(monkeypatch, blas_threads):
    # every local solve of degree-14 searches on a Remark-1 placement, rank
    # failures included, is bit for bit the same on one BLAS thread and with
    # the serial section a no-op, where the QRs run on the caller's threads
    from surfspline import MultiresSpec, generate_centers

    spec = MultiresSpec(j=2, k=2, d=2, defect=[[0.0, 0.0]], box=([-7.5, -7.5], [7.5, 7.5]))
    probes = [[0.0, 0.0], [0.3, 0.1], [1.5, -0.7], [2.5, 2.5], [6.2, -3.1]]
    reads = read_threads_in_qr(monkeypatch)
    min_norm, solves = polyrep._min_norm, []

    def recorded(bmat):
        w, rank = min_norm(bmat)
        solves[-1].append((None if w is None else w.tobytes(), rank))
        return w, rank

    monkeypatch.setattr(polyrep, "_min_norm", recorded)
    for serial in (True, False):
        if not serial:
            monkeypatch.setattr(polyrep, "_get_blas_threads", None)
            monkeypatch.setattr(polyrep, "_set_blas_threads", None)
        solves.append([])
        del reads[:]
        minimal_density(generate_centers(spec), probes, 14)
        assert set(reads) == {1 if serial else blas_threads}
    assert solves[0] == solves[1]
    assert any(w is None for w, _ in solves[0]) and any(w is not None for w, _ in solves[0])

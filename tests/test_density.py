"""Density fields: minimal density, majorant, certificates, lemma transfers."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from surfspline import (
    CenterSet,
    DensityField,
    NoAdmissibleRadius,
    build_reproduction,
    certify_self_majorization,
    certify_slow_growth,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
    polynomial_dim,
    validate_theorem1_params,
)
from surfspline.centers import DUPLICATE_TOL


def brute_force_minimal(cs, alpha, degree, cap):
    """Linear scan over all candidate radii -- the reference oracle."""
    from surfspline.centers import sorted_candidate_radii
    from surfspline.polyrep import ReproductionError

    for r in sorted_candidate_radii(cs, alpha):
        r = max(r, 1e-13)
        try:
            pr = build_reproduction(cs, alpha, r, degree)
        except ReproductionError:
            continue
        if pr.stability < cap:
            return r
    raise NoAdmissibleRadius


def test_grid_midpoint():
    # uniform grid spacing h, degree 1, K = 3: midpoint is captured at rho <= h
    h = 0.25
    cs = CenterSet(np.arange(-8, 9) * h)
    rho, pr = minimal_density(cs, [h / 2], 1, 3.0)
    assert rho <= h
    assert sorted(pr.weights.tolist()) == pytest.approx([0.5, 0.5])
    assert rho == pytest.approx(brute_force_minimal(cs, np.array([h / 2]), 1, 3.0))


def test_coincident_center_degree_zero():
    cs = CenterSet([0.0, 1.0, 2.0])
    rho, pr = minimal_density(cs, [1.0], 0, 2.0)
    assert rho <= 1e-12  # first candidate radius, the center itself
    assert pr.weights == pytest.approx([1.0])


def test_minimal_density_matches_brute_force():
    rng = np.random.default_rng(10)
    cs = CenterSet(rng.uniform(-1, 1, size=(80, 2)))
    cap = 4.0 * polynomial_dim(2, 2)
    for _ in range(5):
        alpha = rng.uniform(-0.5, 0.5, size=2)
        rho, pr = minimal_density(cs, alpha, 2, cap)
        assert rho == pytest.approx(brute_force_minimal(cs, alpha, 2, cap))
        assert pr.stability < cap


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 4), st.booleans())
def test_search_matches_linear_scan(seed, d, degree, clustered):
    # the bisection assumes unisolvency is monotone in the radius
    rng = np.random.default_rng(seed)
    n = 3 * polynomial_dim(d, degree) + 4
    if clustered:
        hubs = rng.uniform(-1, 1, size=(3, d))
        pts = hubs[rng.integers(3, size=n)] + 0.05 * rng.normal(size=(n, d))
    else:
        pts = rng.uniform(-1, 1, size=(n, d))
    cs = CenterSet(pts)
    alpha = rng.uniform(-0.5, 0.5, size=d)
    cap = 4.0 * polynomial_dim(d, degree)
    try:
        expected = brute_force_minimal(cs, alpha, degree, cap)
    except NoAdmissibleRadius:
        with pytest.raises(NoAdmissibleRadius):
            minimal_density(cs, alpha, degree, cap)
        return
    rho, _ = minimal_density(cs, alpha, degree, cap)
    assert rho == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.integers(0, 20))
def test_witness_holds_whole_tie_group(i, j):
    # a 0.1-spaced grid: distances that tie exactly differ by rounding
    xs = np.arange(-10, 11) * 0.1
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    alpha = np.array([xs[i], xs[j]])
    rho, pr = minimal_density(cs, alpha, 3)
    dist = np.linalg.norm(cs.points - alpha, axis=1)
    assert sorted(pr.indices.tolist()) == np.flatnonzero(dist <= rho + DUPLICATE_TOL).tolist()


def test_adding_centers_never_increases_rho():
    rng = np.random.default_rng(11)
    base = rng.uniform(-1, 1, size=(60, 2))
    more = np.concatenate([base, rng.uniform(-1, 1, size=(60, 2))])
    alpha = np.zeros(2)
    cap = 4.0 * polynomial_dim(2, 2)
    rho0, _ = minimal_density(CenterSet(base), alpha, 2, cap)
    rho1, _ = minimal_density(CenterSet(more), alpha, 2, cap)
    assert rho1 <= rho0 + 1e-12


def test_no_admissible_radius():
    cs = CenterSet([0.0, 1.0])
    with pytest.raises(NoAdmissibleRadius, match=r"at alpha \[0\.5\]"):
        minimal_density(cs, [0.5], 3, 100.0)
    # every exit names the point: too few centers above, then collinear
    # centers (never unisolvent) and a cap below 1 (never met)
    cs = CenterSet([[float(i), 0.0] for i in range(6)])
    with pytest.raises(NoAdmissibleRadius, match=r"at alpha \[0\.5, 0\.0\]: no unisolvent"):
        minimal_density(cs, [0.5, 0.0], 1)
    cs = CenterSet([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(NoAdmissibleRadius, match=r"at alpha \[0\.25\]: stability cap"):
        minimal_density(cs, [0.25], 1, 0.5)


def fresh_witness(cs, alpha, rho, degree):
    """build_reproduction at rho on a copy of cs, whose solve memo is empty."""
    return build_reproduction(CenterSet(cs.points), alpha, rho, degree)


def count_solves(monkeypatch):
    """Count the least-squares solves made from here on."""
    import scipy.linalg

    calls = []
    lstsq = scipy.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lstsq", counted)
    return calls


def consistency_cloud(seed, d, dyadic):
    rng = np.random.default_rng(seed)
    if dyadic:  # 2^-j lattice: many exact ties, offsets repeat from point to point
        h = 2.0 ** -int(rng.integers(1, 4))
        xs = np.arange(-6, 7) * h if d < 3 else np.arange(-3, 4) * h
        cs = CenterSet(np.stack([m.ravel() for m in np.meshgrid(*[xs] * d, indexing="ij")], 1))
        alpha = h * (rng.integers(-2, 3, size=d) + rng.choice([0.0, 0.5], size=d))
    else:
        cs = CenterSet(rng.uniform(-1, 1, size=(60, d)))
        alpha = rng.uniform(-0.5, 0.5, size=d)
    return cs, alpha


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.booleans())
def test_prefix_windows_match_ball_queries(seed, d, dyadic):
    from surfspline.centers import _tie_groups
    from surfspline.density import _ZERO_RADIUS

    cs, alpha = consistency_cloud(seed, d, dyadic)
    order, radii, counts = _tie_groups(cs, alpha)
    for r, n in zip(radii, counts):
        idx, _ = cs.neighbor_arrays(alpha, max(r, _ZERO_RADIUS))
        assert np.array_equal(idx, order[:n])  # same set, same order


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 4), st.booleans())
def test_witness_equals_build_reproduction(seed, d, degree, dyadic):
    cs, alpha = consistency_cloud(seed, d, dyadic)
    try:
        rho, pr = minimal_density(cs, alpha, degree)
    except NoAdmissibleRadius:
        return
    ref = fresh_witness(cs, alpha, rho, degree)
    assert ref.radius == rho
    assert np.array_equal(pr.indices, ref.indices)
    assert np.array_equal(pr.weights, ref.weights)


def test_solve_memo_is_exact(monkeypatch):
    # a dyadic grid: base points one spacing apart see the same offsets
    h = 0.25
    xs = np.arange(-8, 9) * h
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    alphas = [h * np.array([i + 0.5 * (j % 2), j]) for i in range(-2, 3) for j in range(-2, 3)]
    shared = count_solves(monkeypatch)
    results = [minimal_density(cs, a, 5) for a in alphas]
    n_shared = len(shared)
    shared.clear()
    for a, (rho, pr) in zip(alphas, results):
        rho0, pr0 = minimal_density(CenterSet(cs.points), a, 5)
        assert rho == rho0
        assert np.array_equal(pr.indices, pr0.indices)
        assert np.array_equal(pr.weights, pr0.weights)
    assert n_shared < len(shared)  # the shared set's memo was hit


def test_solve_memo_misses_near_matches():
    # a translated copy jittered by 1e-9, and one ball at two radii: equal
    # up to round-off, so only an exact key returns each fresh solve's bits
    rng = np.random.default_rng(22)
    base = rng.uniform(-0.6, 0.6, size=(20, 2))  # all within radius 1 of 0
    copy = base + [10.0, 0.0]
    copy[0, 0] += 1e-9
    cs = CenterSet(np.concatenate([base, copy]))
    queries = [([0.0, 0.0], 1.0), ([10.0, 0.0], 1.0), ([0.0, 0.0], 1.3)]
    refs = [fresh_witness(cs, a, r, 3).weights for a, r in queries]
    assert not np.array_equal(refs[0], refs[1])
    assert not np.array_equal(refs[0], refs[2])
    for (a, r), ref in zip(queries, refs):
        assert np.array_equal(build_reproduction(cs, a, r, 3).weights, ref)


def test_solve_memo_scope(monkeypatch):
    cs = CenterSet(np.random.default_rng(20).uniform(-1, 1, size=(40, 2)))
    alpha = np.zeros(2)
    minimal_density(cs, alpha, 2)
    calls = count_solves(monkeypatch)
    minimal_density(cs, alpha, 2)
    assert calls == []  # every attempt repeats an earlier solve
    minimal_density(CenterSet(cs.points), alpha, 2)
    assert calls  # a new set starts with an empty memo


def test_solve_memo_bound():
    from surfspline.centers import _SOLVE_MEMO_CAP

    rng = np.random.default_rng(21)
    cs = CenterSet(rng.uniform(-1, 1, size=(200, 1)))
    largest = 0
    for a in rng.uniform(-0.5, 0.5, size=_SOLVE_MEMO_CAP + 50):
        build_reproduction(cs, [a], 0.1, 1)  # distinct offsets at every point
        largest = max(largest, len(cs._solves))
    assert largest == _SOLVE_MEMO_CAP


def test_solve_memo_shared_by_threads(monkeypatch):
    import sys
    import threading

    import surfspline.polyrep

    cap, n_threads = 5, 4
    monkeypatch.setattr(surfspline.polyrep, "_SOLVE_MEMO_CAP", cap)  # evict often
    xs = np.arange(-6, 7) * 0.25
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    alphas = [np.array([0.125 * i, 0.25 * j]) for i in range(-2, 3) for j in range(-1, 2)]
    serial = [minimal_density(CenterSet(pts), a, 4) for a in alphas]
    cs = CenterSet(pts)
    results, sizes = {}, []

    def work(t):
        for k in range(len(alphas)):
            k = (k + 5 * t) % len(alphas)
            results[t, k] = minimal_density(cs, alphas[k], 4)
            sizes.append(len(cs._solves))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == n_threads * len(alphas)
    for (t, k), (rho, pr) in results.items():
        assert rho == serial[k][0]
        assert np.array_equal(pr.indices, serial[k][1].indices)
        assert np.array_equal(pr.weights, serial[k][1].weights)
    assert max(sizes) <= cap + n_threads - 1


def test_solve_memo_weights_read_only():
    cs = CenterSet(np.arange(-4, 5) * 0.5)
    first = build_reproduction(cs, [0.25], 1.0, 2)
    hit = build_reproduction(cs, [0.25], 1.0, 2)
    assert hit.weights is first.weights
    with pytest.raises(ValueError):
        hit.weights[0] = 0.0
    assert np.array_equal(build_reproduction(cs, [0.25], 1.0, 2).weights,
                          fresh_witness(cs, [0.25], 1.0, 2).weights)


def make_field(rng, n=40, d=2):
    pts = rng.uniform(-5, 5, size=(n, d))
    vals = np.exp(rng.normal(size=n) * 0.7)
    return DensityField(pts, vals)


def test_majorant_constant_field():
    pts = np.linspace(0, 3, 7)
    df = DensityField(pts, np.full(7, 0.4))
    for x in pts:
        assert majorant(df, [x], 2.0) == pytest.approx(0.4)


def test_majorant_two_samples():
    # rho(0)=1, rho(10)=100, r=1, x=0 -> max(1, 100/1.1)
    df = DensityField(np.array([[0.0], [10.0]]), np.array([1.0, 100.0]))
    assert majorant(df, [0.0], 1.0) == pytest.approx(100.0 / 1.1)


def test_majorant_exhaustive_match():
    rng = np.random.default_rng(12)
    df = make_field(rng)
    x = rng.uniform(-5, 5, size=2)
    r = 1.5
    d = np.linalg.norm(df.points - x, axis=1)
    assert majorant(df, x, r) == pytest.approx(
        float(np.max(df.values * (1 + d / df.values) ** (-r))))


def test_majorant_dominates_density():
    rng = np.random.default_rng(13)
    df = make_field(rng)
    for p, v in zip(df.points, df.values):
        assert majorant(df, p, 2.0) >= v - 1e-14


def test_majorant_of_majorant_constant():
    rng = np.random.default_rng(14)
    df = make_field(rng, n=60)
    r = 2.0
    h = np.array([majorant(df, p, r) for p in df.points])
    dfh = DensityField(df.points, h)
    hh = np.array([majorant(dfh, p, r) for p in df.points])
    ratio = hh / h
    assert np.all(ratio >= 1 - 1e-12)
    assert np.max(ratio) < 10.0  # finite constant multiple


# -- the pair engine against an exhaustive cdist scan ----------------------


def brute_self_majorization(df, r):
    vx, d = df.values[:, None], cdist(df.points, df.points)
    return float(np.min(df.values / (vx * (1.0 + d / vx) ** (-r))))


def brute_slow_growth(df, epsilon):
    vx, d = df.values[:, None], cdist(df.points, df.points)
    return float(np.max(df.values / (vx * (1.0 + d / vx) ** (1.0 - epsilon))))


def brute_majorant(df, x, r):
    vy, d = df.values[None, :], cdist(np.atleast_2d(x), df.points)
    return np.max(vy * (1.0 + d / vy) ** (-r), axis=1)


@contextmanager
def engine(forced, counts=None, chunk=3):
    """With ``forced``, prune even the smallest inputs, in blocks of ``chunk``
    rows; ``counts`` collects the number of pairs each distance call evaluates."""
    import surfspline.density as density

    distances = density._pair_distances

    def counted(x, y):
        out = distances(x, y)
        counts.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(density, "_SCAN_PAIRS", 0)
            mp.setattr(density, "_PAIR_CHUNK", chunk)
        if counts is not None:
            mp.setattr(density, "_pair_distances", counted)
        yield


def assert_matches_brute_force(df, r, epsilon, probes):
    for forced in (False, True):
        with engine(forced):
            assert certify_self_majorization(df, r) == brute_self_majorization(df, r)
            assert certify_slow_growth(df, epsilon) == brute_slow_growth(df, epsilon)
            assert np.array_equal(majorant(df, probes, r), brute_majorant(df, probes, r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 120),
       st.floats(0.0, 4.0), st.floats(0.05, 5.0), st.floats(0.01, 0.99))
def test_pair_engine_matches_brute_force(seed, d, n, spread, r, epsilon):
    # log-normal fields at any scale: off-diagonal extrema once spread > 0,
    # probes near the samples and far outside their hull
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    df = DensityField(rng.uniform(-5, 5, size=(n, d)) * scale,
                      np.exp(rng.normal(size=n) * spread) * scale * rng.uniform(0.01, 1))
    probes = rng.uniform(-5, 5, size=(7, d)) * scale * 10.0 ** rng.uniform(0, 6, size=(7, 1))
    assert_matches_brute_force(df, r, epsilon, probes)


def test_pair_engine_criterion_2_fields():
    rng = np.random.default_rng(101)  # the fields of acceptance criterion 2
    for _ in range(100):
        n, d = int(rng.integers(20, 201)), int(rng.integers(1, 3))
        df = DensityField(rng.uniform(-5, 5, size=(n, d)), np.exp(rng.normal(size=n) * 0.8))
        for forced in (False, True):
            with engine(forced, chunk=64):
                for r in (1.0, 2.0, 3.0):
                    assert certify_self_majorization(df, r) == brute_self_majorization(df, r)
                    eps = 1.0 / (r + 1.0)
                    assert certify_slow_growth(df, eps) == brute_slow_growth(df, eps)


def test_pair_engine_one_sample():
    df = DensityField([[0.5, -1.0]], [0.3])
    probes = np.array([[0.5, -1.0], [2.0, 7.0], [1e8, -1e8]])
    assert certify_self_majorization(df, 2.0) == 1.0
    assert certify_slow_growth(df, 0.5) == 1.0
    assert_matches_brute_force(df, 2.0, 0.5, probes)


def test_pair_engine_prunes_smooth_field():
    # the bench's analytic Remark-1 profile: the diagonal decides both certificates
    xs = np.linspace(-0.5, 0.5, 33)
    pts = np.stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6
    df = DensityField(pts, np.minimum(rho0 * (1 + np.linalg.norm(pts, axis=1) / rho0)
                                      ** (2.0 / 3.0), 2.0**-3))
    counts = []
    with engine(False, counts):
        assert certify_self_majorization(df, 2.0) == brute_self_majorization(df, 2.0)
        assert certify_slow_growth(df, 1 / 3) == brute_slow_growth(df, 1 / 3)
    assert sum(counts) < 0.05 * 2 * len(df) ** 2


def test_pair_engine_without_pruning():
    rng = np.random.default_rng(23)
    n = 300
    df = DensityField(rng.uniform(-1, 1, size=(n, 2)), np.exp(rng.normal(size=n)))
    # far probes: every ball holds every sample, so every pair is scanned
    probes = rng.uniform(-1, 1, size=(40, 2)) + 1e6
    counts = []
    with engine(True, counts):
        assert np.array_equal(majorant(df, probes, 0.5), brute_majorant(df, probes, 0.5))
    assert sum(counts) >= len(probes) * n
    # samples closer together than the cutoff pad: no pair can be pruned
    tight = DensityField(rng.uniform(size=(60, 2)) * 1e-12, np.exp(rng.normal(size=60)))
    assert_matches_brute_force(tight, 1.5, 0.3, tight.points[:5] + 1.0)


#: Fields in which the decisive pair (x, y) lies exactly at the cutoff
#: distance D of the nearest-sample bound (best = 1), or ``offset`` from it,
#: out of reach of x's nearest samples; 40 samples far away keep every block's
#: balls small, so the kept pairs are listed from the tree, not scanned.
def cutoff_field(kind, offset):
    far = list(-1000.0 - 50.0 * np.arange(40))
    if kind == "self_majorization":  # rho_min at 0, x at D = 2, r = 1: C = (2 + D) / 4
        D = 2.0 + offset
        return DensityField([0.0, D, D + 0.25, D + 0.5, D + 0.75] + far, [1.0] + [2.0] * 44)
    # x at 0 and rho_max at D: slow growth with epsilon = 1/2 at D = 15,
    # C = 4 / sqrt(1 + D); the majorant at 0 with r = 1 at D = 12, H = 16 / (4 + D)
    D = (15.0 if kind == "slow_growth" else 12.0) + offset
    return DensityField([0.0, -0.25, -0.5, D] + far, [1.0, 1.0, 1.0, 4.0] + [1.0] * 40)


@pytest.mark.parametrize("offset", [0.0, -2.0**-40, 2.0**-40, -2.0**-20])
@pytest.mark.parametrize("kind", ["self_majorization", "slow_growth", "majorant"])
def test_pair_engine_pair_at_cutoff(kind, offset):
    df = cutoff_field(kind, offset)
    with engine(True):
        if kind == "self_majorization":
            got, want = certify_self_majorization(df, 1.0), brute_self_majorization(df, 1.0)
        elif kind == "slow_growth":
            got, want = certify_slow_growth(df, 0.5), brute_slow_growth(df, 0.5)
        else:
            got, want = majorant(df, [0.0], 1.0), float(brute_majorant(df, [0.0], 1.0)[0])
    assert got == want
    if offset < 0:  # the pair beats the nearest-sample bound 1
        assert got != 1.0


@pytest.mark.parametrize("d", range(1, 13))
def test_pair_distances_match_cdist(d):
    from surfspline.density import _pair_distances

    rng = np.random.default_rng(d)
    x = rng.normal(size=(30, d)) * 10.0 ** rng.uniform(-4, 4, size=(30, 1))
    y = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-4, 4, size=(40, 1))
    ref = cdist(x, y)
    assert np.array_equal(_pair_distances(x[:, None, :], y[None, :, :]), ref)
    i, j = rng.integers(30, size=200), rng.integers(40, size=200)
    assert np.array_equal(_pair_distances(x[i], y[j]), ref[i, j])


def test_slow_growth_constant_field():
    df = DensityField(np.linspace(0, 3, 5), np.full(5, 2.0))
    assert certify_slow_growth(df, 0.5) == pytest.approx(1.0)


def test_self_majorization_constant_field():
    df = DensityField(np.linspace(0, 3, 5), np.full(5, 2.0))
    assert certify_self_majorization(df, 1.0) == pytest.approx(1.0)


def test_self_majorization_two_samples():
    # rho(0)=1, rho(1)=10, r=1: worst ordered pair is (x=1, y=0)
    df = DensityField(np.array([[0.0], [1.0]]), np.array([1.0, 10.0]))
    assert certify_self_majorization(df, 1.0) == pytest.approx(0.11)


def test_self_majorization_never_exceeds_one():
    rng = np.random.default_rng(15)
    for _ in range(5):
        df = make_field(rng)
        assert certify_self_majorization(df, 1.7) <= 1.0 + 1e-14


def test_slow_growth_at_least_one():
    rng = np.random.default_rng(16)
    for _ in range(5):
        df = make_field(rng)
        assert certify_slow_growth(df, 0.4) >= 1.0 - 1e-14


def test_certify_translation_invariance():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-1, 1, size=(30, 2))
    vals = np.exp(rng.normal(size=30) * 0.5)
    a = certify_slow_growth(DensityField(pts, vals), 0.3)
    b = certify_slow_growth(DensityField(pts + 11.0, vals), 0.3)
    assert a == pytest.approx(b, rel=1e-12)


def test_lemma_sm_to_sg_values():
    eps, c_sg = lemma_transfer_sm_to_sg(1.0, 1.0)
    assert (eps, c_sg) == (pytest.approx(0.5), pytest.approx(2.0))
    eps, c_sg = lemma_transfer_sm_to_sg(0.5, 2.0)
    assert (eps, c_sg) == (pytest.approx(1 / 3), pytest.approx(8.0))


def test_lemma_sm_to_sg_small_r_limit():
    eps, c_sg = lemma_transfer_sm_to_sg(1.0, 1e-9)
    assert eps == pytest.approx(1.0, abs=1e-8)
    assert c_sg == pytest.approx(1.0, abs=1e-8)


def test_lemma_sg_to_sm_values():
    r, c_sm = lemma_transfer_sg_to_sm(1.0, 0.5)
    assert (r, c_sm) == (pytest.approx(1.0), pytest.approx(0.5))
    r, c_sm = lemma_transfer_sg_to_sm(2.0, 1 / 3)
    assert r == pytest.approx(2.0)
    assert c_sm == pytest.approx(2.0**-5)


def test_lemma_sg_to_sm_eps_to_one():
    r, _ = lemma_transfer_sg_to_sm(1.5, 0.999)
    assert r == pytest.approx(0.001 / 0.999)


def test_lemma_round_trip_on_random_fields():
    rng = np.random.default_rng(18)
    for _ in range(10):
        df = make_field(rng, n=50)
        for r in (1.0, 2.0):
            c_sm = certify_self_majorization(df, r)
            eps, c_sg_bound = lemma_transfer_sm_to_sg(c_sm, r)
            assert certify_slow_growth(df, eps) <= c_sg_bound * (1 + 1e-12)
        for eps in (0.25, 0.5):
            c_sg = certify_slow_growth(df, eps)
            r, c_sm_bound = lemma_transfer_sg_to_sm(c_sg, eps)
            assert certify_self_majorization(df, r) >= c_sm_bound * (1 - 1e-12)


def test_theorem1_params():
    assert validate_theorem1_params(2, 2, 14, 1 / 3) == []
    bad = validate_theorem1_params(2, 2, 3, 0.9)
    assert any("2k-d+1" in v for v in bad)  # 3 > 2k-d+1 = 3 fails
    bad = validate_theorem1_params(2, 2, 14, 0.2)
    assert len(bad) == 1 and "2k/degree" in bad[0]
    with pytest.raises(ValueError):
        validate_theorem1_params(1, 3, 10, 0.5)  # 2k <= d

"""Density fields: minimal density, majorant, certificates, lemma transfers."""

from contextlib import contextmanager
from itertools import islice

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
    default_stability_cap,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
    polynomial_dim,
    validate_theorem1_params,
)
from surfspline.centers import DUPLICATE_TOL
from test_centers import tie_groups


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
    # centers (never unisolvent) and a cap below every Sum|a| (never met)
    cs = CenterSet([[float(i), 0.0] for i in range(6)])
    with pytest.raises(NoAdmissibleRadius, match=r"at alpha \[0\.5, 0\.0\]: no unisolvent"):
        minimal_density(cs, [0.5, 0.0], 1)
    cs = CenterSet([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(NoAdmissibleRadius, match=r"at alpha \[0\.25\]: stability cap"):
        minimal_density(cs, [0.25], 2, 1.05)


@pytest.mark.parametrize("window", [1, 4, 10**9])
def test_no_admissible_radius_messages(monkeypatch, window):
    # the messages do not depend on how far the distance order is sorted
    import surfspline.density

    monkeypatch.setattr(surfspline.density, "_WINDOW", window)
    cases = [
        (CenterSet([0.0, 1.0]), [0.5], 3, 100.0,
         "at alpha [0.5]: only 2 centers, need 4 for degree 3"),
        (CenterSet([[float(i), 0.0] for i in range(6)]), [0.5, 0.0], 1, None,
         "at alpha [0.5, 0.0]: no unisolvent neighbor set at any radius"),
        (CenterSet([0.0, 1.0, 2.0, 3.0]), [0.25], 2, 1.05,
         "at alpha [0.25]: stability cap 1.05 never met (best Sum|a| = 1.09375)"),
    ]
    for cs, alpha, degree, cap, message in cases:
        with pytest.raises(NoAdmissibleRadius) as err:
            minimal_density(cs, alpha, degree, cap)
        assert str(err.value) == message


def test_no_admissible_radius_reports_smallest_stability():
    # the smallest Sum|a| the cap scan solved, not its last attempt's (the
    # whole set's)
    cs, alpha = consistency_cloud(0, 1, "uniform")
    assert f"{build_reproduction(cs, alpha, 10.0, 2).stability:g}" == "1.31983"
    with pytest.raises(NoAdmissibleRadius, match=r"never met \(best Sum\|a\| = 1\.07444\)$"):
        minimal_density(cs, alpha, 2, 1.05)


@pytest.mark.parametrize("cap", [1.0, 0.5, 0.0, -2.0, float("nan")])
def test_impossible_stability_cap_rejected_before_any_solve(count_solves, cap):
    # Sum|a| >= Sum a = 1, so a cap not above 1 could only be met by
    # round-off; the search would scan every candidate radius first
    cs = CenterSet(np.random.default_rng(5).uniform(-1, 1, size=(200, 2)))
    with pytest.raises(ValueError, match=rf"^stability_cap must be > 1, got {cap!r}$"):
        minimal_density(cs, [[0.0, 0.0], [0.5, 0.5]], 3, cap)
    assert count_solves == []


def fresh_witness(cs, alpha, rho, degree):
    """build_reproduction at rho on a copy of cs, whose solve memo is empty."""
    return build_reproduction(CenterSet(cs.points), alpha, rho, degree)


#: Center clouds of :func:`consistency_cloud`.
CLOUDS = ["uniform", "dyadic", "decimal", "clustered"]


def consistency_cloud(seed, d, kind):
    """Centers and a base point: a uniform or a clustered cloud, a 2^-j
    lattice (exact ties; offsets repeat from point to point), a 0.1 lattice
    (ties equal only up to rounding, chained through DUPLICATE_TOL) or, as
    ``"chain"``, shells about the base point whose centers' distances step by
    just under DUPLICATE_TOL (one tie group, chained link by link) or just
    over it (a new group)."""
    rng = np.random.default_rng(seed)
    if kind in ("dyadic", "decimal"):
        h = 0.1 if kind == "decimal" else 2.0 ** -int(rng.integers(1, 4))
        xs = np.arange(-6, 7) * h if d < 3 else np.arange(-3, 4) * h
        cs = CenterSet(np.stack([m.ravel() for m in np.meshgrid(*[xs] * d, indexing="ij")], 1))
        alpha = h * (rng.integers(-2, 3, size=d) + rng.choice([0.0, 0.5], size=d))
    elif kind == "clustered":
        n = int(rng.integers(10, 120))
        hubs = rng.uniform(-1, 1, size=(3, d))
        cs = CenterSet(hubs[rng.integers(3, size=n)] + 0.05 * rng.normal(size=(n, d)))
        alpha = rng.uniform(-0.5, 0.5, size=d)
    elif kind == "chain":
        alpha = rng.uniform(-0.5, 0.5, size=d)
        per = 2 if d == 1 else 8  # a 1-D shell has one center on each side
        shells = np.sort(rng.uniform(0.05, 1.0, size=int(rng.integers(4, 12))))
        steps = rng.choice([0.9, 1.1], size=(shells.size, per)) * DUPLICATE_TOL
        links = (shells[:, None] + np.cumsum(steps, axis=1)).ravel()
        if d > 1:
            dirs = rng.normal(size=(links.size, d))
        else:
            dirs = np.tile([[1.0], [-1.0]], (shells.size, 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cs = CenterSet(alpha + links[:, None] * dirs)
    else:
        cs = CenterSet(rng.uniform(-1, 1, size=(60, d)))
        alpha = rng.uniform(-0.5, 0.5, size=d)
    return cs, alpha


def full_groups(cs, alpha):
    """The tie groups of the whole set about alpha, from a full scan."""
    return tie_groups(np.arange(len(cs)), np.linalg.norm(cs.points - alpha, axis=1))


def query_block(rng, cs, alpha, n):
    """n query points: alpha among points near the centers, or on the lattice's
    points and midpoints, where tie groups straddle every window's edge."""
    pts = cs.points[rng.integers(len(cs), size=n)]
    steps = np.diff(np.unique(cs.points[:, 0]))
    pts = pts + 0.5 * np.min(steps) * rng.choice([-1.0, 0.0, 1.0], size=pts.shape)
    pts[rng.integers(n)] = alpha
    return pts


class NoisyTree:
    """A kd-tree stand-in whose distances carry relative errors up to 1e-11:
    far above float rounding, far below ``_CUTOFF_PAD``, so it orders
    near-ties, across groups just over DUPLICATE_TOL apart too, as it likes.
    Like cKDTree, it reports neighbors past the set at distance inf, index n."""

    def __init__(self, points, rng):
        self.points, self.rng = points, rng

    def query(self, x, k):
        dist = cdist(x, self.points)
        dist *= 1.0 + 1e-11 * self.rng.uniform(-1, 1, size=dist.shape)
        near = np.argsort(dist, axis=1)[:, :k]
        dist = np.take_along_axis(dist, near, axis=1)
        pad = ((0, 0), (0, k - near.shape[1]))
        return (np.pad(dist, pad, constant_values=np.inf),
                np.pad(near, pad, constant_values=len(self.points)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.sampled_from(CLOUDS + ["chain"]),
       st.integers(1, 70), st.booleans())
def test_prefix_windows_match_ball_queries(seed, d, kind, n, noisy):
    from surfspline.centers import _CUTOFF_PAD, _nearest_groups
    from surfspline.density import _ZERO_RADIUS

    cs, alpha = consistency_cloud(seed, d, kind)
    order, radii, counts = full_groups(cs, alpha)
    for r, c in zip(radii, counts):
        idx, _ = cs.neighbor_arrays(alpha, max(r, _ZERO_RADIUS))
        assert np.array_equal(idx, order[:c])  # same set, same order
    # every window of a block keeps whole groups only: a prefix of the whole
    # set's, bit for bit, holding every group that lies clear of its edge;
    # windows of each point's first groups cut a group whenever it has ties
    rng = np.random.default_rng(seed)
    pts = query_block(rng, cs, alpha, n)
    if noisy:
        cs = CenterSet(cs.points)
        cs._tree = NoisyTree(cs.points, rng)
    fulls = [full_groups(cs, p) for p in pts]
    edges = {int(c[g]) - 1 for _, _, c in fulls[:3] for g in range(min(c.size, 6))}
    sizes = sorted((edges | set(rng.integers(1, len(cs) + 2, size=4).tolist())) - {0})
    for size in sizes:
        for p, window, (order, radii, counts) in zip(pts, _nearest_groups(cs, pts, size), fulls):
            w_order, w_radii, w_counts = window
            g = w_radii.size
            assert w_radii.tobytes() == radii[:g].tobytes()
            assert np.array_equal(w_counts, counts[:g])
            if g:
                assert np.array_equal(w_order[:w_counts[-1]], order[:counts[g - 1]])
            if size >= len(cs):
                assert g == radii.size
                continue
            edge = np.sort(np.linalg.norm(cs.points - p, axis=1))[size]
            clear = edge * (1 - 3 * _CUTOFF_PAD) - 3 * _CUTOFF_PAD - DUPLICATE_TOL
            assert g >= np.count_nonzero(radii < clear)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 4), st.sampled_from(CLOUDS))
def test_witness_equals_build_reproduction(seed, d, degree, kind):
    cs, alpha = consistency_cloud(seed, d, kind)
    try:
        rho, pr = minimal_density(cs, alpha, degree)
    except NoAdmissibleRadius:
        return
    ref = fresh_witness(cs, alpha, rho, degree)
    assert ref.radius == rho
    assert np.array_equal(pr.indices, ref.indices)
    assert np.array_equal(pr.weights, ref.weights)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 4),
       st.sampled_from(CLOUDS[1:]))
def test_smallest_window_matches_full_sort(seed, d, degree, kind):
    # the first window at its minimum, dim Pi_degree centers, so the search
    # grows it again and again and tie groups straddle its edge; a window of
    # the whole set is the full sort
    import surfspline.density

    cs, alpha = consistency_cloud(seed, d, kind)
    cap = default_stability_cap(d, degree) if seed % 2 else 1.5
    results = []
    for window in (1, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surfspline.density, "_WINDOW", window)
            try:
                results.append(minimal_density(CenterSet(cs.points), alpha, degree, cap))
            except NoAdmissibleRadius as exc:
                results.append(str(exc))
    small, full = results
    if isinstance(full, str):
        assert small == full
        with pytest.raises(NoAdmissibleRadius):
            brute_force_minimal(cs, alpha, degree, cap)
        return
    assert small[0] == full[0] == brute_force_minimal(cs, alpha, degree, cap)
    for pr in (small[1], full[1], fresh_witness(cs, alpha, full[0], degree)):
        assert pr.radius == full[0]
        assert np.array_equal(pr.indices, full[1].indices)
        assert pr.weights.tobytes() == full[1].weights.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(CLOUDS + ["chain"]), st.integers(1, 70), st.sampled_from([1, 7, None]),
       st.sampled_from([1, 4]))
def test_batch_equals_point_by_point(seed, d, degree, kind, n, block, window):
    # blocks of 1, 7 and the default size (None), from the smallest window
    # (grown again and again) and the default; a cap of 1.5 makes some
    # points fail
    import surfspline.centers
    import surfspline.density

    cs, alpha = consistency_cloud(seed, d, kind)
    pts = query_block(np.random.default_rng(seed), cs, alpha, n)
    cap = default_stability_cap(d, degree) if seed % 3 else 1.5
    with pytest.MonkeyPatch.context() as mp:
        if block:
            mp.setattr(surfspline.centers, "_BLOCK", block)
        mp.setattr(surfspline.density, "_WINDOW", window)
        loop, failure = [], None
        for p in pts:
            try:
                loop.append(minimal_density(CenterSet(cs.points), p, degree, cap))
            except NoAdmissibleRadius as exc:
                failure = str(exc)
                break
        if failure is not None:
            with pytest.raises(NoAdmissibleRadius) as err:
                minimal_density(cs, pts, degree, cap)
            assert str(err.value) == failure
            return
        rho, witnesses = minimal_density(cs, pts, degree, cap)
    assert rho.shape == (n,) and len(witnesses) == n
    assert rho.tobytes() == np.array([r for r, _ in loop]).tobytes()
    for p, pr, (r, ref) in zip(pts, witnesses, loop):
        assert pr.radius == r
        assert pr.stability == float(np.sum(np.abs(pr.weights)))
        for other in (ref, fresh_witness(cs, p, r, degree)):
            assert np.array_equal(pr.indices, other.indices)
            assert pr.weights.tobytes() == other.weights.tobytes()


@pytest.mark.parametrize("kind", CLOUDS + ["chain"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_solves_each_radius_once(monkeypatch, d, kind):
    # the witness takes its weights from the search's own solve, and a cap
    # scan past an earlier success reuses it: no query solves a radius twice
    import surfspline.density

    solve, radii = surfspline.density._solve, []

    def spy(cs, offsets, radius, degree):
        radii.append(radius)
        return solve(cs, offsets, radius, degree)

    monkeypatch.setattr(surfspline.density, "_solve", spy)
    queries = 0
    for seed in range(12):
        cs, alpha = consistency_cloud(seed, d, kind)
        for degree in range(4):
            for cap in (default_stability_cap(d, degree), 1.5):
                radii.clear()
                try:
                    rho, _ = minimal_density(cs, alpha, degree, cap)
                except NoAdmissibleRadius:
                    continue
                queries += 1
                assert rho in radii and len(set(radii)) == len(radii)
    assert queries


@pytest.mark.parametrize("kind", CLOUDS + ["chain"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_whole_set_windows_take_no_tree_query(monkeypatch, d, kind):
    # a window of every center is the whole set in index order, taken without
    # the kd-tree: the tie groups of a full scan, bit for bit
    from surfspline.centers import _BLOCK, _nearest_groups, sorted_candidate_radii

    cs, alpha = consistency_cloud(d, d, kind)
    pts = query_block(np.random.default_rng(d), cs, alpha, _BLOCK + 3)
    fulls = [full_groups(cs, p) for p in pts]
    queries = []

    class Spy:
        def query(self, *args, **kwargs):
            queries.append(args)

    monkeypatch.setattr(cs, "_tree", Spy())
    assert sorted_candidate_radii(cs, alpha).tobytes() == full_groups(cs, alpha)[1].tobytes()
    for size in (len(cs), len(cs) + 1):
        windows = list(_nearest_groups(cs, pts, size))
        assert len(windows) == len(pts)
        for (order, radii, counts), (ref_order, ref_radii, ref_counts) in zip(windows, fulls):
            assert np.array_equal(order, ref_order)
            assert radii.tobytes() == ref_radii.tobytes()
            assert np.array_equal(counts, ref_counts)
    assert queries == []


def test_batch_takes_one_tree_query_per_block(monkeypatch):
    # on a lattice every window holds the search, so a batch of n points
    # makes ceil(n / _BLOCK) tree queries and never takes a distance to
    # every center
    import surfspline.centers
    from surfspline.centers import _BLOCK

    xs = np.arange(-20, 21) * 0.125
    cs = CenterSet(np.stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")], 1))
    pts = np.random.default_rng(3).uniform(-2, 2, size=(_BLOCK + 9, 2))
    tree, queries, lengths = cs._tree, [], []

    class Spy:
        def query(self, x, k):
            queries.append(len(x))
            return tree.query(x, k=k)

    distances = surfspline.centers._pair_distances

    def counted(x, y):
        lengths.append(np.shape(x)[-2])  # the centers each point's distances reach
        return distances(x, y)

    monkeypatch.setattr(cs, "_tree", Spy())
    monkeypatch.setattr(surfspline.centers, "_pair_distances", counted)
    rho, _ = minimal_density(cs, pts, 2)
    assert queries == [_BLOCK, 9]
    assert lengths and len(cs) not in lengths
    monkeypatch.undo()
    assert rho.tobytes() == np.array([minimal_density(cs, p, 2)[0] for p in pts]).tobytes()


def test_solve_memo_is_exact(count_solves):
    # a dyadic grid: base points one spacing apart see the same offsets
    h = 0.25
    xs = np.arange(-8, 9) * h
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    alphas = [h * np.array([i + 0.5 * (j % 2), j]) for i in range(-2, 3) for j in range(-2, 3)]
    shared = count_solves
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


def test_solve_memo_shares_scaled_copies(count_solves):
    # the moment matrix is a function of offsets / radius: a copy scaled by a
    # power of two, radius included, divides out exactly and shares the
    # solve; a copy scaled by 3 shares it only where the quotients round alike
    rng = np.random.default_rng(23)
    cells = rng.choice(81 * 81, size=20, replace=False)
    base = np.stack([cells // 81 - 40, cells % 81 - 40], axis=1) / 64.0  # exact offsets
    alpha, far = np.array([1.0, -2.0]) / 64.0, np.array([64.0, 0.0])
    for scale in (8.0, 0.25, 3.0):
        cs = CenterSet(np.concatenate([base, far + scale * base]))
        count_solves.clear()
        first = build_reproduction(cs, alpha, 1.3, 3)
        copy = build_reproduction(cs, far + scale * alpha, scale * 1.3, 3)
        assert np.array_equal(copy.indices, first.indices + len(base))
        offsets = base[first.indices] - alpha
        shared = (scale * offsets / (scale * 1.3)).tobytes() == (offsets / 1.3).tobytes()
        assert shared == (scale != 3.0)  # 3 * 1.3 is rounded, and some quotients move
        assert len(count_solves) == (1 if shared else 2)
        assert (copy.weights is first.weights) == shared
        assert np.array_equal(copy.weights,
                              fresh_witness(cs, far + scale * alpha, scale * 1.3, 3).weights)


def test_solve_memo_scope(count_solves):
    cs = CenterSet(np.random.default_rng(20).uniform(-1, 1, size=(40, 2)))
    alpha = np.zeros(2)
    minimal_density(cs, alpha, 2)
    calls = count_solves
    calls.clear()  # count from here on
    minimal_density(cs, alpha, 2)
    assert calls == []  # every attempt repeats an earlier solve
    minimal_density(CenterSet(cs.points), alpha, 2)
    assert calls  # a new set starts with an empty memo


def test_solve_memo_bound():
    from surfspline.polyrep import _SOLVE_MEMO_CAP

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
    """With ``forced``, prune in blocks of ``chunk`` rows; ``counts`` collects
    the number of pairs each distance call evaluates."""
    import surfspline.density as density

    distances = density._pair_distances

    def counted(x, y):
        out = distances(x, y)
        counts.append(out.size)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if forced:
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


def criterion_2_fields():
    """The 100 random fields of acceptance criterion 2, in its order."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        n, d = int(rng.integers(20, 201)), int(rng.integers(1, 3))
        yield DensityField(rng.uniform(-5, 5, size=(n, d)), np.exp(rng.normal(size=n) * 0.8))


def test_pair_engine_criterion_2_fields():
    for df in criterion_2_fields():
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


def test_pair_engine_non_finite_cutoffs():
    # densities near 1e-300 beside one of 1 overflow every probe's majorant
    # cutoff and every tiny sample's slow-growth cutoff to inf: those rows
    # search every sample
    import surfspline.density as density

    rng = np.random.default_rng(5)
    df = DensityField(np.append(np.linspace(0.0, 1.0, 300), 50.0)[:, None],
                      np.append(1e-300 * np.exp(0.1 * rng.normal(size=300)), 1.0))
    probes = rng.uniform(0.0, 1.0, size=(200, 1))
    pair_extremum, infinite = density._pair_extremum, []

    def spied(df, x, ratio, cutoff, **kwargs):
        def counted(best, i):
            radius = cutoff(best, i)
            infinite.append(np.count_nonzero(np.isinf(radius)))
            return radius
        return pair_extremum(df, x, ratio, counted, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_pair_extremum", spied)
        assert np.array_equal(majorant(df, probes, 0.05), brute_majorant(df, probes, 0.05))
        assert infinite == [200]
        assert certify_slow_growth(df, 0.05) == brute_slow_growth(df, 0.05)
        assert infinite[1] == 300

    # densities near 1 beside a cluster of 1e-200: the probe in the cluster
    # has an infinite majorant cutoff and the others short, mixed ones, so one
    # block lists more than _BLOCK rows, in several _balls blocks by radius
    from surfspline.centers import _BLOCK

    df = DensityField(np.append(np.arange(400) * 0.5, 1000.0 + 0.1 * np.arange(5))[:, None],
                      np.append(np.exp(0.02 * rng.normal(size=400)), np.full(5, 1e-200)))
    probes = np.append(rng.uniform(0.0, 200.0, size=150), 1000.2)[:, None]
    balls, radii = density._balls, []

    def listed(df, x, radius):
        radii.append(radius)
        return balls(df, x, radius)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_balls", listed)
        assert np.array_equal(majorant(df, probes, 0.05), brute_majorant(df, probes, 0.05))
    [radius] = radii
    assert radius.size > _BLOCK and np.isfinite(radius[0]) and np.isinf(radius[-1])
    assert np.all(np.diff(radius) >= 0)
    assert_matches_brute_force(df, 0.05, 0.05, probes)


def smooth_field():
    """The bench's analytic Remark-1 profile on 33x33 samples."""
    xs = np.linspace(-0.5, 0.5, 33)
    pts = np.stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6
    return DensityField(pts, np.minimum(
        rho0 * (1 + np.linalg.norm(pts, axis=1) / rho0) ** (2.0 / 3.0), 2.0**-3))


@contextmanager
def ball_queries(df, hits=None, listed=None):
    """The number of rows of each kd-tree ball query on ``df``'s samples that
    counts its hits, one per block the pair engine searches; ``hits``
    collects each of those rows' hit counts, and ``listed`` the number of
    rows of each pair join that lists hits, one per block of ``_balls``."""
    tree, rows = df._tree, []

    class Spy:
        def query(self, *args, **kwargs):
            return tree.query(*args, **kwargs)

        def query_ball_point(self, x, *args, **kwargs):
            out = tree.query_ball_point(x, *args, **kwargs)
            if kwargs.get("return_length"):
                rows.append(len(x))
                if hits is not None:
                    hits.extend(out.tolist())
            return out

        def sparse_distance_matrix(self, other, *args, **kwargs):
            if listed is not None:
                listed.append(other.n)
            return tree.sparse_distance_matrix(other, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(df, "_tree", Spy())
        yield rows


def test_pair_engine_prunes_smooth_field():
    # the diagonal decides both certificates, and every row's cutoff lies
    # inside its nearest samples: no ball query at all
    df = smooth_field()
    counts = []
    with engine(False, counts), ball_queries(df) as rows:
        assert certify_self_majorization(df, 2.0) == brute_self_majorization(df, 2.0)
        assert certify_slow_growth(df, 1 / 3) == brute_slow_growth(df, 1 / 3)
    assert sum(counts) < 0.05 * 2 * len(df) ** 2
    assert rows == []


@pytest.mark.parametrize("pick", range(3))
def test_pair_engine_mixes_settled_rows(pick):
    # criterion 2's fields 2, 3 and 4 (d = 1, 2, 1): samples far above or
    # below their neighbors unsettle the rows near them; blocks of three rows
    # count and list the hits of their unsettled rows only, and the values
    # stay the exhaustive scan's
    df = next(islice(criterion_2_fields(), 2 + pick, None))
    listed = []
    with engine(True), ball_queries(df, listed=listed) as rows:
        assert certify_self_majorization(df, 2.0) == brute_self_majorization(df, 2.0)
        assert rows and min(rows) < 3 and sum(listed) <= sum(rows) < len(df)
        rows.clear()
        listed.clear()
        assert certify_slow_growth(df, 1 / 3) == brute_slow_growth(df, 1 / 3)
        assert rows and min(rows) < 3 and sum(listed) <= sum(rows) < len(df)


def test_pair_engine_settles_lattice_ties():
    # criterion 9's profile on a 33 x 33 piece of its lattice of spacing h:
    # the self-majorization cutoff of each capped row lies just past its four
    # neighbors at h, the last of its 2^d + 1 nearest samples, and short of the
    # next ring at h sqrt 2.  Its ball holds only samples it has evaluated, so
    # it makes no ball query; the slow-growth rows at the density's minimum
    # reach past that ring and query it
    xs = np.arange(-16, 17) * 2.0**-7
    pts = np.stack([m.ravel() for m in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6
    df = DensityField(pts, np.minimum(
        rho0 * (1 + np.linalg.norm(pts, axis=1) / rho0) ** (2.0 / 3.0), 2.0**-3))
    hits, listed = [], []
    with ball_queries(df, hits, listed):
        assert certify_self_majorization(df, 2.0) == brute_self_majorization(df, 2.0)
        assert hits == [] and listed == []
        assert certify_slow_growth(df, 1 / 3) == brute_slow_growth(df, 1 / 3)
        assert hits and min(hits) > 5 and sum(listed) == len(hits)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_engine_few_samples(d):
    # n <= 2^d + 1: the nearest samples are all samples, so every row is settled
    rng = np.random.default_rng(d)
    for n in range(1, 2**d + 2):
        df = DensityField(rng.uniform(-1, 1, size=(n, d)), np.exp(2.0 * rng.normal(size=n)))
        probes = rng.uniform(-3, 3, size=(7, d))
        with ball_queries(df) as rows:
            assert_matches_brute_force(df, 1.5, 0.3, probes)
        assert rows == []


def test_pair_engine_settle_test_is_padded():
    # a cutoff radius that errs low by far less than the pad, below the first
    # sample past x's window: that pair still counts
    from surfspline.density import _pair_extremum

    reach = 1.0
    df = DensityField([0.0, -reach * (1 - 5e-11), reach * (1 - 5e-11), reach],
                      [1.0, 1.0, 1.0, 10.0])
    v = df.values
    got = _pair_extremum(df, np.zeros((1, 1)), lambda i, j, dist: v[j] * (dist <= reach),
                         lambda best, i: np.full(len(i), reach * (1 - 1e-10)),
                         maximize=True, shared=False)
    assert got.tolist() == [10.0]


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
    from surfspline.centers import _pair_distances

    rng = np.random.default_rng(d)
    x = rng.normal(size=(30, d)) * 10.0 ** rng.uniform(-4, 4, size=(30, 1))
    y = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-4, 4, size=(40, 1))
    ref = cdist(x, y)
    assert np.array_equal(_pair_distances(x[:, None, :], y[None, :, :]), ref)
    i, j = rng.integers(30, size=200), rng.integers(40, size=200)
    assert np.array_equal(_pair_distances(x[i], y[j]), ref[i, j])
    if d <= 7:  # np.linalg.norm sums pairwise from 8 terms on; below, in order
        grid = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
        assert np.array_equal(_pair_distances(x[:, None, :], y[None, :, :]), grid)
        assert np.array_equal(_pair_distances(x[i], y[j]), np.linalg.norm(x[i] - y[j], axis=-1))


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
    for epsilon in (1.0, 1.5):
        bad = validate_theorem1_params(2, 2, 14, epsilon)
        assert len(bad) == 1 and "epsilon" in bad[0] and "(0, 1)" in bad[0]
    bad = validate_theorem1_params(2, 2, 0, 0.5)  # no division by a zero degree
    assert len(bad) == 1 and "2k-d+1" in bad[0]
    with pytest.raises(ValueError):
        validate_theorem1_params(1, 3, 10, 0.5)  # 2k <= d

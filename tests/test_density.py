"""Density fields: minimal density, majorant, certificates, lemma transfers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(NoAdmissibleRadius):
        minimal_density(cs, [0.5], 3, 100.0)


def make_field(rng, n=40, d=2, params=None):
    pts = rng.uniform(-5, 5, size=(n, d))
    vals = np.exp(rng.normal(size=n) * 0.7)
    return DensityField(pts, vals, params)


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

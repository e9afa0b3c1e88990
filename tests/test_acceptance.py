"""Acceptance gate: one pass/fail line per criterion at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Each criterion asserts its pinned tolerance and its runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

from surfspline import (
    CenterSet,
    DensityField,
    DyadicParams,
    KernelParams,
    MultiresSpec,
    bad_cube_bound_check,
    build_reproduction,
    build_ring_plan,
    bump,
    cardinality_report,
    certify_self_majorization,
    certify_slow_growth,
    classify,
    convergence_study,
    density_profile_check,
    enumerate_cubes,
    generate_centers,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    local_kernel_error_precise,
    majorant,
    max_overlap,
    minimal_density,
    overlap_count,
    plan_transition,
    refine_weights,
    verify_reproduction,
)
from surfspline.cli import main as cli_main


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {detail}")


def budget(num: int, elapsed: float, limit: float) -> None:
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s exceeds {limit:.0f}s"


def jittered_grid(rng, d, degree):
    per_axis = degree + 2
    axes = [np.linspace(-1, 1, per_axis) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pts = pts + rng.uniform(-0.2, 0.2, size=pts.shape) / per_axis
    return CenterSet(np.concatenate([pts, rng.uniform(-1, 1, size=(6, d))]))


def test_criterion_1_reproduction_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(200):
        d = 1 + trial % 2
        degree = int(rng.integers(0, 8))
        cs = jittered_grid(rng, d, degree)
        alpha = rng.uniform(-0.5, 0.5, size=d)
        radius = 2.5 if d == 1 else 2.0
        pr = build_reproduction(cs, alpha, radius, degree)
        worst = max(worst, verify_reproduction(pr, cs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    report(1, ok, f"max reproduction residual {worst:.3e} <= 1e-9 "
                  f"(200 configs, {elapsed:.1f}s)")
    assert ok
    budget(1, elapsed, 10.0)


def test_criterion_2_lemma_transfer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_sm = 0.0  # worst measured / bound, must stay <= 1
    worst_sg = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 3))
        pts = rng.uniform(-5, 5, size=(n, d))
        vals = np.exp(rng.normal(size=n) * 0.8)
        df = DensityField(pts, vals)
        for r in (1.0, 2.0, 3.0):
            c_sm = certify_self_majorization(df, r)
            eps, c_sg_bound = lemma_transfer_sm_to_sg(c_sm, r)
            worst_sm = max(worst_sm, certify_slow_growth(df, eps) / c_sg_bound)
            c_sg = certify_slow_growth(df, 1.0 / (r + 1.0))
            r_back, c_sm_bound = lemma_transfer_sg_to_sm(c_sg, 1.0 / (r + 1.0))
            worst_sg = max(worst_sg, c_sm_bound / certify_self_majorization(df, r_back))
    elapsed = time.perf_counter() - t0
    ok = worst_sm <= 1.0 and worst_sg <= 1.0
    report(2, ok, f"lemma transfer worst ratios {worst_sm:.3f} (sm->sg), "
                  f"{worst_sg:.3f} (sg->sm), both <= 1 (100 fields, {elapsed:.1f}s)")
    assert ok
    budget(2, elapsed, 30.0)


def test_criterion_3_majorant_properties():
    t0 = time.perf_counter()
    r = 2.0
    per_seed = []
    domination_ok = True
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        constants = []
        for _ in range(50):
            n = int(rng.integers(20, 80))
            pts = rng.uniform(-5, 5, size=(n, 2))
            vals = np.exp(rng.normal(size=n) * 0.7)
            df = DensityField(pts, vals)
            h = np.array([majorant(df, p, r) for p in pts])
            if not np.all(h >= vals - 1e-12):
                domination_ok = False
            hh = np.array([majorant(DensityField(pts, h), p, r) for p in pts])
            constants.append(float(np.max(hh / h)))
        per_seed.append(max(constants))
    elapsed = time.perf_counter() - t0
    spread = (max(per_seed) - min(per_seed)) / max(per_seed)
    stable = np.isfinite(per_seed).all() and spread <= 0.10
    ok = domination_ok and stable
    report(3, ok, f"H >= rho everywhere: {domination_ok}; majorant-of-majorant "
                  f"constant {max(per_seed):.4f}, spread {100 * spread:.2f}% <= 10% "
                  f"across seeds ({elapsed:.1f}s)")
    assert ok


@pytest.fixture(scope="module")
def remark1_centers():
    spec = MultiresSpec(j=3, k=2, d=2, defect=np.zeros((1, 2)),
                        box=(np.full(2, -6.0), np.full(2, 6.0)))
    return spec, generate_centers(spec)


def test_criterion_4_remark1_reproduction(remark1_centers):
    t0 = time.perf_counter()
    spec, cs = remark1_centers
    plan = build_ring_plan(spec)
    radii = [r.outer for r in plan.rings]
    expected_radii = [14 * 2**-4.5, 14 * 2**-3, 14 * 2**-1.5]
    spacings = [plan.core_spacing] + [r.spacing for r in plan.rings]
    geometry_ok = (radii == pytest.approx(expected_radii)
                   and spacings == [2**-6, 2**-6, 2**-5, 2**-4])
    rep = cardinality_report(spec, cs)
    d = spec.d
    omega_d = math.pi ** (d / 2) / math.gamma(d / 2 + 1)  # unit-ball volume
    # Ring J is the annulus r_(J-1) < |x| <= r_J, r_J = 7k 2^(3J/2 - 2j), at
    # spacing s_J = 2^(J-1-2j), so r_J / s_J = 2 * 7k 2^(J/2) and the ring
    # holds about omega_d 2^d (7k)^d 2^(dJ/2) (1 - (r_(J-1)/r_J)^d) centers,
    # with (r_(J-1)/r_J)^d = 2^(-3d/2): the J-th term of the bound times
    # 2^d omega_d (1 - 2^(-3d/2)).  The core holds omega_d (7k)^d, below
    # that constant times its term, so the constant caps the whole ball.
    limit = 2**d * omega_d * (1 - 2 ** (-1.5 * d))
    allowance = limit * rep.bound
    cardinality_ok = rep.actual <= allowance
    # per region: omega_d (r_out^d - r_in^d) / s^d lattice points, up to a
    # boundary term of (inner + outer sphere area) / s^(d-1)
    regions = [(0, 0.0, plan.core_radius, plan.core_spacing)] + [
        (r.index, r.inner, r.outer, r.spacing) for r in plan.rings]
    counts, models, slacks = [], [], []
    for level, inner, outer, s in regions:
        counts.append(int(np.sum(cs.levels == level)))
        models.append(omega_d * (outer**d - inner**d) / s**d)
        slacks.append(d * omega_d * (inner ** (d - 1) + outer ** (d - 1)) / s ** (d - 1))
    regions_ok = all(abs(c - m) <= t for c, m, t in zip(counts, models, slacks))
    elapsed = time.perf_counter() - t0
    ok = geometry_ok and cardinality_ok and regions_ok
    per_region = ", ".join(f"{c}/{m:.0f}" for c, m in zip(counts, models))
    report(4, ok, f"ring radii/spacings exact: {geometry_ok}; cardinality "
                  f"{rep.actual} <= {limit:.2f} x {rep.bound:.0f} = "
                  f"{allowance:.0f}: {cardinality_ok} (ratio to bound "
                  f"{rep.ratio_to_bound:.2f}, limit 2^d omega_d "
                  f"(1 - 2^(-3d/2)) = {limit:.2f} = 3.5 pi); core/ring counts "
                  f"vs model {per_region}: {regions_ok} ({elapsed:.1f}s)")
    budget(4, elapsed, 10.0)
    assert geometry_ok
    assert cardinality_ok
    assert regions_ok, list(zip(counts, models, slacks))


def test_criterion_5_density_profile(remark1_centers):
    t0 = time.perf_counter()
    spec, cs = remark1_centers
    plan = build_ring_plan(spec)
    rng = np.random.default_rng(7)
    radii = np.geomspace(plan.core_radius * 1.2, plan.rings[-1].outer * 0.95, 10)
    angles = rng.uniform(0, 2 * np.pi, size=10)
    probes = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    check = density_profile_check(cs, spec, probes)
    elapsed = time.perf_counter() - t0
    worst = max(check.max_ratio, check.max_reciprocal)
    ok = worst <= 14.0
    report(5, ok, f"density profile deviation factor {worst:.2f} <= 14 "
                  f"(rho(0) = {check.rho_origin:.5f}, 10 probes, {elapsed:.1f}s)")
    assert ok
    budget(5, elapsed, 60.0)


def test_criterion_6_transition_planner():
    tp = plan_transition(2, 1 / 3, 2)
    exact = (tp.radius_exponent == pytest.approx(0.5) and tp.min_degree == 13
             and tp.valid)
    invalid_flagged = not plan_transition(3, 0.5, 2).valid
    ok = exact and invalid_flagged
    report(6, ok, f"plan_transition(2, 1/3, 2) = ({tp.radius_exponent}, "
                  f"{tp.min_degree}, valid={tp.valid}); s*eps >= 1 flagged "
                  f"invalid: {invalid_flagged}")
    assert ok


def test_criterion_7_kernel_decay(monkeypatch):
    from unittest import mock

    import mpmath as mp
    import scipy.linalg

    from surfspline.polyrep import _moment_system

    corrections = mock.Mock(wraps=scipy.linalg.cho_solve)  # one call per float64 correction
    monkeypatch.setattr(scipy.linalg, "cho_solve", corrections)
    t0 = time.perf_counter()
    xs = np.arange(-7.0, 8.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cs = CenterSet(np.stack([gx.ravel(), gy.ravel()], axis=1))
    alpha = np.array([0.4, 0.3])
    degree = 14
    rho, pr = minimal_density(cs, alpha, degree)
    params = KernelParams(d=2, k=2, degree=degree)
    # the far-field error drops below float64 resolution of phi within a few
    # support radii, so the measurement runs in extended precision with
    # exactly re-solved weights
    weights = refine_weights(pr, cs)
    direction = np.array([np.cos(0.7), np.sin(0.7)])
    dists = np.geomspace(2 * rho, 64 * rho, 12)
    errs = np.array([
        local_kernel_error_precise(pr, cs, alpha + t * direction, params,
                                   weights=weights)[0]
        for t in dists
    ])
    slope = float(np.polyfit(np.log(1 + dists / rho), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    with mp.workdps(60):
        mpf = np.frompyfunc(mp.mpf, 1, 1)
        bmat, _ = _moment_system(mpf(cs.points[pr.indices]) - mpf(alpha), mp.mpf(pr.radius),
                                 degree)
        residual = max(abs(mp.fdot(row, weights) - (i == 0))
                       for i, row in enumerate(bmat.tolist()))
    # pinned at -14 + 0.5; the formula nu = degree + d - 2k gives 12 for
    # this configuration and the measured slope ~ -14.4 clears both
    threshold = -13.5
    ok = slope <= threshold and residual <= mp.mpf("1e-50")
    report(7, ok, f"kernel error decay slope {slope:.2f} <= {threshold:.1f} "
                  f"(formula nu = {params.nu:.0f}, rho = {rho:.3f}, distances "
                  f"2rho..64rho; moment residual {mp.nstr(residual, 2)} <= 1e-50 after "
                  f"{corrections.call_count} corrections; {elapsed:.1f}s)")
    assert ok
    budget(7, elapsed, 5.0)


def test_criterion_8_convergence_rates():
    t0 = time.perf_counter()
    f = bump(5, [0.0], 1.0)
    params = KernelParams(d=1, k=1, degree=4)
    probes = np.linspace(-1.2, 1.2, 801)[:, None]

    def uniform(j):
        h = 2.0**-j
        return CenterSet(np.arange(np.ceil(-2.5 / h), np.floor(2.5 / h) + 1) * h)

    res_u = convergence_study([3, 4, 5, 6], uniform, f, params, epsilon=0.6, probes=probes)

    def multires(j):
        spec = MultiresSpec(j=j, k=1, d=1, defect=np.zeros((1, 1)),
                            box=(np.array([-2.5]), np.array([2.5])))
        return generate_centers(spec)

    params_m = KernelParams(d=1, k=1, degree=7)
    res_m = convergence_study([3, 4, 5, 6], multires, f, params_m, epsilon=1 / 3,
                              probes=probes, defect=[0.0])
    elapsed = time.perf_counter() - t0
    gap = res_m.defect_slope - res_m.global_slope
    predicted_gap = 2.0  # defect rate 2*(2k) vs global 2k for k = 1
    uniform_ok = res_u.global_slope >= 1.5
    defect_ok = gap >= 0.75 * predicted_gap
    ok = uniform_ok and defect_ok
    report(8, ok, f"uniform global slope {res_u.global_slope:.2f} >= 1.5; "
                  f"defect-vs-global slope gap {gap:.2f} >= "
                  f"{0.75 * predicted_gap:.2f} (defect {res_m.defect_slope:.2f}, "
                  f"global {res_m.global_slope:.2f}) ({elapsed:.1f}s)")
    assert ok
    budget(8, elapsed, 300.0)


def test_criterion_9_dyadic_checks():
    t0 = time.perf_counter()
    # analytic Remark-1 density profile on a fine grid over the unit box
    j = 3
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6  # measured rho(0) of the j=3, k=2 placement
    h = 2.0**-j
    xs = np.arange(-64, 65) * 2.0**-7
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist = np.linalg.norm(pts, axis=1)
    vals = np.minimum(rho0 * (1 + dist / rho0) ** (2.0 / 3.0), h)
    df = DensityField(pts, vals)
    r = 2.0
    c_sm = certify_self_majorization(df, r)
    params = DyadicParams(gamma=2.0, sigma=1.5, two_k=4.0)
    box = (np.full(2, -0.5), np.full(2, 0.5))
    cubes = enumerate_cubes(box, range(0, 9), 2)
    good, rho_min = classify(cubes, df, params)
    ratio = bad_cube_bound_check(cubes[~good], rho_min[~good], params, c_sm, r)
    rng = np.random.default_rng(9)
    level5 = cubes[cubes.level == 5]
    bound = max_overlap(2, params.gamma)
    worst_overlap = max(
        overlap_count(level5, rng.uniform(-0.5, 0.5, size=2), params)
        for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.0 and worst_overlap <= bound
    report(9, ok, f"bad-cube bound max ratio {ratio:.3f} <= 1 "
                  f"({np.count_nonzero(~good)} bad / {np.count_nonzero(good)} good cubes, "
                  f"c_sm = {c_sm:.3f}); "
                  f"overlap max {worst_overlap} <= {bound} at 100 points "
                  f"({elapsed:.1f}s)")
    assert ok
    budget(9, elapsed, 60.0)


def test_criterion_10_cli_determinism(tmp_path):
    place_cfg = tmp_path / "place.json"
    place_cfg.write_text(json.dumps({"place": {
        "j": 2, "k": 1, "d": 1, "epsilon": 0.5, "degree": 5,
        "defect": [[0.0]], "box": {"lo": [-4.0], "hi": [4.0]}}}))
    runs = {"place": (place_cfg, ["centers.csv", "place_report.json"])}
    assert cli_main(["place", "--config", str(place_cfg),
                     "--out", str(tmp_path / "seed_place")]) == 0
    density_cfg = tmp_path / "density.json"
    density_cfg.write_text(json.dumps({"density": {
        "centers_file": str(tmp_path / "seed_place" / "centers.csv"),
        "degree": 5, "epsilon": 0.5, "r": 1.0,
        "probe": {"lo": [-2.0], "hi": [2.0], "count": 17}}}))
    runs["density"] = (density_cfg, ["density.csv", "majorant.csv",
                                     "certificates.json"])
    assert cli_main(["density", "--config", str(density_cfg),
                     "--out", str(tmp_path / "seed_density")]) == 0
    study_cfg = tmp_path / "study.json"
    study_cfg.write_text(json.dumps({"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 121}}}))
    runs["study"] = (study_cfg, ["study.csv", "slopes.json"])
    dyadic_cfg = tmp_path / "dyadic.json"
    dyadic_cfg.write_text(json.dumps({"dyadic": {
        "density_file": str(tmp_path / "seed_density" / "density.csv"),
        "gamma": 1.5, "sigma": 1.0, "two_k": 2.0, "r": 1.0,
        "levels": [0, 3], "box": {"lo": [-2.0], "hi": [2.0]},
        "overlap_points": 5}}))
    runs["dyadic"] = (dyadic_cfg, ["partition.csv", "bound_check.json"])

    all_identical = True
    for command, (cfg, files) in runs.items():
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli_main([command, "--config", str(cfg), "--out", str(out_a),
                         "--seed", "3"]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(out_b),
                         "--seed", "3"]) == 0
        for name in files:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                all_identical = False
    report(10, all_identical,
           "all four CLI commands byte-identical on rerun with fixed "
           "config and seed")
    assert all_identical

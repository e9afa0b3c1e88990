"""Each benchmark workload, once, at its reduced size, through its own check.

The benchmark (``bench/run.py``) calls the library only through the functions
in ``bench/workloads.py``; running them here makes a library change that
breaks the benchmark fail the test suite too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


def run_and_check(tmp_path, name, seed, quick=True):
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(np.random.default_rng(seed), quick, tmp_path)
    out = tmp_path / "out"  # the place workload names its centers file under it
    out.mkdir()
    wl.repeat(inputs, out)
    wl.check(inputs, out)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_passes_its_check(tmp_path, name):
    run_and_check(tmp_path, name, 1)


def test_farfield_decay_passes_at_second_seed(tmp_path):
    # the seed picks one of the grid's eight symmetries, so seed 2027 refines
    # and probes another image of the base point and direction
    run_and_check(tmp_path, "farfield_decay", 2027)


def farfield_symmetry_seeds():
    """The least seed of each of the eight base point and direction images
    that ``farfield_inputs`` draws."""
    images = {}
    for seed in range(1000):
        inputs = WORKLOADS["farfield_decay"].make_inputs(np.random.default_rng(seed), True, None)
        images.setdefault((tuple(inputs["alpha"]), tuple(inputs["direction"])), seed)
    return sorted(images.values())


FARFIELD_SEEDS = farfield_symmetry_seeds()


def test_farfield_seeds_cover_eight_symmetries():
    assert len(FARFIELD_SEEDS) == 8


@pytest.mark.parametrize("seed", FARFIELD_SEEDS)
def test_farfield_decay_passes_on_every_symmetry(tmp_path, seed):
    # the slope and moment residual gates of the refined weights hold on
    # every image of the base point and direction, not only at seeds 1, 2027
    run_and_check(tmp_path, "farfield_decay", seed)


def test_study2d_uniform_passes_at_full_size(tmp_path, count_solves):
    # the reduced study is 1-D; the full-size one is the only 2-D run of
    # quadrature assembly and block evaluation through the CLI.  Its lattice
    # balls whose centers take at most 7 values on an axis are certified
    # deficient without a factorization, and the mirror images of a ball
    # share one solve
    run_and_check(tmp_path, "study2d_uniform", 1, quick=False)
    assert len(count_solves) <= 34


def test_remark1_place_density_passes_at_full_size(tmp_path, count_solves, monkeypatch):
    # the only full-size run of the 35,273-center place -> CSV -> density
    # path: batched degree-14 density queries on the Remark-1 placement.  Ring
    # geometries a power of two apart, and mirror images, share one solve;
    # balls whose centers take at most 14 values on an axis are certified
    # deficient without a factorization, and the guard band's systems are all
    # certified full rank without singular values
    import surfspline.polyrep

    svd_calls, svdvals = [], surfspline.polyrep.svdvals

    def counted(*args, **kwargs):
        svd_calls.append(1)
        return svdvals(*args, **kwargs)

    monkeypatch.setattr(surfspline.polyrep, "svdvals", counted)
    for seed in (1, 2027):
        (tmp_path / str(seed)).mkdir()
        count_solves.clear()
        run_and_check(tmp_path / str(seed), "remark1_place_density", seed, quick=False)
        assert len(count_solves) <= 5
        assert svd_calls == []


def test_dyadic_certify_passes_at_full_size(tmp_path):
    # the only full-size run of `surfspline dyadic`: the self-majorization
    # certificate on 5,329 samples and the batched overlap count per level.
    # Every row's class and the bad-cube ratio match a blocked distance scan
    # of the same supports, the workload's own ties at the radius included
    from scipy.spatial.distance import cdist

    from surfspline import enumerate_cubes, genders
    from surfspline.cli import load_config, read_density

    for seed in (1, 2027):
        work = tmp_path / str(seed)
        work.mkdir()
        run_and_check(work, "dyadic_certify", seed, quick=False)
        cfg = load_config(str(work / "dyadic.json"), "dyadic")
        df, (lo, hi), gamma = read_density(cfg["density_file"]), cfg["levels"], cfg["gamma"]
        cubes = enumerate_cubes((cfg["box"]["lo"], cfg["box"]["hi"]), range(lo, hi + 1), 2)
        rho_max, rho_min, ties = [], [], 0
        for s in range(0, len(cubes), 512):
            rows = cubes[s:s + 512]
            dist, radius = cdist(rows.corner, df.points), gamma * rows.side[:, None]
            inside, ties = dist <= radius, ties + np.count_nonzero(dist == radius)
            rho_max.append(np.max(np.where(inside, df.values, -np.inf), axis=1))
            rho_min.append(np.min(np.where(inside, df.values, np.inf), axis=1))
        rho_max, rho_min = np.concatenate(rho_max), np.concatenate(rho_min)
        assert np.isfinite(rho_max).all() and ties > 0  # no support is empty, samples at radius
        good = cubes.side >= rho_max
        rows = (work / "out" / "partition.csv").read_text().splitlines()[1:]
        assert rows == [f"{lv},{k[0]},{k[1]},{e[0]},{e[1]},{'good' if g else 'bad'}"
                        for lv, k, g in zip(cubes.level.tolist(), cubes.index.tolist(), good)
                        for e in genders(2)]
        report = json.loads((work / "out" / "bound_check.json").read_text())
        cap = 1.0 / (report["c_sm"] * (1.0 + 2.0 * gamma) ** (-cfg["r"]))
        assert report["bad_cube_max_ratio"] == np.max(cubes.side[~good] / (cap * rho_min[~good]))
        assert 0 < np.count_nonzero(good) < len(cubes)

"""Each benchmark workload, once, at its reduced size, through its own check.

The benchmark (``bench/run.py``) calls the library only through the functions
in ``bench/workloads.py``; running them here makes a library change that
breaks the benchmark fail the test suite too.
"""

import importlib.util
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


def test_study2d_uniform_passes_at_full_size(tmp_path):
    # the reduced study is 1-D; the full-size one is the only 2-D run of
    # quadrature assembly and block evaluation through the CLI
    run_and_check(tmp_path, "study2d_uniform", 1, quick=False)


def test_remark1_place_density_passes_at_full_size(tmp_path):
    # the only full-size run of the 35,273-center place -> CSV -> density
    # path: batched degree-14 density queries on the Remark-1 placement
    run_and_check(tmp_path, "remark1_place_density", 2027, quick=False)


def test_dyadic_certify_passes_at_full_size(tmp_path):
    # the only full-size run of `surfspline dyadic`: the self-majorization
    # certificate on 5,329 samples and the batched overlap count per level
    run_and_check(tmp_path, "dyadic_certify", 2027, quick=False)

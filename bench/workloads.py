"""The benchmark's four workloads and the process that measures one of them.

``bench/run.py`` starts this file once per workload (and a few more times
with ``--setup-only`` to sample set-up time), so that set-up time and peak
memory belong to that workload alone::

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawned T [--quick] [--setup-only]

``--spawned`` is the ``time.monotonic()`` reading of the parent just before
it started this process.  The result is one JSON object on the last line of
standard output.

Load model: a closed loop with one caller.  Each repeat starts when the
previous one has ended; repeats run until ``--seconds`` have passed, and at
least two run, because the outputs of every repeat must be byte-identical to
those of the first.  The workload's reference kernel (``reference.py``) runs
before the first repeat and after each one.  With ``--trace 1`` untraced and traced repeats
alternate, starting untraced, so the tracing overhead is measured in the
same process.  Output checks run after each repeat's timer has stopped.

The seed moves only free geometry (defect offset, probe-window offset, base
point, direction); every input size is the same for every seed.  The
library receives only the generated configs and files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Every repeat's outputs are compared with the first repeat's.
MIN_REPEATS = 2


class CheckFailed(Exception):
    """An output violates one of the paper's invariants."""


def import_program() -> None:
    """Import the library from this checkout's ``src`` and its lazy imports."""
    if not (SRC / "surfspline" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no surfspline sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpmath  # noqa: F401  imported lazily by refine_weights
    import surfspline  # noqa: F401
    import surfspline.cli  # noqa: F401


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_config(path: Path, command: str, block: dict) -> str:
    path.write_text(json.dumps({command: block}, indent=1) + "\n")
    return str(path)


def _csv_rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text().strip().splitlines()[1:]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(inputs: dict, out: Path) -> None:
    from surfspline import cli

    for argv in inputs["argv"]:
        code = cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"surfspline {argv[0]} exited with code {code}")


# ---------------------------------------------------------------------------
# study2d_uniform: `surfspline study`, the 2-D uniform rate study


def study_inputs(rng, quick: bool, work: Path) -> dict:
    if quick:  # 1-D, as in the CLI determinism criterion
        off = rng.uniform(-0.1, 0.1, 1)
        block = {"d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
                 "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
                 "box": {"lo": [-2.5], "hi": [2.5]},
                 "probe": {"lo": (off - 1.2).tolist(), "hi": (off + 1.2).tolist(),
                           "count": 121}}
    else:
        off = rng.uniform(-0.1, 0.1, 2)
        block = {"d": 2, "k": 2, "degree": 7, "epsilon": 0.6, "js": [1, 2, 3],
                 "placement": "uniform", "bump": {"exponent": 6, "scale": 1.0},
                 "box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
                 "probe": {"lo": (off - 1.2).tolist(), "hi": (off + 1.2).tolist(),
                           "count": 41}}
    cfg = _write_config(work / "study.json", "study", block)
    return {"argv": [["study", "--config", cfg]], "js": block["js"], "two_k": 2 * block["k"]}


def study_check(inputs: dict, out: Path) -> None:
    rows = _csv_rows(out / "study.csv")
    _require([int(r[0]) for r in rows] == inputs["js"], "study.csv rows do not match js")
    errors = [float(r[1]) for r in rows]
    _require(all(math.isfinite(e) and e > 0 for e in errors), f"non-finite error in {errors}")
    _require(all(b < a for a, b in zip(errors, errors[1:])),
             f"errors do not decrease with j: {errors}")
    slope = json.loads((out / "slopes.json").read_text())["global_slope"]
    # rate 2k, with the same 0.75 allowance criterion 8 gives its slope gap
    _require(slope >= 0.75 * inputs["two_k"],
             f"global slope {slope:.3f} < 0.75 * 2k = {0.75 * inputs['two_k']}")


# ---------------------------------------------------------------------------
# remark1_place_density: `surfspline place` then `surfspline density`


def remark1_inputs(rng, quick: bool, work: Path) -> dict:
    # the seed translates the whole configuration, probe window included, by
    # a multiple of the global spacing 2^-3: the placement moves exactly, so
    # the center count and the work per query are the same for every seed
    defect = rng.integers(-8, 9, 2) / 8.0
    j, half_box, probes, expected = (2, 7.5, 2, 14_809) if quick else (3, 6.0, 5, 35_273)
    place = _write_config(work / "place.json", "place", {
        "j": j, "k": 2, "d": 2, "defect": [defect.tolist()],
        "box": {"lo": (defect - half_box).tolist(), "hi": (defect + half_box).tolist()}})
    density = _write_config(work / "density.json", "density", {
        "centers_file": str(work / "out" / "centers.csv"),
        "degree": 14, "epsilon": 1.0 / 3.0, "r": 2.0,
        "probe": {"lo": (defect - 2.0).tolist(), "hi": (defect + 2.0).tolist(),
                  "count": probes}})
    return {"argv": [["place", "--config", place], ["density", "--config", density]],
            "n_centers": expected, "n_probes": probes**2}


def remark1_check(inputs: dict, out: Path) -> None:
    n = inputs["n_centers"]
    _require(len(_csv_rows(out / "centers.csv")) == n, f"centers.csv does not hold {n} rows")
    report = json.loads((out / "place_report.json").read_text())
    _require(report["n_centers"] == n, f"n_centers {report['n_centers']} != {n}")
    rho = [float(r[-1]) for r in _csv_rows(out / "density.csv")]
    _require(len(rho) == inputs["n_probes"], f"density.csv holds {len(rho)} probes")
    _require(all(math.isfinite(v) and v > 0 for v in rho), "a probe has no finite rho > 0")
    cert = json.loads((out / "certificates.json").read_text())
    _require(cert["c_sm"] <= 1.0 <= cert["c_sg"],
             f"certificates out of range: c_sm {cert['c_sm']}, c_sg {cert['c_sg']}")


# ---------------------------------------------------------------------------
# dyadic_certify: `surfspline dyadic` on the analytic Remark-1 density field


def dyadic_inputs(rng, quick: bool, work: Path) -> dict:
    import numpy as np

    samples, top = (33, 4) if quick else (73, 6)
    defect = rng.uniform(-0.125, 0.125, 2)
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6  # rho(0) of the j=3, k=2 Remark-1 placement
    xs = np.linspace(-0.5, 0.5, samples)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dist = np.linalg.norm(pts - defect, axis=1)
    vals = np.minimum(rho0 * (1 + dist / rho0) ** (2.0 / 3.0), 2.0**-3)
    lines = ["x1,x2,rho"] + [f"{_fmt(x)},{_fmt(y)},{_fmt(v)}" for (x, y), v in zip(pts, vals)]
    (work / "field.csv").write_text("\n".join(lines) + "\n")
    gamma, levels = 2.0, [0, top]
    cfg = _write_config(work / "dyadic.json", "dyadic", {
        "density_file": str(work / "field.csv"), "gamma": gamma, "sigma": 1.5,
        "two_k": 4.0, "r": 2.0, "levels": levels,
        "box": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]}, "overlap_points": 5})
    # gendered cubes meeting [-1/2, 1/2]^2: 2^d - 1 genders per dyadic cube
    n_cubes = sum(3 * (math.ceil(0.5 * 2**lv) - math.floor(-0.5 * 2**lv)) ** 2
                  for lv in range(levels[0], levels[1] + 1))
    return {"argv": [["dyadic", "--config", cfg, "--seed", str(rng.integers(2**31))]],
            "n_cubes": n_cubes, "max_overlap": 3 * (2 * math.ceil(gamma) + 1) ** 2}


def dyadic_check(inputs: dict, out: Path) -> None:
    report = json.loads((out / "bound_check.json").read_text())
    n = inputs["n_cubes"]
    _require(report["n_cubes"] == n, f"n_cubes {report['n_cubes']} != {n}")
    _require(len(_csv_rows(out / "partition.csv")) == n, f"partition.csv does not hold {n} rows")
    _require(report["n_good"] + report["n_bad"] == n, "good + bad != all cubes")
    _require(report["bad_cube_max_ratio"] <= 1.0,
             f"bad-cube max ratio {report['bad_cube_max_ratio']} > 1")
    overlap = report["overlap"]
    _require(overlap["bound"] == inputs["max_overlap"], f"overlap bound {overlap['bound']}")
    _require(overlap["max_observed"] <= inputs["max_overlap"],
             f"overlap {overlap['max_observed']} > {inputs['max_overlap']}")


# ---------------------------------------------------------------------------
# farfield_decay: the library chain of the kernel-decay criterion


def farfield_inputs(rng, quick: bool, work: Path) -> dict:
    import numpy as np

    half, degree = 4, 8  # one size: a repeat is short enough for --quick
    xs = np.arange(-half, half + 1.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    # the seed picks one of the grid's eight symmetries and applies it to the
    # criterion's base point and direction: the neighbor count, and so the
    # cost of the refinement, is the same for every seed, and the pinned
    # slope keeps its margin (at degree 14 other directions fit slopes up to
    # -13.6 against the pinned -13.5)
    sym = rng.integers(8)
    flip = np.array([-1.0 if sym & 2 else 1.0, -1.0 if sym & 4 else 1.0])

    def image(v):
        return (v[::-1] if sym & 1 else v) * flip

    alpha = image(np.array([0.4, 0.3]))
    direction = image(np.array([np.cos(0.7), np.sin(0.7)]))
    return {"points": np.stack([gx.ravel(), gy.ravel()], axis=1), "alpha": alpha,
            "direction": direction, "degree": degree,
            "dps": 60}


def farfield_repeat(inputs: dict, out: Path) -> None:
    import mpmath as mp
    import numpy as np
    from surfspline import centers, density, kernels, polyrep

    cs = centers.CenterSet(inputs["points"])
    alpha, degree = inputs["alpha"], inputs["degree"]
    rho, pr = density.minimal_density(cs, alpha, degree)
    weights = polyrep.refine_weights(pr, cs, dps=inputs["dps"])
    params = kernels.KernelParams(d=2, k=2, degree=degree)
    dists = np.geomspace(2 * rho, 64 * rho, 12)
    errors = [kernels.local_kernel_error_precise(pr, cs, alpha + t * inputs["direction"], params,
                                                 weights=weights, dps=inputs["dps"])[0]
              for t in dists]
    slope = float(np.polyfit(np.log(1 + dists / rho), np.log(errors), 1)[0])
    (out / "farfield.json").write_text(json.dumps({
        "rho": rho, "radius": pr.radius, "indices": pr.indices.tolist(),
        "weights": [mp.nstr(w, inputs["dps"] + 5) for w in weights],
        "distances": dists.tolist(), "errors": errors, "slope": slope}, indent=1) + "\n")


def farfield_check(inputs: dict, out: Path) -> None:
    import mpmath as mp

    from surfspline.polyrep import monomial_exponents

    res = json.loads((out / "farfield.json").read_text())
    degree = inputs["degree"]
    _require(all(math.isfinite(e) and e > 0 for e in res["errors"]), "non-finite kernel error")
    # the kernel-decay criterion pins -14 + 0.5 for degree 14; same rule here
    _require(res["slope"] <= -(degree - 0.5),
             f"decay slope {res['slope']:.3f} > {-(degree - 0.5)}")
    with mp.workdps(inputs["dps"]):
        weights = [mp.mpf(w) for w in res["weights"]]
        pts = inputs["points"][res["indices"]]
        radius = mp.mpf(res["radius"])
        scaled = [[(mp.mpf(p[a]) - mp.mpf(inputs["alpha"][a])) / radius for a in range(2)]
                  for p in pts]
        worst = mp.mpf(0)
        for row, (e1, e2) in enumerate(monomial_exponents(2, degree)):
            moment = mp.fsum(w * s[0] ** int(e1) * s[1] ** int(e2)
                             for w, s in zip(weights, scaled))
            worst = max(worst, abs(moment - (1 if row == 0 else 0)))
    _require(worst <= mp.mpf("1e-50"), f"refined moment residual {mp.nstr(worst, 3)} > 1e-50")


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable  # (rng, quick, work dir) -> inputs
    repeat: Callable  # (inputs, out dir) -> None; writes the outputs
    check: Callable  # (inputs, out dir) -> None; raises CheckFailed
    reference: str  # kernel of reference.py that tracks the host's speed for it


WORKLOADS = {
    "study2d_uniform": Workload(study_inputs, _cli, study_check, "small_solves"),
    "remark1_place_density": Workload(remark1_inputs, _cli, remark1_check, "large_solves"),
    "dyadic_certify": Workload(dyadic_inputs, _cli, dyadic_check, "pair_blocks"),
    "farfield_decay": Workload(farfield_inputs, farfield_repeat, farfield_check, "mp_arith"),
}


# ---------------------------------------------------------------------------
# measurement


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure(wl: Workload, inputs: dict, work: Path, seconds: float, trace: bool) -> dict:
    """Run repeats for ``seconds``; return per-repeat samples and failures."""
    from reference import Reference
    from tracing import Tracer

    tracer = Tracer() if trace else None
    ref = Reference(wl.reference)
    refs = [ref.run()]
    out = work / "out"
    samples, failures = [], []
    first_digest = verdict = None
    start = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - start < seconds:
        repeat = len(samples)
        traced = trace and repeat % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if traced:
            tracer.install(repeat)
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            wl.repeat(inputs, out)
        except Exception:  # a failed repeat is counted and the loop goes on
            error = traceback.format_exc(limit=3)
        run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
        refs.append(ref.run())
        if error is None:
            digest = _digest(out)
            if first_digest is None:
                first_digest = digest
                try:
                    wl.check(inputs, out)
                except Exception as exc:  # a check that cannot run has failed
                    verdict = f"check failed: {type(exc).__name__}: {exc}"
            error = verdict if digest == first_digest else "outputs differ from the first repeat's"
        if error is not None:
            failures.append({"repeat": repeat, "error": error})
        samples.append({"run_s": run_s, "cpu_s": cpu_s, "traced": traced})
    result = {"samples": samples, "failures": failures, "reference_s": refs}
    if trace:
        traced_runs = {i: s["run_s"] for i, s in enumerate(samples) if s["traced"]}
        result["layers"] = tracer.layer_metrics(traced_runs)
        result["absent"] = [f"{m}.{p}" for m, p in tracer.absent]
        result["tracer"] = tracer
    return result


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              setup_only: bool, spawned: float) -> dict:
    """Set up one workload and, unless ``setup_only``, measure it."""
    import_program()
    import numpy as np

    from reference import Reference

    wl = WORKLOADS[workload]
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.make_inputs(np.random.default_rng(seed), quick, work)
        result = {"setup_s": time.monotonic() - spawned,
                  "setup_reference_s": Reference("interpreter").run()}
        if setup_only:
            return result
        result.update(measure(wl, inputs, work, seconds, bool(trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = result.pop("tracer", None)
        if tracer is not None:
            tracer.dump(WORK / f"spans-{workload}-seed{seed}.json")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(run_child(args.workload, args.seed, args.seconds, args.trace, args.quick,
                               args.setup_only, args.spawned)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

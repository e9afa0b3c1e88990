"""Benchmark of surfspline: seeded workloads through the CLI and the library.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--quick]

Each workload runs in fresh processes (see ``bench/workloads.py``): a few
that only set up, to sample set-up time, then one that also runs the timed
repeats.  With ``--trace 0`` the end-to-end metrics are printed, with
``--trace 1`` the per-layer metrics of a traced run.  A summary is printed
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_SCRIPT = HERE / "workloads.py"
WORKLOADS = ["study2d_uniform", "remark1_place_density", "dyadic_certify", "farfield_decay"]

#: Seed used when none is given; claims are re-checked on CLAIM_SEED, which
#: development runs do not use.
DEFAULT_SEED = 1
CLAIM_SEED = 2027

#: Set-up-only processes started before the measuring one; set-up time is
#: the median over all of them.
SETUP_PROCESSES = 4

#: A workload process that outlives its measuring time by this much is killed.
GRACE_S = 140.0


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          setup_only: bool) -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    argv = [sys.executable, str(WORKLOAD_SCRIPT), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    argv += ["--quick"] * quick + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=seconds + GRACE_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {workload} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """Run one workload; return (metrics, attempted, failed) and print a summary.

    Times are scaled to the reference speed: a repeat's raw time is multiplied
    by ``NOMINAL_S`` over the mean of the reference kernel runs just before
    and just after it, a set-up time by ``NOMINAL_S`` over the reference run
    in its own process.
    """
    setups = [spawn(workload, seed, seconds, trace, quick, True)
              for _ in range(1 if quick else SETUP_PROCESSES)]
    res = spawn(workload, seed, seconds, trace, quick, False)
    setups.append(res)
    samples = res["samples"]
    attempted, failed = len(samples), len(res["failures"])
    print(f"{workload}: seed {seed}, {attempted} repeats "
          f"({sum(not s['traced'] for s in samples)} untraced), BLAS threads {blas_threads()}")
    for f in res["failures"]:
        print(f"  FAILED repeat {f['repeat']}: {f['error'].strip()}")
    refs = res["reference_s"]
    plain = [(s, NOMINAL_S * 2 / (refs[i] + refs[i + 1]))
             for i, s in enumerate(samples) if not s["traced"]]
    e2e = {
        "setup_s": ("s", [(s["setup_s"], NOMINAL_S / s["setup_reference_s"]) for s in setups]),
        "run_s": ("s", [(s["run_s"], scale) for s, scale in plain]),
        "cpu_s": ("s", [(s["cpu_s"], scale) for s, scale in plain]),
        "peak_rss_mb": ("MB", [(res["peak_rss_mb"], 1.0)]),
    }
    summary = {}
    print(f"  {'metric':<12} {'median':>10}  unit  {'quartiles':>21}  {'raw median':>10}    n")
    for name, (unit, pairs) in e2e.items():
        raw = [v for v, _ in pairs]
        med, q1, q3 = spread(v * scale for v, scale in pairs)
        summary[name] = {"value": med, "unit": unit}
        print(f"  {name:<12} {med:10.5g}  {unit:<4}  {q1:10.5g} .. {q3:<8.5g}  "
              f"{spread(raw)[0]:10.5g}  {len(raw):3d}")
    print(f"  {'error_rate':<12} {failed / attempted:10.5g}  ratio ({failed} of {attempted} repeats)")
    if not trace:
        return summary, attempted, failed
    layers = dict(res["layers"])
    layers["trace.overhead_s"] = layers["trace.run_s"] - spread(s["run_s"] for s, _ in plain)[0]
    layers["host.reference_s"] = spread(refs)[0]
    metrics = {name: {"value": layers[name], "unit": unit_of(name)} for name in layers}
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:12.6g} {m['unit']}")
    for name in res["absent"]:
        print(f"  absent from the program, not traced: {name}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; check claims also on {CLAIM_SEED})")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced input sizes, one set-up sample (the benchmark's own tests)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "surfspline" / "__init__.py").is_file():
        print(f"benchmark: no surfspline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

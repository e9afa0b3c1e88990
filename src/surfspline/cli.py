"""Command-line front end: placement, density certification, studies, dyadic checks.

Four subcommands (``place``, ``density``, ``study``, ``dyadic``), each taking
``--config <path>`` and ``--out <dir>`` plus an optional ``--seed``.  Configs
are strict JSON: unknown keys are rejected so a typo in an exponent name can
never silently fall back to a default.  All outputs are deterministic given
(config, seed); floats are serialized with 17 significant digits.

Exit codes: 0 success, 1 numerical failure, 2 input/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .centers import CenterSet, _grid_points
from .density import (
    DensityField,
    NoAdmissibleRadius,
    certify_self_majorization,
    certify_slow_growth,
    default_stability_cap,
    lemma_transfer_sg_to_sm,
    lemma_transfer_sm_to_sg,
    majorant,
    minimal_density,
)
from .dyadic import (
    DyadicParams,
    UndersampledDensity,
    bad_cube_bound_check,
    classify,
    enumerate_cubes,
    max_overlap,
    overlap_count,
)
from .kernels import KernelParams, bump
from .placement import MultiresSpec, build_ring_plan, cardinality_report, generate_centers
from .polyrep import ReproductionError
from .quasiinterp import AssemblyError, convergence_study

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


#: The one float format: 17 significant digits round-trip every float64.
FLOAT_FORMAT = "%.17g"


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in obj:  # preserve insertion order: configs are built deterministically
            items.append(f'{pad}  "{k}": {_json_text(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return FLOAT_FORMAT % float(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def write_json(path: Path, obj: dict) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    path.write_text(_json_text(obj) + "\n")


def write_csv(path: Path, header: str, columns) -> None:
    """One row per entry of the equally long ``columns`` (lists); a column of
    floats is written with :data:`FLOAT_FORMAT`, any other with ``str``."""
    fmt = ",".join(FLOAT_FORMAT if col and isinstance(col[0], float) else "%s"
                   for col in columns)
    path.write_text("\n".join([header] + [fmt % row for row in zip(*columns)]) + "\n")


# ---------------------------------------------------------------------------
# centers / density file formats


def _read_rows(path: Path, kind: str, prefix: str, dim_of, last: tuple) -> np.ndarray:
    """Rows under a header ``prefix + rest``, ``dim_of(rest)`` being the point
    dimension, as a structured array of fields ``x`` (dim floats) and ``last``
    (name, type).  Every fault is a ConfigError naming the file."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        dim = dim_of(lines[0][len(prefix):]) if lines and lines[0].startswith(prefix) else 0
    except ValueError:
        dim = 0
    if dim < 1:
        raise ConfigError(f"{kind} file {path} lacks a {prefix!r}... header")
    if len(lines) < 2:
        raise ConfigError(f"{kind} file {path} holds no rows")
    if not all(lines):
        raise ConfigError(f"{kind} file {path} has a blank line between rows")
    if lines[1].count(",") != dim:  # before loadtxt sizes its buffer by the header
        raise ConfigError(f"{kind} file {path}: row 1 does not hold {dim + 1} fields")
    try:
        return np.loadtxt(lines[1:], dtype=[("x", float, (dim,)), last], delimiter=",",
                          comments=None, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"bad row in {kind} file {path}: {exc}") from exc


def write_centers(path: Path, cs: CenterSet) -> None:
    levels = cs.levels if cs.levels is not None else np.zeros(len(cs), dtype=int)
    write_csv(path, f"dim,{cs.dim}", [*cs.points.T.tolist(), levels.tolist()])


def read_centers(path: Path) -> CenterSet:
    rows = _read_rows(path, "centers", "dim,", int, ("level", int))
    return CenterSet(rows["x"], levels=rows["level"])


def write_density(path: Path, pts: np.ndarray, values: np.ndarray) -> None:
    header = ",".join(f"x{a + 1}" for a in range(pts.shape[1])) + ",rho"
    write_csv(path, header, [*pts.T.tolist(), values.tolist()])


def read_density(path: Path) -> DensityField:
    rows = _read_rows(path, "density", "x1,", lambda rest: rest.count(",") + 1,
                      ("rho", float))
    return DensityField(rows["x"], rows["rho"])


# ---------------------------------------------------------------------------
# strict config handling


def load_config(path: str, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {command}
    if unknown:
        raise ConfigError(f"unexpected top-level keys {sorted(unknown)}; expected only {command!r}")
    if command not in raw:
        raise ConfigError(f"config missing the {command!r} block")
    block = raw[command]
    if not isinstance(block, dict):
        raise ConfigError(f"{command!r} block must be a JSON object")
    return block


def take(block: dict, key: str, required: bool = True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return block.pop(key)


def ensure_consumed(block: dict) -> None:
    if block:
        raise ConfigError(f"unknown config keys {sorted(block)}")


def _box(obj, d: int) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
        raise ConfigError("box must be {'lo': [...], 'hi': [...]}")
    lo, hi = np.asarray(obj["lo"], dtype=float), np.asarray(obj["hi"], dtype=float)
    if lo.shape != (d,) or hi.shape != (d,):
        raise ConfigError(f"box vectors must have length {d}")
    return lo, hi


def _probe_grid(obj, d: int) -> np.ndarray:
    if not isinstance(obj, dict) or set(obj) != {"lo", "hi", "count"}:
        raise ConfigError("probe must be {'lo': [...], 'hi': [...], 'count': n}")
    lo, hi = np.asarray(obj["lo"], dtype=float), np.asarray(obj["hi"], dtype=float)
    n = int(obj["count"])
    if lo.shape != (d,) or hi.shape != (d,) or n < 2:
        raise ConfigError("bad probe grid")
    return _grid_points([np.linspace(lo[a], hi[a], n) for a in range(d)])


# ---------------------------------------------------------------------------
# subcommands


def cmd_place(block: dict, out: Path, seed: int) -> None:
    d = int(take(block, "d"))
    spec = MultiresSpec(
        j=int(take(block, "j")),
        k=int(take(block, "k")),
        d=d,
        defect=np.asarray(take(block, "defect"), dtype=float),
        box=_box(take(block, "box"), d),
        epsilon=float(take(block, "epsilon", required=False, default=1.0 / 3.0)),
        degree=take(block, "degree", required=False),
    )
    ensure_consumed(block)
    plan = build_ring_plan(spec)
    cs = generate_centers(spec)
    card = cardinality_report(spec, cs)
    write_centers(out / "centers.csv", cs)
    write_json(out / "place_report.json", {
        "j": spec.j, "k": spec.k, "d": spec.d,
        "epsilon": spec.epsilon, "degree": spec.degree,
        "core": {"radius": plan.core_radius, "spacing": plan.core_spacing},
        "rings": [{"J": r.index, "inner": r.inner, "outer": r.outer, "spacing": r.spacing}
                  for r in plan.rings],
        "global_spacing": plan.global_spacing,
        "spacings": [plan.core_spacing] + [r.spacing for r in plan.rings],
        "n_centers": len(cs),
        "cardinality": {
            "ball_radius": card.ball_radius,
            "actual": card.actual,
            "bound": card.bound,
            "uniform_count": card.uniform_count,
            "ratio_to_bound": card.ratio_to_bound,
        },
    })


def cmd_density(block: dict, out: Path, seed: int) -> None:
    centers_file = Path(take(block, "centers_file"))
    degree = int(take(block, "degree"))
    epsilon = float(take(block, "epsilon"))
    r = float(take(block, "r"))
    cap = take(block, "stability_cap", required=False)
    probe = take(block, "probe")
    ensure_consumed(block)
    for key, ok, rule in (("degree", degree >= 0, ">= 0"), ("r", r > 0, "> 0"),
                          ("epsilon", 0 < epsilon < 1, "in (0, 1)"),
                          ("stability_cap", cap is None or float(cap) > 1, "> 1")):
        if not ok:
            raise ConfigError(f"config key {key!r} must be {rule}")
    cs = read_centers(centers_file)
    cap = float(cap) if cap is not None else default_stability_cap(cs.dim, degree)
    probes = _probe_grid(probe, cs.dim)
    rho = np.empty(probes.shape[0])
    for i, p in enumerate(probes):
        rho[i], _ = minimal_density(cs, p, degree, cap)
    df = DensityField(probes, rho)
    write_density(out / "density.csv", probes, rho)
    write_density(out / "majorant.csv", probes, majorant(df, probes, r))
    c_sg = certify_slow_growth(df, epsilon)
    c_sm = certify_self_majorization(df, r)
    eps_from_sm, c_sg_from_sm = lemma_transfer_sm_to_sg(c_sm, r)
    r_from_sg, c_sm_from_sg = lemma_transfer_sg_to_sm(c_sg, epsilon)
    write_json(out / "certificates.json", {
        "degree": degree, "stability_cap": cap, "epsilon": epsilon, "r": r,
        "n_samples": len(df),
        "c_sg": c_sg,
        "c_sm": c_sm,
        "lemma_sm_to_sg": {"epsilon": eps_from_sm, "c_sg_bound": c_sg_from_sm},
        "lemma_sg_to_sm": {"r": r_from_sg, "c_sm_bound": c_sm_from_sg},
    })


def cmd_study(block: dict, out: Path, seed: int) -> None:
    d = int(take(block, "d"))
    k = int(take(block, "k"))
    degree = int(take(block, "degree"))
    epsilon = float(take(block, "epsilon"))
    js = [int(j) for j in take(block, "js")]
    if len(js) < 3:
        raise ConfigError("js sweep must have length >= 3")
    placement = take(block, "placement")
    if placement not in ("uniform", "multires"):
        raise ConfigError("placement must be 'uniform' or 'multires'")
    bump_cfg = take(block, "bump")
    if not isinstance(bump_cfg, dict) or set(bump_cfg) != {"exponent", "scale"}:
        raise ConfigError("bump must be {'exponent': p, 'scale': s}")
    quad = take(block, "quadrature", required=False,
                default={"cells_per_rho": 4, "rule": "gauss2"})
    if not isinstance(quad, dict) or set(quad) != {"cells_per_rho", "rule"}:
        raise ConfigError("quadrature must be {'cells_per_rho': m, 'rule': ...}")
    box = _box(take(block, "box"), d)
    probes = _probe_grid(take(block, "probe"), d)
    defect = take(block, "defect", required=False)
    ensure_consumed(block)

    params = KernelParams(d=d, k=k, degree=degree)
    f = bump(int(bump_cfg["exponent"]), np.zeros(d), float(bump_cfg["scale"]))

    def factory(j):
        if placement == "uniform":
            h = 2.0**-j
            axes = [np.arange(int(np.ceil(lo / h)), int(np.floor(hi / h)) + 1) * h
                    for lo, hi in zip(*box)]
            return CenterSet(_grid_points(axes))
        spec = MultiresSpec(j=j, k=k, d=d, defect=np.asarray(defect, dtype=float),
                            box=box, epsilon=epsilon, degree=degree)
        return generate_centers(spec)

    if placement == "multires" and defect is None:
        raise ConfigError("multires placement requires a defect")
    res = convergence_study(
        js, factory, f, params, epsilon=epsilon, probes=probes,
        cells_per_rho=int(quad["cells_per_rho"]), rule=str(quad["rule"]),
        defect=np.asarray(defect, dtype=float).reshape(-1) if defect is not None else None,
    )
    columns = [list(res.js), res.global_errors.tolist()]
    header = "j,sup_error"
    if res.defect_errors is not None:
        columns.append(res.defect_errors.tolist())
        header += ",defect_error"
    write_csv(out / "study.csv", header, columns)
    report = {"js": list(res.js), "global_slope": res.global_slope}
    if res.defect_slope is not None:
        report["defect_slope"] = res.defect_slope
    write_json(out / "slopes.json", report)


def cmd_dyadic(block: dict, out: Path, seed: int) -> None:
    density_file = Path(take(block, "density_file"))
    gamma = float(take(block, "gamma"))
    sigma = float(take(block, "sigma"))
    two_k = float(take(block, "two_k"))
    r = float(take(block, "r"))
    levels = take(block, "levels")
    if not (isinstance(levels, list) and len(levels) == 2):
        raise ConfigError("levels must be [lo, hi]")
    overlap_points = int(take(block, "overlap_points", required=False, default=20))
    box = take(block, "box")
    ensure_consumed(block)
    params = DyadicParams(gamma=gamma, sigma=sigma, two_k=two_k)
    df = read_density(density_file)
    box = _box(box, df.dim)
    d = df.dim
    cubes = enumerate_cubes(box, range(int(levels[0]), int(levels[1]) + 1), d)
    good = classify(cubes, df, params)
    c_sm = certify_self_majorization(df, r)
    ratio = bad_cube_bound_check(cubes[~good], df, params, c_sm, r)
    columns = [cubes.level.tolist(), *cubes.index.T.tolist(), *cubes.gender.T.tolist(),
               np.where(good, "good", "bad").tolist()]
    header = ("level," + ",".join(f"k{a + 1}" for a in range(d)) + ","
              + ",".join(f"e{a + 1}" for a in range(d)) + ",class")
    write_csv(out / "partition.csv", header, columns)
    rng = np.random.default_rng(seed)
    lo, hi = box
    bound = max_overlap(d, gamma)
    worst = 0
    per_level = [cubes[cubes.level == lv] for lv in np.unique(cubes.level)]
    for _ in range(overlap_points):
        x = rng.uniform(lo, hi)
        for level_cubes in per_level:
            worst = max(worst, overlap_count(level_cubes, x, params))
    n_good = int(np.count_nonzero(good))
    write_json(out / "bound_check.json", {
        "gamma": gamma, "sigma": sigma, "two_k": two_k, "r": r,
        "c_sm": c_sm,
        "n_cubes": len(cubes), "n_good": n_good, "n_bad": len(cubes) - n_good,
        "bad_cube_max_ratio": ratio,
        "overlap": {"bound": bound, "max_observed": worst,
                    "points": overlap_points},
    })


COMMANDS = {
    "place": cmd_place,
    "density": cmd_density,
    "study": cmd_study,
    "dyadic": cmd_dyadic,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="surfspline",
        description="Surface-spline approximation with nonuniform centers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        block = load_config(args.config, args.command)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](block, out, args.seed)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NoAdmissibleRadius, AssemblyError, ReproductionError, UndersampledDensity,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

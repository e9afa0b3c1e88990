"""Command-line front end: placement, density certification, studies, dyadic checks.

Four subcommands (``place``, ``density``, ``study``, ``dyadic``), each taking
``--config <path>`` and ``--out <dir>`` plus an optional ``--seed``.  Configs
are strict JSON, checked whole against :data:`SCHEMAS` before a command
runs: an unknown or missing key at any depth, or a value of the wrong type,
is rejected naming its dotted key.  Value ranges are checked before any
input file is read.  All outputs are deterministic given (config, seed);
floats are serialized with 17 significant digits.

Exit codes: 0 success, 1 numerical failure, 2 input/config error (running
out of memory too: the config alone sets the array sizes).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .centers import CenterSet, _grid_points, _lattice
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
from .placement import (
    _MAX_LEVEL,
    MultiresSpec,
    build_ring_plan,
    cardinality_report,
    generate_centers,
)
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
    """Indented JSON of dicts (in insertion order), lists, tuples, ints and floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return FLOAT_FORMAT % float(obj)
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def write_json(path: Path, obj: dict) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(obj) + "\n")


def write_csv(path: Path, header: str, columns) -> None:
    """One row per entry of the equally long ``columns`` (lists or arrays); a
    column of floats is written with :data:`FLOAT_FORMAT`, any other with ``str``.

    Each column's distinct values are formatted once, with the separator that
    follows them (floats by their float64 bit pattern, so -0.0 apart from 0.0:
    lattice coordinates repeat a lot), and their NUL-padded bytes gathered into
    one ``(rows, width)`` byte table; dropping the padding leaves the body."""
    rows = len(columns[0]) if columns else 0
    table = [np.zeros((rows, 0), dtype=np.uint8)]
    for col, end in zip(columns, [","] * (len(columns) - 1) + ["\n"]):
        floats = rows and isinstance(col[0], float)
        values, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64) if floats
                                    else np.asarray(col), return_inverse=True)
        if floats:
            values = [FLOAT_FORMAT % v for v in values.view(float).tolist()]
        cells = np.array([(str(v) + end).encode() for v in values], dtype="S")
        table.append(np.take(cells.view(np.uint8).reshape(-1, cells.itemsize), inverse, axis=0))
    table = np.hstack(table)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes((header + "\n").encode() + np.compress(table.ravel() != 0, table).tobytes())


# ---------------------------------------------------------------------------
# centers / density file formats


def _read_cloud(path: Path, kind: str, prefix: str, dim_of, last: tuple, cloud):
    """The ``cloud`` (a CenterSet or a DensityField) of the points and the
    ``last`` (name, type) column of the rows under a header ``prefix + rest``,
    ``dim_of(rest)`` being the point dimension.  Every fault, in a row or in a
    value the cloud rejects, is a ConfigError naming the file."""
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
        rows = np.loadtxt(lines[1:], dtype=[("x", float, (dim,)), last], delimiter=",",
                          comments=None, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"bad row in {kind} file {path}: {exc}") from exc
    try:
        return cloud(rows["x"], rows[last[0]])
    except ValueError as exc:
        raise ConfigError(f"bad value in {kind} file {path}: {exc}") from exc


def write_centers(path: Path, cs: CenterSet) -> None:
    levels = cs.levels if cs.levels is not None else np.zeros(len(cs), dtype=int)
    write_csv(path, f"dim,{cs.dim}", [*cs.points.T, levels])


def read_centers(path: Path) -> CenterSet:
    return _read_cloud(path, "centers", "dim,", int, ("level", int), CenterSet)


def write_density(path: Path, pts: np.ndarray, values: np.ndarray) -> None:
    header = ",".join(f"x{a + 1}" for a in range(pts.shape[1])) + ",rho"
    write_csv(path, header, [*pts.T, values])


def read_density(path: Path) -> DensityField:
    return _read_cloud(path, "density", "x1,", lambda rest: rest.count(",") + 1,
                       ("rho", float), DensityField)


# ---------------------------------------------------------------------------
# strict config handling


_BOX = {"lo": np.ndarray, "hi": np.ndarray}
_PROBE = {"lo": np.ndarray, "hi": np.ndarray, "count": int}

#: Each command's config block: ``key: kind`` for a required key and
#: ``key: (kind, default)`` for an optional one.  A kind is ``int``,
#: ``float``, ``str``, ``Path`` (a file name), ``np.ndarray`` (a number or
#: nested lists of numbers, as floats), ``[kind]`` (a list) or a dict of
#: this form (a nested block).
SCHEMAS = {
    "place": {"j": int, "k": int, "d": int, "defect": np.ndarray, "box": _BOX,
              "epsilon": (float, 1.0 / 3.0), "degree": (int, None)},
    "density": {"centers_file": Path, "degree": int, "epsilon": float, "r": float,
                "stability_cap": (float, None), "probe": _PROBE},
    "study": {"d": int, "k": int, "degree": int, "epsilon": float, "js": [int],
              "placement": str, "bump": {"exponent": int, "scale": float},
              "quadrature": ({"cells_per_rho": int}, {"cells_per_rho": 4}),
              "box": _BOX, "probe": _PROBE, "defect": (np.ndarray, None)},
    "dyadic": {"density_file": Path, "gamma": float, "sigma": float, "two_k": float,
               "r": float, "levels": [int], "overlap_points": (int, 20), "box": _BOX},
}


def load_config(path: str, command: str) -> dict:
    """The ``command`` block of the JSON config at ``path``, checked against
    ``SCHEMAS[command]`` and converted by :func:`_as`, defaults filled in."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not (isinstance(raw, dict) and set(raw) == {command} and isinstance(raw[command], dict)):
        raise ConfigError(f"config must be a JSON object holding only a {command!r} object")
    return _as(SCHEMAS[command], raw[command], "")


def _as(kind, value, key: str):
    """The value of the dotted config key ``key`` (``""`` for a command's
    block) as ``kind``, a kind of :data:`SCHEMAS`.

    A block must hold every required key of its dict and no other.  Only
    finite JSON numbers qualify, and an ``int`` must be whole: a string, a
    bool, null, a list where a number belongs or 2.5 for an ``int`` is a
    ConfigError naming the key, never a silent cast or an uncaught TypeError.
    """
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be a JSON object, got {json.dumps(value)}")
        prefix = key + "." if key else ""
        unknown = set(value) - set(kind)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(prefix + k for k in unknown)}")
        out = {}
        for name, spec in kind.items():
            if name in value:
                out[name] = _as(spec[0] if isinstance(spec, tuple) else spec, value[name],
                                prefix + name)
            elif isinstance(spec, tuple):
                out[name] = spec[1]
            else:
                raise ConfigError(f"missing config key {prefix + name!r}")
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key!r} must be a list, got {json.dumps(value)}")
        return [_as(kind[0], v, key) for v in value]
    if kind in (str, Path):
        if not isinstance(value, str):
            what = "a file name" if kind is Path else "a string"
            raise ConfigError(f"config key {key!r} must be {what}, got {json.dumps(value)}")
        return kind(value)
    if kind is np.ndarray:
        def walk(v):
            return [walk(u) for u in v] if isinstance(v, list) else _as(float, v, key)
        try:
            return np.array(walk(value), dtype=float)
        except ValueError as exc:  # ragged nesting
            raise ConfigError(f"config key {key!r} must hold lists of equal length") from exc
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value) and (kind is float or value == int(value)))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config key {key!r} must be {what}, got {json.dumps(value)}")
    return kind(value)


def _check(*rules) -> None:
    """Raise a ConfigError for the first ``(key, ok, rule)`` whose ``ok`` is false."""
    for key, ok, rule in rules:
        if not ok:
            raise ConfigError(f"config key {key!r} must be {rule}")


def _defect_rule(defect, d: int) -> tuple:
    """The :func:`_check` rule of a defect: none, one point (d,) or a set (n, d)."""
    return ("defect", defect is None or defect.shape == (d,)
            or (defect.ndim == 2 and defect.shape[1] == d), f"one point ({d},) or a set (n, {d})")


def _box_rule(cfg: dict) -> tuple:
    """The :func:`_check` rule of the box block; :func:`_corners` checks its length."""
    lo, hi = cfg["box"]["lo"], cfg["box"]["hi"]
    return ("box", lo.ndim == 1 and lo.shape == hi.shape and bool(np.all(hi > lo)),
            "vectors lo and hi of one length with hi > lo on every axis")


def _corners(cfg: dict, block: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``lo`` and ``hi`` vectors of a checked box or probe block, of length d."""
    lo, hi = cfg[block]["lo"], cfg[block]["hi"]
    if lo.shape != (d,) or hi.shape != (d,):
        raise ConfigError(f"{block}.lo and {block}.hi must be vectors of length {d}")
    return lo, hi


def _probe_grid(cfg: dict, d: int) -> np.ndarray:
    """The probe block's grid: ``count`` points per axis between its corners."""
    lo, hi = _corners(cfg, "probe", d)
    return _grid_points([np.linspace(lo[a], hi[a], cfg["probe"]["count"]) for a in range(d)])


# ---------------------------------------------------------------------------
# subcommands, each given its checked config block


def cmd_place(cfg: dict, out: Path, seed: int) -> None:
    _check(_defect_rule(cfg["defect"], cfg["d"]), _box_rule(cfg))
    spec = MultiresSpec(**{**cfg, "box": _corners(cfg, "box", cfg["d"])})
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


def cmd_density(cfg: dict, out: Path, seed: int) -> None:
    degree, epsilon, r, cap = cfg["degree"], cfg["epsilon"], cfg["r"], cfg["stability_cap"]
    _check(("degree", degree >= 0, ">= 0"), ("r", r > 0, "> 0"),
           ("epsilon", 0 < epsilon < 1, "in (0, 1)"),
           ("stability_cap", cap is None or cap > 1, "> 1"),
           ("probe.count", cfg["probe"]["count"] >= 2, ">= 2"))
    cs = read_centers(cfg["centers_file"])
    cap = cap if cap is not None else default_stability_cap(cs.dim, degree)
    probes = _probe_grid(cfg, cs.dim)
    rho, _ = minimal_density(cs, probes, degree, cap)
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


def cmd_study(cfg: dict, out: Path, seed: int) -> None:
    d, k, degree, epsilon = cfg["d"], cfg["k"], cfg["degree"], cfg["epsilon"]
    placement, defect = cfg["placement"], cfg["defect"]
    lowest = 1 if placement == "multires" else -_MAX_LEVEL
    _check(("placement", placement in ("uniform", "multires"), "'uniform' or 'multires'"),
           ("js", all(lowest <= j <= _MAX_LEVEL for j in cfg["js"]),
            f"levels in [{lowest}, {_MAX_LEVEL}]"),
           ("defect", placement == "uniform" or defect is not None, "given for multires"),
           _defect_rule(defect, d), _box_rule(cfg),
           ("probe.count", cfg["probe"]["count"] >= 2, ">= 2"))
    box = _corners(cfg, "box", d)
    probes = _probe_grid(cfg, d)
    params = KernelParams(d=d, k=k, degree=degree)
    f = bump(cfg["bump"]["exponent"], np.zeros(d), cfg["bump"]["scale"])
    reach = float(np.min(np.minimum(-box[0], box[1])))
    _check(("bump.scale", f.scale <= reach,
            f"at most {reach}, so that the bump's support lies inside 'box'"))

    def factory(j):
        if placement == "uniform":
            return CenterSet(_lattice(*box, 2.0**-j, np.zeros(d)))
        spec = MultiresSpec(j=j, k=k, d=d, defect=defect, box=box, epsilon=epsilon,
                            degree=degree)
        return generate_centers(spec)

    res = convergence_study(
        cfg["js"], factory, f, params, epsilon=epsilon, probes=probes,
        cells_per_rho=cfg["quadrature"]["cells_per_rho"], defect=defect,
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


def cmd_dyadic(cfg: dict, out: Path, seed: int) -> None:
    gamma, sigma, two_k, r = cfg["gamma"], cfg["sigma"], cfg["two_k"], cfg["r"]
    levels, overlap_points = cfg["levels"], cfg["overlap_points"]
    _check(("levels", len(levels) == 2 and -_MAX_LEVEL <= levels[0] <= levels[1] <= _MAX_LEVEL,
            f"[lo, hi] with -{_MAX_LEVEL} <= lo <= hi <= {_MAX_LEVEL}"),
           ("r", r > 0, "> 0"), ("overlap_points", overlap_points >= 0, ">= 0"), _box_rule(cfg))
    params = DyadicParams(gamma=gamma, sigma=sigma, two_k=two_k)
    df = read_density(cfg["density_file"])
    d = df.dim
    box = _corners(cfg, "box", d)
    cubes = enumerate_cubes(box, range(levels[0], levels[1] + 1), d)
    good, rho_min = classify(cubes, df, params)
    c_sm = certify_self_majorization(df, r)
    ratio = bad_cube_bound_check(cubes[~good], rho_min[~good], params, c_sm, r)
    columns = [cubes.level, *cubes.index.T, *cubes.gender.T, np.where(good, "good", "bad")]
    header = ("level," + ",".join(f"k{a + 1}" for a in range(d)) + ","
              + ",".join(f"e{a + 1}" for a in range(d)) + ",class")
    write_csv(out / "partition.csv", header, columns)
    bound = max_overlap(d, gamma)
    xs = np.random.default_rng(seed).uniform(*box, size=(overlap_points, d))
    worst = max(int(overlap_count(cubes[cubes.level == lv], xs, params).max(initial=0))
                for lv in np.unique(cubes.level))
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
        cfg = load_config(args.config, args.command)
        # the writers create --out with the first output: a failure before it leaves none
        COMMANDS[args.command](cfg, Path(args.out), args.seed)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (NoAdmissibleRadius, AssemblyError, ReproductionError, UndersampledDensity,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array sized by the config, such as a huge grid
        print(f"config error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

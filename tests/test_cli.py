"""CLI harness: subcommands, file formats, exit codes, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfspline.cli import (ConfigError, main, read_centers, read_density, write_centers,
                            write_csv, write_density)
from surfspline import CenterSet, DyadicParams, classify, enumerate_cubes, genders
from surfspline import cli
from surfspline.cli import SCHEMAS, load_config


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def place_config(tmp_path, **overrides):
    block = {"j": 2, "k": 1, "d": 1, "epsilon": 0.5, "degree": 5,
             "defect": [[0.0]], "box": {"lo": [-4.0], "hi": [4.0]}}
    block.update(overrides)
    return write_config(tmp_path, "place.json", {"place": block})


def run_place(tmp_path, out="out_place"):
    cfg = place_config(tmp_path)
    out_dir = tmp_path / out
    assert main(["place", "--config", cfg, "--out", str(out_dir)]) == 0
    return out_dir


def test_place_outputs(tmp_path):
    out = run_place(tmp_path)
    report = json.loads((out / "place_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["core"]["spacing"] == 2**-4
    assert report["global_spacing"] == 0.25
    cs = read_centers(out / "centers.csv")
    assert cs.dim == 1
    assert len(cs) == report["n_centers"]
    assert cs.levels is not None


def test_place_minimal_j1(tmp_path):
    cfg = write_config(tmp_path, "p.json", {"place": {
        "j": 1, "k": 1, "d": 1, "epsilon": 0.5, "degree": 7,
        "defect": [[0.0]], "box": {"lo": [-8.0], "hi": [8.0]}}})
    out = tmp_path / "o"
    assert main(["place", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "place_report.json").read_text())
    assert len(report["rings"]) == 1


def test_place_figure_configuration(tmp_path):
    # j=3, k=2, d=2: spacings 2^-6, 2^-6, 2^-5, 2^-4 and global 2^-3
    cfg = write_config(tmp_path, "fig.json", {"place": {
        "j": 3, "k": 2, "d": 2, "defect": [[0.0, 0.0]],
        "box": {"lo": [-6.0, -6.0], "hi": [6.0, 6.0]}}})
    out = tmp_path / "fig"
    assert main(["place", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "place_report.json").read_text())
    assert report["spacings"] == [2**-6, 2**-6, 2**-5, 2**-4]
    assert report["global_spacing"] == 2**-3


@pytest.mark.parametrize("defect,code", [
    ([0.0], 0), ([[0.0]], 0), ([[-0.25], [0.25]], 0),
    (0.0, 2), ([], 2), ([[0.0, 1.0]], 2), ([[[0.0]]], 2)],
    ids=["point", "one-point set", "set", "scalar", "empty", "wrong width", "nested"])
def test_place_defect_shape(tmp_path, capsys, defect, code):
    # one point (d,) or a set (n, d), checked before any grid is built
    out = tmp_path / "out"
    assert main(["place", "--config", place_config(tmp_path, defect=defect),
                 "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "config key 'defect' must be one point (1,) or a set (n, 1)" in (
            capsys.readouterr().err)


def test_unknown_key_rejected(tmp_path):
    cfg = place_config(tmp_path, bogus=1)
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_rejected_config_leaves_no_output_directory(tmp_path, capsys):
    # epsilon passes the schema but not the range check inside the command
    cfg = place_config(tmp_path, epsilon=1.5)
    out = tmp_path / "never" / "made"
    assert main(["place", "--config", cfg, "--out", str(out)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_missing_key_rejected(tmp_path):
    cfg = write_config(tmp_path, "m.json", {"place": {"j": 2}})
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_wrong_block_rejected(tmp_path):
    cfg = write_config(tmp_path, "w.json", {"density": {}})
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["place", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


def density_config(tmp_path, centers_file, **overrides):
    block = {"centers_file": centers_file, "degree": 5, "epsilon": 0.5,
             "r": 1.0, "probe": {"lo": [-2.0], "hi": [2.0], "count": 17}}
    block.update(overrides)
    return write_config(tmp_path, "density.json", {"density": block})


def test_density_pipeline(tmp_path):
    out_place = run_place(tmp_path)
    cfg = density_config(tmp_path, str(out_place / "centers.csv"))
    out = tmp_path / "out_density"
    assert main(["density", "--config", cfg, "--out", str(out)]) == 0
    df = read_density(out / "density.csv")
    assert len(df) == 17
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["schema_version"] == 1
    assert certs["c_sg"] >= 1.0
    assert certs["c_sm"] <= 1.0
    assert (out / "majorant.csv").exists()


def test_density_uniform_grid_constants(tmp_path):
    # uniform centers -> rho constant, C_sg ~ 1, C_sm ~ 1 within 10%
    cs = CenterSet(np.arange(-12, 13) * 0.25)
    cpath = tmp_path / "uniform.csv"
    write_centers(cpath, cs)
    cfg = density_config(tmp_path, str(cpath),
                         probe={"lo": [-1.0], "hi": [1.0], "count": 9})
    out = tmp_path / "ud"
    assert main(["density", "--config", cfg, "--out", str(out)]) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["c_sg"] <= 1.1
    assert certs["c_sm"] >= 0.9


def test_density_unknown_key_before_reading_centers(tmp_path, capsys):
    cfg = density_config(tmp_path, str(tmp_path / "missing.csv"), bogus=1)
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("degree", -1), ("stability_cap", 1.0), ("r", 0.0),
                                       ("epsilon", 1.0)])
def test_density_bad_value_before_reading_centers(tmp_path, capsys, key, value):
    cfg = density_config(tmp_path, str(tmp_path / "missing.csv"), **{key: value})
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "missing.csv" not in err


#: Rejected file bodies, per reader: (reader, case, text); ``None`` text
#: means no file at all.
BAD_FILES = [
    (reader, case, text)
    for reader, rows in [
        (read_centers, {"header": "dim,x\n0.5,0\n", "field count": "dim,1\n0.5,0,1\n",
                        "later field count": "dim,1\n0.5,0\n0.7\n",
                        "huge dim": "dim,1000000000000\n0.5,0\n",
                        "non-numeric": "dim,1\nabc,0\n", "level 3.0": "dim,1\n0.5,3.0\n",
                        "level 1.5": "dim,1\n0.5,1.5\n", "blank line": "dim,1\n0.5,0\n\n0.7,0\n",
                        "no rows": "dim,1\n", "unreadable": None,
                        "nan coordinate": "dim,1\n0.5,0\nnan,0\n",
                        "repeated row": "dim,2\n0.5,1,0\n0.7,1,0\n0.5,1,1\n"}),
        (read_density, {"header": "y1,rho\n0.5,1\n", "field count": "x1,rho\n0.5\n",
                        "non-numeric": "x1,rho\n0.5,abc\n",
                        "blank line": "x1,rho\n0.5,1\n\n0.7,1\n",
                        "no rows": "x1,rho\n", "unreadable": None,
                        "rho -2": "x1,rho\n0.5,1\n0.7,-2\n", "rho inf": "x1,rho\n0.5,inf\n"}),
    ]
    for case, text in rows.items()
]


@pytest.mark.parametrize("reader,case,text", BAD_FILES,
                         ids=[f"{r.__name__}-{c}" for r, c, _ in BAD_FILES])
def test_csv_reader_rejects(tmp_path, reader, case, text):
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match="input.csv"):
        reader(path)


def test_repeated_center_row_named(tmp_path):
    # the message names the file and the first pair of repeated rows (from 0)
    path = tmp_path / "input.csv"
    path.write_text("dim,1\n0.5,0\n0.9,0\n0.7,0\n0.9,1\n0.5,2\n")
    with pytest.raises(ConfigError, match=r"input\.csv: duplicate .* rows 0 and 4$"):
        read_centers(path)


def test_density_empty_centers_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("dim,1\n")
    cfg = density_config(tmp_path, str(path))
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_study_uniform(tmp_path):
    # with the default quadrature and with a quadrature block that sets only
    # its cell count
    block = {"d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
             "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
             "box": {"lo": [-2.5], "hi": [2.5]},
             "probe": {"lo": [-1.2], "hi": [1.2], "count": 121}}
    for extra in ({}, {"quadrature": {"cells_per_rho": 8}}):
        cfg = write_config(tmp_path, "study.json", {"study": {**block, **extra}})
        out = tmp_path / f"study{len(extra)}"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes["global_slope"] >= 1.5
        table = (out / "study.csv").read_text().strip().splitlines()
        assert table[0] == "j,sup_error"
        assert len(table) == 4


def test_study_multires(tmp_path):
    cfg = write_config(tmp_path, "study.json", {"study": {
        "d": 1, "k": 1, "degree": 7, "epsilon": 1 / 3, "js": [3, 4, 5],
        "placement": "multires", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 121}, "defect": [0.0]}})
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in ("study.csv", "slopes.json")})
    assert runs[0] == runs[1]
    table = runs[0]["study.csv"].decode().strip().splitlines()
    assert table[0] == "j,sup_error,defect_error"
    defect_errors = [float(row.split(",")[2]) for row in table[1:]]
    assert len(defect_errors) == 3
    assert all(a > b for a, b in zip(defect_errors, defect_errors[1:]))
    slopes = json.loads(runs[0]["slopes.json"])
    assert slopes["defect_slope"] > slopes["global_slope"]


def study_defect_config(tmp_path, defect):
    return write_config(tmp_path, "study.json", {"study": {
        "d": 1, "k": 1, "degree": 7, "epsilon": 1 / 3, "js": [3, 4, 5],
        "placement": "multires", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-4.0], "hi": [4.0]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 121}, "defect": defect}})


def test_study_defect_set(tmp_path):
    # a set of defect points runs every level and writes the defect column;
    # the rings follow the whole set, so the refinement pays off at each point,
    # the one-sided set included
    for i, defect in enumerate([[[-0.25], [0.25]], [[0.0], [0.25]]]):
        out = tmp_path / f"out{i}"
        assert main(["study", "--config", study_defect_config(tmp_path, defect),
                     "--out", str(out)]) == 0
        table = (out / "study.csv").read_text().strip().splitlines()
        assert table[0] == "j,sup_error,defect_error"
        defect_errors = [float(row.split(",")[2]) for row in table[1:]]
        assert len(defect_errors) == 3 and all(e > 0 for e in defect_errors)
        assert all(a > b for a, b in zip(defect_errors, defect_errors[1:]))
        slopes = json.loads((out / "slopes.json").read_text())
        assert slopes["defect_slope"] > slopes["global_slope"]


@pytest.mark.parametrize("defect", [[[0.0, 1.0]], [[[0.0]]], []])
def test_study_malformed_defect_rejected_before_work(tmp_path, capsys, count_solves, defect):
    out = tmp_path / "out"
    assert main(["study", "--config", study_defect_config(tmp_path, defect),
                 "--out", str(out)]) == 2
    assert "'defect'" in capsys.readouterr().err
    assert count_solves == []


def test_study_short_sweep_rejected(tmp_path):
    cfg = write_config(tmp_path, "s2.json", {"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 41}}})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_study_svd_failure_is_numerical(tmp_path, monkeypatch):
    # numpy.linalg.LinAlgError subclasses ValueError, the config-error class
    import surfspline.polyrep

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(surfspline.polyrep, "_min_norm", no_convergence)
    cfg = write_config(tmp_path, "s.json", {"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 41}}})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("routine", ["dgeqp3", "dtrtrs", "dormqr"])
def test_study_lapack_failure_is_numerical(tmp_path, capsys, monkeypatch, routine):
    # a LAPACK wrapper that reports info = 1 from the local solve's QR, its
    # triangular solve or its application of Q
    import surfspline.polyrep

    wrapper = getattr(surfspline.polyrep, routine)
    monkeypatch.setattr(surfspline.polyrep, routine,
                        lambda *args, **kwargs: (*wrapper(*args, **kwargs)[:-1], 1))
    cfg = write_config(tmp_path, "s.json", {"study": study_block()})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: LAPACK") and "failed with info 1" in err


def test_dyadic_pipeline(tmp_path):
    out_place = run_place(tmp_path)
    dcfg = density_config(tmp_path, str(out_place / "centers.csv"))
    out_density = tmp_path / "dd"
    assert main(["density", "--config", dcfg, "--out", str(out_density)]) == 0
    cfg = write_config(tmp_path, "dyadic.json", {"dyadic": {
        "density_file": str(out_density / "density.csv"),
        "gamma": 1.5, "sigma": 1.0, "two_k": 2.0, "r": 1.0,
        "levels": [0, 3], "box": {"lo": [-2.0], "hi": [2.0]},
        "overlap_points": 5}})
    out = tmp_path / "dy"
    assert main(["dyadic", "--config", cfg, "--out", str(out)]) == 0
    check = json.loads((out / "bound_check.json").read_text())
    assert check["bad_cube_max_ratio"] <= 1.0
    assert check["overlap"]["max_observed"] <= check["overlap"]["bound"]
    lines = (out / "partition.csv").read_text().strip().splitlines()
    assert lines[0] == "level,k1,e1,class"
    assert len(lines) - 1 == check["n_cubes"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dyadic_writes_each_cube_once_per_gender(tmp_path, d):
    # partition.csv holds each enumerate_cubes row once per gender, genders in
    # lexicographic order, with the row's classify flag; the counts and the
    # observed overlap are of gendered cubes, 2^d - 1 per row
    xs = np.linspace(-1.0, 1.0, {1: 33, 2: 17, 3: 9}[d])
    pts = np.stack(np.meshgrid(*[xs] * d, indexing="ij"), axis=-1).reshape(-1, d)
    write_density(tmp_path / "field.csv", pts, 0.05 + 0.5 * np.linalg.norm(pts - 0.1, axis=1))
    box = (np.full(d, -0.9), np.full(d, 0.9))
    cfg = write_config(tmp_path, "dyadic.json", {"dyadic": {
        "density_file": str(tmp_path / "field.csv"), "gamma": 1.5, "sigma": 1.0,
        "two_k": 4.0, "r": 2.0, "levels": [0, 2],
        "box": {"lo": box[0].tolist(), "hi": box[1].tolist()}, "overlap_points": 6}})
    assert main(["dyadic", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "4"]) == 0
    cubes = enumerate_cubes(box, range(3), d)
    good = classify(cubes, read_density(tmp_path / "field.csv"), DyadicParams(1.5, 1.0, 4.0))
    assert 0 < np.count_nonzero(good) < len(cubes)
    rows = (tmp_path / "out" / "partition.csv").read_text().splitlines()[1:]
    assert rows == [",".join(map(str, [lv, *k, *e, "good" if g else "bad"]))
                    for lv, k, g in zip(cubes.level.tolist(), cubes.index.tolist(), good.tolist())
                    for e in genders(d)]
    n = 2**d - 1
    report = json.loads((tmp_path / "out" / "bound_check.json").read_text())
    assert (report["n_cubes"], report["n_good"], report["n_bad"]) == (
        n * len(cubes), n * np.count_nonzero(good), n * np.count_nonzero(~good))
    inside = [np.linalg.norm(x - cubes.corner, axis=1) <= 1.5 * cubes.side
              for x in np.random.default_rng(4).uniform(*box, size=(6, d))]
    per_row = max(np.count_nonzero(hit & (cubes.level == lv)) for hit in inside for lv in range(3))
    assert report["overlap"]["max_observed"] == n * per_row > 0


def test_dyadic_gamma_below_one_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,rho\n0.0,0.1\n")
    cfg = write_config(tmp_path, "g.json", {"dyadic": {
        "density_file": str(path), "gamma": 0.5, "sigma": 1.0, "two_k": 2.0,
        "r": 1.0, "levels": [0, 2], "box": {"lo": [-1.0], "hi": [1.0]}}})
    assert main(["dyadic", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_dyadic_unknown_key_before_reading_density(tmp_path, capsys):
    cfg = write_config(tmp_path, "u.json", {"dyadic": {
        "density_file": str(tmp_path / "missing.csv"), "gamma": 1.5, "sigma": 1.0,
        "two_k": 2.0, "r": 1.0, "levels": [0, 2], "box": {"lo": [-1.0], "hi": [1.0]},
        "bogus": 1}})
    assert main(["dyadic", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("r", 0.0), ("r", -1.0), ("overlap_points", -1)])
def test_dyadic_bad_value_before_reading_density(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, "v.json", {"dyadic": dyadic_block(tmp_path, **{key: value})})
    assert main(["dyadic", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "missing.csv" not in err


def study_block(**overrides):
    block = {"d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
             "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
             "box": {"lo": [-2.5], "hi": [2.5]},
             "probe": {"lo": [-1.2], "hi": [1.2], "count": 41}}
    block.update(overrides)
    return block


def dyadic_block(tmp_path, **overrides):
    block = {"density_file": str(tmp_path / "missing.csv"), "gamma": 1.5, "sigma": 1.0,
             "two_k": 2.0, "r": 1.0, "levels": [0, 2], "box": {"lo": [-1.0], "hi": [1.0]}}
    block.update(overrides)
    return block


#: Wrongly typed config values: (command, overrides, key the error must name).
BAD_VALUES = [
    ("place", {"d": [1]}, "d"),
    ("place", {"j": "x"}, "j"),
    ("place", {"d": 2.5}, "d"),
    ("place", {"degree": "7"}, "degree"),
    ("place", {"defect": [["a"]]}, "defect"),
    ("density", {"r": "x"}, "r"),
    ("density", {"degree": 4.5}, "degree"),
    ("density", {"stability_cap": True}, "stability_cap"),
    ("density", {"centers_file": None}, "centers_file"),
    ("density", {"probe": {"lo": [-2.0], "hi": [2.0], "count": "17"}}, "probe.count"),
    ("study", {"quadrature": {"cells_per_rho": None}}, "quadrature.cells_per_rho"),
    ("study", {"d": [1]}, "d"),
    ("study", {"js": 5}, "js"),
    ("study", {"js": [3, 4, "5"]}, "js"),
    ("study", {"epsilon": float("nan")}, "epsilon"),
    ("study", {"bump": {"exponent": 5.5, "scale": 1.0}}, "bump.exponent"),
    ("study", {"box": {"lo": {"a": 1}, "hi": [2.5]}}, "box.lo"),
    ("dyadic", {"levels": [0, "x"]}, "levels"),
    ("dyadic", {"overlap_points": 2.5}, "overlap_points"),
    ("dyadic", {"gamma": None}, "gamma"),
    ("dyadic", {"density_file": 3}, "density_file"),
    ("dyadic", {"box": {"lo": [-1.0], "hi": ["1"]}}, "box.hi"),
    ("place", {"box": 5}, "box"),
    ("place", {"defect": [[0, 1], [0]]}, "defect"),
    ("place", {"degree": 10**400}, "degree"),
]


def command_block(tmp_path, command):
    """A valid block of ``command``; one that reads a file names a missing one."""
    return {"place": lambda: json.loads(Path(place_config(tmp_path)).read_text())["place"],
            "density": lambda: json.loads(Path(density_config(
                tmp_path, str(tmp_path / "missing.csv"))).read_text())["density"],
            "study": study_block,
            "dyadic": lambda: dyadic_block(tmp_path)}[command]()


@pytest.mark.parametrize("command,overrides,key", BAD_VALUES,
                         ids=[f"{c}-{k}-{i}" for i, (c, _, k) in enumerate(BAD_VALUES)])
def test_wrongly_typed_config_value(tmp_path, capsys, command, overrides, key):
    block = command_block(tmp_path, command)
    block.update(overrides)
    cfg = write_config(tmp_path, "bad.json", {command: block})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and "missing.csv" not in err


@pytest.mark.parametrize("box", [{"lo": [1.0], "hi": [1.0]}, {"lo": [1.0], "hi": [-1.0]},
                                 {"lo": [-1.0], "hi": [1.0, 2.0]}],
                         ids=["zero width", "inverted", "unequal lengths"])
@pytest.mark.parametrize("command", ["place", "study", "dyadic"])
def test_empty_or_inverted_box_rejected_before_work(tmp_path, capsys, count_solves, command,
                                                   box):
    cfg = write_config(tmp_path, "box.json", {command: {**command_block(tmp_path, command),
                                                       "box": box}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config key 'box' must be vectors lo and hi of one length" in err
    assert "missing.csv" not in err
    assert not out.exists()
    assert count_solves == []


def test_round_trip_centers(tmp_path):
    out = run_place(tmp_path)
    cs = read_centers(out / "centers.csv")
    again = tmp_path / "again.csv"
    write_centers(again, cs)
    assert again.read_bytes() == (out / "centers.csv").read_bytes()


def write_csv_by_rows(path, header, columns):
    """The row-by-row CSV writer that ``cli.write_csv`` replaced, kept as its oracle."""
    columns = [float_text(col) if len(col) and isinstance(col[0], float) else col
               for col in columns]
    fmt = ",".join(["%s"] * len(columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header] + [fmt % row for row in zip(*columns)]) + "\n")


def float_text(col):
    bits, inverse = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
    text = np.array([cli.FLOAT_FORMAT % v for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def assert_writers_agree(tmp_path, header, columns):
    write_csv(tmp_path / "table.csv", header, columns)
    write_csv_by_rows(tmp_path / "rows.csv", header, columns)
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308, -1e308,
                  0.1 + 0.2, 1 / 3, -2.0**-1074 * 3, 123456789.12345678]


@st.composite
def csv_columns(draw):
    """Equally long float, int or string columns, each a list or an array."""
    rows = draw(st.integers(0, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        values = draw(st.sampled_from([
            st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
            st.integers(-10**12, 10**12), st.text("ab-_ xyz09.", max_size=5)]))
        col = draw(st.lists(values, min_size=rows, max_size=rows))
        columns.append(np.array(col) if draw(st.booleans()) else col)
    return columns


@settings(max_examples=200, deadline=None)
@given(csv_columns())
def test_writer_matches_row_writer(tmp_path_factory, columns):
    assert_writers_agree(tmp_path_factory.mktemp("csv"), "h", columns)


@pytest.mark.parametrize("columns", [
    [], [[]], [np.array([])], [[-0.0]], [[5e-324, -0.0, 0.0]], [np.array([-3, 0, 7])],
    [["good"]], [[1.5], [-2], ["bad"]], [np.array(["", "a"]), [np.nan, -np.inf]]])
def test_writer_matches_row_writer_at_edges(tmp_path, columns):
    # no column, no row, one row, one column, empty strings
    assert_writers_agree(tmp_path, "a,b", columns)


def test_writer_matches_row_writer_on_full_outputs(tmp_path, monkeypatch):
    # the 35,273-center Remark-1 placement and the 16,392-row partition of the
    # dyadic benchmark, each against the row writer given the columns as lists
    written = {}

    def both(path, header, columns):
        write_csv(path, header, columns)
        rows = path.with_suffix(".rows")
        write_csv_by_rows(rows, header, [np.asarray(c).tolist() for c in columns])
        assert path.read_bytes() == rows.read_bytes()
        written[path.name] = len(columns[0])

    monkeypatch.setattr(cli, "write_csv", both)
    place = write_config(tmp_path, "place.json", {"place": {
        "j": 3, "k": 2, "d": 2, "defect": [[0.0, 0.0]], "box": {"lo": [-6, -6], "hi": [6, 6]}}})
    assert main(["place", "--config", place, "--out", str(tmp_path / "place")]) == 0
    xs = np.linspace(-0.5, 0.5, 73)
    pts = np.stack([a.ravel() for a in np.meshgrid(xs, xs, indexing="ij")], axis=1)
    rho0 = 5 * np.sqrt(2.0) * 2.0**-6
    rho = np.minimum(rho0 * (1 + np.linalg.norm(pts, axis=1) / rho0) ** (2 / 3), 2.0**-3)
    write_density(tmp_path / "field.csv", pts, rho)
    dyadic = write_config(tmp_path, "dyadic.json", {"dyadic": {
        "density_file": str(tmp_path / "field.csv"), "gamma": 2.0, "sigma": 1.5, "two_k": 4.0,
        "r": 2.0, "levels": [0, 6], "box": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
        "overlap_points": 5}})
    assert main(["dyadic", "--config", dyadic, "--out", str(tmp_path / "dyadic")]) == 0
    assert written == {"centers.csv": 35_273, "field.csv": 73 * 73, "partition.csv": 16_392}


def test_place_builds_no_tree_until_a_query(tmp_path, monkeypatch):
    # the distinctness check of a placement is one sort; the centers' kd-tree
    # is built by their first neighbor query, once.  Every tree of the
    # library is built in `centers`, the one module that names cKDTree
    import importlib
    import pkgutil

    from scipy.spatial import cKDTree

    import surfspline
    import surfspline.centers

    names = [m.name for m in pkgutil.iter_modules(surfspline.__path__)]
    assert [name for name in names if hasattr(importlib.import_module(f"surfspline.{name}"),
                                              "cKDTree")] == ["centers"]
    built = []

    class Spy(cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(surfspline.centers, "cKDTree", Spy)
    out = run_place(tmp_path)
    assert built == []
    cs = read_centers(out / "centers.csv")
    assert built == []
    for _ in range(2):
        cs.neighbor_arrays(cs.points[3], 0.5)
    assert built.count(len(cs)) == 1 and isinstance(cs._tree, Spy)


def test_determinism_all_commands(tmp_path):
    out1 = run_place(tmp_path, out="r1")
    out2 = run_place(tmp_path, out="r2")
    for name in ("centers.csv", "place_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    cfg = density_config(tmp_path, str(out1 / "centers.csv"),
                         probe={"lo": [-1.0], "hi": [1.0], "count": 9})
    a, b = tmp_path / "da", tmp_path / "db"
    assert main(["density", "--config", cfg, "--out", str(a)]) == 0
    assert main(["density", "--config", cfg, "--out", str(b)]) == 0
    for name in ("density.csv", "majorant.csv", "certificates.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_density_outputs_independent_of_blas_threads(tmp_path):
    # `surfspline density` at degree 14 on a Remark-1 placement writes the
    # same bytes on one BLAS thread and on two
    import os
    import subprocess
    import sys

    cfg = write_config(tmp_path, "place.json", {"place": {
        "j": 2, "k": 2, "d": 2, "defect": [[0.0, 0.0]],
        "box": {"lo": [-7.5, -7.5], "hi": [7.5, 7.5]}}})
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "place")]) == 0
    cfg = write_config(tmp_path, "density.json", {"density": {
        "centers_file": str(tmp_path / "place" / "centers.csv"), "degree": 14,
        "epsilon": 1.0 / 3.0, "r": 2.0, "probe": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0],
                                                  "count": 3}}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "surfspline.cli", "density", "--config", cfg,
                               "--out", str(tmp_path / threads)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("density.csv", "majorant.csv", "certificates.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def full_block(tmp_path, command):
    """A valid block of ``command`` holding every key of its schema, optional
    ones too; a command that reads a file is pointed at a missing one."""
    return {
        "place": {"j": 2, "k": 1, "d": 1, "defect": [[0.0]],
                  "box": {"lo": [-4.0], "hi": [4.0]}, "epsilon": 0.5, "degree": 5},
        "density": json.loads(Path(density_config(
            tmp_path, str(tmp_path / "missing.csv"), stability_cap=1e6)).read_text())["density"],
        "study": study_block(quadrature={"cells_per_rho": 4}, defect=[[0.0]]),
        "dyadic": dyadic_block(tmp_path, overlap_points=5),
    }[command]


def schema_keys(schema, prefix=""):
    """(dotted key, kind, optional in its block) for every key, nested ones too."""
    for name, spec in schema.items():
        kind = spec[0] if isinstance(spec, tuple) else spec
        yield prefix + name, kind, isinstance(spec, tuple)
        if isinstance(kind, dict):
            yield from schema_keys(kind, prefix + name + ".")


def without(block, dotted):
    """A copy of ``block`` without the dotted key."""
    block = json.loads(json.dumps(block))
    *path, last = dotted.split(".")
    inner = block
    for name in path:
        inner = inner[name]
    del inner[last]
    return block


REQUIRED = [(c, key) for c in SCHEMAS for key, _, optional in schema_keys(SCHEMAS[c])
            if not optional]
BLOCKS = [(c, key) for c in SCHEMAS for key in [""] + [
    key for key, kind, _ in schema_keys(SCHEMAS[c]) if isinstance(kind, dict)]]


def run_block(tmp_path, command, block):
    cfg = write_config(tmp_path, "schema.json", {command: block})
    return main([command, "--config", cfg, "--out", str(tmp_path / "x")])


@pytest.mark.parametrize("command", list(SCHEMAS))
def test_full_block_passes_schema(tmp_path, command):
    path = write_config(tmp_path, "full.json", {command: full_block(tmp_path, command)})
    cfg = load_config(path, command)
    assert list(cfg) == list(SCHEMAS[command])


@pytest.mark.parametrize("command,key", REQUIRED, ids=[f"{c}-{k}" for c, k in REQUIRED])
def test_missing_required_key_named(tmp_path, capsys, command, key):
    block = without(full_block(tmp_path, command), key)
    assert run_block(tmp_path, command, block) == 2
    err = capsys.readouterr().err
    assert f"missing config key {key!r}" in err and "missing.csv" not in err


@pytest.mark.parametrize("command,key", BLOCKS, ids=[f"{c}-{k or 'top'}" for c, k in BLOCKS])
def test_unknown_key_in_any_block_named(tmp_path, capsys, command, key):
    block = full_block(tmp_path, command)
    inner = block
    for name in filter(None, key.split(".")):
        inner = inner[name]
    inner["bogus"] = 1
    assert run_block(tmp_path, command, block) == 2
    bogus = f"{key}.bogus" if key else "bogus"
    err = capsys.readouterr().err
    assert f"unknown config keys [{bogus!r}]" in err and "missing.csv" not in err


def readme_keys(command):
    """(required, optional) keys the README's CLI section lists for ``command``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [line] = [ln for ln in text.splitlines() if ln.startswith(f"- `{command}`:")]
    required, _, optional = line.split(":", 1)[1].partition("; optional")
    return (re.findall(r"`([\w.]+)`", required), re.findall(r"`([\w.]+)`", optional))


@pytest.mark.parametrize("command", list(SCHEMAS))
def test_readme_lists_schema_keys(command):
    def leaves(schema, prefix="", optional=False):
        for name, spec in schema.items():
            kind = spec[0] if isinstance(spec, tuple) else spec
            opt = optional or isinstance(spec, tuple)
            if isinstance(kind, dict):
                yield from leaves(kind, prefix + name + ".", opt)
            else:
                yield prefix + name, opt

    keys = list(leaves(SCHEMAS[command]))
    assert readme_keys(command) == ([k for k, opt in keys if not opt],
                                    [k for k, opt in keys if opt])


#: Values of the right type that a command must reject before it runs:
#: (command, overrides, text the error must hold).
BAD_RANGES = [
    ("place", {"epsilon": 1.5}, "epsilon 1.5 must lie in (0, 1)"),
    ("place", {"epsilon": 1.0}, "epsilon 1 must lie in (0, 1)"),
    ("place", {"degree": 0}, "degree 0 must exceed"),
    ("study", {"epsilon": 1.0}, "epsilon 1 must lie in (0, 1)"),
    ("study", {"epsilon": 1.5}, "epsilon 1.5 must lie in (0, 1)"),
    ("study", {"js": [3, 3, 3]}, "at least 3 distinct levels"),
    ("study", {"js": [3, 4, 3, 4]}, "at least 3 distinct levels"),
    ("dyadic", {"levels": [3, 1]}, "config key 'levels'"),
    ("dyadic", {"levels": [0, 1, 2]}, "config key 'levels'"),
    ("density", {"probe": {"lo": [-2.0], "hi": [2.0], "count": 1}}, "config key 'probe.count'"),
    ("study", {"d": 2, "defect": [[0.0, 0.0]]}, "box.lo and box.hi must be vectors of length 2"),
    ("study", {"d": 2, "defect": [[0.0, 0.0]], "box": {"lo": [-2.5, -2.5], "hi": [2.5, 2.5]}},
     "probe.lo and probe.hi must be vectors of length 2"),
    # spacings 2^-j and cube sides 2^-level that underflow or overflow
    ("place", {"j": 1100}, "j must be >= 1 and at most 511"),
    ("study", {"js": [3, 4, 2000]}, "config key 'js' must be levels in [-511, 511]"),
    ("dyadic", {"levels": [-2000, 0]}, "config key 'levels'"),
    ("dyadic", {"levels": [0, 2000]}, "config key 'levels'"),
    # bumps whose expansion rounds badly or whose coefficients overflow or underflow
    ("study", {"bump": {"exponent": 40, "scale": 1.0}}, "exponent 40 exceeds 14"),
    ("study", {"bump": {"exponent": 5, "scale": 1e-200}}, "scale 1e-200 makes a coefficient"),
    ("study", {"bump": {"exponent": 5, "scale": 1e200}}, "scale 1e+200 makes a coefficient"),
    # the quadrature has one rule, so no key selects it
    ("study", {"quadrature": {"cells_per_rho": 4, "rule": "gauss2"}},
     "unknown config keys ['quadrature.rule']"),
    # bumps whose support leaves the box [-2.5, 2.5]
    ("study", {"bump": {"exponent": 5, "scale": 2.6}},
     "config key 'bump.scale' must be at most 2.5, so that the bump's support lies inside 'box'"),
    ("study", {"bump": {"exponent": 5, "scale": 1e5}}, "config key 'bump.scale' must be at most"),
]


@pytest.mark.parametrize("command,overrides,text", BAD_RANGES,
                         ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(BAD_RANGES)])
def test_value_out_of_range_rejected(tmp_path, capsys, count_solves, command, overrides, text):
    # one config error line, before any input file is read or any level runs
    block = {**full_block(tmp_path, command), **overrides}
    assert run_block(tmp_path, command, block) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert text in err and "missing.csv" not in err
    assert count_solves == []


def test_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    def no_memory(spec):
        raise MemoryError("Unable to allocate 1.00 TiB for an array with shape "
                          "(137438953473,) and data type float64")

    monkeypatch.setattr(cli, "generate_centers", no_memory)
    cfg = place_config(tmp_path)
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: place") and "1.00 TiB" in err
    assert err.count("\n") == 1

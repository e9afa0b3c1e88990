"""CLI harness: subcommands, file formats, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from surfspline.cli import ConfigError, main, read_centers, read_density, write_centers
from surfspline import CenterSet


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


def test_unknown_key_rejected(tmp_path):
    cfg = place_config(tmp_path, bogus=1)
    assert main(["place", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


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
                        "no rows": "dim,1\n", "unreadable": None}),
        (read_density, {"header": "y1,rho\n0.5,1\n", "field count": "x1,rho\n0.5\n",
                        "non-numeric": "x1,rho\n0.5,abc\n",
                        "blank line": "x1,rho\n0.5,1\n\n0.7,1\n",
                        "no rows": "x1,rho\n", "unreadable": None}),
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


def test_density_empty_centers_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("dim,1\n")
    cfg = density_config(tmp_path, str(path))
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_study_uniform(tmp_path):
    cfg = write_config(tmp_path, "study.json", {"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 121}}})
    out = tmp_path / "study"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    slopes = json.loads((out / "slopes.json").read_text())
    assert slopes["global_slope"] >= 1.5
    table = (out / "study.csv").read_text().strip().splitlines()
    assert table[0] == "j,sup_error"
    assert len(table) == 4


def test_study_short_sweep_rejected(tmp_path):
    cfg = write_config(tmp_path, "s2.json", {"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 41}}})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_study_svd_failure_is_numerical(tmp_path, monkeypatch):
    # numpy.linalg.LinAlgError subclasses ValueError, the config-error class
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(scipy.linalg, "lstsq", no_convergence)
    cfg = write_config(tmp_path, "s.json", {"study": {
        "d": 1, "k": 1, "degree": 4, "epsilon": 0.6, "js": [3, 4, 5],
        "placement": "uniform", "bump": {"exponent": 5, "scale": 1.0},
        "box": {"lo": [-2.5], "hi": [2.5]},
        "probe": {"lo": [-1.2], "hi": [1.2], "count": 41}}})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


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


def test_round_trip_centers(tmp_path):
    out = run_place(tmp_path)
    cs = read_centers(out / "centers.csv")
    again = tmp_path / "again.csv"
    write_centers(again, cs)
    assert again.read_bytes() == (out / "centers.csv").read_bytes()


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

"""Layout invariants of the package sources, read as text (stdlib only)."""

import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = {path.name: path.read_text() for path in sorted((SRC / "surfspline").glob("*.py"))}


def test_cli_import_loads_no_mpmath():
    # mpmath serves only the extended-precision functions, which import it lazily
    code = "import sys, surfspline.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=SRC, check=True)
    assert done.stdout.strip() == "False"


def test_one_kd_tree_constructor():
    assert sum(text.count("cKDTree(") for text in MODULES.values()) == 1
    spatial = re.compile(r"^\s*(from scipy\.spatial\b|import scipy\.spatial\b)", re.M)
    assert [name for name, text in MODULES.items() if spatial.search(text)] == ["centers.py"]


def test_input_contracts_defined_in_centers_only():
    for name in ("_check_int", "_check_real", "_check_order", "_as_points", "_as_point",
                 "_as_box", "_MAX_LEVEL"):
        definition = re.compile(rf"^(def {name}\(|{name}\s*=)", re.M)
        assert [m for m, text in MODULES.items() if definition.search(text)] == ["centers.py"], name


def test_one_real_contract():
    # every real range check goes through _check_real, whose message alone
    # may state a range in words; the CLI restates none of the library's rules
    for name in ("_check_positive", "_check_gamma"):
        assert not [m for m, text in MODULES.items() if name in text], name
    centers = MODULES["centers.py"]
    start = centers.index("\ndef _check_real(")
    end = centers.index("\ndef ", start + 1)
    outside = {**MODULES, "centers.py": centers[:start] + centers[end:]}
    for phrase in ("must lie in", "and finite", "must be positive"):
        assert not [m for m, text in outside.items() if phrase in text], phrase
    rows = re.findall(r'(?<!_checked)\("(\w+)",', MODULES["cli.py"])
    assert not {"r", "epsilon", "degree", "stability_cap", "gamma", "sigma", "two_k"} & set(rows)


def test_one_ball_listing():
    # a second listing path, sorted or not, would fork the neighbor layer
    for needle in ("def _balls(", "sparse_distance_matrix("):
        counts = {name: text.count(needle) for name, text in MODULES.items() if needle in text}
        assert counts == {"centers.py": 1}, needle


def test_solve_mechanics_owned_by_polyrep():
    # the one-thread BLAS policy is entered once, around the factorizations of
    # _min_norm, and _monomials is the one moment-matrix builder
    assert [name for name, text in MODULES.items() if "_serial_blas" in text] == ["polyrep.py"]
    polyrep = MODULES["polyrep.py"]
    min_norm = polyrep[polyrep.index("\ndef _min_norm("):]
    min_norm = min_norm[:min_norm.index("\ndef ", 1)]
    assert polyrep.count("with _serial_blas()") == min_norm.count("with _serial_blas()") == 1
    assert not [name for name, text in MODULES.items() if "_moment_system" in text]


def test_one_rho_reader():
    # rho reaches the quadrature only through a ``rho_at`` callable: a second
    # reader path, a density-field type in quasiinterp, would fork it
    quasiinterp = MODULES["quasiinterp.py"]
    assert ".nearest(" not in quasiinterp
    for name in ("DensityField", "_LazyField"):
        assert name not in quasiinterp, name
    assert not [name for name, text in MODULES.items() if "class _LazyField" in text]

"""Byte oracles: SHA-256 digests of what ``sample`` and ``curve`` write on
fixed inputs. A change that moves an output byte fails here until its digest
is updated, in a diff that names the file.

``sample``'s picks depend on none of the machine state tried (OpenBLAS kernel
family and thread count, numpy's SIMD dispatch), so it runs in this process.
``curve``'s ``curves.csv``, ``bins.csv`` and ``kde.csv`` depend on all three,
so it runs in a subprocess that pins them: both bundled OpenBLAS copies on
their Nehalem kernels and one thread, and every numpy dispatch target off.
"""
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ggfps_lab import sampling
from ggfps_lab.cli import main
from ggfps_lab.krr import bundled_openblas

SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


def generate(tmp_path: Path, dim: int) -> Path:
    """A 400-point uniform Styblinski-Tang pool of width ``dim``."""
    cfg = write_json(tmp_path / f"gen{dim}.json", {
        "schema_version": 1,
        "surface": {"kind": "styblinski_tang", "dim": dim, "domain": [-4, 4]},
        "generator": {"kind": "uniform", "n": 400, "seed": 7},
    })
    out = tmp_path / f"gen{dim}"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "dataset.csv"


def outlier_pool(tmp_path: Path) -> Path:
    """The d = 8 pool plus one row 1,000 domain widths from it, which leaves
    the float32 screen too coarse to rule points out."""
    path = tmp_path / "outlier.csv"
    path.write_text(generate(tmp_path, 8).read_text() + "u00400,0,1," + ",".join(["8000"] * 8)
                    + "\n")
    return path


SAMPLERS = {
    "URS": {"method": "URS"},
    "FPS": {"method": "FPS"},
    "GGFPS-swept": {"method": "GGFPS", "beta": 1.0, "beta_mode": "swept"},
    "GGFPS-constant": {"method": "GGFPS", "beta": 1.0, "beta_mode": "constant"},
}

SELECTION_DIGESTS = {
    ("d2", "URS"):
        "f58c32bfc48ef963fd6732f1e9762a244262e4f54745e8ca8d4fbc8491e38bce",
    ("d2", "FPS"):
        "ab3e0ef43e11180dba46d40ee06488a9bd2291f91075939f496ec000d0435bca",
    ("d2", "GGFPS-swept"):
        "3e7b570b6499e31ec1667dffddf9b915365fcb2ddb4af9f21adac44f3ed86cd8",
    ("d2", "GGFPS-constant"):
        "cf758766933281e8066c589443d35f54ba66de38bf23b7e246c691658a0b8b8f",
    ("d8", "URS"):
        "f58c32bfc48ef963fd6732f1e9762a244262e4f54745e8ca8d4fbc8491e38bce",
    ("d8", "FPS"):
        "df3858da7d0bd2cad587601b5bf72b498e1a0d37999de30bdd12b1901cdde74c",
    ("d8", "GGFPS-swept"):
        "2c4c74a0eb756120f91ce1d1c7aa336c361ab5223faa757da03a3de397e85003",
    ("d8", "GGFPS-constant"):
        "8e7ebb03c32acd02a808e15d9966cbd5ad56b4b76c12179ba283fc36714e2c0f",
    ("d8-outlier", "URS"):
        "748c4180e70626c4d592da6bdaf6f369fb1e111ef4b5aed8f9e0a4cb17ef356d",
    ("d8-outlier", "FPS"):
        "a078d84942ef08572d15b51fab14149c894d8c9aa5efc0126fc04e8e6ddaa49a",
    ("d8-outlier", "GGFPS-swept"):
        "4738a49b13844b3f4b24bdc9555816216caa59cdddae8fbcd18719b3309fcd87",
    ("d8-outlier", "GGFPS-constant"):
        "589d80ada36442e905ed531ed6dae001a86bb0837029e850fce507d9d4115c0f",
}

POOLS = {"d2": lambda tmp_path: generate(tmp_path, 2),
         "d8": lambda tmp_path: generate(tmp_path, 8),
         "d8-outlier": outlier_pool}


@pytest.mark.parametrize("pool", POOLS)
def test_selection_json_bytes_are_pinned(tmp_path, monkeypatch, pool):
    """Each sampler's ``selection.json`` on each pool has its recorded
    digest. Only the outlier pool moves the selection kernel to its float64
    screen."""
    data = POOLS[pool](tmp_path)
    screens = []

    class RecordingScreen(sampling._Screen):
        def __init__(self, X, dtype=np.float32):
            super().__init__(X, dtype)
            screens.append(self.dtype.name)

    monkeypatch.setattr(sampling, "_Screen", RecordingScreen)
    digests = {}
    for name, sampler in SAMPLERS.items():
        cfg = write_json(tmp_path / f"{name}.json", {
            "schema_version": 1, "dataset": str(data),
            "sampler": {**sampler, "n": 60, "seed": 3},
        })
        out = tmp_path / f"{pool}-{name}"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        digests[pool, name] = hashlib.sha256((out / "selection.json").read_bytes()).hexdigest()
    assert digests == {key: digest for key, digest in SELECTION_DIGESTS.items()
                       if key[0] == pool}
    assert ("float64" in screens) == (pool == "d8-outlier")


# numpy and scipy versions the curve digests were recorded with
CURVE_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

# Run in the pinned subprocess: check the versions and that each pin took,
# then generate a pool and run ``curve`` on it, its 2 replicates on 2 workers.
# argv: the work directory and CURVE_VERSIONS as JSON.
CURVE_RUN = """
import ctypes, json, sys
from pathlib import Path
import numpy, scipy

versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
expected = json.loads(sys.argv[2])
assert versions == expected, f"digests recorded with {expected}, running {versions}"

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from ggfps_lab.cli import main
from ggfps_lab.krr import bundled_openblas
for package, suffix in (("numpy", "64_"), ("scipy", "")):
    lib = bundled_openblas(package)
    corename = getattr(lib, f"scipy_openblas_get_corename{suffix}")
    corename.restype = ctypes.c_char_p
    state = (corename(), getattr(lib, f"scipy_openblas_get_num_threads{suffix}")())
    assert state == (b"Nehalem", 1), f"{package}'s OpenBLAS runs (corename, threads) {state}"
enabled = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
assert not enabled, f"numpy dispatches {enabled}"

work = Path(sys.argv[1])
(work / "gen.json").write_text(json.dumps({
    "schema_version": 1,
    "surface": {"kind": "styblinski_tang", "dim": 2, "domain": [-4, 4]},
    "generator": {"kind": "uniform", "n": 400, "seed": 7},
}))
assert main(["generate", "--config", str(work / "gen.json"), "--out", str(work / "gen")]) == 0
(work / "curve.json").write_text(json.dumps({
    "schema_version": 1, "dataset": str(work / "gen" / "dataset.csv"),
    "plan": {"labeled_sizes": [200], "train_sizes": [20, 60], "bootstraps": 2,
             "sigma_grid": [0.5, 1.0, 2.0, 4.0], "lambda_grid": [1e-8, 1e-4],
             "beta_grid": [0.0, 0.5, 1.0, 2.0], "methods": ["URS", "FPS", "GGFPS"],
             "master_seed": 5},
}))
sys.exit(main(["curve", "--config", str(work / "curve.json"), "--out", str(work / "curve"),
               "--threads", "2"]))
"""

CURVE_DIGESTS = {
    "curves.csv": "c9790a16c563f86b958b5b3cbdfab53b283ddf28e13d8889d16adbaa45eedf6f",
    "bins.csv": "9d08281757b66c344afb9c2f8a8a572ce0c4d46377c29967a6a36d323f5466ed",
    "kde.csv": "25e0194fb0ef7023a8f06acd046797298dc16035249e1ffd1a01dffef67a2a2c",
    "heatmap.csv": "e555d1c074bf3305ba845ec82932cf45b823282e10ff932e74f61300b7e58f2e",
    "manifest.json": "dafce13cd453d50b78ddd01070458fc90d57a70410108771abc8c6ef76a2aaa5",
}


def pinned_env() -> dict:
    """This environment with OpenBLAS on its Nehalem kernels and one thread
    and every numpy dispatch target disabled."""
    from numpy._core._multiarray_umath import __cpu_dispatch__
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="1",
                NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def test_curve_bytes_are_pinned(tmp_path):
    """``curve``'s four CSVs, and its manifest without the wall clock and the
    Python version, have their recorded digests under the pinned state. The
    Python version is only recorded, and is checked against the subprocess's
    own; no output is computed from it."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE and numpy's dispatch targets pinned here are x86-64's")
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        if not hasattr(bundled_openblas(package), f"scipy_openblas_get_corename{suffix}"):
            pytest.skip(f"{package} bundles no OpenBLAS here, so its kernels cannot be pinned")
    run = subprocess.run([sys.executable, "-c", CURVE_RUN, str(tmp_path),
                          json.dumps(CURVE_VERSIONS)],
                         env=pinned_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = tmp_path / "curve"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.pop("wall_clock_seconds") > 0
    assert manifest["versions"].pop("python") == platform.python_version()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in CURVE_DIGESTS if name != "manifest.json"}
    digests["manifest.json"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    assert digests == CURVE_DIGESTS

"""Acceptance gate: one test (or test pair) per criterion, each at its stated
tolerance and runtime bound. The conftest terminal summary prints one
PASS/FAIL line per criterion number.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ggfps_lab.cli import main as cli_main
from ggfps_lab.dataset import LabeledSet, synth_boltzmann_set
from ggfps_lab.experiments import (
    ExperimentPlan,
    bin_errors_by_force_norm,
    kde_1d,
    learning_curve,
)
from ggfps_lab.krr import fit, gaussian_gram, predict
from ggfps_lab.sampling import SamplerConfig, beta_schedule, fps, ggfps, urs
from ggfps_lab.surfaces import AdversarialToy, StyblinskiTang, st_gradient, st_value, uniform_domain_sample
from oracles import (
    central_difference_gradient,
    greedy_fps_fast,
    greedy_ggfps_fast,
    random_rotation,
)

MIN_POINT = np.array([-2.903534, -2.903534])


def labeled_from(X, g):
    return LabeledSet(
        descriptors=X, labels=np.zeros(len(X)), gradient_norms=g,
    )


def random_instance(rng):
    n_total = int(rng.integers(2, 65))
    dim = int(rng.integers(1, 9))
    X = rng.normal(size=(n_total, dim))
    g = rng.uniform(0.1, 10.0, size=n_total)
    n_sel = int(rng.integers(2, n_total + 1)) if n_total > 2 else n_total
    return X, g, n_sel


def test_c01_sampler_oracle_equivalence():
    """FPS and GGFPS match from-scratch greedy oracles on 200 random instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10001)
    for _ in range(200):
        X, g, n_sel = random_instance(rng)
        init = int(rng.integers(len(X)))
        assert fps(X, n_sel, init=init) == greedy_fps_fast(X, n_sel, init)

        beta = float(rng.uniform(0.0, 2.0))
        mode = "swept" if rng.random() < 0.5 else "constant"
        config = SamplerConfig(
            method="GGFPS", n=n_sel, beta=beta, beta_mode=mode, init_mode="gradient_argmax"
        )
        got = ggfps(labeled_from(X, g), config)
        betas = beta_schedule(beta, n_sel, mode)
        expected = greedy_ggfps_fast(X, g, n_sel, int(np.argmax(g)), betas)
        assert got.indices == expected
    assert time.perf_counter() - t0 < 10.0


def test_c02_beta_zero_identity():
    """GGFPS with beta=0 reproduces FPS index-by-index on 50 instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10002)
    for _ in range(50):
        X, g, n_sel = random_instance(rng)
        init = int(rng.integers(len(X)))
        config = SamplerConfig(method="GGFPS", n=n_sel, beta=0.0, beta_mode="swept")
        got = ggfps(labeled_from(X, g), config, init=init)
        assert got.indices == fps(X, n_sel, init=init)
    assert time.perf_counter() - t0 < 5.0


def test_c03_scale_and_isometry_invariance():
    """Gradient scaling by c and rigid motions of X leave selections unchanged."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10003)
    for trial in range(50):
        X, g, n_sel = random_instance(rng)
        seed = 900 + trial
        config = SamplerConfig(method="GGFPS", n=n_sel, beta=1.2, seed=seed)
        base_fps = fps(X, n_sel, seed=seed)
        base_gg = ggfps(labeled_from(X, g), config).indices
        for c in (1e-3, 1.0, 1e3):
            assert ggfps(labeled_from(X, c * g), config).indices == base_gg
        rot = random_rotation(X.shape[1], rng)
        shift = rng.uniform(-5, 5, size=X.shape[1])
        moved = X @ rot.T + shift
        assert fps(moved, n_sel, seed=seed) == base_fps
        assert ggfps(labeled_from(moved, g), config).indices == base_gg
    assert time.perf_counter() - t0 < 10.0


def test_c04_st_anchor_value():
    """Value at the global minimum matches the definition, at 1e-4.

    The expected value is derived here from the definition, not from
    ``st_value``: Newton's method on the per-coordinate derivative
    (4 x^3 - 32 x + 5) / 2 gives the minimizer x* = -2.9035340277..., which
    ``MIN_POINT`` must equal to 6 decimals, and half of x^4 - 16 x^2 + 5 x
    there is -39.1661657 per coordinate, so the 2-D minimum is -78.3323314.
    The often quoted -78.33198 is twice a benchmark-table erratum
    (-39.16599 per dimension) and misses the true minimum by 3.5e-4.
    """
    x = -3.0
    for _ in range(20):
        x -= (2.0 * x**3 - 16.0 * x + 2.5) / (6.0 * x**2 - 16.0)
    per_coordinate = 0.5 * math.fsum((x**4, -16.0 * x**2, 5.0 * x))
    expected = 2 * per_coordinate
    assert np.all(np.abs(MIN_POINT - x) < 5e-7)
    assert expected == pytest.approx(-78.3323314, abs=1e-7)

    t0 = time.perf_counter()
    value = st_value(MIN_POINT)
    assert time.perf_counter() - t0 < 1.0
    assert value == pytest.approx(expected, abs=1e-4)


def test_c04_st_gradient_finite_differences():
    """Analytic gradient matches central differences at 1000 random points."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10004)
    pts = rng.uniform(-4, 4, size=(1000, 2))
    for x in pts:
        fd = central_difference_gradient(lambda p: st_value(p), x, h=1e-5)
        g = st_gradient(x)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)
    assert time.perf_counter() - t0 < 1.0


def test_c05_krr_correctness():
    """Dense-inverse oracle agreement and near-interpolation at tiny lambda."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10005)
    for _ in range(20):
        A = rng.normal(size=(8, 8))
        Q, _ = np.linalg.qr(A)
        K = Q @ np.diag(rng.uniform(1.0, 20.0, size=8)) @ Q.T
        y = rng.normal(size=8)
        lam = 1e-4
        alpha = fit(K, y, lam)
        oracle = np.linalg.inv(K + lam * np.eye(8)) @ y
        assert np.linalg.norm(alpha - oracle) <= 1e-10 * np.linalg.norm(oracle)

    train = uniform_domain_sample(StyblinskiTang(), 50, seed=10055)
    K = gaussian_gram(train.descriptors, train.descriptors, 1.5)
    alpha = fit(K, train.labels, lam=1e-12)
    pred = predict(K, alpha)
    assert np.linalg.norm(pred - train.labels) <= 1e-6 * np.linalg.norm(train.labels)
    assert time.perf_counter() - t0 < 5.0


ST_CURVE_PLAN = ExperimentPlan(
    labeled_sizes=(1000,),
    train_sizes=(50, 100, 250, 500),
    bootstraps=20,
    sigma_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
    lambda_grid=(1e-8, 1e-4),
    folds=5,
    cv_cost="RMSE",
    master_seed=20240001,
)


def test_c06_st_learning_curve_ordering():
    """GGFPS beats FPS and URS at N in {100, 250}; FPS beats URS at {250, 500}."""
    t0 = time.perf_counter()
    universe = uniform_domain_sample(StyblinskiTang(), 2000, seed=424242)
    points = learning_curve(universe, ST_CURVE_PLAN)
    mae = {(p.method, p.train_size): p.mae_mean for p in points}
    for n in (100, 250):
        assert mae[("GGFPS", n)] < mae[("FPS", n)]
        assert mae[("GGFPS", n)] < mae[("URS", n)]
    for n in (250, 500):
        assert mae[("FPS", n)] < mae[("URS", n)]
    assert time.perf_counter() - t0 < 600.0


def test_c07_fps_force_norm_bias():
    """FPS over-selects high-force-norm points on Boltzmann data (>= 18/20 seeds)."""
    t0 = time.perf_counter()
    wins = 0
    for seed in range(20):
        data = synth_boltzmann_set(
            StyblinskiTang(), temperature=3.0, n=2000, seed=7000 + seed, step=0.5
        )
        sel_fps = fps(data.descriptors, 100, seed=seed)
        sel_urs = urs(len(data), 100, seed=seed)
        if data.gradient_norms[sel_fps].mean() > data.gradient_norms[sel_urs].mean():
            wins += 1
    assert wins >= 18
    assert time.perf_counter() - t0 < 120.0


def test_c08_ggfps_variance_reduction():
    """GGFPS bootstrap MAE variance does not exceed URS variance at N=100."""
    t0 = time.perf_counter()
    data = synth_boltzmann_set(
        StyblinskiTang(), temperature=3.0, n=2000, seed=909, step=0.5
    )
    plan = ExperimentPlan(
        labeled_sizes=(500,), train_sizes=(100,), bootstraps=20,
        sigma_grid=(0.25, 0.5, 1.0, 2.0, 4.0), lambda_grid=(1e-8, 1e-4),
        folds=5, cv_cost="RMSE", methods=("URS", "GGFPS"), master_seed=20240002,
    )
    points = learning_curve(data, plan)
    var = {p.method: p.mae_var for p in points}
    assert var["GGFPS"] <= var["URS"]
    assert time.perf_counter() - t0 < 600.0


def test_c09_binning_and_kde_oracles():
    """Bin statistics match direct recomputation; KDE normalizes and peaks correctly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(10009)
    fn = rng.uniform(0, 80, size=1234)
    err = rng.uniform(0, 3, size=1234)
    bins = bin_errors_by_force_norm(np.stack([fn, err], axis=1))
    order = np.argsort(fn, kind="stable")
    for i, b in enumerate(bins):
        chunk = order[i * 30 : (i + 1) * 30]
        mean = math.fsum(err[chunk]) / len(chunk)
        var = math.fsum((err[j] - mean) ** 2 for j in chunk) / len(chunk)
        assert abs(b.abs_err_mean - mean) <= 1e-12
        assert abs(b.abs_err_var - var) <= 1e-12
        assert b.count == len(chunk)

    samples = rng.standard_normal(10000)
    grid = np.linspace(-6 * samples.std(), 6 * samples.std(), 4001)
    density = kde_1d(samples, grid)
    assert abs(np.trapezoid(density, grid) - 1.0) <= 1e-3
    peak = kde_1d(samples, np.array([0.0]))[0]
    analytic = 1.0 / math.sqrt(2 * math.pi)
    assert abs(peak - analytic) <= 0.1 * analytic
    assert time.perf_counter() - t0 < 5.0


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1))
    return path


def _run_pipeline(tmp_path: Path, tag: str) -> Path:
    root = tmp_path / tag
    root.mkdir()
    gen_cfg = _write_json(tmp_path / f"{tag}-gen.json", {
        "schema_version": 1,
        "surface": {"kind": "styblinski_tang", "dim": 2, "domain": [-4, 4]},
        "generator": {"kind": "uniform", "n": 300, "seed": 5},
    })
    assert cli_main(["generate", "--config", str(gen_cfg), "--out", str(root / "gen")]) == 0
    sample_cfg = _write_json(tmp_path / f"{tag}-sample.json", {
        "schema_version": 1,
        "dataset": str(root / "gen" / "dataset.csv"),
        "sampler": {"method": "GGFPS", "n": 50, "beta": 0.5, "seed": 2},
    })
    assert cli_main(["sample", "--config", str(sample_cfg), "--out", str(root / "sel")]) == 0
    curve_cfg = _write_json(tmp_path / f"{tag}-curve.json", {
        "schema_version": 1,
        "dataset": str(root / "gen" / "dataset.csv"),
        "plan": {
            "labeled_sizes": [150], "train_sizes": [30], "bootstraps": 2,
            "sigma_grid": [0.5, 1.5], "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0],
            "folds": 5, "master_seed": 77,
        },
    })
    assert cli_main(["curve", "--config", str(curve_cfg), "--out", str(root / "curve"),
                     "--threads", "2"]) == 0
    return root


def test_c10_end_to_end_determinism(tmp_path):
    """generate -> sample -> curve twice yields identical result files.

    The curve manifest is compared with its wall_clock_seconds field removed:
    the manifest must record the wall clock, which varies by definition.
    """
    t0 = time.perf_counter()
    run_a = _run_pipeline(tmp_path, "a")
    run_b = _run_pipeline(tmp_path, "b")
    data_files = [
        "gen/dataset.csv", "gen/manifest.json",
        "sel/selection.json",
        "curve/curves.csv", "curve/bins.csv", "curve/kde.csv", "curve/heatmap.csv",
    ]
    for rel in data_files:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
    manifests = []
    for run in (run_a, run_b):
        doc = json.loads((run / "curve" / "manifest.json").read_text())
        assert doc.pop("wall_clock_seconds") > 0
        manifests.append(doc)
    assert manifests[0] == manifests[1]
    assert time.perf_counter() - t0 < 60.0


def test_c11_adversarial_surface_ordering():
    """GGFPS beats FPS at N=100 when label variance is confined to the bump."""
    t0 = time.perf_counter()
    universe = uniform_domain_sample(AdversarialToy(), 2000, seed=31415)
    plan = ExperimentPlan(
        labeled_sizes=(1000,), train_sizes=(100,), bootstraps=20,
        sigma_grid=(0.125, 0.25, 0.5, 1.0, 2.0), lambda_grid=(1e-8, 1e-4),
        folds=5, cv_cost="RMSE", methods=("FPS", "GGFPS"), master_seed=20240003,
    )
    points = learning_curve(universe, plan)
    mae = {p.method: p.mae_mean for p in points}
    assert mae["GGFPS"] < mae["FPS"]
    assert time.perf_counter() - t0 < 300.0

"""The traced benchmark run wraps layer boundaries of the package by name
(``bench/worker.py`` ``Tracer.install``); a rename that drops one of them
aborts every traced run, so the names it needs are pinned here."""
import importlib.util
import json
from pathlib import Path

from ggfps_lab import cli
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_both_cross_validation_paths():
    tracer = load_bench("worker").Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert "_PlainCv.evaluate" not in tracer.missing
    assert "_GgfpsCv.evaluate" not in tracer.missing
    # every other name resolves; _GgfpsCv._fold_data, experiments.ggfps and
    # experiments.fit are gone from the package and are still named by the
    # benchmark (the krr layer is still observed through predict and gaussian_gram)
    assert set(tracer.missing) <= {"_GgfpsCv._fold_data", "ggfps_lab.experiments.ggfps",
                                   "ggfps_lab.experiments.fit"}


def test_traced_curve_records_every_layer_the_benchmark_requires(tmp_path):
    """A tiny three-method ``curve`` run under the benchmark's tracer records
    a span in each layer that ``bench/run.py`` requires of ``st-curve`` and
    in both cross-validation paths; a layer without one makes the traced
    benchmark run report it as unobserved."""
    data = tmp_path / "dataset.csv"
    data.write_text(uniform_domain_sample(StyblinskiTang(), 60, seed=21).to_csv())
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"schema_version": 1, "dataset": str(data), "plan": {
        "labeled_sizes": [40], "train_sizes": [10], "bootstraps": 1, "sigma_grid": [0.5, 1.5],
        "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0], "master_seed": 3}}))
    tracer = load_bench("worker").Tracer()
    argv = ["curve", "--config", str(config), "--out", str(tmp_path / "o")]
    try:
        tracer.install()
        assert tracer.call("cli.main", cli.main, (argv,)) == 0
    finally:
        tracer.restore()
    names = [span[1] for span in tracer.spans if span[6]]
    layers = {name.split(".")[0] for name in names}
    assert set(load_bench("run").REQUIRED_LAYERS["st-curve"]) <= layers
    # one span per URS / FPS size and one for the GGFPS sizes
    assert names.count("experiments.cv_evaluate") == 3

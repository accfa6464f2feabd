"""The traced benchmark run wraps layer boundaries of the package by name
(``bench/worker.py`` ``Tracer.install``); a rename that drops one of them
aborts every traced run, so the names it needs are pinned here."""
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_both_cross_validation_paths():
    tracer = load_worker().Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert "_PlainCv.evaluate" not in tracer.missing
    assert "_GgfpsCv.evaluate" not in tracer.missing
    # every other name resolves; _GgfpsCv._fold_data is gone from the package
    # and is still named by the benchmark
    assert set(tracer.missing) <= {"_GgfpsCv._fold_data"}

"""Benchmark of ggfps-lab's ``curve`` and ``sample`` paths.

    python3 bench/run.py --workload st-curve --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                 # every workload, untraced and traced

Workloads (closed loop, one client: each command starts after the previous
one has finished):

  st-curve      the paper's main protocol (URS + FPS + GGFPS learning curves
                on Styblinski-Tang, d=2); GGFPS cross-validation dominates
  plain-cv      URS + FPS only, on a Boltzmann Styblinski-Tang set with the
                default 13 sigma x 4 lambda grid: fewer, larger Cholesky
                factorizations and no GGFPS
  sample-large  FPS and three GGFPS ``sample`` commands over a 20,000-point
                d=8 pool: the selection kernel without KRR or replicates

The benchmark writes its own inputs (it does not call ggfps_lab to make
them), runs each workload in a fresh interpreter (``bench/worker.py``) that
calls ``ggfps_lab.cli.main``, and checks every output. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload once with
``--threads`` = usable cores, once serially and once serially with spans
recorded around every layer boundary, and reports the per-layer metrics.
The last line of standard output is one JSON object; a full record of the
run (inputs, environment, samples, problems) goes to ``.bench_out/``.

Seeds: ``--seed`` selects one of REFERENCE_VARIANTS input variants
(``seed % REFERENCE_VARIANTS``); each variant's data and master seeds are
derived from it by hashing. ``bench/reference.json`` holds the outputs of
every variant, recorded with ``--record-reference``, so any seed's run is
checked against them.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
REFERENCE_VARIANTS = 16
# Relative tolerance on the per-(method, train size) mean MAE against the
# reference: loose enough for reordered floating-point sums, tight enough to
# catch any changed hyperparameter choice.
MAE_REL_TOL = 1e-6
BOOTSTRAPS = 2
MIN_REPS = 2
SETUP_PROBES = 7
RSS_SAMPLE_S = 0.02
TREE_RESCAN_S = 0.25
RUN_LIMIT_S = 170.0
PAGE = os.sysconf("SC_PAGE_SIZE")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GGFPS_LAB_THREADS")

CURVE_FILES = ("curves.csv", "bins.csv", "kde.csv", "heatmap.csv", "manifest.json")
# Plan defaults the curve workloads leave in place.
HEATMAP_GRID = 25
KDE_POINTS = 101
DEFAULT_SIGMA = [float(s) for s in np.logspace(-1, 5, 13)]
DEFAULT_LAMBDA = [1e-10, 1e-8, 1e-6, 1e-4]
DEFAULT_BETA = [float(b) for b in np.linspace(0.0, 2.0, 20)]

WORKLOADS = ("st-curve", "plain-cv", "sample-large")
# Layers each workload must call; a required layer with no recorded call is
# reported as unobserved, never as zero.
REQUIRED_LAYERS = {
    "st-curve": ("dataset", "sampling", "krr", "experiments"),
    "plain-cv": ("dataset", "sampling", "krr", "experiments"),
    "sample-large": ("dataset", "sampling"),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "sampling.ggfps_calls": "count", "sampling.ggfps_s": "s", "sampling.fps_calls": "count",
    "sampling.fps_s": "s", "sampling.urs_s": "s", "sampling.picks": "count",
    "sampling.us_per_pick": "us",
    "krr.fit_calls": "count", "krr.fit_s": "s", "krr.fit_failed": "count",
    "krr.fit_gflop": "GFLOP", "krr.fit_gflops": "GFLOP/s", "krr.predict_calls": "count",
    "krr.predict_s": "s", "krr.gram_s": "s",
    "experiments.replicates": "count", "experiments.replicate_s_p50": "s",
    "experiments.replicate_s_max": "s", "experiments.cv_s": "s",
    "experiments.cv_self_s": "s", "experiments.cv_cache_mb": "MiB",
    "experiments.score_s": "s", "experiments.export_s": "s",
    "experiments.export_bytes": "bytes", "experiments.self_s": "s",
    "experiments.parallel_speedup": "ratio",
    "dataset.load_calls": "count", "dataset.load_s": "s", "dataset.subset_calls": "count",
    "dataset.subset_s": "s",
    "cli.cpu_s": "s", "cli.cpu_per_wall": "ratio", "cli.self_s": "s",
    "trace_overhead_frac": "ratio", "fail_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def derive_seed(*parts) -> int:
    return int.from_bytes(hashlib.sha256(repr(parts).encode()).digest()[:4], "little")


# ----------------------------------------------------------------- inputs --

def st_labels(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Styblinski-Tang value 0.5 * sum(x^4 - 16 x^2 + 5 x) and the norm of its
    gradient 0.5 * (4 x^3 - 32 x + 5)."""
    value = 0.5 * np.sum(X**4 - 16.0 * X**2 + 5.0 * X, axis=1)
    grad = 0.5 * (4.0 * X**3 - 32.0 * X + 5.0)
    return value, np.linalg.norm(grad, axis=1)


def metropolis_points(rng: np.random.Generator, n: int, dim: int, temperature: float,
                      step: float, burn_in: int, thinning: int,
                      lo: float = -4.0, hi: float = 4.0) -> np.ndarray:
    """Metropolis walk targeting exp(-f/T) on Styblinski-Tang inside [lo, hi]^dim,
    starting at the box centre; out-of-box proposals are rejected; after the
    burn-in every ``thinning``-th position is recorded."""
    total = burn_in + n * thinning
    moves = (step * rng.standard_normal((total, dim))).tolist()
    log_u = np.log(rng.random(total)).tolist()

    def f(x):
        return 0.5 * sum(v**4 - 16.0 * v * v + 5.0 * v for v in x)

    x = [0.5 * (lo + hi)] * dim
    fx = f(x)
    out = []
    for it in range(total):
        prop = [a + b for a, b in zip(x, moves[it])]
        if all(lo <= v <= hi for v in prop):
            fp = f(prop)
            if log_u[it] < -(fp - fx) / temperature:
                x, fx = prop, fp
        if it >= burn_in and (it - burn_in + 1) % thinning == 0:
            out.append(x)
    return np.asarray(out)


def write_dataset(path: Path, X: np.ndarray, prefix: str) -> None:
    """The CSV layout ``ggfps-lab`` reads: id,label,grad_norm,x0..x{d-1}."""
    value, gnorm = st_labels(X)
    lines = ["id,label,grad_norm," + ",".join(f"x{j}" for j in range(X.shape[1]))]
    for i, row in enumerate(X.tolist()):
        fields = [f"{prefix}{i:05d}", f"{value[i]:.17g}", f"{gnorm[i]:.17g}"]
        fields.extend(f"{v:.17g}" for v in row)
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


def make_inputs(workload: str, variant: int, work: Path) -> tuple[list[dict], dict, dict]:
    """Write the workload's dataset and configs; return its commands, the
    expectations the output checks use, and input metadata."""
    work.mkdir(parents=True, exist_ok=True)
    data_seed = derive_seed(workload, "data", variant)
    master_seed = derive_seed(workload, "plan", variant)
    rng = np.random.default_rng(data_seed)
    t0 = time.perf_counter()
    if workload == "st-curve":
        X = rng.uniform(-4.0, 4.0, size=(2000, 2))
    elif workload == "plain-cv":
        X = metropolis_points(rng, 4000, 2, temperature=3.0, step=0.5, burn_in=1000, thinning=10)
    else:
        X = rng.uniform(-4.0, 4.0, size=(20000, 8))
    data = work / "dataset.csv"
    write_dataset(data, X, "u" if workload != "plain-cv" else "b")
    gen_s = time.perf_counter() - t0

    commands: list[dict] = []
    if workload == "sample-large":
        samplers = [("fps", {"method": "FPS", "n": 1000})]
        samplers += [(f"ggfps-b{b:g}", {"method": "GGFPS", "n": 1000, "beta": b,
                                        "beta_mode": "swept"}) for b in (0.5, 1.0, 2.0)]
        expect = {"pool": len(X)}
        for cid, sampler in samplers:
            sampler["seed"] = derive_seed(workload, cid, variant)
            expect[cid] = sampler
            commands.append({"id": cid, "kind": "sample", "files": ["selection.json"],
                             "cfg": {"schema_version": 1, "dataset": data.name,
                                     "sampler": sampler}})
    else:
        if workload == "st-curve":
            plan = {"labeled_sizes": [1000], "train_sizes": [50, 100, 250, 500],
                    "sigma_grid": [0.25, 0.5, 1.0, 2.0, 4.0], "lambda_grid": [1e-8, 1e-4],
                    "methods": ["URS", "FPS", "GGFPS"]}
        else:
            plan = {"labeled_sizes": [2000], "train_sizes": [200, 400, 800],
                    "methods": ["URS", "FPS"]}
        plan.update(bootstraps=BOOTSTRAPS, folds=5, cv_cost="RMSE", master_seed=master_seed)
        expect = {"sigma_grid": DEFAULT_SIGMA, "lambda_grid": DEFAULT_LAMBDA,
                  "beta_grid": DEFAULT_BETA, **plan}
        commands.append({"id": "curve", "kind": "curve", "files": list(CURVE_FILES),
                         "cfg": {"schema_version": 1, "dataset": data.name, "plan": plan}})
    for cmd in commands:
        path = work / f"{cmd['id']}.json"
        path.write_text(json.dumps(cmd.pop("cfg"), indent=1))
        cmd["config"] = str(path)
    meta = {"variant": variant, "data_seed": data_seed, "master_seed": master_seed,
            "rows": len(X), "dim": int(X.shape[1]), "gen_s": gen_s,
            "sha256": hashlib.sha256(data.read_bytes()).hexdigest()}
    return commands, expect, meta


# ----------------------------------------------------------- output checks --

def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def indices_digest(indices) -> str:
    return hashlib.sha256(",".join(str(int(i)) for i in indices).encode()).hexdigest()


def curve_summary(out: Path) -> dict:
    """Per-(method, train size) mean MAE, the values the reference pins."""
    return {f"{r['method']}/{r['train_size']}": float(r["mae_mean"])
            for r in read_csv(out / "curves.csv")}


def check_curve(out: Path, exp: dict, ref: dict | None) -> list[str]:
    problems = []
    B = exp["bootstraps"]
    ls = exp["labeled_sizes"][0]
    keys = [(m, ts) for m in exp["methods"] for ts in exp["train_sizes"]]
    plan = json.loads((out / "manifest.json").read_text())["plan"]
    for grid in ("sigma_grid", "lambda_grid", "beta_grid"):
        if len(plan[grid]) != len(exp[grid]) or not np.allclose(plan[grid], exp[grid],
                                                               rtol=1e-12, atol=0.0):
            problems.append(f"manifest {grid} differs from the configured grid")
    rows = read_csv(out / "curves.csv")
    if sorted((r["method"], int(r["train_size"])) for r in rows) != sorted(keys):
        problems.append("curves.csv does not hold one row per (method, train size)")
    for r in rows:
        cell = f"{r['method']}/{r['train_size']}"
        for col, grid in (("chosen_sigma", "sigma_grid"), ("chosen_lambda", "lambda_grid")):
            vals = json.loads(r[col])
            if len(vals) != B or any(v not in plan[grid] for v in vals):
                problems.append(f"{cell}: {col} {vals} not {B} values of the grid")
        betas = json.loads(r["chosen_beta"])
        ok = (all(b in plan["beta_grid"] for b in betas) if r["method"] == "GGFPS"
              else all(b is None for b in betas))
        if len(betas) != B or not ok:
            problems.append(f"{cell}: chosen_beta {betas} is not valid")
        if ref is not None:
            want, got = ref.get(cell), float(r["mae_mean"])
            if want is None or abs(got - want) > MAE_REL_TOL * abs(want):
                problems.append(f"{cell}: mae_mean {got!r} differs from reference {want!r}")
    heat: dict = {}
    cells: dict = {}
    for r in read_csv(out / "heatmap.csv"):
        key = (r["method"], int(r["train_size"]))
        heat[key] = heat.get(key, 0) + int(r["count"])
        cells[key] = cells.get(key, 0) + 1
    if heat != {k: k[1] * B for k in keys} or set(cells.values()) != {HEATMAP_GRID**2}:
        problems.append("heatmap.csv counts do not sum to train size x bootstraps")
    tested: dict = {}
    for r in read_csv(out / "bins.csv"):
        key = (r["method"], int(r["train_size"]))
        tested[key] = tested.get(key, 0) + int(r["count"])
    if tested != {k: (ls - k[1]) * B for k in keys}:
        problems.append("bins.csv counts do not sum to test points x bootstraps")
    if len(read_csv(out / "kde.csv")) != 2 * (1 + len(keys)) * KDE_POINTS:
        problems.append("kde.csv does not hold one series per quantity, method and size")
    return problems


def check_sample(out: Path, sampler: dict, pool: int, ref: str | None) -> list[str]:
    problems = []
    doc = json.loads((out / "selection.json").read_text())
    idx = doc["indices"]
    n = sampler["n"]
    if len(idx) != n or len(set(idx)) != n or not all(0 <= i < pool for i in idx):
        problems.append(f"indices are not {n} distinct values in [0, {pool})")
    if doc["method"] != sampler["method"] or doc["seed"] != sampler["seed"]:
        problems.append("selection.json names another method or seed")
    if sampler["method"] == "GGFPS" and doc["beta"] != sampler["beta"]:
        problems.append("selection.json names another beta")
    if ref is not None and indices_digest(idx) != ref:
        problems.append("indices differ from the reference")
    return problems


def check_output(cmd: dict, out: Path, expect: dict, ref) -> list[str]:
    """Structural and reference checks of one command's output directory."""
    try:
        if cmd["kind"] == "curve":
            return check_curve(out, expect, ref)
        return check_sample(out, expect[cmd["id"]], expect["pool"],
                            None if ref is None else ref.get(cmd["id"]))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def op_problems(op: dict, cmd: dict, base: dict) -> list[str]:
    """Problems of one executed command against the first execution's digests."""
    problems = []
    if op["error"] is not None:
        problems.append(op["error"])
    elif op["exit"] != 0:
        problems.append(f"exit code {op['exit']}")
    missing = [f for f in cmd["files"] if f not in op["digests"]]
    if missing:
        problems.append(f"missing {missing}")
    changed = [f for f in cmd["files"] if f in op["digests"]
               and op["digests"][f] != base["digests"].get(f)]
    if changed:
        problems.append(f"not byte-identical to the first run: {changed}")
    return problems


# ---------------------------------------------------------------- processes --

def descendants(root: int) -> set[int]:
    """root and every process below it, from the parent ids in /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = {root}, [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            if child not in tree:
                tree.add(child)
                todo.append(child)
    return tree


def tree_rss_bytes(pids: set[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * PAGE
        except (OSError, IndexError, ValueError):
            continue
    return total


def run_worker(spec: dict, work: Path, tag: str, limit_s: float,
               sample_rss: bool = False) -> tuple[dict, float, float]:
    """Start bench/worker.py on ``spec``; return its result, its start-up time
    and the peak summed RSS (MiB) of its process tree, if sampled."""
    spec_path = work / f"{tag}-spec.json"
    spec["result"] = str(work / f"{tag}-result.json")
    spec_path.write_text(json.dumps(spec))
    log = work / f"{tag}.log"
    peak = 0
    with log.open("wb") as fh:
        t_launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(WORKER), str(spec_path)],
                                stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            pids, rescan = {proc.pid}, 0.0
            while proc.poll() is None:
                now = time.monotonic()
                if now - t_launch > limit_s:
                    raise BenchError(f"{tag}: worker exceeded {limit_s:.0f} s")
                if sample_rss:
                    if now >= rescan:
                        pids, rescan = descendants(proc.pid), now + TREE_RESCAN_S
                    peak = max(peak, tree_rss_bytes(pids))
                time.sleep(RSS_SAMPLE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise BenchError(f"{tag}: worker exited with {proc.returncode}:\n{tail}")
    result = json.loads(Path(spec["result"]).read_text())
    if not Path(result["package"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"ggfps_lab was imported from {result['package']}, not from src/")
    return result, result["t_ready"] - t_launch, peak / 2**20


# ----------------------------------------------------------------- metrics --

def span_metrics(spans: list) -> tuple[dict, dict]:
    """Per-layer sums from the traced pass; self time is a span's duration
    minus the durations of its direct children."""
    child_s: dict[int, float] = {}
    for sid, name, start, end, parent, *_ in spans:
        child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    by: dict[str, list] = {}
    calls: dict[str, int] = {}
    for s in spans:
        by.setdefault(s[1], []).append(s)
        layer = s[1].split(".")[0]
        calls[layer] = calls.get(layer, 0) + 1

    def n(name):
        return len(by.get(name, ()))

    def dur(name):
        return sum(e - b for _, _, b, e, *_ in by.get(name, ()))

    def self_s(names):
        return sum((s[3] - s[2]) - child_s.get(s[0], 0.0) for nm in names for s in by.get(nm, ()))

    picks = sum(s[7] or 0 for nm in ("sampling.fps", "sampling.ggfps") for s in by.get(nm, ()))
    fit_n = [s[7] for s in by.get("krr.fit", ()) if s[7] is not None]
    gflop = sum(k**3 / 3.0 for k in fit_n) / 1e9
    reps = sorted(e - b for _, _, b, e, *_ in by.get("experiments.replicate", ()))
    export_bytes = sum(s[7] or 0 for s in by.get("experiments.export", ()))
    experiments_names = [nm for nm in by if nm.startswith("experiments.")]
    m = {
        "sampling.ggfps_calls": n("sampling.ggfps"),
        "sampling.ggfps_s": dur("sampling.ggfps"),
        "sampling.fps_calls": n("sampling.fps"),
        "sampling.fps_s": dur("sampling.fps"),
        "sampling.urs_s": dur("sampling.urs"),
        "sampling.picks": picks,
        "sampling.us_per_pick": ((dur("sampling.fps") + dur("sampling.ggfps")) / picks * 1e6
                                 if picks else 0.0),
        "krr.fit_calls": n("krr.fit"),
        "krr.fit_s": dur("krr.fit"),
        "krr.fit_failed": sum(1 for s in by.get("krr.fit", ()) if not s[6]),
        "krr.fit_gflop": gflop,
        "krr.fit_gflops": gflop / dur("krr.fit") if n("krr.fit") else 0.0,
        "krr.predict_calls": n("krr.predict"),
        "krr.predict_s": dur("krr.predict"),
        "krr.gram_s": dur("krr.gaussian_gram"),
        "experiments.replicates": len(reps),
        "experiments.replicate_s_p50": statistics.median(reps) if reps else 0.0,
        "experiments.replicate_s_max": reps[-1] if reps else 0.0,
        "experiments.cv_s": dur("experiments.cv_evaluate"),
        "experiments.cv_self_s": self_s(("experiments.cv_evaluate", "experiments.cv_fold_data",
                                         "experiments.cdist")),
        "experiments.score_s": dur("experiments.fit_and_score"),
        "experiments.export_s": dur("experiments.export"),
        "experiments.export_bytes": export_bytes,
        "experiments.self_s": self_s(experiments_names),
        "dataset.load_calls": n("dataset.from_csv"),
        "dataset.load_s": dur("dataset.from_csv"),
        "dataset.subset_calls": n("dataset.subset"),
        "dataset.subset_s": dur("dataset.subset"),
        "cli.self_s": self_s(("cli.main",)),
    }
    return m, calls


# -------------------------------------------------------------------- runs --

def environment(threads: int) -> dict:
    blas = {}
    for lib in (np, scipy):
        try:
            dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, AttributeError):
            blas[lib.__name__] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "machine": platform.machine(),
    }


def load_reference(workload: str, variant: int):
    doc = json.loads(REFERENCE.read_text())
    if doc.get("variants") != REFERENCE_VARIANTS:
        raise BenchError(f"{REFERENCE.name} was recorded for another variant count")
    return doc["workloads"][workload][variant]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the record whose ``result`` is printed."""
    t_start = time.monotonic()
    if not (ROOT / "src" / "ggfps_lab" / "__init__.py").is_file():
        raise BenchError("src/ggfps_lab is missing: nothing to benchmark")
    variant = seed % REFERENCE_VARIANTS
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    threads = len(os.sched_getaffinity(0))
    try:
        commands, expect, inputs = make_inputs(workload, variant, work / "inputs")
        reference = load_reference(workload, variant)

        def remaining():
            return RUN_LIMIT_S - (time.monotonic() - t_start)

        setups = []
        for i in range(0 if trace else 1 + SETUP_PROBES):
            _, setup, _ = run_worker({"mode": "probe"}, work, f"probe{i}", remaining())
            if i:  # the first start compiles bytecode: not timed
                setups.append(setup)
        spec = {"commands": commands, "threads": threads, "work": str(work / "out")}
        if trace:
            spec.update(mode="trace", spans=str(OUT / f"spans-{workload}-seed{seed}.json"))
        else:
            spec.update(mode="e2e", seconds=seconds, min_reps=MIN_REPS)
        res, setup, peak_mb = run_worker(spec, work, "run", remaining(), sample_rss=not trace)
        setups.append(setup)

        runs = res["passes"] if trace else res["reps"]
        base = runs[0]["ops"]
        content = {cmd["id"]: check_output(cmd, Path(runs[-1]["out"]) / cmd["id"], expect,
                                           reference) for cmd in commands}
        problems = []
        for i, run in enumerate(runs):
            for cmd, op, first in zip(commands, run["ops"], base):
                found = op_problems(op, cmd, first) + content[cmd["id"]]
                if found:
                    problems.append({"run": run.get("name", i), "command": cmd["id"],
                                     "problems": found})
        attempted = len(runs) * len(commands)
        failed = len(problems)
        errors = []
        walls = [r["wall_s"] for r in runs]
        if trace:
            passes = {p["name"]: p for p in runs}
            spans = json.loads(Path(res["spans"]).read_text())
            metrics, calls = span_metrics(spans)
            metrics["experiments.cv_cache_mb"] = res["cv_cache_peak_bytes"] / 2**20
            metrics["experiments.parallel_speedup"] = (passes["serial"]["wall_s"]
                                                       / passes["multi"]["wall_s"])
            metrics["cli.cpu_s"] = passes["multi"]["cpu_s"]
            metrics["cli.cpu_per_wall"] = passes["multi"]["cpu_s"] / passes["multi"]["wall_s"]
            metrics["trace_overhead_frac"] = (passes["traced"]["wall_s"]
                                              / passes["serial"]["wall_s"] - 1.0)
            metrics["fail_frac"] = failed / attempted
            for layer in REQUIRED_LAYERS[workload]:
                if not calls.get(layer):
                    errors.append(f"layer {layer} unobserved: no call recorded")
                    for name in metrics:
                        if name.startswith(layer + "."):
                            metrics[name] = None
            units = PER_LAYER
            extra = {"pass_walls_s": {p["name"]: p["wall_s"] for p in runs},
                     "pass_cpu_s": {p["name"]: p["cpu_s"] for p in runs},
                     "missing_trace_targets": res["missing_targets"], "spans": len(spans)}
        else:
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(walls),
                       "peak_rss_mb": max(peak_mb, res["maxrss_mb"])}
            units = END_TO_END
            extra = {"rep_walls_s": walls, "fail_frac": failed / attempted,
                     "sampled_peak_rss_mb": peak_mb, "worker_maxrss_mb": res["maxrss_mb"]}
        result = {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
                  "default_seed": DEFAULT_SEED, "inputs": inputs, "setup_samples_s": setups,
                  "environment": environment(threads), "problems": problems,
                  "errors": errors, **extra, "result": result}
        (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_record(record: dict) -> None:
    for name, m in record["result"]["metrics"].items():
        value = "unobserved" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{record['workload']:>13} {name:30} {value:>12} {m['unit']}")
    for item in record["problems"] + record["errors"]:
        print(f"{record['workload']:>13} FAILED {item}")


def record_reference() -> None:
    """Run every variant of every workload once, serially, and store the
    outputs the checks compare against."""
    doc = {"variants": REFERENCE_VARIANTS, "workloads": {}}
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        rows = []
        for variant in range(REFERENCE_VARIANTS):
            work = OUT / f"reference-{workload}-{variant}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                commands, expect, _ = make_inputs(workload, variant, work / "inputs")
                spec = {"mode": "e2e", "commands": commands, "threads": 1,
                        "work": str(work / "out"), "seconds": 0, "min_reps": 1}
                res, _, _ = run_worker(spec, work, "run", RUN_LIMIT_S)
                rep = res["reps"][0]
                out = Path(rep["out"])
                for cmd, op in zip(commands, rep["ops"]):
                    found = (op_problems(op, cmd, op)
                             + check_output(cmd, out / cmd["id"], expect, None))
                    if found:
                        raise BenchError(f"{workload} variant {variant}: {found}")
                if workload == "sample-large":
                    rows.append({cmd["id"]: indices_digest(json.loads(
                        (out / cmd["id"] / "selection.json").read_text())["indices"])
                        for cmd in commands})
                else:
                    rows.append(curve_summary(out / "curve"))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {workload} variant {variant}", flush=True)
        doc["workloads"][workload] = rows
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time of an untraced run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from the current program")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if args.workload:
            record = run_once(args.workload, args.seed, seconds, bool(args.trace))
            print_record(record)
            print(json.dumps(record["result"]))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                record = run_once(workload, args.seed, seconds, trace)
                print_record(record)
                if not trace:
                    print(f"{workload:>13} {'fail_frac':30} "
                          f"{record['fail_frac']:>12.6g} ratio")
                res = record["result"]
                total["correct"] &= res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
                for name, m in res["metrics"].items():
                    total["metrics"][f"{workload}/{name}"] = m
        print(json.dumps(total))
        return 0
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

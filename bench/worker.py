"""Workload process of the benchmark.

``bench/run.py`` starts this script as a fresh interpreter for every workload
run: ``python3 bench/worker.py SPEC.json``. It imports ``ggfps_lab`` from the
checkout's ``src/``, runs the spec's commands through ``ggfps_lab.cli.main``
and writes timings, exit codes and output digests to the spec's result file.
The parent generates the inputs, checks the outputs and computes the metrics.

Spec modes:

  probe  import the package, report the start-up time, exit
  e2e    repeat all commands until ``seconds`` have passed (at least
         ``min_reps`` times) with ``threads`` workers
  trace  run all commands three times: with ``threads`` workers, serially,
         and serially with every layer boundary wrapped by a span recorder
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import resource
import shutil
import sys
import threading
import time
import weakref
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ggfps_lab  # noqa: E402
from ggfps_lab import cli, dataset, experiments, sampling  # noqa: E402

T_READY = time.monotonic()


def file_digest(path: Path) -> str:
    """sha256 of a file; manifest.json is hashed without its wall-clock field,
    which is the one part of the outputs allowed to differ between runs."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("wall_clock_seconds", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tracer:
    """In-memory span recorder.

    A span is (id, name, start, end, parent id, thread id, ok, extra); the
    parent is the innermost open span of the same thread (-1 at the root).
    ``extra`` holds a per-call count taken from the arguments or the result.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        self.cache_bytes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.cache_peak_bytes = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, extra=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        ok = False
        info = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            if ok and extra is not None:
                info = extra(args, result)
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), ok, info))
        return result

    def wrap(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)
        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute, where
        the caller looks it up) with a traced version, until ``restore``."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__, extra))
        else:
            patched = self.wrap(name, raw, extra)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def note_fold_cache(self, args, result):
        """Bytes held by one cross-validation context's fold cache.

        ``_GgfpsCv._fold_data(fi, bi)`` caches its arrays per context, so the
        distinct (fi, bi) results of one context are what it keeps alive."""
        ctx, key = args[0], tuple(args[1:3])
        held = self.cache_bytes.setdefault(ctx, {})
        held[key] = sum(getattr(a, "nbytes", 0) for a in result)
        self.cache_peak_bytes = max(self.cache_peak_bytes, sum(held.values()))
        return None

    def install(self) -> None:
        krr_targets = (("fit", "krr.fit", lambda a, r: int(a[0].shape[0])),
                       ("predict", "krr.predict", None),
                       ("gaussian_gram", "krr.gaussian_gram", None))
        picks_fps = lambda a, r: len(r)  # noqa: E731
        picks_ggfps = lambda a, r: len(r.indices)  # noqa: E731
        sampler_targets = (("urs", "sampling.urs", None),
                           ("fps", "sampling.fps", picks_fps),
                           ("ggfps", "sampling.ggfps", picks_ggfps))
        # experiments and sampling.select each look the samplers up in their
        # own module, so both bindings are wrapped.
        for attr, name, extra in krr_targets + sampler_targets:
            self.patch(experiments, attr, name, extra)
        for attr, name, extra in sampler_targets:
            self.patch(sampling, attr, name, extra)
        self.patch(experiments, "cdist", "experiments.cdist")
        self.patch(cli, "run_experiment", "experiments.run_experiment")
        self.patch(dataset.LabeledSet, "from_csv", "dataset.from_csv")
        self.patch(dataset.LabeledSet, "subset", "dataset.subset")
        self.patch(experiments._PlainCv, "evaluate", "experiments.cv_evaluate")
        self.patch(experiments._GgfpsCv, "evaluate", "experiments.cv_evaluate")
        self.patch(experiments._GgfpsCv, "_fold_data", "experiments.cv_fold_data",
                   self.note_fold_cache)
        self.patch(experiments, "_fit_and_score", "experiments.fit_and_score")
        self.patch(experiments, "_run_replicate", "experiments.replicate")
        for writer in ("_curves_csv", "_bins_csv", "_kde_csv", "_heatmap_csv"):
            self.patch(experiments, writer, "experiments.export", lambda a, r: len(r))


def run_commands(commands: list[dict], out_root: Path, threads: int,
                 tracer: Tracer | None = None) -> tuple[float, list[dict]]:
    """Run every command once, in order; return the wall time and per-command
    exit codes, errors and output digests (hashed after the clock stops)."""
    ops = []
    t0 = time.perf_counter()
    for cmd in commands:
        argv = [cmd["kind"], "--config", cmd["config"], "--out", str(out_root / cmd["id"]),
                "--threads", str(threads)]
        error = None
        code = None
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, (argv,))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        ops.append({"id": cmd["id"], "exit": code, "error": error})
    wall = time.perf_counter() - t0
    for cmd, op in zip(commands, ops):
        out = out_root / cmd["id"]
        op["digests"] = {name: file_digest(out / name) for name in cmd["files"]
                         if (out / name).is_file()}
    return wall, ops


def run_e2e(spec: dict, work: Path) -> dict:
    reps = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(reps) < spec["min_reps"] or time.perf_counter() < deadline:
        out_root = work / f"rep{len(reps)}"
        wall, ops = run_commands(spec["commands"], out_root, spec["threads"])
        reps.append({"wall_s": wall, "ops": ops, "out": str(out_root)})
        if len(reps) > 1:
            shutil.rmtree(reps[-2]["out"], ignore_errors=True)
    return {"reps": reps,
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_trace(spec: dict, work: Path) -> dict:
    passes = []
    tracer = Tracer()
    for name, threads in (("multi", spec["threads"]), ("serial", 1), ("traced", 1)):
        traced = tracer if name == "traced" else None
        cpu0 = cpu_seconds()
        if traced:
            tracer.install()
        try:
            wall, ops = run_commands(spec["commands"], work / name, threads, traced)
        finally:
            tracer.restore()
        passes.append({"name": name, "threads": threads, "wall_s": wall,
                       "cpu_s": cpu_seconds() - cpu0, "ops": ops, "out": str(work / name)})
    spans_path = Path(spec["spans"])
    with spans_path.open("w") as fh:
        json.dump(tracer.spans, fh)
    return {"passes": passes, "spans": str(spans_path), "missing_targets": tracer.missing,
            "cv_cache_peak_bytes": tracer.cache_peak_bytes}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    result = {"t_ready": T_READY, "package": str(Path(ggfps_lab.__file__).resolve())}
    if spec["mode"] == "e2e":
        result.update(run_e2e(spec, Path(spec["work"])))
    elif spec["mode"] == "trace":
        result.update(run_trace(spec, Path(spec["work"])))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

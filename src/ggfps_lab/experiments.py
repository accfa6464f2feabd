"""Benchmark harness: bootstrapped learning curves with grid-search
cross-validation, force-norm binned test errors, KDE exports and 2-D
selection heatmaps.

Per replicate a labeled set is drawn from the universe (the same set for
every method), training subsets are selected by each method, kernel-ridge
hyperparameters (and the gradient exponent bound for GGFPS) come from
k-fold grid search, and errors are measured on the unselected remainder.
All randomness flows through seeds derived from (master_seed, role, sizes,
replicate), so parallel and serial runs produce identical outputs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial.distance import cdist

from . import __version__ as _tool_version
from .dataset import LabeledSet, dumps_17g, format_float
from .krr import FactorizationError, fit, gaussian_gram, predict
from .sampling import METHODS, SamplerConfig, fps, ggfps, ggfps_chains, urs

CV_COSTS = ("RMSE", "MAE")


class DegenerateDistributionError(ValueError):
    """KDE requested for samples with zero spread."""


class ReplicateError(RuntimeError):
    """A learning-curve cell failed; identifies (method, sizes, replicate)."""

    def __init__(self, method: str, labeled_size: int, train_size: int, replicate: int,
                 cause: BaseException):
        super().__init__(
            f"method={method}, labeled_size={labeled_size}, train_size={train_size}, "
            f"replicate={replicate}: {cause}"
        )
        self.method = method
        self.labeled_size = labeled_size
        self.train_size = train_size
        self.replicate = replicate
        self.cause = cause


def derive_seed(master_seed: int, *parts) -> int:
    """Deterministic 63-bit seed from the master seed and a role/size tuple."""
    payload = repr((int(master_seed),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") % (2**63)


def _default_sigma_grid() -> tuple[float, ...]:
    return tuple(float(s) for s in np.logspace(-1, 5, 13))


def _default_beta_grid() -> tuple[float, ...]:
    return tuple(float(b) for b in np.linspace(0.0, 2.0, 20))


@dataclass(frozen=True)
class ExperimentPlan:
    labeled_sizes: tuple[int, ...]
    train_sizes: tuple[int, ...]
    bootstraps: int = 20
    sigma_grid: tuple[float, ...] = field(default_factory=_default_sigma_grid)
    lambda_grid: tuple[float, ...] = (1e-10, 1e-8, 1e-6, 1e-4)
    beta_grid: tuple[float, ...] = field(default_factory=_default_beta_grid)
    folds: int = 5
    cv_cost: str = "RMSE"
    methods: tuple[str, ...] = METHODS
    master_seed: int = 0
    heatmap_grid: int = 25
    kde_points: int = 101

    def __post_init__(self):
        def canon(name, values, kind=float, positive=True):
            vals = tuple(sorted({kind(v) for v in values}))
            if not vals:
                raise ValueError(f"{name}: must be non-empty")
            if positive and any(v <= 0 for v in vals):
                raise ValueError(f"{name}: entries must be positive")
            return vals

        object.__setattr__(self, "labeled_sizes", canon("labeled_sizes", self.labeled_sizes, int))
        object.__setattr__(self, "train_sizes", canon("train_sizes", self.train_sizes, int))
        object.__setattr__(self, "sigma_grid", canon("sigma_grid", self.sigma_grid))
        object.__setattr__(self, "lambda_grid", canon("lambda_grid", self.lambda_grid))
        beta = tuple(sorted({float(b) for b in self.beta_grid}))
        if not beta:
            raise ValueError("beta_grid: must be non-empty")
        if any(b < 0 for b in beta):
            raise ValueError("beta_grid: entries must be nonnegative")
        object.__setattr__(self, "beta_grid", beta)
        if self.bootstraps < 1:
            raise ValueError("bootstraps: must be >= 1")
        if self.folds < 2:
            raise ValueError("folds: must be >= 2")
        if self.cv_cost not in CV_COSTS:
            raise ValueError(f"cv_cost: must be one of {CV_COSTS}")
        methods = tuple(m for m in METHODS if m in set(self.methods))
        if not methods or set(self.methods) - set(METHODS):
            raise ValueError(f"methods: must be a non-empty subset of {METHODS}")
        object.__setattr__(self, "methods", methods)
        if max(self.train_sizes) > max(self.labeled_sizes):
            raise ValueError("train_sizes: every train size must fit inside a labeled size")
        if self.heatmap_grid < 1:
            raise ValueError("heatmap_grid: must be >= 1")
        if self.kde_points < 2:
            raise ValueError("kde_points: must be >= 2")


@dataclass(frozen=True)
class CurvePoint:
    method: str
    labeled_size: int
    train_size: int
    mae_mean: float
    mae_var: float
    rmse_mean: float
    rmse_var: float
    chosen_beta: tuple
    chosen_sigma: tuple
    chosen_lambda: tuple


@dataclass(frozen=True)
class ForceNormBin:
    bin_lo: float
    bin_hi: float
    count: int
    abs_err_mean: float
    abs_err_var: float


@dataclass(frozen=True)
class CvChoice:
    sigma: float
    lam: float
    beta: float | None


@dataclass
class _CellResult:
    method: str
    labeled_size: int
    train_size: int
    replicate: int
    mae: float
    rmse: float
    sigma: float
    lam: float
    beta: float | None
    test_global: np.ndarray
    test_abs_err: np.ndarray
    sel_global: np.ndarray


def _errors(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, np.ndarray]:
    abs_err = np.abs(pred - truth)
    return float(abs_err.mean()), float(np.sqrt(np.mean(abs_err**2))), abs_err


def _cost(pred: np.ndarray, truth: np.ndarray, cv_cost: str) -> float:
    err = pred - truth
    if cv_cost == "MAE":
        return float(np.mean(np.abs(err)))
    return float(np.sqrt(np.mean(err**2)))


def _fold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Split shuffled indices into validation folds, deterministic per seed."""
    if n < folds:
        raise ValueError(f"degenerate fold: {n} samples cannot fill {folds} folds")
    order = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(order, folds)]


def _mirror_size(size: int, folds: int, cap: int) -> int:
    """Scale a target size by (folds-1)/folds, clamped to [1, cap]."""
    return max(1, min(cap, round(size * (folds - 1) / folds)))


class _PlainCv:
    """sigma x lambda grid search on a fixed training set (URS / FPS)."""

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int):
        self.train = train
        self.plan = plan
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self) -> np.ndarray:
        plan = self.plan
        X, y = self.train.descriptors, self.train.labels
        n = len(self.train)
        n_sigma, n_lambda = len(plan.sigma_grid), len(plan.lambda_grid)
        sums = np.zeros((n_sigma, n_lambda))
        dead = np.zeros((n_sigma, n_lambda), dtype=bool)
        for val in self.val_folds:
            tr = np.setdiff1d(np.arange(n), val)
            d2_tr = cdist(X[tr], X[tr], metric="sqeuclidean")
            d2_val = cdist(X[tr], X[val], metric="sqeuclidean")
            for si, sigma in enumerate(plan.sigma_grid):
                K = np.exp(-d2_tr / (2.0 * sigma * sigma))
                K_val = np.exp(-d2_val / (2.0 * sigma * sigma))
                for li, lam in enumerate(plan.lambda_grid):
                    if dead[si, li]:
                        continue
                    try:
                        alpha = fit(K, y[tr], lam)
                    except FactorizationError:
                        dead[si, li] = True
                        continue
                    sums[si, li] += _cost(predict(K_val, alpha), y[val], plan.cv_cost)
        costs = np.where(dead, np.inf, sums / len(self.val_folds))
        return costs[:, :, None]


class _GgfpsCv:
    """sigma x lambda x beta grid search where each beta candidate re-selects
    a training subset inside every fold's training portion.

    Fold sub-selections are prefixes of per-(fold, beta) selection chains
    built once at the largest mirrored size, so one context can evaluate
    several target sizes cheaply and consistently with chain truncation.
    All beta chains of a fold are selected together, in lockstep, the first
    time that fold is asked for. The fold's chains share two squared-distance
    matrices over the union of their points: union x union and union x
    validation.
    """

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int, max_target: int):
        self.train = train
        self.plan = plan
        self.seed = seed
        self.max_target = max_target
        self.val_folds = _fold_partition(len(train), plan.folds, seed)
        self.pools = [np.setdiff1d(np.arange(len(train)), val) for val in self.val_folds]
        self._cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def _fold_data(self, fi: int, bi: int):
        """(chain in train indices, chain as rows of the fold matrices, union
        x union and union x validation squared distances) for fold ``fi`` and
        beta ``bi``."""
        if (fi, bi) not in self._cache:
            self._select_fold(fi)
        return self._cache[(fi, bi)]

    def _select_fold(self, fi: int) -> None:
        plan = self.plan
        X = self.train.descriptors
        pool_idx = self.pools[fi]
        chain_len = _mirror_size(self.max_target, plan.folds, len(pool_idx))
        seeds = [derive_seed(self.seed, "fold-select", fi, bi) for bi in range(len(plan.beta_grid))]
        chains, _ = ggfps_chains(X[pool_idx], self.train.gradient_norms[pool_idx],
                                 plan.beta_grid, seeds, chain_len)
        # cdist computes each pair on its own, so slices of these matrices are
        # bitwise what a cdist over one chain prefix gives
        union = np.unique(chains)
        X_union = X[pool_idx[union]]
        d2_union = cdist(X_union, X_union, metric="sqeuclidean")
        d2_val = cdist(X_union, X[self.val_folds[fi]], metric="sqeuclidean")
        for bi, chain in enumerate(chains):
            self._cache[(fi, bi)] = (pool_idx[chain], np.searchsorted(union, chain),
                                     d2_union, d2_val)

    def evaluate(self, target_size: int) -> np.ndarray:
        if target_size > self.max_target:
            raise ValueError("target_size exceeds the context's maximum")
        plan = self.plan
        y = self.train.labels
        shape = (len(plan.sigma_grid), len(plan.lambda_grid), len(plan.beta_grid))
        sums = np.zeros(shape)
        dead = np.zeros(shape, dtype=bool)
        for fi, val in enumerate(self.val_folds):
            y_val = y[val]
            for bi in range(len(plan.beta_grid)):
                chain_global, rows, d2_union, d2_val = self._fold_data(fi, bi)
                n_sub = _mirror_size(target_size, plan.folds, len(rows))
                sub = rows[:n_sub]
                d2s = d2_union[np.ix_(sub, sub)]
                d2v = d2_val[sub]
                y_sub = y[chain_global[:n_sub]]
                for si, sigma in enumerate(plan.sigma_grid):
                    K = np.exp(-d2s / (2.0 * sigma * sigma))
                    K_val = np.exp(-d2v / (2.0 * sigma * sigma))
                    for li, lam in enumerate(plan.lambda_grid):
                        if dead[si, li, bi]:
                            continue
                        try:
                            alpha = fit(K, y_sub, lam)
                        except FactorizationError:
                            dead[si, li, bi] = True
                            continue
                        sums[si, li, bi] += _cost(predict(K_val, alpha), y_val, plan.cv_cost)
        return np.where(dead, np.inf, sums / len(self.val_folds))


def choose_from_costs(costs: np.ndarray, plan: ExperimentPlan, with_beta: bool) -> CvChoice:
    """Pick the minimizing (sigma, lambda[, beta]); ties fall to the smaller
    sigma, then lambda, then beta (grids are sorted, argmin takes the first)."""
    if not np.isfinite(costs).any():
        raise FactorizationError(0)
    flat = int(np.argmin(costs))
    si, li, bi = np.unravel_index(flat, costs.shape)
    return CvChoice(
        sigma=plan.sigma_grid[si],
        lam=plan.lambda_grid[li],
        beta=plan.beta_grid[bi] if with_beta else None,
    )


def cross_validate(
    train: LabeledSet,
    plan: ExperimentPlan,
    method: str,
    target_size: int | None = None,
    seed: int = 0,
) -> CvChoice:
    """Exhaustive grid search minimizing the mean fold cost.

    URS / FPS: folds partition ``train`` and candidates are (sigma, lambda).
    GGFPS: candidates include the exponent bound beta; for every fold and
    every beta the training subset is re-selected inside the fold's training
    portion at ``target_size`` scaled by (folds-1)/folds, mirroring how the
    final selection of ``target_size`` points is made from the full set.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if method == "GGFPS":
        if target_size is None:
            raise ValueError("target_size is required for GGFPS cross-validation")
        ctx = _GgfpsCv(train, plan, seed, max_target=target_size)
        return choose_from_costs(ctx.evaluate(target_size), plan, with_beta=True)
    costs = _PlainCv(train, plan, seed).evaluate()
    return choose_from_costs(costs, plan, with_beta=False)


def _fit_and_score(L: LabeledSet, sel: np.ndarray, choice: CvChoice) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fit on the selection, score on the remainder of the labeled set."""
    test = np.setdiff1d(np.arange(len(L)), sel)
    X_tr = L.descriptors[sel]
    K = gaussian_gram(X_tr, X_tr, choice.sigma)
    alpha = fit(K, L.labels[sel], choice.lam)
    K_test = gaussian_gram(X_tr, L.descriptors[test], choice.sigma)
    pred = predict(K_test, alpha)
    mae, rmse, abs_err = _errors(pred, L.labels[test])
    return mae, rmse, test, abs_err


def _run_replicate(
    universe: LabeledSet,
    plan: ExperimentPlan,
    labeled_size: int,
    ts_list: list[int],
    rep: int,
) -> list[_CellResult]:
    master = plan.master_seed
    n_chain = max(ts_list)
    labeled_global = np.asarray(
        urs(len(universe), labeled_size, derive_seed(master, "labeled", labeled_size, rep))
    )
    L = universe.subset(labeled_global)
    cells: list[_CellResult] = []
    for method in plan.methods:
        sel_seed = derive_seed(master, "select", method, labeled_size, rep)
        if method == "URS":
            chain = np.asarray(urs(labeled_size, n_chain, sel_seed))
        elif method == "FPS":
            chain = np.asarray(fps(L.descriptors, n_chain, seed=sel_seed))
        else:
            chain = None
            ggfps_ctx = _GgfpsCv(
                L, plan, derive_seed(master, "cv", method, labeled_size, rep),
                max_target=n_chain,
            )
            beta_chains: dict[float, np.ndarray] = {}
        for ts in ts_list:
            try:
                if method == "GGFPS":
                    choice = choose_from_costs(ggfps_ctx.evaluate(ts), plan, with_beta=True)
                    if choice.beta not in beta_chains:
                        config = SamplerConfig(
                            method="GGFPS", n=n_chain, beta=choice.beta,
                            beta_mode="swept", seed=sel_seed,
                        )
                        beta_chains[choice.beta] = np.asarray(
                            ggfps(L, config, horizon=n_chain).indices
                        )
                    sel = beta_chains[choice.beta][:ts]
                else:
                    sel = chain[:ts]
                    choice = cross_validate(
                        L.subset(sel), plan, method,
                        seed=derive_seed(master, "cv", method, labeled_size, ts, rep),
                    )
                mae, rmse, test, abs_err = _fit_and_score(L, sel, choice)
            except Exception as exc:  # noqa: BLE001 - annotate the failing cell
                raise ReplicateError(method, labeled_size, ts, rep, exc) from exc
            cells.append(
                _CellResult(
                    method=method, labeled_size=labeled_size, train_size=ts, replicate=rep,
                    mae=mae, rmse=rmse, sigma=choice.sigma, lam=choice.lam, beta=choice.beta,
                    test_global=labeled_global[test], test_abs_err=abs_err,
                    sel_global=labeled_global[sel],
                )
            )
    return cells


def _run_cells(universe: LabeledSet, plan: ExperimentPlan, threads: int = 1) -> list[_CellResult]:
    jobs = []
    for ls in plan.labeled_sizes:
        if ls > len(universe):
            raise ValueError(f"labeled size {ls} exceeds the universe size {len(universe)}")
        ts_list = [ts for ts in plan.train_sizes if ts < ls]
        if not ts_list:
            raise ValueError(
                f"no train size below labeled size {ls}: nothing would remain for testing"
            )
        for rep in range(plan.bootstraps):
            jobs.append((ls, ts_list, rep))
    if threads is None or threads < 1:
        threads = 1
    if threads == 1:
        batches = [_run_replicate(universe, plan, *job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_replicate, universe, plan, *job) for job in jobs]
            batches = [f.result() for f in futures]
    return [cell for batch in batches for cell in batch]


def _aggregate(cells: list[_CellResult], plan: ExperimentPlan) -> list[CurvePoint]:
    points = []
    for method in plan.methods:
        for ls in plan.labeled_sizes:
            for ts in plan.train_sizes:
                group = sorted(
                    (c for c in cells
                     if c.method == method and c.labeled_size == ls and c.train_size == ts),
                    key=lambda c: c.replicate,
                )
                if not group:
                    continue
                maes = np.array([c.mae for c in group])
                rmses = np.array([c.rmse for c in group])
                points.append(
                    CurvePoint(
                        method=method, labeled_size=ls, train_size=ts,
                        mae_mean=float(maes.mean()), mae_var=float(maes.var()),
                        rmse_mean=float(rmses.mean()), rmse_var=float(rmses.var()),
                        chosen_beta=tuple(c.beta for c in group),
                        chosen_sigma=tuple(c.sigma for c in group),
                        chosen_lambda=tuple(c.lam for c in group),
                    )
                )
    return points


def learning_curve(labeled: LabeledSet, plan: ExperimentPlan, threads: int = 1) -> list[CurvePoint]:
    """Bootstrapped learning curves for every method and size combination."""
    return _aggregate(_run_cells(labeled, plan, threads=threads), plan)


def bin_errors_by_force_norm(test_errors, bin_capacity: int = 30) -> list[ForceNormBin]:
    """Sort (force_norm, abs_err) pairs by force norm and fill fixed-capacity bins.

    The last bin may be smaller; bounds are the extreme force norms inside
    each bin; the error statistics are per-bin mean and population variance.
    """
    arr = np.asarray(list(test_errors), dtype=float)
    if arr.size == 0:
        raise ValueError("empty input: nothing to bin")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected (force_norm, abs_err) pairs")
    if bin_capacity < 1:
        raise ValueError("bin_capacity must be >= 1")
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    bins = []
    for start in range(0, len(arr), bin_capacity):
        chunk = arr[start : start + bin_capacity]
        errs = chunk[:, 1]
        bins.append(
            ForceNormBin(
                bin_lo=float(chunk[0, 0]),
                bin_hi=float(chunk[-1, 0]),
                count=len(chunk),
                abs_err_mean=float(errs.mean()),
                abs_err_var=float(errs.var()),
            )
        )
    return bins


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR / 1.34) * n^(-1/5); falls back to the std when the
    IQR collapses to zero on heavily tied data."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    std = float(np.std(samples, ddof=1))
    q1, q3 = np.percentile(samples, [25.0, 75.0])
    iqr = float(q3 - q1)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * n ** (-0.2)


def kde_1d(samples, eval_grid) -> np.ndarray:
    """Gaussian kernel density estimate with the Silverman bandwidth."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(eval_grid, dtype=float)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    h = silverman_bandwidth(samples)
    if not h > 0:
        raise DegenerateDistributionError("samples have zero spread")
    z = (grid[:, None] - samples[None, :]) / h
    return np.exp(-0.5 * z**2).sum(axis=1) / (len(samples) * h * np.sqrt(2.0 * np.pi))


def selection_heatmap_2d(selections, labeled: LabeledSet, grid: int) -> np.ndarray:
    """Count selected points per cell of a grid x grid mesh over the labeled
    descriptor bounding box. Cells are half-open; a point exactly on an
    interior edge belongs to the lower-index cell."""
    if labeled.dim != 2:
        raise ValueError("heatmaps are defined for 2-D descriptors only")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    X = labeled.descriptors
    counts = np.zeros((grid, grid), dtype=int)
    axes_edges = []
    for c in range(2):
        lo, hi = float(X[:, c].min()), float(X[:, c].max())
        axes_edges.append(np.linspace(lo, hi, grid + 1)[1:-1])
    for sel in selections:
        pts = X[np.asarray(sel, dtype=int)]
        ix = np.digitize(pts[:, 0], axes_edges[0], right=True)
        iy = np.digitize(pts[:, 1], axes_edges[1], right=True)
        np.add.at(counts, (ix, iy), 1)
    return counts


def _curves_csv(points: list[CurvePoint]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "method", "labeled_size", "train_size", "mae_mean", "mae_var",
        "rmse_mean", "rmse_var", "chosen_beta", "chosen_sigma", "chosen_lambda",
    ])
    for p in points:
        writer.writerow([
            p.method, p.labeled_size, p.train_size,
            format_float(p.mae_mean), format_float(p.mae_var),
            format_float(p.rmse_mean), format_float(p.rmse_var),
            dumps_17g(list(p.chosen_beta)),
            dumps_17g(list(p.chosen_sigma)),
            dumps_17g(list(p.chosen_lambda)),
        ])
    return out.getvalue()


def _bins_csv(cells: list[_CellResult], universe: LabeledSet, plan: ExperimentPlan) -> str:
    out = io.StringIO()
    out.write("method,labeled_size,train_size,bin_lo,bin_hi,count,abs_err_mean,abs_err_var\n")
    for method in plan.methods:
        for ls in plan.labeled_sizes:
            for ts in plan.train_sizes:
                group = sorted(
                    (c for c in cells
                     if c.method == method and c.labeled_size == ls and c.train_size == ts),
                    key=lambda c: c.replicate,
                )
                if not group:
                    continue
                fn = np.concatenate([universe.gradient_norms[c.test_global] for c in group])
                err = np.concatenate([c.test_abs_err for c in group])
                for b in bin_errors_by_force_norm(np.stack([fn, err], axis=1)):
                    out.write(
                        f"{method},{ls},{ts},{format_float(b.bin_lo)},{format_float(b.bin_hi)},"
                        f"{b.count},{format_float(b.abs_err_mean)},{format_float(b.abs_err_var)}\n"
                    )
    return out.getvalue()


def _kde_csv(cells: list[_CellResult], universe: LabeledSet, plan: ExperimentPlan) -> str:
    quantities = {
        "force_norm": lambda idx: universe.gradient_norms[idx],
        "label": lambda idx: universe.labels[idx],
    }
    out = io.StringIO()
    out.write("series,quantity,labeled_size,train_size,x,density\n")
    all_idx = np.arange(len(universe))
    for quantity, getter in quantities.items():
        base = getter(all_idx)
        h = silverman_bandwidth(base)
        pad = 4.0 * h if h > 0 else 1.0
        grid = np.linspace(base.min() - pad, base.max() + pad, plan.kde_points)
        for x, d in zip(grid, kde_1d(base, grid)):
            out.write(f"labeled,{quantity},,,{format_float(x)},{format_float(d)}\n")
        for method in plan.methods:
            for ls in plan.labeled_sizes:
                for ts in plan.train_sizes:
                    group = sorted(
                        (c for c in cells
                         if c.method == method and c.labeled_size == ls and c.train_size == ts),
                        key=lambda c: c.replicate,
                    )
                    if not group:
                        continue
                    samples = np.concatenate([getter(c.sel_global) for c in group])
                    for x, d in zip(grid, kde_1d(samples, grid)):
                        out.write(
                            f"{method},{quantity},{ls},{ts},{format_float(x)},{format_float(d)}\n"
                        )
    return out.getvalue()


def _heatmap_csv(cells: list[_CellResult], universe: LabeledSet, plan: ExperimentPlan) -> str:
    out = io.StringIO()
    out.write("method,labeled_size,train_size,row,col,count\n")
    for method in plan.methods:
        for ls in plan.labeled_sizes:
            for ts in plan.train_sizes:
                group = sorted(
                    (c for c in cells
                     if c.method == method and c.labeled_size == ls and c.train_size == ts),
                    key=lambda c: c.replicate,
                )
                if not group:
                    continue
                counts = selection_heatmap_2d(
                    [c.sel_global for c in group], universe, plan.heatmap_grid
                )
                for r in range(plan.heatmap_grid):
                    for c in range(plan.heatmap_grid):
                        out.write(f"{method},{ls},{ts},{r},{c},{int(counts[r, c])}\n")
    return out.getvalue()


def run_experiment(
    universe: LabeledSet,
    plan: ExperimentPlan,
    out_dir: Path | str,
    threads: int = 1,
) -> dict[str, Path]:
    """Run the full protocol and write curves.csv, bins.csv, kde.csv,
    heatmap.csv (2-D descriptors only) and manifest.json into ``out_dir``."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = _run_cells(universe, plan, threads=threads)
    points = _aggregate(cells, plan)
    written: dict[str, Path] = {}

    def emit(name: str, text: str):
        path = out_dir / name
        path.write_text(text)
        written[name] = path

    emit("curves.csv", _curves_csv(points))
    emit("bins.csv", _bins_csv(cells, universe, plan))
    emit("kde.csv", _kde_csv(cells, universe, plan))
    if universe.dim == 2:
        emit("heatmap.csv", _heatmap_csv(cells, universe, plan))
    manifest = {
        "schema_version": 1,
        "tool": {"name": "ggfps-lab", "version": _tool_version},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "plan": asdict(plan),
        "universe": {"size": len(universe), "dim": universe.dim},
        "wall_clock_seconds": time.perf_counter() - t0,
    }
    emit("manifest.json", dumps_17g(manifest, indent=2) + "\n")
    return written

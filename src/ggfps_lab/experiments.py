"""Benchmark harness: bootstrapped learning curves with grid-search
cross-validation, force-norm binned test errors, KDE exports and 2-D
selection heatmaps.

Per replicate a labeled set is drawn from the universe (the same set for
every method), training subsets are selected by each method, kernel-ridge
hyperparameters (and the gradient exponent bound for GGFPS) come from
k-fold grid search, and errors are measured on the unselected remainder.
All randomness flows through seeds derived from (master_seed, role, sizes,
replicate), so reruns produce identical outputs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _tool_version
from .dataset import LabeledSet, check_int, check_number, dumps_17g, format_float
from .krr import FactorizationError, cdist, fit, fit_prefixes, gaussian_gram, predict
from .sampling import METHODS, SamplerConfig, check_beta, fps, ggfps, ggfps_chains, urs

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
        def listed(name):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple))
                    or isinstance(values, np.ndarray) and values.ndim == 1):
                raise ValueError(f"{name}: must be a list")
            return values

        def canon(name, check):
            vals = tuple(sorted({check(name, v) for v in listed(name)}))
            if not vals:
                raise ValueError(f"{name}: must be non-empty")
            return vals

        for name in ("labeled_sizes", "train_sizes"):
            object.__setattr__(self, name, canon(name, lambda name, v: check_int(name, v, 1)))
        for name in ("sigma_grid", "lambda_grid"):
            object.__setattr__(self, name, canon(
                name, lambda name, v: check_number(name, v, positive=True)))
        object.__setattr__(self, "beta_grid", canon("beta_grid", check_beta))
        for name, minimum in (("bootstraps", 1), ("folds", 2), ("master_seed", None),
                              ("heatmap_grid", 1), ("kde_points", 2)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if self.cv_cost not in CV_COSTS:
            raise ValueError(f"cv_cost: must be one of {CV_COSTS}")
        requested = listed("methods")
        if len(requested) == 0 or any(m not in METHODS for m in requested):
            raise ValueError(f"methods: must be a non-empty subset of {METHODS}")
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in requested))
        if max(self.train_sizes) > max(self.labeled_sizes):
            raise ValueError("train_sizes: every train size must fit inside a labeled size")


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


def _grid_costs(d2_train: np.ndarray, d2_val: np.ndarray, y_train: np.ndarray,
                y_val: np.ndarray, sizes: list[int], plan: ExperimentPlan,
                dead: np.ndarray) -> np.ndarray:
    """Validation cost of every (train size, sigma, lambda) candidate on one fold.

    The training set of size m is the first m rows of ``d2_train`` (squared
    distances among the largest training set), ``d2_val`` (to the validation
    points) and ``y_train``. Per sigma one ``exp`` covers the largest block;
    per lambda one Cholesky factor of the largest size still alive solves
    every smaller size through its leading block (``fit_prefixes``).
    Candidates marked in ``dead`` (shape (len(sizes), sigmas, lambdas)) are
    skipped; sizes at or beyond a failing pivot are marked there. Returns the
    costs, 0 where dead. The kernels take the layout of the distances, so a
    Fortran-ordered ``d2_train`` spares ``fit_prefixes`` a transposing copy.
    """
    costs = np.zeros(dead.shape)
    K = np.empty_like(d2_train)
    K_val = np.empty_like(d2_val)
    for si, sigma in enumerate(plan.sigma_grid):
        if dead[:, si].all():
            continue
        # x / (-c) is bitwise (-x) / c: exp(-d2 / 2 sigma^2) with no temporaries
        np.exp(np.divide(d2_train, -(2.0 * sigma * sigma), out=K), out=K)
        np.exp(np.divide(d2_val, -(2.0 * sigma * sigma), out=K_val), out=K_val)
        for li, lam in enumerate(plan.lambda_grid):
            alive = np.flatnonzero(~dead[:, si, li])
            if not alive.size:
                continue
            alphas, _ = fit_prefixes(K, y_train, lam, [sizes[i] for i in alive])
            for i, alpha in zip(alive, alphas):
                if alpha is None:
                    dead[i, si, li] = True
                    continue
                pred = predict(K_val[:len(alpha)], alpha)
                costs[i, si, li] = _cost(pred, y_val, plan.cv_cost)
    return costs


def _fold_costs(train: LabeledSet, plan: ExperimentPlan, val: np.ndarray,
                chains: np.ndarray, sizes: list[int], dead: np.ndarray) -> np.ndarray:
    """Validation costs of B training chains on one fold, shape
    (len(sizes), sigmas, lambdas, B).

    ``chains`` (B, n) holds rows of ``train``; chain b's training set of size
    m is its first m rows, scored on the rows ``val``. One union x union and
    one union x validation squared-distance matrix cover every chain: cdist
    computes each pair on its own, so a chain's slice is bitwise a cdist
    over that chain. ``dead`` has the result's shape and is updated in place
    (see ``_grid_costs``).
    """
    X, y = train.descriptors, train.labels
    union, rows = np.unique(chains, return_inverse=True)
    rows = rows.reshape(chains.shape)[:, :max(sizes)]
    d2_union = cdist(X[union], X[union], metric="sqeuclidean")
    d2_val = cdist(X[union], X[val], metric="sqeuclidean")
    costs = np.zeros(dead.shape)
    for b, (chain, sub) in enumerate(zip(chains, rows)):
        costs[..., b] = _grid_costs(np.asfortranarray(d2_union[np.ix_(sub, sub)]),
                                    d2_val[sub], y[chain[:len(sub)]], y[val], sizes, plan,
                                    dead[..., b])
    return costs


class _PlainCv:
    """sigma x lambda grid search on a fixed training set (URS / FPS)."""

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int):
        self.train = train
        self.plan = plan
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self) -> np.ndarray:
        """Mean fold costs, shape (sigmas, lambdas, 1)."""
        plan = self.plan
        shape = (1, len(plan.sigma_grid), len(plan.lambda_grid), 1)
        sums = np.zeros(shape)
        dead = np.zeros(shape, dtype=bool)
        for val in self.val_folds:
            tr = np.setdiff1d(np.arange(len(self.train)), val)
            sums += _fold_costs(self.train, plan, val, tr[None], [len(tr)], dead)
        return np.where(dead, np.inf, sums / len(self.val_folds))[0]


class _GgfpsCv:
    """sigma x lambda x beta grid search where each beta candidate re-selects
    a training subset inside every fold's training portion.

    Fold sub-selections are prefixes of per-(fold, beta) selection chains
    built at the largest mirrored target size, so one call evaluates all
    target sizes in one pass, consistently with chain truncation. Folds run
    one at a time: a fold's beta chains are selected together, in lockstep,
    scored, and dropped before the next fold.
    """

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int):
        self.train = train
        self.plan = plan
        self.seed = seed
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self, target_sizes: list[int]) -> np.ndarray:
        """Mean fold costs, shape (len(target_sizes), sigmas, lambdas, betas)."""
        plan = self.plan
        train = self.train
        shape = (len(target_sizes), len(plan.sigma_grid), len(plan.lambda_grid),
                 len(plan.beta_grid))
        sums = np.zeros(shape)
        dead = np.zeros(shape, dtype=bool)
        for fi, val in enumerate(self.val_folds):
            pool = np.setdiff1d(np.arange(len(train)), val)
            chain_len = _mirror_size(max(target_sizes), plan.folds, len(pool))
            seeds = [derive_seed(self.seed, "fold-select", fi, bi)
                     for bi in range(len(plan.beta_grid))]
            chains, _ = ggfps_chains(train.descriptors[pool], train.gradient_norms[pool],
                                     plan.beta_grid, seeds, chain_len)
            sizes = [_mirror_size(ts, plan.folds, chain_len) for ts in target_sizes]
            sums += _fold_costs(train, plan, val, pool[chains], sizes, dead)
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
        costs = _GgfpsCv(train, plan, seed).evaluate([target_size])[0]
        return choose_from_costs(costs, plan, with_beta=True)
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
            ggfps_ctx = _GgfpsCv(L, plan, derive_seed(master, "cv", method, labeled_size, rep))
            beta_chains: dict[float, np.ndarray] = {}
        for i, ts in enumerate(ts_list):
            try:
                if method == "GGFPS":
                    if i == 0:
                        ggfps_costs = ggfps_ctx.evaluate(ts_list)
                    choice = choose_from_costs(ggfps_costs[i], plan, with_beta=True)
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


def _run_cells(universe: LabeledSet, plan: ExperimentPlan) -> list[_CellResult]:
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
    return [cell for job in jobs for cell in _run_replicate(universe, plan, *job)]


def _group_cells(cells: list[_CellResult], plan: ExperimentPlan):
    """Cells grouped by (method, labeled size, train size), in plan order,
    each group's replicates in order: [((method, ls, ts), cells), ...]."""
    groups: dict[tuple[str, int, int], list[_CellResult]] = {}
    for c in sorted(cells, key=lambda c: c.replicate):
        groups.setdefault((c.method, c.labeled_size, c.train_size), []).append(c)
    rank = {m: i for i, m in enumerate(plan.methods)}
    return sorted(groups.items(), key=lambda kv: (rank[kv[0][0]],) + kv[0][1:])


def _aggregate(groups) -> list[CurvePoint]:
    points = []
    for (method, ls, ts), group in groups:
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


def learning_curve(labeled: LabeledSet, plan: ExperimentPlan) -> list[CurvePoint]:
    """Bootstrapped learning curves for every method and size combination."""
    return _aggregate(_group_cells(_run_cells(labeled, plan), plan))


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
    bin_capacity = check_int("bin_capacity", bin_capacity, 1)
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
    grid = check_int("grid", grid, 1)
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


def _bins_csv(groups, universe: LabeledSet) -> str:
    out = io.StringIO()
    out.write("method,labeled_size,train_size,bin_lo,bin_hi,count,abs_err_mean,abs_err_var\n")
    for (method, ls, ts), group in groups:
        fn = np.concatenate([universe.gradient_norms[c.test_global] for c in group])
        err = np.concatenate([c.test_abs_err for c in group])
        for b in bin_errors_by_force_norm(np.stack([fn, err], axis=1)):
            out.write(
                f"{method},{ls},{ts},{format_float(b.bin_lo)},{format_float(b.bin_hi)},"
                f"{b.count},{format_float(b.abs_err_mean)},{format_float(b.abs_err_var)}\n"
            )
    return out.getvalue()


# (series name, LabeledSet attribute) of each KDE quantity
_KDE_QUANTITIES = (("force_norm", "gradient_norms"), ("label", "labels"))


def _check_kde_inputs(universe: LabeledSet, plan: ExperimentPlan) -> None:
    """Reject, before any compute, a run whose KDE export is bound to fail:
    a quantity with zero spread over the dataset, or selected series that
    hold fewer than 2 samples (min(train_sizes) x bootstraps)."""
    for quantity, attr in _KDE_QUANTITIES:
        values = getattr(universe, attr)
        if len(values) > 1 and not silverman_bandwidth(values) > 0:
            raise DegenerateDistributionError(
                f"{quantity}: zero spread over all {len(values)} dataset points, "
                "so its KDE is undefined"
            )
    if min(plan.train_sizes) * plan.bootstraps < 2:
        raise ValueError(
            f"plan: min(train_sizes) x bootstraps = {min(plan.train_sizes) * plan.bootstraps}; "
            "each selected KDE series needs at least 2 samples"
        )


def _kde_csv(groups, universe: LabeledSet, plan: ExperimentPlan) -> str:
    out = io.StringIO()
    out.write("series,quantity,labeled_size,train_size,x,density\n")
    for quantity, attr in _KDE_QUANTITIES:
        base = getattr(universe, attr)
        h = silverman_bandwidth(base)
        grid = np.linspace(base.min() - 4.0 * h, base.max() + 4.0 * h, plan.kde_points)
        for x, d in zip(grid, kde_1d(base, grid)):
            out.write(f"labeled,{quantity},,,{format_float(x)},{format_float(d)}\n")
        for (method, ls, ts), group in groups:
            samples = np.concatenate([base[c.sel_global] for c in group])
            for x, d in zip(grid, kde_1d(samples, grid)):
                out.write(f"{method},{quantity},{ls},{ts},{format_float(x)},{format_float(d)}\n")
    return out.getvalue()


def _heatmap_csv(groups, universe: LabeledSet, plan: ExperimentPlan) -> str:
    out = io.StringIO()
    out.write("method,labeled_size,train_size,row,col,count\n")
    for (method, ls, ts), group in groups:
        counts = selection_heatmap_2d([c.sel_global for c in group], universe, plan.heatmap_grid)
        for r in range(plan.heatmap_grid):
            for c in range(plan.heatmap_grid):
                out.write(f"{method},{ls},{ts},{r},{c},{int(counts[r, c])}\n")
    return out.getvalue()


def run_experiment(
    universe: LabeledSet,
    plan: ExperimentPlan,
    out_dir: Path | str,
) -> dict[str, Path]:
    """Run the full protocol and write curves.csv, bins.csv, kde.csv,
    heatmap.csv (2-D descriptors only) and manifest.json into ``out_dir``.

    Every output is built in memory first: a run that fails, in compute or
    in export, creates no directory and writes no file. A dataset or plan
    whose KDE export cannot succeed is rejected before any compute."""
    t0 = time.perf_counter()
    _check_kde_inputs(universe, plan)
    groups = _group_cells(_run_cells(universe, plan), plan)
    texts = {
        "curves.csv": _curves_csv(_aggregate(groups)),
        "bins.csv": _bins_csv(groups, universe),
        "kde.csv": _kde_csv(groups, universe, plan),
    }
    if universe.dim == 2:
        texts["heatmap.csv"] = _heatmap_csv(groups, universe, plan)
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
    texts["manifest.json"] = dumps_17g(manifest, indent=2) + "\n"
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for name, text in texts.items():
        written[name] = out_dir / name
        written[name].write_text(text)
    return written

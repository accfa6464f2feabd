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
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _tool_version
from .dataset import (LabeledSet, check_int, check_number, check_width, dumps_17g, format_float,
                      write_outputs)
from .krr import FactorizationError, cdist, fit, fit_prefixes, gaussian_gram, predict
# ggfps is not called here, but stays importable from this module: the
# benchmark's tracer (bench/worker.py) wraps experiments.ggfps by name
from .sampling import METHODS, check_beta, fps, ggfps, ggfps_chains, urs  # noqa: F401

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
        object.__setattr__(self, "sigma_grid", canon("sigma_grid", check_width))
        object.__setattr__(self, "lambda_grid", canon(
            "lambda_grid", lambda name, v: check_number(name, v, positive=True)))
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


@contextmanager
def _finite(quantity: str):
    """Raise FloatingPointError naming ``quantity`` where numpy would warn
    that computing it overflowed or made an invalid value."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatingPointError(
            f"{quantity}: {exc} (the labels are too large for it)") from None


def _mean_var(values: np.ndarray, quantity: str) -> tuple[float, float]:
    """Mean and population variance of ``values``; FloatingPointError naming
    ``quantity`` where either would overflow or be NaN."""
    with _finite(quantity):
        return float(values.mean()), float(values.var())


def _errors(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, np.ndarray]:
    with _finite("test MAE"):
        abs_err = np.abs(pred - truth)
        mae = float(abs_err.mean())
    with _finite("test RMSE"):
        rmse = float(np.sqrt(np.mean(abs_err**2)))
    return mae, rmse, abs_err


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
                dead: np.ndarray, skip: np.ndarray | None = None) -> np.ndarray:
    """Validation cost of every (train size, sigma, lambda) candidate on one fold.

    The training set of size m is the first m rows of ``d2_train`` (squared
    distances among the largest training set), ``d2_val`` (to the validation
    points) and ``y_train``. Per sigma one ``exp`` covers the largest block;
    per lambda one Cholesky factor solves every size through its leading
    block (``fit_prefixes``).

    Two masks of shape (len(sizes), sigmas, lambdas) say what to score.
    ``dead`` marks candidates that can never win: sizes at or beyond a
    failing pivot, and candidates whose cost is not finite (NaN in the
    result). It is updated in place. ``skip`` marks live candidates that
    need no cost on this fold. A (sigma, lambda) column with nothing outside
    both masks is not factored; any other column is factored at its largest
    size not in ``dead``, skipped or not, because the factor of a smaller
    block differs in its last bits from the leading block of a larger
    factor. So every cost computed is bitwise the cost of a call without
    ``skip``. Returns the costs, 0 where dead or skipped. The kernels take
    the layout of the distances, so a Fortran-ordered ``d2_train`` spares
    ``fit_prefixes`` a transposing copy.
    """
    costs = np.zeros(dead.shape)
    todo = ~dead if skip is None else ~(dead | skip)
    K = np.empty_like(d2_train)
    K_val = np.empty_like(d2_val)
    for si, sigma in enumerate(plan.sigma_grid):
        if not todo[:, si].any():
            continue
        # x / (-c) is bitwise (-x) / c: exp(-d2 / 2 sigma^2) with no temporaries;
        # a quotient that overflows to -inf (2 sigma^2 subnormal) gives exp = 0,
        # the correctly rounded kernel value
        with np.errstate(over="ignore"):
            np.exp(np.divide(d2_train, -(2.0 * sigma * sigma), out=K), out=K)
            np.exp(np.divide(d2_val, -(2.0 * sigma * sigma), out=K_val), out=K_val)
        for li, lam in enumerate(plan.lambda_grid):
            wanted = np.flatnonzero(todo[:, si, li])
            if not wanted.size:
                continue
            solve = [sizes[i] for i in wanted]
            top = max(m for m, gone in zip(sizes, dead[:, si, li]) if not gone)
            if top > max(solve):
                solve.append(top)  # sets the factor's size; its alpha goes unused
            alphas, pivot = fit_prefixes(K, y_train, lam, solve)
            if pivot:
                dead[:, si, li] |= np.asarray(sizes) >= pivot
            for i, alpha in zip(wanted, alphas):
                if alpha is None:
                    continue
                # labels near the float range overflow the cost: the candidate is dead
                with np.errstate(over="ignore", invalid="ignore"):
                    cost = _cost(predict(K_val[:len(alpha)], alpha), y_val, plan.cv_cost)
                if not np.isfinite(cost):
                    dead[i, si, li] = True
                    cost = np.nan
                costs[i, si, li] = cost
    return costs


def _fold_costs(train: LabeledSet, plan: ExperimentPlan, val: np.ndarray,
                chains: np.ndarray, sizes: list[int], dead: np.ndarray,
                skip: np.ndarray | None = None) -> np.ndarray:
    """Validation costs of B training chains on one fold, shape
    (len(sizes), sigmas, lambdas, B).

    ``chains`` (B, n) holds rows of ``train``; chain b's training set of size
    m is its first m rows, scored on the rows ``val``. Chain by chain, cdist
    fills two buffers over its first c = max(sizes) rows, against themselves
    and the v validation rows, so a visit holds at most 3 c^2 + 2 c v doubles:
    the distances, kernel and factored copy (c x c), and the validation
    distances and kernel (c x v). ``dead`` and ``skip``, of the result's
    shape, are as for ``_grid_costs``; ``dead`` is updated in place.
    """
    X, y = train.descriptors, train.labels
    top = max(sizes)
    # one pair of buffers for all chains: blocks freed per chain let malloc
    # return their pages, and each chain faulted them in again (~4x the faults)
    d2_chain, d2_val = np.empty((top, top)), np.empty((top, len(val)))
    costs = np.zeros(dead.shape)
    for b, chain in enumerate(chains[:, :top]):
        cdist(X[chain], X[chain], metric="sqeuclidean", out=d2_chain)
        cdist(X[chain], X[val], metric="sqeuclidean", out=d2_val)
        # cdist's squared distances are bitwise symmetric: .T is the Fortran block
        costs[..., b] = _grid_costs(d2_chain.T, d2_val, y[chain], y[val], sizes, plan,
                                    dead[..., b], None if skip is None else skip[..., b])
    return costs


def _fold_means(sums: np.ndarray, excluded: np.ndarray, folds: int) -> np.ndarray:
    """Mean fold costs from their sums: inf where ``excluded``, NaN where a
    fold's cost was not finite."""
    return np.where(excluded & ~np.isnan(sums), np.inf, sums / folds)


def _pruned_search(shape: tuple[int, ...], folds: int, fold_costs) -> np.ndarray:
    """Mean fold costs of a (sizes, sigmas, lambdas, B) candidate grid, with
    every candidate that cannot be chosen reported as inf and not scored on
    every fold.

    ``fold_costs(fi, dead, skip)`` returns fold fi's costs as ``_fold_costs``
    does, updating ``dead``. Three passes:

    1. fold 0 for every candidate;
    2. every size's fold-0 winner (its incumbent) on the other folds, at
       every size, in fold order; for each size the smallest incumbent mean
       is an upper bound U on the winning mean;
    3. the other candidates on folds 1.. in order, each (size, candidate)
       entry dropped (``pruned``) once its partial sum s gives s / folds > U.

    Costs are >= 0 (a non-finite one kills its candidate), and adding a
    non-negative float never makes a sum smaller, so a pruned entry's full
    mean would be strictly above U: it can neither win nor tie. Every other
    entry is summed in fold order from the same fold costs, so it is bitwise
    the exhaustive search's mean; the minimizer and its ties are the same.
    ``pruned`` is kept apart from ``dead`` because only ``dead`` bounds the
    size at which a candidate is factored.
    """
    sums = np.zeros(shape)
    dead = np.zeros(shape, dtype=bool)
    pruned = np.zeros(shape, dtype=bool)

    def add_fold(fi, skip):
        if not (dead | skip).all():
            sums[...] += fold_costs(fi, dead, skip)

    add_fold(0, np.zeros(shape, dtype=bool))
    incumbent = np.zeros(shape[1:], dtype=bool)
    for alive, fold0 in zip(~dead, sums):
        if alive.any():
            incumbent.flat[np.argmin(np.where(alive, fold0, np.inf))] = True
    others = np.broadcast_to(~incumbent, shape)
    for fi in range(1, folds):
        add_fold(fi, others)
    means = np.where(dead | others, np.inf, sums / folds)
    bound = means.min(axis=(1, 2, 3), keepdims=True)
    for fi in range(1, folds):
        pruned |= others & ~dead & (sums / folds > bound)
        add_fold(fi, ~others | pruned)
    return _fold_means(sums, dead | pruned, folds)


class _PlainCv:
    """sigma x lambda grid search on a fixed training set (URS / FPS)."""

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int):
        self.train = train
        self.plan = plan
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self) -> np.ndarray:
        """Mean fold costs, shape (sigmas, lambdas, 1): inf for a candidate
        whose factorization failed or that ``_pruned_search`` dropped, NaN
        for one whose cost was not finite."""
        plan = self.plan

        def fold_costs(fi, dead, skip):
            val = self.val_folds[fi]
            tr = np.setdiff1d(np.arange(len(self.train)), val)
            return _fold_costs(self.train, plan, val, tr[None], [len(tr)], dead, skip)

        shape = (1, len(plan.sigma_grid), len(plan.lambda_grid), 1)
        return _pruned_search(shape, len(self.val_folds), fold_costs)[0]


class _GgfpsCv:
    """sigma x lambda x beta grid search where each beta candidate re-selects
    a training subset inside every fold's training portion.

    Fold sub-selections are prefixes of per-(fold, beta) selection chains
    built at the largest mirrored target size, so one call evaluates all
    target sizes in one pass, consistently with chain truncation. Each
    fold's chains are selected once, in one lockstep call on the fold's
    first visit, for every beta that still has a live candidate, and kept
    as index arrays (at most betas x chain length per fold) for the fold's
    later visit. A chain does not depend on which others are selected with
    it. A visit scores its chains one at a time (``_fold_costs``), holding
    3 c^2 + 2 c v doubles for c chain rows and v validation rows.
    """

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int):
        self.train = train
        self.plan = plan
        self.seed = seed
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self, target_sizes: list[int]) -> np.ndarray:
        """Mean fold costs, shape (len(target_sizes), sigmas, lambdas, betas),
        with inf and NaN as for ``_PlainCv.evaluate``."""
        plan = self.plan
        train = self.train
        fold_chains: dict[int, dict[int, np.ndarray]] = {}  # fold -> beta index -> train rows

        def fold_costs(fi, dead, skip):
            val = self.val_folds[fi]
            pool = np.setdiff1d(np.arange(len(train)), val)
            chain_len = _mirror_size(max(target_sizes), plan.folds, len(pool))
            if fi not in fold_chains:
                # dead only grows, so a later visit needs no beta left out here;
                # Python ints: derive_seed hashes the repr of its parts
                alive = np.flatnonzero(~dead.all(axis=(0, 1, 2))).tolist()
                seeds = [derive_seed(self.seed, "fold-select", fi, bi) for bi in alive]
                chains, _ = ggfps_chains(train.descriptors[pool], train.gradient_norms[pool],
                                         [plan.beta_grid[bi] for bi in alive], seeds, chain_len)
                fold_chains[fi] = dict(zip(alive, pool[chains]))
            betas = np.flatnonzero(~(dead | skip).all(axis=(0, 1, 2))).tolist()
            sizes = [_mirror_size(ts, plan.folds, chain_len) for ts in target_sizes]
            costs = np.zeros(dead.shape)
            dead_b = dead[..., betas]
            costs[..., betas] = _fold_costs(train, plan, val,
                                            np.stack([fold_chains[fi][bi] for bi in betas]),
                                            sizes, dead_b, skip[..., betas])
            dead[..., betas] = dead_b
            return costs

        shape = (len(target_sizes), len(plan.sigma_grid), len(plan.lambda_grid),
                 len(plan.beta_grid))
        return _pruned_search(shape, len(self.val_folds), fold_costs)


def choose_from_costs(costs: np.ndarray, plan: ExperimentPlan, with_beta: bool) -> CvChoice:
    """Pick the minimizing (sigma, lambda[, beta]) among the finite costs;
    ties fall to the smaller sigma, then lambda, then beta (grids are sorted,
    argmin takes the first). With no finite cost it raises
    FloatingPointError naming ``cv_cost`` when some cost was not a number
    (the candidate factored but its cost overflowed), and FactorizationError
    otherwise."""
    finite = np.isfinite(costs)
    if not finite.any():
        if np.isnan(costs).any():
            raise FloatingPointError(
                f"cv_cost: the validation {plan.cv_cost} is not finite for any candidate "
                "that factored (the labels are too large for it)"
            )
        raise FactorizationError(0)
    flat = int(np.argmin(np.where(finite, costs, np.inf)))
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
    """Grid search minimizing the mean fold cost; the choice is the
    exhaustive search's, though candidates that cannot win are not scored on
    every fold (see ``_pruned_search``).

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


def _ggfps_picks(L: LabeledSet, plan: ExperimentPlan, ts_list: list[int], cv_seed: int,
                 sel_seed: int) -> list:
    """Per train size, its GGFPS (choice, selection), or the exception that
    choosing raised, for the caller to raise at that size's turn.

    One cross-validation scores every size; then one lockstep call selects
    the chain of every distinct chosen beta, each bitwise ``ggfps`` with that
    beta, ``sel_seed`` and horizon max(ts_list), and a size's selection is
    the prefix of its beta's chain.
    """
    choices = []
    for costs in _GgfpsCv(L, plan, cv_seed).evaluate(ts_list):
        try:
            choices.append(choose_from_costs(costs, plan, with_beta=True))
        except (FactorizationError, FloatingPointError) as exc:  # raised at its size's turn
            choices.append(exc)
    betas = sorted({c.beta for c in choices if isinstance(c, CvChoice)})
    chains = {}
    if betas:
        picks, _ = ggfps_chains(L.descriptors, L.gradient_norms, betas,
                                [sel_seed] * len(betas), max(ts_list))
        chains = dict(zip(betas, picks))
    return [c if isinstance(c, Exception) else (c, chains[c.beta][:ts])
            for c, ts in zip(choices, ts_list)]


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
        for i, ts in enumerate(ts_list):
            try:
                if method == "GGFPS":
                    if i == 0:
                        picks = _ggfps_picks(
                            L, plan, ts_list, derive_seed(master, "cv", method, labeled_size, rep),
                            sel_seed)
                    if isinstance(picks[i], Exception):
                        raise picks[i]
                    choice, sel = picks[i]
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
            raise ValueError(f"plan.labeled_sizes: labeled size {ls} exceeds the universe "
                             f"size {len(universe)}")
        ts_list = [ts for ts in plan.train_sizes if ts < ls]
        if not ts_list:
            raise ValueError(
                f"plan.train_sizes: no train size below labeled size {ls}: "
                "nothing would remain for testing"
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
        cell = f"method={method}, labeled_size={ls}, train_size={ts}"
        mae_mean, mae_var = _mean_var(np.array([c.mae for c in group]),
                                      f"{cell}: MAE mean and variance")
        rmse_mean, rmse_var = _mean_var(np.array([c.rmse for c in group]),
                                        f"{cell}: RMSE mean and variance")
        points.append(
            CurvePoint(
                method=method, labeled_size=ls, train_size=ts,
                mae_mean=mae_mean, mae_var=mae_var, rmse_mean=rmse_mean, rmse_var=rmse_var,
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
    A statistic that overflows raises FloatingPointError naming its bin.
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
        lo, hi = float(chunk[0, 0]), float(chunk[-1, 0])
        mean, var = _mean_var(chunk[:, 1], f"force-norm bin [{lo!r}, {hi!r}]: absolute "
                                           "error mean and variance")
        bins.append(ForceNormBin(bin_lo=lo, bin_hi=hi, count=len(chunk),
                                 abs_err_mean=mean, abs_err_var=var))
    return bins


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR / 1.34) * n^(-1/5); falls back to the std when the
    IQR collapses to zero on heavily tied data."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    # a std that overflows is inf, and min() below then takes the IQR's scale
    with np.errstate(over="ignore"):
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
    # a z or z**2 that overflows gives exp(-inf) = 0, the correctly rounded value
    with np.errstate(over="ignore"):
        z2 = ((grid[:, None] - samples[None, :]) / h) ** 2
    return np.exp(-0.5 * z2).sum(axis=1) / (len(samples) * h * np.sqrt(2.0 * np.pi))


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


def _kde_span(values: np.ndarray) -> tuple[float, float, float]:
    """Silverman bandwidth h of ``values`` and the ends of their KDE grid,
    4h beyond the extremes. Where a sum overflows, any of the three may be
    inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = silverman_bandwidth(values)
        return h, values.min() - 4.0 * h, values.max() + 4.0 * h


def _check_kde_inputs(universe: LabeledSet, plan: ExperimentPlan) -> None:
    """Reject, before any compute, a run whose KDE export is bound to fail:
    a quantity whose bandwidth or grid over the dataset is not finite, or
    that has zero spread, or selected series that hold fewer than 2 samples
    (min(train_sizes) x bootstraps)."""
    for quantity, attr in _KDE_QUANTITIES:
        values = getattr(universe, attr)
        if len(values) < 2:
            continue
        h, lo, hi = _kde_span(values)
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if not np.isfinite(width):
            raise ValueError(
                f"{quantity}: the KDE bandwidth or grid over all {len(values)} dataset "
                "points is not finite (values too large)"
            )
        if not h > 0:
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
        _, lo, hi = _kde_span(base)
        grid = np.linspace(lo, hi, plan.kde_points)
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
    in export, creates no directory and writes no file, and a failed write
    removes what the run wrote (``write_outputs``). A dataset or plan whose
    KDE export cannot succeed is rejected before any compute.

    The output bytes depend on the thread count of scipy's OpenBLAS. This
    function sets no BLAS thread count; the CLI runs numpy's OpenBLAS on one
    thread, which changes its speed but no output byte."""
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
    return write_outputs(out_dir, texts)

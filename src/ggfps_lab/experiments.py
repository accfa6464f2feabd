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
import itertools
import math
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__ as _tool_version
from .dataset import (LabeledSet, check_int, check_number, check_width, dumps_17g, format_float,
                      write_outputs)
from .krr import (_CDIST_BLOCK, FactorizationError, cdist, fit_prefixes, gaussian_gram,
                  gaussian_kernel, predict, scipy_blas_on_one_thread)
from .sampling import METHODS, check_beta, fps, ggfps_chains, urs

CV_COSTS = ("RMSE", "MAE")
BIN_CAPACITY = 30  # test errors per force-norm bin


class DegenerateDistributionError(ValueError):
    """KDE requested for samples with too little spread (``_kde_bandwidth``)."""


class _Stopped(Exception):
    """A job's stop event was set during its cross-validation
    (``_check_stop``); ``_run_replicate`` returns early on it."""


def _check_stop(stop: threading.Event | None) -> None:
    """Raise ``_Stopped`` if ``stop`` is set; None, as for a serial caller,
    never stops."""
    if stop is not None and stop.is_set():
        raise _Stopped


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
        if max(self.train_sizes) >= max(self.labeled_sizes):
            raise ValueError(f"train_sizes: train size {max(self.train_sizes)} is not below any "
                             "labeled size: nothing would remain for testing")
        if min(self.train_sizes) >= min(self.labeled_sizes):
            raise ValueError(f"train_sizes: no train size below labeled size "
                             f"{min(self.labeled_sizes)}: nothing would remain for testing")
        if min(self.labeled_sizes) < self.folds:
            raise ValueError(f"labeled_sizes: labeled size {min(self.labeled_sizes)} cannot "
                             f"fill {self.folds} cross-validation folds")
        if {"URS", "FPS"} & set(self.methods) and min(self.train_sizes) < self.folds:
            raise ValueError(f"train_sizes: train size {min(self.train_sizes)} cannot fill "
                             f"{self.folds} cross-validation folds for URS or FPS")


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


# widest column block of a chain's stored distances (``_ChainDistances``)
_COLUMN_BLOCK = 64


def _column_blocks(c: int) -> list[tuple[int, int]]:
    """(start, stop) of the column blocks that split c columns: as few blocks
    as widths of at most ``_COLUMN_BLOCK`` allow, with symmetric widths
    (block k and block n - 1 - k are equally wide, so an odd c takes an odd
    count, with one middle block) that differ by at most one."""
    n = -(-c // _COLUMN_BLOCK)
    if n % 2 == 0 and c % 2:  # symmetric widths over an even count sum to an even c
        n += 1
    q, r = divmod(c, n)
    # the r wider blocks pair off from both ends; an odd r's last is the middle one
    wide = [k < r // 2 or k >= n - r // 2 or (r % 2 == 1 and k == n // 2) for k in range(n)]
    edges = list(itertools.accumulate((q + w for w in wide), initial=0))
    return list(zip(edges[:-1], edges[1:]))


class _ChainDistances:
    """A chain's squared distances, kept in the triangle of its kernels'
    factor buffer that the factorization never touches.

    The buffer is Fortran-ordered, (W + c) x c for c rows, W the widest of
    the ``_column_blocks(c)``; its bottom c x c block (``A``) takes each
    kernel and its Cholesky factor, and ``dpotrf('L')`` never reads or writes
    that block's strict upper triangle. Block k of the columns, j0:j1 of
    width w, stores its distances d2[j0:c, j0:j1] as they are in the rows
    directly above diagonal block n - 1 - k, which spans columns c - j1:c - j0
    (widths are symmetric): buffer rows W - w:W + c - j1. Those rows lie in
    the W pad rows and A's strict upper triangle, no two blocks' regions
    overlap, and a kernel written into A[j0:, j0:j1] stays clear of all of
    them. So one buffer of c^2 + cW doubles holds what took two c x c
    matrices, and a chain computes at most c (c + W) / 2 distances instead
    of c^2.
    """

    def __init__(self, c: int):
        self.blocks = _column_blocks(c)
        W = max(j1 - j0 for j0, j1 in self.blocks)
        buf = np.empty((W + c, c), order="F")
        self.A = buf[W:]
        self.stored = [buf[W - (j1 - j0):W + c - j1, c - j1:c - j0] for j0, j1 in self.blocks]

    def store(self, Xc: np.ndarray) -> None:
        """Squared distances among the rows of ``Xc`` (c rows), each entry
        (i, j), i >= j, bitwise ``cdist(Xc, Xc)[j, i]``: one ``cdist`` per
        column block, over that block's rows against every row from its
        first on."""
        for (j0, j1), d2 in zip(self.blocks, self.stored):
            cdist(Xc[j0:j1], Xc[j0:], out=d2.T)

    def kernel(self, top: int, sigma: float) -> np.ndarray:
        """The Gaussian kernel of the first ``top`` rows written into A's
        leading block, lower triangle (and each diagonal block whole) bitwise
        ``gaussian_kernel`` of the stored distances; returns that block, for
        ``fit_prefixes`` to factor in place."""
        for (j0, j1), d2 in zip(self.blocks, self.stored):
            if j0 >= top:
                break
            j1 = min(j1, top)
            gaussian_kernel(d2[:top - j0, :j1 - j0], sigma, out=self.A[j0:top, j0:j1])
        return self.A[:top, :top]


def _grid_costs(d2_train: _ChainDistances, d2_val: np.ndarray, y_train: np.ndarray,
                y_val: np.ndarray, sizes: list[int], plan: ExperimentPlan,
                dead: np.ndarray, skip: np.ndarray | None = None,
                stop: threading.Event | None = None) -> np.ndarray:
    """Validation cost of every (train size, sigma, lambda) candidate on one fold.

    The training set of size m is the first m rows of the chain whose
    squared distances ``d2_train`` holds, of ``d2_val`` (to the validation
    points) and of ``y_train``. Per sigma one ``exp`` covers the validation
    kernel; per (sigma, lambda) ``d2_train.kernel`` writes the
    training kernel's largest block into the buffer that holds the
    distances, and its Cholesky factor, made in place, solves every size
    through its leading block (``fit_prefixes``). The stored distances are
    never written. With c training rows and v validation rows a call holds
    c^2 + cW + 2cv doubles: ``d2_train``'s buffer, ``d2_val`` and the
    validation kernel.

    Two masks of shape (len(sizes), sigmas, lambdas) say what to score.
    ``dead`` marks candidates that can never win: sizes at or beyond a
    failing pivot, and candidates whose cost is not finite (NaN in the
    result). It is updated in place. ``skip`` marks live candidates that
    need no cost on this fold. A (sigma, lambda) column with nothing outside
    both masks is not factored; any other column is factored at its largest
    size not in ``dead``, skipped or not, because the factor of a smaller
    block differs in its last bits from the leading block of a larger
    factor. So every cost computed is bitwise the cost of a call without
    ``skip``. Returns the costs, 0 where dead or skipped. Before each
    column's factorization it raises ``_Stopped`` if ``stop`` is set.
    """
    costs = np.zeros(dead.shape)
    todo = ~dead if skip is None else ~(dead | skip)
    K_val = np.empty_like(d2_val)
    for si, sigma in enumerate(plan.sigma_grid):
        if not todo[:, si].any():
            continue
        gaussian_kernel(d2_val, sigma, out=K_val)
        for li, lam in enumerate(plan.lambda_grid):
            wanted = np.flatnonzero(todo[:, si, li])
            if not wanted.size:
                continue
            solve = [sizes[i] for i in wanted]
            top = max(m for m, gone in zip(sizes, dead[:, si, li]) if not gone)
            if top > max(solve):
                solve.append(top)  # sets the factor's size; its alpha goes unused
            _check_stop(stop)
            alphas, pivot = fit_prefixes(d2_train.kernel(top, sigma), y_train[:top], lam, solve)
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
                skip: np.ndarray | None = None,
                stop: threading.Event | None = None) -> np.ndarray:
    """Validation costs of B training chains on one fold, shape
    (len(sizes), sigmas, lambdas, B).

    ``chains`` (B, n) holds rows of ``train``; chain b's training set of size
    m is its first m rows, scored on the rows ``val``. Chain by chain, cdist
    fills two buffers over its first c = max(sizes) rows, against themselves
    (``_ChainDistances``) and the v validation rows, so a visit holds at most
    c^2 + cW + 2cv doubles, W <= 64: the distances with each kernel and its
    factor in one (W + c) x c buffer, and the validation distances and
    kernel (c x v). The visit allocates its two distance buffers once for
    all its chains and frees them when it returns; the validation kernel is
    ``_grid_costs``' own, so it is not held while cdist holds its row block.
    ``dead`` and ``skip``, of the result's shape, are as for
    ``_grid_costs``; ``dead`` is updated in place. A chain with every
    candidate dead or skipped gets no cdist and costs 0. Before each chain,
    and in ``_grid_costs`` before each factorization, it raises ``_Stopped``
    if ``stop`` is set.
    """
    X, y = train.descriptors, train.labels
    top = max(sizes)
    # one pair of buffers for all chains: blocks freed per chain let malloc
    # return their pages, and each chain faulted them in again (~4x the faults)
    d2_chain, d2_val = _ChainDistances(top), np.empty((top, len(val)))
    costs = np.zeros(dead.shape)
    idle = (dead if skip is None else dead | skip).all(axis=(0, 1, 2))
    for b in np.flatnonzero(~idle):
        _check_stop(stop)
        chain = chains[b, :top]
        Xc = X[chain]
        d2_chain.store(Xc)
        cdist(Xc, X[val], out=d2_val)
        costs[..., b] = _grid_costs(d2_chain, d2_val, y[chain], y[val], sizes, plan,
                                    dead[..., b], None if skip is None else skip[..., b], stop)
    return costs


def _fold_means(sums: np.ndarray, excluded: np.ndarray, folds: int) -> np.ndarray:
    """Mean fold costs from their sums: inf where ``excluded``, NaN where a
    fold's cost was not finite."""
    return np.where(excluded & ~np.isnan(sums), np.inf, sums / folds)


def _pruned_search(train: LabeledSet, plan: ExperimentPlan, folds: list,
                   stop: threading.Event | None = None) -> np.ndarray:
    """Mean fold costs of a (sizes, sigmas, lambdas, B) candidate grid, with
    every candidate that cannot be chosen reported as inf and not scored on
    every fold.

    ``folds`` holds each fold's ``(val, chains, sizes)``, which
    ``_fold_costs`` scores (and which raises ``_Stopped`` once ``stop`` is
    set). Three passes:

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
    _, chains, sizes = folds[0]
    shape = (len(sizes), len(plan.sigma_grid), len(plan.lambda_grid), len(chains))
    sums = np.zeros(shape)
    dead = np.zeros(shape, dtype=bool)
    pruned = np.zeros(shape, dtype=bool)

    def add_fold(fi, skip):
        sums[...] += _fold_costs(train, plan, *folds[fi], dead, skip, stop)

    add_fold(0, None)
    incumbent = np.zeros(shape[1:], dtype=bool)
    for alive, fold0 in zip(~dead, sums):
        if alive.any():
            incumbent.flat[np.argmin(np.where(alive, fold0, np.inf))] = True
    others = np.broadcast_to(~incumbent, shape)
    for fi in range(1, len(folds)):
        add_fold(fi, others)
    means = np.where(dead | others, np.inf, sums / len(folds))
    bound = means.min(axis=(1, 2, 3), keepdims=True)
    for fi in range(1, len(folds)):
        pruned |= others & ~dead & (sums / len(folds) > bound)
        add_fold(fi, ~others | pruned)
    return _fold_means(sums, dead | pruned, len(folds))


class _PlainCv:
    """sigma x lambda grid search on a fixed training set (URS / FPS).
    ``evaluate`` raises ``_Stopped`` once ``stop`` is set."""

    def __init__(self, train: LabeledSet, plan: ExperimentPlan, seed: int,
                 stop: threading.Event | None = None):
        self.train = train
        self.plan = plan
        self.seed = seed
        self.stop = stop
        self.val_folds = _fold_partition(len(train), plan.folds, seed)

    def evaluate(self) -> np.ndarray:
        """Mean fold costs, shape (sigmas, lambdas, 1): inf for a candidate
        whose factorization failed or that ``_pruned_search`` dropped, NaN
        for one whose cost was not finite."""
        rows = np.arange(len(self.train))
        folds = [(val, np.setdiff1d(rows, val)[None], [len(rows) - len(val)])
                 for val in self.val_folds]
        return _pruned_search(self.train, self.plan, folds, self.stop)[0]


class _GgfpsCv(_PlainCv):
    """sigma x lambda x beta grid search where each beta candidate re-selects
    a training subset inside every fold's training portion.

    Fold sub-selections are prefixes of per-(fold, beta) selection chains
    built at the largest mirrored target size, so one call evaluates all
    target sizes in one pass, consistently with chain truncation. Before the
    search, the chains of every fold and beta are selected in one lockstep
    call over the training set, each fold's chains excluding its validation
    rows (one call per distinct chain length, where the cap at a fold's pool
    size makes the lengths differ), and kept as index arrays (folds x betas x
    chain length in all).
    """

    def evaluate(self, target_sizes: list[int]) -> np.ndarray:
        """Mean fold costs, shape (len(target_sizes), sigmas, lambdas, betas),
        with inf and NaN as for ``_PlainCv.evaluate``."""
        plan, train = self.plan, self.train
        n_betas = len(plan.beta_grid)
        lengths = [_mirror_size(max(target_sizes), plan.folds, len(train) - len(val))
                   for val in self.val_folds]
        chains = [None] * len(lengths)
        for chain_len in dict.fromkeys(lengths):  # distinct lengths, in fold order
            group = [fi for fi, length in enumerate(lengths) if length == chain_len]
            exclude = np.zeros((len(group), len(train)), dtype=bool)
            for row, fi in zip(exclude, group):
                row[self.val_folds[fi]] = True
            # Python ints: derive_seed hashes the repr of its parts
            seeds = [derive_seed(self.seed, "fold-select", fi, bi)
                     for fi in group for bi in range(n_betas)]
            picks, _ = ggfps_chains(train.descriptors, train.gradient_norms,
                                    plan.beta_grid * len(group), seeds, chain_len,
                                    exclude=exclude)
            for k, fi in enumerate(group):
                chains[fi] = picks[k * n_betas:(k + 1) * n_betas]
        folds = [(val, fold_chains, [_mirror_size(ts, plan.folds, n) for ts in target_sizes])
                 for val, fold_chains, n in zip(self.val_folds, chains, lengths)]
        return _pruned_search(train, plan, folds, self.stop)


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


def cross_validate(train: LabeledSet, plan: ExperimentPlan, seed: int = 0,
                   stop: threading.Event | None = None) -> CvChoice:
    """sigma x lambda grid search for a URS or FPS training set: the folds
    partition ``train``, and the choice minimizes the mean fold cost. It is
    the exhaustive search's choice, though candidates that cannot win are
    not scored on every fold (see ``_pruned_search``). Once ``stop`` (a
    threading.Event) is set it raises ``_Stopped`` before the next
    factorization."""
    return choose_from_costs(_PlainCv(train, plan, seed, stop).evaluate(), plan,
                             with_beta=False)


def _test_blocks(train_size: int, test_size: int) -> list[tuple[int, int]]:
    """(start, stop) of the blocks of test columns that the final fit scores
    at a time: B columns each, B the largest multiple of 64 whose train_size x
    B kernel fits ``cdist``'s budget of doubles (at least 64), and the
    remainder folded into the last block, which so holds B to 2B - 1 columns
    (a test set under 2B is one block).

    Every block starts at a multiple of 64 and holds at least 64 columns, and
    the last ends where the whole kernel does. OpenBLAS's matrix-vector
    product then gives each prediction bitwise as on the whole train x test
    kernel (the tests check its Haswell and Sandybridge kernels); a last block
    shorter than B, of 1 to 3 columns, changed the last bit of some."""
    b = max(64, _CDIST_BLOCK // train_size // 64 * 64)
    starts = range(0, max(test_size // b, 1) * b, b)
    return list(zip(starts, [*starts[1:], test_size]))


def _fit_and_score(L: LabeledSet, sel: np.ndarray, choice: CvChoice) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Fit on the selection, score on the remainder of the labeled set.

    It holds the train Gram matrix (ts^2 doubles), factored in place and
    freed after the solve, then one train x test kernel block of B to 2B - 1
    columns at a time (``_test_blocks``): never the whole train x test kernel.
    """
    test = np.setdiff1d(np.arange(len(L)), sel)
    X_tr = L.descriptors[sel]
    # the Gram is bitwise symmetric, so .T is its Fortran block: factored in place, freed here
    (alpha,), pivot = fit_prefixes(gaussian_gram(X_tr, X_tr, choice.sigma).T, L.labels[sel],
                                   choice.lam, [len(sel)])
    if pivot:
        raise FactorizationError(pivot)
    pred = np.empty(len(test))
    with _finite("test predictions"):
        for start, stop in _test_blocks(len(sel), len(test)):
            K_test = gaussian_gram(X_tr, L.descriptors[test[start:stop]], choice.sigma)
            pred[start:stop] = predict(K_test, alpha)
        if not np.isfinite(pred).all():  # from coefficients past the float range
            raise FloatingPointError("not finite")
    mae, rmse, abs_err = _errors(pred, L.labels[test])
    return mae, rmse, test, abs_err


def _picks(L: LabeledSet, plan: ExperimentPlan, method: str, ts_list: list[int],
           labeled_size: int, rep: int, stop: threading.Event | None = None):
    """Yield, per train size in ``ts_list``, the (choice, selection) of
    ``method`` on ``L``; each selection is a prefix of a max(ts_list) chain.

    URS / FPS cross-validate a size's prefix when it is asked for. GGFPS
    cross-validates every size at once and chooses each size's beta in
    order up to the first choice that fails; one lockstep call then selects
    the chain of every distinct beta chosen, each bitwise ``ggfps`` with
    that beta and seed. The failing size raises when it is asked for. Once
    ``stop`` is set, a cross-validation raises ``_Stopped``.
    """
    master = plan.master_seed
    sel_seed = derive_seed(master, "select", method, labeled_size, rep)
    n_chain = max(ts_list)
    if method != "GGFPS":
        chain = np.asarray(urs(len(L), n_chain, sel_seed) if method == "URS"
                           else fps(L.descriptors, n_chain, seed=sel_seed))
        for ts in ts_list:
            seed = derive_seed(master, "cv", method, labeled_size, ts, rep)
            yield cross_validate(L.subset(chain[:ts]), plan, seed, stop), chain[:ts]
        return
    choices, failure = [], None
    cv = _GgfpsCv(L, plan, derive_seed(master, "cv", method, labeled_size, rep), stop)
    for costs in cv.evaluate(ts_list):
        try:
            choices.append(choose_from_costs(costs, plan, with_beta=True))
        except (FactorizationError, FloatingPointError) as exc:  # raised at its size's turn
            failure = exc
            break
    betas = sorted({c.beta for c in choices})
    if betas:
        picks, _ = ggfps_chains(L.descriptors, L.gradient_norms, betas,
                                [sel_seed] * len(betas), n_chain)
        chains = dict(zip(betas, picks))
    for choice, ts in zip(choices, ts_list):
        yield choice, chains[choice.beta][:ts]
    if failure is not None:
        raise failure


def _run_replicate(universe: LabeledSet, plan: ExperimentPlan, labeled_size: int,
                   ts_list: list[int], rep: int, stop: threading.Event):
    """The selections and cross-validations of one (labeled size, replicate)
    job: its labeled set, then each (method, train size) cell in plan order.

    Returns (labeled_global, cells, failure): the labeled set's universe
    rows, each picked cell's (method, train size, choice, selection) in
    order, and the ReplicateError of the cell that failed, after which none
    is picked (None if none failed). Once ``stop`` is set
    it returns with the cells picked so far: at the next cell boundary, or
    inside a cross-validation before its next factorization (``_Stopped``).
    """
    labeled_global = np.asarray(
        urs(len(universe), labeled_size, derive_seed(plan.master_seed, "labeled", labeled_size, rep))
    )
    L = universe.subset(labeled_global)
    cells = []
    for method in plan.methods:
        picks = _picks(L, plan, method, ts_list, labeled_size, rep, stop)
        for ts in ts_list:
            try:
                _check_stop(stop)
                choice, sel = next(picks)
            except _Stopped:
                return labeled_global, cells, None
            except Exception as exc:  # noqa: BLE001 - annotate the failing cell
                failure = ReplicateError(method, labeled_size, ts, rep, exc)
                failure.__cause__ = exc
                return labeled_global, cells, failure
            cells.append((method, ts, choice, sel))
    return labeled_global, cells, None


def _pick_replicates(universe: LabeledSet, plan: ExperimentPlan, jobs: list, workers: int):
    """``_run_replicate`` for every job, on ``workers`` threads: the main
    thread and workers - 1 helpers, each taking the next job in order.

    Each job has one stop event: no worker starts a job whose event is set,
    and a running job returns within one factorization of it. A job that
    fails or raises sets the later jobs' events; a serial run would not have
    reached them. Returns each job's result or exception in job order, None
    for a job never started. SIGINT and SIGTERM reach the main thread only
    (helpers block them); when it raises, also while it waits for the
    helpers, it sets every event and joins them before the exception leaves.
    """
    results = [None] * len(jobs)
    lock, stops = threading.Lock(), [threading.Event() for _ in jobs]
    order = iter(range(len(jobs)))

    def work():
        while True:
            with lock:
                j = next(order, None)
            if j is None or stops[j].is_set():
                return
            try:
                results[j] = _run_replicate(universe, plan, *jobs[j], stops[j])
                failed = results[j][2] is not None
            except Exception as exc:  # noqa: BLE001 - raised in job order by the caller
                results[j], failed = exc, True
            if failed:
                for stop in stops[j + 1:]:
                    stop.set()

    def helper():
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        work()

    helpers = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=helper, name="ggfps-lab-replicates", daemon=True)
            thread.start()
            helpers.append(thread)
        work()
        for thread in helpers:
            thread.join()
    except BaseException:
        for stop in stops:
            stop.set()
        for thread in helpers:  # a helper not joined above
            thread.join()
        raise
    return results


def _run_cells(universe: LabeledSet, plan: ExperimentPlan, threads: int = 1):
    """Every cell of the plan, grouped by (method, labeled size, train size)
    in plan order, each group's replicates in order:
    [((method, ls, ts), cells), ...].

    It runs in two phases. First the selections and cross-validations of
    every (labeled size, replicate) job (``_run_replicate``), on
    min(``threads``, jobs) workers with scipy's OpenBLAS on one thread
    (``krr.scipy_blas_on_one_thread``); where that pool cannot be set, on
    the main thread alone and the pool as it is. Then every final fit
    (``_fit_and_score``), in the main thread on scipy's pool as it was, in
    (job, method, train size) order, on the job's labeled set made again.
    So the outputs are the same for any worker count, and the first cell in
    that order that fails, in either phase, raises its ReplicateError, as in
    a serial run.
    """
    if max(plan.labeled_sizes) > len(universe):
        raise ValueError(f"plan.labeled_sizes: labeled size {max(plan.labeled_sizes)} exceeds "
                         f"the universe size {len(universe)}")
    jobs = [(ls, [ts for ts in plan.train_sizes if ts < ls], rep)
            for ls in plan.labeled_sizes for rep in range(plan.bootstraps)]
    with scipy_blas_on_one_thread() as pinned:
        picked = _pick_replicates(universe, plan, jobs, min(threads, len(jobs)) if pinned else 1)
    groups: dict[tuple[str, int, int], list[_CellResult]] = {
        (method, ls, ts): [] for method in plan.methods for ls in plan.labeled_sizes
        for ts in plan.train_sizes if ts < ls}
    for (ls, _, rep), result in zip(jobs, picked):
        if isinstance(result, Exception):
            raise result
        labeled_global, cells, failure = result
        L = universe.subset(labeled_global)
        for method, ts, choice, sel in cells:
            try:
                mae, rmse, test, abs_err = _fit_and_score(L, sel, choice)
            except Exception as exc:  # noqa: BLE001 - annotate the failing cell
                raise ReplicateError(method, ls, ts, rep, exc) from exc
            groups[method, ls, ts].append(
                _CellResult(
                    method=method, labeled_size=ls, train_size=ts, replicate=rep,
                    mae=mae, rmse=rmse, sigma=choice.sigma, lam=choice.lam, beta=choice.beta,
                    test_global=labeled_global[test], test_abs_err=abs_err,
                    sel_global=labeled_global[sel],
                )
            )
        if failure is not None:
            raise failure
    return list(groups.items())


def bin_errors_by_force_norm(test_errors) -> list[tuple[float, float, int, float, float]]:
    """Sort (force_norm, abs_err) pairs by force norm and fill bins of
    ``BIN_CAPACITY`` pairs; returns one (bin_lo, bin_hi, count, abs_err_mean,
    abs_err_var) tuple per bin.

    The last bin may be smaller; bounds are the extreme force norms inside
    each bin; the error statistics are per-bin mean and population variance.
    A statistic that overflows raises FloatingPointError naming its bin.
    """
    # an array is read in place; only an input with no length is listed first
    arr = np.asarray(test_errors if hasattr(test_errors, "__len__") else list(test_errors),
                     dtype=float)
    if arr.size == 0:
        raise ValueError("empty input: nothing to bin")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected (force_norm, abs_err) pairs")
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    bins = []
    for start in range(0, len(arr), BIN_CAPACITY):
        chunk = arr[start : start + BIN_CAPACITY]
        lo, hi = float(chunk[0, 0]), float(chunk[-1, 0])
        mean, var = _mean_var(chunk[:, 1], f"force-norm bin [{lo!r}, {hi!r}]: absolute "
                                           "error mean and variance")
        bins.append((lo, hi, len(chunk), mean, var))
    return bins


def silverman_bandwidth(samples: np.ndarray) -> float:
    """0.9 * min(std, IQR / 1.34) * n^(-1/5); falls back to the std when the
    IQR collapses to zero on heavily tied data.

    The std is taken of the samples scaled by 2^-e, with 2^e the power of two
    just above max |x|, and scaled back by 2^e, so it neither underflows
    (samples spread about 1e-300) nor overflows (about 1e308) where the std
    itself is a normal float. Scaling by a power of two is exact for normal
    results, so where the plain std neither underflows nor overflows, h is
    bitwise the same."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    e = int(np.frexp(max(samples.max(), -samples.min()))[1]) if n else 0
    # a std or IQR beyond the float range is inf, and min() takes the other's scale
    with np.errstate(over="ignore"):
        std = float(np.ldexp(np.std(np.ldexp(samples, -e), ddof=1), e))
        q1, q3 = np.percentile(samples, [25.0, 75.0])
        iqr = float(q3 - q1)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * n ** (-0.2)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _kde_bandwidth(samples: np.ndarray) -> float:
    """Silverman bandwidth h of ``samples``; DegenerateDistributionError where
    they have zero spread, or so little that the peak 1 / (h sqrt(2 pi)) overflows."""
    h = silverman_bandwidth(samples)
    if not h > 0:
        raise DegenerateDistributionError("samples have zero spread")
    if h * _SQRT_2PI < 1.0 / np.finfo(float).max:  # Python floats overflow to inf silently
        raise DegenerateDistributionError("samples have too little spread for a finite density")
    return h


def kde_1d(samples, eval_grid) -> np.ndarray:
    """Gaussian kernel density estimate with the Silverman bandwidth."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(eval_grid, dtype=float)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    h = _kde_bandwidth(samples)
    # each step in place; one that overflows gives exp(-inf) = 0, correctly rounded, and
    # a normalizer past the float range gives 0, within n / 1.8e308 of the true density
    with np.errstate(over="ignore"):
        z = np.subtract(grid[:, None], samples[None, :])
        np.exp(np.multiply(np.square(np.divide(z, h, out=z), out=z), -0.5, out=z), out=z)
        return z.sum(axis=1) / (len(samples) * h * _SQRT_2PI)


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


def _curves_csv(groups) -> str:
    """One row per group: the mean and population variance of its
    replicates' test MAE and RMSE, and each replicate's chosen beta, sigma
    and lambda."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "method", "labeled_size", "train_size", "mae_mean", "mae_var",
        "rmse_mean", "rmse_var", "chosen_beta", "chosen_sigma", "chosen_lambda",
    ])
    for (method, ls, ts), group in groups:
        cell = f"method={method}, labeled_size={ls}, train_size={ts}"
        mae = _mean_var(np.array([c.mae for c in group]), f"{cell}: MAE mean and variance")
        rmse = _mean_var(np.array([c.rmse for c in group]), f"{cell}: RMSE mean and variance")
        writer.writerow([
            method, ls, ts, *(format_float(v) for v in mae + rmse),
            dumps_17g([c.beta for c in group]),
            dumps_17g([c.sigma for c in group]),
            dumps_17g([c.lam for c in group]),
        ])
    return out.getvalue()


def _bins_csv(groups, universe: LabeledSet) -> str:
    out = io.StringIO()
    out.write("method,labeled_size,train_size,bin_lo,bin_hi,count,abs_err_mean,abs_err_var\n")
    for (method, ls, ts), group in groups:
        fn = np.concatenate([universe.gradient_norms[c.test_global] for c in group])
        err = np.concatenate([c.test_abs_err for c in group])
        for lo, hi, count, mean, var in bin_errors_by_force_norm(np.stack([fn, err], axis=1)):
            out.write(f"{method},{ls},{ts},{format_float(lo)},{format_float(hi)},"
                      f"{count},{format_float(mean)},{format_float(var)}\n")
    return out.getvalue()


# (series name, LabeledSet attribute) of each KDE quantity
_KDE_QUANTITIES = (("force_norm", "gradient_norms"), ("label", "labels"))


def _kde_span(values: np.ndarray) -> tuple[float, float]:
    """The ends of the KDE grid of ``values``, 4h beyond the extremes, with h
    from ``_kde_bandwidth`` (which raises). Where a sum overflows, either may
    be inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = _kde_bandwidth(values)
        return values.min() - 4.0 * h, values.max() + 4.0 * h


def _export_bytes(universe: LabeledSet, plan: ExperimentPlan) -> dict[str, int]:
    """Lower bounds on the bytes that the heatmap and the KDE export each
    hold at once, by the plan field that sizes them; one is held at a time.

    ``heatmap_grid`` (2-D descriptors only): one group's grid x grid int64
    counts, plus heatmap.csv's grid^2 lines per group, each at least as long
    as one whose row, column and count are single digits. ``kde_points``:
    kde.csv's kde_points lines per (quantity, series), each at least as long
    as one whose x and density are single digits, plus the one kde_points x
    samples float matrix that ``kde_1d`` holds, exactly, over the universe or
    the largest selected series (max train size x bootstraps)."""
    groups = [(m, ls, ts) for m in plan.methods for ls in plan.labeled_sizes
              for ts in plan.train_sizes if ts < ls]
    need = {}
    if universe.dim == 2:
        line_bytes = sum(len(f"{m},{ls},{ts},0,0,0\n") for m, ls, ts in groups)
        need["heatmap_grid"] = plan.heatmap_grid**2 * (8 + line_bytes)
    line_bytes = sum(len(f"labeled,{q},,,0,0\n")
                     + sum(len(f"{m},{q},{ls},{ts},0,0\n") for m, ls, ts in groups)
                     for q, _ in _KDE_QUANTITIES)
    samples = max(len(universe), max(plan.train_sizes) * plan.bootstraps)
    need["kde_points"] = plan.kde_points * (line_bytes + 8 * samples)
    return need


def _check_exports(universe: LabeledSet, plan: ExperimentPlan) -> None:
    """Reject, before any compute, a run whose KDE or heatmap export is bound
    to fail: a quantity whose bandwidth or grid over the dataset is not
    finite, or whose spread is too small (``_kde_bandwidth``), selected
    series that hold fewer than 2 samples (min(train_sizes) x bootstraps), a
    2-D descriptor column whose range is not finite, which would make every
    heatmap edge NaN, or a heatmap or KDE grid whose export needs more than
    the machine's physical memory (``_export_bytes``)."""
    for c, column in enumerate(universe.descriptors.T if universe.dim == 2 else ()):
        lo, hi = float(column.min()), float(column.max())
        if not np.isfinite(hi - lo):  # Python floats overflow to inf silently
            raise ValueError(f"x{c}: the heatmap grid over the descriptor range "
                             f"[{lo!r}, {hi!r}] is not finite (values too large)")
    for quantity, attr in _KDE_QUANTITIES:
        values = getattr(universe, attr)
        if len(values) < 2:
            continue
        try:
            lo, hi = _kde_span(values)
        except DegenerateDistributionError as exc:
            raise DegenerateDistributionError(
                f"{quantity}: over all {len(values)} dataset points: {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if not np.isfinite(width):
            raise ValueError(
                f"{quantity}: the KDE bandwidth or grid over all {len(values)} dataset "
                "points is not finite (values too large)"
            )
    if min(plan.train_sizes) * plan.bootstraps < 2:
        raise ValueError(
            f"plan: min(train_sizes) x bootstraps = {min(plan.train_sizes) * plan.bootstraps}; "
            "each selected KDE series needs at least 2 samples"
        )
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for name, need in _export_bytes(universe, plan).items():
        if need > memory:
            raise ValueError(f"plan.{name}: {getattr(plan, name)} needs at least "
                             f"{need / 2**30:.3g} GiB for its export, more than this "
                             f"machine's {memory / 2**30:.3g} GiB of physical memory")


def _kde_csv(groups, universe: LabeledSet, plan: ExperimentPlan) -> str:
    out = io.StringIO()
    out.write("series,quantity,labeled_size,train_size,x,density\n")
    for quantity, attr in _KDE_QUANTITIES:
        base = getattr(universe, attr)
        lo, hi = _kde_span(base)
        grid = np.linspace(lo, hi, plan.kde_points)
        for x, d in zip(grid, kde_1d(base, grid)):
            out.write(f"labeled,{quantity},,,{format_float(x)},{format_float(d)}\n")
        for (method, ls, ts), group in groups:
            samples = np.concatenate([base[c.sel_global] for c in group])
            try:
                density = kde_1d(samples, grid)
            except DegenerateDistributionError as exc:
                raise DegenerateDistributionError(f"{quantity}: method={method}, labeled_size="
                                                  f"{ls}, train_size={ts}: {exc}") from None
            for x, d in zip(grid, density):
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
    threads: int = 1,
) -> None:
    """Run the full protocol and write curves.csv, bins.csv, kde.csv,
    heatmap.csv (2-D descriptors only) and manifest.json into ``out_dir``.

    After compute, each output is built, written and dropped in turn, and
    ``write_outputs`` publishes them with one rename: a run that fails or is
    interrupted leaves ``out_dir`` and its parents as they were. A dataset or
    plan whose KDE or heatmap export cannot succeed is rejected before compute.

    The selections and cross-validations of the (labeled size, replicate)
    jobs run on up to ``threads`` workers (an integer >= 1, else ValueError
    before compute), and the final fits after them in the calling thread
    (``_run_cells``): the outputs are the same for any ``threads``. For the
    first phase this function sets scipy's OpenBLAS to one thread, and
    restores its count before the second, on which the final fits' bytes
    depend (see ``krr``).

    The largest matrices held at once are, per worker, the larger of a
    cross-validation visit's c^2 + cW + 2cv doubles (c training and v
    validation rows, W <= 64 the widest column block of
    ``_ChainDistances``), allocated by the visit and freed when it returns,
    and a GGFPS replicate's selection arrays, about 33 bytes per (chain,
    labeled row) for its folds x betas chains (``_GgfpsCv``, ``_greedy``),
    which can exceed the visit; one OpenBLAS buffer; and its running job's
    labeled set (a finished job keeps indices only). Then a final fit's
    ts^2 Gram and one ts x (B to 2B - 1) block of test kernel
    (``_fit_and_score``): no matrix spans the test set."""
    import scipy  # for its version only: ``import ggfps_lab`` does not load it
    t0 = time.perf_counter()
    threads = check_int("threads", threads, 1)
    _check_exports(universe, plan)
    groups = _run_cells(universe, plan, threads)

    def outputs():
        yield "curves.csv", _curves_csv(groups)
        yield "bins.csv", _bins_csv(groups, universe)
        yield "kde.csv", _kde_csv(groups, universe, plan)
        if universe.dim == 2:
            yield "heatmap.csv", _heatmap_csv(groups, universe, plan)
        manifest = {
            "schema_version": 1, "tool": {"name": "ggfps-lab", "version": _tool_version},
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "plan": asdict(plan), "universe": {"size": len(universe), "dim": universe.dim},
            "wall_clock_seconds": time.perf_counter() - t0,
        }
        yield "manifest.json", dumps_17g(manifest, indent=2) + "\n"

    write_outputs(out_dir, outputs())

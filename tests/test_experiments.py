import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggfps_lab import experiments, krr
from ggfps_lab.dataset import LabeledSet
from ggfps_lab.experiments import (
    CV_COSTS,
    CvChoice,
    DegenerateDistributionError,
    ExperimentPlan,
    ReplicateError,
    _ChainDistances,
    _GgfpsCv,
    _PlainCv,
    _cost,
    _fold_costs,
    _grid_costs,
    _mirror_size,
    _check_exports,
    _column_blocks,
    _curves_csv,
    _run_cells,
    bin_errors_by_force_norm,
    choose_from_costs,
    cross_validate,
    derive_seed,
    kde_1d,
    selection_heatmap_2d,
    silverman_bandwidth,
)
from ggfps_lab.krr import (
    _CDIST_BLOCK, FactorizationError, cdist, fit_prefixes, gaussian_gram, gaussian_kernel,
    predict,
)
from ggfps_lab.sampling import SamplerConfig, ggfps, ggfps_chains
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample
from oracles import exhaustive_ggfps_cv, exhaustive_plain_cv, kde_expression, plain_silverman

SMALL_GRIDS = dict(sigma_grid=(0.5, 1.5), lambda_grid=(1e-6,), beta_grid=(0.0, 1.0))


def small_plan(**overrides):
    base = dict(
        labeled_sizes=(60,), train_sizes=(10, 20), bootstraps=2,
        folds=5, master_seed=123, **SMALL_GRIDS,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


@pytest.fixture(scope="module")
def universe():
    return uniform_domain_sample(StyblinskiTang(), 120, seed=77)


class TestExperimentPlan:
    def test_grids_are_sorted_and_deduped(self):
        plan = small_plan(sigma_grid=(2.0, 0.5, 2.0), beta_grid=(1.0, 0.0, 1.0))
        assert plan.sigma_grid == (0.5, 2.0)
        assert plan.beta_grid == (0.0, 1.0)

    def test_method_canonical_order(self):
        plan = small_plan(methods=("GGFPS", "URS"))
        assert plan.methods == ("URS", "GGFPS")

    def test_list_fields_take_lists_and_1d_arrays(self):
        plan = small_plan(labeled_sizes=[60], train_sizes=np.array([20, 10]),
                          sigma_grid=np.array([1.5, 0.5]), methods=np.array(["FPS", "URS"]))
        assert plan == small_plan(methods=("URS", "FPS"))
        with pytest.raises(ValueError, match="sigma_grid: must be a list"):
            small_plan(sigma_grid=np.array([[0.5, 1.5]]))

    def test_sizes_that_cannot_fit_are_rejected_at_construction(self):
        # a train size equal to the largest labeled size was dropped silently
        with pytest.raises(ValueError, match="^train_sizes: train size 60 is not below any "
                                             "labeled size: nothing would remain"):
            small_plan(train_sizes=(20, 60))
        with pytest.raises(ValueError, match="^labeled_sizes: labeled size 4 cannot fill 5"):
            small_plan(labeled_sizes=(4, 60), train_sizes=(3, 10), methods=("GGFPS",))
        with pytest.raises(ValueError, match="^train_sizes: train size 3 cannot fill 5"):
            small_plan(train_sizes=(3, 10), methods=("FPS", "GGFPS"))
        # GGFPS folds partition the labeled set, so a small train size is fine
        assert small_plan(train_sizes=(3, 10), methods=("GGFPS",)).train_sizes == (3, 10)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="folds"):
            small_plan(folds=1)
        with pytest.raises(ValueError, match="cv_cost"):
            small_plan(cv_cost="MSE")
        with pytest.raises(ValueError, match="methods"):
            small_plan(methods=("URS", "BOGUS"))
        with pytest.raises(ValueError, match="train_sizes"):
            small_plan(labeled_sizes=(30,), train_sizes=(40,))
        with pytest.raises(ValueError, match="sigma_grid"):
            small_plan(sigma_grid=())
        with pytest.raises(ValueError, match="bootstraps"):
            small_plan(bootstraps=0)
        # chose beta 1e308, whose swept schedule is NaN and infinite
        with pytest.raises(ValueError, match="beta_grid"):
            small_plan(beta_grid=(0.0, 1e308))


class TestCrossValidate:
    def test_single_candidate_grids(self, universe):
        plan = small_plan(sigma_grid=(1.3,), lambda_grid=(1e-5,), beta_grid=(0.4,))
        train = universe.subset(range(30))
        assert cross_validate(train, plan, seed=5) == CvChoice(sigma=1.3, lam=1e-5, beta=None)
        costs = _GgfpsCv(train, plan, seed=5).evaluate([10])[0]
        assert (choose_from_costs(costs, plan, with_beta=True)
                == CvChoice(sigma=1.3, lam=1e-5, beta=0.4))

    def test_recovers_teacher_bandwidth(self):
        rng = np.random.default_rng(50)
        X = rng.uniform(-4, 4, size=(80, 2))
        sigma_star = 1.0
        K = gaussian_gram(X, X, sigma_star)
        y = K @ rng.normal(size=80)
        train = LabeledSet(
            descriptors=X, labels=y, gradient_norms=np.ones(80),
        )
        plan = small_plan(
            labeled_sizes=(80,), train_sizes=(40,),
            sigma_grid=(0.0625, 0.25, 1.0, 4.0, 16.0), lambda_grid=(1e-8,),
        )
        choice = cross_validate(train, plan, seed=3)
        assert choice.sigma in (0.25, 1.0, 4.0)

    def test_fold_order_does_not_change_choice(self, universe):
        # the pruned search drops different candidates in either order, so
        # the whole grids are compared on the exhaustive search
        plan = small_plan()
        train = universe.subset(range(25))
        ctx = _PlainCv(train, plan, seed=9)
        costs, full = ctx.evaluate(), exhaustive_plain_cv(ctx)
        ctx.val_folds = list(reversed(ctx.val_folds))
        costs_reversed, full_reversed = ctx.evaluate(), exhaustive_plain_cv(ctx)
        assert np.allclose(full, full_reversed, rtol=0, atol=1e-12)
        assert_prunes(costs, full)
        assert_prunes(costs_reversed, full_reversed)
        assert (choose_from_costs(costs, plan, with_beta=False)
                == choose_from_costs(costs_reversed, plan, with_beta=False))

    def test_tie_break_prefers_smaller_candidates(self):
        plan = small_plan(sigma_grid=(0.5, 1.0), lambda_grid=(1e-8, 1e-4),
                          beta_grid=(0.0, 1.0))
        costs = np.ones((2, 2, 2))
        choice = choose_from_costs(costs, plan, with_beta=True)
        assert choice == CvChoice(sigma=0.5, lam=1e-8, beta=0.0)

    def test_choice_skips_costs_that_are_not_numbers(self):
        plan = small_plan(sigma_grid=(0.5, 1.0), lambda_grid=(1e-8,), beta_grid=(0.0,))
        costs = np.array([[[np.nan]], [[2.0]]])
        assert choose_from_costs(costs, plan, with_beta=False).sigma == 1.0
        with pytest.raises(FloatingPointError, match="cv_cost: the validation RMSE"):
            choose_from_costs(np.array([[[np.nan]], [[np.inf]]]), plan, with_beta=False)
        with pytest.raises(FactorizationError):
            choose_from_costs(np.full((2, 1, 1), np.inf), plan, with_beta=False)

    def test_degenerate_fold_rejected(self, universe):
        plan = small_plan()
        with pytest.raises(ValueError, match="fold"):
            cross_validate(universe.subset(range(3)), plan, seed=0)


class TestFoldCosts:
    def test_each_chain_is_bitwise_grid_costs_on_its_own_cdist(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        rng = np.random.default_rng(65)
        val = np.arange(100, 120)
        # overlapping chains: each is scored on its own rows, shared or not
        chains = np.stack([rng.permutation(40)[:18] for _ in range(3)])
        sizes = [1, 7, 15]
        dead = np.zeros((3, 2, 2, 3), dtype=bool)
        costs = _fold_costs(universe, plan, val, chains, sizes, dead)
        X, y = universe.descriptors, universe.labels
        for b, chain in enumerate(chains):
            sub = chain[:15]
            dead_b = np.zeros((3, 2, 2), dtype=bool)
            direct = _grid_costs(chain_distances(X[sub]),
                                 cdist(X[sub], X[val]),
                                 y[sub], y[val], sizes, plan, dead_b)
            assert np.array_equal(costs[..., b], direct)
            assert np.array_equal(dead[..., b], dead_b)
        assert dead[1:, 1, 0].all() and not dead[0].any()

    def test_chain_with_nothing_to_score_gets_no_cdist(self, universe, monkeypatch):
        """A chain whose candidates are all skipped, or all dead, is not
        scored: no cdist call, costs 0, and its ``dead`` entries untouched.
        The other chains are bitwise what a call without ``skip`` gives."""
        plan = small_plan(**DEAD_GRIDS)
        rng = np.random.default_rng(66)
        val = np.arange(100, 120)
        chains = np.stack([rng.permutation(40)[:18] for _ in range(4)])
        sizes = [1, 7, 15]
        full_dead = np.zeros((3, 2, 2, 4), dtype=bool)
        full = _fold_costs(universe, plan, val, chains, sizes, full_dead)
        calls = []

        def counting_cdist(XA, XB, **kwargs):
            calls.append(XA.copy())
            return cdist(XA, XB, **kwargs)

        monkeypatch.setattr(experiments, "cdist", counting_cdist)
        dead = np.zeros((3, 2, 2, 4), dtype=bool)
        dead[..., 3] = True
        skip = np.zeros_like(dead)
        skip[..., 1] = True
        costs = _fold_costs(universe, plan, val, chains, sizes, dead, skip)
        assert len(calls) == 4
        assert np.array_equal(calls[0], universe.descriptors[chains[0, :15]])
        assert np.array_equal(calls[2], universe.descriptors[chains[2, :15]])
        assert (costs[..., [1, 3]] == 0).all()
        assert not dead[..., 1].any() and dead[..., 3].all()
        assert np.array_equal(costs[..., [0, 2]], full[..., [0, 2]])
        assert np.array_equal(dead[..., [0, 2]], full_dead[..., [0, 2]])

    def test_ggfps_cv_cdist_calls_cover_each_chain_never_the_pool(self, universe, monkeypatch):
        """Each chain of a fold visit that has a candidate to score gets one
        cdist call per column block of its first c = max(sizes) rows, that
        block's rows against every row from the block's first on, then one
        over the c rows against the fold's validation rows; none covers the
        pool, and a chain whose candidates are all dead or skipped gets none.
        The chains here span two blocks. Each chain is a chain selected for
        that fold, bitwise the solo ``ggfps`` chain of its beta with the
        derived seed."""
        plan = small_plan(beta_grid=(0.0, 0.4, 1.3, 2.0))
        ctx, pools, calls, visits = record_ggfps_cv(universe, plan, monkeypatch, [5, 100])
        assert len(visits) >= plan.folds
        X = universe.descriptors
        selected = {}
        for fi, betas, seeds, chains in calls:
            chain_len = _mirror_size(100, plan.folds, len(pools[fi]))
            # pool >> chain: the matrices must not grow with the pool
            assert chain_len < len(pools[fi])
            pool = universe.subset(pools[fi])
            for beta, seed, chain in zip(betas, seeds, chains):
                bi = plan.beta_grid.index(beta)
                assert seed == derive_seed(5, "fold-select", fi, bi)
                config = SamplerConfig(method="GGFPS", n=chain_len, beta=beta, seed=seed)
                assert chain.tolist() == ggfps(pool, config).indices
                selected.setdefault(fi, []).append(pools[fi][chain])
        for fi, chains, top, idle, cdist_calls in visits:
            assert all(any(np.array_equal(chain, kept) for kept in selected[fi])
                       for chain in chains)
            blocks = _column_blocks(top)
            assert len(blocks) == 2
            per_chain = len(blocks) + 1
            assert len(cdist_calls) == per_chain * (~idle).sum()
            for k, chain in enumerate(chains[~idle]):
                *train_calls, (val_XA, val_XB) = cdist_calls[k * per_chain:(k + 1) * per_chain]
                for (j0, j1), (XA, XB) in zip(blocks, train_calls):
                    assert np.array_equal(XA, X[chain[j0:j1]])
                    assert np.array_equal(XB, X[chain[j0:top]])
                assert np.array_equal(val_XA, X[chain[:top]])
                assert np.array_equal(val_XB, X[ctx.val_folds[fi]])
        # the later visits leave some chains unscored
        assert any(idle.any() for _, _, _, idle, _ in visits)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 30), st.integers(0, 2**32))
    def test_cdist_transpose_is_bitwise_its_fortran_block(self, dim, n, seed):
        # _fit_and_score hands the transpose of its Gram, gaussian_gram(X, X),
        # to the factorization as its Fortran-ordered form, which relies on this
        # symmetry
        rng = np.random.default_rng(seed)
        # a few repeated rows and a wide spread of scales
        A = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        A[rng.integers(0, n, size=n // 3)] = A[0]
        d2 = cdist(A, A)
        assert d2.T.flags.f_contiguous
        assert d2.T.tobytes(order="A") == d2.tobytes(order="A")

    def test_visit_holds_one_chains_blocks_not_a_union_matrix(self):
        """One visit's matrices are one chain's blocks at a time. 20 chains
        of 100 rows from an 800-row training portion cover about 740 rows,
        whose union matrix alone is 4.4 MB; a chain's five 100 x 100 blocks
        are 0.4 MB."""
        rng = np.random.default_rng(3)
        train = uniform_domain_sample(StyblinskiTang(), 900, seed=3)
        val = np.arange(800, 900)
        chains = np.stack([rng.permutation(800)[:100] for _ in range(20)])
        plan = small_plan(sigma_grid=(0.5, 1.5), lambda_grid=(1e-4,))
        dead = np.zeros((2, 2, 1, 20), dtype=bool)
        # the first call loads scipy's OpenBLAS
        _fold_costs(train, plan, val, chains, [50, 100], dead.copy())
        tracemalloc.start()
        try:
            _fold_costs(train, plan, val, chains, [50, 100], dead)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_visit_holds_one_square_block(self):
        """A visit at c = 400 training and v = 200 validation rows holds one
        (W + c) x c buffer for the distances, each kernel and its factor
        (W <= 64), and the validation distances and kernel (c x v each):
        c^2 + 64 c + 2 c v doubles at most, plus one row block of cdist
        (``_CDIST_BLOCK`` doubles) of slack, which also covers numpy's
        iterator buffers on the strided kernel blocks (128 KiB) and small
        arrays. A separate c x c distance matrix, kernel or factor copy
        would add c^2 doubles."""
        c, v = 400, 200
        rng = np.random.default_rng(4)
        train = uniform_domain_sample(StyblinskiTang(), 700, seed=4)
        val = np.arange(500, 700)
        chains = rng.permutation(500)[None, :c]
        plan = small_plan(sigma_grid=(0.5, 1.5), lambda_grid=(1e-8, 1e-4))
        dead = np.zeros((1, 2, 2, 1), dtype=bool)
        _fold_costs(train, plan, val, chains, [c], dead.copy())
        tracemalloc.start()
        try:
            _fold_costs(train, plan, val, chains, [c], dead)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not dead.any()
        assert peak < (c * c + 64 * c + 2 * c * v + _CDIST_BLOCK) * 8

    def test_visit_frees_its_buffers_when_it_returns(self):
        """What a visit still holds when it returns is the cost array it
        returns, plus a few KiB of slack for numpy's small-array caches:
        the distance buffers it allocated are freed. A buffer kept for the
        next visit would hold c^2 + cW + cv doubles, 2.1 MB here."""
        c = 400
        rng = np.random.default_rng(4)
        train = uniform_domain_sample(StyblinskiTang(), 700, seed=4)
        val = np.arange(500, 700)
        chains = rng.permutation(500)[None, :c]
        plan = small_plan(sigma_grid=(0.5, 1.5), lambda_grid=(1e-8, 1e-4))
        dead = np.zeros((1, 2, 2, 1), dtype=bool)
        _fold_costs(train, plan, val, chains, [c], dead.copy())
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            costs = _fold_costs(train, plan, val, chains, [c], dead)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not dead.any()
        assert held - before <= costs.nbytes + 4096

    def test_ggfps_cv_selects_each_fold_chain_once(self, universe, monkeypatch):
        """Each fold's chains are selected before the search, in one lockstep
        call for every beta, and kept for the fold's visits: one
        ``ggfps_chains`` call per fold, in fold order."""
        plan = small_plan(beta_grid=(0.0, 0.4, 1.3, 2.0))
        _, _, calls, visits = record_ggfps_cv(universe, plan, monkeypatch, [5, 10])
        assert [fi for fi, _, _, _ in calls] == list(range(plan.folds))
        assert all(betas == list(plan.beta_grid) for _, betas, _, _ in calls)
        # some fold is visited twice, so the kept chains are what is pinned
        assert len(visits) > len(calls)


def test_export_bytes_bound_the_exports_from_below(universe):
    """The sizes that ``_check_exports`` compares with physical memory do
    not exceed what the exports hold: heatmap.csv with its grid^2 counts,
    and kde.csv with its kde_points x samples matrix."""
    plan = small_plan(methods=("URS", "FPS"), labeled_sizes=(40, 60), heatmap_grid=12,
                      kde_points=11)
    groups = _run_cells(universe, plan)
    need = experiments._export_bytes(universe, plan)
    heatmap = experiments._heatmap_csv(groups, universe, plan)
    kde = experiments._kde_csv(groups, universe, plan)
    assert need["heatmap_grid"] <= 8 * 12**2 + len(heatmap)
    samples = max(len(universe), max(plan.train_sizes) * plan.bootstraps)
    assert need["kde_points"] <= len(kde) + 8 * 11 * samples
    assert set(need) == {"heatmap_grid", "kde_points"}


def test_export_phase_holds_one_export_at_a_time(universe, tmp_path, monkeypatch):
    """With kde.csv and heatmap.csv each about 8 MB, the export phase peaks
    below 1.5 times one of them: each is dropped once written, and written in
    slices, never encoded whole. Building every text first held both, plus
    the encoded copy of the one being written (24 MB)."""
    size = 8_000_000
    plan = small_plan(methods=("URS",))
    groups = _run_cells(universe, plan)
    monkeypatch.setattr(experiments, "_run_cells", lambda universe, plan, threads: groups)
    for name in ("_kde_csv", "_heatmap_csv"):
        monkeypatch.setattr(experiments, name, lambda groups, universe, plan: "0" * size)
    tracemalloc.start()
    try:
        experiments.run_experiment(universe, plan, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "heatmap.csv").stat().st_size == size
    assert peak < 1.5 * size


def record_ggfps_cv(universe, plan, monkeypatch, target_sizes):
    """Run ``_GgfpsCv.evaluate`` on ``universe`` and record its chain
    selections as (fold, betas, seeds, pool-relative chains) and its fold
    visits as (fold, train-row chains, max(sizes), per chain whether every
    candidate was dead or skipped, [(cdist XA, XB), ...])."""
    ctx = _GgfpsCv(universe, plan, seed=5)
    pools = {fi: np.setdiff1d(np.arange(len(universe)), val)
             for fi, val in enumerate(ctx.val_folds)}
    X = universe.descriptors
    calls, visits = [], []

    def recording_chains(X_pool, g, betas, seeds, n):
        chains, warnings = ggfps_chains(X_pool, g, betas, seeds, n)
        (fi,) = [fi for fi, pool in pools.items() if np.array_equal(X_pool, X[pool])]
        calls.append((fi, list(betas), list(seeds), chains.copy()))
        return chains, warnings

    def recording_fold_costs(train, plan, val, chains, sizes, dead, skip=None):
        (fi,) = [fi for fi, v in enumerate(ctx.val_folds) if np.array_equal(v, val)]
        idle = (dead if skip is None else dead | skip).all(axis=(0, 1, 2))
        visits.append((fi, chains.copy(), max(sizes), idle, []))
        return _fold_costs(train, plan, val, chains, sizes, dead, skip)

    def recording_cdist(XA, XB, **kwargs):
        visits[-1][4].append((XA.copy(), XB.copy()))
        return cdist(XA, XB, **kwargs)

    monkeypatch.setattr(experiments, "ggfps_chains", recording_chains)
    monkeypatch.setattr(experiments, "_fold_costs", recording_fold_costs)
    monkeypatch.setattr(experiments, "cdist", recording_cdist)
    ctx.evaluate(target_sizes)
    return ctx, pools, calls, visits


# sigma = 1e12 makes every kernel entry exactly 1.0, so lambda = 1e-300 fails
# at pivot 2 for every size >= 2: dead candidates that no rounding can revive
DEAD_GRIDS = dict(sigma_grid=(0.5, 1e12), lambda_grid=(1e-300, 1e-4))


def chain_distances(Xc):
    """The squared distances among the rows of ``Xc``, stored as
    ``_fold_costs`` stores a chain's."""
    stored = _ChainDistances(len(Xc))
    stored.store(Xc)
    return stored


class SquareKernels:
    """``_grid_costs``' kernels written from a plain c x c distance matrix
    into a c x c Fortran buffer of their own: the layout that
    ``_ChainDistances`` replaced, kept as the reference it must match."""

    def __init__(self, d2):
        self.d2, self.A = d2, np.empty(d2.shape, order="F")

    def kernel(self, top, sigma):
        return gaussian_kernel(self.d2[:top, :top], sigma, out=self.A[:top, :top])


def direct_costs(d2_train, d2_val, y_train, y_val, sizes, plan):
    """Per-candidate oracle: one solve (``fit_prefixes`` at one size, on a
    compact copy) + predict per (size, sigma, lambda);
    NaN marks a candidate whose factorization fails."""
    out = np.full((len(sizes), len(plan.sigma_grid), len(plan.lambda_grid)), np.nan)
    for i, m in enumerate(sizes):
        for si, sigma in enumerate(plan.sigma_grid):
            K = np.exp(-d2_train[:m, :m] / (2.0 * sigma * sigma))
            K_val = np.exp(-d2_val[:m] / (2.0 * sigma * sigma))
            for li, lam in enumerate(plan.lambda_grid):
                (alpha,), pivot = fit_prefixes(np.array(K, order="F"), y_train[:m], lam, [m])
                if not pivot:
                    out[i, si, li] = _cost(predict(K_val, alpha), y_val, plan.cv_cost)
    return out


@st.composite
def grid_fold(draw):
    """One fold on a coarse lattice (so descriptors repeat), d = 1..3; the
    sizes always include 1 and the whole training set."""
    dim = draw(st.integers(1, 3))
    n_train, n_val = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    coords = st.integers(-3, 3).map(lambda v: 0.5 * v)
    X = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                               min_size=n_train + n_val, max_size=n_train + n_val)))
    y = np.array(draw(st.lists(st.floats(-5, 5), min_size=n_train + n_val,
                               max_size=n_train + n_val)))
    sizes = draw(st.lists(st.integers(1, n_train), max_size=4)) + [1, n_train]
    return X[:n_train], X[n_train:], y[:n_train], y[n_train:], sizes


def constant_gradients(labeled):
    """The set with every gradient norm equal: each beta chain is then the
    FPS chain from its initial point, so a chain selected for a smaller
    target size is a prefix of the one selected for a larger size."""
    return LabeledSet(descriptors=labeled.descriptors, labels=labeled.labels,
                      gradient_norms=np.ones(len(labeled)))


@st.composite
def lattice_set(draw):
    """A labeled set on a coarse lattice (so descriptors repeat), d = 1..3,
    constant gradients, with target sizes that include 1 and one that
    clamps the fold chains to the whole pool."""
    dim, folds = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    n = draw(st.integers(folds, 12))
    coords = st.integers(-2, 2).map(lambda v: 0.5 * v)
    X = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n)))
    g = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    labeled = LabeledSet(descriptors=X, labels=y, gradient_norms=np.full(n, g))
    sizes = draw(st.lists(st.integers(1, n), max_size=3)) + [1, 2 * n]
    return labeled, folds, sizes


def assert_prunes(pruned, full):
    """``pruned``, a pruned search's mean costs of one size, against ``full``,
    the exhaustive search's: every finite entry bitwise equal, every entry it
    dropped (inf or NaN where ``full`` is finite) strictly above the minimum,
    and the same minimizer."""
    kept, valid = np.isfinite(pruned), np.isfinite(full)
    assert np.array_equal(pruned[kept], full[kept])
    assert np.isnan(full[np.isnan(pruned)]).all()
    assert not kept.any() or (full[valid & ~kept] > full[valid].min()).all()
    if valid.any():
        assert (np.argmin(np.where(kept, pruned, np.inf))
                == np.argmin(np.where(valid, full, np.inf)))


class TestGridCosts:
    def test_ggfps_all_sizes_in_one_pass_match_single_size_calls(self, universe):
        # the whole grids are compared on the exhaustive search; the pruned
        # search drops different candidates for one size and for several
        plan = small_plan(**DEAD_GRIDS)
        ctx = _GgfpsCv(constant_gradients(universe), plan, seed=5)
        sizes = [10, 25, 40]
        multi, full = ctx.evaluate(sizes), exhaustive_ggfps_cv(ctx, sizes)
        assert multi.shape == full.shape == (3, 2, 2, 2)
        assert np.isinf(full[:, 1, 0]).all() and np.isfinite(full[:, 1, 1]).all()
        for i, ts in enumerate(sizes):
            single, full_single = ctx.evaluate([ts])[0], exhaustive_ggfps_cv(ctx, [ts])[0]
            assert np.array_equal(np.isinf(full[i]), np.isinf(full_single))
            alive = np.isfinite(full_single)
            assert full[i][alive] == pytest.approx(full_single[alive], rel=1e-8)
            assert_prunes(multi[i], full[i])
            assert_prunes(single, full_single)
            assert (choose_from_costs(multi[i], plan, with_beta=True)
                    == choose_from_costs(single, plan, with_beta=True))

    @settings(max_examples=40, deadline=None)
    @given(lattice_set(), st.integers(0, 2**32))
    def test_ggfps_all_sizes_match_single_size_calls_on_lattices(self, case, seed):
        labeled, folds, sizes = case
        # every candidate is decisive: lambda >= 1e-3, or an exact all-ones kernel
        for grids in (dict(sigma_grid=(0.3, 2.0), lambda_grid=(1e-3, 1e-1)),
                      dict(sigma_grid=(1e12,), lambda_grid=(1e-300, 1e-3))):
            plan = small_plan(folds=folds, beta_grid=(0.0, 0.7, 2.0), **grids)
            ctx = _GgfpsCv(labeled, plan, seed=seed)
            multi, full = ctx.evaluate(sizes), exhaustive_ggfps_cv(ctx, sizes)
            for i, ts in enumerate(sizes):
                single, full_single = ctx.evaluate([ts])[0], exhaustive_ggfps_cv(ctx, [ts])[0]
                assert np.array_equal(np.isinf(full[i]), np.isinf(full_single))
                alive = np.isfinite(full_single)
                assert full[i][alive] == pytest.approx(full_single[alive], rel=1e-8, abs=1e-12)
                assert_prunes(multi[i], full[i])
                assert_prunes(single, full_single)

    def test_plain_cv_is_bitwise_per_candidate_fit_and_predict(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        train = universe.subset(np.arange(40))
        cv = _PlainCv(train, plan, seed=3)
        X, y = train.descriptors, train.labels
        sums = np.zeros((2, 2))
        for val in cv.val_folds:
            tr = np.setdiff1d(np.arange(40), val)
            fold = direct_costs(cdist(X[tr], X[tr]),
                                cdist(X[tr], X[val]),
                                y[tr], y[val], [len(tr)], plan)[0]
            sums += np.nan_to_num(fold, nan=np.inf)
        expected = np.where(np.isinf(sums), np.inf, sums / len(cv.val_folds))
        assert np.isinf(expected[1, 0]) and np.isfinite(expected).sum() == 3
        assert np.array_equal(exhaustive_plain_cv(cv)[:, :, 0], expected)
        assert_prunes(cv.evaluate()[:, :, 0], expected)

    def test_cost_that_is_not_finite_kills_its_candidate(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        X = universe.descriptors
        tr, val = np.arange(20), np.arange(100, 110)
        # labels near 1e160: the squared errors overflow, silently
        y = 1e160 * (1 + universe.labels / 1e3)
        dead = np.zeros((2, 2, 2), dtype=bool)
        costs = _grid_costs(chain_distances(X[tr]),
                            cdist(X[tr], X[val]),
                            y[tr], y[val], [5, 20], plan, dead)
        assert dead.all()
        assert np.isnan(costs[:, 0]).all() and np.isnan(costs[0, 1, 1])
        assert (costs[1:, 1, 0] == 0).all()

    def test_layout_changes_no_bit_and_a_grid_pass_keeps_the_distances(self, universe):
        """Costs and dead candidates are bitwise those of kernels written from
        a plain distance matrix, C- or Fortran-ordered, into a buffer of their
        own; a full grid pass writes neither the stored distances nor the
        validation distances. The chain spans two column blocks."""
        plan = small_plan(**DEAD_GRIDS)
        X, y = universe.descriptors, universe.labels
        tr, val = np.arange(100), np.arange(100, 120)
        d2_train = cdist(X[tr], X[tr])
        d2_val = cdist(X[tr], X[val])
        sizes = [5, 20, 70, 100]
        stored = chain_distances(X[tr])
        assert len(stored.blocks) == 2
        kept = [d2.copy() for d2 in stored.stored]
        kept_val = d2_val.copy()
        results = []
        for kernels in (stored, SquareKernels(d2_train),
                        SquareKernels(np.asfortranarray(d2_train))):
            dead = np.zeros((len(sizes), 2, 2), dtype=bool)
            costs = _grid_costs(kernels, d2_val, y[tr], y[val], sizes, plan, dead)
            results.append((costs.tobytes(), dead.tobytes()))
        assert results[0] == results[1] == results[2]
        assert np.frombuffer(results[0][1], dtype=bool).any()
        assert all(np.array_equal(d2, k) for d2, k in zip(stored.stored, kept))
        assert np.array_equal(d2_val, kept_val)

    @settings(max_examples=60, deadline=None)
    @given(grid_fold())
    def test_multi_size_routine_matches_direct_fits(self, fold):
        X_tr, X_val, y_tr, y_val, sizes = fold
        d2_train = cdist(X_tr, X_tr)
        d2_val = cdist(X_tr, X_val)
        # every candidate is decisive: lambda >= 1e-3, or an exact all-ones kernel
        for grids in (dict(sigma_grid=(0.3, 2.0), lambda_grid=(1e-3, 1e-1)),
                      dict(sigma_grid=(1e12,), lambda_grid=(1e-300, 1e-3))):
            plan = small_plan(**grids)
            dead = np.zeros((len(sizes), len(plan.sigma_grid), len(plan.lambda_grid)), dtype=bool)
            costs = _grid_costs(chain_distances(X_tr), d2_val, y_tr, y_val, sizes, plan, dead)
            expected = direct_costs(d2_train, d2_val, y_tr, y_val, sizes, plan)
            assert np.array_equal(dead, np.isnan(expected))
            assert (costs[dead] == 0).all()
            assert costs[~dead] == pytest.approx(expected[~dead], rel=1e-8, abs=1e-12)


LAYOUT_SIZES = (1, 2, 63, 64, 65, 130, 400, 641)


def layout_tops(stored, c):
    """Sizes 1 and c, and each column block's edge and its neighbours."""
    edges = {j for block in stored.blocks for j in block}
    return sorted(m for m in {1, c} | {e + k for e in edges for k in (-1, 0, 1)} if 1 <= m <= c)


class TestChainDistances:
    def test_blocks_are_few_symmetric_and_at_most_64_wide(self):
        for c in range(1, 700):
            blocks = _column_blocks(c)
            widths = [j1 - j0 for j0, j1 in blocks]
            assert blocks[0][0] == 0 and blocks[-1][1] == c
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert widths == widths[::-1] and max(widths) - min(widths) <= 1
            assert max(widths) <= 64
            # ceil(c / 64) blocks, one more where an odd c needs a middle block
            fewest = -(-c // 64)
            assert len(blocks) == fewest + (fewest % 2 == 0 and c % 2 == 1)

    @pytest.mark.parametrize("c", LAYOUT_SIZES)
    def test_stored_regions_avoid_the_lower_triangle_and_each_other(self, c):
        """Each block's distances sit in the pad rows or the strict upper
        triangle of the factor's block, never on its lower triangle, and no
        two blocks share an entry; together they hold at most c (c + W) / 2
        entries."""
        stored = _ChainDistances(c)
        buf = stored.A.base
        W = buf.shape[0] - c
        assert buf.shape == (W + c, c) and buf.flags.f_contiguous
        assert W == max(j1 - j0 for j0, j1 in stored.blocks)
        owner = np.full(buf.shape, -1)
        for k, d2 in enumerate(stored.stored):
            assert d2.strides == buf.strides
            col, row = divmod((d2.ctypes.data - buf.ctypes.data) // 8, W + c)
            spot = owner[row:row + d2.shape[0], col:col + d2.shape[1]]
            assert spot.shape == d2.shape and (spot == -1).all()
            spot[...] = k
        assert (owner >= 0).sum() == sum((j1 - j0) * (c - j0) for j0, j1 in stored.blocks)
        assert (owner >= 0).sum() <= c * (c + W) // 2
        assert (owner[W:][np.tril_indices(c)] == -1).all()

    @pytest.mark.parametrize("path", ["ctypes", "fallback"])
    @pytest.mark.parametrize("c", LAYOUT_SIZES)
    def test_kernel_and_fit_are_bitwise_the_square_layout(self, monkeypatch, path, c):
        """At every size top (1, c and each block edge +-1) the kernel's lower
        triangle is bitwise ``gaussian_kernel`` of cdist(X, X).T's leading
        block, and the alphas and pivot of ``fit_prefixes`` on it are bitwise
        those of that kernel in a compact Fortran buffer. After the fit, the
        stored distances are unchanged and the next kernel, at another sigma,
        is again the fresh one: through the ctypes binding and through the
        ``scipy.linalg.lapack`` fallback."""
        if path == "fallback":
            monkeypatch.setattr(krr, "_lapack", lambda: None)
        elif krr._lapack() is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        rng = np.random.default_rng(c)
        X = rng.uniform(-2.0, 2.0, size=(c, 3))
        y = rng.normal(size=c)
        stored = chain_distances(X)
        kept = [d2.copy() for d2 in stored.stored]
        square = cdist(X, X).T
        low = 0
        for top in layout_tops(stored, c):
            tril = np.tril_indices(top)
            sizes = sorted({1, (top + 1) // 2, top})
            for sigma, lam in ((20.0, 1e-300), (0.3, 1e-4)):
                expected = gaussian_kernel(square[:top, :top], sigma,
                                           out=np.empty((top, top), order="F"))
                got = stored.kernel(top, sigma)
                assert got[tril].tobytes() == expected[tril].tobytes()
                alphas, pivot = fit_prefixes(got, y[:top], lam, sizes)
                want, want_pivot = fit_prefixes(expected, y[:top], lam, sizes)
                assert pivot == want_pivot
                low += pivot > 0
                for a, b in zip(alphas, want):
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()
                assert all(np.array_equal(d2, k) for d2, k in zip(stored.stored, kept))
        # the wide sigma fails at a pivot near 50, which sizes past it reach
        assert low > 0 or c < 63


@st.composite
def cv_case(draw):
    """A labeled set on a coarse lattice (descriptors repeat, so some
    kernels are singular), with a few repeated labels and gradient norms; a
    plan whose grids hold dead candidates (lambda 1e-300) and exact ties
    (sigma 1e12 and 1e13 both make an all-ones kernel); GGFPS target sizes,
    one of which may clamp the fold chains to the whole pool."""
    dim, folds = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    n = draw(st.integers(folds, 14))
    coords = st.integers(-2, 2).map(lambda v: 0.5 * v)
    X = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 2.5]) | st.floats(-5, 5),
                               min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=n, max_size=n)))
    labeled = LabeledSet(descriptors=X, labels=y, gradient_norms=g)
    plan = small_plan(folds=folds, sigma_grid=(0.3, 2.0, 1e12, 1e13),
                      lambda_grid=(1e-300, 1e-6, 1e-2), beta_grid=(0.0, 0.7, 2.0),
                      cv_cost=draw(st.sampled_from(CV_COSTS)))
    sizes = draw(st.lists(st.integers(1, 2 * n), min_size=1, max_size=3))
    return labeled, plan, sizes


class TestPrunedSearch:
    @settings(max_examples=60, deadline=None)
    @given(cv_case(), st.integers(0, 2**32))
    def test_pruned_search_matches_exhaustive_search(self, case, seed):
        labeled, plan, sizes = case
        plain = _PlainCv(labeled, plan, seed=seed)
        ggfps_cv = _GgfpsCv(labeled, plan, seed=seed)
        pairs = [(plain.evaluate(), exhaustive_plain_cv(plain), False)]
        pairs += [(pruned, full, True) for pruned, full in
                  zip(ggfps_cv.evaluate(sizes), exhaustive_ggfps_cv(ggfps_cv, sizes))]
        for pruned, full, with_beta in pairs:
            assert_prunes(pruned, full)
            if np.isfinite(full).any():
                assert (choose_from_costs(pruned, plan, with_beta)
                        == choose_from_costs(full, plan, with_beta))

    def test_pruning_factors_fewer_candidates_than_the_exhaustive_search(
            self, universe, monkeypatch):
        calls = []

        def counting_fit_prefixes(*args):
            calls.append(args[3])
            return fit_prefixes(*args)

        monkeypatch.setattr(experiments, "fit_prefixes", counting_fit_prefixes)
        plan = small_plan(sigma_grid=(0.25, 0.5, 1.0, 2.0, 4.0), lambda_grid=(1e-8, 1e-4),
                          beta_grid=(0.0, 0.5, 1.0, 2.0))
        train = universe.subset(range(60))
        plain, ggfps_cv = _PlainCv(train, plan, seed=4), _GgfpsCv(train, plan, seed=4)
        counts = []
        for run in (plain.evaluate, lambda: exhaustive_plain_cv(plain),
                    lambda: ggfps_cv.evaluate([10, 20]),
                    lambda: exhaustive_ggfps_cv(ggfps_cv, [10, 20])):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts[1] == plan.folds * 5 * 2 and counts[0] < counts[1]
        assert counts[3] == plan.folds * 5 * 2 * 4 and counts[2] < counts[3]


def curve_rows(groups):
    """curves.csv's rows for the grouped cells ``groups`` (``_run_cells``),
    read back as dicts of strings."""
    return list(csv.DictReader(io.StringIO(_curves_csv(groups))))


class TestLearningCurve:
    def test_determinism_and_metric_identity(self, universe):
        plan = small_plan()
        rows_a = curve_rows(_run_cells(universe, plan))
        rows_b = curve_rows(_run_cells(universe, plan))
        assert rows_a == rows_b
        assert len(rows_a) == 3 * 2  # methods x train sizes
        for r in rows_a:
            assert float(r["rmse_mean"]) >= float(r["mae_mean"]) - 1e-12
            assert float(r["mae_var"]) >= 0 and float(r["rmse_var"]) >= 0
            assert len(json.loads(r["chosen_sigma"])) == plan.bootstraps

    def test_single_test_point_collapses_metrics(self, universe):
        plan = small_plan(
            labeled_sizes=(12,), train_sizes=(11,), bootstraps=1, methods=("URS",),
        )
        (row,) = curve_rows(_run_cells(universe, plan))
        assert float(row["mae_mean"]) == pytest.approx(float(row["rmse_mean"]), rel=1e-12)
        assert float(row["mae_var"]) == 0.0

    def test_methods_share_labeled_sets(self, universe):
        plan = small_plan(train_sizes=(10,))
        cells = [c for _, group in _run_cells(universe, plan) for c in group]
        by_method = {}
        for c in cells:
            key = (c.method, c.replicate)
            by_method[key] = set(c.sel_global) | set(c.test_global)
        for rep in range(plan.bootstraps):
            pools = [by_method[(m, rep)] for m in plan.methods]
            assert pools[0] == pools[1] == pools[2]

    def test_backwards_chain_nesting_at_fixed_beta(self, universe):
        plan = small_plan(beta_grid=(0.7,), methods=("FPS", "GGFPS"))
        cells = [c for _, group in _run_cells(universe, plan) for c in group]
        for method in plan.methods:
            for rep in range(plan.bootstraps):
                group = {c.train_size: c for c in cells
                         if c.method == method and c.replicate == rep}
                short, long = group[10], group[20]
                assert np.array_equal(long.sel_global[:10], short.sel_global)

    def test_ggfps_selection_is_the_solo_chain_of_its_chosen_beta(self, universe):
        plan = small_plan(beta_grid=(0.0, 0.4, 1.3, 2.0), methods=("GGFPS",))
        cells = [c for _, group in _run_cells(universe, plan) for c in group]
        for c in cells:
            labeled_global = np.asarray(experiments.urs(
                len(universe), c.labeled_size,
                derive_seed(plan.master_seed, "labeled", c.labeled_size, c.replicate)))
            seed = derive_seed(plan.master_seed, "select", "GGFPS", c.labeled_size, c.replicate)
            n_chain = max(plan.train_sizes)
            config = SamplerConfig(method="GGFPS", n=n_chain, beta=c.beta, seed=seed)
            chain = ggfps(universe.subset(labeled_global), config).indices
            assert c.sel_global.tolist() == labeled_global[chain[:c.train_size]].tolist()
        # the replicates choose more than one beta, so one call selects several
        assert len({(c.replicate, c.beta) for c in cells}) > plan.bootstraps

    def test_bootstrap_aggregation_matches_two_pass_oracle(self, universe):
        plan = small_plan(bootstraps=4, train_sizes=(10,))
        groups = _run_cells(universe, plan)
        cells = [c for _, group in groups for c in group]
        for r in curve_rows(groups):
            maes = [c.mae for c in cells
                    if c.method == r["method"] and c.train_size == int(r["train_size"])]
            mean = math.fsum(maes) / len(maes)
            var = math.fsum((m - mean) ** 2 for m in maes) / len(maes)
            assert float(r["mae_mean"]) == pytest.approx(mean, abs=1e-12)
            assert float(r["mae_var"]) == pytest.approx(var, abs=1e-12)

    def test_no_valid_train_size_rejected(self):
        with pytest.raises(ValueError, match="remain"):
            small_plan(labeled_sizes=(20,), train_sizes=(20,))

    def test_replicate_error_identifies_cell(self):
        degenerate = LabeledSet(
            descriptors=np.zeros((30, 2)), labels=np.zeros(30),
            gradient_norms=np.ones(30),
        )
        plan = small_plan(
            labeled_sizes=(20,), train_sizes=(10,), bootstraps=1,
            methods=("FPS",), lambda_grid=(1e-300,),
        )
        with pytest.raises(ReplicateError) as err:
            curve_rows(_run_cells(degenerate, plan))
        assert err.value.method == "FPS"
        assert err.value.labeled_size == 20 and err.value.train_size == 10
        assert "replicate=0" in str(err.value)


# labels near the float range, where a residual's square, a prediction or
# the KDE grid overflows; unit labels weighted so that most runs compute
WORKER_LABEL_SCALES = [1.0] * 5 + [1e154, 1e300, 1.7e308]


@st.composite
def worker_count_cases(draw):
    """A dataset of 30-200 rows at d = 1-3, with duplicate rows and maybe
    zero gradients, and a plan for it: 1-2 labeled sizes, 1-3 bootstraps,
    any subset of methods, 2-3 folds, and grids that kill candidates
    (lambda = 5e-324, and sigma = 1e-160, whose 2 sigma^2 underflows to a
    subnormal)."""
    n, dim = draw(st.integers(30, 200)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.uniform(-3.0, 3.0, size=(n, dim))
    X[rng.integers(0, n, size=draw(st.integers(0, n // 3)))] = X[0]
    g = rng.uniform(0.0, 5.0, size=n)
    g[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    y = rng.uniform(-1.0, 1.0, size=n) * draw(st.sampled_from(WORKER_LABEL_SCALES))
    folds = draw(st.integers(2, 3))
    labeled = draw(st.lists(st.integers(folds + 1, min(n, 60)), min_size=1, max_size=2))
    train = [draw(st.integers(folds, min(labeled) - 1))]
    train += draw(st.lists(st.integers(folds, max(labeled) - 1), max_size=1))
    subset = lambda values: draw(st.lists(st.sampled_from(values), min_size=1, max_size=2))
    plan = ExperimentPlan(
        labeled_sizes=labeled, train_sizes=train, bootstraps=draw(st.integers(1, 3)),
        sigma_grid=subset([0.5, 2.0, 1e-160]), lambda_grid=subset([1e-6, 5e-324]),
        beta_grid=subset([0.0, 1.0, 3.0]), folds=folds,
        methods=draw(st.lists(st.sampled_from(experiments.METHODS), min_size=1, max_size=3)),
        master_seed=draw(st.integers(0, 99)), heatmap_grid=5, kde_points=11)
    return LabeledSet(descriptors=X, labels=y, gradient_norms=g), plan


def run_outputs(universe, plan, out, threads):
    """The outputs of ``run_experiment`` as {name: bytes}, manifest.json
    parsed and without its wall_clock_seconds; or the type and message of
    the exception it raised."""
    try:
        experiments.run_experiment(universe, plan, out, threads)
    except Exception as exc:  # noqa: BLE001 - compared across worker counts
        return type(exc), str(exc)
    outputs = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(outputs.pop("manifest.json"))
    del manifest["wall_clock_seconds"]
    return outputs, manifest


class TestWorkerCount:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=worker_count_cases())
    def test_worker_count_never_changes_a_result(self, case):
        """``run_experiment`` at 1, 2 and 3 workers writes the same outputs
        or raises the same exception; it leaves no helper thread, scipy's
        pool at its prior count and, on failure, the parent of ``out`` empty."""
        universe, plan = case
        lib = krr.bundled_openblas("scipy")
        pool = getattr(lib, "scipy_openblas_get_num_threads", None)
        threads_before = threading.enumerate()
        pool_before = pool and pool()
        results = []
        with tempfile.TemporaryDirectory() as root:
            for workers in (1, 2, 3):
                parent = Path(root) / str(workers)
                parent.mkdir()
                results.append(run_outputs(universe, plan, parent / "out", workers))
                assert threading.enumerate() == threads_before
                assert (pool and pool()) == pool_before
                if isinstance(results[-1][0], type):
                    assert list(parent.iterdir()) == []
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("threads, message", [
        ("2", "threads: must be an integer"), (True, "threads: must be an integer"),
        (0, "threads: must be >= 1"), (-3, "threads: must be >= 1"),
    ])
    def test_invalid_threads_raise_before_compute(self, universe, tmp_path, monkeypatch,
                                                  threads, message):
        """A worker count that is not an integer >= 1 raises a ValueError
        naming ``threads`` before any compute, and writes nothing; it once
        raised a bare TypeError inside the run ("2"), or ran serially."""
        monkeypatch.setattr(experiments, "_run_cells", lambda *args: pytest.fail("computed"))
        with pytest.raises(ValueError) as err:
            experiments.run_experiment(universe, small_plan(), tmp_path / "out", threads)
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()


BLOCK_PROBE = """
import ctypes, json, sys
import numpy as np
from ggfps_lab import experiments
from ggfps_lab.experiments import CvChoice, _fit_and_score
from ggfps_lab.krr import bundled_openblas, gaussian_gram, predict
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample

corename = bundled_openblas("numpy").scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
blocks = []
def recording(K_test, alpha):
    blocks.append((K_test.shape[1], alpha, predict(K_test, alpha)))
    return blocks[-1][2]
experiments.predict = recording
pool = uniform_domain_sample(StyblinskiTang(), 2400, seed=9)
rng = np.random.default_rng(9)
cases = json.loads(sys.argv[1])
choice = CvChoice(sigma=1.5, lam=1e-8, beta=None)
result = {"core": corename().decode(), "differ": [], "widths": []}
for ts, n in cases:
    L = pool.subset(rng.permutation(len(pool))[:ts + n])
    sel = rng.permutation(ts + n)[:ts]
    blocks.clear()
    _, _, test, _ = _fit_and_score(L, sel, choice)
    alpha = blocks[0][1]
    whole = alpha @ gaussian_gram(L.descriptors[sel], L.descriptors[test], choice.sigma)
    if np.concatenate([p for _, _, p in blocks]).tobytes() != whole.tobytes():
        result["differ"].append([ts, n])
    result["widths"].append([w for w, _, _ in blocks])
print(json.dumps(result))
"""


class TestFinalFit:
    @pytest.mark.parametrize("ts, b", [(1, 32768), (7, 4672), (100, 320), (200, 128),
                                       (400, 64), (2000, 64)])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.5, 2.0, 3.7, 20.0])
    def test_blocks_fold_the_remainder(self, ts, b, factor):
        """Blocks of B columns, B a multiple of 64 from cdist's budget of
        doubles, the remainder folded into the last: B to 2B - 1 columns
        each, and a test set under 2B is one block."""
        n = max(1, int(factor * b) - 1)
        blocks = experiments._test_blocks(ts, n)
        starts, stops = zip(*blocks)
        assert starts == tuple(range(0, len(blocks) * b, b))
        assert stops == (*starts[1:], n)
        assert len(blocks) == max(1, n // b)
        assert n < b or all(b <= stop - start < 2 * b for start, stop in blocks)

    @pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
    def test_blocked_predictions_are_bitwise_the_whole_product(self, core):
        """Under numpy's OpenBLAS kernels for ``core`` (read at load from
        OPENBLAS_CORETYPE), the final fit's blocked predictions equal the
        whole train x test product alpha @ K bitwise: at B = 64 for every test
        size under 2B and every remainder of two and three blocks, and at
        B = 128 for every remainder of two blocks. A last block shorter than
        B changed the last bit of some. Both OpenBLAS pools run one thread,
        as ``curve`` runs numpy's."""
        cases = ([(400, n) for n in range(1, 4 * 64)] + [(400, 1200)]
                 + [(200, n) for n in range(2 * 128, 3 * 128)] + [(200, 1799)])
        src = Path(experiments.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", BLOCK_PROBE, json.dumps(cases)], capture_output=True,
            text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_CORETYPE": core,
                 "OPENBLAS_NUM_THREADS": "1"},
        )
        if proc.returncode and "scipy_openblas_get_corename64_" in proc.stderr:
            pytest.skip("numpy bundles no OpenBLAS here")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        if result["core"] != core:
            pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernels")
        assert result["differ"] == []
        for (ts, n), widths in zip(cases, result["widths"]):
            b = 64 if ts == 400 else 128
            assert sum(widths) == n and (widths == [n] if n < 2 * b else min(widths) == b)

    def test_peak_holds_the_gram_and_one_block(self):
        """ts = 200 train and 4,000 test points: the Gram (ts^2 doubles), then
        one block of B = 128 to 255 columns (under ts x 2B doubles), plus
        cdist's row block and 8 float vectors of the test set's length. The
        whole train x test kernel was ts x 4,000 doubles, 6.4 MB."""
        ts, n = 200, 4000
        labeled = uniform_domain_sample(StyblinskiTang(), ts + n, seed=10)
        sel = np.random.default_rng(10).permutation(ts + n)[:ts]
        choice = CvChoice(sigma=1.5, lam=1e-8, beta=None)
        experiments._fit_and_score(labeled, sel, choice)  # loads scipy's OpenBLAS
        tracemalloc.start()
        try:
            experiments._fit_and_score(labeled, sel, choice)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (ts * ts + ts * 2 * 128 + _CDIST_BLOCK + 8 * n) * 8


class TestMetricIdentities:
    def test_zero_error_and_rmse_dominates(self):
        from ggfps_lab.experiments import _errors

        y = np.array([1.0, -2.0, 3.0])
        mae, rmse, abs_err = _errors(y, y)
        assert mae == 0.0 and rmse == 0.0 and np.all(abs_err == 0.0)
        rng = np.random.default_rng(64)
        for _ in range(20):
            pred, truth = rng.normal(size=(2, 50))
            mae, rmse, _ = _errors(pred, truth)
            assert rmse >= mae - 1e-15


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        a = derive_seed(1, "labeled", 100, 0)
        assert a == derive_seed(1, "labeled", 100, 0)
        assert a != derive_seed(1, "labeled", 100, 1)
        assert a != derive_seed(2, "labeled", 100, 0)
        assert 0 <= a < 2**63


class TestBinErrors:
    def test_identical_errors_single_bin(self):
        bins = bin_errors_by_force_norm([(float(i), 2.5) for i in range(30)])
        assert bins == [(0.0, 29.0, 30, 2.5, 0.0)]

    def test_capacity_arithmetic(self):
        bins = bin_errors_by_force_norm([(float(i), 0.1) for i in range(61)])
        assert [count for _, _, count, _, _ in bins] == [30, 30, 1]

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(60)
        fn = rng.uniform(0, 50, size=300)
        err = rng.uniform(0, 2, size=300)
        bins = bin_errors_by_force_norm(np.stack([fn, err], axis=1))
        order = np.argsort(fn, kind="stable")
        for i, (lo, hi, _, b_mean, b_var) in enumerate(bins):
            chunk = order[i * 30 : (i + 1) * 30]
            mean = math.fsum(err[chunk]) / len(chunk)
            var = math.fsum((err[j] - mean) ** 2 for j in chunk) / len(chunk)
            assert b_mean == pytest.approx(mean, abs=1e-12)
            assert b_var == pytest.approx(var, abs=1e-12)
            assert lo == fn[chunk].min() and hi == fn[chunk].max()

    @pytest.mark.parametrize("where, big", [(45, 1.7e308), (75, 1e160), (40, np.inf)],
                             ids=["mean", "variance", "inf"])
    def test_overflow_names_the_first_failing_bin(self, where, big):
        # a bin with a nan error gives nan statistics and raises nothing;
        # the first bin that overflows is named
        err = np.ones(100)
        err[5] = np.nan
        err[[where, where + 1, 95]] = big
        pairs = np.stack([np.arange(100.0), err], axis=1)
        first = where // 30 * 30
        with pytest.raises(FloatingPointError,
                           match=rf"^force-norm bin \[{first}\.0, {first + 29}\.0\]: absolute"):
            bin_errors_by_force_norm(pairs)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bin_errors_by_force_norm([])

    def test_reads_an_array_in_place(self):
        """An (n, 2) array, as ``_bins_csv`` passes, is binned with no copy
        through a list of n row views, which took the traced peak to 10.5x
        the array (64 MiB at 400,000 pairs); an iterator, which has no
        length, is still listed first and gives the same bins."""
        pairs = np.random.default_rng(61).uniform(0, 50, size=(30_000, 2))
        assert (bin_errors_by_force_norm(iter(pairs[:90].tolist()))
                == bin_errors_by_force_norm(pairs[:90]))
        tracemalloc.start()
        try:
            bin_errors_by_force_norm(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * pairs.nbytes


class TestKde:
    def test_symmetric_two_points(self):
        grid = np.linspace(-3, 3, 61)
        density = kde_1d([-1.0, 1.0], grid)
        assert density == pytest.approx(density[::-1], abs=1e-12)

    def test_normal_peak(self):
        rng = np.random.default_rng(61)
        samples = rng.standard_normal(10000)
        peak = kde_1d(samples, np.array([0.0]))[0]
        assert abs(peak - 1 / math.sqrt(2 * math.pi)) < 0.1 / math.sqrt(2 * math.pi)

    def test_integral_is_one(self):
        rng = np.random.default_rng(62)
        samples = rng.standard_normal(500) * 2.3 + 5
        lo = samples.mean() - 6 * samples.std()
        hi = samples.mean() + 6 * samples.std()
        grid = np.linspace(lo, hi, 2001)
        integral = np.trapezoid(kde_1d(samples, grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            kde_1d([2.0, 2.0, 2.0], np.linspace(0, 4, 10))

    def test_density_beyond_the_float_range_rejected(self):
        """Samples spread about 1e-310 have a subnormal bandwidth whose peak
        density 1 / (h sqrt(2 pi)) overflows: rejected as for zero spread,
        where the final division overflowed and returned inf."""
        samples = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-310
        assert silverman_bandwidth(samples) > 0
        with pytest.raises(DegenerateDistributionError, match="too little spread"):
            kde_1d(samples, np.linspace(-1e-309, 4e-309, 11))

    @pytest.mark.parametrize("samples, grid", [
        (np.linspace(0.0, 2e307, 40), np.linspace(0.0, 2e307, 5)),
        (np.array([-1e308, 1e308, -0.9e308, 0.9e308]), np.array([-1e308, 0.0, 1e308])),
    ])
    def test_normalizer_past_the_float_range_gives_zero_densities_without_warning(
            self, samples, grid):
        """40 samples spread to 2e307: n h is finite, n h sqrt(2 pi) is not,
        and numpy warned of the overflow in that scalar product. 4 samples
        spread to 2e308: h sqrt(2 pi) is not finite either, and numpy warned
        of it in the bandwidth's too-little-spread check."""
        h = silverman_bandwidth(samples)
        assert math.isfinite(h) and math.isinf(len(samples) * h * 2.5066)
        density = kde_1d(samples, grid)
        assert density.tobytes() == np.zeros(len(grid)).tobytes()

    def test_kde_csv_rejects_a_selected_series_with_too_little_spread(self):
        """The dataset's labels spread widely and pass the export check; a
        selected series of labels spread about 1e-310 is rejected at export,
        where kde.csv held inf densities."""
        labels = np.concatenate([np.arange(4.0) * 1e-310, np.linspace(-5.0, 5.0, 36)])
        universe = LabeledSet(descriptors=np.arange(80.0).reshape(40, 2), labels=labels,
                              gradient_norms=np.linspace(1.0, 2.0, 40))
        plan = small_plan(labeled_sizes=(20,), train_sizes=(4,), bootstraps=1, folds=2,
                          kde_points=11)
        _check_exports(universe, plan)
        cell = types.SimpleNamespace(sel_global=np.arange(4))
        with pytest.raises(DegenerateDistributionError, match="^label: method=URS, labeled_size="
                           "20, train_size=4: samples have too little spread"):
            experiments._kde_csv([(("URS", 20, 4), [cell])], universe, plan)

    def test_tied_quartiles_fall_back_to_std(self):
        samples = np.array([5.0] * 40 + [0.0, 10.0])
        density = kde_1d(samples, np.linspace(-5, 15, 101))
        assert np.all(np.isfinite(density)) and density.max() > 0

    @pytest.mark.parametrize("case", ["normal", "near_float_max", "subnormal_h", "wide_grid"])
    def test_bitwise_the_whole_matrix_expression(self, case):
        """The in-place KDE is bitwise the expression over whole-matrix
        temporaries, also where a difference or a quotient overflows."""
        rng = np.random.default_rng(67)
        if case == "normal":
            samples = rng.standard_normal(700) * 3.0 + 1.0
            grid = np.linspace(-12.0, 14.0, 301)
        elif case == "near_float_max":  # x - s overflows to +-inf
            samples = np.concatenate([rng.uniform(-1.0, 1.0, 60) * 1.7e308, [1.79e308, -1.79e308]])
            grid = np.linspace(-1.0, 1.0, 101) * 1.79e308
        elif case == "subnormal_h":  # (x - s) / h overflows; the densities do not
            samples = rng.integers(0, 400, 50) * 1e-310
            grid = np.concatenate([np.linspace(-1e-308, 5e-308, 50), [-1.0, 1e-300, 1.0]])
        else:
            samples = rng.standard_normal(50)
            grid = np.array([-1e308, -1e200, -1.0, 0.0, 1e-320, 1.0, 1e154, 1e200, 1e308])
        h = silverman_bandwidth(samples)
        assert h > 0 and (case != "subnormal_h" or h < 2.0**-1022)
        got, expected = kde_1d(samples, grid), kde_expression(samples, grid, h)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=40),
           st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def test_bitwise_the_whole_matrix_expression_on_any_floats(self, samples, grid):
        samples, grid = np.array(samples), np.array(grid)
        with np.errstate(all="ignore"):
            h = silverman_bandwidth(samples)
            if not (h > 0 and np.isfinite(h)):
                return
            if h * np.sqrt(2.0 * np.pi) < 1.0 / np.finfo(float).max:
                with pytest.raises(DegenerateDistributionError, match="too little spread"):
                    kde_1d(samples, grid)
                return
            got, expected = kde_1d(samples, grid), kde_expression(samples, grid, h)
        assert got.tobytes() == expected.tobytes()

    def test_peaks_at_one_matrix(self):
        """One kde_points x N matrix, plus slack of 16 float vectors of each
        length: the whole-matrix expression held three such matrices."""
        rng = np.random.default_rng(68)
        points, n = 300, 4000
        samples, grid = rng.standard_normal(n), np.linspace(-5.0, 5.0, points)
        kde_1d(samples, grid)
        tracemalloc.start()
        try:
            kde_1d(samples, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * points * n + 16 * 8 * (points + n)


class TestSilvermanBandwidth:
    def test_spread_about_1e_300_is_not_zero(self):
        """np.std of [0, 1, 2, 3] * 1e-300 underflows to 0; the bandwidth
        takes it from the samples scaled by a power of two, so the KDE and
        the export check accept them."""
        samples = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-300
        assert plain_silverman(samples) == 0.0
        std = math.sqrt(5.0 / 3.0) * 1e-300
        h = silverman_bandwidth(samples)
        assert h == pytest.approx(0.9 * min(std, 1.5e-300 / 1.34) * 4 ** -0.2, rel=1e-14)
        density = kde_1d(samples, np.linspace(-1e-300, 4e-300, 11))
        assert np.isfinite(density).all() and density.max() > 0
        tiny = uniform_domain_sample(StyblinskiTang(), 60, seed=5)
        tiny = LabeledSet(descriptors=tiny.descriptors, labels=tiny.labels * 1e-300,
                          gradient_norms=tiny.gradient_norms)
        _check_exports(tiny, small_plan())

    def test_density_beyond_the_float_range_rejected_before_compute(self):
        """Labels spread about 1e-310 now have a bandwidth (a subnormal one),
        but a KDE peak of about 1 / h overflows: the export check rejects
        them, naming the quantity, with the error it gives for zero spread."""
        base = uniform_domain_sample(StyblinskiTang(), 60, seed=5)
        tiny = LabeledSet(descriptors=base.descriptors, labels=base.labels / 100.0 * 1e-310,
                          gradient_norms=base.gradient_norms)
        assert silverman_bandwidth(tiny.labels) > 0
        with pytest.raises(DegenerateDistributionError, match="^label: over all 60 dataset "
                           "points: samples have too little spread for a finite density$"):
            _check_exports(tiny, small_plan())

    def test_overflowing_std_is_the_std_of_the_scaled_samples(self):
        """A std whose squares overflow was inf, so the IQR set h; it is
        now sqrt(4/3) a for [-a, -a, a, a], below the IQR's 2a / 1.34."""
        for a in (1e307, 1e308):
            samples = np.array([-a, -a, a, a])
            with np.errstate(over="ignore"):
                assert math.isinf(np.std(samples, ddof=1))
            h = silverman_bandwidth(samples)
            assert h == pytest.approx(0.9 * math.sqrt(4.0 / 3.0) * a * 4 ** -0.2, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
                    min_size=2, max_size=50))
    def test_bitwise_unchanged_on_normal_range_samples(self, samples):
        """Where the plain std neither underflows nor overflows, scaling by a
        power of two is exact and h is bitwise the former bandwidth."""
        samples = np.array(samples)
        assert silverman_bandwidth(samples) == plain_silverman(samples)


class TestSelectionHeatmap:
    def grid_set(self):
        xs = np.linspace(0.0, 1.0, 11)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        return LabeledSet(
            descriptors=pts, labels=np.zeros(len(pts)),
            gradient_norms=np.zeros(len(pts)),
        )

    def test_single_point_single_cell(self):
        labeled = self.grid_set()
        counts = selection_heatmap_2d([[0]], labeled, grid=4)
        assert counts.sum() == 1 and counts[0, 0] == 1

    def test_boundary_goes_to_lower_cell(self):
        labeled = self.grid_set()
        # point (0.5, 0.5) sits exactly on the edge between cells 1 and 2 of 4
        idx = [i for i, p in enumerate(labeled.descriptors) if tuple(p) == (0.5, 0.5)]
        counts = selection_heatmap_2d([idx], labeled, grid=4)
        assert counts[1, 1] == 1 and counts.sum() == 1

    def test_total_count(self):
        labeled = self.grid_set()
        rng = np.random.default_rng(63)
        selections = [rng.integers(0, len(labeled), size=100) for _ in range(50)]
        counts = selection_heatmap_2d(selections, labeled, grid=25)
        assert counts.sum() == 50 * 100

    def test_rejects_non_2d(self):
        labeled = LabeledSet(
            descriptors=np.zeros((4, 3)), labels=np.zeros(4),
            gradient_norms=np.zeros(4),
        )
        with pytest.raises(ValueError, match="2-D"):
            selection_heatmap_2d([[0]], labeled, grid=3)

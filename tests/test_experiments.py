import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggfps_lab import experiments
from ggfps_lab.dataset import LabeledSet
from ggfps_lab.experiments import (
    CvChoice,
    DegenerateDistributionError,
    ExperimentPlan,
    ReplicateError,
    _GgfpsCv,
    _PlainCv,
    _cost,
    _fold_costs,
    _grid_costs,
    _mirror_size,
    _run_cells,
    bin_errors_by_force_norm,
    choose_from_costs,
    cross_validate,
    derive_seed,
    kde_1d,
    learning_curve,
    selection_heatmap_2d,
)
from ggfps_lab.krr import FactorizationError, KernelSpec, assemble_kernel, fit, predict
from ggfps_lab.sampling import SamplerConfig, ggfps
from scipy.spatial.distance import cdist
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample

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
        for method, beta in (("URS", None), ("FPS", None), ("GGFPS", 0.4)):
            choice = cross_validate(train, plan, method, target_size=10, seed=5)
            assert choice == CvChoice(sigma=1.3, lam=1e-5, beta=beta)

    def test_recovers_teacher_bandwidth(self):
        rng = np.random.default_rng(50)
        X = rng.uniform(-4, 4, size=(80, 2))
        sigma_star = 1.0
        K = assemble_kernel(X, X, KernelSpec("gaussian", sigma_star))
        y = K @ rng.normal(size=80)
        train = LabeledSet(
            descriptors=X, labels=y, gradient_norms=np.ones(80),
            ids=tuple(str(i) for i in range(80)),
        )
        plan = small_plan(
            labeled_sizes=(80,), train_sizes=(40,),
            sigma_grid=(0.0625, 0.25, 1.0, 4.0, 16.0), lambda_grid=(1e-8,),
        )
        choice = cross_validate(train, plan, "URS", seed=3)
        assert choice.sigma in (0.25, 1.0, 4.0)

    def test_fold_order_does_not_change_choice(self, universe):
        plan = small_plan()
        train = universe.subset(range(25))
        ctx = _PlainCv(train, plan, seed=9)
        costs = ctx.evaluate()
        ctx.val_folds = list(reversed(ctx.val_folds))
        costs_reversed = ctx.evaluate()
        assert np.allclose(costs, costs_reversed, rtol=0, atol=1e-12)

    def test_tie_break_prefers_smaller_candidates(self):
        plan = small_plan(sigma_grid=(0.5, 1.0), lambda_grid=(1e-8, 1e-4),
                          beta_grid=(0.0, 1.0))
        costs = np.ones((2, 2, 2))
        choice = choose_from_costs(costs, plan, with_beta=True)
        assert choice == CvChoice(sigma=0.5, lam=1e-8, beta=0.0)

    def test_degenerate_fold_rejected(self, universe):
        plan = small_plan()
        with pytest.raises(ValueError, match="fold"):
            cross_validate(universe.subset(range(3)), plan, "URS", seed=0)

    def test_ggfps_requires_target_size(self, universe):
        with pytest.raises(ValueError, match="target_size"):
            cross_validate(universe.subset(range(30)), small_plan(), "GGFPS")


class TestFoldCosts:
    def test_each_chain_is_bitwise_grid_costs_on_its_own_cdist(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        rng = np.random.default_rng(65)
        val = np.arange(100, 120)
        # overlapping chains, so the union matrix dedupes shared points
        chains = np.stack([rng.permutation(40)[:18] for _ in range(3)])
        sizes = [1, 7, 15]
        dead = np.zeros((3, 2, 2, 3), dtype=bool)
        costs = _fold_costs(universe, plan, val, chains, sizes, dead)
        X, y = universe.descriptors, universe.labels
        for b, chain in enumerate(chains):
            sub = chain[:15]
            dead_b = np.zeros((3, 2, 2), dtype=bool)
            direct = _grid_costs(cdist(X[sub], X[sub], metric="sqeuclidean"),
                                 cdist(X[sub], X[val], metric="sqeuclidean"),
                                 y[sub], y[val], sizes, plan, dead_b)
            assert np.array_equal(costs[..., b], direct)
            assert np.array_equal(dead[..., b], dead_b)
        assert dead[1:, 1, 0].all() and not dead[0].any()

    def test_ggfps_cv_runs_two_cdist_calls_per_fold_over_its_chains(self, universe, monkeypatch):
        plan = small_plan(beta_grid=(0.0, 0.4, 1.3, 2.0))
        calls = []

        def recording_cdist(XA, XB, **kwargs):
            calls.append((XA.copy(), XB.shape))
            return cdist(XA, XB, **kwargs)

        monkeypatch.setattr(experiments, "cdist", recording_cdist)
        ctx = _GgfpsCv(universe, plan, seed=5)
        ctx.evaluate([5, 10])
        assert len(calls) == 2 * plan.folds
        X = universe.descriptors
        for fi, val in enumerate(ctx.val_folds):
            pool_idx = np.setdiff1d(np.arange(len(universe)), val)
            chain_len = _mirror_size(10, plan.folds, len(pool_idx))
            # pool >> chains: the matrices must not grow with the pool
            bound = min(len(pool_idx), len(plan.beta_grid) * chain_len)
            assert bound < len(pool_idx)
            pool = universe.subset(pool_idx)
            expected = set()
            for bi, beta in enumerate(plan.beta_grid):
                config = SamplerConfig(method="GGFPS", n=chain_len, beta=beta,
                                       seed=derive_seed(5, "fold-select", fi, bi))
                expected.update(ggfps(pool, config, horizon=chain_len).indices)
            (X_union, union_shape), (X_rows, val_shape) = calls[2 * fi], calls[2 * fi + 1]
            assert np.array_equal(X_union, X[pool_idx[sorted(expected)]])
            assert X_union.shape[0] <= bound and union_shape == X_union.shape
            assert np.array_equal(X_rows, X_union) and val_shape == (len(val), 2)


# sigma = 1e12 makes every kernel entry exactly 1.0, so lambda = 1e-300 fails
# at pivot 2 for every size >= 2: dead candidates that no rounding can revive
DEAD_GRIDS = dict(sigma_grid=(0.5, 1e12), lambda_grid=(1e-300, 1e-4))


def direct_costs(d2_train, d2_val, y_train, y_val, sizes, plan):
    """Per-candidate oracle: one fit + predict per (size, sigma, lambda);
    NaN marks a candidate whose factorization fails."""
    out = np.full((len(sizes), len(plan.sigma_grid), len(plan.lambda_grid)), np.nan)
    for i, m in enumerate(sizes):
        for si, sigma in enumerate(plan.sigma_grid):
            K = np.exp(-d2_train[:m, :m] / (2.0 * sigma * sigma))
            K_val = np.exp(-d2_val[:m] / (2.0 * sigma * sigma))
            for li, lam in enumerate(plan.lambda_grid):
                try:
                    alpha = fit(K, y_train[:m], lam)
                except FactorizationError:
                    continue
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
                      gradient_norms=np.ones(len(labeled)), ids=labeled.ids)


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
    labeled = LabeledSet(descriptors=X, labels=y, gradient_norms=np.full(n, g),
                         ids=tuple(str(i) for i in range(n)))
    sizes = draw(st.lists(st.integers(1, n), max_size=3)) + [1, 2 * n]
    return labeled, folds, sizes


class TestGridCosts:
    def test_ggfps_all_sizes_in_one_pass_match_single_size_calls(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        ctx = _GgfpsCv(constant_gradients(universe), plan, seed=5)
        sizes = [10, 25, 40]
        multi = ctx.evaluate(sizes)
        assert multi.shape == (3, 2, 2, 2)
        assert np.isinf(multi[:, 1, 0]).all() and np.isfinite(multi[:, 1, 1]).all()
        for i, ts in enumerate(sizes):
            single = ctx.evaluate([ts])[0]
            assert np.array_equal(np.isinf(multi[i]), np.isinf(single))
            alive = np.isfinite(single)
            assert multi[i][alive] == pytest.approx(single[alive], rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(lattice_set(), st.integers(0, 2**32))
    def test_ggfps_all_sizes_match_single_size_calls_on_lattices(self, case, seed):
        labeled, folds, sizes = case
        # every candidate is decisive: lambda >= 1e-3, or an exact all-ones kernel
        for grids in (dict(sigma_grid=(0.3, 2.0), lambda_grid=(1e-3, 1e-1)),
                      dict(sigma_grid=(1e12,), lambda_grid=(1e-300, 1e-3))):
            plan = small_plan(folds=folds, beta_grid=(0.0, 0.7, 2.0), **grids)
            ctx = _GgfpsCv(labeled, plan, seed=seed)
            multi = ctx.evaluate(sizes)
            for i, ts in enumerate(sizes):
                single = ctx.evaluate([ts])[0]
                assert np.array_equal(np.isinf(multi[i]), np.isinf(single))
                alive = np.isfinite(single)
                assert multi[i][alive] == pytest.approx(single[alive], rel=1e-8, abs=1e-12)

    def test_plain_cv_is_bitwise_per_candidate_fit_and_predict(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        train = universe.subset(np.arange(40))
        cv = _PlainCv(train, plan, seed=3)
        X, y = train.descriptors, train.labels
        sums = np.zeros((2, 2))
        for val in cv.val_folds:
            tr = np.setdiff1d(np.arange(40), val)
            fold = direct_costs(cdist(X[tr], X[tr], metric="sqeuclidean"),
                                cdist(X[tr], X[val], metric="sqeuclidean"),
                                y[tr], y[val], [len(tr)], plan)[0]
            sums += np.nan_to_num(fold, nan=np.inf)
        expected = np.where(np.isinf(sums), np.inf, sums / len(cv.val_folds))
        assert np.isinf(expected[1, 0]) and np.isfinite(expected).sum() == 3
        assert np.array_equal(cv.evaluate()[:, :, 0], expected)

    def test_layout_of_d2_train_changes_no_bit_and_no_input(self, universe):
        plan = small_plan(**DEAD_GRIDS)
        X, y = universe.descriptors, universe.labels
        tr, val = np.arange(40), np.arange(100, 120)
        d2_train = cdist(X[tr], X[tr], metric="sqeuclidean")
        d2_val = cdist(X[tr], X[val], metric="sqeuclidean")
        sizes = [5, 20, 40]
        results = []
        for d2 in (d2_train, np.asfortranarray(d2_train)):
            kept, kept_val = d2.copy(), d2_val.copy()
            dead = np.zeros((len(sizes), 2, 2), dtype=bool)
            costs = _grid_costs(d2, d2_val, y[tr], y[val], sizes, plan, dead)
            assert np.array_equal(d2, kept) and np.array_equal(d2_val, kept_val)
            results.append((costs.tobytes(), dead.tobytes()))
        assert results[0] == results[1]
        assert np.frombuffer(results[0][1], dtype=bool).any()

    @settings(max_examples=60, deadline=None)
    @given(grid_fold())
    def test_multi_size_routine_matches_direct_fits(self, fold):
        X_tr, X_val, y_tr, y_val, sizes = fold
        d2_train = cdist(X_tr, X_tr, metric="sqeuclidean")
        d2_val = cdist(X_tr, X_val, metric="sqeuclidean")
        # every candidate is decisive: lambda >= 1e-3, or an exact all-ones kernel
        for grids in (dict(sigma_grid=(0.3, 2.0), lambda_grid=(1e-3, 1e-1)),
                      dict(sigma_grid=(1e12,), lambda_grid=(1e-300, 1e-3))):
            plan = small_plan(**grids)
            dead = np.zeros((len(sizes), len(plan.sigma_grid), len(plan.lambda_grid)), dtype=bool)
            costs = _grid_costs(d2_train, d2_val, y_tr, y_val, sizes, plan, dead)
            expected = direct_costs(d2_train, d2_val, y_tr, y_val, sizes, plan)
            assert np.array_equal(dead, np.isnan(expected))
            assert (costs[dead] == 0).all()
            assert costs[~dead] == pytest.approx(expected[~dead], rel=1e-8, abs=1e-12)


class TestLearningCurve:
    def test_determinism_and_metric_identity(self, universe):
        plan = small_plan()
        points_a = learning_curve(universe, plan)
        points_b = learning_curve(universe, plan)
        assert points_a == points_b
        assert len(points_a) == 3 * 2  # methods x train sizes
        for p in points_a:
            assert p.rmse_mean >= p.mae_mean - 1e-12
            assert p.mae_var >= 0 and p.rmse_var >= 0
            assert len(p.chosen_sigma) == plan.bootstraps

    def test_single_test_point_collapses_metrics(self, universe):
        plan = small_plan(
            labeled_sizes=(12,), train_sizes=(11,), bootstraps=1, methods=("URS",),
        )
        (point,) = learning_curve(universe, plan)
        assert point.mae_mean == pytest.approx(point.rmse_mean, rel=1e-12)
        assert point.mae_var == 0.0

    def test_methods_share_labeled_sets(self, universe):
        plan = small_plan(train_sizes=(10,))
        cells = _run_cells(universe, plan)
        by_method = {}
        for c in cells:
            key = (c.method, c.replicate)
            by_method[key] = set(c.sel_global) | set(c.test_global)
        for rep in range(plan.bootstraps):
            pools = [by_method[(m, rep)] for m in plan.methods]
            assert pools[0] == pools[1] == pools[2]

    def test_backwards_chain_nesting_at_fixed_beta(self, universe):
        plan = small_plan(beta_grid=(0.7,), methods=("FPS", "GGFPS"))
        cells = _run_cells(universe, plan)
        for method in plan.methods:
            for rep in range(plan.bootstraps):
                group = {c.train_size: c for c in cells
                         if c.method == method and c.replicate == rep}
                short, long = group[10], group[20]
                assert np.array_equal(long.sel_global[:10], short.sel_global)

    def test_bootstrap_aggregation_matches_two_pass_oracle(self, universe):
        plan = small_plan(bootstraps=4, train_sizes=(10,))
        cells = _run_cells(universe, plan)
        points = learning_curve(universe, plan)
        for p in points:
            maes = [c.mae for c in cells
                    if c.method == p.method and c.train_size == p.train_size]
            mean = math.fsum(maes) / len(maes)
            var = math.fsum((m - mean) ** 2 for m in maes) / len(maes)
            assert p.mae_mean == pytest.approx(mean, abs=1e-12)
            assert p.mae_var == pytest.approx(var, abs=1e-12)

    def test_no_valid_train_size_rejected(self, universe):
        plan = small_plan(labeled_sizes=(20,), train_sizes=(20,))
        with pytest.raises(ValueError, match="remain"):
            learning_curve(universe, plan)

    def test_replicate_error_identifies_cell(self):
        degenerate = LabeledSet(
            descriptors=np.zeros((30, 2)), labels=np.zeros(30),
            gradient_norms=np.ones(30), ids=tuple(str(i) for i in range(30)),
        )
        plan = small_plan(
            labeled_sizes=(20,), train_sizes=(10,), bootstraps=1,
            methods=("FPS",), lambda_grid=(1e-300,),
        )
        with pytest.raises(ReplicateError) as err:
            learning_curve(degenerate, plan)
        assert err.value.method == "FPS"
        assert err.value.labeled_size == 20 and err.value.train_size == 10
        assert "replicate=0" in str(err.value)


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
        assert len(bins) == 1
        b = bins[0]
        assert b.count == 30 and b.abs_err_mean == 2.5 and b.abs_err_var == 0.0
        assert b.bin_lo == 0.0 and b.bin_hi == 29.0

    def test_capacity_arithmetic(self):
        bins = bin_errors_by_force_norm([(float(i), 0.1) for i in range(61)])
        assert [b.count for b in bins] == [30, 30, 1]

    def test_matches_recomputation_oracle(self):
        rng = np.random.default_rng(60)
        fn = rng.uniform(0, 50, size=300)
        err = rng.uniform(0, 2, size=300)
        bins = bin_errors_by_force_norm(np.stack([fn, err], axis=1))
        order = np.argsort(fn, kind="stable")
        for i, b in enumerate(bins):
            chunk = order[i * 30 : (i + 1) * 30]
            mean = math.fsum(err[chunk]) / len(chunk)
            var = math.fsum((err[j] - mean) ** 2 for j in chunk) / len(chunk)
            assert b.abs_err_mean == pytest.approx(mean, abs=1e-12)
            assert b.abs_err_var == pytest.approx(var, abs=1e-12)
            assert b.bin_lo == fn[chunk].min() and b.bin_hi == fn[chunk].max()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bin_errors_by_force_norm([])


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

    def test_tied_quartiles_fall_back_to_std(self):
        samples = np.array([5.0] * 40 + [0.0, 10.0])
        density = kde_1d(samples, np.linspace(-5, 15, 101))
        assert np.all(np.isfinite(density)) and density.max() > 0


class TestSelectionHeatmap:
    def grid_set(self):
        xs = np.linspace(0.0, 1.0, 11)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        return LabeledSet(
            descriptors=pts, labels=np.zeros(len(pts)),
            gradient_norms=np.zeros(len(pts)), ids=tuple(str(i) for i in range(len(pts))),
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
            gradient_norms=np.zeros(4), ids=("a", "b", "c", "d"),
        )
        with pytest.raises(ValueError, match="2-D"):
            selection_heatmap_2d([[0]], labeled, grid=3)

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggfps_lab import sampling
from ggfps_lab.dataset import LabeledSet, synth_boltzmann_set
from ggfps_lab.sampling import (
    BETA_MAX,
    BETA_MODES,
    INIT_MODES,
    CapacityError,
    SamplerConfig,
    beta_schedule,
    fps,
    ggfps,
    ggfps_chains,
    select,
    urs,
    _distances,
    _greedy,
    _initial_index,
    _log_gradients,
    _Screen,
)
from ggfps_lab.surfaces import StyblinskiTang
from oracles import (
    alternating_betas,
    greedy_fps,
    greedy_ggfps,
    greedy_ggfps_fast,
    greedy_rows,
    random_rotation,
)


def make_labeled(X, g):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    g = np.asarray(g, dtype=float)
    return LabeledSet(
        descriptors=X, labels=np.zeros(len(X)), gradient_norms=g,
    )


def ggfps_config(n, beta=0.0, mode="swept", init_mode=None, seed=0):
    return SamplerConfig(
        method="GGFPS", n=n, beta=beta, beta_mode=mode, init_mode=init_mode, seed=seed
    )


def fps_from(X, n, init):
    """FPS started at index ``init``: the kernel that ``fps`` runs, at beta = 0."""
    return _greedy(X, [init], np.zeros((1, n)), np.zeros(len(X)))[0].tolist()


class TestUrs:
    def test_full_draw_is_permutation(self):
        assert sorted(urs(5, 5, seed=1)) == [0, 1, 2, 3, 4]

    def test_determinism(self):
        assert urs(100, 10, seed=7) == urs(100, 10, seed=7)

    def test_prefix_consistency(self):
        long = urs(200, 50, seed=3)
        short = urs(200, 20, seed=3)
        assert long[:20] == short

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            urs(3, 4, seed=0)

    def test_uniform_frequencies(self):
        # one bit per (seed, index); 3000 seeds keep the 0.05 margin at ~5.5 sigma
        n_total, n, seeds = 10000, 5000, 3000
        counts = np.zeros(n_total, dtype=np.int64)
        for s in range(seeds):
            counts += np.bincount(urs(n_total, n, seed=s), minlength=n_total)
        freq = counts / seeds
        assert np.all(np.abs(freq - 0.5) < 0.05)


class TestBetaSchedule:
    def test_zero_beta(self):
        assert beta_schedule(0.0, 4).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_swept_ordering(self):
        values = beta_schedule(2.0, 4, "swept")
        assert values == pytest.approx([2.0, -2.0, 2.0 / 3.0, -2.0 / 3.0], abs=1e-12)

    def test_constant_mode(self):
        assert beta_schedule(1.5, 3, "constant").tolist() == [1.5, 1.5, 1.5]

    @pytest.mark.parametrize("mode", ["swept", "constant"])
    def test_is_a_read_only_float_array(self, mode):
        values = beta_schedule(1.5, 3, mode)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0

    def test_matches_independent_construction(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            beta = float(rng.uniform(0, 2))
            n = int(rng.integers(1, 30))
            values = beta_schedule(beta, n)
            assert values == pytest.approx(alternating_betas(beta, n), abs=1e-12)

    def test_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = float(rng.uniform(0, 2))
            n = int(rng.integers(1, 40))
            values = beta_schedule(beta, n)
            assert np.all(np.abs(values) <= beta + 1e-12)
            linspaced = np.sort(np.abs(np.linspace(-beta, beta, n)))
            assert np.sort(np.abs(values)) == pytest.approx(linspaced, abs=1e-12)
            nonzero = np.abs(values) > 0
            signs = np.sign(values)
            expected_signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            assert np.array_equal(signs[nonzero], expected_signs[nonzero])
            if nonzero.any():
                assert values[0] > 0 or beta == 0

    def test_beta_is_bounded_so_scores_stay_finite(self):
        # beta 1e308 gave [nan, -inf, inf, -inf, 1e308]: linspace's span overflowed
        with pytest.raises(ValueError, match="beta"):
            beta_schedule(1e308, 5)
        with pytest.raises(ValueError, match="beta"):
            SamplerConfig(method="GGFPS", n=5, beta=1e308)
        values = beta_schedule(BETA_MAX, 5)
        assert values.tolist() == [BETA_MAX, -BETA_MAX, BETA_MAX / 2, -BETA_MAX / 2, 0.0]
        # the extreme |log g| and |log d| of positive doubles keep a score finite
        logs = np.log(np.array([5e-324, np.finfo(float).max]))
        assert np.isfinite(np.abs(values).max() * np.abs(logs).max() + np.abs(logs).max())


class TestFps:
    def test_1d_hand_case(self):
        X = np.array([[0.0], [1.0], [10.0]])
        assert fps_from(X, 3, 0) == [0, 2, 1]

    def test_single_point(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        assert fps_from(X, 1, 3) == [3]

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n_pts = int(rng.integers(5, 31))
            X = rng.normal(size=(n_pts, 3))
            init = int(rng.integers(n_pts))
            assert fps_from(X, n_pts, init) == greedy_fps(X, n_pts, init)

    def test_capacity_and_finite_checks(self):
        with pytest.raises(CapacityError):
            fps(np.zeros((3, 2)), 4)
        with pytest.raises(ValueError, match="finite"):
            fps(np.array([[np.inf, 0.0]]), 1)

    def test_seeded_init_deterministic(self):
        X = np.random.default_rng(1).normal(size=(40, 2))
        assert fps(X, 10, seed=5) == fps(X, 10, seed=5)

    def test_prefix_consistency(self):
        X = np.random.default_rng(2).normal(size=(40, 2))
        assert fps(X, 20, seed=5)[:8] == fps(X, 8, seed=5)

    def test_tie_break_smallest_index(self):
        # equidistant candidates from the init
        X = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert fps_from(X, 2, 0) == [0, 1]


class TestGgfps:
    def test_beta_zero_recovers_fps(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n_pts = int(rng.integers(5, 40))
            X = rng.normal(size=(n_pts, 3))
            g = rng.uniform(0.1, 10, size=n_pts)
            seed = int(rng.integers(2**32))
            config = ggfps_config(n_pts, beta=0.0, init_mode="random_uniform", seed=seed)
            got = ggfps(make_labeled(X, g), config)
            assert got.indices == fps(X, n_pts, seed=seed)

    def test_hand_case_constant_beta(self):
        labeled = make_labeled([0.0, 0.5, 1.0], [1.0, 100.0, 1.0])
        result = ggfps(labeled, ggfps_config(2, beta=1.0, mode="constant",
                                             init_mode="gradient_argmax"))
        assert result.indices == [1, 0]  # scores tie at 0.5, smallest index wins

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n_pts = int(rng.integers(5, 32))
            n_sel = int(rng.integers(2, n_pts + 1))
            X = rng.normal(size=(n_pts, int(rng.integers(1, 5))))
            g = rng.uniform(0.1, 10, size=n_pts)
            beta = float(rng.uniform(0, 2))
            mode = "swept" if rng.random() < 0.5 else "constant"
            init = int(np.argmax(g))
            got = ggfps(
                make_labeled(X, g),
                ggfps_config(n_sel, beta=beta, mode=mode, init_mode="gradient_argmax"),
            )
            betas = beta_schedule(beta, n_sel, mode)
            assert got.indices == greedy_ggfps(X, g, n_sel, init, betas)

    def test_gradient_scale_invariance(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(60, 2))
        g = rng.uniform(0.5, 5.0, size=60)
        base = ggfps(make_labeled(X, g), ggfps_config(25, beta=1.3, seed=9))
        for c in (1e-3, 17.0, 1e3):
            scaled = ggfps(make_labeled(X, c * g), ggfps_config(25, beta=1.3, seed=9))
            assert scaled.indices == base.indices

    def test_zero_gradient_fallback_warns(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(10, 2))
        result = ggfps(make_labeled(X, np.zeros(10)), ggfps_config(4, beta=1.0, seed=3))
        assert len(result.indices) == 4
        assert any("fell back" in w for w in result.warnings)

    def test_weighted_init_frequencies_follow_gradients(self):
        X = np.zeros((3, 1))
        g = np.array([1.0, 2.0, 7.0])
        labeled = make_labeled(X, g)
        counts = np.zeros(3)
        for s in range(4000):
            first = ggfps(labeled, ggfps_config(1, beta=0.0, seed=s)).indices[0]
            counts[first] += 1
        freq = counts / counts.sum()
        assert freq == pytest.approx(g / g.sum(), abs=0.03)

    def test_weighted_init_of_norms_that_sum_past_the_largest_double(self):
        # g.sum() overflowed: numpy warned and rng.choice raised "Probabilities
        # do not sum to 1", which named no field
        g = np.array([1e308, 1e308, 1.0])
        labeled = make_labeled(np.arange(3.0), g)
        for s in range(20):
            first = ggfps(labeled, ggfps_config(2, beta=1.0, seed=s)).indices[0]
            expected = np.random.default_rng(s).choice(3, p=(g / 1e308) / (g / 1e308).sum())
            assert first == expected

    def test_weighted_init_of_finite_sums_is_unchanged(self):
        rng = np.random.default_rng(28)
        for g in (rng.uniform(0.1, 10, size=30), np.full(5, 1e307), np.full(4, 5e-324)):
            labeled = make_labeled(rng.normal(size=len(g)), g)
            for s in range(5):
                first = ggfps(labeled, ggfps_config(1, beta=1.0, seed=s)).indices[0]
                assert first == np.random.default_rng(s).choice(len(g), p=g / g.sum())

    def test_determinism(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(40, 3))
        g = rng.uniform(0.1, 4.0, size=40)
        labeled = make_labeled(X, g)
        a = ggfps(labeled, ggfps_config(15, beta=0.8, seed=11))
        b = ggfps(labeled, ggfps_config(15, beta=0.8, seed=11))
        assert a.indices == b.indices

    def test_isometry_invariance(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(45, 3))
        g = rng.uniform(0.3, 6.0, size=45)
        rot = random_rotation(3, rng)
        shift = rng.uniform(-10, 10, size=3)
        cfg = ggfps_config(20, beta=1.1, seed=6)
        base = ggfps(make_labeled(X, g), cfg)
        moved = ggfps(make_labeled(X @ rot.T + shift, g), cfg)
        assert moved.indices == base.indices

    def test_capacity_error(self):
        labeled = make_labeled(np.zeros((3, 1)), np.ones(3))
        with pytest.raises(CapacityError):
            ggfps(labeled, ggfps_config(4))

    def test_distinct_indices_exact_length(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(30, 2))
        g = rng.uniform(0.1, 2.0, size=30)
        result = ggfps(make_labeled(X, g), ggfps_config(30, beta=2.0, seed=1))
        assert sorted(result.indices) == list(range(30))


class TestDuplicateDescriptors:
    """Once only duplicates of selected points remain, every GGFPS score is
    -inf and the smallest remaining index is taken, never an index already
    selected."""

    def test_minimal_repro(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        g = np.ones(5)
        result = ggfps(make_labeled(X, g), ggfps_config(5, beta=0.5, init_mode="gradient_argmax"))
        assert result.indices == [0, 1, 2, 3, 4]
        assert result.indices == greedy_ggfps(X, g, 5, 0, beta_schedule(0.5, 5))

    def test_boltzmann_repro(self):
        data = synth_boltzmann_set(StyblinskiTang(), 2.0, 300, seed=3, step=1.0,
                                   burn_in=100, thinning=1)
        distinct = np.unique(data.descriptors, axis=0)
        assert len(distinct) == 36
        config = ggfps_config(41, beta=1.0, seed=0)
        result = ggfps(data, config)
        assert len(set(result.indices)) == 41
        # every distinct descriptor is covered before any duplicate is taken
        first = data.descriptors[result.indices[:36]]
        assert len(np.unique(first, axis=0)) == 36
        betas = beta_schedule(1.0, 41)
        expected = greedy_ggfps_fast(data.descriptors, data.gradient_norms, 41,
                                     result.indices[0], betas)
        assert result.indices == expected


def _random_instance(rng, n_pts, dim):
    X = rng.normal(size=(n_pts, dim))
    X[rng.integers(n_pts, size=n_pts // 5)] = X[0]  # duplicates of point 0
    g = rng.uniform(0.1, 10, size=n_pts)
    g[rng.integers(n_pts)] = 0.0  # exercises the log-gradient floor
    return X, g


@st.composite
def greedy_cases(draw):
    """A pool, chains and exponents for ``_greedy``: one scale per dataset from
    1e-300 to 1e300, optionally far from the origin, with duplicated rows,
    zero gradients, and swept or constant betas."""
    n_chains = draw(st.integers(1, 4))
    dim = draw(st.sampled_from([1, 2, 3, 5, 8, 9, 16, 64]))  # ggfps_chains rejects d = 0
    n_pts = draw(st.integers(2, 300))
    n_sel = draw(st.integers(1, min(n_pts, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    X = rng.normal(size=(n_pts, dim))
    if draw(st.booleans()):
        # a lattice, jittered or not: many exact ties and near-ties that
        # only the screen's rounding slack keeps apart
        jitter = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
        X = np.round(X * 2) / 2 + jitter * rng.normal(size=X.shape)
    X += draw(st.sampled_from([0.0, 1.0, 1e3, 1e8])) * rng.normal(size=dim)
    with np.errstate(over="ignore"):
        X *= scale
    assume(np.isfinite(X).all())
    n_dup = draw(st.integers(0, n_pts // 2))
    X[rng.integers(n_pts, size=n_dup)] = X[rng.integers(n_pts, size=n_dup)]
    g = rng.uniform(0.0, 10.0, size=n_pts)
    g[rng.random(n_pts) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    mode = draw(st.sampled_from(BETA_MODES))
    betas = [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in range(n_chains)]
    exponents = np.stack([beta_schedule(b, n_sel, mode) for b in betas])
    inits = rng.integers(n_pts, size=n_chains)
    return X, inits, exponents, _log_gradients(g)


class TestGreedyKernel:
    @settings(max_examples=150, deadline=None)
    @given(greedy_cases())
    def test_screened_kernel_matches_full_row_reference(self, case):
        X, inits, exponents, log_g = case
        with np.errstate(over="ignore", invalid="ignore"):
            expected = greedy_rows(X, inits, exponents, log_g)
            got = _greedy(X, inits, exponents, log_g)
        assert np.array_equal(got, expected)

    def test_overflowing_distances_select_as_the_reference(self):
        # coordinates near +-1e200: every exact distance overflows to inf
        X = np.random.default_rng(44).uniform(-1e200, 1e200, size=(60, 2))
        exponents = np.stack([np.zeros(30), beta_schedule(1.0, 30)])
        log_g = np.zeros(60)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_greedy(X, [3, 7], exponents, log_g),
                                  greedy_rows(X, [3, 7], exponents, log_g))

    def test_lockstep_matches_independent_chains(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n_pts = int(rng.integers(8, 60))
            n_sel = int(rng.integers(2, n_pts + 1))
            X, g = _random_instance(rng, n_pts, int(rng.integers(1, 6)))
            labeled = make_labeled(X, g)
            configs = [ggfps_config(n_sel, beta=0.0, init_mode="random_uniform", seed=1)]
            configs += [ggfps_config(n_sel, beta=float(rng.uniform(0, 2)), mode=mode,
                                     init_mode=init_mode, seed=int(rng.integers(100)))
                        for mode, init_mode in (("swept", "gradient_weighted"),
                                                ("constant", "gradient_argmax"),
                                                ("swept", "random_uniform"),
                                                ("constant", "gradient_weighted"))]
            inits = [_initial_index(g, c.init_mode, c.seed) for c in configs]
            exponents = np.stack([beta_schedule(c.beta, n_sel, c.beta_mode)
                                  for c in configs])
            log_g = np.log(np.maximum(g, 1e-12 * g.max()))
            picks = _greedy(X, inits, exponents, log_g)
            for row, config in zip(picks, configs):
                assert row.tolist() == ggfps(labeled, config).indices
            # the beta=0 row is FPS
            assert picks[0].tolist() == fps(X, n_sel, seed=1)

    def test_ggfps_chains_match_independent_ggfps(self):
        rng = np.random.default_rng(42)
        for dim in (2, 8):
            X, g = _random_instance(rng, 300, dim)
            labeled = make_labeled(X, g)
            betas, seeds = (0.0, 0.7, 2.0), (3, 4, 5)
            picks, warnings = ggfps_chains(X, g, betas, seeds, 40)
            assert picks.shape == (3, 40) and warnings == []
            for row, beta, seed in zip(picks, betas, seeds):
                config = ggfps_config(40, beta=beta, seed=seed)
                assert row.tolist() == ggfps(labeled, config).indices

    def test_ggfps_chains_warn_once_on_zero_gradients(self):
        X = np.random.default_rng(43).normal(size=(12, 2))
        picks, warnings = ggfps_chains(X, np.zeros(12), (0.5, 1.0), (1, 2), 6)
        assert len(warnings) == 1 and "random_uniform" in warnings[0]
        assert picks[:, 0].tolist() == [int(np.random.default_rng(s).integers(12))
                                         for s in (1, 2)]

    @pytest.mark.parametrize("init_mode", INIT_MODES)
    def test_first_pick_follows_init_mode_and_the_rest_the_reference(self, init_mode):
        # the first pick is the one ``_initial_index`` draws for the seed, and
        # the chain from it is the full-row reference's
        rng = np.random.default_rng(45)
        X, g = _random_instance(rng, 80, 3)
        labeled = make_labeled(X, g)
        for seed in range(8):
            first = _initial_index(g, init_mode, seed)
            if init_mode == "random_uniform":
                picks = fps(X, 30, seed=seed)
                assert picks[0] == first
                assert picks == greedy_rows(X, [first], np.zeros((1, 30)))[0].tolist()
            for beta, mode in ((0.0, "swept"), (1.0, "swept"), (2.0, "constant")):
                config = ggfps_config(30, beta=beta, mode=mode, init_mode=init_mode, seed=seed)
                picks = ggfps(labeled, config).indices
                assert picks[0] == first
                exponents = beta_schedule(beta, 30, mode)[None]
                assert picks == greedy_rows(X, [first], exponents, _log_gradients(g))[0].tolist()

    def test_ggfps_chains_reject_descriptors_with_no_column(self):
        # with no coordinate every distance is 0: FPS took its random first
        # pick, then indices 0, 1, 2, ...
        with pytest.raises(ValueError, match="at least one column"):
            ggfps_chains(np.zeros((5, 0)), np.ones(5), [0.0], [1], 3)
        with pytest.raises(ValueError, match="at least one column"):
            fps(np.zeros((5, 0)), 3)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_rows_bitwise_equal_numpy_norm_below_eight_dims(self, dim):
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(500, dim)) * rng.uniform(0.01, 100, size=dim)
        idx = np.array([0, 7, 499, 7])
        got = _distances(X, np.arange(500)[None, :], idx[:, None])
        for r, i in enumerate(idx):
            assert np.array_equal(got[r], np.linalg.norm(X - X[i], axis=1))

    @pytest.mark.parametrize("dim", (8, 9, 16, 33))
    def test_rows_close_to_numpy_norm_from_eight_dims(self, dim):
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(500, dim)) * rng.uniform(0.01, 100, size=dim)
        idx = np.array([3, 250])
        got = _distances(X, np.arange(500)[None, :], idx[:, None])
        for r, i in enumerate(idx):
            assert got[r] == pytest.approx(np.linalg.norm(X - X[i], axis=1), rel=1e-12, abs=0)


@st.composite
def grouped_pools(draw):
    """A pool split into G groups of 1-2 consecutive chains, each group
    excluding its own rows (none, some or most of the pool; duplicated rows
    and lattice ties, as in ``greedy_cases``), with the group's gradient
    norms (all zero in some groups) and n no longer than any group's pool."""
    n_groups, per_group = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    dim = draw(st.sampled_from([1, 2, 3, 8]))
    n_pts = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_pts, dim))
    if draw(st.booleans()):
        X = np.round(X * 2) / 2  # exact ties
    X *= 10.0 ** draw(st.sampled_from([-200, 0, 200]))
    n_dup = draw(st.integers(0, n_pts // 2))
    X[rng.integers(n_pts, size=n_dup)] = X[rng.integers(n_pts, size=n_dup)]
    g = rng.uniform(0.0, 10.0, size=n_pts)
    g[rng.random(n_pts) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    exclude = rng.random((n_groups, n_pts)) < draw(st.sampled_from([0.0, 0.2, 0.7]))
    exclude[np.arange(n_groups), rng.integers(n_pts, size=n_groups)] = False  # a row each
    if draw(st.booleans()):  # one group's pool has only zero gradients
        g[~exclude[0]] = 0.0
    n = draw(st.integers(1, int((~exclude).sum(axis=1).min())))
    betas = [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) for _ in range(n_groups * per_group)]
    seeds = [draw(st.integers(0, 2**32)) for _ in betas]
    return X, g, exclude, betas, seeds, n


class TestExcludedGroups:
    """One ``_greedy`` / ``ggfps_chains`` call over the whole pool, each
    group of chains excluding its rows, selects as a call per group over
    the rows it leaves."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grouped_pools(), st.sampled_from(BETA_MODES))
    def test_kernel_matches_full_row_reference(self, case, mode):
        X, g, exclude, betas, seeds, n = case
        per_group = len(betas) // len(exclude)
        rng = np.random.default_rng(seeds[0])
        inits = [rng.choice(np.flatnonzero(~exclude[b // per_group])) for b in range(len(betas))]
        exponents = np.stack([beta_schedule(b, n, mode) for b in betas])
        log_g = np.stack([_log_gradients(g, g[~row]) for row in exclude])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = greedy_rows(X, inits, exponents, log_g, exclude)
            got = _greedy(X, inits, exponents, log_g, exclude)
        assert np.array_equal(got, expected)
        assert not np.take_along_axis(np.repeat(exclude, per_group, axis=0), got, 1).any()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(grouped_pools(), st.sampled_from(INIT_MODES), st.sampled_from(BETA_MODES))
    def test_one_call_matches_a_call_per_group(self, case, init_mode, mode):
        X, g, exclude, betas, seeds, n = case
        per_group = len(betas) // len(exclude)
        picks, warnings = ggfps_chains(X, g, betas, seeds, n, beta_mode=mode,
                                       init_mode=init_mode, exclude=exclude)
        solo_warnings = []
        for h, row in enumerate(exclude):
            pool = np.flatnonzero(~row)
            chains = slice(h * per_group, (h + 1) * per_group)
            solo, solo_warned = ggfps_chains(X[pool], g[pool], betas[chains], seeds[chains], n,
                                             beta_mode=mode, init_mode=init_mode)
            assert np.array_equal(picks[chains], pool[solo])
            solo_warnings += [f"{w} in group {h}" for w in solo_warned]
        assert warnings == solo_warnings

    @pytest.mark.parametrize("outlier", [1e2, 1e4])
    def test_excluded_rows_stay_out_after_a_switch_to_float64(self, monkeypatch, outlier):
        # at 1e4 the run moves to float64 (see TestScreen), which rebuilds
        # every limit from the minimum distances. Rows 401.. duplicate rows
        # 0.. and every group excludes them: had their limits been rebuilt
        # from m = 0, each would be screened in and recomputed once its
        # duplicate is picked
        rng = np.random.default_rng(int(np.log10(outlier)))
        X = np.vstack([rng.normal(size=(400, 4)), np.full((1, 4), outlier)])
        X = np.vstack([X, X[:100]])
        exclude = rng.random((3, 501)) < 0.3
        exclude[:, 401:] = True
        inits = [0, 400, 7]
        exclude[np.arange(3), inits] = False
        exponents = np.stack([np.zeros(120), beta_schedule(1.0, 120), beta_schedule(2.0, 120)])
        g = rng.uniform(0.0, 5.0, size=501)
        log_g = np.stack([_log_gradients(g, g[~row]) for row in exclude])
        screens, recomputed = [], []
        real_screen, real_distances = sampling._Screen, sampling._distances

        def recording_screen(X, dtype=np.float32):
            screens.append(np.dtype(dtype))
            return real_screen(X, dtype)

        def recording_distances(X, points, centers):
            recomputed.append(np.asarray(points).copy())
            return real_distances(X, points, centers)

        monkeypatch.setattr(sampling, "_Screen", recording_screen)
        monkeypatch.setattr(sampling, "_distances", recording_distances)
        got = _greedy(X, inits, exponents, log_g, exclude)
        assert screens[-1] == (np.float64 if outlier > 1e3 else np.float32)
        assert np.isin(got, np.arange(100)).any()
        assert (np.concatenate(recomputed) < 401).all()
        assert np.array_equal(got, greedy_rows(X, inits, exponents, log_g, exclude))

    def test_stuck_chains_skip_excluded_rows(self):
        # four distinct rows, each repeated: after them only duplicates are
        # left, and the smallest index that is neither picked nor excluded is
        # taken
        X = np.repeat(np.arange(4.0)[:, None], 5, axis=0)
        exclude = np.zeros((2, 20), dtype=bool)
        exclude[1, [0, 1, 5, 6]] = True
        for beta in (0.0, 1.0):
            picks, _ = ggfps_chains(X, np.ones(20), [beta, beta], [2, 2], 12,
                                    init_mode="gradient_argmax", exclude=exclude)
            assert picks[0].tolist() == [0, 15, 5, 10, 1, 2, 3, 4, 6, 7, 8, 9]
            assert picks[1].tolist() == [2, 15, 7, 10, 3, 4, 8, 9, 11, 12, 13, 14]


class TestChainArguments:
    """``ggfps_chains`` checks every argument before compute: a ValueError
    names the argument, and a pool that cannot hold n picks raises
    CapacityError."""

    X = np.random.default_rng(46).normal(size=(30, 2))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(betas=[0.0, 1.0], seeds=[1]), "^betas, seeds: "),
        (dict(betas=[0.0], seeds=[1, 2]), "^betas, seeds: "),
        (dict(betas=[], seeds=[]), "^betas, seeds: "),
        (dict(g=np.ones(29)), r"^g: must have shape \(30,\)"),
        (dict(g=np.ones((30, 1))), r"^g: must have shape \(30,\)"),
        (dict(g=np.full(30, np.nan)), "^g: .*finite"),
        (dict(g=np.r_[np.ones(29), np.inf]), "^g: .*finite"),
        (dict(g=np.r_[np.ones(29), -1.0]), "^g: .*non-negative"),
        (dict(exclude=np.zeros((1, 29), dtype=bool)), "^exclude: "),
        (dict(exclude=np.zeros(30, dtype=bool)), "^exclude: "),
        (dict(exclude=np.zeros((0, 30), dtype=bool)), "^exclude: "),
        (dict(exclude=np.zeros((1, 30), dtype=int)), "^exclude: "),
        (dict(betas=[0.0, 1.0], seeds=[1, 2], exclude=np.zeros((3, 30), dtype=bool)),
         "^exclude: "),
    ], ids=["short-seeds", "short-betas", "no-chains", "short-g", "2-D-g", "nan-g", "inf-g",
            "negative-g", "short-exclude", "1-D-exclude", "no-groups", "int-exclude",
            "groups-not-dividing"])
    def test_invalid_argument_raises_naming_it(self, monkeypatch, kwargs, message):
        # NaN norms on this pool once returned the repeated picks [[14, 0, 0, 0, 23]];
        # unequal or empty betas and seeds, and a g of the wrong shape, a numpy error
        monkeypatch.setattr(sampling, "_greedy", lambda *args: pytest.fail("computed"))
        args = dict(g=np.ones(30), betas=[1.0], seeds=[1]) | kwargs
        exclude = args.pop("exclude", None)
        with pytest.raises(ValueError, match=message) as err:
            ggfps_chains(self.X, args["g"], args["betas"], args["seeds"], 5, exclude=exclude)
        assert not isinstance(err.value, CapacityError)

    def test_a_group_too_small_for_n_raises_capacity_error(self, monkeypatch):
        monkeypatch.setattr(sampling, "_greedy", lambda *args: pytest.fail("computed"))
        exclude = np.zeros((2, 30), dtype=bool)
        exclude[1, :26] = True
        with pytest.raises(CapacityError, match="^n: cannot select 5 from the 4 samples that "
                                                "exclude leaves in group 1$"):
            ggfps_chains(self.X, np.ones(30), [0.0, 1.0], [1, 2], 5, exclude=exclude)
        with pytest.raises(CapacityError, match="^n: cannot select 31 from 30 samples$"):
            ggfps_chains(self.X, np.ones(30), [0.0], [1], 31)


class TestScreen:
    """Neither the float32 nor the float64 screen rules out a point whose
    exact distance to the new pick is below its minimum distance m, even one
    ulp below."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [2, 8, 64])
    @pytest.mark.parametrize("offset, scale, spread", [
        (0.0, 1.0, 1.0),  # centred coordinates |x'| near 1
        (1e8, 1.0, 1.0),  # a pool far from the origin
        (0.0, 1e300, 1.0),
        (0.0, 1e-300, 1.0),
        (0.0, 1.0, 2.0**-72),  # products and squares below the float32 normals
        (0.0, 1.0, 2.0**-130),  # coordinates below the float32 normals
        (0.0, 1.0, 2.0**-520),  # products and squares below the float64 normals
        (0.0, 1.0, 2.0**-1030),  # coordinates below the float64 normals
    ], ids=["unit", "offset-1e8", "scale-1e300", "scale-1e-300", "subnormal32-products",
            "subnormal32-coordinates", "subnormal64-products", "subnormal64-coordinates"])
    def test_a_point_one_ulp_closer_is_a_candidate(self, dim, offset, scale, spread, dtype):
        rng = np.random.default_rng(dim)
        k = 300
        # corners just inside +-1 make e = 0, so the largest |x'| are near 1
        corners = np.array([[-1.0] * dim, [1.0] * dim]) * (1 - 2.0**-20)
        picks = spread * rng.choice([-1.0, 1.0], size=(k, dim)) * rng.uniform(0.5, 1.0, (k, dim))
        points = picks * (1 + 1e-9 * rng.normal(size=picks.shape))
        X = np.vstack([corners, picks, points]) * scale + offset
        s, j = np.arange(2, 2 + k), np.arange(2 + k, 2 + 2 * k)
        # as in _greedy: at scale 1e300 these distances overflow to inf, and
        # at 1e-300 the limits pass the largest float32
        with np.errstate(over="ignore"):
            m = np.nextafter(_distances(X, j, s), np.inf)  # one ulp above it
            screen = _Screen(X, dtype)
            F = screen.values(s, out=np.empty((k, len(X)), dtype=dtype))
            assert (F[np.arange(k), j] < screen.limits(m, j)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", ["max", "offset-1e300", "spread-1e-310", "outlier", "d1",
                                      "d64", "constant"])
    def test_values_are_finite(self, dtype, pool):
        """_greedy's first update rules out no point because every F is below
        lim = inf: |x''| <= 1 keeps |F| within about 4 d, at either end of the
        float range too."""
        rng = np.random.default_rng(len(pool))
        X = rng.uniform(-1.0, 1.0, size=(120, 4))
        if pool == "max":
            X[:2] = [[1.0] * 4, [-1.0] * 4]
            X *= 1.7e308
        elif pool == "offset-1e300":
            X = 1e300 + 1e285 * X
        elif pool == "spread-1e-310":
            X *= 1e-310
        elif pool == "outlier":
            X[0] = 1e3
        elif pool in ("d1", "d64"):
            X = rng.uniform(-1.0, 1.0, size=(120, int(pool[1:])))
        else:
            X = np.full((120, 4), 2.5)
        screen = _Screen(X, dtype)
        F = screen.values(np.arange(len(X)), out=np.empty((len(X), len(X)), dtype=dtype))
        assert np.isfinite(F).all()
        assert np.abs(F).max() <= 4.01 * X.shape[1]

    @pytest.mark.parametrize("shape", ["offset", "outlier", "clusters"])
    def test_an_uneven_pool_has_as_few_candidates(self, monkeypatch, shape):
        # screened in float32 on uncentred coordinates, every point of the
        # offset pool was a candidate at every step: 396,000 recomputations
        # against 9,631; centred, but in float32 throughout, the pool with
        # one outlier recomputed 393,829 and the two clusters 197,916
        recomputed = []
        exact = sampling._distances

        def counting(X, points, centers):
            recomputed[-1] += np.size(points)
            return exact(X, points, centers)

        monkeypatch.setattr(sampling, "_distances", counting)
        X = np.random.default_rng(13).uniform(-1.0, 1.0, size=(2000, 8))
        if shape == "offset":
            uneven = X + 1e3
        elif shape == "outlier":  # the bounding box is 10^3 times the bulk's
            uneven = np.vstack([X, np.full((1, 8), 1e3)])
        else:
            uneven = np.vstack([X[:1000], X[1000:] + 1e3])
        for pool in (X, uneven):
            recomputed.append(0)
            fps_from(pool, 200, 0)
        assert recomputed[1] <= 1.5 * recomputed[0]

    @pytest.mark.parametrize("outlier", [1e2, 1e4, 1e8])
    def test_a_switch_to_float64_selects_as_the_reference(self, outlier):
        # at 1e2 the run stays in float32; at 1e4 and 1e8 it moves to float64
        rng = np.random.default_rng(int(np.log10(outlier)))
        X = np.vstack([rng.normal(size=(400, 4)), np.full((1, 4), outlier)])
        exponents = np.stack([np.zeros(120), beta_schedule(1.0, 120), beta_schedule(2.0, 120)])
        log_g = _log_gradients(rng.uniform(0.0, 5.0, size=401))
        inits = [0, 400, 7]
        assert np.array_equal(_greedy(X, inits, exponents, log_g),
                              greedy_rows(X, inits, exponents, log_g))


@pytest.mark.parametrize("beta, init_mode", [(0.0, "random_uniform"),
                                             (1.0, "gradient_weighted")])
def test_one_chain_peaks_at_the_screen_plus_a_few_rows(beta, init_mode):
    """One chain over a 20,000 x 8 pool holds the (d + 2, N) float32 screen
    and a few length-N arrays: the kernel's rows, the log gradients, and a
    step's candidate indices and chunks. The float64 screen and its first
    rows took the peak to about 17.5 float64 rows here, and before that two
    (1, N, d) gathers and two (M, d) gathers over most of the pool to about
    21-22."""
    rng = np.random.default_rng(12)
    n, d = 20_000, 8
    X = rng.uniform(-4.0, 4.0, size=(n, d))
    g = rng.uniform(0.0, 5.0, size=n)
    ggfps_chains(X, g, [beta], [3], 200, init_mode=init_mode)  # first-call allocations
    tracemalloc.start()
    try:
        ggfps_chains(X, g, [beta], [3], 200, init_mode=init_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 8 * n
    assert peak < (d + 2) * n * 4 + 9 * row


class TestSelectDispatch:
    def make(self):
        rng = np.random.default_rng(30)
        return make_labeled(rng.normal(size=(20, 2)), rng.uniform(0.1, 1.0, size=20))

    def test_urs_and_fps(self):
        labeled = self.make()
        r_urs = select(labeled, SamplerConfig(method="URS", n=5, seed=2))
        assert len(r_urs.indices) == 5 and r_urs.method == "URS"
        r_fps = select(labeled, SamplerConfig(method="FPS", n=5, seed=2))
        assert r_fps.indices == fps(labeled.descriptors, 5, seed=2)

    def test_ggfps_uniform_init_matches_fps_at_beta_zero(self):
        labeled = self.make()
        r_fps = select(labeled, SamplerConfig(method="FPS", n=8, seed=4))
        r_gg = select(
            labeled,
            SamplerConfig(method="GGFPS", n=8, beta=0.0, init_mode="random_uniform", seed=4),
        )
        assert r_gg.indices == r_fps.indices

    @pytest.mark.parametrize("method, extra, fields", [
        ("URS", {}, {"beta": None, "beta_mode": None, "init_mode": None}),
        ("FPS", {}, {"beta": None, "beta_mode": None, "init_mode": "random_uniform"}),
        ("GGFPS", {"beta": 0.5}, {"beta": 0.5, "beta_mode": "swept",
                                  "init_mode": "gradient_weighted"}),
    ], ids=["URS", "FPS", "GGFPS"])
    def test_selection_json_schema(self, method, extra, fields):
        labeled = self.make()
        result = select(labeled, SamplerConfig(method=method, n=3, seed=1, **extra))
        doc = json.loads(result.to_json())
        assert set(doc) == {"method", "seed", "beta", "beta_mode", "init_mode",
                            "indices", "warnings"}
        assert doc["method"] == method and doc["seed"] == 1 and len(doc["indices"]) == 3
        assert {name: doc[name] for name in fields} == fields
        assert doc["warnings"] == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            SamplerConfig(method="XXX", n=1)
        with pytest.raises(ValueError, match="beta"):
            SamplerConfig(method="GGFPS", n=1, beta=-0.5)
        with pytest.raises(ValueError, match="init_mode"):
            SamplerConfig(method="FPS", n=1, init_mode="gradient_argmax")
        with pytest.raises(ValueError, match="^beta: 7.0 requires method GGFPS"):
            SamplerConfig(method="URS", n=1, beta=7)
        with pytest.raises(ValueError, match="^beta_mode: 'constant' requires method GGFPS"):
            SamplerConfig(method="FPS", n=1, beta_mode="constant")
        # the values URS and FPS do use are still accepted
        SamplerConfig(method="FPS", n=1, beta=0.0, beta_mode="swept", init_mode="random_uniform")

import math

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg.lapack import dpotrf, dpotrs

from ggfps_lab.krr import (
    FactorizationError,
    fit,
    fit_prefixes,
    gaussian_gram,
    predict,
)
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample


def random_spd(rng, n, cond=10.0):
    A = rng.normal(size=(n, n))
    Q, _ = np.linalg.qr(A)
    eigs = np.linspace(1.0, cond, n)
    return Q @ np.diag(eigs) @ Q.T


class TestGaussianKernel:
    """Entry-wise checks of gaussian_gram, the one kernel the protocol uses."""

    def test_identical_points(self):
        x = np.array([[1.0, -2.0, 0.5]])
        assert gaussian_gram(x, x, sigma=0.7)[0, 0] == 1.0

    def test_distance_sigma_sqrt2(self):
        sigma = 1.3
        xi = np.zeros((1, 1))
        xj = np.array([[sigma * math.sqrt(2.0)]])
        assert gaussian_gram(xi, xj, sigma)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_flat_kernel_limit(self):
        assert gaussian_gram(np.zeros((1, 1)), np.ones((1, 1)), sigma=1e8)[0, 0] >= 1 - 1e-15

    def test_symmetry_and_range(self):
        X = np.random.default_rng(1).normal(size=(50, 4))
        K = gaussian_gram(X, X, 0.9)
        assert np.array_equal(K, K.T)
        assert np.all((K > 0.0) & (K <= 1.0))


class TestAssembleKernel:
    """Whole kernel matrices, as the protocol assembles them."""

    def test_unit_diagonal(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 3))
        K = gaussian_gram(X, X, 1.1)
        assert np.all(np.diag(K) == 1.0)
        assert np.max(np.abs(K - K.T)) < 1e-12

    def test_two_by_two_off_diagonal(self):
        sigma = 0.6
        X = np.array([[0.0], [sigma * math.sqrt(2.0)]])
        K = gaussian_gram(X, X, sigma)
        assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_empty_columns(self):
        X = np.random.default_rng(5).normal(size=(3, 2))
        K = gaussian_gram(X, np.zeros((0, 2)), 1.0)
        assert K.shape == (3, 0)


class TestFit:
    def test_scalar_solve(self):
        alpha = fit(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        assert alpha == pytest.approx([1.0], rel=1e-15)

    def test_diagonal_solve(self):
        y = np.array([3.0, -1.5, 0.25])
        alpha = fit(np.eye(3), y, lam=0.5)
        assert alpha == pytest.approx(y / 1.5, rel=1e-14)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = random_spd(rng, 8)
            y = rng.normal(size=8)
            lam = 1e-3
            alpha = fit(K, y, lam)
            oracle = np.linalg.inv(K + lam * np.eye(8)) @ y
            assert np.linalg.norm(alpha - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        for lam in (1e-2, 1e-4, 1e-6):
            K = random_spd(rng, 40, cond=1e4)
            y = rng.normal(size=40)
            alpha = fit(K, y, lam)
            residual = np.linalg.norm((K + lam * np.eye(40)) @ alpha - y)
            assert residual <= 1e-8 * np.linalg.norm(y)

    def test_not_positive_definite_reports_pivot(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(FactorizationError) as err:
            fit(K, np.ones(2), lam=1e-12)
        assert err.value.pivot == 2

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            K = random_spd(rng, 12, cond=50)
            y = rng.normal(size=12)
            norms = [np.linalg.norm(fit(K, y, lam)) for lam in (1e-4, 1e-2, 1.0, 10.0)]
            assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_training_residual_decreases_with_lambda(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(30, 2))
        y = rng.normal(size=30)
        K = gaussian_gram(X, X, 0.5)
        residuals = []
        for lam in (1e-2, 1e-6, 1e-10):
            alpha = fit(K, y, lam)
            residuals.append(np.linalg.norm(K @ alpha - y))
        assert residuals[0] > residuals[1] > residuals[2]


class TestFitPrefixes:
    def test_fit_is_one_direct_factor_and_solve(self):
        rng = np.random.default_rng(12)
        K = random_spd(rng, 30, cond=1e3)
        y = rng.normal(size=30)
        c, info = dpotrf(K + 1e-4 * np.eye(30), lower=1)
        expected, _ = dpotrs(c, y, lower=1)
        assert info == 0
        assert np.array_equal(fit(K, y, 1e-4), expected)

    def test_prefixes_match_direct_fit(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(120, 2))
        K = gaussian_gram(X, X, 0.7)
        y = rng.normal(size=120)
        sizes = [64, 1, 7, 50, 65, 7, 119]
        alphas, pivot = fit_prefixes(K, y, 1e-6, sizes)
        assert pivot == 0
        for m, alpha in zip(sizes, alphas):
            direct = fit(K[:m, :m], y[:m], 1e-6)
            assert np.linalg.norm(alpha - direct) <= 1e-8 * np.linalg.norm(direct)
        # the largest size is factored directly, so it is bitwise a plain fit
        assert np.array_equal(alphas[-1], fit(K[:119, :119], y[:119], 1e-6))

    def test_sizes_from_failing_pivot_are_dead(self):
        rng = np.random.default_rng(13)
        n, p = 12, 6
        K = random_spd(rng, n)
        # make the Schur complement of the leading (p-1) block negative, so
        # the leading minor of order p is the first indefinite one
        v = K[: p - 1, p - 1]
        K[p - 1, p - 1] = v @ np.linalg.solve(K[: p - 1, : p - 1], v) - 1.0
        y = rng.normal(size=n)
        sizes = [1, p - 1, p, n, 3]
        alphas, pivot = fit_prefixes(K, y, 1e-12, sizes)
        with pytest.raises(FactorizationError) as err:
            fit(K, y, 1e-12)
        assert pivot == err.value.pivot == p
        assert alphas[2] is None and alphas[3] is None
        for m, alpha in zip(sizes, alphas):
            if m < p:
                direct = fit(K[:m, :m], y[:m], 1e-12)
                assert np.linalg.norm(alpha - direct) <= 1e-8 * np.linalg.norm(direct)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_leaves_k_train_unchanged(self, order):
        # dpotrf factors its argument in place: the F-ordered case is a block
        # of exactly top x top, which a non-copying asfortranarray would hand over
        rng = np.random.default_rng(14)
        K = np.array(random_spd(rng, 30), order=order)
        before = K.copy(order=order)
        alphas, pivot = fit_prefixes(K, rng.normal(size=30), 1e-4, [10, 30])
        assert pivot == 0 and all(a is not None for a in alphas)
        assert np.array_equal(K, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_reads_only_the_lower_triangle(self, order):
        rng = np.random.default_rng(15)
        n = 25
        K = random_spd(rng, n)
        K[np.triu_indices(n, 1)] = np.nan
        symmetric = np.tril(K) + np.tril(K, -1).T
        y = rng.normal(size=n)
        sizes = [3, 17, n]
        got, pivot = fit_prefixes(np.array(K, order=order), y, 1e-6, sizes)
        expected, _ = fit_prefixes(symmetric, y, 1e-6, sizes)
        assert pivot == 0
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_factors_one_fortran_copy_in_place(self, monkeypatch):
        calls = []

        def recording_dpotrf(a, **kwargs):
            calls.append((a.flags.f_contiguous, kwargs))
            return dpotrf(a, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", recording_dpotrf)
        rng = np.random.default_rng(16)
        fit_prefixes(random_spd(rng, 20), rng.normal(size=20), 1e-4, [5, 12])
        assert calls == [(True, {"lower": 1, "overwrite_a": 1})]

    def test_rejects_sizes_outside_the_matrix(self):
        K, y = np.eye(3), np.ones(3)
        for sizes in ([], [0], [4]):
            with pytest.raises(ValueError, match="sizes"):
                fit_prefixes(K, y, 1.0, sizes)


class TestPredict:
    def test_zero_alpha(self):
        assert np.all(predict(np.ones((3, 4)), np.zeros(3)) == 0.0)

    def test_unit_column(self):
        alpha = np.array([0.5, -2.0, 3.0])
        K = np.zeros((3, 1))
        K[1, 0] = 1.0
        assert predict(K, alpha) == pytest.approx([-2.0])

    def test_interpolation_at_vanishing_lambda(self):
        labeled = uniform_domain_sample(StyblinskiTang(), 40, seed=14)
        K = gaussian_gram(labeled.descriptors, labeled.descriptors, 1.5)
        alpha = fit(K, labeled.labels, lam=1e-12)
        pred = predict(K, alpha)
        rel = np.abs(pred - labeled.labels) / np.maximum(np.abs(labeled.labels), 1.0)
        assert np.max(rel) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            predict(np.ones((3, 2)), np.ones(4))


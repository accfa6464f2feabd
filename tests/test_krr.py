import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.spatial.distance import cdist as scipy_cdist

from ggfps_lab import krr
from ggfps_lab.krr import (
    FactorizationError,
    cdist,
    fit_prefixes,
    gaussian_gram,
    predict,
)
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample


def solve(K, y, lam):
    """(K + lambda I)^-1 y by ``fit_prefixes`` at the full size, on a
    Fortran-ordered copy of K; FactorizationError where it fails."""
    (alpha,), pivot = fit_prefixes(np.array(K, dtype=float, order="F"), y, lam, [len(y)])
    if pivot:
        raise FactorizationError(pivot)
    return alpha


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
    """The full-size ridge solve: ``fit_prefixes`` with one size."""

    def test_scalar_solve(self):
        alpha = solve(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        assert alpha == pytest.approx([1.0], rel=1e-15)

    def test_diagonal_solve(self):
        y = np.array([3.0, -1.5, 0.25])
        alpha = solve(np.eye(3), y, lam=0.5)
        assert alpha == pytest.approx(y / 1.5, rel=1e-14)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            K = random_spd(rng, 8)
            y = rng.normal(size=8)
            lam = 1e-3
            alpha = solve(K, y, lam)
            oracle = np.linalg.inv(K + lam * np.eye(8)) @ y
            assert np.linalg.norm(alpha - oracle) <= 1e-10 * np.linalg.norm(oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(8)
        for lam in (1e-2, 1e-4, 1e-6):
            K = random_spd(rng, 40, cond=1e4)
            y = rng.normal(size=40)
            alpha = solve(K, y, lam)
            residual = np.linalg.norm((K + lam * np.eye(40)) @ alpha - y)
            assert residual <= 1e-8 * np.linalg.norm(y)

    def test_not_positive_definite_reports_pivot(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]], order="F")  # eigenvalues 3 and -1
        assert fit_prefixes(K, np.ones(2), 1e-12, [2]) == ([None], 2)

    def test_ridge_shrinkage(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            K = random_spd(rng, 12, cond=50)
            y = rng.normal(size=12)
            norms = [np.linalg.norm(solve(K, y, lam)) for lam in (1e-4, 1e-2, 1.0, 10.0)]
            assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_training_residual_decreases_with_lambda(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(30, 2))
        y = rng.normal(size=30)
        K = gaussian_gram(X, X, 0.5)
        residuals = []
        for lam in (1e-2, 1e-6, 1e-10):
            alpha = solve(K, y, lam)
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
        assert np.array_equal(solve(K, y, 1e-4), expected)

    def test_prefixes_match_direct_fit(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(120, 2))
        K = gaussian_gram(X, X, 0.7)
        y = rng.normal(size=120)
        sizes = [64, 1, 7, 50, 65, 7, 119]
        alphas, pivot = fit_prefixes(np.asfortranarray(K), y, 1e-6, sizes)
        assert pivot == 0
        for m, alpha in zip(sizes, alphas):
            direct = solve(K[:m, :m], y[:m], 1e-6)
            assert np.linalg.norm(alpha - direct) <= 1e-8 * np.linalg.norm(direct)
        # the largest size is factored directly, so it is bitwise a one-size solve
        assert np.array_equal(alphas[-1], solve(K[:119, :119], y[:119], 1e-6))

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
        alphas, pivot = fit_prefixes(np.asfortranarray(K), y, 1e-12, sizes)
        with pytest.raises(FactorizationError) as err:
            solve(K, y, 1e-12)
        assert pivot == err.value.pivot == p
        assert alphas[2] is None and alphas[3] is None
        for m, alpha in zip(sizes, alphas):
            if m < p:
                direct = solve(K[:m, :m], y[:m], 1e-12)
                assert np.linalg.norm(alpha - direct) <= 1e-8 * np.linalg.norm(direct)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factors_k_train_in_place_or_rejects_its_layout(self, order):
        """``fit_prefixes`` overwrites the lower triangle of its argument's
        largest block with the factor, and nothing else; an argument whose
        rows are not unit-stride is rejected untouched."""
        rng = np.random.default_rng(14)
        K = np.array(random_spd(rng, 30), order=order)
        y = rng.normal(size=30)
        before = K.copy(order="A")
        if order == "C":
            for bad in (K, np.asfortranarray(K)[::2, ::2], np.asfortranarray(K)[::-1, ::-1]):
                with pytest.raises(ValueError, match="unit-stride rows"):
                    fit_prefixes(bad, y[:len(bad)], 1e-4, [len(bad)])
            assert np.array_equal(K, before)
            return
        alphas, pivot = fit_prefixes(K, y, 1e-4, [10, 20])
        assert pivot == 0 and all(a is not None for a in alphas)
        A = before[:20, :20] + 1e-4 * np.eye(20)
        c, _ = dpotrf(np.asfortranarray(A), lower=1, clean=0)
        assert np.tril(K[:20, :20]).tobytes() == np.tril(c).tobytes()
        changed = np.zeros(K.shape, dtype=bool)
        changed[:20, :20] = np.tri(20, dtype=bool)
        assert np.array_equal(K[~changed], before[~changed])

    @pytest.mark.parametrize("layout", ["F", "block"])
    def test_reads_only_the_lower_triangle(self, layout):
        rng = np.random.default_rng(15)
        n = 25
        K = random_spd(rng, n)
        K[np.triu_indices(n, 1)] = np.nan
        symmetric = np.tril(K) + np.tril(K, -1).T
        y = rng.normal(size=n)
        sizes = [3, 17, n]
        if layout == "F":
            arg = np.array(K, order="F")
        else:  # the leading block of a larger buffer, NaN around it
            buffer = np.full((n + 7, n + 2), np.nan, order="F")
            buffer[:n, :n] = K
            arg = buffer[:n, :n]
        got, pivot = fit_prefixes(arg, y, 1e-6, sizes)
        expected, _ = fit_prefixes(np.asfortranarray(symmetric), y, 1e-6, sizes)
        assert pivot == 0
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert np.isnan(arg[np.triu_indices(n, 1)]).all()

    def test_factors_its_argument_in_place(self, monkeypatch):
        """One dpotrf call factors the largest block where it lies in the
        argument, through the argument's own leading dimension, and each size
        is solved on that factor's leading block, with no copy of any block;
        a leading block of a larger buffer keeps the buffer's leading
        dimension."""
        if krr._lapack() is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        potrf, potrs = krr._lapack()
        calls = []

        def recording_potrf(uplo, n, a, lda, info, uplo_len):
            calls.append(("dpotrf", uplo, n.value, a, lda.value))
            return potrf(uplo, n, a, lda, info, uplo_len)

        def recording_potrs(uplo, n, nrhs, a, lda, b, ldb, info, uplo_len):
            calls.append(("dpotrs", uplo, n.value, a, lda.value))
            return potrs(uplo, n, nrhs, a, lda, b, ldb, info, uplo_len)

        monkeypatch.setattr(krr, "_lapack", lambda: (recording_potrf, recording_potrs))
        rng = np.random.default_rng(16)
        spd = random_spd(rng, 20)
        y = rng.normal(size=20)
        for n in (20, 16):
            buffer = np.asfortranarray(spd)  # a fresh copy for each call
            K, lda = buffer[:n, :n], 20
            calls.clear()
            alphas, pivot = fit_prefixes(K, y[:len(K)], 1e-4, [5, 12])
            assert pivot == 0 and all(a is not None for a in alphas)
            factor = K.ctypes.data
            assert factor == buffer.ctypes.data
            assert calls == [("dpotrf", b"L", 12, factor, lda),
                             ("dpotrs", b"L", 5, factor, lda), ("dpotrs", b"L", 12, factor, lda)]

    @pytest.mark.parametrize("path", ["ctypes", "fallback"])
    @pytest.mark.parametrize("kind", ["spd", "near_singular", "indefinite"])
    def test_bitwise_scipy_lapack(self, monkeypatch, path, kind):
        """Through the ctypes binding and through the scipy.linalg.lapack
        fallback, every alpha and the pivot are bitwise what scipy's wrappers
        give: dpotrf on the largest block, dpotrs on its factor's leading
        blocks."""
        if path == "fallback":
            monkeypatch.setattr(krr, "_lapack", lambda: None)
        elif krr._lapack() is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        rng = np.random.default_rng(17)
        failed = 0
        for trial in range(30):
            n = int(rng.integers(2, 300))
            X = rng.uniform(-3.0, 3.0, size=(n, 2))
            if kind == "spd":
                K, lam = gaussian_gram(X, X, rng.uniform(0.2, 2.0)), 1e-6
            elif kind == "near_singular":  # fails at a pivot for most n
                K, lam = gaussian_gram(X, X, 5.0), 1e-300
            else:
                M = rng.normal(size=(n, n))
                K, lam = M + M.T, 1e-3
            y = rng.normal(size=n)
            sizes = sorted({int(m) for m in rng.integers(1, n + 1, size=4)})
            alphas, pivot = fit_prefixes(np.asfortranarray(K), y, lam, sizes)
            A = np.array(K[:max(sizes), :max(sizes)], order="F")
            A[np.diag_indices(len(A))] += lam
            c, expected_pivot = dpotrf(A, lower=1)
            assert pivot == expected_pivot
            failed += pivot > 0
            for m, alpha in zip(sizes, alphas):
                if pivot and m >= pivot:
                    assert alpha is None
                else:
                    assert alpha.tobytes() == dpotrs(c[:m, :m], y[:m], lower=1)[0].tobytes()
        assert (failed == 0) if kind == "spd" else failed >= 10

    @pytest.mark.parametrize("path", ["ctypes", "fallback"])
    @pytest.mark.parametrize("kind", ["spd", "near_singular", "indefinite"])
    def test_leading_block_of_a_larger_buffer_is_bitwise_a_compact_factor(
            self, monkeypatch, path, kind):
        """A leading-block view of a larger Fortran buffer (leading dimension
        above the block's size, as the cross-validation grid passes once its
        larger sizes die) gives bitwise the alphas, pivot and factor of a
        compact Fortran copy, and leaves the rest of the buffer alone."""
        if path == "fallback":
            monkeypatch.setattr(krr, "_lapack", lambda: None)
        elif krr._lapack() is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        rng = np.random.default_rng(18)
        failed = 0
        for trial in range(30):
            n = int(rng.integers(1, 300))
            X = rng.uniform(-3.0, 3.0, size=(n, 2))
            if kind == "spd":
                K, lam = gaussian_gram(X, X, rng.uniform(0.2, 2.0)), 1e-6
            elif kind == "near_singular":
                K, lam = gaussian_gram(X, X, 5.0), 1e-300
            else:
                M = rng.normal(size=(n, n))
                K, lam = M + M.T, 1e-3
            y = rng.normal(size=n)
            sizes = sorted({int(m) for m in rng.integers(1, n + 1, size=4)})
            buffer = np.full((n + int(rng.integers(1, 70)), n + 1), np.nan, order="F")
            buffer[:n, :n] = K
            compact = np.asfortranarray(K)
            got, pivot = fit_prefixes(buffer[:n, :n], y, lam, sizes)
            expected, expected_pivot = fit_prefixes(compact, y, lam, sizes)
            assert pivot == expected_pivot
            failed += pivot > 0
            for a, b in zip(got, expected):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert buffer[:n, :n].tobytes(order="F") == compact.tobytes(order="F")
            assert np.isnan(buffer[n:]).all() and np.isnan(buffer[:, n:]).all()
        assert (failed == 0) if kind == "spd" else failed >= 10

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
        alpha = solve(K, labeled.labels, lam=1e-12)
        pred = predict(K, alpha)
        rel = np.abs(pred - labeled.labels) / np.maximum(np.abs(labeled.labels), 1.0)
        assert np.max(rel) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            predict(np.ones((3, 2)), np.ones(4))



class TestCdist:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 64), st.integers(1, 25), st.integers(1, 25), st.integers(0, 2**32),
           st.booleans(), st.sampled_from([1, 30, 200, krr._CDIST_BLOCK]))
    def test_bitwise_scipy_sqeuclidean(self, dim, na, nb, seed, given_out, block):
        """Bitwise scipy's ``cdist(..., "sqeuclidean")``, with row scales from
        1e-300 to 1e300 (whose squares underflow to 0 or overflow to inf),
        duplicate rows, blocks of one row to all rows, and no RuntimeWarning."""
        rng = np.random.default_rng(seed)

        def rows(n):
            return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 301, size=(n, 1))

        A, B = rows(na), rows(nb)
        A[rng.integers(0, na, size=na // 3)] = A[0]
        B[0] = A[-1]
        expected = scipy_cdist(A, B, "sqeuclidean")
        with warnings.catch_warnings(), mock.patch.object(krr, "_CDIST_BLOCK", block):
            warnings.simplefilter("error")
            got = cdist(A, B, out=np.empty((na, nb)) if given_out else None)
        assert got.tobytes() == expected.tobytes()

    def test_empty_and_zero_width(self):
        """No rows on either side gives an empty block; no columns, which no
        dataset has, is rejected."""
        assert cdist(np.zeros((0, 3)), np.ones((4, 3))).shape == (0, 4)
        assert cdist(np.ones((4, 3)), np.zeros((0, 3))).shape == (4, 0)
        with pytest.raises(ValueError, match="width >= 1"):
            cdist(np.zeros((2, 0)), np.zeros((3, 0)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="width"):
            cdist(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="out"):
            cdist(np.ones((2, 2)), np.ones((3, 2)), out=np.empty((3, 2)))

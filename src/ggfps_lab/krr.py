"""Kernel ridge regression with a global Gaussian kernel.

The dual coefficients solve (K + lambda I) alpha = y through a Cholesky
factorization; predictions contract test-kernel columns against alpha.
"""
from __future__ import annotations

import numpy as np


class FactorizationError(RuntimeError):
    """The regularized kernel matrix was not positive definite.

    ``pivot`` is the 1-based index of the failing Cholesky pivot, or 0 when
    no single pivot is attributable (e.g. every grid candidate failed).
    """

    def __init__(self, pivot: int):
        where = f" at pivot {pivot}" if pivot else " for every candidate"
        super().__init__(f"factorization failed{where}: matrix is not positive definite")
        self.pivot = pivot


def cdist(XA, XB, metric: str, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.spatial.distance.cdist``, imported on the first call.

    Importing scipy.spatial also loads scipy.linalg; the two would more than
    double the package's import time and memory, and ``generate`` and
    ``sample`` use neither. ``fit_prefixes`` imports its LAPACK routines the
    same way.
    """
    from scipy.spatial.distance import cdist as scipy_cdist
    return scipy_cdist(XA, XB, metric=metric, out=out)


def gaussian_gram(rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Dense Gaussian kernel matrix between two descriptor stacks."""
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.shape[0], cols.shape[0]))
    d2 = cdist(rows, cols, metric="sqeuclidean")
    # in place, bitwise equal to np.exp(-d2 / (2 sigma^2)): negating either
    # operand of a division is exact. A quotient that overflows to -inf
    # (2 sigma^2 subnormal) gives exp = 0, the correctly rounded value.
    with np.errstate(over="ignore"):
        return np.exp(np.divide(d2, -(2.0 * sigma * sigma), out=d2), out=d2)


def fit_prefixes(K_train: np.ndarray, y: np.ndarray, lam: float,
                 sizes) -> tuple[list[np.ndarray | None], int]:
    """Solve (K[:m, :m] + lambda I) alpha = y[:m] for every m in ``sizes``
    from one Cholesky factorization of the largest such block.

    The Cholesky factor of a leading block is the leading block of the
    factor (Golub & Van Loan, section 4.2), so each size costs one pair of
    triangular solves. Returns the alphas, in the order of ``sizes``, and the
    1-based failing pivot p of the largest block (0 when it factored): the
    leading minor of order p is not positive definite, so every size m >= p
    gets None while smaller sizes are still solved.

    Only the lower triangle of ``K_train`` is read, and ``K_train`` is never
    written: each call makes one Fortran-ordered copy of the largest block,
    which LAPACK factors in place. A Fortran-ordered ``K_train`` makes that
    a column-by-column copy rather than a transpose.
    """
    K_train = np.asarray(K_train, dtype=float)
    y = np.asarray(y, dtype=float)
    n = K_train.shape[0]
    if K_train.shape != (n, n):
        raise ValueError("K_train must be square")
    if y.shape != (n,):
        raise ValueError("y length must match K_train")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    sizes = [int(m) for m in sizes]
    if not sizes or min(sizes) < 1 or max(sizes) > n:
        raise ValueError("sizes must be non-empty and within 1..len(y)")
    from scipy.linalg.lapack import dpotrf, dpotrs

    top = max(sizes)
    # always a copy, never a view of K_train: dpotrf overwrites it
    A = np.array(K_train[:top, :top], order="F")
    A[np.diag_indices(top)] += lam
    c, pivot = dpotrf(A, lower=1, overwrite_a=1)
    alphas: list[np.ndarray | None] = []
    for m in sizes:
        if pivot and m >= pivot:
            alphas.append(None)
            continue
        alpha, info = dpotrs(c[:m, :m], y[:m], lower=1)
        if info != 0:  # pragma: no cover - dpotrs only fails on bad arguments
            raise FactorizationError(int(abs(info)))
        alphas.append(alpha)
    return alphas, int(pivot)


def fit(K_train: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve (K + lambda I) alpha = y by Cholesky factorization."""
    K_train = np.asarray(K_train, dtype=float)
    (alpha,), pivot = fit_prefixes(K_train, y, lam, [K_train.shape[0]])
    if pivot:
        raise FactorizationError(pivot)
    return alpha


def predict(K_test: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Dual contraction: prediction q sums alpha_i * K_test[i, q] over train points."""
    K_test = np.asarray(K_test, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if K_test.ndim != 2 or alpha.ndim != 1 or K_test.shape[0] != alpha.shape[0]:
        raise ValueError(
            f"dimension mismatch: K_test {K_test.shape} vs alpha {alpha.shape}"
        )
    return alpha @ K_test

"""Kernel ridge regression with a global Gaussian kernel.

The dual coefficients solve (K + lambda I) alpha = y through a Cholesky
factorization; predictions contract test-kernel columns against alpha.

Nothing here imports ``scipy.linalg`` or ``scipy.spatial``: for three
routines, they would add about 30 MiB to the package's 35 MiB of resident
memory, and about half a second at first use. Squared distances are computed
in numpy, and the Cholesky routines ``dpotrf`` and ``dpotrs`` are called
through ctypes in the OpenBLAS that scipy's wheel bundles, the library that
``scipy.linalg.lapack`` itself calls, loaded on the first fit.

This is the one module that opens, declares or configures the OpenBLAS
copies that numpy and scipy bundle, each with its own thread pool. The
program sets numpy's pool to one thread (``pin_numpy_blas``, which the CLI
calls first). ``curve`` cross-validates on scipy's pool at one thread
(``scipy_blas_on_one_thread``), its workers side by side, and makes its
final fits on the pool's default. Beyond the versions, ``curve``'s output
bytes depend on three things: scipy's default thread count, through the
final fits only (OpenBLAS splits a factorization's sums per thread), the
kernel family that OpenBLAS picks for the CPU, and numpy's SIMD dispatch,
by which ``exp`` and ``log`` round. The tests pin all three:
``OPENBLAS_CORETYPE=Nehalem``, ``OPENBLAS_NUM_THREADS=1``, and
``NPY_DISABLE_CPU_FEATURES`` naming every target in numpy's
``__cpu_dispatch__``.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
from pathlib import Path

import numpy as np

# doubles in cdist's temporary: one block of rows
_CDIST_BLOCK = 1 << 15


class FactorizationError(RuntimeError):
    """The regularized kernel matrix was not positive definite.

    ``pivot`` is the 1-based index of the failing Cholesky pivot, or 0 when
    no single pivot is attributable (e.g. every grid candidate failed).
    """

    def __init__(self, pivot: int):
        where = f" at pivot {pivot}" if pivot else " for every candidate"
        super().__init__(f"factorization failed{where}: matrix is not positive definite")
        self.pivot = pivot


@functools.cache
def bundled_openblas(package: str) -> ctypes.CDLL | None:
    """ctypes handle on the OpenBLAS that ``package``'s wheel bundles
    (``<site-packages>/<package>.libs/libscipy_openblas*``), cached; None
    where there is no such library.

    The first call loads the library, or finds the copy that the package's
    own extension modules loaded or will load: the same file, so the same
    library and thread pool (numpy's, which ``import numpy`` loads, maps no
    second time). No symbol is declared here; each caller declares what it
    calls.
    """
    root = Path(importlib.import_module(package).__file__).parents[1]
    found = sorted((root / f"{package}.libs").glob("libscipy_openblas*"))
    if not found:
        return None
    try:
        return ctypes.CDLL(str(found[0]))
    except OSError:
        return None


@functools.cache
def _lapack():
    """``dpotrf`` and ``dpotrs`` of scipy's bundled OpenBLAS, declared for
    ctypes, or None where that library or either symbol is missing. Each
    takes gfortran's hidden length of its ``uplo`` string last; ctypes
    releases the GIL while they run."""
    lib = bundled_openblas("scipy")
    if lib is None or not (hasattr(lib, "scipy_dpotrf_") and hasattr(lib, "scipy_dpotrs_")):
        return None
    int_p = ctypes.POINTER(ctypes.c_int)
    potrf, potrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
    # uplo, n, a, lda, info, len(uplo)
    potrf.argtypes = [ctypes.c_char_p, int_p, ctypes.c_void_p, int_p, int_p, ctypes.c_size_t]
    # uplo, n, nrhs, a, lda, b, ldb, info, len(uplo)
    potrs.argtypes = [ctypes.c_char_p, int_p, int_p, ctypes.c_void_p, int_p, ctypes.c_void_p,
                      int_p, int_p, ctypes.c_size_t]
    potrf.restype = potrs.restype = None
    return potrf, potrs


def pin_numpy_blas() -> None:
    """Run numpy's BLAS products on one thread; a no-op without its OpenBLAS.

    numpy's products give the same bytes on any thread count: ``predict``'s,
    and the selection screen's float32 ``sgemm`` (``dgemm`` on pools where
    float32 rules out too few points), which only decides which distances to
    recompute exactly. But OpenBLAS workers poll for a while after each call
    before they sleep, so an idle numpy worker most likely takes a core that
    scipy's two-thread Cholesky needs: on 2 cores, pinning it took the
    benchmark's ``plain-cv`` from 2.98 to 2.44 s (medians of 10 runs each).
    """
    setter = getattr(bundled_openblas("numpy"), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


@contextlib.contextmanager
def scipy_blas_on_one_thread():
    """Run scipy's OpenBLAS on one thread inside the block, and restore its
    thread count after. Yields True, or False with nothing set where the
    pool cannot be set: without the ctypes ``dpotrf``/``dpotrs`` (the
    ``scipy.linalg.lapack`` fallback) or the library's thread setter.

    ``run_experiment`` cross-validates its replicates inside the block, on
    worker threads that each call ``dpotrf`` on their own one-thread share
    of the library. Call it in the main thread before any worker starts: it
    loads the cached library handle and ``_lapack``'s declarations.
    """
    lib = bundled_openblas("scipy")
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    put = getattr(lib, "scipy_openblas_set_num_threads", None)
    if _lapack() is None or get is None or put is None:
        yield False
        return
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)


def cdist(XA, XB, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``XA`` and ``XB``,
    matrices of at least one column.

    Bitwise ``scipy.spatial.distance.cdist(XA, XB, "sqeuclidean")``: each
    entry adds the squared coordinate differences in coordinate order, as
    scipy's loop does, so ``cdist(A, A)`` is bitwise symmetric. A sum that
    overflows is inf, with no warning. The only temporary covers one block
    of rows (``_CDIST_BLOCK`` doubles).
    """
    XA = np.asarray(XA, dtype=float)
    XB = np.asarray(XB, dtype=float)
    if XA.ndim != 2 or XB.ndim != 2 or XA.shape[1] != XB.shape[1] or XA.shape[1] < 1:
        raise ValueError(f"XA {XA.shape} and XB {XB.shape} must be matrices of equal width >= 1")
    (na, d), nb = XA.shape, XB.shape[0]
    if out is None:
        out = np.empty((na, nb))
    elif out.shape != (na, nb) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(na, nb)}")
    cols = XB.T.copy()  # each coordinate of XB contiguous
    rows = max(1, _CDIST_BLOCK // max(nb, 1))
    tmp = np.empty((min(rows, na) if d > 1 else 0, nb))
    with np.errstate(over="ignore"):
        for start in range(0, na, rows):
            a, blk = XA[start:start + rows], out[start:start + rows]
            sq = tmp[:len(blk)]
            np.subtract(a[:, :1], cols[0], out=blk)
            np.multiply(blk, blk, out=blk)
            for k in range(1, d):
                np.subtract(a[:, k:k + 1], cols[k], out=sq)
                np.multiply(sq, sq, out=sq)
                np.add(blk, sq, out=blk)
    return out


def gaussian_gram(rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Dense Gaussian kernel matrix between two descriptor stacks."""
    d2 = cdist(rows, cols)
    return gaussian_kernel(d2, sigma, out=d2)


def gaussian_kernel(d2: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """exp(-d2 / (2 sigma^2)) into ``out`` (which may be ``d2``), with no
    temporaries and bitwise as written: negating either operand of a division
    is exact. A quotient that overflows to -inf (2 sigma^2 subnormal) gives
    exp = 0, the correctly rounded value."""
    with np.errstate(over="ignore"):
        return np.exp(np.divide(d2, -(2.0 * sigma * sigma), out=out), out=out)


def fit_prefixes(K_train: np.ndarray, y: np.ndarray, lam: float,
                 sizes) -> tuple[list[np.ndarray | None], int]:
    """Solve (K[:m, :m] + lambda I) alpha = y[:m] for every m in ``sizes``
    from one Cholesky factorization of the largest such block, made in place.

    The Cholesky factor of a leading block is the leading block of the
    factor (Golub & Van Loan, section 4.2), so each size costs one pair of
    triangular solves. Returns the alphas, in the order of ``sizes``, and the
    1-based failing pivot p of the largest block (0 when it factored): the
    leading minor of order p is not positive definite, so every size m >= p
    gets None while smaller sizes are still solved.

    ``K_train`` is factored in place: a float64 matrix with unit-stride rows
    (Fortran-ordered, or a leading block of such a buffer; else ValueError).
    Its largest block gets lambda on the diagonal and the factor in its lower
    triangle, through its own leading dimension, and each size is solved on
    the factor's leading block; the upper triangle is never read or written.
    The routines are scipy's OpenBLAS ``dpotrf`` and ``dpotrs`` through
    ctypes (``_lapack``), which give bitwise what ``scipy.linalg.lapack``
    gives; that module is the fallback where the library is missing.
    """
    y = np.asarray(y, dtype=float)
    n = np.shape(K_train)[0]
    if np.shape(K_train) != (n, n):
        raise ValueError("K_train must be square")
    if y.shape != (n,):
        raise ValueError("y length must match K_train")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    sizes = [int(m) for m in sizes]
    if not sizes or min(sizes) < 1 or max(sizes) > n:
        raise ValueError("sizes must be non-empty and within 1..len(y)")
    if (not isinstance(K_train, np.ndarray) or K_train.dtype != np.float64
            or K_train.strides[0] != 8 or K_train.strides[1] % 8 or K_train.strides[1] < 8 * n):
        raise ValueError("K_train must be a float64 matrix with unit-stride rows (Fortran)")

    top = max(sizes)
    A = K_train[:top, :top]
    A[np.diag_indices(top)] += lam
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg.lapack import dpotrf, dpotrs
        # clean=0: the upper triangle is never read, so it is not zeroed
        c, pivot = dpotrf(A, lower=1, clean=0, overwrite_a=1)
        if not np.may_share_memory(c, A):  # f2py copies a block with lda > top
            A[np.tril_indices(top)] = c[np.tril_indices(top)]

        def solve(m):
            return dpotrs(A[:m, :m], y[:m], lower=1)
    else:
        potrf, potrs = lapack
        lda, info = ctypes.c_int(A.strides[1] // 8), ctypes.c_int()
        potrf(b"L", ctypes.c_int(top), A.ctypes.data, lda, info, 1)
        pivot = info.value

        def solve(m):
            alpha = y[:m].copy()
            # the leading m x m block of A, read in place through lda
            potrs(b"L", ctypes.c_int(m), ctypes.c_int(1), A.ctypes.data, lda,
                  alpha.ctypes.data, ctypes.c_int(m), info, 1)
            return alpha, info.value
    alphas: list[np.ndarray | None] = []
    for m in sizes:
        if pivot and m >= pivot:
            alphas.append(None)
            continue
        alpha, status = solve(m)
        if status != 0:  # pragma: no cover - dpotrs only fails on bad arguments
            raise FactorizationError(int(abs(status)))
        alphas.append(alpha)
    return alphas, int(pivot)


def predict(K_test: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Dual contraction: prediction q sums alpha_i * K_test[i, q] over train points."""
    K_test = np.asarray(K_test, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if K_test.ndim != 2 or alpha.ndim != 1 or K_test.shape[0] != alpha.shape[0]:
        raise ValueError(
            f"dimension mismatch: K_test {K_test.shape} vs alpha {alpha.shape}"
        )
    return alpha @ K_test

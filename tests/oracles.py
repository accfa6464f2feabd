"""Independent reference implementations used to check the library.

Everything here recomputes from scratch: full pairwise distance matrices,
per-step minimum-distance recomputation, plain-power scores, explicit
matrix inverses and central finite differences. None of it shares code
with the package, except the exhaustive cross-validation loops.
``greedy_rows`` and ``labeled_arrays_from_csv`` keep the package's former,
straightforward selection kernel and CSV parser as the references its
faster versions must match bit for bit. ``exhaustive_plain_cv`` and
``exhaustive_ggfps_cv`` keep the former fold loops, which score every
candidate on every fold through the package's own fold routine: the
pruned search must return the same choice and, wherever it reports a
finite cost, the same bits. ``kde_expression`` and ``plain_silverman``
keep the former KDE expression, with its whole-matrix temporaries, and
the former bandwidth, with the std of the samples as given.
"""
import numpy as np

from ggfps_lab.experiments import _fold_costs, _fold_means, _mirror_size, derive_seed
from ggfps_lab.sampling import ggfps_chains


def full_distance_matrix(X):
    n = len(X)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = np.sqrt(np.sum((X[i] - X[j]) ** 2))
    return D


def min_dist_from_scratch(D, selected, remaining):
    """d_j = min over selected of D[s, j], recomputed with no incremental state."""
    return {j: min(D[s, j] for s in selected) for j in remaining}


def greedy_fps(X, n, init):
    D = full_distance_matrix(X)
    selected = [init]
    remaining = [j for j in range(len(X)) if j != init]
    while len(selected) < n:
        d = min_dist_from_scratch(D, selected, remaining)
        best = max(remaining, key=lambda j: (d[j], -j))
        selected.append(best)
        remaining.remove(best)
    return selected


def greedy_ggfps(X, g, n, init, betas, grad_floor_rel=1e-12):
    """Plain-power scores g^beta_k * d_j with per-step recomputation."""
    D = full_distance_matrix(X)
    gmax = max(g)
    floor = grad_floor_rel * gmax if gmax > 0 else np.finfo(float).tiny
    floor = max(floor, np.finfo(float).tiny)
    gc = np.maximum(np.asarray(g, dtype=float), floor)
    selected = [init]
    remaining = [j for j in range(len(X)) if j != init]
    k = 1
    while len(selected) < n:
        d = min_dist_from_scratch(D, selected, remaining)
        beta_k = betas[k]
        scores = {j: gc[j] ** beta_k * d[j] for j in remaining}
        best = max(remaining, key=lambda j: (scores[j], -j))
        selected.append(best)
        remaining.remove(best)
        k += 1
    return selected


def alternating_betas(beta, n):
    """Descending-magnitude alternating-sign exponent sequence, derived
    directly from the definition (no shared code with the package)."""
    mags = sorted(abs(v) for v in np.linspace(-beta, beta, n))[::-1]
    return [m if i % 2 == 0 else -m for i, m in enumerate(mags)]


def greedy_fps_fast(X, n, init):
    """Vectorized from-scratch oracle: the full distance matrix is built once
    and minimum distances are recomputed over all selected points each step."""
    D = full_distance_matrix_vec(X)
    selected = [init]
    remaining = np.array([j for j in range(len(X)) if j != init])
    while len(selected) < n:
        d = D[np.ix_(selected, remaining)].min(axis=0)
        best = remaining[int(np.argmax(d))]
        selected.append(int(best))
        remaining = remaining[remaining != best]
    return selected


def greedy_ggfps_fast(X, g, n, init, betas, grad_floor_rel=1e-12):
    """Vectorized from-scratch oracle with plain-power scores."""
    D = full_distance_matrix_vec(X)
    gmax = max(g)
    floor = grad_floor_rel * gmax if gmax > 0 else np.finfo(float).tiny
    floor = max(floor, np.finfo(float).tiny)
    gc = np.maximum(np.asarray(g, dtype=float), floor)
    selected = [init]
    remaining = np.array([j for j in range(len(X)) if j != init])
    k = 1
    while len(selected) < n:
        d = D[np.ix_(selected, remaining)].min(axis=0)
        scores = gc[remaining] ** betas[k] * d
        best = remaining[int(np.argmax(scores))]
        selected.append(int(best))
        remaining = remaining[remaining != best]
        k += 1
    return selected


def full_distance_matrix_vec(X):
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def central_difference_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def random_rotation(dim, rng):
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    A = rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def distance_rows(XT, idx):
    """Distance rows ``out[r, j] = ||x_j - x_idx[r]||`` from a transposed (d, N)
    copy: squared coordinate differences added in coordinate order, then
    square-rooted."""
    out = np.zeros((len(idx), XT.shape[1]))
    diff = np.empty_like(out)
    for coord in XT:
        np.subtract(coord, coord[idx, None], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return np.sqrt(out, out=out)


def greedy_rows(X, inits, exponents, log_g=None, excluded=None):
    """Lockstep greedy max-min selection that recomputes the full distance row
    of every new pick and every score at each step (the rule of
    ``sampling._greedy``). ``log_g`` and ``excluded`` may hold one row per
    group of consecutive chains, (G, N); a chain's excluded rows count as
    taken from the start."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    inits = np.asarray(inits, dtype=np.intp)
    n_chains, n = exponents.shape
    chains = np.arange(n_chains)
    picks = np.empty((n_chains, n), dtype=np.intp)
    picks[:, 0] = inits
    min_dist = distance_rows(XT, inits)
    if log_g is not None:
        log_g = np.reshape(log_g, (-1, XT.shape[1]))
        log_g = np.repeat(log_g, n_chains // len(log_g), axis=0)
    if excluded is None:
        taken = np.zeros(min_dist.shape, dtype=bool)
    else:
        taken = np.repeat(excluded, n_chains // len(excluded), axis=0)
    taken[chains, inits] = True
    score = np.empty_like(min_dist)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            beta = exponents[:, k]
            zero = beta == 0.0
            if zero.all():
                np.copyto(score, min_dist)
            else:
                np.log(min_dist, out=score)
                score += beta[:, None] * log_g
                if zero.any():
                    score[zero] = min_dist[zero]
            np.copyto(score, -np.inf, where=taken)
            best = score.argmax(axis=1)
            stuck = score[chains, best] == -np.inf
            if stuck.any():
                best[stuck] = taken[stuck].argmin(axis=1)
            picks[:, k] = best
            taken[chains, best] = True
            if k + 1 < n:
                np.minimum(min_dist, distance_rows(XT, best), out=min_dist)
    return picks


def labeled_arrays_from_csv(text):
    """Row-by-row CSV parse: (descriptors, labels, gradient norms, ids), with
    errors raised in row order and, within a row, field order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV document")
    header = lines[0].split(",")
    if header[:3] != ["id", "label", "grad_norm"]:
        raise ValueError("CSV header must start with id,label,grad_norm")
    d = len(header) - 3
    ids, labels, gnorms, rows = [], [], [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3 + d:
            raise ValueError(f"row has {len(parts)} fields, expected {3 + d}")
        ids.append(parts[0])
        labels.append(float(parts[1]))
        gnorms.append(float(parts[2]))
        rows.append([float(v) for v in parts[3:]])
    return (np.asarray(rows, dtype=float).reshape(len(ids), d), np.asarray(labels, dtype=float),
            np.asarray(gnorms, dtype=float), tuple(ids))


def exhaustive_plain_cv(cv):
    """Mean fold costs of every (sigma, lambda) candidate of a ``_PlainCv``,
    shape (sigmas, lambdas, 1)."""
    plan = cv.plan
    shape = (1, len(plan.sigma_grid), len(plan.lambda_grid), 1)
    sums = np.zeros(shape)
    dead = np.zeros(shape, dtype=bool)
    for val in cv.val_folds:
        tr = np.setdiff1d(np.arange(len(cv.train)), val)
        sums += _fold_costs(cv.train, plan, val, tr[None], [len(tr)], dead)
    return _fold_means(sums, dead, len(cv.val_folds))[0]


def exhaustive_ggfps_cv(cv, target_sizes):
    """Mean fold costs of every (sigma, lambda, beta) candidate of a
    ``_GgfpsCv``, shape (len(target_sizes), sigmas, lambdas, betas); every
    fold selects the chains of every beta."""
    plan, train = cv.plan, cv.train
    shape = (len(target_sizes), len(plan.sigma_grid), len(plan.lambda_grid),
             len(plan.beta_grid))
    sums = np.zeros(shape)
    dead = np.zeros(shape, dtype=bool)
    for fi, val in enumerate(cv.val_folds):
        pool = np.setdiff1d(np.arange(len(train)), val)
        chain_len = _mirror_size(max(target_sizes), plan.folds, len(pool))
        seeds = [derive_seed(cv.seed, "fold-select", fi, bi)
                 for bi in range(len(plan.beta_grid))]
        chains, _ = ggfps_chains(train.descriptors[pool], train.gradient_norms[pool],
                                 plan.beta_grid, seeds, chain_len)
        sizes = [_mirror_size(ts, plan.folds, chain_len) for ts in target_sizes]
        sums += _fold_costs(train, plan, val, pool[chains], sizes, dead)
    return _fold_means(sums, dead, len(cv.val_folds))


def kde_expression(samples, grid, h):
    """Gaussian KDE of ``samples`` on ``grid`` with bandwidth ``h``, as one
    numpy expression over (len(grid), len(samples)) temporaries."""
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    with np.errstate(over="ignore"):
        z2 = ((grid[:, None] - samples[None, :]) / h) ** 2
    return np.exp(-0.5 * z2).sum(axis=1) / (len(samples) * h * np.sqrt(2.0 * np.pi))


def plain_silverman(samples):
    """0.9 * min(std, IQR / 1.34) * n^(-1/5), the std taken of the samples
    as given (so it underflows to 0 on samples spread about 1e-300)."""
    samples = np.asarray(samples, dtype=float)
    with np.errstate(over="ignore"):
        std = float(np.std(samples, ddof=1))
    q1, q3 = np.percentile(samples, [25.0, 75.0])
    iqr = float(q3 - q1)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * scale * len(samples) ** (-0.2)

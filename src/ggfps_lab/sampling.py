"""Training-set selection: uniform random, furthest-point and gradient-guided
furthest-point sampling.

FPS greedily picks the point whose minimum descriptor distance to the
already-selected set is largest. GGFPS multiplies that distance by the
candidate's gradient norm raised to an iteration-dependent exponent, so the
selection can be biased toward (or away from) high-force regions while the
exponent sweep keeps early picks covering both extremes.

Both samplers, and the per-(fold, beta) chains of GGFPS cross-validation
(``ggfps_chains``), run on one greedy kernel (``_greedy``) that advances B
chains over one pool in lockstep, keeping (B, N) arrays of minimum
distances and their logs. Each step screens the whole pool against the B
new picks with one BLAS product and recomputes the exact distance only
where the screen cannot prove that the minimum stays as it is; no pairwise
matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledSet, check_int, check_number, dumps_17g

METHODS = ("URS", "FPS", "GGFPS")
BETA_MODES = ("swept", "constant")
INIT_MODES = ("random_uniform", "gradient_weighted", "gradient_argmax")
GRAD_FLOOR_REL = 1e-12
# The largest exponent bound beta. A GGFPS score is beta_k log g + log d with
# |beta_k| <= beta, and |log x| < 745 for every positive double x (log 2^-1074
# = -744.4, log of the largest double = 709.8), so every finite score is below
# 745 (1e305 + 1) < 7.5e307 in magnitude, under the largest double 1.8e308.
# The swept schedule's linspace(-beta, beta) spans 2e305, also finite.
BETA_MAX = 1e305


class CapacityError(ValueError):
    """Requested more samples than the pool holds."""


def check_beta(name: str, value) -> float:
    """``value`` as a float in [0, BETA_MAX]; ValueError naming ``name`` otherwise."""
    beta = check_number(name, value)
    if not 0 <= beta <= BETA_MAX:
        raise ValueError(f"{name}: must be in [0, {BETA_MAX:g}]")
    return beta


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    n: int
    beta: float = 0.0
    beta_mode: str = "swept"
    init_mode: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method: must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        object.__setattr__(self, "beta", check_beta("beta", self.beta))
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"beta_mode: must be one of {BETA_MODES}")
        if self.init_mode is None:
            default = "gradient_weighted" if self.method == "GGFPS" else "random_uniform"
            object.__setattr__(self, "init_mode", default)
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode: must be one of {INIT_MODES}")
        if self.method != "GGFPS" and self.init_mode != "random_uniform":
            raise ValueError("init_mode: gradient-based initialization requires method GGFPS")


def _initial_index(g: np.ndarray, init_mode: str, seed: int) -> int:
    """First GGFPS pick per ``init_mode``: drawn with probability proportional
    to the gradient norms, their argmax, or uniform."""
    rng = np.random.default_rng(seed)
    if init_mode == "gradient_weighted":
        with np.errstate(over="ignore"):
            total = g.sum()
        if not np.isfinite(total):  # norms that add up past the largest double
            g = g / g.max()
            total = g.sum()
        return int(rng.choice(len(g), p=g / total))
    if init_mode == "gradient_argmax":
        return int(np.argmax(g))
    return int(rng.integers(len(g)))


def _log_gradients(g: np.ndarray) -> np.ndarray:
    """Log gradient norms, floored so negative exponents stay finite.

    The floor is relative to max(g), so it preserves the ordering of all
    nonzero norms; it is never below the smallest positive double.
    """
    gmax = float(g.max()) if len(g) else 0.0
    floor = GRAD_FLOOR_REL * gmax if gmax > 0 else np.finfo(float).tiny
    floor = max(floor, np.finfo(float).tiny)
    return np.log(np.maximum(g, floor))


def _distances(X: np.ndarray, points, centers) -> np.ndarray:
    """Euclidean distances ``||X[points] - X[centers]||``; the two index
    arrays broadcast.

    Squared coordinate differences are added in coordinate order, then
    square-rooted. For d < 8 that is the order in which
    ``np.linalg.norm(X - x, axis=1)`` sums, so the distances are bitwise
    identical to it; for d >= 8 numpy sums pairwise and a distance may
    differ in the last ulp.
    """
    squares = X.take(points, axis=0) - X.take(centers, axis=0)
    squares *= squares
    out = np.zeros(squares.shape[:-1])
    for coord in range(X.shape[1]):
        out += squares[..., coord]
    return np.sqrt(out, out=out)


def _greedy(X: np.ndarray, inits, exponents: np.ndarray,
            log_g: np.ndarray | None = None) -> np.ndarray:
    """Greedy max-min selection of B chains over the rows of ``X``, in lockstep.

    Chain b starts at ``inits[b]``; step k >= 1 picks the remaining index
    maximising ``exponents[b, k] * log_g + log(min_dist[b])``, or plain
    ``min_dist[b]`` where that exponent is 0, the smallest index winning
    ties. ``min_dist[b, j]`` is the minimum over chain b's picks s of the
    exact distance ``_distances(X, j, s)``. When every remaining score is
    -inf (only duplicates of selected points remain) the smallest remaining
    index is taken. Column 0 of ``exponents`` belongs to the initial point;
    returns the (B, n) picks with n = ``exponents.shape[1]``.

    **Screened updates.** A new pick s can only lower ``min_dist[b, j]`` where
    its exact distance D is below m = ``min_dist[b, j]``, and after a few
    picks that is a small share of the pool. So each step first screens
    every point with one BLAS product, and computes D only for the points
    the screen cannot rule out; every other point keeps m, the value
    ``np.minimum(m, D)`` would have kept. The screen runs on x' = 2^-e x,
    with e chosen so that |x'| < 1 in every coordinate (an exact scaling
    unless x' is subnormal), and reads

        F = -2 x'_s . x'_j + fl((1 - c2) q_s) + q_j,    q = fl(|x'|^2),

    one dot product of length d + 2. The point is a candidate unless
    ``lim[b, j] <= F``, where

        lim = fl(m'^2) c1 + c2 q_j + c3,    m' = 2^-e m,
        c1 = 1 + 2 (d + 4) u,   c2 = 2 (3 d + 7) u,
        c3 = 2^-2e 2 d eta + 8 (d + 1) eta,

    with u = 2^-53 and eta = 2^-1074, the smallest subnormal. A NaN or inf
    on either side makes the point a candidate.

    Why nothing closer is skipped. Write S for the squared distance in real
    arithmetic, N = |x'_j|^2 + |x'_s|^2, and gamma_k = k u / (1 - k u).
    (1) D is fl(sqrt(fl-sum of d fl-squares of fl-differences)); rounding is
    monotone and m is a double, so D < m forces the computed sum below m^2.
    That sum is at least S (1 - (d + 2) u) - d eta: d + 2 relative roundings
    per term, and at most eta/2 lost per square that underflows. Hence
    S < M / 2^-2e with M = 2^-2e (m^2 + d eta) / (1 - (d + 2) u).
    (2) Scaling moves each coordinate by at most eta/2, so the scaled
    distance is below sqrt(M) + sqrt(d) eta, and the real value S'' of
    |x'_j - x'_s|^2 below M (1 + u) + 2 sqrt(d) eta + d eta^2.
    (3) A dot product of length d + 2, summed in any order with or without
    FMA, errs by at most gamma_{d+2} times the sum of the absolute terms
    (here 2 N (1 + gamma_d + u)) plus eta/2 per product that underflows; q
    errs by gamma_d |x'|^2 + d eta / 2, and the coefficient of q_s by u. So
    |F - (S'' - c2 q_s)| <= (3 d + 7) u N + 4 d eta, two u N to spare.
    Adding up, D < m implies F < M (1 + u) + (3 d + 7) u N - c2 q_s
    + (4 d + 2 sqrt(d) + 1) eta. With c2 twice the factor on N, the q_s
    terms cancel and c2 q_j covers the rest; c1 covers (1 + u) /
    (1 - (d + 2) u) and c3 the absolute terms, each with a factor of about
    two to spare for the few roundings in evaluating ``lim`` itself and in
    m' when it is subnormal. |x'| < 1 keeps every term of F below 4 d, so
    the screen neither overflows nor returns NaN; an exact distance that
    overflowed (m = inf) gives ``lim = inf``, a permanent candidate. A
    scale so small that 2^-2e d eta overflows makes every point a candidate,
    which is slow but exact.

    ``log(min_dist)`` is kept alongside and recomputed only where
    ``min_dist`` changed; ``np.log`` works elementwise, so it is bitwise the
    value a full-row ``log`` would give. The BLAS product only decides
    which points get an exact recomputation, so picks do not depend on its
    summation order or thread count.
    """
    X = np.asarray(X, dtype=float)
    inits = np.asarray(inits, dtype=np.intp)
    n_chains, n = exponents.shape
    n_pool, dim = X.shape
    chains = np.arange(n_chains)
    picks = np.empty((n_chains, n), dtype=np.intp)
    picks[:, 0] = inits
    min_dist = _distances(X, np.arange(n_pool)[None, :], inits[:, None])
    taken = np.zeros(min_dist.shape, dtype=bool)
    taken[chains, inits] = True

    u, eta = 2.0**-53, 2.0**-1074
    c1 = 1.0 + 2 * (dim + 4) * u
    c2 = 2 * (3 * dim + 7) * u
    e = int(np.frexp(np.abs(X).max(initial=0.0))[1])  # |x| < 2^e
    with np.errstate(over="ignore"):
        c3 = float(np.ldexp(2 * dim * eta, -2 * e)) + 8 * (dim + 1) * eta
    # rows of `screen`: x'^T, ones, q; the pick side is [-2 x'_s, (1 - c2) q_s, 1]
    screen = np.empty((dim + 2, n_pool))
    np.ldexp(X.T, -e, out=screen[:dim])
    screen[dim] = 1.0
    np.einsum("ij,ij->j", screen[:dim], screen[:dim], out=screen[dim + 1])
    floor = c2 * screen[dim + 1] + c3

    def limit(dist, points):
        lim = np.ldexp(dist, -e)
        lim *= lim
        lim *= c1
        lim += floor[points]
        return lim

    # min_dist, log_min and lim are C-contiguous, so ravel() gives views
    with np.errstate(divide="ignore"):
        log_min = np.log(min_dist)
        lim = limit(min_dist, slice(None))
        buf = np.empty_like(min_dist)  # a step's scores, then its screen values
        near = np.empty(min_dist.shape, dtype=bool)
        side = np.empty((n_chains, dim + 2))
        side[:, dim + 1] = 1.0
        for k in range(1, n):
            beta = exponents[:, k]
            zero = beta == 0.0
            if zero.all():
                score = min_dist
            else:
                score = np.multiply(beta[:, None], log_g, out=buf)
                score += log_min
                if zero.any():
                    score[zero] = min_dist[zero]
            best = score.argmax(axis=1)
            if taken[chains, best].any():
                # a selected point tied the top score (0 or -inf) or scored NaN
                score = np.where(taken, -np.inf, score)
                best = score.argmax(axis=1)
            stuck = score[chains, best] == -np.inf
            if stuck.any():
                best[stuck] = taken[stuck].argmin(axis=1)
            picks[:, k] = best
            taken[chains, best] = True
            if k + 1 == n:
                break
            np.multiply(screen[:dim, best].T, -2.0, out=side[:, :dim])
            np.multiply(screen[dim + 1, best], 1.0 - c2, out=side[:, dim])
            np.less_equal(lim, np.matmul(side, screen, out=buf), out=near)
            # flat indices into the (B, N) arrays: 2-D nonzero and fancy
            # indexing are several times slower
            flat = np.flatnonzero(np.logical_not(near, out=near))
            rows, points = np.divmod(flat, n_pool)
            dist = _distances(X, points, best[rows])
            closer = dist < min_dist.ravel()[flat]
            flat, points, dist = flat[closer], points[closer], dist[closer]
            min_dist.ravel()[flat] = dist
            log_min.ravel()[flat] = np.log(dist)
            lim.ravel()[flat] = limit(dist, points)
    return picks


def urs(n_total: int, n: int, seed: int) -> list[int]:
    """n distinct indices drawn uniformly without replacement, deterministic per seed.

    Implemented as a prefix of a seeded permutation, so a shorter draw with
    the same seed is a prefix of a longer one.
    """
    n = check_int("n", n, 1)
    if n > n_total:
        raise CapacityError(f"n: cannot draw {n} from {n_total} samples")
    perm = np.random.default_rng(seed).permutation(n_total)
    return [int(i) for i in perm[:n]]


def beta_schedule(beta: float, n: int, mode: str = "swept") -> np.ndarray:
    """Exponent sequence for n selections, as a read-only float array.

    Swept mode takes the n linearly spaced values over [-beta, beta] and
    reorders them by descending magnitude with alternating signs starting
    positive: {+beta, -beta, ...} decaying toward 0, so the earliest
    selections see both extreme exponents. Constant mode repeats beta.
    beta must lie in [0, BETA_MAX].
    """
    beta = check_beta("beta", beta)
    n = check_int("n", n, 1)
    if mode == "constant":
        values = np.full(n, beta)
    elif mode == "swept":
        magnitudes = np.sort(np.abs(np.linspace(-beta, beta, n)))[::-1]
        values = magnitudes * np.where(np.arange(n) % 2 == 0, 1.0, -1.0) + 0.0
    else:
        raise ValueError(f"mode: must be one of {BETA_MODES}")
    values.setflags(write=False)
    return values


def _validate_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("descriptor matrix must be 2-D")
    if not np.isfinite(X).all():
        raise ValueError("descriptor matrix must be finite")
    return X


def fps(X: np.ndarray, n: int, init: int | None = None, seed: int = 0) -> list[int]:
    """Furthest point sampling over descriptor rows.

    Starts from ``init`` (or a uniform-random index per ``seed``), then
    repeatedly selects the remaining index with the largest minimum distance
    to the selected set, ties broken by smallest index.
    """
    X = _validate_matrix(X)
    n_total = X.shape[0]
    n = check_int("n", n, 1)
    if n > n_total:
        raise CapacityError(f"n: cannot select {n} from {n_total} samples")
    if init is None:
        init = int(np.random.default_rng(seed).integers(n_total))
    return _greedy(X, [int(init)], np.zeros((1, n)))[0].tolist()


def ggfps_chains(
    X: np.ndarray,
    g: np.ndarray,
    betas,
    seeds,
    n: int,
    *,
    horizon: int | None = None,
    beta_mode: str = "swept",
    init_mode: str = "gradient_weighted",
    inits=None,
) -> tuple[np.ndarray, list[str]]:
    """GGFPS chains for several (beta, seed) pairs over one pool, in lockstep.

    Chain b is exactly ``ggfps`` with beta ``betas[b]`` and seed ``seeds[b]``
    (see there for the rule). Returns the (B, n) picks and the warnings;
    ``inits``, when given, overrides the configured initial points.
    """
    X = _validate_matrix(X)
    n_total = X.shape[0]
    n = check_int("n", n, 1)
    if n > n_total:
        raise CapacityError(f"n: cannot select {n} from {n_total} samples")
    if horizon is None:
        horizon = n
    if horizon < n:
        raise ValueError("horizon must be at least n")
    exponents = np.stack([beta_schedule(b, horizon, beta_mode)[:n] for b in betas])

    warnings: list[str] = []
    if inits is None:
        if init_mode == "gradient_weighted" and not np.any(g > 0):
            warnings.append("all gradient norms are zero; fell back to random_uniform init")
            init_mode = "random_uniform"
        inits = [_initial_index(g, init_mode, seed) for seed in seeds]
    log_g = _log_gradients(g)
    return _greedy(X, inits, exponents, log_g), warnings


def ggfps(
    labeled: LabeledSet,
    config: SamplerConfig,
    init: int | None = None,
    horizon: int | None = None,
) -> "SelectionResult":
    """Gradient-guided furthest point sampling.

    The initial point follows ``config.init_mode``: drawn with probability
    proportional to the gradient norms (uniform, with a warning, when all
    are zero), taken as their argmax, or uniform.
    Iteration k then maximises g_j^beta_k * d_j over the remaining points
    (smallest index on ties), with beta_k from the schedule and d_j the
    incrementally maintained minimum distance. Scores are compared in the
    log domain, where |beta| <= ``BETA_MAX`` keeps every score finite (see
    there). Once every remaining point duplicates a selected one (all scores
    -inf), the smallest remaining index is taken.

    ``horizon`` pins the schedule length independently of n (default n), so
    shorter runs sharing a horizon are prefixes of longer ones. An explicit
    ``init`` index overrides the configured initialization.
    """
    if config.method != "GGFPS":
        raise ValueError("config.method must be GGFPS")
    picks, warnings = ggfps_chains(
        labeled.descriptors, labeled.gradient_norms, [config.beta], [config.seed], config.n,
        horizon=horizon, beta_mode=config.beta_mode, init_mode=config.init_mode,
        inits=None if init is None else [int(init)],
    )
    return SelectionResult(
        method="GGFPS",
        seed=config.seed,
        beta=config.beta,
        beta_mode=config.beta_mode,
        init_mode=config.init_mode,
        indices=picks[0].tolist(),
        warnings=warnings,
    )


@dataclass(frozen=True)
class SelectionResult:
    """A selection run plus the configuration that produced it."""

    method: str
    seed: int
    beta: float | None
    beta_mode: str | None
    init_mode: str | None
    indices: list[int]
    warnings: list[str] = field(default_factory=list)

    def to_json(self, indent: int | None = None) -> str:
        doc = {
            "method": self.method,
            "seed": self.seed,
            "beta": self.beta,
            "beta_mode": self.beta_mode,
            "init_mode": self.init_mode,
            "indices": [int(i) for i in self.indices],
            "warnings": list(self.warnings),
        }
        return dumps_17g(doc, indent=indent) + "\n"


def select(labeled: LabeledSet, config: SamplerConfig) -> SelectionResult:
    """Run the configured sampler over a labeled set."""
    if config.method == "URS":
        indices = urs(len(labeled), config.n, config.seed)
        return SelectionResult(
            method="URS", seed=config.seed, beta=None, beta_mode=None,
            init_mode=None, indices=indices,
        )
    if config.method == "FPS":
        indices = fps(labeled.descriptors, config.n, seed=config.seed)
        return SelectionResult(
            method="FPS", seed=config.seed, beta=None, beta_mode=None,
            init_mode=config.init_mode, indices=indices,
        )
    return ggfps(labeled, config)

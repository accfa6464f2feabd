"""Training-set selection: uniform random, furthest-point and gradient-guided
furthest-point sampling.

FPS greedily picks the point whose minimum descriptor distance to the
already-selected set is largest. GGFPS multiplies that distance by the
candidate's gradient norm raised to an iteration-dependent exponent, so the
selection can be biased toward (or away from) high-force regions while the
exponent sweep keeps early picks covering both extremes.

FPS *is* GGFPS at beta = 0 with a uniform first pick: ``fps`` is one
``ggfps_chains`` call, and so are ``ggfps`` and the per-(fold, beta) chains
of GGFPS cross-validation. ``ggfps_chains`` runs the one greedy kernel
(``_greedy``), which advances B chains over one pool in lockstep, keeping
(B, N) arrays of minimum distances and their logs. Each step screens the
whole pool against the B new picks with one float32 BLAS product (float64
where float32 rules out too few points) and recomputes the exact float64
distance only where the screen cannot prove that the minimum stays as it
is; no pairwise matrix is built.
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
        if self.method != "GGFPS":  # URS and FPS would silently drop these settings
            for name, dropped in (("beta", 0.0), ("beta_mode", "swept"),
                                  ("init_mode", "random_uniform")):
                if getattr(self, name) != dropped:
                    raise ValueError(f"{name}: {getattr(self, name)!r} requires method GGFPS")


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
    floor = max(GRAD_FLOOR_REL * float(g.max()), np.finfo(float).tiny)
    return np.log(np.maximum(g, floor))


def _distances(X: np.ndarray, points, centers) -> np.ndarray:
    """Euclidean distances ``||X[points] - X[centers]||``; the two index
    arrays broadcast.

    Squared coordinate differences are added in coordinate order, then
    square-rooted. For d < 8 that is the order in which
    ``np.linalg.norm(X - x, axis=1)`` sums, so the distances are bitwise
    identical to it; for d >= 8 numpy sums pairwise and a distance may
    differ in the last ulp. A distance past the largest double is inf,
    which ``_greedy`` handles exactly; the caller decides whether numpy
    warns about that overflow (``_greedy`` silences it).
    """
    squares = X.take(points, axis=0) - X.take(centers, axis=0)
    squares *= squares
    out = np.zeros(squares.shape[:-1])
    for coord in range(X.shape[1]):
        out += squares[..., coord]
    return np.sqrt(out, out=out)


# the float64 unit roundoff and smallest subnormal, constants of ``_greedy``'s
# screen bound
U64, ETA64 = 2.0**-53, 2.0**-1074
# fl32(ROUND_UP * y) >= y for every double y >= 2^-126 (round to nearest)
ROUND_UP = 1.0 + 2.0**-23
# ``_greedy`` moves to a float64 screen once the candidates that kept their
# minimum pass one pool's worth plus one pool point in WASTE_SHARE per chain
# and step
WASTE_SHARE = 32


class _Screen:
    """The screen of ``_greedy`` over the rows of ``X`` in float32 or float64
    (see there for the bound): the (d + 2, N) rows x''^T, ones and q, the
    exponent e and the constants c1, c2 and c3."""

    def __init__(self, X: np.ndarray, dtype=np.float32):
        n_pool, dim = X.shape
        info = np.finfo(dtype)
        v, tiny = float(info.eps) / 2, float(info.tiny)  # the screen's u32 or u, and t
        lo, hi = X.min(axis=0), X.max(axis=0)
        mid = 0.5 * lo + 0.5 * hi  # halves first: no overflow
        # fl(x - mid) lies between fl(lo - mid) and fl(hi - mid), so |x - mid| < 2^e
        self.e = e = int(np.frexp(np.maximum(hi - mid, mid - lo).max())[1])
        self.dtype = np.dtype(dtype)
        self.exact = self.dtype == np.float64  # lim needs no rounding to dtype
        self.c1 = 1.0 + 2 * v + 2 * (dim + 8) * U64
        self.c2 = 2 * ((3 * dim + 7) * v + 5 * U64)
        with np.errstate(over="ignore"):
            self.c3 = float(np.ldexp(2 * dim * ETA64, -2 * e)) + (28 * dim + 10) * tiny
        # one coordinate at a time, so no float64 copy of X - mid is made
        self.rows = rows = np.empty((dim + 2, n_pool), dtype=dtype)
        col = np.empty(n_pool)
        for coord in range(dim):
            np.subtract(X[:, coord], mid[coord], out=col)
            rows[coord] = np.ldexp(col, -e, out=col)  # rounds to nearest in dtype
        rows[dim] = 1.0
        self.q = np.einsum("ij,ij->j", rows[:dim], rows[:dim], out=rows[dim + 1])
        self.floor = np.multiply(self.q, self.c2, dtype=float)  # c2 q + c3 in float64
        self.floor += self.c3

    def values(self, picks, out: np.ndarray) -> np.ndarray:
        """F of every point of the pool (columns) against each pick (rows)."""
        dim = len(self.rows) - 2
        side = np.empty((len(picks), dim + 2), dtype=self.dtype)
        np.multiply(self.rows[:dim, picks].T, -2.0, out=side[:, :dim])
        side[:, dim] = np.multiply(self.q[picks], 1.0 - self.c2, dtype=float)
        side[:, dim + 1] = 1.0
        return np.matmul(side, self.rows, out=out)

    def limits(self, dist, points) -> np.ndarray:
        """The limits of ``points`` at minimum distances ``dist``, in the
        screen's precision."""
        lim = np.ldexp(dist, -self.e)
        lim *= lim
        lim *= self.c1
        lim += self.floor[points]
        if self.exact:
            return lim
        # rounded up, as lim >= c3 > 2^-126
        return np.multiply(lim, ROUND_UP, out=np.empty(lim.shape, dtype=np.float32))


def _greedy(X: np.ndarray, inits, exponents: np.ndarray, log_g: np.ndarray) -> np.ndarray:
    """Greedy max-min selection of B chains over the rows of ``X``, in lockstep.

    Chain b starts at ``inits[b]``; step k >= 1 picks the remaining index
    maximising ``exponents[b, k] * log_g + log(min_dist[b])``, or plain
    ``min_dist[b]`` where that exponent is 0, the smallest index winning
    ties. ``min_dist[b, j]`` is the minimum over chain b's picks s of the
    exact distance ``_distances(X, j, s)``. When every remaining score is
    -inf (only duplicates of selected points remain) the smallest remaining
    index is taken. Column 0 of ``exponents`` belongs to the initial point;
    returns the (B, n) picks with n = ``exponents.shape[1]``.

    A selected point's ``min_dist`` is exactly 0, its distance to itself,
    which the screen below never skips while m > 0. So it scores 0 where the
    exponent is 0 and -inf elsewhere, and no unselected point scores less.
    A chain whose top score is no higher than that has only selected points
    and their duplicates left, and takes its smallest unselected index.

    **Screened updates.** A new pick s can only lower ``min_dist[b, j]`` where
    its exact distance D is below m = ``min_dist[b, j]``, and after a few
    picks that is a small share of the pool. So step k first updates each
    chain with its pick k - 1: it screens every point with one BLAS product
    (``_Screen``), and computes D only for the points the screen cannot rule
    out; for these it writes ``np.minimum(m, D)``, and every other point
    keeps m, the value that would have given. m and ``lim`` start at inf,
    so the first update rules out no point. The screen runs in float32 or
    float64 (see **Precision**) on centred, scaled coordinates x'' = fl_v(x'),
    x' = 2^-e fl(x - mid), where mid is each coordinate's bounding-box
    midpoint 0.5 lo + 0.5 hi and e makes |x - mid| < 2^e in every
    coordinate, so |x''| <= 1. It reads

        F = -2 x''_s . x''_j + fl_v((1 - c2) q_s) + q_j,    q = fl_v(|x''|^2),

    one dot product of length d + 2 in the screen's precision. The point is
    a candidate where F < ``lim[b, j]``, which holds the float64 value

        m''^2 c1 + c2 q_j + c3,    m'' = 2^-e m,
        c1 = 1 + 2 v + 2 (d + 8) u,   c2 = 2 ((3 d + 7) v + 5 u),
        c3 = 2^-2e 2 d eta + (28 d + 10) t,

    rounded up to float32 for a float32 screen. u = 2^-53 is the float64
    unit roundoff and eta = 2^-1074 the smallest float64 subnormal; v and t
    are the screen's unit roundoff and smallest normal number, fl_v its
    rounding: u32 = 2^-24 and 2^-126 in float32, u and 2^-1022 in float64.

    Why nothing closer is skipped. Write r = 2^-e (x - mid) in real
    arithmetic, P = |r_j - r_s|^2 (2^-2e times the real squared distance S
    of x_j and x_s), N = |x''_j|^2 + |x''_s|^2 and gamma_k = k v /
    (1 - k v). Every bound below also holds where the BLAS flushes
    subnormal inputs and results to zero, at a cost of at most t per flush.
    Terms smaller than the ones kept by a factor of (d + 2) v or less are
    left to the factor of two that every constant keeps to spare.
    (1) Exact side. D is fl(sqrt(fl-sum of d fl-squares of fl-differences))
    on the original ``X``; rounding is monotone and m is a double, so D < m
    forces the computed sum below m^2. That sum is at least
    S (1 - (d + 2) u) - d eta: d + 2 relative roundings per term, and at most
    eta/2 lost per square that underflows. Hence
    P < M = 2^-2e (m^2 + d eta) / (1 - (d + 2) u).
    (2) Coordinates. Centring errs by at most u |x - mid|, the scaling is
    exact unless it lands below the float64 normals (eta/2), the conversion
    to float32 errs by at most u32 |x'| + 2^-150, and a flushed input by at
    most t. So |x''_c - r_c| <= rho |r_c| + alpha, with rho = v + 2 u and
    alpha = t + 2 v t (t + 2^-149 in float32, t + eta in float64), in every
    coordinate c of either point. Expanding
    |x''_j - x''_s|^2 = |(r_j - r_s) + err|^2, bounding the cross term
    2 sqrt(P) rho (|r_j| + |r_s|) by rho (P + 2 |r_j|^2 + 2 |r_s|^2) and using
    |r| < sqrt(d): |x''_j - x''_s|^2 <= P (1 + rho) + 2 rho N + 8 d t.
    (3) Screen side. q errs by at most gamma_d |x''|^2 + 2 d t; the pick's
    coefficient fl_v((1 - c2) q_s) by a further u + v relative and t. The
    dot product, in any order and with or without FMA, errs by at most
    gamma_{d+2} times the sum of its absolute terms (at most 2 N (1 +
    gamma_d)) plus t per product or sum that underflows, (2 d + 3) t. With
    -2 x''_s . x''_j = |x''_j - x''_s|^2 - N, that gives
    F <= |x''_j - x''_s|^2 + (3 d + 4) v N + (u + v) |x''_s|^2 - c2 q_s
    + (6 d + 4) t.
    (4) Adding up, D < m implies F < M (1 + rho) + ((3 d + 6) v + 4 u) N
    + (u + v) |x''_s|^2 - c2 q_s + (14 d + 4) t. As q >= (1 - gamma_d)
    |x''|^2 - 2 d t, c2 q_s cancels the |x''_s|^2 terms and c2 q_j covers
    the |x''_j|^2 term, each twice over; c1 covers (1 + rho) /
    (1 - (d + 2) u) and the float64 roundings in evaluating ``lim``, and c3
    the absolute terms, 2^-2e d eta and (14 d + 5) t, each with a factor of
    two to spare. In float32, as lim >= c3 > t, fl32(lim (1 + 2^-23)) >= lim,
    which rounds it up. So F < lim in the screen's precision too.
    |x''| <= 1 keeps |F| within about 4 d, so the screen neither overflows
    nor returns NaN, and F < inf = lim in the first update. mid - lo and
    hi - mid are at most (hi - lo)/2 plus mid's rounding, so centring does
    not overflow either. An exact distance that overflowed (m = inf) keeps
    ``lim = inf``, a permanent candidate; a scale so small that 2^-2e d eta
    overflows makes every point a candidate, which is slow but exact.
    Centring keeps the slack c2 q_j relative to the pool's own spread: on
    coordinates that were not centred, a float32 screen of a pool offset by
    about 10^3 times its spread would make every point a candidate.

    **Precision.** The float32 product takes about half the time of the
    float64 one, but its slack c2 q_j is 2^29 times as large: about
    2^-19 d of the squared half-width of the bounding box. Where picks come
    much closer together than that, as when a few far outliers set the box
    (one row 10^3 spreads from the pool's bulk) or the pool splits into
    far-apart clusters, most points are float32 candidates at every step
    although float64 would rule them out. So the kernel starts in float32,
    counts the candidates whose exact distance left m as it was, and once
    that count passes B N (1 + k / ``WASTE_SHARE``) after the update with
    pick k (one pool's worth, plus one point in ``WASTE_SHARE`` per chain
    and step) it rebuilds the screen and ``lim`` in float64 for the rest of
    the run. Both screens skip no point whose distance drops below m, so the
    switch changes no pick.

    ``log(min_dist)`` is kept alongside and recomputed only for candidates;
    ``np.log`` works elementwise, so it is bitwise the value a full-row
    ``log`` would give, and an unchanged m is rewritten with its own bits.
    The BLAS product only decides which points get an exact recomputation,
    so picks do not depend on its precision, summation order or thread
    count.

    **Memory.** Beside ``X``, the kernel holds the (d + 2, N) float32 screen,
    the (N,) float64 ``c2 q + c3`` and (B, N) arrays: two float64 ones
    (``min_dist`` and its log), a third for the scores unless every exponent
    is 0, two float32 ones (``lim`` and a step's screen values) and one
    boolean one. After a switch to float64 the screen, ``lim`` and the
    screen values take twice the bytes. The screen is built one coordinate
    at a time, with one (N,) float64 column, and an update's candidates are
    recomputed in chunks, so it adds only their flat indices (one (B, N)
    array in the first update, freed before the scores are made) and one
    chunk's temporaries.
    """
    X = np.asarray(X, dtype=float)
    best = np.asarray(inits, dtype=np.intp)  # each chain's last pick
    n_chains, n = exponents.shape
    n_pool, dim = X.shape
    chains = np.arange(n_chains)
    picks = np.empty((n_chains, n), dtype=np.intp)
    picks[:, 0] = best
    screen = _Screen(X)
    selected = np.where(exponents == 0.0, 0.0, -np.inf)  # a selected point's score
    # candidates per exact pass: _distances' two (chunk, d) gathers then hold a
    # quarter of a (B, N) array each, at least 2^12 doubles, even if all are candidates
    chunk = max(1, max(n_chains * n_pool // 4, 1 << 12) // dim)
    # min_dist, log_min and lim are C-contiguous, so ravel() gives views
    min_dist = np.full((n_chains, n_pool), np.inf)
    log_min = np.full_like(min_dist, np.inf)
    lim = np.full(min_dist.shape, np.inf, dtype=screen.dtype)
    values = np.empty_like(lim)
    near = np.empty(min_dist.shape, dtype=bool)
    buf = None  # the scores, made on first use, after the first update's candidates are freed
    unmoved = 0  # candidates so far whose exact distance left m as it was
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(1, n):
            np.less(screen.values(best, out=values), lim, out=near)
            # flat indices into the (B, N) arrays: 2-D nonzero and fancy
            # indexing are several times slower
            candidates = np.flatnonzero(near)
            for start in range(0, len(candidates), chunk):
                flat = candidates[start:start + chunk]
                rows, points = np.divmod(flat, n_pool)
                dist = _distances(X, points, best[rows])
                m = min_dist.ravel()[flat]
                unmoved += np.count_nonzero(dist >= m)
                np.minimum(dist, m, out=dist)
                min_dist.ravel()[flat] = dist
                log_min.ravel()[flat] = np.log(dist)
                lim.ravel()[flat] = screen.limits(dist, points)
                del flat, rows, points, dist, m  # before the next gathers or scores
            del candidates
            wasted = unmoved * WASTE_SHARE > (WASTE_SHARE + k - 1) * n_chains * n_pool
            if wasted and not screen.exact:  # see **Precision**
                screen = _Screen(X, np.float64)
                lim = screen.limits(min_dist, slice(None))
                values = np.empty_like(lim)
            beta = exponents[:, k]
            zero = beta == 0.0
            if zero.all():
                score = min_dist
            else:
                score = buf = np.multiply(beta[:, None], log_g, out=buf)
                score += log_min
                if zero.any():
                    score[zero] = min_dist[zero]
            best = score.argmax(axis=1)
            stuck = score[chains, best] <= selected[:, k]
            if stuck.any():  # only selected points and their duplicates remain
                for b in np.flatnonzero(stuck):
                    free = np.ones(n_pool, dtype=bool)
                    free[picks[b, :k]] = False
                    best[b] = free.argmax()
            picks[:, k] = best
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
    return perm[:n].tolist()


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


def fps(X: np.ndarray, n: int, seed: int = 0) -> list[int]:
    """Furthest point sampling over descriptor rows: the ``ggfps_chains``
    chain at beta = 0 with a uniform first pick.

    Starts from a uniform-random index per ``seed``, then repeatedly selects
    the remaining index with the largest minimum distance to the selected
    set, ties broken by smallest index.
    """
    picks, _ = ggfps_chains(X, np.zeros(len(X)), [0.0], [seed], n, init_mode="random_uniform")
    return picks[0].tolist()


def ggfps_chains(
    X: np.ndarray,
    g: np.ndarray,
    betas,
    seeds,
    n: int,
    *,
    beta_mode: str = "swept",
    init_mode: str = "gradient_weighted",
) -> tuple[np.ndarray, list[str]]:
    """GGFPS chains for several (beta, seed) pairs over one pool, in lockstep.

    Chain b is exactly ``ggfps`` with beta ``betas[b]`` and seed ``seeds[b]``
    (see there for the rule). Returns the (B, n) picks and the warnings.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("descriptor matrix must be 2-D with at least one column")
    if not np.isfinite(X).all():
        raise ValueError("descriptor matrix must be finite")
    n_total = X.shape[0]
    n = check_int("n", n, 1)
    if n > n_total:
        raise CapacityError(f"n: cannot select {n} from {n_total} samples")
    exponents = np.stack([beta_schedule(b, n, beta_mode) for b in betas])

    warnings: list[str] = []
    if init_mode == "gradient_weighted" and not np.any(g > 0):
        warnings.append("all gradient norms are zero; fell back to random_uniform init")
        init_mode = "random_uniform"
    inits = [_initial_index(g, init_mode, seed) for seed in seeds]
    return _greedy(X, inits, exponents, _log_gradients(g)), warnings


def ggfps(labeled: LabeledSet, config: SamplerConfig) -> "SelectionResult":
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
    """
    if config.method != "GGFPS":
        raise ValueError("config.method must be GGFPS")
    picks, warnings = ggfps_chains(
        labeled.descriptors, labeled.gradient_norms, [config.beta], [config.seed], config.n,
        beta_mode=config.beta_mode, init_mode=config.init_mode,
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
    if config.method == "GGFPS":
        return ggfps(labeled, config)
    if config.method == "URS":
        indices, init_mode = urs(len(labeled), config.n, config.seed), None
    else:
        indices, init_mode = fps(labeled.descriptors, config.n, seed=config.seed), "random_uniform"
    return SelectionResult(method=config.method, seed=config.seed, beta=None, beta_mode=None,
                           init_mode=init_mode, indices=indices)

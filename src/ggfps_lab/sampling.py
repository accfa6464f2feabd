"""Training-set selection: uniform random, furthest-point and gradient-guided
furthest-point sampling.

FPS greedily picks the point whose minimum descriptor distance to the
already-selected set is largest. GGFPS multiplies that distance by the
candidate's gradient norm raised to an iteration-dependent exponent, so the
selection can be biased toward (or away from) high-force regions while the
exponent sweep keeps early picks covering both extremes.

Both samplers, and the per-(fold, beta) chains of GGFPS cross-validation
(``ggfps_chains``), run on one greedy kernel (``_greedy``) that advances B
chains over one pool in lockstep, keeping a (B, N) array of minimum
distances. Each step computes the B distance rows of the new picks from a
transposed copy of the descriptors; no pairwise matrix is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledSet, dumps_17g

METHODS = ("URS", "FPS", "GGFPS")
BETA_MODES = ("swept", "constant")
INIT_MODES = ("random_uniform", "gradient_weighted", "gradient_argmax")
GRAD_FLOOR_REL = 1e-12


class CapacityError(ValueError):
    """Requested more samples than the pool holds."""


class SelectionStateError(ValueError):
    """Attempted an update that contradicts the selection state."""


@dataclass(frozen=True)
class SamplerConfig:
    method: str
    n: int
    beta: float = 0.0
    beta_mode: str = "swept"
    init_mode: str | None = None
    seed: int = 0
    grad_floor_rel: float = GRAD_FLOOR_REL

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method: must be one of {METHODS}, got {self.method!r}")
        if self.n < 1:
            raise ValueError("n: must be >= 1")
        if self.beta < 0:
            raise ValueError("beta: must be nonnegative")
        if self.beta_mode not in BETA_MODES:
            raise ValueError(f"beta_mode: must be one of {BETA_MODES}")
        if self.grad_floor_rel < 0:
            raise ValueError("grad_floor_rel: must be nonnegative")
        if self.init_mode is None:
            default = "gradient_weighted" if self.method == "GGFPS" else "random_uniform"
            object.__setattr__(self, "init_mode", default)
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode: must be one of {INIT_MODES}")
        if self.method != "GGFPS" and self.init_mode != "random_uniform":
            raise ValueError("init_mode: gradient-based initialization requires method GGFPS")


@dataclass(frozen=True)
class BetaSchedule:
    """Per-iteration exponent sequence derived from the sweep bound beta."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SelectionState:
    """Growing index set plus incrementally maintained minimum distances.

    ``remaining`` is a boolean mask over all indices (True = not yet
    selected); ``min_dist[j]`` is the distance from j to the closest
    selected point, +inf before the first selection. The samplers do not
    use it; it is the one-step form of the update ``_greedy`` performs.
    """

    selected: list[int]
    remaining: np.ndarray
    min_dist: np.ndarray

    @classmethod
    def fresh(cls, n_total: int) -> "SelectionState":
        return cls(
            selected=[],
            remaining=np.ones(n_total, dtype=bool),
            min_dist=np.full(n_total, np.inf),
        )


def min_dist_update(state: SelectionState, new_index: int, X: np.ndarray) -> SelectionState:
    """Move ``new_index`` into the selected set and tighten minimum distances.

    Returns a new state; for every remaining j, min_dist[j] becomes
    min(min_dist[j], ||x_j - x_new||).
    """
    new_index = int(new_index)
    if not state.remaining[new_index]:
        raise SelectionStateError(f"index {new_index} is already selected")
    remaining = state.remaining.copy()
    remaining[new_index] = False
    dist_to_new = np.linalg.norm(X - X[new_index], axis=1)
    min_dist = np.minimum(state.min_dist, dist_to_new)
    return SelectionState(
        selected=state.selected + [new_index],
        remaining=remaining,
        min_dist=min_dist,
    )


def _initial_index(g: np.ndarray, init_mode: str, seed: int) -> int:
    """First GGFPS pick per ``init_mode``: drawn with probability proportional
    to the gradient norms, their argmax, or uniform."""
    rng = np.random.default_rng(seed)
    if init_mode == "gradient_weighted":
        return int(rng.choice(len(g), p=g / g.sum()))
    if init_mode == "gradient_argmax":
        return int(np.argmax(g))
    return int(rng.integers(len(g)))


def _log_gradients(g: np.ndarray, grad_floor_rel: float = GRAD_FLOOR_REL) -> np.ndarray:
    """Log gradient norms, floored so negative exponents stay finite.

    The floor is relative to max(g), so it preserves the ordering of all
    nonzero norms; it is never below the smallest positive double.
    """
    gmax = float(g.max()) if len(g) else 0.0
    floor = grad_floor_rel * gmax if gmax > 0 else np.finfo(float).tiny
    floor = max(floor, np.finfo(float).tiny)
    return np.log(np.maximum(g, floor))


class _DistanceRows:
    """Euclidean distance rows of a point set: ``rows(idx)[r, j] = ||x_j - x_idx[r]||``.

    Squared coordinate differences are added in coordinate order from a
    transposed (d, N) copy, then square-rooted. For d < 8 that is the order
    in which ``np.linalg.norm(X - x, axis=1)`` sums, so rows are bitwise
    identical to it; for d >= 8 numpy sums pairwise and a row may differ in
    the last ulp.
    """

    def __init__(self, X: np.ndarray):
        self._XT = np.ascontiguousarray(X.T)

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        out = np.zeros((len(idx), self._XT.shape[1]))
        diff = np.empty_like(out)
        for coord in self._XT:
            np.subtract(coord, coord[idx, None], out=diff)
            np.multiply(diff, diff, out=diff)
            out += diff
        return np.sqrt(out, out=out)


def _greedy(rows, inits, exponents: np.ndarray, log_g: np.ndarray | None = None) -> np.ndarray:
    """Greedy max-min selection of B chains over one pool, in lockstep.

    ``rows(idx)`` returns the (len(idx), N) distance rows of pool points
    ``idx``. Chain b starts at ``inits[b]``; step k >= 1 picks the remaining
    index maximising ``exponents[b, k] * log_g + log(min_dist[b])``, or plain
    ``min_dist[b]`` where that exponent is 0, the smallest index winning
    ties. When every remaining score is -inf (only duplicates of selected
    points remain) the smallest remaining index is taken. Column 0 of
    ``exponents`` belongs to the initial point; returns the (B, n) picks
    with n = ``exponents.shape[1]``.
    """
    inits = np.asarray(inits, dtype=np.intp)
    n_chains, n = exponents.shape
    chains = np.arange(n_chains)
    picks = np.empty((n_chains, n), dtype=np.intp)
    picks[:, 0] = inits
    min_dist = rows(inits)
    taken = np.zeros(min_dist.shape, dtype=bool)
    taken[chains, inits] = True
    score = np.empty_like(min_dist)
    with np.errstate(divide="ignore"):
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
                np.minimum(min_dist, rows(best), out=min_dist)
    return picks


def urs(n_total: int, n: int, seed: int) -> list[int]:
    """n distinct indices drawn uniformly without replacement, deterministic per seed.

    Implemented as a prefix of a seeded permutation, so a shorter draw with
    the same seed is a prefix of a longer one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n_total:
        raise CapacityError(f"cannot draw {n} from {n_total} samples")
    perm = np.random.default_rng(seed).permutation(n_total)
    return [int(i) for i in perm[:n]]


def beta_schedule(beta: float, n: int, mode: str = "swept") -> BetaSchedule:
    """Exponent sequence for n selections.

    Swept mode takes the n linearly spaced values over [-beta, beta] and
    reorders them by descending magnitude with alternating signs starting
    positive: {+beta, -beta, ...} decaying toward 0, so the earliest
    selections see both extreme exponents. Constant mode repeats beta.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "constant":
        return BetaSchedule(np.full(n, float(beta)))
    if mode != "swept":
        raise ValueError(f"mode: must be one of {BETA_MODES}")
    magnitudes = np.sort(np.abs(np.linspace(-beta, beta, n)))[::-1]
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return BetaSchedule(magnitudes * signs + 0.0)


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n_total:
        raise CapacityError(f"cannot select {n} from {n_total} samples")
    if init is None:
        init = int(np.random.default_rng(seed).integers(n_total))
    return _greedy(_DistanceRows(X), [int(init)], np.zeros((1, n)))[0].tolist()


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
    grad_floor_rel: float = GRAD_FLOOR_REL,
    inits=None,
) -> tuple[np.ndarray, list[str]]:
    """GGFPS chains for several (beta, seed) pairs over one pool, in lockstep.

    Chain b is exactly ``ggfps`` with beta ``betas[b]`` and seed ``seeds[b]``
    (see there for the rule). Returns the (B, n) picks and the warnings;
    ``inits``, when given, overrides the configured initial points.
    """
    X = _validate_matrix(X)
    n_total = X.shape[0]
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n_total:
        raise CapacityError(f"cannot select {n} from {n_total} samples")
    if horizon is None:
        horizon = n
    if horizon < n:
        raise ValueError("horizon must be at least n")
    exponents = np.stack([beta_schedule(b, horizon, beta_mode).values[:n] for b in betas])

    warnings: list[str] = []
    if inits is None:
        if init_mode == "gradient_weighted" and not np.any(g > 0):
            warnings.append("all gradient norms are zero; fell back to random_uniform init")
            init_mode = "random_uniform"
        inits = [_initial_index(g, init_mode, seed) for seed in seeds]
    log_g = _log_gradients(g, grad_floor_rel)
    return _greedy(_DistanceRows(X), inits, exponents, log_g), warnings


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
    log domain so large norms and |beta| up to 2 cannot overflow. Once every
    remaining point duplicates a selected one (all scores -inf), the smallest
    remaining index is taken.

    ``horizon`` pins the schedule length independently of n (default n), so
    shorter runs sharing a horizon are prefixes of longer ones. An explicit
    ``init`` index overrides the configured initialization.
    """
    if config.method != "GGFPS":
        raise ValueError("config.method must be GGFPS")
    picks, warnings = ggfps_chains(
        labeled.descriptors, labeled.gradient_norms, [config.beta], [config.seed], config.n,
        horizon=horizon, beta_mode=config.beta_mode, init_mode=config.init_mode,
        grad_floor_rel=config.grad_floor_rel, inits=None if init is None else [int(init)],
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

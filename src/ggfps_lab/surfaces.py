"""Analytic benchmark surfaces with exact gradients.

Two surfaces are provided: the d-dimensional Styblinski-Tang function (a
separable multi-well landscape on a box domain) and a "bump" surface whose
label variance is concentrated inside a small sub-region of an otherwise
flat plane. Both expose value and gradient so samplers and generators can
use force-norm information.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledSet, check_int, check_number, check_width

DEFAULT_DOMAIN = (-4.0, 4.0)
# Bound on bump_amp * (1/bump_radius + |bump_freq|). Each gradient component
# of the bump stays below that product, so the two squares that a gradient
# norm sums stay below 2e306, and every label (at most bump_amp) is finite.
BUMP_GRADIENT_MAX = 1e153


def _check_pair(name: str, value) -> tuple[float, float]:
    """Two finite numbers given as a list, tuple or 1-D array."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
        raise ValueError(f"{name}: must be a list of two numbers")
    return tuple(check_number(f"{name}[{i}]", v) for i, v in enumerate(value))


def _check_box(domain) -> tuple[float, float]:
    """The box bounds as floats, with lower < upper and a finite width:
    uniform sampling draws lower + (upper - lower) * u."""
    lower, upper = _check_pair("domain", domain)
    if not 0 < upper - lower <= sys.float_info.max:
        raise ValueError("domain: must have lower < upper and a finite width")
    return lower, upper


def _as_points(x) -> tuple[np.ndarray, bool]:
    """Coerce input to an (n, d) array; a 1-D array is a single point."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim != 2:
        raise ValueError("expected a point (d,) or a stack of points (n, d)")
    return arr, False


@dataclass(frozen=True)
class StyblinskiTang:
    """Callable Styblinski-Tang surface bound to a box domain."""

    dim: int = 2
    domain: tuple[float, float] = DEFAULT_DOMAIN

    def __post_init__(self):
        object.__setattr__(self, "dim", check_int("dim", self.dim, 1))
        object.__setattr__(self, "domain", _check_box(self.domain))

    def value(self, x):
        """Half the sum over coordinates of x^4 - 16 x^2 + 5 x."""
        pts, single = _as_points(x)
        vals = 0.5 * np.sum(pts**4 - 16.0 * pts**2 + 5.0 * pts, axis=1)
        return float(vals[0]) if single else vals

    def value_and_gradient(self, x):
        """The value and its componentwise derivative (4 x^3 - 32 x + 5) / 2."""
        pts, single = _as_points(x)
        grad = 0.5 * (4.0 * pts**3 - 32.0 * pts + 5.0)
        return self.value(x), grad[0] if single else grad


@dataclass(frozen=True)
class AdversarialToy:
    """Flat 2-D surface with a localized high-variance bump. Every field must
    be finite, the window's divisor 2 bump_radius^2 positive and finite, and
    bump_amp * (1/bump_radius + |bump_freq|), which bounds each gradient
    component, at most ``BUMP_GRADIENT_MAX``."""

    bump_center: tuple[float, float] = (2.0, 2.0)
    bump_radius: float = 0.7
    bump_amp: float = 50.0
    bump_freq: float = 6.0
    domain: tuple[float, float] = DEFAULT_DOMAIN
    dim: int = 2

    def __post_init__(self):
        if check_int("dim", self.dim) != 2:
            raise ValueError("dim: adversarial_toy is defined for dim=2 only")
        radius = check_width("bump_radius", self.bump_radius)
        amp = check_number("bump_amp", self.bump_amp)
        freq = check_number("bump_freq", self.bump_freq)
        scale = abs(amp) * (1.0 / radius + abs(freq))
        if not scale <= BUMP_GRADIENT_MAX:
            # the largest factor of the product is the field at fault
            _, name = max((abs(amp), "bump_amp"), (abs(freq), "bump_freq"),
                          (1.0 / radius, "bump_radius"))
            raise ValueError(f"{name}: bump_amp * (1/bump_radius + |bump_freq|) = {scale:.3g} "
                             f"exceeds {BUMP_GRADIENT_MAX:g}, so gradient norms would overflow")
        for name, value in (("domain", _check_box(self.domain)),
                            ("bump_center", _check_pair("bump_center", self.bump_center)),
                            ("bump_radius", radius), ("bump_amp", amp), ("bump_freq", freq)):
            object.__setattr__(self, name, value)

    def value(self, x):
        return self.value_and_gradient(x)[0]

    def value_and_gradient(self, x):
        """Gaussian-windowed sine product amp * exp(-||x-c||^2 / (2 r^2)) *
        sin(w x0) * sin(w x1) and its gradient.

        Away from the bump center both decay like the Gaussian window, so
        labels and gradients are negligible outside a few radii; all the
        label variance lives near ``bump_center``.
        """
        pts, single = _as_points(x)
        if pts.shape[1] != 2:
            raise ValueError("the bump surface is defined for 2-D points only")
        amp, r, w = self.bump_amp, self.bump_radius, self.bump_freq
        diff = pts - np.asarray(self.bump_center)
        window = np.exp(-np.sum(diff**2, axis=1) / (2.0 * r * r))
        s0 = np.sin(w * pts[:, 0])
        s1 = np.sin(w * pts[:, 1])
        value = amp * window * s0 * s1

        # d/dx0 = window' * sin sin + window * w cos(w x0) sin(w x1), and symmetric in x1
        g0 = amp * window * (-diff[:, 0] / (r * r) * s0 * s1 + w * np.cos(w * pts[:, 0]) * s1)
        g1 = amp * window * (-diff[:, 1] / (r * r) * s0 * s1 + w * np.cos(w * pts[:, 1]) * s0)
        grad = np.stack([g0, g1], axis=1)
        if single:
            return float(value[0]), grad[0]
        return value, grad


def _check_domain(surface) -> None:
    """Reject a box on which evaluating the surface can overflow.

    The terms that grow with the box are largest at its corners:
    Styblinski-Tang's per-coordinate value (x^4 - 16 x^2 + 5 x) / 2 and
    gradient (4 x^3 - 32 x + 5) / 2 grow with |x|, so the two corners whose
    coordinates all equal one bound suffice; the bump's squared distance to
    its center, its offsets (x - c) / r^2 and its phases w x grow toward one
    of the four corners, so all four are checked. A corner evaluation that
    overflows anywhere, or yields a non-finite label or gradient norm,
    raises ValueError naming ``surface.domain``; nothing is drawn and numpy
    prints no warning.
    """
    lo, hi = surface.domain
    if isinstance(surface, AdversarialToy):
        corners = np.array([[lo, lo], [lo, hi], [hi, lo], [hi, hi]], dtype=float)
    else:
        corners = np.array([[bound] * surface.dim for bound in (lo, hi)], dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            values, grads = surface.value_and_gradient(corners)
            finite = np.isfinite(values).all() and np.isfinite(np.linalg.norm(grads, axis=1)).all()
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValueError("surface.domain: too wide: surface values or gradient norms "
                         "overflow at its corners")


@np.errstate(over="raise", invalid="raise")
def uniform_domain_sample(surface, n: int, seed: int) -> LabeledSet:
    """Draw n points i.i.d. uniform over the surface's box domain.

    Labels are surface values, gradient norms are Euclidean norms of the
    exact gradient. Deterministic per seed. A box on which the surface
    overflows is rejected first (see ``_check_domain``); an overflow in numpy
    while evaluating the draw raises FloatingPointError instead of a warning.
    A draw whose labels and gradient norms are all 0 (the bump's window is 0
    beyond some 40 radii) raises ValueError naming ``surface.domain``.
    """
    n = check_int("n", n, 1)
    seed = check_int("seed", seed, 0)
    _check_domain(surface)
    lo, hi = surface.domain
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, surface.dim))
    values, grads = surface.value_and_gradient(pts)
    gnorms = np.linalg.norm(grads, axis=1)
    if not (values.any() or gnorms.any()):
        raise ValueError("surface.domain: too wide: every drawn label and gradient norm is 0")
    return LabeledSet(descriptors=pts, labels=values, gradient_norms=gnorms)

import math
import warnings

import numpy as np
import pytest

from ggfps_lab.surfaces import (
    AdversarialToy,
    StyblinskiTang,
    adversarial_value_and_gradient,
    st_gradient,
    st_value,
    uniform_domain_sample,
)
from oracles import central_difference_gradient

MIN_COORD = -2.903534  # 6-decimal global minimizer per coordinate


def scalar_st(coords):
    # independent scalar evaluation, no numpy
    return 0.5 * math.fsum(c**4 - 16.0 * c**2 + 5.0 * c for c in coords)


class TestStValue:
    def test_value_at_global_minimum(self):
        x = (MIN_COORD, MIN_COORD)
        expected = scalar_st(x)
        assert st_value(np.array(x)) == pytest.approx(expected, abs=1e-10)
        # the well depth itself, for reference points elsewhere in the suite
        assert expected == pytest.approx(-78.3323314075428, abs=1e-9)

    def test_origin_is_zero(self):
        assert st_value(np.zeros(2)) == 0.0

    def test_top_corner(self):
        # per coordinate: 256 - 256 + 20 = 20, so half of the 2-D sum is 20
        assert st_value(np.array([4.0, 4.0])) == pytest.approx(20.0, abs=1e-12)

    def test_separability(self):
        rng = np.random.default_rng(5)
        for x in rng.uniform(-4, 4, size=(20, 2)):
            split = st_value(np.array([x[0]])) + st_value(np.array([x[1]]))
            assert st_value(x) == pytest.approx(split, rel=1e-12, abs=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(6)
        for x in rng.uniform(-4, 4, size=(20, 3)):
            assert st_value(x) == pytest.approx(st_value(x[::-1]), rel=1e-12, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-4, 4, size=(50, 2))
        vals = st_value(pts)
        for p, v in zip(pts, vals):
            assert v == pytest.approx(scalar_st(p), rel=1e-12)


class TestStGradient:
    def test_stationary_at_minimum(self):
        g = st_gradient(np.array([MIN_COORD, MIN_COORD]))
        assert np.all(np.abs(g) < 1e-3)

    def test_origin(self):
        g = st_gradient(np.zeros(2))
        assert g == pytest.approx([2.5, 2.5])
        assert np.linalg.norm(g) == pytest.approx(2.5 * np.sqrt(2), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-4, 4, size=(200, 2)):
            fd = central_difference_gradient(lambda p: st_value(p), x)
            g = st_gradient(x)
            assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(g)

    def test_vanishes_only_at_the_four_wells(self):
        # 1-D stationary points of x^4 - 16 x^2 + 5 x: two minima and a hump
        roots = []
        for guess in (-2.9, 0.16, 2.75):
            r = guess
            for _ in range(60):
                r -= (4 * r**3 - 32 * r + 5) / (12 * r**2 - 32)
            roots.append(r)
        lo, mid, hi = roots
        wells = [(a, b) for a in (lo, hi) for b in (lo, hi)]
        for w in wells:
            assert np.linalg.norm(st_gradient(np.array(w))) < 1e-8
        rng = np.random.default_rng(12)
        pts = rng.uniform(-4, 4, size=(500, 2))
        stationary = np.array([(a, b) for a in roots for b in roots])
        far = np.all(
            np.linalg.norm(pts[:, None, :] - stationary[None, :, :], axis=2) > 0.3, axis=1
        )
        norms = np.linalg.norm(st_gradient(pts[far]), axis=1)
        assert np.all(norms > 1e-2)

    def test_corner_gradient_exceeds_interior_median(self):
        rng = np.random.default_rng(13)
        interior = np.linalg.norm(st_gradient(rng.uniform(-4, 4, size=(2000, 2))), axis=1)
        for corner in ([4, 4], [4, -4], [-4, 4], [-4, -4]):
            assert np.linalg.norm(st_gradient(np.array(corner, dtype=float))) > np.median(interior)


class TestAdversarialSurface:
    params = dict(bump_center=(2.0, 2.0), bump_radius=0.7, bump_amp=50.0, bump_freq=6.0)

    def test_negligible_far_from_center(self):
        rng = np.random.default_rng(21)
        c = np.array(self.params["bump_center"])
        r = self.params["bump_radius"]
        # at 7 radii the window is exp(-24.5) ~ 2e-11, comfortably below 1e-8
        angles = rng.uniform(0, 2 * np.pi, 200)
        radii = rng.uniform(7 * r, 12 * r, 200)
        pts = c + np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        f, g = adversarial_value_and_gradient(pts, **self.params)
        assert np.all(np.abs(f) < 1e-8 * self.params["bump_amp"])
        assert np.all(np.linalg.norm(g, axis=1) < 1e-8 * self.params["bump_amp"])

    def test_zero_on_sine_lattice(self):
        lattice_center = (np.pi / 6.0, 2.0)  # sin(6 * pi/6) = sin(pi) = 0
        f, _ = adversarial_value_and_gradient(
            np.array(lattice_center), bump_center=lattice_center,
            bump_radius=0.7, bump_amp=50.0, bump_freq=6.0,
        )
        assert abs(f) < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        surf = AdversarialToy()
        pts = surf.bump_center + rng.uniform(-2, 2, size=(200, 2))
        for x in pts:
            fd = central_difference_gradient(lambda p: surf.value(p), x)
            g = surf.gradient(x)
            scale = max(np.linalg.norm(g), 1e-6 * surf.bump_amp)
            assert np.linalg.norm(g - fd) <= 1e-6 * scale

    def test_variance_is_localized(self):
        surf = AdversarialToy()
        rng = np.random.default_rng(23)
        pts = rng.uniform(-4, 4, size=(4000, 2))
        vals = surf.value(pts)
        near = np.linalg.norm(pts - np.array(surf.bump_center), axis=1) < 3 * surf.bump_radius
        assert np.var(vals[near]) > 100 * max(np.var(vals[~near]), 1e-30)


class TestUniformDomainSample:
    def test_points_inside_box(self):
        labeled = uniform_domain_sample(StyblinskiTang(), 500, seed=1)
        assert np.all(labeled.descriptors >= -4) and np.all(labeled.descriptors <= 4)
        assert len(labeled) == 500 and labeled.dim == 2

    def test_determinism(self):
        a = uniform_domain_sample(StyblinskiTang(), 100, seed=9)
        b = uniform_domain_sample(StyblinskiTang(), 100, seed=9)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_mean_near_zero(self):
        labeled = uniform_domain_sample(StyblinskiTang(), 10000, seed=3)
        assert np.all(np.abs(labeled.descriptors.mean(axis=0)) < 0.1)

    def test_labels_and_gradient_norms_consistent(self):
        labeled = uniform_domain_sample(StyblinskiTang(), 50, seed=4)
        assert labeled.labels == pytest.approx(st_value(labeled.descriptors))
        norms = np.linalg.norm(st_gradient(labeled.descriptors), axis=1)
        assert labeled.gradient_norms == pytest.approx(norms)

    @pytest.mark.parametrize("surface", [
        StyblinskiTang(domain=(-1e100, 1e100)),
        StyblinskiTang(dim=5, domain=(-4.0, 1e80)),
        AdversarialToy(domain=(-1e200, 1e200)),
        AdversarialToy(bump_radius=0.1, domain=(-8e307, 8e307)),
        AdversarialToy(domain=(-1e100, 1e100)),
    ], ids=["st-x4", "st-upper-bound", "bump-square", "bump-offset", "bump-window"])
    def test_overflowing_domain_names_it_without_warning(self, surface):
        # used to print numpy RuntimeWarnings, then raise "all entries must be
        # finite" (Styblinski-Tang, bump offsets) or return all-zero labels
        # (bump squares), naming no field; the bump's window underflows at
        # every point drawn from the last box, which returned all-zero labels
        # with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="surface.domain"):
                uniform_domain_sample(surface, 5, 1)

    @pytest.mark.parametrize("n, seed, field", [(2.5, 1, "n"), (0, 1, "n"), (5, -1, "seed")])
    def test_numbers_checked(self, n, seed, field):
        with pytest.raises(ValueError, match=f"{field}: must"):
            uniform_domain_sample(StyblinskiTang(), n, seed)

    def test_overflow_inside_the_box_raises_without_warning(self):
        # the corners stay finite, but gradient norms near the bump's center
        # overflowed: this printed a RuntimeWarning, then "all entries must be
        # finite". The bump's gradient bound now rejects that amplitude, so
        # the draw's guard is checked on a surface that spikes at the center
        with pytest.raises(ValueError, match="bump_amp"):
            AdversarialToy(bump_center=(0.0, 0.0), bump_amp=1e160)

        class Spike:
            dim, domain = 2, (-4.0, 4.0)

            def value_and_gradient(self, x):
                # exp(2000 / |x|^2) is exp(62.5) at the corners and overflows
                # wherever |x|^2 < 2.8
                return np.exp(2000.0 / np.sum(x * x, axis=1)), np.zeros_like(x)

        with pytest.raises(FloatingPointError):
            uniform_domain_sample(Spike(), 50, 0)

    def test_wide_domain_within_range_is_drawn(self):
        # a bump as wide as the box: its window stays nonzero at every draw
        surface = AdversarialToy(bump_radius=1e99, domain=(-1e100, 1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labeled = uniform_domain_sample(surface, 5, 1)
        assert np.isfinite(labeled.labels).all() and len(labeled) == 5
        assert labeled.gradient_norms.all()


class TestSurfaceSpec:
    """The surface constructors check their own fields. The surface kind and
    unknown bump fields are config-level checks, tested in test_cli.py."""

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            StyblinskiTang(dim=0)
        with pytest.raises(ValueError, match="dim"):
            AdversarialToy(dim=3)

    def test_rejects_bad_domain(self):
        for surface in (StyblinskiTang, AdversarialToy):
            with pytest.raises(ValueError, match="domain"):
                surface(domain=(4.0, -4.0))

    @pytest.mark.parametrize("field, value", [
        ("bump_center", (1.0, 2.0, 3.0)), ("bump_center", (float("nan"), 0.0)),
        ("bump_center", None), ("bump_radius", 0.0), ("bump_radius", -1.0),
        ("bump_radius", 1e200), ("bump_radius", 1e-170), ("bump_radius", "x"),
        ("bump_amp", float("inf")), ("bump_freq", True), ("bump_freq", float("nan")),
    ])
    def test_rejects_bad_bump_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdversarialToy(**{field: value})

    def test_factory_round_trip(self):
        st = StyblinskiTang(dim=3, domain=[-2, 2])
        assert st.dim == 3 and st.domain == (-2.0, 2.0)
        adv = AdversarialToy(bump_center=[1, 2], bump_amp=10)
        assert adv.bump_amp == 10.0 and adv.bump_center == (1.0, 2.0)
        with pytest.raises(ValueError, match="bump"):
            AdversarialToy(bump_radius=0.0)

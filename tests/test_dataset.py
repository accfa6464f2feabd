import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from ggfps_lab import dataset
from ggfps_lab.dataset import (
    Configuration,
    GenerationError,
    LabeledSet,
    XyzParseError,
    descriptor_local_radial,
    gradient_norm,
    labeled_set_from_configurations,
    parse_extended_xyz,
    synth_boltzmann_set,
    write_extended_xyz,
)
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample
from oracles import labeled_arrays_from_csv, random_rotation


def make_config(rng, n_atoms=4):
    return Configuration(
        positions=rng.uniform(-3, 3, size=(n_atoms, 3)),
        species=rng.integers(1, 9, size=n_atoms),
        energy=float(rng.normal()),
        forces=rng.normal(size=(n_atoms, 3)),
    )


class TestParseExtendedXyz:
    def test_minimal_frame(self):
        configs = parse_extended_xyz("1\nenergy=-0.5\nH 0 0 0 0 0 1\n")
        assert len(configs) == 1
        cfg = configs[0]
        assert cfg.n_atoms == 1
        assert cfg.species.tolist() == [1]
        assert cfg.energy == -0.5
        assert cfg.forces.tolist() == [[0.0, 0.0, 1.0]]

    def test_empty_stream(self):
        assert parse_extended_xyz("") == []
        assert parse_extended_xyz(b"\n\n") == []

    def test_missing_energy_names_second_frame(self):
        text = (
            "1\nenergy=-0.5\nH 0 0 0 0 0 1\n"
            "1\ncomment with no key\nH 0 0 0 0 0 1\n"
        )
        with pytest.raises(XyzParseError) as err:
            parse_extended_xyz(text)
        assert err.value.frame == 2
        assert err.value.line == 5
        assert "energy" in str(err.value)

    def test_malformed_atom_count(self):
        with pytest.raises(XyzParseError) as err:
            parse_extended_xyz("x\nenergy=1\n")
        assert err.value.frame == 1 and err.value.line == 1

    def test_non_numeric_field(self):
        with pytest.raises(XyzParseError) as err:
            parse_extended_xyz("1\nenergy=1\nH a 0 0 0 0 0\n")
        assert err.value.frame == 1 and err.value.line == 3

    @pytest.mark.parametrize("frame2, line", [
        ("1\nenergy=nan\nH 0 0 0 0 0 1\n", 5),
        ("1\nenergy=-inf\nH 0 0 0 0 0 1\n", 5),
        ("2\nenergy=1\nH 0 0 0 0 0 1\nH 0 0 inf 0 0 1\n", 7),
        ("1\nenergy=1\nH 0 0 0 0 NaN 1\n", 6),
    ], ids=["nan-energy", "inf-energy", "inf-position", "nan-force"])
    def test_non_finite_value_names_frame_and_line(self, frame2, line):
        with pytest.raises(XyzParseError, match="non-finite") as err:
            parse_extended_xyz("1\nenergy=-0.5\nH 0 0 0 0 0 1\n" + frame2)
        assert err.value.frame == 2 and err.value.line == line

    def test_unknown_symbol(self):
        with pytest.raises(XyzParseError, match="Xx"):
            parse_extended_xyz("1\nenergy=1\nXx 0 0 0 0 0 0\n")

    def test_bytes_input(self):
        configs = parse_extended_xyz(b"1\nenergy=2.5\nC 1 2 3 0 0 0\n")
        assert configs[0].species.tolist() == [6]

    def test_frame_order_preserved(self):
        text = "1\nenergy=1\nH 0 0 0 0 0 0\n1\nenergy=2\nO 0 0 0 0 0 0\n"
        configs = parse_extended_xyz(text)
        assert [c.energy for c in configs] == [1.0, 2.0]
        assert [int(c.species[0]) for c in configs] == [1, 8]

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        configs = [make_config(rng, n) for n in (1, 3, 5)]
        back = parse_extended_xyz(write_extended_xyz(configs))
        for a, b in zip(configs, back):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.forces, b.forces)
            assert a.energy == b.energy
            assert np.array_equal(a.species, b.species)


class TestGradientNorm:
    def test_zero_forces(self):
        cfg = Configuration(
            positions=np.zeros((2, 3)), species=[1, 1], energy=0.0, forces=np.zeros((2, 3))
        )
        assert gradient_norm(cfg) == 0.0

    def test_three_four_five(self):
        cfg = Configuration(
            positions=np.zeros((1, 3)), species=[1], energy=0.0, forces=[[3.0, 4.0, 0.0]]
        )
        assert gradient_norm(cfg) == pytest.approx(5.0, rel=1e-15)

    def test_two_atom_norm(self):
        cfg = Configuration(
            positions=np.zeros((2, 3)), species=[1, 1], energy=0.0,
            forces=[[1.0, 0.0, 0.0], [0.0, 2.0, 2.0]],
        )
        assert gradient_norm(cfg) == pytest.approx(3.0, rel=1e-15)  # sqrt(1+4+4)

    def test_invariance_under_row_permutation_and_rotation(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            cfg = make_config(rng, 5)
            perm = rng.permutation(5)
            rot = random_rotation(3, rng)
            permuted = Configuration(
                positions=cfg.positions, species=cfg.species, energy=cfg.energy,
                forces=cfg.forces[perm],
            )
            rotated = Configuration(
                positions=cfg.positions, species=cfg.species, energy=cfg.energy,
                forces=cfg.forces @ rot.T,
            )
            base = gradient_norm(cfg)
            assert gradient_norm(permuted) == pytest.approx(base, rel=1e-12)
            assert gradient_norm(rotated) == pytest.approx(base, rel=1e-12)


class TestDescriptorLocalRadial:
    def test_isolated_atom_is_zero(self):
        cfg = Configuration(
            positions=[[0.0, 0.0, 0.0]], species=[1], energy=0.0, forces=[[0, 0, 0]]
        )
        vec = descriptor_local_radial(cfg, cutoff=4.0, n_basis=3, widths=0.5)
        assert np.all(vec == 0.0)

    def test_pair_beyond_cutoff_is_zero(self):
        cfg = Configuration(
            positions=[[0, 0, 0], [10, 0, 0]], species=[1, 1], energy=0.0,
            forces=np.zeros((2, 3)),
        )
        vec = descriptor_local_radial(cfg, cutoff=4.0, n_basis=2, widths=0.5)
        assert np.all(vec == 0.0)

    def test_h2_hand_evaluation(self):
        # one neighbor at r=1, cutoff 4, centers mu = (2, 4), width w
        w = 0.5
        cfg = Configuration(
            positions=[[0, 0, 0], [1.0, 0, 0]], species=[1, 1], energy=0.0,
            forces=np.zeros((2, 3)),
        )
        vec = descriptor_local_radial(cfg, cutoff=4.0, n_basis=2, widths=w)
        fcut = 0.5 * (math.cos(math.pi * 1.0 / 4.0) + 1.0)
        expected = [
            math.exp(-((1.0 - 2.0) ** 2) / (2 * w * w)) * fcut,
            math.exp(-((1.0 - 4.0) ** 2) / (2 * w * w)) * fcut,
        ]
        assert vec[0] == pytest.approx(expected, rel=1e-12)
        assert vec[1] == pytest.approx(expected, rel=1e-12)

    def test_same_species_permutation_invariance(self):
        rng = np.random.default_rng(41)
        pos = rng.uniform(-1.5, 1.5, size=(5, 3))
        species = np.array([1, 1, 6, 6, 6])
        cfg = Configuration(positions=pos, species=species, energy=0.0, forces=np.zeros((5, 3)))
        # swap the two hydrogens and rotate the carbons among themselves
        perm = np.array([1, 0, 4, 2, 3])
        cfg_p = Configuration(
            positions=pos[perm], species=species[perm], energy=0.0, forces=np.zeros((5, 3))
        )
        a = descriptor_local_radial(cfg, 4.0, 3, 0.5)
        b = descriptor_local_radial(cfg_p, 4.0, 3, 0.5)
        # atom 0 (H) of the original is atom 1 of the permuted configuration
        inverse = np.argsort(perm)
        assert a == pytest.approx(b[inverse], abs=1e-10)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(-1.5, 1.5, size=(6, 3))
        species = np.array([1, 1, 6, 8, 8, 8])
        rot = random_rotation(3, rng)
        shift = rng.uniform(-5, 5, size=3)
        cfg = Configuration(positions=pos, species=species, energy=0.0, forces=np.zeros((6, 3)))
        moved = Configuration(
            positions=pos @ rot.T + shift, species=species, energy=0.0, forces=np.zeros((6, 3))
        )
        a = descriptor_local_radial(cfg, 4.0, 4, 0.5)
        b = descriptor_local_radial(moved, 4.0, 4, 0.5)
        assert a == pytest.approx(b, abs=1e-10)

    def test_species_order_pads_layout(self):
        cfg = Configuration(
            positions=[[0, 0, 0], [1, 0, 0]], species=[1, 1], energy=0.0,
            forces=np.zeros((2, 3)),
        )
        vec = descriptor_local_radial(cfg, 4.0, 2, 0.5, species_order=[1, 6, 8])
        assert vec.shape == (2, 6)
        assert np.all(vec[:, 2:] == 0.0)  # no carbon or oxygen neighbors


class TestSynthBoltzmann:
    def test_determinism(self):
        surf = StyblinskiTang()
        a = synth_boltzmann_set(surf, temperature=5.0, n=200, seed=8, step=0.5)
        b = synth_boltzmann_set(surf, temperature=5.0, n=200, seed=8, step=0.5)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.labels, b.labels)

    def test_high_temperature_approaches_uniform(self):
        surf = StyblinskiTang()
        hot = synth_boltzmann_set(surf, temperature=1e7, n=5000, seed=2, step=3.0)
        uniform = uniform_domain_sample(surf, 5000, seed=3)
        for c in range(2):
            stat = ks_2samp(hot.descriptors[:, c], uniform.descriptors[:, c]).statistic
            assert stat < 0.1

    def test_low_temperature_prefers_wells(self):
        surf = StyblinskiTang()
        cold = synth_boltzmann_set(surf, temperature=2.0, n=2000, seed=5, step=0.5)
        uniform = uniform_domain_sample(surf, 2000, seed=6)
        assert cold.labels.mean() < uniform.labels.mean()

    def test_samples_stay_in_domain(self):
        surf = StyblinskiTang()
        hot = synth_boltzmann_set(surf, temperature=1e7, n=500, seed=2, step=3.0)
        assert np.all(hot.descriptors >= -4) and np.all(hot.descriptors <= 4)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="n: must be >= 1"):
            synth_boltzmann_set(StyblinskiTang(), 1.0, 0, 0, 0.5)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("seed", -1), ("temperature", float("nan")), ("temperature", 0.0),
        ("step", "x"), ("burn_in", -1), ("thinning", 0),
    ])
    def test_numbers_checked(self, field, value):
        args = dict(temperature=1.0, n=5, seed=0, step=0.5, burn_in=10, thinning=1)
        with pytest.raises(ValueError, match=f"{field}: must"):
            synth_boltzmann_set(StyblinskiTang(), **{**args, field: value})

    def test_overflowing_walk_raises_without_warning(self):
        # a proposal step of 1e308 overflowed with a numpy RuntimeWarning
        with pytest.raises(FloatingPointError):
            synth_boltzmann_set(StyblinskiTang(), 1.0, 5, 0, 1e308, burn_in=10)

    def test_non_finite_surface_rejected(self):
        class BadSurface:
            dim = 2
            domain = (-4.0, 4.0)

            def value(self, x):
                return float("nan")

            def value_and_gradient(self, x):
                raise AssertionError("never reached")

        with pytest.raises(GenerationError):
            synth_boltzmann_set(BadSurface(), 1.0, 10, 0, 0.5)


class TestLabeledSetSerialization:
    def make_set(self):
        return uniform_domain_sample(StyblinskiTang(), 25, seed=12)

    def test_csv_round_trip(self):
        labeled = self.make_set()
        text = labeled.to_csv()
        header = text.splitlines()[0]
        assert header == "id,label,grad_norm,x0,x1"
        back = LabeledSet.from_csv(text)
        assert np.array_equal(back.descriptors, labeled.descriptors)
        assert np.array_equal(back.labels, labeled.labels)
        assert np.array_equal(back.gradient_norms, labeled.gradient_norms)
        assert back.ids == labeled.ids

    def test_json_round_trip(self):
        labeled = self.make_set()
        back = LabeledSet.from_json(labeled.to_json())
        assert np.array_equal(back.descriptors, labeled.descriptors)
        assert back.ids == labeled.ids

    def test_subset_keeps_alignment(self):
        labeled = self.make_set()
        sub = labeled.subset([3, 1, 4])
        assert sub.ids == (labeled.ids[3], labeled.ids[1], labeled.ids[4])
        assert np.array_equal(sub.descriptors[0], labeled.descriptors[3])

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(
                descriptors=np.zeros((2, 2)), labels=np.zeros(3),
                gradient_norms=np.zeros(2), ids=("a", "b"),
            )
        with pytest.raises(ValueError, match="nonnegative"):
            LabeledSet(
                descriptors=np.zeros((1, 2)), labels=np.zeros(1),
                gradient_norms=np.array([-1.0]), ids=("a",),
            )


FLOAT_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 1e6).map(lambda v: f"{v:.17g}"),
    st.sampled_from([" 1.5 ", "\t2", "1_0", "1__0", "_1", "\u0661\u0662", "\u0663.\u0665",
                     "nan", "-inf", "Infinity", "1e999", "-0", "0x1p3", "", " ", "x", "1e5_0"]),
)


@st.composite
def csv_documents(draw):
    """A labeled-set CSV, mostly well formed: valid, odd and invalid floats,
    whitespace, blank lines and the odd row with a wrong field count."""
    dim = draw(st.integers(0, 3))
    lines = ["id,label,grad_norm" + "".join(f",x{j}" for j in range(dim))]
    for r in range(draw(st.integers(0, 12))):
        fields = [f"r{r}"] + [draw(FLOAT_FIELDS) for _ in range(2 + dim)]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[:-1] if draw(st.booleans()) and len(fields) > 1 else fields + ["1"]
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        labeled = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple((a.shape, a.tobytes()) for a in (labeled.descriptors, labeled.labels,
                                                  labeled.gradient_norms)) + (labeled.ids,)


class TestFromJson:
    def test_round_trip(self):
        labeled = LabeledSet(descriptors=np.eye(2), labels=[1.0, 2.0],
                             gradient_norms=[0.5, 0.0], ids=("a", "b"))
        back = LabeledSet.from_json(labeled.to_json())
        assert np.array_equal(back.descriptors, labeled.descriptors) and back.ids == ("a", "b")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "must be an object"),
        ({"labels": [], "gradient_norms": [], "ids": []}, "descriptors: required key"),
        ({"descriptors": [], "labels": [], "gradient_norms": []}, "ids: required key"),
    ])
    def test_malformed_document_raises_value_error(self, doc, message):
        # a list raised TypeError and a missing key KeyError
        with pytest.raises(ValueError, match=message):
            LabeledSet.from_json(json.dumps(doc))


class TestFromCsvMatchesRowByRowParser:
    @settings(max_examples=300, deadline=None)
    @given(csv_documents(), st.sampled_from([1, 2, 5, dataset.CSV_BLOCK_ROWS]))
    def test_same_arrays_or_same_error(self, text, block_rows):
        expected = parse_outcome(lambda t: LabeledSet(*labeled_arrays_from_csv(t)), text)
        with mock.patch.object(dataset, "CSV_BLOCK_ROWS", block_rows):
            assert parse_outcome(LabeledSet.from_csv, text) == expected

    def test_first_error_in_row_order_wins(self):
        header = "id,label,grad_norm,x0"
        bad_float_first = "\n".join([header, "a,1,1,1", "b,1,oops,1", "c,1,1"])
        with pytest.raises(ValueError, match="could not convert string to float: 'oops'"):
            LabeledSet.from_csv(bad_float_first)
        bad_count_first = "\n".join([header, "a,1,1", "b,1,oops,1"])
        with pytest.raises(ValueError, match="row has 3 fields, expected 4"):
            LabeledSet.from_csv(bad_count_first)

    def test_many_blocks(self):
        labeled = uniform_domain_sample(StyblinskiTang(dim=3), 2 * dataset.CSV_BLOCK_ROWS + 7,
                                        seed=5)
        back = LabeledSet.from_csv(labeled.to_csv())
        assert back.descriptors.tobytes() == labeled.descriptors.tobytes()
        assert back.labels.tobytes() == labeled.labels.tobytes()
        assert back.gradient_norms.tobytes() == labeled.gradient_norms.tobytes()
        assert back.ids == labeled.ids
        assert back.descriptors.flags.c_contiguous

def test_labeled_set_from_configurations():
    rng = np.random.default_rng(55)
    base = rng.uniform(-1, 1, size=(3, 3))
    configs = []
    for _ in range(6):
        pos = base + 0.05 * rng.normal(size=(3, 3))
        configs.append(
            Configuration(
                positions=pos, species=[8, 1, 1],
                energy=float(rng.normal()), forces=rng.normal(size=(3, 3)),
            )
        )
    labeled = labeled_set_from_configurations(configs, cutoff=4.0, n_basis=3, widths=0.5)
    assert len(labeled) == 6
    assert labeled.dim == 3 * 2 * 3  # atoms x species-union x basis
    assert np.all(labeled.gradient_norms >= 0)


@pytest.mark.parametrize("species", [[8, 1, 1, 1], [1, 8, 1]])
def test_labeled_set_from_configurations_rejects_mismatched_frames(species):
    # frame 3 has an extra atom, or the same atoms in another order: its
    # descriptor columns would describe different atoms than frame 1's
    rng = np.random.default_rng(56)
    frames = [[8, 1, 1], [8, 1, 1], species, [8, 1, 1]]
    configs = [
        Configuration(positions=rng.uniform(-1, 1, size=(len(z), 3)), species=z,
                      energy=0.0, forces=np.zeros((len(z), 3)))
        for z in frames
    ]
    with pytest.raises(ValueError, match="frame 3"):
        labeled_set_from_configurations(configs, cutoff=4.0, n_basis=3, widths=0.5)

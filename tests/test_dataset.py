import errno
import os
import stat
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from ggfps_lab import dataset
from ggfps_lab.dataset import GenerationError, LabeledSet, synth_boltzmann_set, write_outputs
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample
from oracles import labeled_arrays_from_csv


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
        text = labeled.to_csv("u")
        lines = text.splitlines()
        assert lines[0] == "id,label,grad_norm,x0,x1"
        assert [ln.partition(",")[0] for ln in lines[1:4]] == ["u00000", "u00001", "u00002"]
        back = LabeledSet.from_csv(text)
        assert np.array_equal(back.descriptors, labeled.descriptors)
        assert np.array_equal(back.labels, labeled.labels)
        assert np.array_equal(back.gradient_norms, labeled.gradient_norms)

    def test_any_id_is_read_and_skipped(self):
        back = LabeledSet.from_csv("id,label,grad_norm,x0\nfirst,1,2,3\n,4,5,6\n")
        assert back.descriptors.tolist() == [[3.0], [6.0]]
        assert back.labels.tolist() == [1.0, 4.0]

    def test_subset_keeps_alignment(self):
        labeled = self.make_set()
        sub = labeled.subset([3, 1, 4])
        for name in ("descriptors", "labels", "gradient_norms"):
            assert np.array_equal(getattr(sub, name), getattr(labeled, name)[[3, 1, 4]])

    @pytest.mark.parametrize("indices", [[True, False, True], np.array([0.7, 2.2]), [1.0]])
    def test_subset_rejects_masks_and_non_integers(self, indices):
        """A cast to int read the mask [True, False, True] as rows 1, 0, 1
        and [0.7, 2.2] as rows 0 and 2."""
        with pytest.raises(ValueError, match="indices must be integers"):
            self.make_set().subset(indices)

    @pytest.mark.parametrize("indices", [np.array([4, 0], dtype=np.int32),
                                         np.array([2], dtype=np.uint64), range(1, 3)])
    def test_subset_takes_integer_indices(self, indices):
        labeled = self.make_set()
        rows = [int(i) for i in indices]
        assert labeled.subset(indices).labels.tolist() == labeled.labels[rows].tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledSet(
                descriptors=np.zeros((2, 2)), labels=np.zeros(3),
                gradient_norms=np.zeros(2),
            )
        with pytest.raises(ValueError, match="nonnegative"):
            LabeledSet(
                descriptors=np.zeros((1, 2)), labels=np.zeros(1),
                gradient_norms=np.array([-1.0]),
            )

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0, 0)])
    def test_no_rows_or_no_columns_rejected(self, shape):
        with pytest.raises(ValueError, match=r"N, d >= 1 .*got shape"):
            LabeledSet(descriptors=np.zeros(shape), labels=np.zeros(shape[0]),
                       gradient_norms=np.zeros(shape[0]))


FLOAT_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 1e6).map(lambda v: f"{v:.17g}"),
    st.sampled_from([" 1.5 ", "\t2", "1_0", "1__0", "_1", "\u0661\u0662", "\u0663.\u0665",
                     "nan", "-inf", "Infinity", "1e999", "-0", "0x1p3", "", " ", "x", "1e5_0"]),
)


@st.composite
def csv_documents(draw):
    """A labeled-set CSV, mostly well formed: valid, odd and invalid floats,
    whitespace, blank lines, the odd row with a wrong field count, and the
    odd row broken by a character that ``str.splitlines`` splits at but
    iterating a file does not (form feed, NEL, line separator). Lines end in
    one of \\n, \\r\\n and \\r; the last may have no line end."""
    dim = draw(st.integers(0, 3))
    lines = ["id,label,grad_norm" + "".join(f",x{j}" for j in range(dim))]
    for r in range(draw(st.integers(0, 12))):
        fields = [f"r{r}"] + [draw(FLOAT_FIELDS) for _ in range(2 + dim)]
        if draw(st.integers(0, 9)) == 0:
            fields = fields[:-1] if draw(st.booleans()) and len(fields) > 1 else fields + ["1"]
        row = ",".join(fields)
        if draw(st.integers(0, 7)) == 0:
            cut = draw(st.integers(0, len(row)))
            row = row[:cut] + draw(st.sampled_from(["\x0c", "\x85", "\u2028"])) + row[cut:]
        lines.append(row)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def parse_outcome(parse, text):
    try:
        labeled = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple((a.shape, a.tobytes()) for a in (labeled.descriptors, labeled.labels,
                                                  labeled.gradient_norms))


def from_file(path):
    """``LabeledSet.from_csv`` streamed over the lines of the file at ``path``."""
    with path.open(encoding="utf-8") as lines:
        return LabeledSet.from_csv(lines)


class TestFromCsvMatchesRowByRowParser:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_documents(), st.sampled_from([1, 2, 5, dataset.CSV_BLOCK_ROWS]))
    def test_same_arrays_or_same_error(self, tmp_path, text, block_rows):
        """The same outcome from the text and streamed from a file that
        holds it, whose lines end only at \\n, \\r\\n and \\r."""
        expected = parse_outcome(lambda t: LabeledSet(*labeled_arrays_from_csv(t)[:3]), text)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(dataset, "CSV_BLOCK_ROWS", block_rows):
            assert parse_outcome(LabeledSet.from_csv, text) == expected
            assert parse_outcome(from_file, path) == expected

    def test_first_error_in_row_order_wins(self):
        header = "id,label,grad_norm,x0"
        bad_float_first = "\n".join([header, "a,1,1,1", "b,1,oops,1", "c,1,1"])
        with pytest.raises(ValueError, match="could not convert string to float: 'oops'"):
            LabeledSet.from_csv(bad_float_first)
        bad_count_first = "\n".join([header, "a,1,1", "b,1,oops,1"])
        with pytest.raises(ValueError, match="row has 3 fields, expected 4"):
            LabeledSet.from_csv(bad_count_first)

    def test_many_blocks(self, tmp_path):
        labeled = uniform_domain_sample(StyblinskiTang(dim=3), 2 * dataset.CSV_BLOCK_ROWS + 7,
                                        seed=5)
        path = tmp_path / "data.csv"
        text = labeled.to_csv("u")
        path.write_text(text)
        for back in (LabeledSet.from_csv(text), from_file(path)):
            assert back.descriptors.tobytes() == labeled.descriptors.tobytes()
            assert back.labels.tobytes() == labeled.labels.tobytes()
            assert back.gradient_norms.tobytes() == labeled.gradient_norms.tobytes()
            assert back.descriptors.flags.c_contiguous

    def test_streamed_load_peaks_below_three_times_its_result(self, tmp_path):
        """A streamed 20,000 x 8 CSV holds one block's text and field strings
        beside the values parsed so far: the traced peak stays below 3x the
        bytes of the result's three arrays. Parsing the whole text held it,
        its list of lines and a full values matrix beside the result's
        copies, about 6.9x the arrays and ids that the result then held."""
        rng = np.random.default_rng(8)
        n = 20_000
        labeled = LabeledSet(rng.uniform(-4.0, 4.0, size=(n, 8)), rng.normal(size=n),
                             rng.uniform(0.0, 5.0, size=n))
        path = tmp_path / "large.csv"
        path.write_text(labeled.to_csv("u"))
        LabeledSet.from_csv(["id,label,grad_norm,x0", "a,1,1,1"])  # first-call allocations
        tracemalloc.start()
        try:
            back = from_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.descriptors.tobytes() == labeled.descriptors.tobytes()
        result = back.descriptors.nbytes + back.labels.nbytes + back.gradient_norms.nbytes
        assert peak < 3 * result


def second_text_fails(exc):
    """Texts whose second raises ``exc`` while it is built."""
    yield "a.csv", "1\n"
    raise exc


def second_write_fails(exc, monkeypatch):
    """Texts whose second raises ``exc`` while it is written."""
    real_open = Path.open

    def failing_open(self, *args, **kwargs):
        if self.name == "b.csv":
            raise exc
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)
    return iter([("a.csv", "1\n"), ("b.csv", "2\n")])


class TestWriteOutputs:
    def test_writes_every_text_under_new_parents(self, tmp_path):
        out = tmp_path / "new" / "out"
        assert write_outputs(out, [("a.csv", "1\n"), ("b.json", "{}\n")]) is None
        assert (out / "a.csv").read_text() == "1\n"
        assert (out / "b.json").read_text() == "{}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new"]

    def test_failed_write_removes_the_written_files_and_the_new_directory(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            write_outputs(out, [("a.csv", "1\n"), ("missing/b.csv", "2\n")])
        assert not out.exists()

    def test_failed_write_removes_every_directory_it_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(FileNotFoundError):
            write_outputs(out, [("a.csv", "1\n"), ("missing/b.csv", "2\n")])
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_a_directory_it_did_not_create(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.txt").write_text("kept")
        with pytest.raises(FileNotFoundError):
            write_outputs(out, [("a.csv", "1\n"), ("missing/b.csv", "2\n")])
        assert [p.name for p in out.iterdir()] == ["old.txt"]

    @pytest.mark.parametrize("exc", [ValueError("export"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    @pytest.mark.parametrize("fails", ["build", "write"])
    def test_second_output_failing_leaves_nothing(self, tmp_path, monkeypatch, exc, fails):
        # only OSError rolled back: a failed export or an interrupt left
        # a/out/a.csv in a directory that looked like a result
        texts = (second_text_fails(exc) if fails == "build"
                 else second_write_fails(exc, monkeypatch))
        with pytest.raises(type(exc)):
            write_outputs(tmp_path / "a" / "out", texts)
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_receives_the_outputs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        write_outputs(out, [("a.csv", "1\n")])
        assert [p.name for p in out.iterdir()] == ["a.csv"]
        assert list(tmp_path.iterdir()) == [out]  # no staging directory left

    def test_out_filled_before_the_rename_keeps_its_entries(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()

        def texts():
            yield "a.csv", "1\n"
            (out / "late.txt").write_text("kept")
            yield "b.csv", "2\n"

        with pytest.raises(OSError) as info:
            write_outputs(out, texts())
        assert info.value.errno in (errno.ENOTEMPTY, errno.EEXIST)
        assert [p.name for p in out.iterdir()] == ["late.txt"]
        assert list(tmp_path.iterdir()) == [out]

    def test_published_directories_get_mkdirs_mode(self, tmp_path):
        # mkdtemp makes its directory 0700; a published one is made as mkdir makes it
        umask = os.umask(0o022)
        try:
            (tmp_path / "reference").mkdir()
            write_outputs(tmp_path / "a" / "out", [("a.csv", "1\n")])
        finally:
            os.umask(umask)
        mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert mode == 0o755
        for directory in (tmp_path / "a", tmp_path / "a" / "out"):
            assert stat.S_IMODE(directory.stat().st_mode) == mode

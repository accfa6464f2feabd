import ast
import copy
import csv
import hashlib
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggfps_lab import cli, experiments, krr
from ggfps_lab.cli import main
from ggfps_lab.dataset import GenerationError, LabeledSet, dumps_17g, synth_boltzmann_set
from ggfps_lab.experiments import DegenerateDistributionError, ReplicateError
from ggfps_lab.krr import FactorizationError, bundled_openblas
from ggfps_lab.sampling import BETA_MAX, BETA_MODES, INIT_MODES, CapacityError
from ggfps_lab.surfaces import StyblinskiTang, uniform_domain_sample


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def generate_config(kind="styblinski_tang", n=100, seed=7, generator="uniform", **extra):
    cfg = {
        "schema_version": 1,
        "surface": {"kind": kind, "dim": 2, "domain": [-4, 4]},
        "generator": {"kind": generator, "n": n, "seed": seed},
    }
    cfg["generator"].update(extra.pop("generator_extra", {}))
    cfg.update(extra)
    return cfg


def run_ok(argv):
    assert main(argv) == 0


def fail_opening(monkeypatch, name):
    """Make every ``Path.open`` of a file called ``name`` fail with an OSError."""
    real_open = Path.open

    def failing_open(self, *args, **kwargs):
        if self.name == name:
            raise PermissionError(f"refused: {self}")
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_open)


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        config = write_config(tmp_path, "gen.json", generate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ok(["generate", "--config", str(config), "--out", str(out_a)])
        run_ok(["generate", "--config", str(config), "--out", str(out_b)])
        assert sorted(p.name for p in out_a.iterdir()) == ["dataset.csv", "manifest.json"]
        for name in ("dataset.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        rows = (out_a / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 100

    @pytest.mark.parametrize("generator, extra, digest", [
        ("uniform", {}, "53ae4d5a2df176311578819b941197b27da8b3d45d7192160564f376464481d6"),
        ("boltzmann", {"n": 50, "seed": 3, "temperature": 5.0, "step": 0.5, "burn_in": 100,
                       "thinning": 2},
         "c36aafe0ae182da554e7ceb2db9812facfc2224c719440a4b54d1d9376ed46c2"),
    ])
    def test_dataset_csv_bytes_are_pinned(self, tmp_path, generator, extra, digest):
        """Each generator writes the ids u00000... or b00000... from the row
        index, and the same bytes as when ``LabeledSet`` held the ids."""
        config = write_config(tmp_path, "gen.json",
                              generate_config(generator=generator, generator_extra=extra))
        run_ok(["generate", "--config", str(config), "--out", str(tmp_path / "o")])
        data = (tmp_path / "o" / "dataset.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_invalid_dim_names_field(self, tmp_path, capsys):
        cfg = generate_config()
        cfg["surface"]["dim"] = 0
        config = write_config(tmp_path, "gen.json", cfg)
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "surface.dim" in capsys.readouterr().err

    def test_adversarial_gradients_vanish_outside_bump(self, tmp_path):
        cfg = generate_config(kind="adversarial_toy", n=400, seed=3)
        cfg["bump"] = {"bump_center": [2.0, 2.0], "bump_radius": 0.5, "bump_amp": 50.0,
                       "bump_freq": 6.0}
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "adv"
        run_ok(["generate", "--config", str(config), "--out", str(out)])
        labeled = LabeledSet.from_csv((out / "dataset.csv").read_text())
        dist = np.linalg.norm(labeled.descriptors - np.array([2.0, 2.0]), axis=1)
        far = dist > 7 * 0.5
        assert far.any()
        assert np.all(labeled.gradient_norms[far] < 1e-8 * 50.0)

    def test_boltzmann_generator(self, tmp_path):
        cfg = generate_config(generator="boltzmann",
                              generator_extra={"temperature": 4.0, "step": 0.5})
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "boltz"
        run_ok(["generate", "--config", str(config), "--out", str(out)])
        labeled = LabeledSet.from_csv((out / "dataset.csv").read_text())
        assert len(labeled) == 100
        assert np.all(labeled.descriptors >= -4) and np.all(labeled.descriptors <= 4)

    @pytest.mark.parametrize("domain", [[-1e308, 1e308], [float("-inf"), 4], [4, 4]],
                             ids=["infinite-width", "infinite-bound", "empty"])
    def test_domain_needs_finite_bounds_and_width(self, tmp_path, capsys, domain):
        # rng.uniform draws lower + (upper - lower) * u and overflowed on an
        # infinite width: an OverflowError traceback instead of exit 1
        cfg = generate_config()
        cfg["surface"]["domain"] = domain
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert "surface.domain" in capsys.readouterr().err
        assert not out.exists()

    def test_domain_whose_surface_overflows_names_it(self, tmp_path, capsys, recwarn):
        # x**4 overflowed on [-1e100, 1e100]: two numpy RuntimeWarnings, then
        # "all entries must be finite", which names no field
        cfg = generate_config(n=5)
        cfg["surface"]["domain"] = [-1e100, 1e100]
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert "surface.domain" in capsys.readouterr().err
        assert not out.exists()
        # a box whose corners stay finite is still accepted
        cfg["surface"]["domain"] = [-1e50, 1e50]
        run_ok(["generate", "--config", str(write_config(tmp_path, "gen.json", cfg)),
                "--out", str(out)])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("domain, bump", [
        ([-1e200, 1e200], None),
        ([-8e307, 8e307], {"bump_radius": 0.1}),
        ([-1e100, 1e100], None),
    ], ids=["square-overflows", "offset-overflows", "window-underflows"])
    def test_bump_domain_whose_surface_overflows_names_it(self, tmp_path, capsys, recwarn,
                                                          domain, bump):
        # the first box printed an overflow warning and exited 0 with all-zero
        # labels and gradient norms; the second made 0 * inf = NaN and exited 1
        # with "all entries must be finite"; on the third nothing overflows,
        # but the bump's window underflows to 0 at every drawn point, and it
        # exited 0 with all-zero labels and gradient norms
        cfg = generate_config(kind="adversarial_toy", n=5)
        cfg["surface"]["domain"] = domain
        if bump is not None:
            cfg["bump"] = bump
        out = tmp_path / "o"
        config = write_config(tmp_path, "gen.json", cfg)
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        assert "surface.domain" in capsys.readouterr().err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        # exited 2 after generating, once the write found a file in the way;
        # it is now a config error found before compute
        config = write_config(tmp_path, "gen.json", generate_config(n=5))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["generate", "--config", str(config),
                     "--out", str(blocker / "sub")]) == 1
        assert capsys.readouterr().err.startswith(f"error: --out: {blocker} exists and is not")

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # the write of manifest.json fails after dataset.csv's; dataset.csv
        # used to stay behind. The empty --out existed before, so it stays.
        config = write_config(tmp_path, "gen.json", generate_config(n=5))
        out = tmp_path / "o"
        out.mkdir()
        fail_opening(monkeypatch, "manifest.json")
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        assert not any(out.iterdir())


@pytest.fixture()
def dataset_dir(tmp_path):
    config = write_config(tmp_path, "gen.json", generate_config(n=60, seed=11))
    out = tmp_path / "data"
    run_ok(["generate", "--config", str(config), "--out", str(out)])
    return out


def sample_config(dataset_dir, method, n=10, seed=4, **extra):
    sampler = {"method": method, "n": n, "seed": seed}
    sampler.update(extra)
    return {
        "schema_version": 1,
        "dataset": str(dataset_dir / "dataset.csv"),
        "sampler": sampler,
    }


class TestSample:
    def test_ggfps_beta_zero_equals_fps(self, tmp_path, dataset_dir):
        cfg_fps = write_config(tmp_path, "fps.json", sample_config(dataset_dir, "FPS"))
        cfg_gg = write_config(
            tmp_path, "gg.json",
            sample_config(dataset_dir, "GGFPS", beta=0.0, init_mode="random_uniform"),
        )
        out_fps, out_gg = tmp_path / "fps", tmp_path / "gg"
        run_ok(["sample", "--config", str(cfg_fps), "--out", str(out_fps)])
        run_ok(["sample", "--config", str(cfg_gg), "--out", str(out_gg)])
        fps_doc = json.loads((out_fps / "selection.json").read_text())
        gg_doc = json.loads((out_gg / "selection.json").read_text())
        assert fps_doc["indices"] == gg_doc["indices"]

    def test_full_draw_is_permutation(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS", n=60))
        out = tmp_path / "full"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "selection.json").read_text())
        assert sorted(doc["indices"]) == list(range(60))

    def test_repeat_invocation_identical(self, tmp_path, dataset_dir):
        cfg = write_config(
            tmp_path, "s.json", sample_config(dataset_dir, "GGFPS", beta=0.8)
        )
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        run_ok(["sample", "--config", str(cfg), "--out", str(out_a)])
        run_ok(["sample", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "selection.json").read_bytes() == (out_b / "selection.json").read_bytes()

    def test_oversized_request_fails(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "FPS", n=61))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "61" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["URS", "FPS", "GGFPS"])
    def test_n_above_the_dataset_size_names_sampler_n(self, tmp_path, dataset_dir, capsys,
                                                      method):
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, method, n=100))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sampler.n: cannot ") and "100 from 60 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["URS", "FPS"])
    @pytest.mark.parametrize("extra, field", [
        ({"beta": 7, "beta_mode": "constant"}, "beta"), ({"beta_mode": "constant"}, "beta_mode"),
    ])
    def test_ggfps_setting_for_another_method_names_it(self, tmp_path, dataset_dir, capsys,
                                                       method, extra, field):
        # these exited 0 with "beta": null, as if the settings had been used
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, method, **extra))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: sampler.{field}: ")
        assert not out.exists()

    def test_missing_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": "missing.csv",
            "sampler": {"method": "URS", "n": 5, "seed": 1},
        })
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "dataset" in capsys.readouterr().err

    def test_zero_gradient_fallback_warning_in_output(self, tmp_path):
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{float(i)},0,{float(i)},0" for i in range(8)]
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": str(data),
            "sampler": {"method": "GGFPS", "n": 3, "beta": 1.0, "seed": 1},
        })
        out = tmp_path / "o"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "selection.json").read_text())
        assert doc["warnings"] and "fell back" in doc["warnings"][0]

    def test_ggfps_on_gradient_norms_that_sum_past_the_largest_double(self, tmp_path):
        # the weighted first pick divided by a sum that overflowed: exit 1
        # with numpy's "Probabilities do not sum to 1", which names no field
        data = tmp_path / "huge.csv"
        data.write_text("id,label,grad_norm,x0\nr0,0,1e308,0\nr1,1,1e308,1\nr2,2,1,2\n")
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": str(data),
            "sampler": {"method": "GGFPS", "n": 2, "beta": 1.0, "seed": 1},
        })
        out = tmp_path / "o"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        assert json.loads((out / "selection.json").read_text())["indices"][0] in (0, 1)

    def test_fps_on_descriptors_whose_distance_overflows(self, tmp_path):
        # x0 = 0, 0, 1e300: squaring the distance overflowed with a numpy
        # RuntimeWarning, which under -W error escaped main as a traceback
        data = tmp_path / "far.csv"
        data.write_text("id,label,grad_norm,x0\nr0,0,1,0\nr1,1,1,0\nr2,2,1,1e300\n")
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": str(data),
            "sampler": {"method": "FPS", "n": 2, "seed": 3},
        })
        out = tmp_path / "o"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        indices = json.loads((out / "selection.json").read_text())["indices"]
        assert 2 in indices and len(set(indices)) == 2

    def test_ggfps_on_duplicate_descriptors(self, tmp_path):
        # a Metropolis walk with 36 distinct points; GGFPS n=41 used to exit 1
        labeled = synth_boltzmann_set(StyblinskiTang(), 2.0, 300, seed=3, step=1.0,
                                      burn_in=100, thinning=1)
        data = tmp_path / "walk.csv"
        data.write_text(labeled.to_csv())
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": str(data),
            "sampler": {"method": "GGFPS", "n": 41, "beta": 1.0, "seed": 0},
        })
        out = tmp_path / "o"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        doc = json.loads((out / "selection.json").read_text())
        assert len(set(doc["indices"])) == 41


def curve_config(dataset_dir, **plan_overrides):
    plan = {
        "labeled_sizes": [40], "train_sizes": [10], "bootstraps": 1,
        "sigma_grid": [0.5, 1.5], "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0],
        "folds": 5, "master_seed": 9,
    }
    plan.update(plan_overrides)
    return {
        "schema_version": 1,
        "dataset": str(dataset_dir / "dataset.csv"),
        "plan": plan,
    }


class TestCurve:
    def test_row_accounting_and_outputs(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        out = tmp_path / "curve"
        run_ok(["curve", "--config", str(cfg), "--out", str(out), "--threads", "1"])
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one row per method
        for name in ("bins.csv", "kde.csv", "heatmap.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["plan"]["master_seed"] == 9
        assert manifest["wall_clock_seconds"] > 0

    def test_rerun_is_identical(self, tmp_path, dataset_dir):
        """Three methods and three replicates: two workers cross-validate
        the replicates in parallel, and the outputs are those of one."""
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir, bootstraps=3))
        out_a, out_b = tmp_path / "ca", tmp_path / "cb"
        run_ok(["curve", "--config", str(cfg), "--out", str(out_a), "--threads", "2"])
        run_ok(["curve", "--config", str(cfg), "--out", str(out_b), "--threads", "1"])
        for name in ("curves.csv", "bins.csv", "kde.csv", "heatmap.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("sizes, message", [
        ({"labeled_sizes": [500]},
         "plan.labeled_sizes: labeled size 500 exceeds the universe size 60"),
        ({"labeled_sizes": [10, 40], "train_sizes": [20]},
         "plan.train_sizes: no train size below labeled size 10"),
        # both failed in the first replicate, as a degenerate fold of one cell
        ({"labeled_sizes": [4, 40], "train_sizes": [3, 10], "methods": ["GGFPS"]},
         "plan.labeled_sizes: labeled size 4 cannot fill 5 cross-validation folds"),
        ({"train_sizes": [3, 20]},
         "plan.train_sizes: train size 3 cannot fill 5 cross-validation folds for URS or FPS"),
        # the train size 40 was dropped: exit 0 with no row for it
        ({"labeled_sizes": [40], "train_sizes": [10, 40]},
         "plan.train_sizes: train size 40 is not below any labeled size: "
         "nothing would remain for testing"),
    ], ids=["labeled-above-dataset", "no-train-below-labeled", "labeled-below-folds",
            "urs-fps-train-below-folds", "train-equal-to-largest-labeled"])
    def test_size_that_cannot_fit_names_the_plan_field(self, tmp_path, dataset_dir, capsys,
                                                       sizes, message):
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir, **sizes))
        out = tmp_path / "o"
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, dataset_dir, monkeypatch):
        # the write of kde.csv fails after curves.csv's and bins.csv's; both
        # used to stay behind. The run created --out, so it goes too.
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        out = tmp_path / "o"
        fail_opening(monkeypatch, "kde.csv")
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_failed_write_removes_the_parents_it_created(self, tmp_path, dataset_dir,
                                                         monkeypatch):
        # the run removed --out but left the empty a/ and a/b/ it had made
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        fail_opening(monkeypatch, "kde.csv")
        out = tmp_path / "a" / "b" / "out"
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 2
        assert not (tmp_path / "a").exists()

    def test_used_out_directory_rejected_before_compute(self, tmp_path, dataset_dir,
                                                        monkeypatch, capsys):
        # a 3-D run into a 2-D run's directory left the old heatmap.csv beside
        # the new manifest
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        out = tmp_path / "o"
        run_ok(["curve", "--config", str(config), "--out", str(out)])
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --out: {out} is not empty")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_empty_out_directory_accepted(self, tmp_path, dataset_dir):
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        out = tmp_path / "o"
        out.mkdir()
        run_ok(["curve", "--config", str(config), "--out", str(out)])
        assert (out / "curves.csv").is_file()

    def test_invalid_plan_field_names_path(self, tmp_path, dataset_dir, capsys):
        cfg = curve_config(dataset_dir)
        cfg["plan"]["folds"] = 1
        config = write_config(tmp_path, "c.json", cfg)
        assert main(["curve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "plan.folds" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("labeled_sizes", 40), ("train_sizes", "10"), ("sigma_grid", 1.0),
        ("lambda_grid", "1e-6"), ("beta_grid", 0.5), ("methods", "URS"),
    ])
    def test_list_field_given_a_scalar_names_it(self, tmp_path, dataset_dir, capsys,
                                                field, value):
        cfg = curve_config(dataset_dir, **{field: value})
        config = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["curve", "--config", str(config), "--out", str(out)]) == 1
        assert f"plan.{field}: must be a list" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_plan_field_rejected(self, tmp_path, dataset_dir, capsys):
        cfg = curve_config(dataset_dir)
        cfg["plan"]["bogus"] = 1
        config = write_config(tmp_path, "c.json", cfg)
        assert main(["curve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "plan.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "curve"])
@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_out_that_is_not_a_directory_rejected_before_compute(
    tmp_path, dataset_dir, monkeypatch, capsys, command, under
):
    # both computed everything, then exited 2 with "[Errno 20] Not a directory"
    occupied = tmp_path / "occupied"
    occupied.write_text("kept\n")
    out = occupied / "o" if under else occupied
    if command == "generate":
        config = write_config(tmp_path, "c.json", generate_config())
        monkeypatch.setitem(cli.GENERATORS, "uniform", (refuse_compute, ("n", "seed"), ()))
    else:
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out: {occupied} exists and is not a directory\n"
    assert occupied.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["sample", "curve"])
def test_dataset_that_is_a_directory_rejected_before_compute(tmp_path, dataset_dir,
                                                             monkeypatch, capsys, command):
    # both exited 2 with a bare "[Errno 21] Is a directory", naming no field
    folder = tmp_path / "data.csv"
    folder.mkdir()
    if command == "sample":
        cfg = sample_config(dataset_dir, "FPS")
        monkeypatch.setattr(cli, "select", refuse_compute)
    else:
        cfg = curve_config(dataset_dir)
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
    cfg["dataset"] = str(folder)
    config = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: dataset: is a directory: {folder}\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", [0, 60], ids=["header-only", "no-x-column"])
@pytest.mark.parametrize("command, method", [("sample", "URS"), ("sample", "FPS"),
                                             ("sample", "GGFPS"), ("curve", None)])
def test_dataset_with_no_rows_or_no_x_column_rejected_before_compute(
        tmp_path, monkeypatch, capsys, rows, command, method):
    """A dataset needs a data row and an x column. With no x column, FPS
    returned its random first pick and then indices 0, 1, 2, ..., and
    ``curve`` exited 0 with a test MAE of mean |y|; a header alone made
    ``curve`` exit 1 with numpy's bare zero-size reduction message."""
    rng = np.random.default_rng(5)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["id,label,grad_norm" + (",x0,x1" if rows == 0 else "")]
                              + [f"r{i},{rng.normal():.17g},{rng.uniform(0.1, 2):.17g}"
                                 for i in range(rows)]) + "\n")
    if command == "sample":
        cfg = sample_config(tmp_path, method, n=1)
        monkeypatch.setattr(cli, "select", refuse_compute)
    else:
        cfg = curve_config(tmp_path)
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
    cfg["dataset"] = str(data)
    out = tmp_path / "o"
    assert main([command, "--config", str(write_config(tmp_path, "c.json", cfg)),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: dataset: {data}: descriptors must")
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_dataset_read_from_a_named_pipe(tmp_path, dataset_dir):
    csv = (dataset_dir / "dataset.csv").read_text()
    pipe = tmp_path / "piped.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(csv,), daemon=True)
    writer.start()  # blocks in open() until the command opens the pipe to read
    cfg = sample_config(dataset_dir, "FPS")
    cfg["dataset"] = str(pipe)
    run_ok(["sample", "--config", str(write_config(tmp_path, "c.json", cfg)),
            "--out", str(tmp_path / "piped")])
    writer.join(timeout=10)
    assert not writer.is_alive()
    config = write_config(tmp_path, "c.json", sample_config(dataset_dir, "FPS"))
    run_ok(["sample", "--config", str(config), "--out", str(tmp_path / "read")])
    assert ((tmp_path / "piped" / "selection.json").read_bytes()
            == (tmp_path / "read" / "selection.json").read_bytes())


BAD_NUMBERS = [
    ("sample", "sampler", "beta", float("nan")),
    ("generate", "generator", "temperature", float("nan")),
    ("curve", "plan", "beta_grid", [float("nan")]),
    ("curve", "plan", "sigma_grid", [float("nan")]),
    ("curve", "plan", "lambda_grid", [float("inf")]),
    ("curve", "plan", "bootstraps", 1.5),
    ("curve", "plan", "kde_points", 50.5),
    ("curve", "plan", "folds", 2.5),
    ("curve", "plan", "master_seed", 1.5),
    ("curve", "plan", "labeled_sizes", [40.7]),
]


class TestConfigNumbers:
    @pytest.mark.parametrize("command, section, field, value", BAD_NUMBERS,
                             ids=[f"{s}.{f}={v}" for _, s, f, v in BAD_NUMBERS])
    def test_non_finite_or_non_integral_rejected(self, tmp_path, dataset_dir, capsys,
                                                 command, section, field, value):
        """Non-finite numbers and fractional counts fail as config errors
        before compute: exit 1, the field named, no output directory."""
        payload = {
            "sample": lambda: sample_config(dataset_dir, "GGFPS"),
            "generate": lambda: generate_config(generator="boltzmann", generator_extra={
                "temperature": 5.0, "step": 0.5}),
            "curve": lambda: curve_config(dataset_dir),
        }[command]()
        payload[section][field] = value
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{section}.{field}" in capsys.readouterr().err
        assert not out.exists()


class TestNumericalExit:
    def test_unsolvable_fit_exits_3(self, tmp_path, capsys):
        # every descriptor identical: the Gram matrix is singular and the
        # lambda below is too small to rescue the factorization; the gradient
        # norms vary, so the dataset passes the zero-spread check
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{float(i)},{i + 1},0,0" for i in range(30)]
        data = tmp_path / "degenerate.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "c.json", {
            "schema_version": 1,
            "dataset": str(data),
            "plan": {
                "labeled_sizes": [20], "train_sizes": [10], "bootstraps": 1,
                "sigma_grid": [1.0], "lambda_grid": [1e-300], "beta_grid": [0.0],
                "folds": 5, "methods": ["FPS"], "master_seed": 1,
            },
        })
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "method=FPS" in err and "replicate=0" in err
        assert not (tmp_path / "o").exists()


    def test_cost_that_overflows_names_cv_cost(self, tmp_path, capsys, recwarn):
        # labels near 1e160: every factorization succeeds but every validation
        # RMSE overflows. This printed numpy overflow warnings and blamed the
        # factorization ("factorization failed for every candidate")
        rng = np.random.default_rng(3)
        labels = 1e160 * (1 + 1e-9 * rng.normal(size=60))
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{y:.17g},{1 + i % 7},{x:.17g},{z:.17g}"
                 for i, (y, (x, z)) in enumerate(zip(labels, rng.uniform(-4, 4, (60, 2))))]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "c.json", {
            "schema_version": 1,
            "dataset": str(data),
            "plan": {
                "labeled_sizes": [40], "train_sizes": [10], "bootstraps": 1,
                "sigma_grid": [0.5, 1.5], "lambda_grid": [1e-6], "methods": ["URS"],
                "master_seed": 1,
            },
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cv_cost: the validation RMSE is not finite" in err
        assert "factorization" not in err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_test_error_that_overflows_names_it(self, tmp_path, capsys, recwarn):
        # labels near 1e160 with cv_cost MAE: the CV costs stay finite, but
        # the test RMSE squares errors near 1e160. This exited 0 after numpy
        # warnings, with mae_var inf, rmse_mean inf and rmse_var nan in curves.csv
        rng = np.random.default_rng(3)
        labels = 1e160 * (1 + 1e-9 * rng.normal(size=60))
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{y:.17g},{1 + i % 7},{x:.17g},{z:.17g}"
                 for i, (y, (x, z)) in enumerate(zip(labels, rng.uniform(-4, 4, (60, 2))))]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "c.json", {
            "schema_version": 1,
            "dataset": str(data),
            "plan": {
                "labeled_sizes": [40], "train_sizes": [10], "bootstraps": 2,
                "sigma_grid": [1.0], "lambda_grid": [1e-4], "methods": ["URS"],
                "cv_cost": "MAE", "master_seed": 1,
            },
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "method=URS" in err and "test RMSE: overflow" in err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_ggfps_size_whose_choice_fails_is_the_failing_cell(self, tmp_path, dataset_dir,
                                                               capsys):
        # sigma 1e12 makes every kernel entry 1.0 and lambda 1e-300 then fails
        # at pivot 2: train size 1 is scored, train size 5 has no candidate
        cfg = write_config(tmp_path, "c.json", curve_config(
            dataset_dir, train_sizes=[1, 5], bootstraps=2, sigma_grid=[1e12],
            lambda_grid=[1e-300], methods=["GGFPS"]))
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "method=GGFPS, labeled_size=40, train_size=5, replicate=0:" in err
        assert not out.exists()

    def test_urs_sizes_fail_in_size_order(self, tmp_path, dataset_dir, capsys):
        # with the kernel above, train size 2's one-point folds factor and its
        # final fit fails at pivot 2; train size 10 fails in its CV ("for every
        # candidate"). Each size is cross-validated and scored before the next
        cfg = write_config(tmp_path, "c.json", curve_config(
            dataset_dir, train_sizes=[2, 10], folds=2, sigma_grid=[1e12],
            lambda_grid=[1e-300], methods=["URS"]))
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("method=URS, labeled_size=40, train_size=2, replicate=0: "
                "factorization failed at pivot 2") in err
        assert not out.exists()

    def test_walk_whose_step_overflows_names_it(self, tmp_path, capsys):
        # step * z overflowed: exit 3 with only "overflow encountered in multiply"
        cfg = generate_config(n=5, generator="boltzmann",
                              generator_extra={"temperature": 5.0, "step": 1e308})
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 3
        assert "generator.step: a proposal of step 1e+308 overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("domain, temperature, step", [
        (1e100, 5.0, 1e90),  # the walk: a proposal's x**4 overflows
        (1e60, 1e300, 1e59),  # the final labelling: a gradient norm overflows
    ], ids=["walk", "labelling"])
    def test_walk_whose_surface_overflows_names_the_domain(self, tmp_path, capsys,
                                                           domain, temperature, step):
        # exit 3 with only "overflow encountered in power" (or "in multiply")
        cfg = generate_config(n=5, generator="boltzmann",
                              generator_extra={"temperature": temperature, "step": step})
        cfg["surface"]["domain"] = [-domain, domain]
        config = write_config(tmp_path, "gen.json", cfg)
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: surface.domain: the surface overflows inside the box (")
        assert err.count("\n") == 1
        assert not out.exists()


class TestNoPartialOutput:
    def test_zero_gradient_dataset_writes_nothing(self, tmp_path, capsys):
        # all gradient norms zero: the force-norm KDE would have zero spread,
        # so the run is rejected before compute and leaves no directory
        rng = np.random.default_rng(21)
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{rng.normal():.17g},0,{x:.17g},{z:.17g}"
                 for i, (x, z) in enumerate(rng.uniform(-4, 4, size=(40, 2)))]
        data = tmp_path / "flat.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, "c.json", {
            "schema_version": 1,
            "dataset": str(data),
            "plan": {
                "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 1,
                "sigma_grid": [1.0], "lambda_grid": [1e-6], "methods": ["URS"],
                "master_seed": 1,
            },
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "zero spread" in capsys.readouterr().err
        assert not out.exists()



def kde_config(tmp_path, rows, plan):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["id,label,grad_norm,x0,x1"] + rows) + "\n")
    return write_config(tmp_path, "c.json", {
        "schema_version": 1, "dataset": str(data),
        "plan": {"sigma_grid": [1.0], "lambda_grid": [1e-6], "master_seed": 1, **plan},
    })


def random_rows(n, grad_norm, seed=21):
    rng = np.random.default_rng(seed)
    return [f"r{i},{rng.normal():.17g},{grad_norm(i):.17g},{x:.17g},{z:.17g}"
            for i, (x, z) in enumerate(rng.uniform(-4, 4, size=(n, 2)))]


def refuse_compute(*args, **kwargs):
    raise AssertionError("compute was reached")


class TestDegenerateKdePolicy:
    def test_zero_spread_dataset_rejected_before_compute(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        cfg = kde_config(tmp_path, random_rows(40, lambda i: 0.0), {
            "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 1, "methods": ["URS"],
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: force_norm: over all 40 dataset points: "
                                           "samples have zero spread\n")
        assert not out.exists()

    @pytest.mark.parametrize("quantity", ["force_norm", "label"])
    def test_kde_grid_that_overflows_rejected_before_compute(self, tmp_path, monkeypatch,
                                                             capsys, quantity):
        # two values of 1e308: the bandwidth or base.max() + 4h overflows. This
        # exited 0 with 202 nan and inf rows in kde.csv
        huge = {0: 1e308, 1: 1e308}
        rows = [f"r{i},{huge.get(i, 0.5 * i) if quantity == 'label' else 0.5 * i},"
                f"{huge.get(i, 1.0 + i) if quantity == 'force_norm' else 1.0 + i},{i},{i % 3}"
                for i in range(6)]
        plan = {"labeled_sizes": [6], "train_sizes": [3], "bootstraps": 1, "folds": 2,
                "methods": ["URS"]}
        out = tmp_path / "o"
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        assert main(["curve", "--config", str(kde_config(tmp_path, rows, plan)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {quantity}: the KDE bandwidth or grid")
        assert not out.exists()

    @pytest.mark.parametrize("column", [0, 1])
    def test_descriptor_range_past_the_float_range_rejected_before_compute(
        self, tmp_path, monkeypatch, capsys, column
    ):
        # x spanning +-1.7e308: the heatmap edges were NaN, every selected
        # point was counted in cell (0, 0), and the run exited 0
        rows = []
        for i, row in enumerate(random_rows(40, lambda i: 1.0 + i)):
            fields = row.split(",")
            if i < 2:
                fields[3 + column] = repr((-1) ** i * 1.7e308)
            rows.append(",".join(fields))
        plan = {"labeled_sizes": [30], "train_sizes": [10], "bootstraps": 1, "methods": ["URS"]}
        out = tmp_path / "o"
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        assert main(["curve", "--config", str(kde_config(tmp_path, rows, plan)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: x{column}: the heatmap grid")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("heatmap_grid", 10**7), ("kde_points", 10**12)])
    def test_export_past_physical_memory_rejected_before_compute(self, tmp_path, monkeypatch,
                                                                  capsys, field, value):
        # "heatmap_grid": 200000 ran every replicate, then died in an uncaught
        # _ArrayMemoryError traceback from np.zeros((grid, grid))
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        cfg = kde_config(tmp_path, random_rows(40, lambda i: 1.0 + i), {
            "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 1, "methods": ["URS"],
            field: value,
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: plan.{field}: {value} needs at least")
        assert "physical memory" in err
        assert not out.exists()

    def test_too_few_selected_samples_rejected_before_compute(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr(experiments, "_run_cells", refuse_compute)
        cfg = kde_config(tmp_path, random_rows(40, lambda i: 1.0 + i), {
            "labeled_sizes": [30], "train_sizes": [1], "bootstraps": 1, "methods": ["GGFPS"],
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "train_sizes" in err and "bootstraps" in err
        assert not out.exists()

    def test_zero_spread_selection_fails_after_compute(self, tmp_path, monkeypatch, capsys):
        # only r0 has a different gradient norm, and master_seed 2 leaves it
        # out of the selection: the selected force-norm series has zero spread
        calls = []

        def spy(*args):
            calls.append(args)
            return run_cells(*args)

        run_cells = experiments._run_cells
        monkeypatch.setattr(experiments, "_run_cells", spy)
        cfg = kde_config(tmp_path, random_rows(41, lambda i: 2.0 if i == 0 else 1.0), {
            "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 1, "methods": ["URS"],
            "master_seed": 2,
        })
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
        assert calls and capsys.readouterr().err == (
            "error: force_norm: method=URS, labeled_size=30, train_size=10: "
            "samples have zero spread\n")
        assert not out.exists()


# a grad_norm or label column at an edge of the float range: value of row i of 40
EDGE_COLUMNS = {
    "all-near-max": lambda i: 1.7e308 * (1 - i / 80),
    "two-at-max": lambda i: 1.7e308 if i < 2 else 1.0 + i,
    "one-at-max": lambda i: 1.7e308 if i == 0 else 1.0 + i,
    "signed-near-max": lambda i: (-1) ** i * 1.7e308 * (1 - i / 80),
    "all-subnormal": lambda i: 5e-324 * (1 + i),
    "one-subnormal": lambda i: 5e-324 if i == 0 else 1.0 + i,
}
EDGE_CASES = [(column, name) for column in ("grad_norm", "label") for name in EDGE_COLUMNS
              if not (column == "grad_norm" and name.startswith("signed"))]
EDGE_RUNS = {
    "sample-FPS": ("sample", {"sampler": {"method": "FPS", "n": 10, "seed": 3}}),
    "sample-GGFPS": ("sample", {"sampler": {"method": "GGFPS", "n": 10, "beta": 1.0,
                                            "seed": 3}}),
    "curve-URS": ("curve", {"plan": {
        "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 2, "sigma_grid": [1.0],
        "lambda_grid": [1e-6], "methods": ["URS"], "master_seed": 5}}),
    "curve-GGFPS": ("curve", {"plan": {
        "labeled_sizes": [30], "train_sizes": [10], "bootstraps": 2, "sigma_grid": [1.0],
        "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0], "methods": ["GGFPS"],
        "master_seed": 5}}),
}
NOT_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@pytest.mark.parametrize("column, values", EDGE_CASES)
@pytest.mark.parametrize("run", list(EDGE_RUNS))
def test_float_range_edges_give_finite_outputs_or_a_clean_exit(tmp_path, capsys, run, column,
                                                                values):
    """Every run exits 0 with finite outputs, or exits 1 or 3 and leaves no
    output directory; a numpy RuntimeWarning fails the test."""
    edge = EDGE_COLUMNS[values]
    rng = np.random.default_rng(31)
    rows = ["id,label,grad_norm,x0,x1"]
    for i, (x, z) in enumerate(rng.uniform(-4, 4, size=(40, 2))):
        label = edge(i) if column == "label" else rng.normal()
        grad_norm = edge(i) if column == "grad_norm" else 1.0 + rng.uniform()
        rows.append(f"r{i},{label:.17g},{grad_norm:.17g},{x:.17g},{z:.17g}")
    data = tmp_path / "edge.csv"
    data.write_text("\n".join(rows) + "\n")
    command, section = EDGE_RUNS[run]
    cfg = write_config(tmp_path, "c.json", {"schema_version": 1, "dataset": str(data),
                                            **section})
    out = tmp_path / "o"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert "dataset:" not in capsys.readouterr().err  # the CSV itself is valid
    if code == 0:
        for path in out.iterdir():
            assert not NOT_FINITE.search(path.read_text()), path.name
    else:
        assert code in (1, 3)
        assert not out.exists()


def test_gradient_norms_whose_kde_normalizer_overflows_give_finite_outputs(tmp_path):
    """Gradient norms spread evenly to 2e307 pass the export check, but the
    labeled force-norm KDE's normalizer n h sqrt(2 pi) overflows: numpy
    warned in ``kde_1d``, which under the tests' warning filter escaped
    ``main``. Found by ``test_fuzzed_dataset_gives_curves_or_a_clean_exit``."""
    rng = np.random.default_rng(3)
    rows = [f"r{i},{rng.normal()!r},{norm!r},{rng.normal()!r}"
            for i, norm in enumerate(np.linspace(0.0, 2e307, 40).tolist())]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["id,label,grad_norm,x0"] + rows) + "\n")
    cfg = write_config(tmp_path, "c.json", {"schema_version": 1, "dataset": str(data), "plan": {
        "labeled_sizes": [20], "train_sizes": [6], "bootstraps": 2, "folds": 2,
        "sigma_grid": [1.0], "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0],
        "master_seed": 1, "kde_points": 5}})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 0
    for path in out.iterdir():
        assert not NOT_FINITE.search(path.read_text()), path.name
    kde = (out / "kde.csv").read_text().splitlines()
    assert all(row.endswith(",0") for row in kde if row.startswith("labeled,force_norm,"))


def test_fit_whose_coefficients_overflow_exits_3_naming_test_predictions(tmp_path, capsys):
    """Two selected points with one descriptor and labels 1e300 and 0 make
    coefficients of about 1e300 / lambda, past the float range; with the MAE
    as CV cost, the 1-point CV fits stay finite. numpy warned in ``predict``,
    and ``curve`` exited 0 with NaN test errors in curves.csv. Found by
    ``test_fuzzed_dataset_gives_curves_or_a_clean_exit``."""
    data = tmp_path / "data.csv"
    data.write_text("id,label,grad_norm,x0\na,1e300,1,0\nb,0,2,0\nc,0,3,0\nd,0,4,0\n")
    cfg = write_config(tmp_path, "c.json", {"schema_version": 1, "dataset": str(data), "plan": {
        "labeled_sizes": [4], "train_sizes": [2], "bootstraps": 2, "folds": 2,
        "sigma_grid": [1.0], "lambda_grid": [1e-10], "methods": ["URS"], "cv_cost": "MAE",
        "master_seed": 0, "kde_points": 5}})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 3
    assert "replicate=0: test predictions: " in capsys.readouterr().err
    assert not out.exists()


class TestThreads:
    def test_retired_env_variable_is_ignored(self, tmp_path, dataset_dir, monkeypatch):
        # the package no longer reads a worker-count environment variable,
        # so a stale invalid value left in the environment must not fail a run
        monkeypatch.setenv("GGFPS_LAB_THREADS", "many")
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flag, expected", [
        (None, "cores"), (["--threads", "0"], "cores"), (["--threads", "3"], 3),
        (["--threads", "1"], 1),
    ])
    def test_auto_resolves_to_one_and_explicit_is_honored(
        self, tmp_path, dataset_dir, monkeypatch, flag, expected
    ):
        """Every valid value resolves as documented (auto = the usable
        cores) and reaches the run as its worker count."""
        if expected == "cores":
            expected = cli._usable_cores()
        assert cli._resolve_threads(None if flag is None else int(flag[1])) == expected
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda labeled, plan, out, threads: seen.append((out, threads)))
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        run_ok(["curve", "--config", str(cfg), "--out", str(tmp_path / "o")] + (flag or []))
        assert seen == [(tmp_path / "o", expected)]

    @pytest.mark.parametrize("cpu_max, expected", [
        (None, 8), ("max 100000\n", 8), ("150000 100000\n", 2), ("50000 100000\n", 1),
        ("800000 100000\n", 8), ("garbled\n", 8),
    ], ids=["no-file", "no-quota", "1.5-cpus", "half-cpu", "above-affinity", "garbled"])
    def test_usable_cores_are_the_affinity_capped_by_the_cgroup_quota(
            self, monkeypatch, cpu_max, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        real_read = Path.read_text

        def read_text(self, *args, **kwargs):
            if str(self) != "/sys/fs/cgroup/cpu.max":
                return real_read(self, *args, **kwargs)
            if cpu_max is None:
                raise FileNotFoundError(self)
            return cpu_max

        monkeypatch.setattr(Path, "read_text", read_text)
        assert cli._usable_cores() == expected

    def test_negative_value_rejected(self, tmp_path, dataset_dir, capsys):
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--threads", "-1"]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture()
def scipy_blas():
    """scipy's OpenBLAS handle, its pool set to 2 threads for the test and
    restored after."""
    lib = bundled_openblas("scipy")
    if not hasattr(lib, "scipy_openblas_set_num_threads"):
        pytest.skip("scipy bundles no OpenBLAS here")
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(2)
    yield lib
    lib.scipy_openblas_set_num_threads(before)


def failing_cells(monkeypatch, select_fails=None, fit_fails=None):
    """Make the selection of the (method, replicate) cell ``select_fails``
    raise a FloatingPointError, and the final fit of call number
    ``fit_fails`` (0-based, in the serial order of the fits) an OSError."""
    real_picks, real_fit = experiments._picks, experiments._fit_and_score
    fits = itertools.count()

    def picks(L, plan, method, ts_list, labeled_size, rep):
        if (method, rep) == select_fails:
            raise FloatingPointError("selection failed")
        yield from real_picks(L, plan, method, ts_list, labeled_size, rep)

    def fit_and_score(L, sel, choice):
        if next(fits) == fit_fails:
            raise OSError("fit failed")
        return real_fit(L, sel, choice)

    monkeypatch.setattr(experiments, "_picks", picks)
    monkeypatch.setattr(experiments, "_fit_and_score", fit_and_score)


class TestParallelReplicates:
    """``curve`` cross-validates its replicates on --threads workers, then
    makes every final fit in the main thread; a run with two workers fails,
    is interrupted and leaves scipy's pool as a serial run does."""

    # plan: one labeled size, train sizes 10 and 20, 3 methods, 3 replicates;
    # each replicate makes 6 final fits, so fit 7 is replicate 1's second and
    # fit 12 replicate 2's first
    @pytest.mark.parametrize("select_fails, fit_fails, code, cell", [
        (("FPS", 1), None, 3, "method=FPS, labeled_size=40, train_size=10, replicate=1"),
        (None, 7, 2, "method=URS, labeled_size=40, train_size=20, replicate=1"),
        (("URS", 2), 7, 2, "method=URS, labeled_size=40, train_size=20, replicate=1"),
        (("FPS", 1), 7, 2, "method=URS, labeled_size=40, train_size=20, replicate=1"),
        (("URS", 1), 12, 3, "method=URS, labeled_size=40, train_size=10, replicate=1"),
    ], ids=["selection", "final-fit", "fit-before-later-selection",
            "fit-before-same-replicate-selection", "selection-before-later-fit"])
    def test_first_failing_cell_in_serial_order_raises(self, tmp_path, dataset_dir, monkeypatch,
                                                       capsys, select_fails, fit_fails, code,
                                                       cell):
        cfg = write_config(tmp_path, "c.json", curve_config(
            dataset_dir, train_sizes=[10, 20], bootstraps=3))
        before = threading.enumerate()
        errors = []
        for threads in ("1", "2"):
            monkeypatch.undo()
            failing_cells(monkeypatch, select_fails, fit_fails)  # a fresh fit count
            assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / threads),
                         "--threads", threads]) == code
            errors.append(capsys.readouterr().err)
            assert threading.enumerate() == before
            assert not (tmp_path / threads).exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {cell}: ") and errors[0].count("\n") == 1

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs POSIX signals")
    @pytest.mark.parametrize("signum, code, message", [
        (signal.SIGINT, 130, "error: interrupted\n"),
        (signal.SIGTERM, 143, "error: terminated\n"),
    ], ids=["SIGINT", "SIGTERM"])
    def test_signal_during_cross_validation_joins_every_worker(
            self, tmp_path, dataset_dir, monkeypatch, capsys, scipy_blas, signum, code,
            message):
        """Replicate 1's selection sends the signal. The main thread raises,
        the other worker stops at its next cell, and no final fit is made."""
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir, bootstraps=4))
        real_picks = experiments._picks
        fits = []

        def picks(L, plan, method, ts_list, labeled_size, rep):
            if rep == 1 and method == "URS":
                os.kill(os.getpid(), signum)
            yield from real_picks(L, plan, method, ts_list, labeled_size, rep)

        monkeypatch.setattr(experiments, "_picks", picks)
        monkeypatch.setattr(experiments, "_fit_and_score", lambda *args: fits.append(args))
        before = threading.enumerate()
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == code
        assert capsys.readouterr().err == message
        assert threading.enumerate() == before
        assert fits == [] and not out.exists()
        assert scipy_blas.scipy_openblas_get_num_threads() == 2

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
    def test_scipy_pool_is_one_thread_in_cross_validation_and_restored(
            self, tmp_path, dataset_dir, monkeypatch, scipy_blas, fails):
        """Every cross-validation solve runs on scipy's pool at one thread,
        every final fit on the pool as it was (2 threads), and the run
        leaves it there, also when a final fit fails."""
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir, bootstraps=2))
        real_fit_prefixes, real_fit = experiments.fit_prefixes, experiments._fit_and_score
        counts = {"cv": [], "fit": []}
        phase = ["cv"]

        def fit_prefixes(*args):
            counts[phase[0]].append(scipy_blas.scipy_openblas_get_num_threads())
            return real_fit_prefixes(*args)

        def fit_and_score(*args):
            phase[0] = "fit"
            if fails and len(counts["fit"]) == 3:
                raise FactorizationError(2)
            return real_fit(*args)

        monkeypatch.setattr(experiments, "fit_prefixes", fit_prefixes)
        monkeypatch.setattr(experiments, "_fit_and_score", fit_and_score)
        argv = ["curve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"]
        assert main(argv) == (3 if fails else 0)
        assert counts["cv"] and set(counts["cv"]) == {1}
        assert counts["fit"] and set(counts["fit"]) == {2}
        assert len(counts["fit"]) == (3 if fails else 6)
        assert scipy_blas.scipy_openblas_get_num_threads() == 2


SCIPY_PROBE = """
import ctypes, json, os, sys
from pathlib import Path
import scipy
from ggfps_lab.cli import main

libs = sorted((Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas*"))

def loaded():
    names = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.spatial")))
    try:  # RTLD_NOLOAD finds the library only where the process has loaded it
        ctypes.CDLL(str(libs[0]), mode=os.RTLD_NOLOAD)
        blas = True
    except (IndexError, OSError):
        blas = False
    return {"modules": names, "scipy_openblas": blas, "bundled": bool(libs)}

generate, sample, curve, out = sys.argv[1:]
after = {}
for name, config in (("import", None), ("generate", generate), ("sample", sample),
                     ("curve", curve)):
    if config is not None:
        assert main([name, "--config", config, "--out", f"{out}/{name}"]) == 0
    after[name] = loaded()
print(json.dumps(after))
"""


def test_no_command_loads_scipy_linalg_or_spatial(tmp_path):
    """No command loads scipy.linalg or scipy.spatial in a fresh process:
    ``curve`` computes its distances in numpy and calls LAPACK through
    ctypes. scipy's OpenBLAS, which ``curve`` loads for its Cholesky
    factorizations, stays unloaded through the import, ``generate`` and
    ``sample``."""
    data = tmp_path / "generate" / "dataset.csv"
    configs = [
        write_config(tmp_path, "gen.json", generate_config(n=60, seed=11)),
        write_config(tmp_path, "s.json", sample_config(data.parent, "GGFPS", beta=1.0)),
        write_config(tmp_path, "c.json", curve_config(data.parent)),
    ]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *map(str, configs), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout)
    assert all(after[name]["modules"] == [] for name in after)
    assert not any(after[name]["scipy_openblas"]
                   for name in ("import", "generate", "sample"))
    assert after["curve"]["scipy_openblas"] == after["curve"]["bundled"]


SCIPY_IMPORT_PROBE = """
import sys
import ggfps_lab
from ggfps_lab.cli import main
after_import = "scipy" in sys.modules
assert main(["sample", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(after_import, "scipy" in sys.modules)
"""


def test_import_and_sample_do_not_import_scipy(tmp_path):
    """``import ggfps_lab`` and a ``sample`` run leave scipy unimported; only
    ``curve`` needs it, for its LAPACK and its version in the manifest."""
    data = tmp_path / "dataset.csv"
    data.write_text(uniform_domain_sample(StyblinskiTang(), 60, seed=11).to_csv("u"))
    config = write_config(tmp_path, "s.json", sample_config(tmp_path, "GGFPS", beta=1.0))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_IMPORT_PROBE, str(config), str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_dumps_17g_round_trips_floats():
    values = [0.1, 1 / 3, 1e-300, 123456.789, -2.903534]
    doc = json.loads(dumps_17g({"v": values}))
    assert doc["v"] == values


@pytest.fixture()
def numpy_blas():
    """numpy's OpenBLAS handle; its thread count is restored after the test."""
    lib = bundled_openblas("numpy")
    if not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy bundles no OpenBLAS here")
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


def outputs_by_numpy_threads(lib, monkeypatch, argv, out_root, names):
    """The bytes of ``names`` after ``main(argv + --out)`` with numpy's pool
    at 1 and at 2 threads; main's own pin is switched off for the runs."""
    monkeypatch.setattr(cli, "pin_numpy_blas", lambda: None)
    outputs = []
    for threads in (1, 2):
        lib.scipy_openblas_set_num_threads64_(threads)
        assert lib.scipy_openblas_get_num_threads64_() == threads
        out = out_root / f"threads{threads}"
        run_ok([*argv, "--out", str(out)])
        outputs.append({name: (out / name).read_bytes() for name in names})
    return outputs


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path, numpy_blas, monkeypatch):
    """The selection kernel's BLAS product only decides which distances are
    recomputed exactly, so a GGFPS selection is byte-identical with numpy's
    OpenBLAS on one and two threads. N * d = 12,000 is above the 9,216 at
    which OpenBLAS threads the product."""
    rng = np.random.default_rng(8)
    labeled = LabeledSet(descriptors=rng.uniform(-4.0, 4.0, size=(3000, 4)),
                         labels=np.zeros(3000), gradient_norms=rng.uniform(0.1, 10.0, size=3000))
    data = tmp_path / "pool.csv"
    data.write_text(labeled.to_csv("p"))
    cfg = write_config(tmp_path, "s.json", {
        "schema_version": 1, "dataset": str(data),
        "sampler": {"method": "GGFPS", "n": 150, "beta": 1.0, "seed": 5},
    })
    one, two = outputs_by_numpy_threads(numpy_blas, monkeypatch,
                                        ["sample", "--config", str(cfg)], tmp_path,
                                        ["selection.json"])
    assert one == two


def test_curve_bytes_do_not_depend_on_numpy_blas_threads(tmp_path, numpy_blas, monkeypatch):
    """numpy's products in ``curve`` (``predict``, the selection screen) give
    the same bytes with numpy's OpenBLAS on one and two threads. The final
    fits predict their test sets in blocks of test columns, and at these sizes
    each is one block: 100 x 200 and 150 x 150 kernel entries, both above the
    9,216 at which OpenBLAS threads a matrix-vector product."""
    assert [[ts * (stop - start) for start, stop in experiments._test_blocks(ts, 300 - ts)]
            for ts in (100, 150)] == [[20_000], [22_500]]
    data = tmp_path / "pool.csv"
    data.write_text(uniform_domain_sample(StyblinskiTang(dim=2), 300, 12).to_csv())
    cfg = write_config(tmp_path, "c.json", {
        "schema_version": 1, "dataset": str(data),
        "plan": {"labeled_sizes": [300], "train_sizes": [100, 150], "bootstraps": 1,
                 "sigma_grid": [1.0, 3.0], "lambda_grid": [1e-6], "beta_grid": [0.0, 1.0],
                 "master_seed": 4},
    })
    names = ["curves.csv", "bins.csv", "kde.csv", "heatmap.csv"]
    one, two = outputs_by_numpy_threads(numpy_blas, monkeypatch,
                                        ["curve", "--config", str(cfg)], tmp_path, names)
    assert one == two


def test_main_runs_numpy_blas_on_one_thread(tmp_path, dataset_dir, numpy_blas):
    numpy_blas.scipy_openblas_set_num_threads64_(2)
    cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
    run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert numpy_blas.scipy_openblas_get_num_threads64_() == 1


@pytest.mark.parametrize("missing", ["library", "setter"])
def test_main_runs_without_numpy_openblas(tmp_path, dataset_dir, monkeypatch, missing):
    bundled_openblas.cache_clear()
    if missing == "library":  # numpy installed where no numpy.libs directory is
        monkeypatch.setattr(np, "__file__", str(tmp_path / "site" / "numpy" / "__init__.py"))
    else:  # a library that exports no thread setter
        monkeypatch.setattr(krr.ctypes, "CDLL", lambda *args, **kwargs: object())
    try:
        lib = bundled_openblas("numpy")
        assert not hasattr(lib, "scipy_openblas_set_num_threads64_")
        assert (lib is None) == (missing == "library")
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "GGFPS", beta=1.0))
        run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
    finally:  # the next caller opens the real library again
        bundled_openblas.cache_clear()


def test_bundled_openblas_caches_each_handle():
    assert bundled_openblas("numpy") is bundled_openblas("numpy")
    assert bundled_openblas("scipy") is bundled_openblas("scipy")


def test_main_pins_numpy_blas_without_rtld_noload(tmp_path, dataset_dir, numpy_blas,
                                                  monkeypatch):
    """os.RTLD_NOLOAD exists only on Unix. The pin opened numpy's library
    with it, so every command died with an AttributeError where it is
    missing; the default mode finds the copy that numpy loaded."""
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    numpy_blas.scipy_openblas_set_num_threads64_(2)
    bundled_openblas.cache_clear()
    try:
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert numpy_blas.scipy_openblas_get_num_threads64_() == 1
    finally:
        bundled_openblas.cache_clear()


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs Linux /proc")
def test_main_maps_numpy_blas_no_second_time(tmp_path, dataset_dir, numpy_blas):
    """Opening numpy's OpenBLAS in the default mode maps no second copy."""
    libs = (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")
    path = str(sorted(libs)[0].resolve())

    def mappings():
        return sum(line.rstrip().endswith(path)
                   for line in Path("/proc/self/maps").read_text().splitlines())

    bundled_openblas.cache_clear()
    before = mappings()
    try:
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert before > 0 and mappings() == before
    finally:
        bundled_openblas.cache_clear()


def test_only_krr_imports_ctypes():
    """``krr`` is the one module that opens, declares or configures a
    bundled OpenBLAS."""
    importers = []
    for module in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.partition(".")[0] == "ctypes" for name in names):
                importers.append(module.name)
    assert sorted(set(importers)) == ["krr.py"]


@pytest.mark.parametrize("argv, message", [
    (["curve", "--config", "c.json"], "ggfps-lab curve: the following arguments are "
                                      "required: --out"),
    (["curve", "--config", "c.json", "--out", "o", "--threads", "abc"],
     "argument --threads: invalid int value: 'abc'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv, message):
    """argparse's usage errors exit 1, like any other invalid configuration,
    and print argparse's message; they do not raise SystemExit(2), the exit
    code of an I/O failure."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ggfps-lab") and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["curve", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert "ggfps-lab" in capsys.readouterr().out


def bump_config(generator="uniform", **bump):
    extra = ({"temperature": 5.0, "step": 0.5, "burn_in": 10, "thinning": 2}
             if generator == "boltzmann" else {})
    cfg = generate_config(kind="adversarial_toy", n=20, generator=generator,
                          generator_extra=extra)
    cfg["bump"] = bump
    return cfg


# (command, base config, path of the replaced field, value, field path in the error)
BAD_FIELDS = [
    ("generate", "bump", ("bump", "bump_center"), 5, "bump.bump_center"),
    ("generate", "bump", ("bump", "bump_center"), None, "bump.bump_center"),
    ("generate", "bump", ("bump", "bump_center"), [1, 2, 3], "bump.bump_center"),
    ("generate", "bump", ("bump", "bump_amp"), float("inf"), "bump.bump_amp"),
    ("generate", "bump", ("bump", "bump_radius"), float("nan"), "bump.bump_radius"),
    ("generate", "bump", ("bump", "bump_radius"), "x", "bump.bump_radius"),
    ("generate", "bump", ("bump", "bump_radius"), 1e200, "bump.bump_radius"),
    ("generate", "bump", ("bump", "bump_freq"), True, "bump.bump_freq"),
    # gradient norms overflowed: the corner check blamed surface.domain, and a
    # boltzmann walk exited 3 with only "overflow encountered in multiply"
    ("generate", "bump", ("bump", "bump_amp"), 1e308, "bump.bump_amp"),
    ("generate", "boltzmann-bump", ("bump", "bump_amp"), 1e308, "bump.bump_amp"),
    ("generate", "bump", ("bump", "bump_freq"), 1e308, "bump.bump_freq"),
    ("generate", "boltzmann-bump", ("bump", "bump_freq"), 1e308, "bump.bump_freq"),
    ("generate", "bump", ("bump", "bump_radius"), 1e-160, "bump.bump_radius"),
    ("generate", "boltzmann-bump", ("bump", "bump_center"), [float("nan"), 0],
     "bump.bump_center[0]"),
    ("generate", "bump", ("bump", "wrong"), 1, "bump.wrong: unknown field"),
    ("generate", "st", ("bump",), {"bump_amp": 1.0}, "bump: only valid"),
    ("generate", "st", ("surface", "kind"), "mystery", "surface.kind"),
    ("generate", "st", ("surface", "kind"), [], "surface.kind"),
    ("generate", "st", ("generator", "seed"), -1, "generator.seed"),
    ("generate", "st", ("generator", "wrong"), 1, "generator.wrong: unknown field"),
    ("generate", "st", ("generator", "temperature"), 5.0,
     "generator.temperature: unknown field"),
    ("generate", "st", ("wrong",), 1, "config.wrong: unknown field"),
    ("sample", "ggfps", ("sampler", "seed"), -1, "sampler.seed"),
    ("sample", "ggfps", ("sampler", "wrong"), 1, "sampler.wrong: unknown field"),
    ("sample", "ggfps", ("sampler", "beta"), 1e308, "sampler.beta"),
    ("sample", "ggfps", ("dataset",), 5, "dataset"),
    ("curve", "plan", ("plan", "beta_grid"), [1e308], "plan.beta_grid"),
    # 2 sigma^2 infinite fitted every output on an all-ones kernel and exited
    # 0; 2 sigma^2 = 0 printed warnings and exited 3 after compute
    ("curve", "plan", ("plan", "sigma_grid"), [0.5, 1e200], "plan.sigma_grid"),
    ("curve", "plan", ("plan", "sigma_grid"), [1e-200], "plan.sigma_grid"),
]


def base_config(name, dataset_dir):
    return {
        "st": lambda: generate_config(n=20),
        "bump": lambda: bump_config(),
        "boltzmann-bump": lambda: bump_config("boltzmann"),
        "ggfps": lambda: sample_config(dataset_dir, "GGFPS", beta=1.0),
        "plan": lambda: curve_config(dataset_dir),
    }[name]()


def replace(cfg, path, value):
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return cfg


class TestFieldPaths:
    @pytest.mark.parametrize("command, base, path, value, expected", BAD_FIELDS,
                             ids=[f"{'.'.join(p)}={v!r}" for _, _, p, v, _ in BAD_FIELDS])
    def test_bad_field_exits_1_naming_it(self, tmp_path, dataset_dir, capsys,
                                         command, base, path, value, expected):
        """Each field is checked by the library type that takes it; the CLI
        names its path. These configs used to end in tracebacks, name the
        wrong field, warn, or exit 0."""
        cfg = replace(base_config(base, dataset_dir), path, value)
        config = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_beta_at_its_bound_selects_without_warning(self, tmp_path, dataset_dir):
        cfg = write_config(tmp_path, "s.json",
                           sample_config(dataset_dir, "GGFPS", n=20, beta=BETA_MAX))
        out = tmp_path / "o"
        run_ok(["sample", "--config", str(cfg), "--out", str(out)])
        indices = json.loads((out / "selection.json").read_text())["indices"]
        assert len(set(indices)) == 20


class TestDatasetFile:
    @pytest.mark.parametrize("name, text, expected", [
        ("list.json", "[1, 2]", "CSV header must start with id,label,grad_norm"),
        ("partial.json", json.dumps({"labels": [1.0], "gradient_norms": [1.0], "ids": ["a"]}),
         "CSV header must start with id,label,grad_norm"),
        ("bad.csv", "id,label,grad_norm,x0\na,1,1,oops\n", "could not convert"),
    ])
    def test_malformed_dataset_exits_1_naming_it(self, tmp_path, capsys, name, text,
                                                 expected):
        # a JSON dataset, a format no longer read, fails the CSV header check
        (tmp_path / name).write_text(text)
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": name,
            "sampler": {"method": "URS", "n": 1, "seed": 1},
        })
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "dataset" in err and expected in err
        assert not out.exists()

    def test_undecodable_byte_exits_1_naming_it(self, tmp_path, capsys):
        # the CSV is decoded while it is streamed, after its first rows parsed
        (tmp_path / "bad.csv").write_bytes(b"id,label,grad_norm,x0\na,1,1,1\nb,1,1,\xff\n")
        cfg = write_config(tmp_path, "s.json", {
            "schema_version": 1, "dataset": "bad.csv",
            "sampler": {"method": "URS", "n": 1, "seed": 1},
        })
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset: ") and "can't decode byte 0xff" in err
        assert not out.exists()


    def test_utf8_byte_order_mark_selects_as_without_it(self, tmp_path, dataset_dir):
        # a spreadsheet's "CSV UTF-8" export starts the file with U+FEFF
        plain = (dataset_dir / "dataset.csv").read_bytes()
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + plain)
        outs = []
        for path in (dataset_dir / "dataset.csv", tmp_path / "bom.csv"):
            cfg = sample_config(dataset_dir, "GGFPS", beta=0.8)
            cfg["dataset"] = str(path)
            out = tmp_path / f"out-{path.stem}"
            run_ok(["sample", "--config", str(write_config(tmp_path, f"{path.stem}.json", cfg)),
                    "--out", str(out)])
            outs.append((out / "selection.json").read_bytes())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_utf8_byte_order_mark_selects_as_without_it(self, tmp_path, dataset_dir):
        # exited 1 with "config: not valid JSON: Unexpected UTF-8 BOM"
        plain = write_config(tmp_path, "plain.json", sample_config(dataset_dir, "GGFPS", beta=0.8))
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for config in (plain, bom):
            out = tmp_path / f"out-{config.stem}"
            run_ok(["sample", "--config", str(config), "--out", str(out)])
            outs.append((out / "selection.json").read_bytes())
        assert outs[0] == outs[1]

    def test_directory_exits_1_naming_config(self, tmp_path, capsys):
        # exited 2 with a bare "[Errno 21] Is a directory: 'cfgdir'"
        folder = tmp_path / "cfgdir"
        folder.mkdir()
        out = tmp_path / "o"
        assert main(["generate", "--config", str(folder), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config: is a directory: {folder}\n"
        assert not out.exists()

    def test_undecodable_byte_exits_1_naming_config(self, tmp_path, capsys):
        # exited 1 with the codec's message alone, naming no field
        config = tmp_path / "c.json"
        config.write_bytes(json.dumps(generate_config(n=5)).encode()[:-1] + b', "x": "\xff"}')
        out = tmp_path / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: not valid JSON: ")
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
    def test_schema_version_must_be_the_integer_1(self, tmp_path, capsys, version):
        # true and 1.0 compared equal to 1 and were accepted
        cfg = generate_config(n=5)
        cfg["schema_version"] = version
        out = tmp_path / "o"
        assert main(["generate", "--config", str(write_config(tmp_path, "c.json", cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: schema_version: must be the integer 1\n"
        assert not out.exists()


EXIT_CODES = [
    (ValueError("v"), 1), (cli.ConfigError("c"), 1), (CapacityError("c"), 1),
    (DegenerateDistributionError("d"), 1),
    (OSError("o"), 2), (PermissionError("p"), 2),
    (FactorizationError(0), 3), (GenerationError("g"), 3), (FloatingPointError("f"), 3),
    (ZeroDivisionError("z"), 3), (OverflowError("o"), 3), (MemoryError("m"), 1),
]


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", EXIT_CODES,
                             ids=[type(e).__name__ for e, _ in EXIT_CODES])
    def test_same_code_direct_and_as_replicate_cause(self, tmp_path, dataset_dir,
                                                      monkeypatch, exc, code):
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        argv = ["curve", "--config", str(config), "--out", str(tmp_path / "o")]
        for raised in (exc, ReplicateError("URS", 40, 10, 0, exc)):
            def fail(labeled, plan, out, threads, raised=raised):
                raise raised
            monkeypatch.setattr(cli, "run_experiment", fail)
            assert main(argv) == code

    def test_unexpected_exception_is_raised_both_ways(self, tmp_path, dataset_dir,
                                                      monkeypatch):
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        argv = ["curve", "--config", str(config), "--out", str(tmp_path / "o")]
        for raised in (TypeError("bug"), ReplicateError("URS", 40, 10, 0, TypeError("bug"))):
            def fail(labeled, plan, out, threads, raised=raised):
                raise raised
            monkeypatch.setattr(cli, "run_experiment", fail)
            with pytest.raises(type(raised)):
                main(argv)

    def test_interrupt_in_export_exits_130_and_publishes_nothing(self, tmp_path, dataset_dir,
                                                                 monkeypatch, capsys):
        # the KeyboardInterrupt escaped main with a traceback and no exit code
        def interrupt(groups, universe, plan):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "_kde_csv", interrupt)
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        before = sorted(p.name for p in tmp_path.iterdir())
        out = tmp_path / "a" / "o"
        try:
            code = main(["curve", "--config", str(config), "--out", str(out)])
        except KeyboardInterrupt:  # would end the test session
            pytest.fail("KeyboardInterrupt escaped main")
        assert code == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("generator", ["uniform", "boltzmann"])
    def test_refused_allocation_exits_1(self, tmp_path, capsys, generator):
        # numpy's _ArrayMemoryError ended the run in a traceback. 10**14 points
        # of 2 doubles exceed the 128 TiB x86-64 user address space under any
        # overcommit setting.
        extra = {"temperature": 5.0, "step": 0.5} if generator == "boltzmann" else {}
        config = write_config(tmp_path, "gen.json", generate_config(
            n=10**14, generator=generator, generator_extra=extra))
        out = tmp_path / "a" / "o"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen.json"]

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX signals")
    def test_sigterm_in_export_exits_143_and_publishes_nothing(self, tmp_path, dataset_dir):
        # the process died of the signal (return code -15) and left the hidden
        # .a.* staging directory beside --out's highest missing parent
        config = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        before = sorted(p.name for p in tmp_path.iterdir())
        out = tmp_path / "a" / "o"
        src = Path(cli.__file__).resolve().parents[1]
        with subprocess.Popen(
            [sys.executable, "-c", SIGTERM_PROBE, "curve", "--config", str(config),
             "--out", str(out)],
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ) as proc:
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (143, "error: terminated\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        with pytest.raises(ProcessLookupError):  # its session holds no process
            os.killpg(proc.pid, 0)

    def test_main_restores_the_sigterm_handler_and_runs_off_the_main_thread(
            self, tmp_path, dataset_dir):
        """Tests and the benchmark worker call ``main`` in process: it hands
        back the caller's handler, and sets none where it cannot (a thread
        other than the main one)."""
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGTERM, previous)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(
            main(["sample", "--config", str(cfg), "--out", str(tmp_path / "t")])))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and codes == [0]


SIGTERM_PROBE = """
import os, signal, sys
from ggfps_lab import experiments
from ggfps_lab.cli import main

def kde_csv(groups, universe, plan):  # curves.csv and bins.csv are written by now
    os.kill(os.getpid(), signal.SIGTERM)
    return ""

experiments._kde_csv = kde_csv
sys.exit(main(sys.argv[1:]))
"""


FUZZ_VALUES = [None, True, "x", [], {}, -1, 0, 2.5, float("nan"), float("inf"),
               float("-inf"), 1e308, [1, 2, 3]]


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    (root / "dataset.csv").write_text(
        LabeledSet(descriptors=rng.uniform(-4.0, 4.0, size=(40, 2)), labels=rng.normal(size=40),
                   gradient_norms=rng.uniform(0.1, 5.0, size=40)).to_csv("p"))
    return root


FUZZ_BASES = [
    ("generate", generate_config(n=20)),
    ("generate", bump_config("boltzmann", bump_center=[2.0, 2.0], bump_radius=0.7,
                             bump_amp=50.0, bump_freq=6.0)),
    ("sample", sample_config(Path("."), "GGFPS", n=5, beta=1.0, beta_mode="swept",
                             init_mode="gradient_weighted")),
    ("curve", curve_config(Path("."), labeled_sizes=[30], folds=3, cv_cost="RMSE",
                           methods=["URS", "GGFPS"], heatmap_grid=5, kde_points=11)),
]


@st.composite
def fuzzed_configs(draw):
    """One valid config with one field, or one section, replaced by a value
    from FUZZ_VALUES, or with an unknown key added at the top level or in a
    section."""
    command, base = draw(st.sampled_from(FUZZ_BASES))
    cfg = copy.deepcopy(base)
    sections = [key for key, value in cfg.items() if isinstance(value, dict)]
    paths = [(key,) for key in [*cfg, "unknown"]]
    paths += [(key, field) for key in sections for field in [*cfg[key], "unknown"]]
    return command, replace(cfg, draw(st.sampled_from(paths)),
                            draw(st.sampled_from(FUZZ_VALUES)))


_fuzz_runs = itertools.count()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=fuzzed_configs())
def test_fuzzed_config_exits_with_a_code_and_writes_nothing_on_failure(fuzz_root, case):
    """A config with one bad field never raises out of ``main``: it exits 0,
    1, 2 or 3, and a non-zero exit leaves no output directory."""
    command, cfg = case
    config = fuzz_root / "c.json"
    config.write_text(json.dumps(cfg))
    out = fuzz_root / f"out{next(_fuzz_runs)}"
    code = main([command, "--config", str(config), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code:
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)


# column magnitudes of a fuzzed dataset: zero, subnormals, the edges of the
# range where a square underflows or overflows, and the largest doubles
FUZZ_MAGNITUDES = [0.0, 5e-324, 1e-310, 1e-150, 1.0, 1e150, 1e300, 1.7e308]


@st.composite
def fuzzed_samples(draw):
    """Rows of a dataset of 2-30 points and 1-3 descriptor columns, each
    column of one magnitude from FUZZ_MAGNITUDES (labels and descriptors
    signed), with duplicated rows and maybe a constant column; and a
    ``sampler`` section for it."""
    n_rows, dim = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    columns = []
    for c in range(dim + 2):  # label, grad_norm, x0, ...
        scale = draw(st.sampled_from(FUZZ_MAGNITUDES))
        factors = st.floats(0.0 if c == 1 else -1.0, 1.0)
        columns.append([scale * f for f in draw(st.lists(factors, min_size=n_rows,
                                                         max_size=n_rows))])
    values = np.array(columns).T
    rows = st.integers(0, n_rows - 1)
    for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=n_rows // 2)):
        values[dst] = values[src]
    constant = draw(st.sampled_from([None, *range(dim + 2)]))
    if constant is not None:
        values[:, constant] = values[0, constant]
    method = draw(st.sampled_from(["URS", "FPS", "GGFPS"]))
    sampler = {"method": method, "n": draw(st.integers(1, 30)),
               "seed": draw(st.integers(0, 1000))}
    if method == "GGFPS":
        sampler.update(beta=draw(st.sampled_from([0.0, 0.5, 2.0, BETA_MAX])),
                       beta_mode=draw(st.sampled_from(BETA_MODES)),
                       init_mode=draw(st.sampled_from(INIT_MODES)))
    return values, sampler


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=fuzzed_samples())
def test_fuzzed_dataset_gives_a_selection_or_a_clean_exit(fuzz_root, case):
    """``sample`` on any dataset of these magnitudes exits 0 with n distinct
    in-range indices, or exits 1, 2 or 3 and leaves no output directory; no
    exception and no numpy RuntimeWarning escapes ``main``."""
    values, sampler = case
    header = ",".join(["id", "label", "grad_norm"] + [f"x{j}" for j in range(values.shape[1] - 2)])
    data = fuzz_root / "fuzzed.csv"
    data.write_text("\n".join([header] + [f"r{i}," + ",".join(map(repr, map(float, row)))
                                          for i, row in enumerate(values)]) + "\n")
    config = fuzz_root / "s.json"
    config.write_text(json.dumps({"schema_version": 1, "dataset": str(data),
                                  "sampler": sampler}))
    out = fuzz_root / f"out{next(_fuzz_runs)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["sample", "--config", str(config), "--out", str(out)])
    if code == 0:
        indices = json.loads((out / "selection.json").read_text())["indices"]
        assert len(set(indices)) == len(indices) == sampler["n"]
        assert all(0 <= i < len(values) for i in indices)
    else:
        assert code in (1, 2, 3)
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)


@st.composite
def fuzzed_curves(draw):
    """Rows of a dataset of 6-40 points and 0-3 descriptor columns, each
    column of one magnitude from FUZZ_MAGNITUDES or, one time in four, of
    one per value (labels and descriptors signed), with duplicated rows and maybe a constant
    column; and a tiny ``plan`` for it: 2 folds, 1-2 sigmas, 1 lambda, 2
    betas, 2 bootstraps. d = 0 is rejected as it is loaded."""
    n_rows, dim = draw(st.integers(6, 40)), draw(st.integers(0, 3))
    magnitude = st.sampled_from(FUZZ_MAGNITUDES)
    columns = []
    for c in range(dim + 2):  # label, grad_norm, x0, ...
        scales = magnitude if draw(st.integers(0, 3)) == 0 else st.just(draw(magnitude))
        factors = st.floats(0.0 if c == 1 else -1.0, 1.0)
        columns.append([scale * f for scale, f in draw(st.lists(
            st.tuples(scales, factors), min_size=n_rows, max_size=n_rows))])
    values = np.array(columns).T
    rows = st.integers(0, n_rows - 1)
    for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=n_rows // 2)):
        values[dst] = values[src]
    constant = draw(st.sampled_from([None, *range(dim + 2)]))
    if constant is not None:
        values[:, constant] = values[0, constant]
    labeled = draw(st.integers(4, n_rows))
    widths = st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150])
    plan = {
        "labeled_sizes": [labeled], "train_sizes": [draw(st.integers(2, labeled - 1))],
        "bootstraps": 2, "folds": 2,
        "sigma_grid": draw(st.lists(widths, min_size=1, max_size=2, unique=True)),
        "lambda_grid": [draw(st.sampled_from([1e-10, 1e-4, 1.0]))],
        "beta_grid": draw(st.lists(st.sampled_from([0.0, 0.5, 2.0, BETA_MAX]),
                                   min_size=2, max_size=2, unique=True)),
        "cv_cost": draw(st.sampled_from(["RMSE", "MAE"])),
        "master_seed": draw(st.integers(0, 1000)), "heatmap_grid": 3, "kde_points": 5,
    }
    return values, plan


def assert_finite_numbers(value, where):
    """Every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            assert_finite_numbers(item, where)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        assert np.isfinite(value), where


def no_constants(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=fuzzed_curves())
def test_fuzzed_dataset_gives_curves_or_a_clean_exit(fuzz_root, case):
    """``curve`` on any dataset of these magnitudes exits 0 with outputs
    that parse and hold only finite numbers, or exits 1, 2 or 3 and leaves
    no output directory; no exception and no numpy RuntimeWarning escapes
    ``main``."""
    values, plan = case
    header = ",".join(["id", "label", "grad_norm"] + [f"x{j}" for j in range(values.shape[1] - 2)])
    data = fuzz_root / "fuzzed.csv"
    data.write_text("\n".join([header] + [f"r{i}," + ",".join(map(repr, map(float, row)))
                                          for i, row in enumerate(values)]) + "\n")
    config = fuzz_root / "c.json"
    config.write_text(json.dumps({"schema_version": 1, "dataset": str(data), "plan": plan}))
    out = fuzz_root / f"out{next(_fuzz_runs)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["curve", "--config", str(config), "--out", str(out)])
    if code == 0:
        assert_finite_numbers(json.loads((out / "manifest.json").read_text(),
                                         parse_constant=no_constants), "manifest.json")
        for path in out.glob("*.csv"):
            table = list(csv.reader(path.read_text().splitlines()))
            assert len(table) > 1 and all(len(row) == len(table[0]) for row in table)
            for cell in itertools.chain.from_iterable(table[1:]):
                if cell.startswith("["):
                    assert_finite_numbers(json.loads(cell, parse_constant=no_constants),
                                          path.name)
                else:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(number), (path.name, cell)
    else:
        assert code in (1, 2, 3)
        assert not out.exists()
    shutil.rmtree(out, ignore_errors=True)

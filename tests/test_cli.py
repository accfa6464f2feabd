import json

import numpy as np
import pytest

from ggfps_lab import cli
from ggfps_lab.cli import main
from ggfps_lab.dataset import LabeledSet, dumps_17g, synth_boltzmann_set
from ggfps_lab.surfaces import StyblinskiTang


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


class TestGenerate:
    def test_deterministic_outputs(self, tmp_path):
        config = write_config(tmp_path, "gen.json", generate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_ok(["generate", "--config", str(config), "--out", str(out_a)])
        run_ok(["generate", "--config", str(config), "--out", str(out_b)])
        for name in ("dataset.csv", "dataset.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        rows = (out_a / "dataset.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 100

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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        config = write_config(tmp_path, "gen.json", generate_config(n=5))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["generate", "--config", str(config),
                     "--out", str(blocker / "sub")]) == 2


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
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        out_a, out_b = tmp_path / "ca", tmp_path / "cb"
        run_ok(["curve", "--config", str(cfg), "--out", str(out_a), "--threads", "2"])
        run_ok(["curve", "--config", str(cfg), "--out", str(out_b), "--threads", "1"])
        for name in ("curves.csv", "bins.csv", "kde.csv", "heatmap.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_plan_field_names_path(self, tmp_path, dataset_dir, capsys):
        cfg = curve_config(dataset_dir)
        cfg["plan"]["folds"] = 1
        config = write_config(tmp_path, "c.json", cfg)
        assert main(["curve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "plan.folds" in capsys.readouterr().err

    def test_unknown_plan_field_rejected(self, tmp_path, dataset_dir, capsys):
        cfg = curve_config(dataset_dir)
        cfg["plan"]["bogus"] = 1
        config = write_config(tmp_path, "c.json", cfg)
        assert main(["curve", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "plan.bogus" in capsys.readouterr().err


class TestNumericalExit:
    def test_unsolvable_fit_exits_3(self, tmp_path, capsys):
        # every descriptor identical: the Gram matrix is singular and the
        # lambda below is too small to rescue the factorization
        rows = ["id,label,grad_norm,x0,x1"]
        rows += [f"r{i},{float(i)},1,0,0" for i in range(30)]
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


class TestThreads:
    def test_env_fallback_invalid(self, tmp_path, dataset_dir, monkeypatch, capsys):
        monkeypatch.setenv("GGFPS_LAB_THREADS", "many")
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "GGFPS_LAB_THREADS" in capsys.readouterr().err

    def test_env_fallback_used(self, tmp_path, dataset_dir, monkeypatch):
        monkeypatch.setenv("GGFPS_LAB_THREADS", "1")
        cfg = write_config(tmp_path, "s.json", sample_config(dataset_dir, "URS"))
        run_ok(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("flag, env, expected", [
        (None, None, 1), (["--threads", "0"], None, 1), (None, "0", 1),
        (["--threads", "3"], None, 3), (None, "2", 2), (["--threads", "1"], "4", 1),
    ])
    def test_auto_resolves_to_one_and_explicit_is_honored(
        self, tmp_path, dataset_dir, monkeypatch, flag, env, expected
    ):
        if env is None:
            monkeypatch.delenv("GGFPS_LAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("GGFPS_LAB_THREADS", env)
        seen = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda labeled, plan, out, threads: seen.append(threads))
        cfg = write_config(tmp_path, "c.json", curve_config(dataset_dir))
        run_ok(["curve", "--config", str(cfg), "--out", str(tmp_path / "o")] + (flag or []))
        assert seen == [expected]


def test_dumps_17g_round_trips_floats():
    values = [0.1, 1 / 3, 1e-300, 123456.789, -2.903534]
    doc = json.loads(dumps_17g({"v": values}))
    assert doc["v"] == values

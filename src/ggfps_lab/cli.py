"""Command-line entry point.

Three subcommands wire JSON run configurations to the library:

  generate  synthesize a labeled dataset from a benchmark surface
  sample    run one sampler over a dataset file and emit the selection
  curve     run the full learning-curve experiment and emit CSV outputs

Exit codes: 0 success, 1 config/validation, 2 I/O, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .dataset import (
    GenerationError,
    LabeledSet,
    XyzParseError,
    dumps_17g,
    synth_boltzmann_set,
)
from .experiments import ExperimentPlan, ReplicateError, run_experiment
from .krr import FactorizationError
from .sampling import (
    BETA_MODES,
    INIT_MODES,
    METHODS,
    CapacityError,
    SamplerConfig,
    select,
)
from .surfaces import SurfaceSpec, surface_from_spec, uniform_domain_sample

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

GENERATOR_KINDS = ("uniform", "boltzmann")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field path."""


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return cfg[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number")
    return float(value)


def _as_choice(value, path: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}")
    return value


def load_config(path: Path) -> dict:
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    version = cfg.get("schema_version")
    if version != 1:
        raise ConfigError("schema_version: must be 1")
    return cfg


def _surface_from_config(cfg: dict):
    surface_cfg = _require(cfg, "surface", "config")
    if not isinstance(surface_cfg, dict):
        raise ConfigError("surface: must be an object")
    kind = _as_choice(_require(surface_cfg, "kind", "surface"), "surface.kind",
                      ("styblinski_tang", "adversarial_toy"))
    dim = _as_int(surface_cfg.get("dim", 2), "surface.dim", minimum=1)
    domain = surface_cfg.get("domain", [-4.0, 4.0])
    if (not isinstance(domain, (list, tuple)) or len(domain) != 2
            or not all(isinstance(v, (int, float)) for v in domain)
            or not domain[0] < domain[1]):
        raise ConfigError("surface.domain: must be [lower, upper] with lower < upper")
    if kind == "adversarial_toy" and dim != 2:
        raise ConfigError("surface.dim: adversarial_toy requires dim=2")
    spec = SurfaceSpec(kind=kind, dim=dim, domain=(float(domain[0]), float(domain[1])))
    bump = cfg.get("bump")
    if bump is not None:
        if kind != "adversarial_toy":
            raise ConfigError("bump: only valid for surface.kind=adversarial_toy")
        if not isinstance(bump, dict):
            raise ConfigError("bump: must be an object")
    try:
        return surface_from_spec(spec, bump)
    except ValueError as exc:
        raise ConfigError(f"bump: {exc}") from None


def _resolve(path_str: str, config_path: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else config_path.parent / p


def cmd_generate(cfg: dict, config_path: Path, out_dir: Path) -> None:
    surface = _surface_from_config(cfg)
    gen = _require(cfg, "generator", "config")
    if not isinstance(gen, dict):
        raise ConfigError("generator: must be an object")
    kind = _as_choice(_require(gen, "kind", "generator"), "generator.kind", GENERATOR_KINDS)
    n = _as_int(_require(gen, "n", "generator"), "generator.n", minimum=1)
    seed = _as_int(_require(gen, "seed", "generator"), "generator.seed")
    if kind == "uniform":
        labeled = uniform_domain_sample(surface, n, seed)
    else:
        temperature = _as_number(_require(gen, "temperature", "generator"), "generator.temperature")
        step = _as_number(_require(gen, "step", "generator"), "generator.step")
        if temperature <= 0:
            raise ConfigError("generator.temperature: must be positive")
        if step <= 0:
            raise ConfigError("generator.step: must be positive")
        labeled = synth_boltzmann_set(
            surface, temperature, n, seed, step,
            burn_in=_as_int(gen.get("burn_in", 1000), "generator.burn_in", minimum=0),
            thinning=_as_int(gen.get("thinning", 10), "generator.thinning", minimum=1),
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "dataset.csv").write_text(labeled.to_csv())
    (out_dir / "dataset.json").write_text(labeled.to_json(indent=2))
    manifest = {
        "schema_version": 1,
        "tool": {"name": "ggfps-lab", "version": __version__},
        "command": "generate",
        "config": cfg,
        "rows": len(labeled),
    }
    (out_dir / "manifest.json").write_text(dumps_17g(manifest, indent=2) + "\n")


def _load_dataset(cfg: dict, config_path: Path) -> LabeledSet:
    dataset_path = _resolve(_require(cfg, "dataset", "config"), config_path)
    if not dataset_path.exists():
        raise ConfigError(f"dataset: file not found: {dataset_path}")
    text = dataset_path.read_text()
    if dataset_path.suffix == ".json":
        return LabeledSet.from_json(text)
    return LabeledSet.from_csv(text)


def cmd_sample(cfg: dict, config_path: Path, out_dir: Path) -> None:
    labeled = _load_dataset(cfg, config_path)
    sampler = _require(cfg, "sampler", "config")
    if not isinstance(sampler, dict):
        raise ConfigError("sampler: must be an object")
    method = _as_choice(_require(sampler, "method", "sampler"), "sampler.method", METHODS)
    config = SamplerConfig(
        method=method,
        n=_as_int(_require(sampler, "n", "sampler"), "sampler.n", minimum=1),
        beta=_as_number(sampler.get("beta", 0.0), "sampler.beta"),
        beta_mode=_as_choice(sampler.get("beta_mode", "swept"), "sampler.beta_mode", BETA_MODES),
        init_mode=(
            _as_choice(sampler["init_mode"], "sampler.init_mode", INIT_MODES)
            if "init_mode" in sampler else None
        ),
        seed=_as_int(_require(sampler, "seed", "sampler"), "sampler.seed"),
    )
    result = select(labeled, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "selection.json").write_text(result.to_json(indent=2))


def cmd_curve(cfg: dict, config_path: Path, out_dir: Path, threads: int) -> None:
    labeled = _load_dataset(cfg, config_path)
    plan_cfg = _require(cfg, "plan", "config")
    if not isinstance(plan_cfg, dict):
        raise ConfigError("plan: must be an object")
    known = {
        "labeled_sizes", "train_sizes", "bootstraps", "sigma_grid", "lambda_grid",
        "beta_grid", "folds", "cv_cost", "methods", "master_seed",
        "heatmap_grid", "kde_points",
    }
    unknown = set(plan_cfg) - known
    if unknown:
        raise ConfigError(f"plan.{sorted(unknown)[0]}: unknown field")
    kwargs = dict(plan_cfg)
    for req in ("labeled_sizes", "train_sizes", "master_seed"):
        _require(plan_cfg, req, "plan")
    try:
        plan = ExperimentPlan(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plan.{exc}") from None
    run_experiment(labeled, plan, out_dir, threads=threads)


def _resolve_threads(flag_value: int | None) -> int:
    """Replicate workers from --threads, else GGFPS_LAB_THREADS; 0 or unset
    means auto, which is 1: replicate threads contend for the GIL and ran
    slower than one worker in every measured curve workload."""
    if flag_value is None:
        env = os.environ.get("GGFPS_LAB_THREADS")
        if env is not None:
            try:
                flag_value = int(env)
            except ValueError:
                raise ConfigError("GGFPS_LAB_THREADS: must be an integer") from None
        else:
            flag_value = 0
    if flag_value < 0:
        raise ConfigError("--threads: must be >= 0")
    return flag_value if flag_value > 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggfps-lab",
        description="Training-set selection and kernel-ridge benchmark runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "synthesize a labeled dataset from a benchmark surface"),
        ("sample", "select training indices from a dataset file"),
        ("curve", "run learning-curve experiments and write CSV outputs"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="JSON run configuration")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap (0 = auto = 1; env GGFPS_LAB_THREADS as fallback)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        threads = _resolve_threads(args.threads)
        if args.command == "generate":
            cmd_generate(cfg, args.config, args.out)
        elif args.command == "sample":
            cmd_sample(cfg, args.config, args.out)
        else:
            cmd_curve(cfg, args.config, args.out, threads)
    except ReplicateError as exc:
        code = _classify(exc.cause)
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (ConfigError, CapacityError, XyzParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FactorizationError, GenerationError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _classify(exc: BaseException) -> int:
    if isinstance(exc, (FactorizationError, GenerationError, FloatingPointError)):
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_NUMERICAL if isinstance(exc, ArithmeticError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

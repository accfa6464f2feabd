"""Command-line entry point.

Three subcommands wire JSON run configurations to the library:

  generate  synthesize a labeled dataset from a benchmark surface
  sample    run one sampler over a dataset file and emit the selection
  curve     run the full learning-curve experiment and emit CSV outputs

Each config field is checked once, by the library type or function that
takes it; this module only walks the config's objects, rejects missing and
unknown fields, and puts the section's path in front of a library error.

Exit codes: 0 success, 1 config/validation, 2 I/O, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .dataset import (GenerationError, LabeledSet, dumps_17g, synth_boltzmann_set,
                      write_outputs)
from .experiments import ExperimentPlan, ReplicateError, run_experiment
from .krr import FactorizationError, bundled_openblas
from .sampling import CapacityError, SamplerConfig, select
from .surfaces import AdversarialToy, StyblinskiTang, uniform_domain_sample

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

SURFACES = {"styblinski_tang": StyblinskiTang, "adversarial_toy": AdversarialToy}
# generator kind -> (function, required fields, optional fields, dataset.csv id prefix)
GENERATORS = {
    "uniform": (uniform_domain_sample, ("n", "seed"), (), "u"),
    "boltzmann": (synth_boltzmann_set, ("n", "seed", "temperature", "step"),
                  ("burn_in", "thinning"), "b"),
}
BUMP_FIELDS = tuple(f.name for f in dataclasses.fields(AdversarialToy)
                    if f.name.startswith("bump_"))
SAMPLER_FIELDS = tuple(f.name for f in dataclasses.fields(SamplerConfig))
PLAN_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentPlan))


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field path."""


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return cfg[key]


def _section(value, path: str, required=(), optional=None) -> dict:
    """``value``, checked to be a config object that holds every ``required``
    field and, unless ``optional`` is None, no field outside ``required`` and
    ``optional``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object")
    for key in required:
        _require(value, key, path)
    unknown = [] if optional is None else sorted(set(value) - {*required, *optional})
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")
    return value


def _kind(table: dict, section: dict, path: str):
    """The ``table`` entry that the section's ``kind`` names, and the
    section's other fields."""
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}.kind: must be one of {list(table)}")
    return table[kind], {k: v for k, v in section.items() if k != "kind"}


def _build(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, whose errors name the argument at fault first
    ("n: must be >= 1"), with a TypeError or ValueError turned into a
    ConfigError on that field of section ``path``. A message that names the
    ``surface`` argument's box (``surface.domain``) is already a config path.
    An overflow that names one of the keyword arguments ("step: ...") gets
    the section's path and stays a FloatingPointError."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        message = str(exc)
        if not message.startswith("surface."):
            message = f"{path}.{message}"
        raise ConfigError(message) from None
    except FloatingPointError as exc:
        if str(exc).partition(":")[0] not in kwargs:
            raise
        raise FloatingPointError(f"{path}.{exc}") from None


def load_config(path: Path) -> dict:
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))  # JSON text is UTF-8 (RFC 8259)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config: is a directory: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    version = cfg.get("schema_version")
    if type(version) is not int or version != 1:  # not true, nor 1.0
        raise ConfigError("schema_version: must be the integer 1")
    return cfg


def _surface(cfg: dict):
    spec = _section(cfg["surface"], "surface", ("kind",), ("dim", "domain"))
    surface_type, fields = _kind(SURFACES, spec, "surface")
    surface = _build("surface", surface_type, **fields)
    bump = cfg.get("bump")
    if bump is not None:
        if surface_type is not AdversarialToy:
            raise ConfigError("bump: only valid for surface.kind=adversarial_toy")
        surface = _build("bump", dataclasses.replace, surface,
                         **_section(bump, "bump", (), BUMP_FIELDS))
    return surface


def cmd_generate(cfg: dict, config_path: Path, out_dir: Path) -> None:
    surface = _surface(cfg)
    gen = _section(cfg["generator"], "generator", ("kind",))
    (generate, required, optional, id_prefix), fields = _kind(GENERATORS, gen, "generator")
    _section(gen, "generator", ("kind",) + required, optional)
    labeled = _build("generator", generate, surface, **fields)
    manifest = {
        "schema_version": 1,
        "tool": {"name": "ggfps-lab", "version": __version__},
        "command": "generate",
        "config": cfg,
        "rows": len(labeled),
    }
    write_outputs(out_dir, {
        "dataset.csv": labeled.to_csv(id_prefix),
        "manifest.json": dumps_17g(manifest, indent=2) + "\n",
    })


def _load_dataset(cfg: dict, config_path: Path) -> LabeledSet:
    if not isinstance(cfg["dataset"], str):
        raise ConfigError("dataset: must be a file path")
    # relative to the config's directory; joining an absolute path keeps it
    dataset_path = config_path.parent / cfg["dataset"]
    if not dataset_path.exists():
        raise ConfigError(f"dataset: file not found: {dataset_path}")
    if dataset_path.is_dir():  # pipes and devices stream like files
        raise ConfigError(f"dataset: is a directory: {dataset_path}")
    try:
        # streamed, CSV_BLOCK_ROWS rows at a time; utf-8-sig drops the byte-order
        # mark that spreadsheets' "CSV UTF-8" export writes first
        with dataset_path.open(encoding="utf-8-sig") as lines:
            return LabeledSet.from_csv(lines)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset: {dataset_path}: {exc}") from None


def cmd_sample(cfg: dict, config_path: Path, out_dir: Path) -> None:
    sampler = _section(cfg["sampler"], "sampler", ("method", "n", "seed"), SAMPLER_FIELDS)
    config = _build("sampler", SamplerConfig, **sampler)
    try:
        result = select(_load_dataset(cfg, config_path), config)
    except CapacityError as exc:
        raise ConfigError(f"sampler.{exc}") from None
    write_outputs(out_dir, {"selection.json": result.to_json(indent=2)})


def cmd_curve(cfg: dict, config_path: Path, out_dir: Path) -> None:
    plan_cfg = _section(cfg["plan"], "plan", ("labeled_sizes", "train_sizes", "master_seed"),
                        PLAN_FIELDS)
    plan = _build("plan", ExperimentPlan, **plan_cfg)
    run_experiment(_load_dataset(cfg, config_path), plan, out_dir)


# command -> (function, required top-level sections, optional ones)
COMMANDS = {
    "generate": (cmd_generate, ("surface", "generator"), ("bump",)),
    "sample": (cmd_sample, ("dataset", "sampler"), ()),
    "curve": (cmd_curve, ("dataset", "plan"), ()),
}


def _resolve_threads(flag_value: int | None) -> int:
    """Worker count from --threads; 0 or unset means auto, which is 1. The
    value is validated but changes nothing: replicates always run serially.
    The GIL is not what stops a thread pool, since the ctypes ``dpotrf`` and
    ``dpotrs`` calls release it. The program does not yet set the thread
    count of scipy's OpenBLAS, on which the output bytes depend, and no
    replicate pool has been measured to speed a run up (ROADMAP items 3
    and 4)."""
    if flag_value is not None and flag_value < 0:
        raise ConfigError("--threads: must be >= 0")
    return flag_value or 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    ``main`` returns 1 for them, as for any other invalid configuration;
    ``--help`` and ``--version`` still exit 0. Subparsers share the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                       help="accepted for compatibility and validated (>= 0), "
                            "but runs are always serial")
    return parser


def _pin_numpy_blas() -> None:
    """Run numpy's BLAS products on one thread; a no-op without its OpenBLAS.

    numpy and scipy each bundle an OpenBLAS with its own thread pool. numpy's
    products gain nothing from a second thread and their bytes do not depend
    on it: ``krr.predict``'s, and the selection screen's float32 ``sgemm``
    (``dgemm`` on pools where float32 rules out too few points), which only
    decides which distances to recompute exactly. But OpenBLAS
    workers poll for a while after each call before they sleep, so an idle numpy
    worker most likely takes a core that scipy's two-thread Cholesky needs:
    on 2 cores, pinning it took the benchmark's ``plain-cv`` from 2.98 to
    2.44 s (medians of 10 runs each).
    scipy's pool is left alone, because its thread count moves the output
    bytes.
    """
    setter = getattr(bundled_openblas("numpy", load=False),
                     "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)


def main(argv=None) -> int:
    _pin_numpy_blas()
    try:
        args = build_parser().parse_args(argv)
        command, required, optional = COMMANDS[args.command]
        cfg = load_config(args.config)
        _resolve_threads(args.threads)
        # --out, or the nearest of its parents that exists
        existing = next(p for p in (args.out, *args.out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out: {existing} exists and is not a directory")
        if existing == args.out and any(args.out.iterdir()):
            raise ConfigError(f"--out: {args.out} is not empty; a run writes into a new "
                              "or empty directory, so no earlier run's files mix with it")
        _section(cfg, "config", required, ("schema_version",) + optional)
        command(cfg, args.config, args.out)
    except Exception as exc:  # noqa: BLE001 - classified, re-raised when unexpected
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


def _exit_code(exc: BaseException) -> int | None:
    """Exit code for an exception that ended a run; a ReplicateError takes
    its cause's. None for an exception of no known kind, which is a bug."""
    if isinstance(exc, ReplicateError):
        exc = exc.cause
    if isinstance(exc, (FactorizationError, GenerationError, ArithmeticError)):
        return EXIT_NUMERICAL
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_CONFIG if isinstance(exc, ValueError) else None


if __name__ == "__main__":
    sys.exit(main())

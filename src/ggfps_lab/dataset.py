"""Data model for labeled samples with gradient information.

Holds the flat labeled set (descriptor matrix + labels + gradient norms)
that all samplers operate on, with its CSV form; the field checks shared by
the config types; the writer of every command's output files; and a
Metropolis generator for synthetic Boltzmann-distributed datasets.
"""
from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Rows read and parsed per float conversion in ``LabeledSet.from_csv``:
# large enough to amortize the call, small enough that a block's text and
# field strings (about 1 MiB at 1024 rows of 11 fields) stay below the parsed
# arrays of a large dataset. On a 20,000 x 8 CSV, 1024 rows load as fast as
# 4096 with a traced peak of 3.8 MiB instead of 9.0 MiB.
CSV_BLOCK_ROWS = 1024


def check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer
    (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}")
    return int(value)


def check_number(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    number (not a bool), and above 0 when ``positive``."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name}: must be a finite number")
    if positive and not value > 0:
        raise ValueError(f"{name}: must be positive")
    return float(value)


def check_width(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a positive
    finite width w of a Gaussian exp(-d^2 / (2 w^2)) whose divisor 2 w^2
    neither overflows nor underflows to 0 (roughly 1e-162 < w < 1e154)."""
    width = check_number(name, value, positive=True)
    if not 0 < 2.0 * width * width <= sys.float_info.max:
        raise ValueError(f"{name}: 2 * {name}**2 must be a nonzero finite number")
    return width


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (lossless round-trip)."""
    return f"{float(x):.17g}"


def dumps_17g(obj, indent: int | None = None) -> str:
    """json.dumps with floats written at 17 significant digits."""

    def render(o, depth):
        pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
        close = "" if indent is None else "\n" + " " * (indent * depth)
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return format_float(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            o = o.tolist()
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [render(v, depth + 1) for v in o]
            return "[" + pad + ("," + pad).join(items) + close + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [
                json.dumps(str(k)) + (": " if indent else ":") + render(v, depth + 1)
                for k, v in o.items()
            ]
            return "{" + pad + ("," + pad).join(items) + close + "}"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return render(obj, 0)


def write_outputs(out_dir: Path | str, texts: dict[str, str]) -> dict[str, Path]:
    """Write each text to ``out_dir / name``, creating ``out_dir`` and its
    missing parents if needed, and return the paths by name.

    A write that fails with an OSError removes the files this call wrote and
    every directory it created, then re-raises: a run that cannot write all
    of its outputs leaves none of them.
    """
    out_dir = Path(out_dir)
    missing = list(itertools.takewhile(lambda p: not p.exists(), (out_dir, *out_dir.parents)))
    created: list[Path] = []
    written: dict[str, Path] = {}
    try:
        for directory in reversed(missing):
            directory.mkdir()
            created.append(directory)
        for name, text in texts.items():
            path = out_dir / name
            with path.open("w") as fh:
                written[name] = path
                fh.write(text)
    except OSError:
        for path in written.values():
            path.unlink(missing_ok=True)
        for directory in reversed(created):
            directory.rmdir()
        raise
    return written


class GenerationError(RuntimeError):
    """Synthetic dataset generation hit a non-finite surface evaluation."""


@dataclass(frozen=True)
class LabeledSet:
    """The universe samplers select from: descriptors, labels and gradient
    norms, as three read-only float arrays. A point is its row index; no
    output names a point otherwise."""

    descriptors: np.ndarray      # (N, d)
    labels: np.ndarray           # (N,)
    gradient_norms: np.ndarray   # (N,) nonnegative

    def __post_init__(self):
        X = np.asarray(self.descriptors, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        g = np.asarray(self.gradient_norms, dtype=float)
        if X.ndim != 2:
            raise ValueError("descriptors must be an (N, d) matrix")
        n = X.shape[0]
        if y.shape != (n,) or g.shape != (n,):
            raise ValueError("descriptors, labels and gradient_norms must agree in length")
        if not (np.isfinite(X).all() and np.isfinite(y).all() and np.isfinite(g).all()):
            raise ValueError("all entries must be finite")
        if np.any(g < 0):
            raise ValueError("gradient norms must be nonnegative")
        for name, arr in (("descriptors", X), ("labels", y), ("gradient_norms", g)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def subset(self, indices) -> "LabeledSet":
        idx = np.asarray(indices, dtype=int)
        return LabeledSet(
            descriptors=self.descriptors[idx],
            labels=self.labels[idx],
            gradient_norms=self.gradient_norms[idx],
        )

    def to_csv(self, id_prefix: str = "") -> str:
        """The CSV text ``from_csv`` reads; row i's id is ``id_prefix``
        followed by i, zero-padded to five digits."""
        header = "id,label,grad_norm," + ",".join(f"x{j}" for j in range(self.dim))
        lines = [header]
        for i in range(len(self)):
            row = [f"{id_prefix}{i:05d}", format_float(self.labels[i]),
                   format_float(self.gradient_norms[i])]
            row.extend(format_float(v) for v in self.descriptors[i])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, source: str | Iterable[str]) -> "LabeledSet":
        """Parse ``to_csv`` output from a string or from an iterable of lines,
        such as an open text file; blank lines are skipped. The ``id`` column
        must be present, and is skipped.

        An iterable is read ``CSV_BLOCK_ROWS`` rows at a time, so the whole
        text is never held. Each line it yields (a string is one line) is
        split with ``str.splitlines``, so the rows are those of the whole
        text's ``splitlines()`` whichever lines the iterable yields. Each block's
        field counts are checked first; its rows up to the first bad one are
        then parsed with one ``np.array(fields, dtype=float)`` call, which
        applies Python's ``float`` to each field in row order. So the first
        error in row order is raised, with ``float``'s message, as a
        row-by-row parse would raise it. The result's arrays are gathered
        from the blocks' parsed values; no text or field strings outlive
        their block.
        """
        lines = (source,) if isinstance(source, str) else source
        rows = (row for line in lines for row in line.splitlines() if row.strip())
        header = next(rows, None)
        if header is None:
            raise ValueError("empty CSV document")
        header = header.split(",")
        if header[:3] != ["id", "label", "grad_norm"]:
            raise ValueError("CSV header must start with id,label,grad_norm")
        width = len(header)
        # each block's parsed values, after an empty one: a header alone gives N = 0
        blocks = [np.empty((0, width - 1))]
        while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
            bad = next((r for r, ln in enumerate(block) if ln.count(",") != width - 1), None)
            good = block if bad is None else block[:bad]
            if good:
                fields = ",".join(good).split(",")
                del fields[::width]
                blocks.append(np.array(fields, dtype=float).reshape(-1, width - 1))
            if bad is not None:
                raise ValueError(f"row has {block[bad].count(',') + 1} fields, expected {width}")
        return cls(
            descriptors=np.concatenate([b[:, 2:] for b in blocks]),
            labels=np.concatenate([b[:, 0] for b in blocks]),
            gradient_norms=np.concatenate([b[:, 1] for b in blocks]),
        )


@np.errstate(over="raise", invalid="raise")
def synth_boltzmann_set(
    surface,
    temperature: float,
    n: int,
    seed: int,
    step: float,
    burn_in: int = 1000,
    thinning: int = 10,
) -> LabeledSet:
    """Metropolis random walk targeting exp(-f(x)/temperature) on the surface domain.

    Gaussian proposals with standard deviation ``step``; proposals leaving the
    box are rejected. After ``burn_in`` steps the current position is recorded
    every ``thinning`` steps until n samples exist. Deterministic per seed.
    An overflow in numpy raises FloatingPointError instead of a warning; when
    a proposal overflows, its message names ``step``.
    """
    n = check_int("n", n, 1)
    seed = check_int("seed", seed, 0)
    temperature = check_number("temperature", temperature, positive=True)
    step = check_number("step", step, positive=True)
    burn_in = check_int("burn_in", burn_in, 0)
    thinning = check_int("thinning", thinning, 1)
    lo, hi = surface.domain
    dim = surface.dim
    rng = np.random.default_rng(seed)
    x = np.full(dim, 0.5 * (lo + hi))
    fx = float(surface.value(x))
    if not np.isfinite(fx):
        raise GenerationError("non-finite surface value at the walk start")
    points = np.empty((n, dim))
    recorded = 0
    total_steps = burn_in + n * thinning
    for it in range(1, total_steps + 1):
        try:
            prop = x + step * rng.standard_normal(dim)
        except FloatingPointError:
            raise FloatingPointError(f"step: a proposal of step {step:g} overflows") from None
        if np.all(prop >= lo) and np.all(prop <= hi):
            fp = float(surface.value(prop))
            if not np.isfinite(fp):
                raise GenerationError(f"non-finite surface value at {prop.tolist()}")
            if np.log(rng.random()) < -(fp - fx) / temperature:
                x, fx = prop, fp
        if it > burn_in and (it - burn_in) % thinning == 0:
            points[recorded] = x
            recorded += 1
    values, grads = surface.value_and_gradient(points)
    if not (np.isfinite(values).all() and np.isfinite(grads).all()):
        raise GenerationError("non-finite surface evaluation on recorded samples")
    return LabeledSet(
        descriptors=points,
        labels=values,
        gradient_norms=np.linalg.norm(grads, axis=1),
    )

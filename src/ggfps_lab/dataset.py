"""Data model for labeled samples with gradient information.

Holds the flat labeled set (descriptor matrix + labels + gradient norms)
that all samplers operate on, with its CSV and JSON forms; the field checks
shared by the config types; the writer of every command's output files; and
a Metropolis generator for synthetic Boltzmann-distributed datasets.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Rows parsed per float conversion in ``LabeledSet.from_csv``: large enough
# to amortize the call, small enough that the block's field strings stay a
# few MiB.
CSV_BLOCK_ROWS = 4096


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
    """Write each text to ``out_dir / name``, creating ``out_dir`` if needed,
    and return the paths by name.

    A write that fails with an OSError removes the files this call wrote, and
    ``out_dir`` if this call created it, then re-raises: a run that cannot
    write all of its outputs leaves none of them.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True)
        created = True
    except FileExistsError:
        created = False
    written: dict[str, Path] = {}
    try:
        for name, text in texts.items():
            path = out_dir / name
            with path.open("w") as fh:
                written[name] = path
                fh.write(text)
    except OSError:
        for path in written.values():
            path.unlink(missing_ok=True)
        if created:
            out_dir.rmdir()
        raise
    return written


class GenerationError(RuntimeError):
    """Synthetic dataset generation hit a non-finite surface evaluation."""


@dataclass(frozen=True)
class LabeledSet:
    """The universe samplers select from: descriptors, labels, gradient norms, ids."""

    descriptors: np.ndarray      # (N, d)
    labels: np.ndarray           # (N,)
    gradient_norms: np.ndarray   # (N,) nonnegative
    ids: tuple[str, ...]

    def __post_init__(self):
        X = np.asarray(self.descriptors, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        g = np.asarray(self.gradient_norms, dtype=float)
        ids = tuple(str(i) for i in self.ids)
        if X.ndim != 2:
            raise ValueError("descriptors must be an (N, d) matrix")
        n = X.shape[0]
        if y.shape != (n,) or g.shape != (n,) or len(ids) != n:
            raise ValueError("descriptors, labels, gradient_norms and ids must agree in length")
        if not (np.isfinite(X).all() and np.isfinite(y).all() and np.isfinite(g).all()):
            raise ValueError("all entries must be finite")
        if np.any(g < 0):
            raise ValueError("gradient norms must be nonnegative")
        for name, arr in (("descriptors", X), ("labels", y), ("gradient_norms", g)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "ids", ids)

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
            ids=tuple(self.ids[i] for i in idx),
        )

    def to_csv(self) -> str:
        header = "id,label,grad_norm," + ",".join(f"x{j}" for j in range(self.dim))
        lines = [header]
        for i in range(len(self)):
            row = [self.ids[i], format_float(self.labels[i]), format_float(self.gradient_norms[i])]
            row.extend(format_float(v) for v in self.descriptors[i])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "LabeledSet":
        """Parse ``to_csv`` output; blank lines are skipped.

        Every row's field count is checked first; the rows are then parsed in
        blocks of ``CSV_BLOCK_ROWS``, one ``np.array(fields, dtype=float)``
        call per block, which applies Python's ``float`` to each field in row
        order. So the first error in row order is raised, with ``float``'s
        message, as a row-by-row parse would raise it.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty CSV document")
        header = lines[0].split(",")
        if header[:3] != ["id", "label", "grad_norm"]:
            raise ValueError("CSV header must start with id,label,grad_norm")
        width = len(header)
        body = lines[1:]
        bad = next((r for r, ln in enumerate(body) if ln.count(",") != width - 1), None)
        rows = body if bad is None else body[:bad]
        values = np.empty((len(rows), width - 1))
        ids: list[str] = []
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            fields = ",".join(rows[start:start + CSV_BLOCK_ROWS]).split(",")
            ids.extend(fields[::width])
            del fields[::width]
            block = np.array(fields, dtype=float).reshape(-1, width - 1)
            values[start:start + len(block)] = block
        if bad is not None:
            raise ValueError(f"row has {body[bad].count(',') + 1} fields, expected {width}")
        return cls(
            descriptors=np.ascontiguousarray(values[:, 2:]),
            labels=values[:, 0].copy(),
            gradient_norms=values[:, 1].copy(),
            ids=tuple(ids),
        )

    def to_json(self, indent: int | None = None) -> str:
        doc = {
            "schema_version": 1,
            "ids": list(self.ids),
            "labels": self.labels,
            "gradient_norms": self.gradient_norms,
            "descriptors": self.descriptors,
        }
        return dumps_17g(doc, indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LabeledSet":
        """Parse ``to_json`` output; ValueError for a malformed document."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a JSON dataset must be an object")
        for key in ("descriptors", "labels", "gradient_norms", "ids"):
            if key not in doc:
                raise ValueError(f"{key}: required key is missing")
        return cls(
            descriptors=np.asarray(doc["descriptors"], dtype=float),
            labels=np.asarray(doc["labels"], dtype=float),
            gradient_norms=np.asarray(doc["gradient_norms"], dtype=float),
            ids=tuple(doc["ids"]),
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
    id_prefix: str = "b",
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
        ids=tuple(f"{id_prefix}{i:05d}" for i in range(n)),
    )

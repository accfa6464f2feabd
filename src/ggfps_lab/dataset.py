"""Data model for labeled samples with gradient information.

Holds molecular configurations parsed from extended-XYZ streams, flat
labeled sets (descriptor matrix + labels + gradient norms) that all
samplers operate on, per-atom radial descriptors, and a Metropolis
generator for synthetic Boltzmann-distributed datasets.
"""
from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass

import numpy as np

# Fixed symbol table covering H through Ar.
SYMBOL_TO_Z = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18,
}
Z_TO_SYMBOL = {z: s for s, z in SYMBOL_TO_Z.items()}

_ENERGY_RE = re.compile(r"(?:^|\s)energy=(\S+)")
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


class XyzParseError(ValueError):
    """Malformed extended-XYZ input; carries frame index and line number (1-based)."""

    def __init__(self, message: str, frame: int, line: int):
        super().__init__(f"frame {frame}, line {line}: {message}")
        self.frame = frame
        self.line = line


class GenerationError(RuntimeError):
    """Synthetic dataset generation hit a non-finite surface evaluation."""


@dataclass(frozen=True)
class Configuration:
    """One molecular frame: positions, species, total energy and forces."""

    positions: np.ndarray  # (M, 3)
    species: np.ndarray    # (M,) nuclear charges
    energy: float
    forces: np.ndarray     # (M, 3)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        frc = np.asarray(self.forces, dtype=float)
        spc = np.asarray(self.species, dtype=int)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (M, 3) matrix")
        if frc.shape != pos.shape:
            raise ValueError("forces must have the same shape as positions")
        if spc.shape != (pos.shape[0],):
            raise ValueError("species length must equal the number of atoms")
        if np.any(spc < 0):
            raise ValueError("species must be nonnegative integers")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if not np.isfinite(frc).all():
            raise ValueError("forces must be finite")
        if not np.isfinite(self.energy):
            raise ValueError("energy must be finite")
        for name, arr in (("positions", pos), ("species", spc), ("forces", frc)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "energy", float(self.energy))

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


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


def parse_extended_xyz(stream) -> list[Configuration]:
    """Parse an extended-XYZ stream into a list of configurations.

    Per frame: an atom-count line, a comment line containing ``energy=<float>``,
    then one ``<symbol> x y z fx fy fz`` line per atom. Frame order is kept.
    Raises XyzParseError with 1-based frame index and line number on malformed
    counts, missing energy keys, non-numeric or non-finite fields or unknown
    symbols.
    """
    if isinstance(stream, bytes):
        text = stream.decode("utf-8")
    elif isinstance(stream, str):
        text = stream
    else:
        raw = stream.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    lines = text.splitlines()
    configs: list[Configuration] = []
    pos = 0
    frame = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        frame += 1
        count_line_no = pos + 1
        try:
            n_atoms = int(lines[pos].strip())
        except ValueError:
            raise XyzParseError(
                f"malformed atom count {lines[pos].strip()!r}", frame, count_line_no
            ) from None
        if n_atoms < 1:
            raise XyzParseError("atom count must be positive", frame, count_line_no)
        if pos + 1 >= len(lines):
            raise XyzParseError("missing comment line", frame, count_line_no)
        comment = lines[pos + 1]
        match = _ENERGY_RE.search(comment)
        if match is None:
            raise XyzParseError("missing energy key in comment", frame, pos + 2)
        try:
            energy = float(match.group(1))
        except ValueError:
            raise XyzParseError(
                f"non-numeric energy {match.group(1)!r}", frame, pos + 2
            ) from None
        if not np.isfinite(energy):
            raise XyzParseError(f"non-finite energy {match.group(1)!r}", frame, pos + 2)
        if pos + 2 + n_atoms > len(lines):
            raise XyzParseError(
                f"expected {n_atoms} atom lines, stream ends early", frame, len(lines)
            )
        species = np.empty(n_atoms, dtype=int)
        positions = np.empty((n_atoms, 3))
        forces = np.empty((n_atoms, 3))
        for a in range(n_atoms):
            line_no = pos + 3 + a
            parts = lines[pos + 2 + a].split()
            if len(parts) != 7:
                raise XyzParseError(
                    f"expected 7 fields (symbol x y z fx fy fz), got {len(parts)}",
                    frame, line_no,
                )
            symbol = parts[0]
            if symbol not in SYMBOL_TO_Z:
                raise XyzParseError(f"unknown element symbol {symbol!r}", frame, line_no)
            species[a] = SYMBOL_TO_Z[symbol]
            try:
                nums = [float(v) for v in parts[1:]]
            except ValueError:
                raise XyzParseError("non-numeric coordinate or force field", frame, line_no) from None
            if not np.isfinite(nums).all():
                raise XyzParseError("non-finite coordinate or force field", frame, line_no)
            positions[a] = nums[:3]
            forces[a] = nums[3:]
        configs.append(
            Configuration(positions=positions, species=species, energy=energy, forces=forces)
        )
        pos += 2 + n_atoms
    return configs


def write_extended_xyz(configs) -> str:
    """Serialize configurations back to the extended-XYZ format (17 sig. digits)."""
    chunks = []
    for cfg in configs:
        chunks.append(f"{cfg.n_atoms}\n")
        chunks.append(f"energy={format_float(cfg.energy)}\n")
        for a in range(cfg.n_atoms):
            sym = Z_TO_SYMBOL.get(int(cfg.species[a]))
            if sym is None:
                raise ValueError(f"no symbol for nuclear charge {cfg.species[a]}")
            fields = [sym]
            fields.extend(format_float(v) for v in cfg.positions[a])
            fields.extend(format_float(v) for v in cfg.forces[a])
            chunks.append(" ".join(fields) + "\n")
    return "".join(chunks)


def gradient_norm(config: Configuration) -> float:
    """Euclidean norm of the flattened force matrix (all 3M components)."""
    return float(np.linalg.norm(config.forces))


def descriptor_local_radial(
    config: Configuration,
    cutoff: float,
    n_basis: int,
    widths: float,
    species_order=None,
) -> np.ndarray:
    """Smooth per-atom radial descriptor with a cosine cutoff, as an (M, p)
    matrix with one row per atom and p = len(species_order) * n_basis.

    For atom a and each species s in ``species_order`` (default: species
    present in the configuration, ascending), component k sums
    exp(-(r_ab - mu_k)^2 / (2 w^2)) * f_cut(r_ab) over neighbors b of
    species s, with centers mu_k linearly spaced in (0, cutoff] and
    f_cut(r) = (cos(pi r / cutoff) + 1) / 2 below the cutoff, 0 above.
    Pass the dataset-wide species union as ``species_order`` when descriptors
    from different configurations must share a layout.
    """
    cutoff = check_number("cutoff", cutoff, positive=True)
    n_basis = check_int("n_basis", n_basis, 1)
    widths = check_number("widths", widths, positive=True)
    if species_order is None:
        species_order = np.unique(config.species)
    species_order = np.asarray(species_order, dtype=int)
    m = config.n_atoms
    mu = cutoff * np.arange(1, n_basis + 1) / n_basis
    vectors = np.zeros((m, len(species_order) * n_basis))
    diff = config.positions[:, None, :] - config.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    for a in range(m):
        for si, s in enumerate(species_order):
            mask = (config.species == s) & (np.arange(m) != a) & (dist[a] < cutoff)
            if not mask.any():
                continue
            r = dist[a][mask][:, None]
            fcut = 0.5 * (np.cos(np.pi * r / cutoff) + 1.0)
            block = np.sum(np.exp(-((r - mu[None, :]) ** 2) / (2.0 * widths**2)) * fcut, axis=0)
            vectors[a, si * n_basis : (si + 1) * n_basis] = block
    return vectors


def labeled_set_from_configurations(
    configs,
    cutoff: float,
    n_basis: int,
    widths: float,
    id_prefix: str = "cfg",
) -> LabeledSet:
    """Flatten per-atom radial descriptors of a trajectory into a LabeledSet.

    Every frame must list the same species in the same order as frame 1, so
    that a descriptor column means the same atom in every row; otherwise a
    ValueError names the first frame (1-based) that differs.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no configurations given")
    first = configs[0].species
    for frame, cfg in enumerate(configs[1:], start=2):
        if not np.array_equal(cfg.species, first):
            raise ValueError(f"frame {frame}: species sequence differs from frame 1's")
    order = np.unique(first)
    rows = [descriptor_local_radial(cfg, cutoff, n_basis, widths, species_order=order).ravel()
            for cfg in configs]
    return LabeledSet(
        descriptors=np.asarray(rows),
        labels=np.asarray([c.energy for c in configs]),
        gradient_norms=np.asarray([gradient_norm(c) for c in configs]),
        ids=tuple(f"{id_prefix}{i:05d}" for i in range(len(configs))),
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

"""Synthetic dataset generators and dataset IO.

Two families:

* union-of-subspaces data: each class is a low-dimensional linear subspace of
  a common ambient space, with samples drawn uniformly from the unit sphere
  of its subspace.  Class subspaces are either exactly orthogonal or related
  by Haar-random rotations inside their joint span.
* covariant group data: feature vectors of per-coordinate angles built from a
  shared group parameter plus a class-dependent offset, matched to product
  rotation embeddings so class membership shows up as a kernel level set.

Also a small Bell-pair construction on two qubits where the two classes sit
at angle pairs (t, -t) and (u, pi - u), plus stratified splitting, dataset
files, and the CSV table writer and reader every covkern artifact goes through.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of an array, sorted and flattened.

    ``np.unique`` would do, but its first call imports ``numpy.ma``, which
    costs every covkern process over a megabyte and several milliseconds.
    """
    ordered = np.sort(np.asarray(values).ravel())
    keep = np.ones(ordered.shape, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")


def check_importance(importance, n_features: int) -> tuple[int, ...]:
    """``importance`` as ints, checked: integers, not bools, permuting 0..n_features-1."""
    importance = tuple(importance)
    if not all(isinstance(i, Integral) and not isinstance(i, bool) for i in importance):
        raise ValueError(f"importance entries must be integers, got {importance}")
    if sorted(importance) != list(range(n_features)):
        raise ValueError(f"importance must permute the feature indices, got {importance}")
    return tuple(map(int, importance))


@dataclass
class Dataset:
    """Feature rows, integer labels, optional feature-importance ordering.

    ``importance`` lists feature indices most-important-first; generators that
    have no natural ordering leave it empty.
    """

    features: np.ndarray
    labels: np.ndarray
    importance: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2D array")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite (found NaN or inf)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        self.importance = tuple(self.importance)
        if self.importance:
            self.importance = check_importance(self.importance, self.features.shape[1])

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def classes(self) -> np.ndarray:
        return sorted_unique(self.labels)


def haar_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed rotation from SO(dim) via sign-fixed QR of a Gaussian."""
    _require_int("dim", dim)
    if dim < 1:
        raise ValueError("dim must be at least 1")
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diag(r))  # fix the QR gauge so q is Haar on O(dim)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def unit_rows(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points uniform on the unit sphere of R^dim, one per row."""
    coeff = rng.standard_normal((count, dim))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    return coeff


def sphere_points(basis: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the unit sphere of span(basis columns), as ambient rows."""
    return unit_rows(count, basis.shape[1], rng) @ basis.T


@dataclass(frozen=True)
class SubspaceSpec:
    """Union-of-subspaces layout: one subspace per class inside ambient_dim.

    With ``rotate`` False the class subspaces are mutually orthogonal blocks
    of a shared random orthonormal frame.  With it True, class 0 keeps its
    block and every other class's basis is a Haar rotation of the joint span
    applied to its own block, so overlaps between classes are generic.
    """

    ambient_dim: int
    class_dims: tuple[int, ...]
    samples_per_class: int
    rotate: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, value in (("ambient_dim", self.ambient_dim),
                            ("samples_per_class", self.samples_per_class),
                            *(("each entry of class_dims", d) for d in self.class_dims)):
            _require_int(name, value)
        if not self.class_dims:
            raise ValueError("class_dims must name at least one class")
        if any(d < 1 for d in self.class_dims):
            raise ValueError("every class needs dimension at least 1")
        if sum(self.class_dims) > self.ambient_dim:
            raise ValueError("class dimensions exceed the ambient space")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")


def subspace_bases(spec: SubspaceSpec) -> list[np.ndarray]:
    """Orthonormal basis (ambient_dim x dim_c) per class."""
    rng = np.random.default_rng(spec.seed)
    total = sum(spec.class_dims)
    joint = np.linalg.qr(rng.standard_normal((spec.ambient_dim, total)))[0]
    blocks = np.split(np.arange(total), np.cumsum(spec.class_dims)[:-1])
    bases = []
    for c, cols in enumerate(blocks):
        if spec.rotate and c >= 1:
            rot = haar_rotation(total, rng)
            bases.append(joint @ rot[:, cols])
        else:
            bases.append(joint[:, cols])
    return bases


def gen_union_subspaces(spec: SubspaceSpec) -> Dataset:
    rng = np.random.default_rng((spec.seed, 1))
    bases = subspace_bases(spec)
    rows = []
    labels = []
    for c, basis in enumerate(bases):
        rows.append(sphere_points(basis, spec.samples_per_class, rng))
        labels.extend([c] * spec.samples_per_class)
    return Dataset(np.vstack(rows), np.array(labels, dtype=int))


@dataclass(frozen=True)
class CovariantSpec:
    """Group-structured angles: x_q = s_q * step + offset_{class}.

    Each sample draws one random integer s_q per qubit from the inclusive
    ``integer_range``, so every coordinate is an integer multiple of the
    subgroup step shifted by the class offset.  Offsets of distinct classes
    must not differ by a multiple of the step, otherwise the classes collide
    on the same coset; the constructor rejects that.
    """

    n_qubits: int
    step: float
    offsets: tuple[float, ...]
    samples_per_class: int
    integer_range: tuple[int, int] = (-8, 8)
    seed: int = 0

    def __post_init__(self):
        for name, value in (("n_qubits", self.n_qubits),
                            ("samples_per_class", self.samples_per_class),
                            *(("each bound of integer_range", b) for b in self.integer_range)):
            _require_int(name, value)
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not np.isfinite(self.step) or self.step == 0.0:
            raise ValueError(f"step must be finite and nonzero, got {self.step!r}")
        if len(self.offsets) < 2:
            raise ValueError("need offsets for at least two classes")
        if not np.isfinite(self.offsets).all():
            raise ValueError(f"offsets must be finite, got {self.offsets!r}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        lo, hi = self.integer_range
        if lo > hi:
            raise ValueError("integer_range must be (low, high) with low <= high")
        for a in range(len(self.offsets)):
            for b in range(a + 1, len(self.offsets)):
                ratio = (self.offsets[a] - self.offsets[b]) / self.step
                if abs(ratio - round(ratio)) < 1e-9:
                    raise ValueError(
                        f"offsets {a} and {b} differ by a multiple of the step")


def gen_covariant(spec: CovariantSpec) -> Dataset:
    """Random integer subgroup element per qubit plus the class coset offset."""
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.integer_range
    rows = []
    labels = []
    for c, offset in enumerate(spec.offsets):
        s = rng.integers(lo, hi + 1, size=(spec.samples_per_class, spec.n_qubits))
        rows.append(s * spec.step + offset)
        labels.extend([c] * spec.samples_per_class)
    return Dataset(np.vstack(rows), np.array(labels, dtype=int))


def bell_pair_dataset(samples_per_class: int, seed: int = 0) -> Dataset:
    """Two-feature angles: class 0 at (t, -t), class 1 at (u, pi - u)."""
    _require_int("samples_per_class", samples_per_class)
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be positive")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
    u = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
    rows = np.vstack([
        np.column_stack([t, -t]),
        np.column_stack([u, np.pi - u]),
    ])
    labels = np.concatenate([np.zeros(samples_per_class, dtype=int),
                             np.ones(samples_per_class, dtype=int)])
    return Dataset(rows, labels)


def split_dataset(dataset: Dataset, train_fraction: float = 0.5,
                  seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified shuffle split; every class keeps at least one sample per side."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in dataset.classes():
        idx = np.flatnonzero(dataset.labels == cls)
        if idx.shape[0] < 2:
            raise ValueError(f"class {cls!r} has fewer than 2 samples, cannot split")
        perm = rng.permutation(idx)
        k = int(round(train_fraction * idx.shape[0]))
        k = min(max(k, 1), idx.shape[0] - 1)
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return (
        Dataset(dataset.features[train_idx], dataset.labels[train_idx], dataset.importance),
        Dataset(dataset.features[test_idx], dataset.labels[test_idx], dataset.importance),
    )


def _csv_line(cells) -> str:
    line = ",".join(cells)
    # one comma per cell boundary and no quote, CR or LF: no cell needs quoting
    if line.count(",") != len(cells) - 1 or '"' in line or "\r" in line or "\n" in line:
        line = ",".join('"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"\r\n')
                        else c for c in cells)
    return line


def write_table(path, header, rows) -> None:
    """Write ``header`` and ``rows``, sequences of str cells, as comma-separated
    LF-terminated lines; a cell is quoted only when it holds ``,``, ``"``, CR or
    LF.  Floats go in as their repr, so reloads are bit-exact."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([_csv_line(header), *map(_csv_line, rows)]) + "\n")


def read_table(path) -> list[tuple[int, list[str]]]:
    """``(line number, cells)`` for each non-blank record of a CSV file, CRLF or
    LF.  A record with another cell count than the first, or malformed CSV, is
    a ValueError naming ``path`` and the line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for cells in filter(None, reader):
                if records and len(cells) != len(records[0][1]):
                    raise ValueError(f"expected {len(records[0][1])} fields, got {len(cells)}")
                records.append((reader.line_num, cells))
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return records


def parse_records(path, records, parse) -> list:
    """``parse(cells)`` of each ``(line number, cells)`` record; a ValueError or
    IndexError it raises becomes a ValueError naming ``path`` and the line."""
    out = []
    for ln_no, cells in records:
        try:
            out.append(parse(cells))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path}: line {ln_no}: {exc}") from None
    return out


def parse_labels(cells) -> np.ndarray:
    """Class labels read from CSV cells: ints when every cell is one, else str."""
    try:
        return np.array([int(v) for v in cells])
    except ValueError:
        return np.array(cells)


def save_csv(dataset: Dataset, path) -> None:
    """Header f0..f{n-1},label, below an ``#importance`` line if there is one."""
    header = [*(f"f{i}" for i in range(dataset.n_features)), "label"]
    rows = ([*map(repr, row), str(label)]
            for row, label in zip(dataset.features.tolist(), dataset.labels.tolist()))
    if dataset.importance:
        header, rows = ["#importance", *map(str, dataset.importance)], chain([header], rows)
    write_table(path, header, rows)


def load_csv(path) -> Dataset:
    """The dataset in ``path``; every ValueError names the path."""
    records = read_table(path)
    importance: tuple[int, ...] = ()
    if records and records[0][1][0] == "#importance":
        importance = parse_records(path, records[:1], lambda cells: tuple(map(int, cells[1:])))[0]
        records = records[1:]
    if not records:
        raise ValueError(f"{path}: missing header line")
    ln_no, header = records[0]
    if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
        raise ValueError(f"{path}: line {ln_no}: bad header {','.join(header)!r}")
    rows = parse_records(path, records[1:], lambda cells: list(map(float, cells[:-1])))
    try:
        return Dataset(np.array(rows, dtype=float).reshape(len(rows), len(header) - 1),
                       parse_labels([cells[-1] for _, cells in records[1:]]), importance)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

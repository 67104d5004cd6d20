"""Executable checks of the mathematical structure behind covariant kernels.

Contents:

* Monte-Carlo estimate of the second moment of a sphere-uniform point against
  a fixed direction (equals 1/d in dimension d).
* The product-cosine closed form for the fidelity kernel with a product R_X
  embedding on the all-zeros state, and the five-case expectation table that
  compares same-subspace kernel mass against four cross-subspace layouts.
  The independent layouts draw y uniformly on the sphere of the joint span:
  that is the law of a uniform point of a Haar-random subspace of the span.
* Group-structure checks: a container for subgroup generators, coset
  representatives and a fiducial state's amplitude array, and a checker for
  invariance, membership, and cross-coset orthogonality.  A two-qubit
  maximally-entangled construction ships as the worked example; its kernel
  is exactly the class indicator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, unit_rows, write_table
from .featuremap import product_rotation_circuit
from .kernel import overlap_kernel_from_state
from .simcore import Circuit, _state_qubits, run_circuit, rx


# ---------------------------------------------------------------------------
# sphere moments
# ---------------------------------------------------------------------------

def _mc_mean(draw, trials: int, chunk: int) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of ``trials`` values, drawn at most
    ``chunk`` at a time by ``draw(count)``."""
    total = 0.0
    total_sq = 0.0
    for done in range(0, trials, chunk):
        vals = draw(min(chunk, trials - done))
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    return float(mean), float(np.sqrt(var / trials))


def sphere_inner_moment(dim: int, trials: int, seed: int = 0) -> tuple[float, float]:
    """MC estimate of E[<x, u>^2] for x uniform on the unit sphere, u fixed.

    Returns (mean, standard error).  The exact value is 1/dim.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    return _mc_mean(lambda count: (unit_rows(count, dim, rng) @ u) ** 2, trials, 1_000_000)


# ---------------------------------------------------------------------------
# product-cosine closed form and the five-case expectation table
# ---------------------------------------------------------------------------

def cosine_product_kernel(xs: np.ndarray, ys: np.ndarray | None = None,
                          angle_scale: float = 2.0 * np.pi) -> np.ndarray:
    """Closed form for the product R_X embedding acting on the all-zeros state.

    k(x, y) = prod_i cos^2(angle_scale * (x_i - y_i) / 2).  With the default
    scale the entries match the statevector kernel of an embedding that maps
    feature f to rotation angle 2*pi*f.
    """
    xs = np.asarray(xs, dtype=float)
    ys = xs if ys is None else np.asarray(ys, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2 or xs.shape[1] != ys.shape[1]:
        raise ValueError("feature arrays must be 2D with matching width")
    half = 0.5 * angle_scale
    diff = xs[:, None, :] - ys[None, :, :]
    return np.prod(np.cos(half * diff) ** 2, axis=2)


# One row per layout, in units of dim_x: dim_y, y's first coordinate, and the
# number of coordinates y is uniform over.  x is uniform on the first dim_x.
_LAYOUTS = (
    ("same", 1, 0, 1),
    ("orthogonal_equal", 1, 1, 1),
    ("independent_equal", 1, 0, 2),
    ("orthogonal_double", 2, 1, 2),
    ("independent_double", 2, 0, 3),
)
SUBSPACE_CASES = tuple(case for case, *_ in _LAYOUTS)


@dataclass(frozen=True)
class ExpectationRow:
    case: str
    dim_x: int
    dim_y: int
    mean: float
    stderr: float


def subspace_kernel_expectations(dims, trials: int, seed: int = 0,
                                 angle_scale: float = 2.0) -> list[ExpectationRow]:
    """E[k(x, y)] of the product-cosine kernel for five subspace layouts.

    For each dim d in ``dims`` the point x is sphere-uniform on a d-dim
    coordinate subspace; y comes from the same subspace, an orthogonal one of
    equal or double dimension, or an independent one.  A uniform point of a
    Haar-random subspace of the joint span is uniform on that span's sphere
    (the law is rotation invariant), so independent y is drawn there directly.
    Coordinates outside the joint span contribute unit factors, so the
    ambient dimension beyond dim_x + dim_y is irrelevant.

    The default scale 2.0 reproduces per-coordinate factors cos^2(x_i - y_i);
    pass 2*pi for the statevector-matched convention.
    """
    rows: list[ExpectationRow] = []
    half = 0.5 * angle_scale
    for dx in dims:
        if dx < 1:
            raise ValueError("subspace dims must be positive")
        rng = np.random.default_rng((seed, dx))
        for case, dy, first, span in _LAYOUTS:
            def draw(count, lo=first * dx, hi=(first + span) * dx):
                diff = np.zeros((count, hi))
                diff[:, :dx] = unit_rows(count, dx, rng)
                diff[:, lo:] -= unit_rows(count, hi - lo, rng)
                return np.prod(np.cos(half * diff) ** 2, axis=1)

            mean, stderr = _mc_mean(draw, trials, 100_000)
            rows.append(ExpectationRow(case, dx, dy * dx, mean, stderr))
    return rows


def expectation_ordering_margins(rows: list[ExpectationRow]) -> dict[int, float]:
    """Per dim_x, the worst separation (same - cross) / combined stderr.

    A margin of at least 3 for every dim means the same-subspace expectation
    dominates all four cross layouts with 3-sigma confidence.
    """
    by_dim: dict[int, dict[str, ExpectationRow]] = {}
    for row in rows:
        by_dim.setdefault(row.dim_x, {})[row.case] = row
    margins = {}
    for dx, cases in by_dim.items():
        if "same" not in cases:
            raise ValueError(f"missing same-subspace row for dim {dx}")
        ref = cases["same"]
        worst = np.inf
        for name, row in cases.items():
            if name == "same":
                continue
            sigma = np.sqrt(ref.stderr ** 2 + row.stderr ** 2)
            sep = (ref.mean - row.mean) / sigma if sigma > 0 else np.inf
            worst = min(worst, sep)
        margins[dx] = float(worst)
    return margins


def save_expectation_csv(rows: list[ExpectationRow], path) -> None:
    write_table(path, ["case", "dim_x", "dim_y", "mean", "stderr"],
                ([row.case, str(row.dim_x), str(row.dim_y), repr(row.mean), repr(row.stderr)]
                 for row in rows))


# ---------------------------------------------------------------------------
# group-structure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariantStructure:
    """Subgroup generators, coset representatives, and the fiducial state.

    Generators and representatives are circuits on the n qubits of the
    fiducial's 2**n amplitudes.  The fiducial must be phase-invariant under
    every generator, which ``check_covariance`` tests along with coset
    membership of sampled embeddings and cross-coset orthogonality.
    """

    fiducial: np.ndarray
    generators: tuple[Circuit, ...]
    cosets: tuple[Circuit, ...]

    def __post_init__(self):
        n = _state_qubits(self.fiducial, "fiducial")
        for circ in (*self.generators, *self.cosets):
            if circ.n_qubits != n:
                raise ValueError("all circuits must act on the fiducial's qubits")


@dataclass
class CovarianceReport:
    tolerance: float
    invariance_violations: list[tuple[int, float]] = field(default_factory=list)
    membership_violations: list[tuple[int, int, float]] = field(default_factory=list)
    orthogonality_violations: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.invariance_violations or self.membership_violations
                    or self.orthogonality_violations)


def check_covariance(structure: CovariantStructure, class_circuits,
                     tolerance: float = 1e-9) -> CovarianceReport:
    """Test the three structural conditions on sampled embedding circuits.

    ``class_circuits[c]`` lists embedding circuits sampled from class c,
    aligned with ``structure.cosets``.  Checks: (1) each generator fixes the
    fiducial up to phase, (2) each sampled circuit sits in its class's coset,
    i.e. the representative-rotated overlap has unit magnitude, (3) distinct
    coset representatives map the fiducial to orthogonal states.
    """
    if len(class_circuits) != len(structure.cosets):
        raise ValueError("need one circuit list per coset representative")
    report = CovarianceReport(tolerance)
    psi = structure.fiducial
    for g, gen in enumerate(structure.generators):
        dev = abs(abs(np.vdot(psi, run_circuit(gen, psi))) - 1.0)
        if dev > tolerance:
            report.invariance_violations.append((g, float(dev)))
    coset_states = [run_circuit(rep, psi) for rep in structure.cosets]
    for c, circuits in enumerate(class_circuits):
        for s, circ in enumerate(circuits):
            if 2 ** circ.n_qubits != psi.shape[0]:
                raise ValueError("sampled circuit acts on the wrong qubit count")
            dev = abs(abs(np.vdot(coset_states[c], run_circuit(circ, psi))) - 1.0)
            if dev > tolerance:
                report.membership_violations.append((c, s, float(dev)))
    for j in range(len(coset_states)):
        for l in range(j + 1, len(coset_states)):
            mag = abs(np.vdot(coset_states[j], coset_states[l]))
            if mag > tolerance:
                report.orthogonality_violations.append((j, l, float(mag)))
    return report


def bell_structure() -> CovariantStructure:
    """Two-qubit structure whose kernel is exactly the class indicator.

    Fiducial (|00> + |11>)/sqrt(2); the subgroup is counter-rotating X
    rotations (t, -t), which fix the fiducial up to phase; the second coset
    representative is an X half-turn on qubit 1, so class angle pairs
    (u, pi - u) decompose as representative times subgroup element.
    """
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    generators = tuple(Circuit(2, [rx(0, t), rx(1, -t)]) for t in (0.9, 2.4))
    cosets = (Circuit(2, []), Circuit(2, [rx(1, np.pi)]))
    return CovariantStructure(psi, generators, cosets)


def class_circuits_from_dataset(dataset: Dataset, axis: str = "x",
                                angle_scale: float = 1.0) -> list[list[Circuit]]:
    """Embedding circuits grouped by class, for covariance checking."""
    out = []
    for cls in dataset.classes():
        rows = dataset.features[dataset.labels == cls]
        out.append([product_rotation_circuit(angle_scale * row, axis) for row in rows])
    return out


def verify_delta_kernel(dataset: Dataset, fiducial: np.ndarray, axis: str = "x",
                        angle_scale: float = 1.0, tolerance: float = 1e-9):
    """Max deviation of the kernel matrix from the exact class indicator.

    Returns (max_deviation, ok).  The kernel is evaluated exactly from the
    fiducial amplitudes with the product rotation embedding.
    """
    angles = angle_scale * dataset.features
    matrix = overlap_kernel_from_state(fiducial, angles, axis=axis)
    target = (dataset.labels[:, None] == dataset.labels[None, :]).astype(float)
    dev = float(np.max(np.abs(matrix - target)))
    return dev, dev <= tolerance

"""Kernel-target alignment and the classical/quantum geometric difference.

Alignment is the Frobenius cosine between feature-centered matrices.  Because
centering kills any constant shift (K plus a multiple of the all-ones matrix
centers to the same thing), the 0/1 class target and the +1 / -1/(C-1) variant
give identical alignment values; both are provided.

The fiducial parameters are trained by simultaneous-perturbation stochastic
approximation (SPSA): two loss probes along a random +-1 direction per
iteration, deterministic given the seed.  The loss is one minus the alignment
between the class target and the PSD-repaired training kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _require_int, parse_records, read_table, sorted_unique, write_table
from .kernel import KernelConfig, assemble_matrix, repair_psd, symmetric_eigh

SPSA_GAIN_EXPONENT = 0.602
SPSA_PERTURB_EXPONENT = 0.101


def center_matrix(values: np.ndarray) -> np.ndarray:
    """Double-center: subtract row means, column means, add back the grand mean."""
    values = np.asarray(values, dtype=float)
    row = values.mean(axis=1, keepdims=True)
    col = values.mean(axis=0, keepdims=True)
    return values - row - col + values.mean()


def centered_alignment(target: np.ndarray, values: np.ndarray) -> float:
    """Frobenius cosine of the centered matrices, in [-1, 1].

    A matrix whose centered norm is at most 1e-12 of its own Frobenius norm
    is constant up to rounding, so its alignment is undefined.
    """
    if np.shape(target) != np.shape(values):
        raise ValueError(f"target and values must have the same shape, "
                         f"got {np.shape(target)} and {np.shape(values)}")
    if np.ndim(values) != 2 or np.shape(values)[0] != np.shape(values)[1]:
        raise ValueError(f"target and values must be square matrices, got shape "
                         f"{np.shape(values)}")
    if not (np.isfinite(target).all() and np.isfinite(values).all()):
        raise ValueError("target and values must be finite")
    ct = center_matrix(target)
    cv = center_matrix(values)
    nt = np.linalg.norm(ct)
    nv = np.linalg.norm(cv)
    if nt <= 1e-12 * np.linalg.norm(target) or nv <= 1e-12 * np.linalg.norm(values):
        raise ValueError("centered matrix is zero; alignment undefined for constant kernels")
    return float(np.sum(ct * cv) / (nt * nv))


def target_matrix(labels, kind: str = "zero_one") -> np.ndarray:
    """Ideal class kernel: 1 for same-class pairs and either 0 or -1/(C-1) otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    same = labels[:, None] == labels[None, :]
    if kind == "zero_one":
        return same.astype(float)
    if kind == "shifted":
        n_classes = len(sorted_unique(labels))
        if n_classes < 2:
            raise ValueError("shifted target needs at least two classes")
        return np.where(same, 1.0, -1.0 / (n_classes - 1))
    raise ValueError(f"unknown target kind {kind!r}")


@dataclass(frozen=True)
class SPSAConfig:
    """Gain schedule a_k = a/(k+1+stability)^0.602, c_k = c/(k+1)^0.101."""

    a: float = 0.1
    c: float = 0.1
    stability: float = 10.0
    iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("a", "c", "stability"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.c == 0:
            raise ValueError("c must be nonzero: it sets the perturbation size")
        if not self.stability > -1:
            raise ValueError(f"stability must exceed -1, got {self.stability!r}")
        for name in ("iterations", "seed"):
            _require_int(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    def gains(self, k: int) -> tuple[float, float]:
        a_k = self.a / (k + 1 + self.stability) ** SPSA_GAIN_EXPONENT
        c_k = self.c / (k + 1) ** SPSA_PERTURB_EXPONENT
        return a_k, c_k


@dataclass
class AlignmentTrace:
    """Loss and parameter snapshot per iteration (row 0 is the initial point)."""

    losses: np.ndarray
    params_history: np.ndarray
    best_index: int

    @property
    def best_loss(self) -> float:
        return float(self.losses[self.best_index])

    @property
    def best_params(self) -> np.ndarray:
        return np.array(self.params_history[self.best_index])


def alignment_loss(xs, labels, spec, params, config: KernelConfig, noise=None,
                   target: np.ndarray | None = None) -> float:
    """1 - alignment(target, PSD-repaired kernel); degenerate kernels score 1."""
    kt = target_matrix(labels) if target is None else target
    if kt.shape[:1] != np.shape(xs)[:1]:
        raise ValueError(f"labels must hold one label per row of xs, got {kt.shape[0]} "
                         f"for shape {np.shape(xs)}")
    estimate = assemble_matrix(xs, spec, params, config, noise)
    repaired = repair_psd(estimate)
    try:
        return 1.0 - centered_alignment(kt, repaired.values)
    except ValueError:
        return 1.0


def align_kernel(xs, labels, spec, init_params, spsa: SPSAConfig,
                 config: KernelConfig, noise=None) -> AlignmentTrace:
    """Minimize the alignment loss over fiducial parameters with SPSA.

    Deterministic given (init_params, spsa.seed, config.master_seed).  The
    recorded loss at each iteration is evaluated at the updated iterate, so
    the reported best loss is attained by the reported best parameters.
    """
    params = np.array(init_params, dtype=float)
    kt = target_matrix(labels)
    rng = np.random.default_rng(spsa.seed)

    def loss(p):
        return alignment_loss(xs, labels, spec, p, config, noise, target=kt)

    losses = [loss(params)]
    history = [params.copy()]
    for k in range(spsa.iterations):
        a_k, c_k = spsa.gains(k)
        direction = rng.integers(0, 2, size=params.shape[0]) * 2 - 1
        loss_plus = loss(params + c_k * direction)
        loss_minus = loss(params - c_k * direction)
        gradient = (loss_plus - loss_minus) / (2.0 * c_k) * direction
        params = params - a_k * gradient
        losses.append(loss(params))
        history.append(params.copy())
    losses_arr = np.array(losses)
    return AlignmentTrace(losses_arr, np.array(history), int(np.argmin(losses_arr)))


def save_trace_csv(trace: AlignmentTrace, path) -> None:
    n_params = trace.params_history.shape[1]
    write_table(path, ["iteration", "loss", *(f"p{i}" for i in range(n_params))],
                ([str(k), repr(loss), *map(repr, row)] for k, (loss, row) in
                 enumerate(zip(trace.losses.tolist(), trace.params_history.tolist()))))


def load_trace_csv(path) -> AlignmentTrace:
    records = read_table(path)[1:]
    if not records:
        raise ValueError(f"{path}: trace file has no data rows")
    table = np.array(parse_records(path, records, lambda cells: list(map(float, cells))))
    return AlignmentTrace(table[:, 1], table[:, 2:], int(np.argmin(table[:, 1])))


# ---------------------------------------------------------------------------
# geometric difference between classical and quantum kernels
# ---------------------------------------------------------------------------

def _psd_eigh(values: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    w, v, _ = symmetric_eigh(values)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -1e-9 * scale:
        raise ValueError(f"{name} matrix is not positive semidefinite (min eig {w[0]})")
    return np.clip(w, 0.0, None), v


def geometric_difference(classical: np.ndarray, quantum: np.ndarray,
                         regularizer: float | None = None) -> float:
    """How much of the quantum kernel's geometry the classical one misses.

    Spectral norm of sqrt(K_q) (K_c + reg I)^-1 sqrt(K_q), square-rooted.
    Both inputs must be PSD (repair first if estimated); the default
    regularizer is 1e-8 * trace(K_c) / m.
    """
    if np.shape(classical) != np.shape(quantum):
        raise ValueError(f"classical and quantum must have the same shape, "
                         f"got {np.shape(classical)} and {np.shape(quantum)}")
    wq, vq = _psd_eigh(quantum, "quantum")
    wc, vc = _psd_eigh(classical, "classical")
    m = wc.shape[0]
    if regularizer is None:
        regularizer = 1e-8 * float(wc.sum()) / m
    shifted = wc + regularizer
    if shifted.min() <= 0.0:
        raise ValueError("regularized classical matrix is singular")
    sqrt_q = (vq * np.sqrt(wq)) @ vq.T
    inv_c = (vc / shifted) @ vc.T
    sandwich = sqrt_q @ inv_c @ sqrt_q
    sandwich = (sandwich + sandwich.T) / 2.0
    top = float(np.linalg.eigvalsh(sandwich)[-1])
    return float(np.sqrt(max(top, 0.0)))

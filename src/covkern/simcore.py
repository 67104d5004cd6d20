"""Exact statevector simulation with synthetic readout noise.

A state is a plain 1-D complex array of 2**n amplitudes with qubit 0 as the
least significant bit of the basis index, so basis index 5 on three qubits
is the bitstring "101" (qubit 0 and qubit 2 set); every function reads n
from the array's last axis (``_state_qubits``).  The gate set is RX, RY, RZ
and CZ, which keeps inverses trivial (negate the rotation angles, reverse
the gate order).  ``AXES`` is the package's one table of rotation axes: the
gates, the feature map, both kernel routes and the CLI read it, and
``rotation_axis`` turns an unknown axis into the same ValueError everywhere.

Noise is modeled at readout only: an optional global depolarizing mix toward
the uniform distribution followed by independent per-qubit bit flips with
asymmetric rates p01 (read 1 given true 0) and p10 (read 0 given true 1).
Amplitudes stay exact; noise acts on the outcome distribution.  The
reference is ``run_circuit``, ``apply_readout_noise`` over all 2**n outcomes
and ``sample_counts`` (one count per outcome index), with one single-qubit
kernel, ``_apply_rotation``, for every gate rotation and each qubit's flip
matrix, on a state or on each row of a batch.  The kernel routes keep only
an outcome's Hamming weight, on which flips act alone (true weight w reads
as Bin(n - w, p01) + Bin(w, 1 - p10)), so they push the (n+1)-bin weight
histogram through ``weight_transfer(n, noise)``, cached per width and noise.

``kron_factors`` builds every Kronecker product of per-qubit length-2 factors
in the package, among them each block of ``product_blocks`` that
``product_into`` applies, ``_GROUP`` qubits at a time, to a batch of states
held as the rows of two caller-held buffers (every group, or those from a
start group on when the caller folds the lower ones into other work).
``weight_histograms`` sums a batch's squared amplitudes into Hamming-weight
bins the same way, one row matmul per group by a one-hot map of
``weight_layers``; the ``bincount`` of ``weight_mass_profile`` is the one
Hamming-mass reference, which ``kernel.kernel_entry`` reads as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 24
_GROUP = 4  # qubits per Kronecker block in product_blocks

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# the rotation axes: axis -> (R(t), stacked as (2, 2, *t.shape), and V^dagger,
# with R(t) = V RZ(t) V^dagger), in the order the CLI offers them
AXES = {
    "x": (lambda t: np.array(
        [[np.cos(t / 2), -1j * np.sin(t / 2)],
         [-1j * np.sin(t / 2), np.cos(t / 2)]], dtype=complex), _HADAMARD),
    "y": (lambda t: np.array(
        [[np.cos(t / 2), -np.sin(t / 2)],
         [np.sin(t / 2), np.cos(t / 2)]], dtype=complex), _HADAMARD @ np.diag([1, -1j])),
    "z": (lambda t: np.array(
        [[np.exp(-1j * t / 2), np.zeros_like(t)],
         [np.zeros_like(t), np.exp(1j * t / 2)]], dtype=complex), np.eye(2)),
}


def rotation_axis(axis: str):
    """``AXES[axis]``, (R, V^dagger); any other axis is a ValueError."""
    if not isinstance(axis, str) or axis not in AXES:
        raise ValueError(f"unknown rotation axis {axis!r}")
    return AXES[axis]


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside supported range 1..{MAX_QUBITS}")


@dataclass(frozen=True)
class GateOp:
    """One gate: a rotation ("rx"/"ry"/"rz") on a qubit or a "cz" on a pair."""

    name: str
    qubits: tuple[int, ...]
    angle: float = 0.0

    def inverse(self) -> "GateOp":
        if self.name == "cz":
            return self
        return GateOp(self.name, self.qubits, -self.angle)


def rotation(axis: str, q: int, angle: float) -> GateOp:
    """The gate "r" + axis on qubit q, for an axis of ``AXES``."""
    rotation_axis(axis)
    return GateOp("r" + axis, (q,), angle)


rx, ry, rz = (functools.partial(rotation, axis) for axis in "xyz")   # rx(q, angle), ...


def cz(q1: int, q2: int) -> GateOp:
    if q1 == q2:
        raise ValueError("cz needs two distinct qubits")
    return GateOp("cz", (min(q1, q2), max(q1, q2)))


@dataclass
class Circuit:
    """Ordered gate list on a fixed register."""

    n_qubits: int
    gates: list[GateOp] = field(default_factory=list)

    def __post_init__(self):
        _check_n(self.n_qubits)

    def add(self, gate: GateOp) -> "Circuit":
        for q in gate.qubits:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"gate on qubit {q} outside register of {self.n_qubits}")
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.add(g)
        return self

    def inverse(self) -> "Circuit":
        inv = Circuit(self.n_qubits)
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv

    def count(self, name: str) -> int:
        return sum(1 for g in self.gates if g.name == name)


def zero_state(n: int) -> np.ndarray:
    _check_n(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    return amps


def _state_qubits(amps, name: str = "amps", batched: bool = False) -> int:
    """n of a 1-D array-like of 2**n entries, n >= 1, or with ``batched`` of
    rows of them along its last axis; else a ValueError naming it."""
    shape = np.shape(amps)
    n = shape[-1].bit_length() - 1 if len(shape) == 1 or batched and shape else 0
    if n < 1 or shape[-1] != 2 ** n:
        what = "an array of rows" if batched else "a 1-D array"
        raise ValueError(f"{name} must be {what} of 2**n entries, n >= 1; got shape {shape}")
    return n


def _apply_rotation(amps: np.ndarray, q: int, mat: np.ndarray) -> np.ndarray:
    """The 2x2 ``mat`` on qubit q of every state along the last axis of amps:
    qubit q sits on axis ndim - 1 + n - 1 - q of the (*lead, 2, ..., 2) view."""
    n = amps.shape[-1].bit_length() - 1
    axis = amps.ndim - 1 + n - 1 - q
    view = amps.reshape(amps.shape[:-1] + (2,) * n)
    return np.moveaxis(np.tensordot(mat, view, axes=([1], [axis])), 0, axis).reshape(amps.shape)


def kron_factors(pairs) -> np.ndarray:
    """The Kronecker product of per-qubit (clear-bit, set-bit) factor pairs,
    qubit 0 the low bit: entry k of the result is prod_q pairs[q, bit q of k].

    ``pairs`` has shape (qubits, 2, *batch); the result (2**qubits, *batch).
    It is built in place: the first 2**j entries hold the product over the j
    lowest qubits, and the next qubit doubles them.
    """
    pairs = np.asarray(pairs)
    out = np.empty((2 ** pairs.shape[0],) + pairs.shape[2:], dtype=pairs.dtype)
    out[0] = 1.0
    for j, (clear, set_) in enumerate(pairs):
        w = 1 << j
        np.multiply(out[:w], set_, out=out[w:2 * w])
        out[:w] *= clear
    return out


def product_blocks(mats) -> list[np.ndarray]:
    """Kronecker blocks of mats[n-1] (x) ... (x) mats[0], ``_GROUP`` qubits each.

    ``mats[q]`` is the 2x2 matrix on qubit q of n = len(mats).  Block g is
    mats[hi-1] (x) ... (x) mats[lo] for the qubits lo..hi-1 of group g
    (lo = g * _GROUP), at most 16 x 16: column c is the ``kron_factors`` of
    each qubit's column for its bit of c.  One ``kron_factors`` call builds
    every group, the last padded with identity factors, and each block is read
    from its group's leading corner.  A layer applied to many batches builds
    its blocks once and hands them to ``product_into`` each time.
    """
    mats = np.asarray(mats)
    n = mats.shape[0]
    groups = -(-n // _GROUP)
    pad = np.broadcast_to(np.eye(2, dtype=mats.dtype), (groups * _GROUP - n, 2, 2))
    per = np.concatenate([mats, pad]).reshape(groups, _GROUP, 2, 2).transpose(1, 2, 0, 3)
    bits = (np.arange(2 ** _GROUP) >> np.arange(_GROUP)[:, None]) & 1   # bit q of column c
    full = kron_factors(np.take_along_axis(per, bits[:, None, None, :], axis=3))
    sizes = (2 ** min(_GROUP, n - lo) for lo in range(0, n, _GROUP))
    return [np.ascontiguousarray(full[:s, g, :s]) for g, s in enumerate(sizes)]


def matmul_rows(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, each output row the same however many rows share the call.

    numpy hands a one-row product to BLAS's matrix-vector routine, which
    rounds differently from the matrix-matrix one, so one row goes in as two.
    """
    if rows.shape[0] == 1:
        return (np.concatenate([rows, rows]) @ mat)[:1]
    return rows @ mat


def product_into(cur: np.ndarray, spare: np.ndarray, blocks,
                 start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Apply the tensor product held in ``product_blocks`` to B states held as
    the rows of two C-contiguous (B, 2**n) buffers.  Both buffers are
    overwritten; returns (result, the other buffer).

    Group 0 is one matmul over the B * 2**n // s rows of its s amplitudes (one
    row goes through ``matmul_rows``).  Each later group g is one stacked
    matmul, block times each (s, 2**(4g)) slab of each state.  A real block
    acts on real and imaginary parts alike, so on complex states it runs in
    float64 on the buffers' float view.  Every matmul varies only in its row
    or item count, so a state's result does not depend on how many states
    share the call.  A layer costs ceil(n / 4) passes over the batch and
    allocates nothing of its size.  Groups below ``start`` are left out: the
    groups act on disjoint qubits and commute, so a caller may apply them
    before or after the rest.
    """
    s = blocks[0].shape[0]
    if start == 0:
        rows, first = cur.reshape(-1, s), blocks[0].T.astype(cur.dtype)
        if rows.shape[0] == 1:
            spare.reshape(1, s)[:] = matmul_rows(rows, first)
        else:
            np.matmul(rows, first, out=spare.reshape(-1, s))
        cur, spare = spare, cur
    width = s ** max(start, 1)   # amplitudes per index of the groups below the next one
    for block in blocks[max(start, 1):]:
        s, cols = block.shape[0], width * cur.itemsize // block.itemsize
        np.matmul(block, cur.view(block.dtype).reshape(-1, s, cols),
                  out=spare.view(block.dtype).reshape(-1, s, cols))
        width *= s
        cur, spare = spare, cur
    return cur, spare


def apply_gate(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply one gate and return the new amplitudes (the input is not mutated)."""
    amps = np.asarray(amps)
    n = _state_qubits(amps)
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"gate on qubit {q} outside register of {n}")
    if gate.name == "cz":
        both = (1 << gate.qubits[0]) | (1 << gate.qubits[1])
        return np.where((np.arange(amps.size) & both) == both, -amps, amps)
    if gate.name[:1] == "r" and gate.name[1:] in AXES:
        rotate, _ = AXES[gate.name[1:]]
        return _apply_rotation(amps, gate.qubits[0], rotate(gate.angle))
    raise ValueError(f"unknown gate {gate.name!r}")


def run_circuit(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Run a circuit from |0...0> or from a copy of ``initial``: always a new array."""
    if initial is not None and _state_qubits(initial, "initial") != circuit.n_qubits:
        raise ValueError("initial state size does not match circuit register")
    state = zero_state(circuit.n_qubits) if initial is None else np.array(initial, dtype=complex)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


@dataclass(frozen=True)
class NoiseModel:
    """Readout bit flips plus an optional global depolarizing mix.

    p01 is the probability of reading 1 when the true bit is 0 and p10 the
    reverse; depolarizing mixes the exact distribution with the uniform one
    before the flips are applied.
    """

    p01: float = 0.0
    p10: float = 0.0
    depolarizing: float = 0.0

    def __post_init__(self):
        for name in ("p01", "p10", "depolarizing"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    def is_trivial(self) -> bool:
        return self.p01 == 0.0 and self.p10 == 0.0 and self.depolarizing == 0.0


def apply_readout_noise(probs, noise: NoiseModel) -> np.ndarray:
    """Push exact outcome distributions, each along the last axis of ``probs``,
    through the noise model: one ``_apply_rotation`` of the flip matrix per qubit."""
    p = probs = np.asarray(probs)
    n = _state_qubits(probs, "probs", batched=True)
    if noise.depolarizing > 0.0:
        p = (1.0 - noise.depolarizing) * p + noise.depolarizing / p.shape[-1]
    if noise.p01 == 0.0 and noise.p10 == 0.0:
        return np.array(p, copy=True) if p is probs else p
    # column = true bit, row = observed bit
    flips = np.array([[1.0 - noise.p01, noise.p10], [noise.p01, 1.0 - noise.p10]])
    for q in range(n):
        p = _apply_rotation(p, q, flips)
    return p


def outcome_distribution(amps, noise: NoiseModel | None = None) -> np.ndarray:
    """Measurement distribution over all 2**n outcomes of a state, noise included."""
    _state_qubits(amps)
    probs = np.abs(amps) ** 2
    return probs if noise is None or noise.is_trivial() else apply_readout_noise(probs, noise)


def _binomial_law(k: int, p: float) -> np.ndarray:
    return np.array([math.comb(k, j) * p ** j * (1.0 - p) ** (k - j) for j in range(k + 1)])


@functools.lru_cache(maxsize=128)
def weight_transfer(n: int, noise: NoiseModel) -> np.ndarray:
    """Column-stochastic (n+1) x (n+1) map from true to observed Hamming weight.

    Bit flips move an outcome of weight w to weight Bin(n - w, p01) +
    Bin(w, 1 - p10), whatever its bit pattern; the flip part F has that law
    as column w.  The depolarizing mix comes first and its uniform part goes
    through the flips too (uniform is not flip-invariant when p01 != p10), so
    T = F ((1 - lam) I + lam u 1^T), with u the Binomial(n, 1/2) weight law.
    For a distribution p, T times the weight histogram of p is the weight
    histogram of ``apply_readout_noise(p)``.
    """
    _check_n(n)
    flips = np.empty((n + 1, n + 1))
    for w in range(n + 1):
        flips[:, w] = np.convolve(_binomial_law(n - w, noise.p01),
                                  _binomial_law(w, 1.0 - noise.p10))
    lam = noise.depolarizing
    mix = (1.0 - lam) * np.eye(n + 1) + lam * _binomial_law(n, 0.5)[:, None]
    transfer = flips @ mix
    transfer.flags.writeable = False
    return transfer


def sample_counts(dist, shots: int, seed) -> np.ndarray:
    """Shot counts drawn from an outcome distribution, deterministically by seed:
    one per outcome index, qubit 0 the low bit, so the 2**n counts sum to ``shots``."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    dist = np.asarray(dist)
    _state_qubits(dist, "dist")
    total = dist.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"distribution sums to {total}, not 1")
    return np.random.default_rng(seed).multinomial(shots, dist / total)


@functools.lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every basis index on n qubits, cached per width and
    shared read-only."""
    _check_n(n)
    weights = np.bitwise_count(np.arange(2 ** n, dtype=np.uint32)).astype(np.int64)
    weights.flags.writeable = False
    return weights


def weight_mass_profile(dist) -> np.ndarray:
    """Cumulative mass at each Hamming weight 0..n of probabilities or shot
    counts; entry d is the mass of outcomes of weight <= d, the last the total.

    One ``bincount`` over (row, weight) bins for any leading shape, so a
    row's profile does not depend on how many rows are batched with it.
    """
    dist = np.asarray(dist)
    n = _state_qubits(dist, "dist", batched=True)
    rows = dist.reshape(-1, 2 ** n)
    bins = np.arange(rows.shape[0])[:, None] * (n + 1) + hamming_weights(n)
    per = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=rows.shape[0] * (n + 1))
    return np.cumsum(per.reshape(dist.shape[:-1] + (n + 1,)), axis=-1)


def weight_layers(n: int) -> list[np.ndarray]:
    """One-hot maps that sum a state's squared amplitudes into its n+1
    Hamming-weight bins, one per ``_GROUP``-qubit group, for
    ``weight_histograms``.

    The input of map g is (index c of group g, weight v of the groups before
    it), and row c * (v_max + 1) + v holds a 1 in column v + weight(c).  The
    first map reads (c, real or imaginary part) instead, so it also adds the
    two parts.  Every map is at most 16 (n+1) x (n+1).
    """
    layers, before = [], np.zeros(2, dtype=np.int64)   # the first map's (re, im) parts
    for lo in range(0, n, _GROUP):
        to = (hamming_weights(min(_GROUP, n - lo))[:, None] + before).ravel()
        layer = np.zeros((to.size, to[-1] + 1))
        layer[np.arange(to.size), to] = 1.0
        layers.append(layer)
        before = np.arange(layer.shape[1])
    return layers


def weight_histograms(squares: np.ndarray, layers) -> np.ndarray:
    """(B, n+1) Hamming-weight histograms of B states from their squared
    amplitudes' float view, (B, 2 * 2**n) with real and imaginary parts
    interleaved, through the maps of ``weight_layers(n)``.

    Each map is one row matmul (one row goes through ``matmul_rows``) whose
    rows are a state's (indices of the later groups, weight so far), so a
    state's histogram does not depend on how many states share the call.
    """
    hist = squares
    for layer in layers:
        hist = matmul_rows(hist.reshape(-1, layer.shape[0]), layer)
    return hist.reshape(squares.shape[0], -1)

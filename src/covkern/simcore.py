"""Exact statevector simulation with synthetic readout noise.

Amplitudes are stored as a dense complex vector of length 2**n with qubit 0 as
the least significant bit of the basis index, so basis index 5 on three qubits
is the bitstring "101" (qubit 0 and qubit 2 set).  The gate set is deliberately
small: RX, RY, RZ and CZ, which is enough for every circuit built elsewhere in
the package and keeps inverses trivial (negate the rotation angles, reverse the
gate order).

Noise is modeled at readout only: an optional global depolarizing mix toward
the uniform distribution followed by independent per-qubit bit flips with
asymmetric rates p01 (read 1 given true 0) and p10 (read 0 given true 1).
Amplitudes stay exact; noise acts on the outcome distribution.
``apply_readout_noise`` is the per-outcome reference over all 2**n outcomes.
The kernel routes keep only the Hamming weight of an outcome, and flips act
on the weight alone (true weight w reads as Bin(n - w, p01) + Bin(w, 1 - p10)),
so they push the (n+1)-bin weight histogram through the matrix
``weight_transfer(n, noise)``, cached per width and noise, instead.

``kron_factors`` builds every Kronecker product of per-qubit length-2 factors
in the package, among them each block of ``product_blocks`` that
``product_into`` applies, ``_GROUP`` qubits at a time, to a batch of states
held as the rows of two caller-held buffers (every group, or those from a
start group on when the caller folds the lower ones into other work);
``_apply_rotation`` and ``run_circuit`` stay the gate-by-gate reference.
``weight_histograms`` sums a batch's squared amplitudes into Hamming-weight
bins the same way, one row matmul per group by a one-hot map of
``weight_layers``; the ``bincount`` of ``weight_mass_profile`` stays the
reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 24
_GROUP = 4  # qubits per Kronecker block in product_blocks

_ROTATIONS = {
    "rx": lambda t: np.array(
        [[np.cos(t / 2), -1j * np.sin(t / 2)],
         [-1j * np.sin(t / 2), np.cos(t / 2)]], dtype=complex),
    "ry": lambda t: np.array(
        [[np.cos(t / 2), -np.sin(t / 2)],
         [np.sin(t / 2), np.cos(t / 2)]], dtype=complex),
    "rz": lambda t: np.array(
        [[np.exp(-1j * t / 2), np.zeros_like(t)],
         [np.zeros_like(t), np.exp(1j * t / 2)]], dtype=complex),
}

_weights_cache: dict[int, np.ndarray] = {}


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


def rx(q: int, angle: float) -> GateOp:
    return GateOp("rx", (q,), angle)


def ry(q: int, angle: float) -> GateOp:
    return GateOp("ry", (q,), angle)


def rz(q: int, angle: float) -> GateOp:
    return GateOp("rz", (q,), angle)


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


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(n: int) -> StateVector:
    _check_n(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def _apply_rotation(amps: np.ndarray, n: int, q: int, mat: np.ndarray) -> np.ndarray:
    # qubit q lives on axis n-1-q of the (2,)*n view
    view = amps.reshape((2,) * n)
    moved = np.moveaxis(view, n - 1 - q, 0)
    out = np.tensordot(mat, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, n - 1 - q).reshape(-1)


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


def product_blocks(n: int, mats) -> list[np.ndarray]:
    """Kronecker blocks of mats[n-1] (x) ... (x) mats[0], ``_GROUP`` qubits each.

    ``mats[q]`` is the 2x2 matrix on qubit q.  Block g is
    mats[hi-1] (x) ... (x) mats[lo] for the qubits lo..hi-1 of group g
    (lo = g * _GROUP), at most 16 x 16: column c is the ``kron_factors`` of
    each qubit's column for its bit of c.  One ``kron_factors`` call builds
    every group, the last padded with identity factors, and each block is read
    from its group's leading corner.  A layer applied to many batches builds
    its blocks once and hands them to ``product_into`` each time.
    """
    mats = np.asarray(mats)
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


def _apply_cz(amps: np.ndarray, n: int, q1: int, q2: int) -> np.ndarray:
    out = amps.copy().reshape((2,) * n)
    idx = [slice(None)] * n
    idx[n - 1 - q1] = 1
    idx[n - 1 - q2] = 1
    out[tuple(idx)] *= -1
    return out.reshape(-1)


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply one gate and return a new state (the input is not mutated)."""
    n = state.n_qubits
    for q in gate.qubits:
        if not 0 <= q < n:
            raise ValueError(f"gate on qubit {q} outside register of {n}")
    if gate.name == "cz":
        amps = _apply_cz(state.amplitudes, n, *gate.qubits)
    elif gate.name in _ROTATIONS:
        amps = _apply_rotation(state.amplitudes, n, gate.qubits[0], _ROTATIONS[gate.name](gate.angle))
    else:
        raise ValueError(f"unknown gate {gate.name!r}")
    return StateVector(n, amps)


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    """Run a circuit from |0...0> (or a copy of a caller-supplied initial state)."""
    if initial is not None and initial.n_qubits != circuit.n_qubits:
        raise ValueError("initial state size does not match circuit register")
    state = zero_state(circuit.n_qubits) if initial is None else StateVector(
        circuit.n_qubits, initial.amplitudes.copy())
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


def apply_readout_noise(probs: np.ndarray, n: int, noise: NoiseModel) -> np.ndarray:
    """Push an exact outcome distribution through the noise model."""
    p = probs
    if noise.depolarizing > 0.0:
        p = (1.0 - noise.depolarizing) * p + noise.depolarizing / p.shape[-1]
    if noise.p01 == 0.0 and noise.p10 == 0.0:
        return np.array(p, copy=True) if p is probs else p
    # column = true bit, row = observed bit
    t = np.array([[1.0 - noise.p01, noise.p10],
                  [noise.p01, 1.0 - noise.p10]])
    batched = p.ndim == 2
    lead = p.shape[0] if batched else 1
    out = p.reshape((lead,) + (2,) * n)
    for q in range(n):
        axis = 1 + n - 1 - q
        out = np.moveaxis(np.tensordot(t, out, axes=([1], [axis])), 0, axis)
    out = out.reshape(lead, -1)
    return out if batched else out[0]


def outcome_distribution(state: StateVector, noise: NoiseModel | None = None) -> np.ndarray:
    """Measurement distribution over all 2**n outcomes, noise included."""
    probs = np.abs(state.amplitudes) ** 2
    if noise is None or noise.is_trivial():
        return probs
    return apply_readout_noise(probs, state.n_qubits, noise)


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


@dataclass
class ShotCounts:
    n_qubits: int
    shots: int
    counts: dict[str, int]

    def total(self) -> int:
        return sum(self.counts.values())


def sample_counts(dist: np.ndarray, n: int, shots: int, seed) -> ShotCounts:
    """Draw shot counts from an outcome distribution, deterministically by seed."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if dist.shape[0] != 2 ** n:
        raise ValueError("distribution length does not match qubit count")
    total = dist.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"distribution sums to {total}, not 1")
    draws = np.random.default_rng(seed).multinomial(shots, dist / total)
    hits = np.nonzero(draws)[0]
    counts = {format(int(i), f"0{n}b"): int(draws[i]) for i in hits}
    return ShotCounts(n, shots, counts)


def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every basis index on n qubits (cached)."""
    _check_n(n)
    if n not in _weights_cache:
        idx = np.arange(2 ** n, dtype=np.uint32)
        _weights_cache[n] = np.bitwise_count(idx).astype(np.int64)
    return _weights_cache[n]


def hamming_mass(dist: np.ndarray, n: int, max_weight: int) -> float:
    """Total probability mass on outcomes with Hamming weight <= max_weight."""
    if dist.shape[-1] != 2 ** n:
        raise ValueError("distribution length does not match qubit count")
    if max_weight < 0:
        return 0.0
    mask = hamming_weights(n) <= max_weight
    return float(dist[..., mask].sum(axis=-1))


def weight_mass_profile(dist: np.ndarray, n: int) -> np.ndarray:
    """Cumulative mass at each Hamming weight 0..n; last entry is the total.

    One ``bincount`` over (row, weight) bins for any leading shape, so a
    row's profile does not depend on how many rows are batched with it.
    """
    if dist.shape[-1] != 2 ** n:
        raise ValueError("distribution length does not match qubit count")
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


def states_equal(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Equality up to a global phase."""
    if a.n_qubits != b.n_qubits:
        return False
    inner = np.vdot(a.amplitudes, b.amplitudes)
    return bool(abs(abs(inner) - 1.0) <= tol)

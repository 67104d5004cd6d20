"""Fidelity-kernel estimation with bit-flip tolerance.

The kernel between two samples is the probability that the kernel circuit
returns an outcome of Hamming weight at most ``tolerance`` (a plain partial
sum over accepted outcomes, no renormalization).  Tolerance 0 is the usual
all-zeros fidelity kernel; raising the tolerance trades specificity for
robustness against readout bit flips.

Matrices are assembled from the upper triangle only and mirrored, with one
RNG stream per entry derived from (master_seed, tag, i, j), so assembly order
and parallelism cannot change sampled results, and re-running at a different
tolerance reuses identical counts.  The streams are counter-based: one Philox
key per call from ``SeedSequence((master_seed, tag))``, and entry (i, j)
draws from counter (0, 0, i, j), so an entry's stream costs a counter write,
not a generator set-up (Salmon et al., SC'11).

Two evaluation routes exist, and both are tested against the explicit
circuit simulation of ``kernel_entry`` (``simcore.run_circuit``).  Both start
from the fiducial U = D (x)M_q, compiled once per call from one
``build_fiducial``: M_q fuses qubit q's three rotations into one 2x2 matrix
and D is the +-1 diagonal of all the CZ gates.  The embedding layers collapse
to one rotation per qubit about a shared axis, and such rotations are
diagonal in one basis: R(a) = V RZ(a) V^dagger.  Let phi = (x)V^dagger psi be
the fiducial state psi = U|0> in that basis.

The noiseless exact tolerance-0 kernel is a phase-feature Gram product.
With t_k = |phi_k|^2 and signs z_kq = +-1 (+1 when bit q of k is clear), each
sample becomes one row F[k] = sqrt(t_k) exp(-i z_k . a / 2), and
K = |conj(F_a) F_b^T|^2.  That costs O(m_a m_b 2**n) for the product, and the
2**n basis axis is streamed in blocks whose feature and sign rows hold at
most ``_CHUNK_AMPS`` values together.

Every other case (readout noise, shots, tolerance > 0) takes the profile
route: one compiled pair circuit per angle difference delta = b - a,

    (x)M_q^dagger . D . (x)V . (e(delta) * phi),   e(delta)_k = exp(-i z_k . delta / 2),

so a pair costs one phase multiply, two product layers
(``simcore.product_into``, their Kronecker blocks built once per call) and
one diagonal multiply.  Pairs go in tiles of ``max(1, _TILE_AMPS // 2**n)``,
so each numpy pass works on a 512 KB array (2**15 amplitudes) that a core's
L2 cache holds.  The tile working set is allocated once per call and reused
by every tile, so no tile-sized array is allocated (and page-faulted in)
per tile: two complex buffers that the product layers ping-pong between,
two float ones for |amplitude|^2 and one (row, weight) bin index, about
1.75 MB whatever the number of pairs.  e(delta) is written into a buffer
from two phase tables of at most 2**ceil(n/2) entries per pair.  Only the
Hamming weight of an outcome matters, so readout noise is
one (n+1) x (n+1) matrix (``simcore.weight_transfer``) applied to each
pair's weight histogram, and shots are one multinomial draw over the n+1
weight bins.  A pair's numbers come out the same in whatever tile it falls
(one-row products take the same BLAS routine as wider ones, and weight sums
run in index order), so results do not depend on the tiling.

The two size constants bound different things: ``_TILE_AMPS`` the profile
route's pair tiles, whose elementwise passes are memory-bound, and
``_CHUNK_AMPS`` (2**21 amplitudes, 32 MB complex) only the exact route's
basis blocks, each of which feeds one BLAS product.  Smaller exact blocks
may pay too, but that is a change to the exact route, measured on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import simcore as sc
from .featuremap import FeatureMapSpec, build_fiducial, build_kernel_circuit, line_coupling, make_feature_map

_CHUNK_AMPS = 2 ** 21  # complex amplitudes per exact-route basis block
_TILE_AMPS = 2 ** 15   # complex amplitudes per profile-route tile of pairs


@dataclass(frozen=True)
class KernelConfig:
    """How kernel entries are estimated.

    ``shots=None`` means exact outcome distributions; otherwise each entry is
    sampled with its own deterministic RNG stream.  ``estimate_diagonal``
    keeps diagonal entries estimated like any other (their circuits are
    identity-equivalent, which is what calibration exploits); switching it off
    pins them to exact 1.
    """

    tolerance: int = 0
    shots: int | None = None
    estimate_diagonal: bool = True
    master_seed: int = 0

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.shots is not None and self.shots <= 0:
            raise ValueError("shots must be positive when given")


@dataclass
class KernelMatrixEstimate:
    values: np.ndarray
    tolerance: int
    shots: int | None
    psd_projected: bool = False
    min_eigenvalue_before: float | None = None


# ---------------------------------------------------------------------------
# compiled fiducial and the basis where the embedding is diagonal
# ---------------------------------------------------------------------------

# V^dagger per embedding axis, where R_axis(t) = V RZ(t) V^dagger
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_TO_Z_BASIS = {"x": _HADAMARD, "y": _HADAMARD @ np.diag([1, -1j]), "z": np.eye(2)}


def _compile_fiducial(spec: FeatureMapSpec, params) -> tuple[list[np.ndarray], np.ndarray]:
    """The fiducial U = D (x)M_q: one fused 2x2 matrix per qubit and the +-1
    diagonal D of all its CZ gates, read from a single ``build_fiducial``."""
    n = spec.n_qubits
    mats = [np.eye(2, dtype=complex) for _ in range(n)]
    idx = np.arange(2 ** n)
    parity = np.zeros(2 ** n, dtype=idx.dtype)
    for g in build_fiducial(spec, params).gates:   # all rotations, then the CZ tree
        if g.name == "cz":
            a, b = g.qubits
            parity ^= (idx >> a) & (idx >> b) & 1
        else:
            q = g.qubits[0]
            mats[q] = sc._ROTATIONS[g.name](g.angle) @ mats[q]
    return mats, 1.0 - 2.0 * parity


def _fiducial_state(mats: list[np.ndarray], diag: np.ndarray) -> np.ndarray:
    zero = np.zeros((1, diag.shape[0]), dtype=complex)
    zero[0, 0] = 1.0
    return diag * sc.apply_product(zero, sc.product_blocks(len(mats), mats))[0]


def _to_z_basis(psi: np.ndarray, n: int, axis: str) -> np.ndarray:
    """(x)V^dagger psi: the state in the basis where the embedding is diagonal."""
    return sc.apply_product(psi[None], sc.product_blocks(n, [_TO_Z_BASIS[axis]] * n))[0]


# ---------------------------------------------------------------------------
# exact route: phase-feature Gram product against a fixed fiducial state
# ---------------------------------------------------------------------------

def _phase_rows(angles: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """exp(-i z_k . a / 2) for basis indices lo..hi-1, one row per angle row a.

    z_kq is +1 when bit q of k is clear and -1 when it is set; only this
    block's (hi - lo) x n sign rows are built.
    """
    bits = (np.arange(lo, hi)[:, None] >> np.arange(angles.shape[1])) & 1
    return np.exp(-0.5j * (angles @ (1.0 - 2.0 * bits).T))


def overlap_kernel_from_state(psi: np.ndarray, angles_a: np.ndarray,
                              angles_b: np.ndarray | None = None,
                              axis: str = "x") -> np.ndarray:
    """Kernel matrix K[i, j] = |<psi| prod R(b_j - a_i) |psi>|^2 = |conj(F_a) F_b^T|^2.

    Takes per-qubit embedding angles directly, which is handy for analytic
    constructions where the feature values are the rotation angles.  F holds
    one phase-feature row per sample (see the module docstring), built one
    basis block at a time; ``angles_b=None`` reuses F_a as F_b.
    """
    angles_a = np.atleast_2d(np.asarray(angles_a, dtype=float))
    n = angles_a.shape[1]
    symmetric = angles_b is None
    angles_b = angles_a if symmetric else np.atleast_2d(np.asarray(angles_b, dtype=float))
    if angles_b.shape[1] != n:
        raise ValueError("both angle sets need one column per qubit")
    if psi.shape[0] != 2 ** n:
        raise ValueError("state size does not match the number of angle columns")
    if axis not in _TO_Z_BASIS:
        raise ValueError(f"unknown rotation axis {axis!r}")
    psi = _to_z_basis(psi, n, axis)
    t = (psi.conj() * psi).real
    held = n + angles_a.shape[0] + (0 if symmetric else angles_b.shape[0])
    width = max(1, _CHUNK_AMPS // held)
    amp = np.zeros((angles_a.shape[0], angles_b.shape[0]), dtype=complex)
    for lo in range(0, 2 ** n, width):
        hi = min(lo + width, 2 ** n)
        root = np.sqrt(t[lo:hi])
        fa = root * _phase_rows(angles_a, lo, hi)
        fb = fa if symmetric else root * _phase_rows(angles_b, lo, hi)
        amp += fa.conj() @ fb.T
    return amp.real ** 2 + amp.imag ** 2   # own float array, not a view pinning amp


# ---------------------------------------------------------------------------
# profile route: one compiled pair circuit, noise and shots on weight bins
# ---------------------------------------------------------------------------

def _pair_phases(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e(delta)[r, k] = prod_q exp(-+ i delta_rq / 2), minus when bit q of k is
    clear, as two phase tables with the pair axis last: ``high`` over qubits
    n//2..n-1 and ``low`` over qubits 0..n//2-1, so that
    e(delta)[r] = kron(high[:, r], low[:, r]).

    Each table is built by the Kronecker recursion over its qubits, in place:
    the first 2**j rows hold the phases of the table's j lowest qubits, and
    its next qubit doubles them.  A table has at most 2**ceil(n/2) rows.
    """
    f = np.exp(-0.5j * deltas.T)
    f_conj = f.conj()
    n, b = f.shape
    tables = []
    for qubits in (range(n // 2, n), range(n // 2)):
        table = np.empty((2 ** len(qubits), b), dtype=complex)
        table[0] = 1.0
        for j, q in enumerate(qubits):
            w = 1 << j
            np.multiply(table[:w], f_conj[q], out=table[w:2 * w])
            table[:w] *= f[q]
        tables.append(table)
    return tables[0], tables[1]


def _pair_profiles(spec: FeatureMapSpec, params, angles_a, angles_b, rows_a, rows_b,
                   config: KernelConfig, noise, tag: int) -> np.ndarray:
    """Cumulative weight-mass profile (n+1 columns) of each pair of angle rows
    (angles_a[rows_a[r]], angles_b[rows_b[r]]), sampled when ``config.shots`` is set.

    The pair state is (x)M_q^dagger . D . (x)V . (e(delta) * phi), evaluated
    one tile of pairs at a time; see the module docstring.  The working set
    is allocated once per call and reused by every tile (the last, short
    one takes leading rows): two complex tile buffers that the product
    layers ping-pong between (``simcore.product_into``), two float ones for
    |amplitude|^2, and one (row, weight) bin index for ``bincount``.  Noise
    and shots act on each pair's weight histogram, per tile, and the profile
    is that histogram's one cumulative sum.

    Shots come from one Philox generator per call, keyed by the two words of
    ``SeedSequence((master_seed, tag)).generate_state(2, uint64)``.  Entry
    (i, j) = (rows_a[r], rows_b[r]) draws one multinomial over its weight
    histogram after the counter is set to (0, 0, i, j) and the output buffer
    emptied.  A draw only advances the two low counter words, so no entry can
    reach another's counter: its counts depend on (master_seed, tag, i, j)
    and its histogram alone, which is the law of
    ``Generator(Philox(key=key, counter=[0, 0, i, j])).multinomial(shots, h)``.
    The state written before each draw holds Python ints and lists, which
    the bit generator's setter reads in under half the time arrays take.
    """
    n = spec.n_qubits
    mats, fid_diag = _compile_fiducial(spec, params)
    phi = _to_z_basis(_fiducial_state(mats, fid_diag), n, spec.embed_axis)
    deltas = angles_b[rows_b] - angles_a[rows_a]
    b = deltas.shape[0]
    tile = max(1, _TILE_AMPS // 2 ** n)
    shots = config.shots
    if shots is not None:
        key = np.random.SeedSequence((config.master_seed, tag)).generate_state(2, np.uint64)
        bitgen = np.random.Philox(key=key)
        gen = np.random.Generator(bitgen)
        counter = [0, 0, 0, 0]   # words 0 and 1 stay 0
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key.tolist()},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        counts = np.empty((tile, n + 1), dtype=np.int64)
    out = np.empty((b, n + 1))
    to_embed = sc.product_blocks(n, [_TO_Z_BASIS[spec.embed_axis].conj().T] * n)
    undo_fid = sc.product_blocks(n, [m.conj().T for m in mats])
    noisy = noise is not None and not noise.is_trivial()
    transfer = sc.weight_transfer(n, noise) if noisy else None
    amps = np.empty((2, tile, 2 ** n), dtype=complex)
    probs = np.empty((2, tile, 2 ** n))
    bins = sc.weight_bins(tile, n)
    for lo in range(0, b, tile):
        hi = min(lo + tile, b)
        t = hi - lo
        high, low = _pair_phases(deltas[lo:hi])
        cur, spare = amps[0, :t], amps[1, :t]
        np.multiply(high.T[:, :, None], low.T[:, None, :],
                    out=cur.reshape(t, high.shape[0], low.shape[0]))
        cur *= phi
        cur, spare = sc.product_into(cur, spare, to_embed)
        cur *= fid_diag
        cur, _ = sc.product_into(cur, spare, undo_fid)
        sq, sq_imag = probs[0, :t], probs[1, :t]
        np.square(cur.real, out=sq)
        sq += np.square(cur.imag, out=sq_imag)
        hist = np.bincount(bins[:sq.size], weights=sq.ravel(),
                           minlength=t * (n + 1)).reshape(t, n + 1)
        if noisy:
            hist = sc.matmul_rows(hist, transfer.T)
        if shots is None:
            np.cumsum(hist, axis=1, out=out[lo:hi])
            continue
        hist /= hist.sum(axis=1, keepdims=True)
        for r, (i, j, h) in enumerate(zip(rows_a[lo:hi].tolist(), rows_b[lo:hi].tolist(), hist)):
            counter[2], counter[3] = i, j
            bitgen.state = state
            counts[r] = gen.multinomial(shots, h)
        np.divide(np.cumsum(counts[:t], axis=1), shots, out=out[lo:hi])
    return out


def _angles(spec: FeatureMapSpec, xs) -> np.ndarray:
    """The embedding angles of checked feature rows, one column per qubit."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError("feature array must be two-dimensional (samples x features)")
    if not np.isfinite(xs).all():
        raise ValueError("features must be finite (found NaN or inf)")
    if xs.shape[1] <= max(spec.assignment):
        raise ValueError(
            f"{xs.shape[1]} feature columns cannot serve assignment {spec.assignment}")
    return spec.angle_scale * xs[:, np.array(spec.assignment)]


def _exact_route(spec: FeatureMapSpec, config: KernelConfig, noise) -> bool:
    """Whether the noiseless exact tolerance-0 Gram product serves ``config``;
    a tolerance above the register width is a ValueError."""
    if config.tolerance > spec.n_qubits:
        raise ValueError(f"tolerance {config.tolerance} exceeds qubit count {spec.n_qubits}")
    noiseless = noise is None or noise.is_trivial()
    return noiseless and config.shots is None and config.tolerance == 0


def _exact_kernel(spec: FeatureMapSpec, params, angles_a, angles_b=None) -> np.ndarray:
    psi = _fiducial_state(*_compile_fiducial(spec, params))
    return overlap_kernel_from_state(psi, angles_a, angles_b, spec.embed_axis)


def assemble_profiles(xs, spec: FeatureMapSpec, params, config: KernelConfig,
                      noise: sc.NoiseModel | None = None) -> np.ndarray:
    """Kernel values at every tolerance at once: (m, m, n+1) cumulative masses.

    ``profiles[i, j, d]`` is the kernel estimate between samples i and j at
    tolerance d.  Sampled entries use one multinomial draw per (i, j), so all
    tolerances of an entry come from the same counts.
    """
    angles = _angles(spec, xs)
    m = angles.shape[0]
    rows_a, rows_b = np.triu_indices(m, k=1)
    if config.estimate_diagonal:
        rows_a = np.concatenate([rows_a, np.arange(m)])
        rows_b = np.concatenate([rows_b, np.arange(m)])
    prof = _pair_profiles(spec, params, angles, angles, rows_a, rows_b, config, noise, 0)
    out = np.ones((m, m, spec.n_qubits + 1))
    out[rows_a, rows_b] = prof
    out[rows_b, rows_a] = prof
    return out


def matrix_from_profiles(profiles: np.ndarray, config: KernelConfig) -> KernelMatrixEstimate:
    n = profiles.shape[2] - 1
    if config.tolerance > n:
        raise ValueError(f"tolerance {config.tolerance} exceeds qubit count {n}")
    return KernelMatrixEstimate(np.array(profiles[:, :, config.tolerance]),
                                config.tolerance, config.shots)


def assemble_matrix(xs, spec: FeatureMapSpec, params, config: KernelConfig,
                    noise: sc.NoiseModel | None = None) -> KernelMatrixEstimate:
    """Symmetric kernel matrix over one sample set.

    Entries (i, j) and (j, i) come from the single evaluation with i < j.  The
    noiseless exact zero-tolerance case is the phase-feature Gram product
    K = |conj(F) F^T|^2, symmetrized, streaming F over the basis axis within
    ``_CHUNK_AMPS`` amplitudes; everything else takes the profile route of
    compiled pair circuits (see the module docstring).
    """
    angles = _angles(spec, xs)
    if not _exact_route(spec, config, noise):
        return matrix_from_profiles(assemble_profiles(xs, spec, params, config, noise), config)
    values = _exact_kernel(spec, params, angles)
    values = (values + values.T) / 2.0
    if not config.estimate_diagonal:
        np.fill_diagonal(values, 1.0)
    return KernelMatrixEstimate(values, 0, None)


def assemble_cross(xs_rows, xs_cols, spec: FeatureMapSpec, params, config: KernelConfig,
                   noise: sc.NoiseModel | None = None) -> np.ndarray:
    """Rectangular kernel block K[i, j] = k(rows_i, cols_j) (e.g. test x train)."""
    angles_r, angles_c = _angles(spec, xs_rows), _angles(spec, xs_cols)
    if _exact_route(spec, config, noise):
        return _exact_kernel(spec, params, angles_r, angles_c)
    mr, mc = angles_r.shape[0], angles_c.shape[0]
    rows_a, rows_b = (idx.ravel() for idx in np.indices((mr, mc)))
    prof = _pair_profiles(spec, params, angles_r, angles_c, rows_a, rows_b, config, noise, 1)
    return prof[:, config.tolerance].reshape(mr, mc)


def kernel_entry(spec: FeatureMapSpec, params, x, y, config: KernelConfig,
                 noise: sc.NoiseModel | None = None, seed=None) -> float:
    """Single kernel entry; mostly a readable reference for the batched paths."""
    circ = build_kernel_circuit(spec, params, x, y)
    dist = sc.outcome_distribution(sc.run_circuit(circ), noise)
    if config.shots is None:
        return sc.hamming_mass(dist, spec.n_qubits, config.tolerance)
    counts = sc.sample_counts(dist, spec.n_qubits, config.shots,
                              seed if seed is not None else (config.master_seed,))
    hits = sum(c for bits, c in counts.counts.items()
               if bits.count("1") <= config.tolerance)
    return hits / config.shots


# ---------------------------------------------------------------------------
# positive semidefinite repair and diagnostics
# ---------------------------------------------------------------------------

def psd_project(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest PSD matrix in Frobenius norm, plus the original minimum eigenvalue.

    Clips negative eigenvalues to zero; PSD input comes back unchanged, as the
    same array, not a copy.  Raises ValueError for a NaN or infinite entry.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("matrix must be finite (found NaN or inf)")
    sym = (values + values.T) / 2.0
    w, v = np.linalg.eigh(sym)
    min_eig = float(w[0])
    if min_eig >= 0.0:
        return values, min_eig
    clipped = np.clip(w, 0.0, None)
    proj = (v * clipped) @ v.T
    return (proj + proj.T) / 2.0, min_eig


def repair_psd(estimate: KernelMatrixEstimate) -> KernelMatrixEstimate:
    projected, min_eig = psd_project(estimate.values)
    return replace(estimate, values=projected, psd_projected=min_eig < 0.0,
                   min_eigenvalue_before=min_eig)


def psd_distance(values: np.ndarray) -> float:
    """Frobenius distance between the matrix and its PSD projection, after
    normalizing both to unit Frobenius norm.  Exactly 0.0 for PSD input."""
    values = np.asarray(values, dtype=float)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise ValueError("zero matrix has no normalized PSD distance")
    projected, min_eig = psd_project(values)
    if min_eig >= 0.0:
        return 0.0
    pnorm = np.linalg.norm(projected)
    if pnorm == 0.0:
        raise ValueError("PSD projection collapsed to zero; distance undefined")
    return float(np.linalg.norm(values / norm - projected / pnorm))


def average_diagonal(values: np.ndarray) -> float:
    return float(np.mean(np.diag(values)))


# ---------------------------------------------------------------------------
# readout calibration
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    """Sweep of average diagonal and PSD distance over tolerance and width.

    ``rows`` holds (n_qubits, tolerance, avg_diagonal, psd_distance) tuples;
    ``recommended[(n, threshold)]`` is the smallest tolerance whose average
    diagonal reaches the threshold, or None when no tolerance does.
    """

    noise: sc.NoiseModel
    shots: int | None
    thresholds: tuple[float, ...]
    rows: list[tuple[int, int, float, float]]
    recommended: dict[tuple[int, float], int | None]

    def avg_diagonal(self, n: int, tolerance: int) -> float:
        for rn, rd, avg, _ in self.rows:
            if rn == n and rd == tolerance:
                return avg
        raise KeyError(f"no calibration row for n={n}, tolerance={tolerance}")

    def recommended_tolerance(self, n: int, threshold: float) -> int | None:
        return self.recommended[(n, float(threshold))]


def calibrate(ns, noise: sc.NoiseModel, shots: int | None = None,
              thresholds=(0.9,), samples: int = 15, seed: int = 7,
              angle_scale: float = 2 * np.pi) -> CalibrationReport:
    """Measure how readout noise empties the accepted-outcome mass.

    For each register width, a random dataset and random fiducial parameters
    are drawn, the full kernel matrix is estimated at every tolerance, and the
    average diagonal is recorded.  Diagonal circuits are identity-equivalent,
    so under pure readout noise the average diagonal at tolerance d is the
    binomial CDF of d flips; the recommended tolerance is the smallest one
    whose average diagonal reaches each threshold.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if any(not 0.0 < t <= 1.0 for t in thresholds):
        raise ValueError("thresholds must lie in (0, 1]")
    rows: list[tuple[int, int, float, float]] = []
    recommended: dict[tuple[int, float], int | None] = {}
    for n in ns:
        rng = np.random.default_rng((seed, n))
        xs = rng.uniform(0.0, 1.0, size=(samples, n))
        params = rng.uniform(0.0, 2 * np.pi, size=3 * n)
        spec = make_feature_map(line_coupling(n), n, angle_scale=angle_scale)
        config = KernelConfig(tolerance=0, shots=shots, master_seed=seed + 1000 * n)
        profiles = assemble_profiles(xs, spec, params, config, noise)
        avgs = []
        for d in range(n + 1):
            values = profiles[:, :, d]
            avg = average_diagonal(values)
            avgs.append(avg)
            rows.append((n, d, avg, psd_distance(values)))
        for t in thresholds:
            hit = next((d for d, avg in enumerate(avgs) if avg >= t), None)
            recommended[(n, t)] = hit
    return CalibrationReport(noise, shots, thresholds, rows, recommended)


# ---------------------------------------------------------------------------
# CSV import/export
# ---------------------------------------------------------------------------

def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes one cell of a row of several."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_matrix_csv(values: np.ndarray, path, ids=None) -> None:
    """Matrix with row/column ids; floats via repr so reloads are bit-exact.

    The bytes are those ``csv.writer`` writes for the same rows, built in one
    pass: a float's repr never needs quoting, and ids are quoted as csv would.
    """
    values = np.asarray(values, dtype=float)
    m, k = values.shape
    if k == 0:
        raise ValueError("matrix must have at least one column")
    ids_r = [str(i) for i in range(m)] if ids is None else [_csv_cell(str(i)) for i in ids]
    lines = ["," + ",".join(map(str, range(k)))]
    lines += [",".join([rid, *map(repr, row)]) for rid, row in zip(ids_r, values.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def load_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    import csv

    with open(path, newline="") as fh:
        reader = list(csv.reader(fh))
    if not reader:
        raise ValueError("matrix file is empty")
    ids = []
    rows = []
    for rec in reader[1:]:
        ids.append(rec[0])
        rows.append([float(v) for v in rec[1:]])
    values = np.array(rows)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: matrix cells must be finite (found NaN or inf)")
    return values, ids


def save_calibration_csv(report: CalibrationReport, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_qubits", "tolerance", "avg_diagonal", "psd_distance"])
        for n, d, avg, dist in report.rows:
            w.writerow([n, d, repr(avg), repr(dist)])

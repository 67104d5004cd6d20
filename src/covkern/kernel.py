"""Fidelity-kernel estimation with bit-flip tolerance.

The kernel between two samples is the probability that the kernel circuit
returns an outcome of Hamming weight at most ``tolerance`` (a plain partial
sum over accepted outcomes, no renormalization).  Tolerance 0 is the usual
all-zeros fidelity kernel; raising the tolerance trades specificity for
robustness against readout bit flips.

Gram matrices are assembled from the upper triangle only and mirrored, and
sampled entries draw from one counter-based RNG stream per matrix row; the
stream layout is ``_pair_profiles``'s.

Two evaluation routes exist, and both are tested against the explicit
circuit simulation of ``kernel_entry`` (``simcore.run_circuit``).  Both start
from the fiducial U = D (x)M_q, compiled once per call from its angles with no
circuit (``_compile_fiducial``): M_q fuses qubit q's three rotations into one
2x2 matrix and D is the +-1 diagonal of all the CZ gates.  The embedding
layers collapse to one rotation per qubit about a shared axis, and such
rotations are diagonal in one basis: R(a) = V RZ(a) V^dagger, both R and
V^dagger read from the axis table ``simcore.AXES``.  Let phi = (x)V^dagger psi
be the fiducial state psi = U|0> in that basis.  Every Kronecker product of
per-qubit length-2 factors (D's sign rows, psi as D times the product of the
M_q's first columns, the profile route's diagonals and phase tables, and the
Kronecker blocks of every product layer) comes from one in-place builder,
``simcore.kron_factors``.

The noiseless exact tolerance-0 kernel is a phase-feature Gram product.
With t_k = |phi_k|^2 and signs z_kq = +-1 (+1 when bit q of k is clear), each
sample becomes one row F[k] = sqrt(t_k) exp(-i z_k . a / 2), and
K = |conj(F_a) F_b^T|^2.  That costs O(m_a m_b 2**n) for the product, and the
2**n basis axis is streamed in blocks whose feature and sign rows hold at
most ``_CHUNK_AMPS`` values together.

Every other case (readout noise, shots, tolerance > 0) takes the profile
route: one compiled pair circuit per pair of angle rows (a, b),

    (x)M_q^dagger . D . (x)V . (E(b) * conj(E(a)) * phi),   E(x)_k = exp(-i z_k . x / 2).

Each 2x2 factor of both layers is written in ZYZ Euler form,
diag . RY . diag.  The diagonals fold into phi and D, except the left ones
of (x)M_q^dagger, which are dropped, as a diagonal just before measurement
changes no probability.  What is left is two real product layers, L1 (the
embedding's RYs) and L2 (the M_q's), with one diagonal ``mid`` between them.
A layer's 4-qubit groups act on disjoint qubits, so they commute, and
L2_0 . diag(mid) . L1_0, both group-0 blocks with the diagonal between, is
block-diagonal over the index h of the qubits above group 0: its blocks are
B_h = L2_0 . diag(mid_h) . L1_0, with mid_h the 16 entries of mid whose high
bits are h.  So a pair costs one phase multiply, L1's groups from 1 on,
one stacked matmul by the B_h, and L2's groups from 1 on
(``simcore.product_into``; the embedding layer's blocks are built once per
width and axis, the others once per call).  The stack
(``_middle_blocks``) holds 512 bytes per amplitude of a state, so the middle
is folded only while it fits ``_FOLD_BYTES``, 2 MB, which is every n <= 12;
wider registers apply both layers whole with one diagonal multiply between
them.  Pairs go in tiles of
``max(1, _TILE_AMPS // 2**n)``, so each numpy pass works on a 512 KB array
(2**15 amplitudes) that a core's L2 cache holds; a tile holds its pairs as
the rows of one (pairs, 2**n) complex array.  The tile working set is
allocated once per call and reused by every tile, so no tile-sized array is
allocated (and page-faulted in) per tile: two complex buffers that the
product layers ping-pong between, about 1 MB whatever the number of pairs
(at least two rows when folded: a one-pair tile runs its row twice, so that
the stacked matmul stays on BLAS's matrix-matrix routine).
The per-sample phase tables, E(b) for column samples and conj(E(a)) * phi
for row samples, are built with ``simcore.kron_factors`` in blocks of at
most ``max(1, _TILE_AMPS // 2**n)`` samples, one block per side held at a
time, so the two take at most another 1 MB.  The pairs are walked
block-major: by column block, then row block, then in stream order (row by
row), and tiles are consecutive chunks of that walk whose histograms go back
to the pairs' stream positions.  So each column block is built once and
each row block once per column block, however many blocks a side spans.
Within a block pair a row's pairs share a and run over consecutive b, so a
tile is written with one multiply per run.  Only the Hamming weight of an
outcome matters: the finished tile is squared into the spare buffer's float
view and summed into weight bins by one row matmul per 4-qubit group
(``simcore.weight_histograms``).  Readout noise is then one
(n+1) x (n+1) matrix (``simcore.weight_transfer``, one per width and noise)
applied to each pair's weight histogram, and shots are one multinomial per
matrix row over its pairs' n+1 weight bins.  A pair's numbers come out the
same in whatever tile it falls: every matmul of the product and weight
layers varies only in its row or item count, and one-row products take the
same BLAS routine as wider ones, so results do not depend on the tiling.

The size constants bound different things: ``_TILE_AMPS`` the profile
route's pair tiles, whose elementwise passes are memory-bound,
``_FOLD_BYTES`` its stack of middle blocks, which depends on the width
alone, and ``_CHUNK_AMPS`` (2**21 amplitudes, 32 MB complex) only the exact
route's basis blocks, each of which feeds one BLAS product.  Smaller exact
blocks may pay too, but that is a change to the exact route, measured on
its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import simcore as sc
from .data import parse_records, read_table, write_table
# build_fiducial stays importable here: benchmarks/tracing.py wraps it by this name
from .featuremap import (FeatureMapSpec, build_fiducial, build_kernel_circuit,
                         embedding_angles, fiducial_angles, line_coupling, make_feature_map)

_CHUNK_AMPS = 2 ** 21  # complex amplitudes per exact-route basis block
_TILE_AMPS = 2 ** 15   # complex amplitudes per profile-route tile of pairs
_FOLD_BYTES = 2 ** 21  # largest stack of folded middle blocks, 512 bytes per amplitude: n <= 12


@dataclass(frozen=True)
class KernelConfig:
    """How kernel entries are estimated.

    ``shots=None`` means exact outcome distributions; otherwise each matrix
    row is sampled from its own deterministic RNG stream.  ``estimate_diagonal``
    keeps diagonal entries estimated like any other (their circuits are
    identity-equivalent, which is what calibration exploits); switching it off
    pins them to exact 1.
    """

    tolerance: int = 0
    shots: int | None = None
    estimate_diagonal: bool = True
    master_seed: int = 0

    def __post_init__(self):
        _require_int("tolerance", self.tolerance)
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.shots is not None:
            _require_int("shots", self.shots)
            if self.shots <= 0:
                raise ValueError("shots must be positive when given")
        _require_int("master_seed", self.master_seed)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed!r}")


def _require_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")


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

def _compile_fiducial(spec: FeatureMapSpec, params) -> tuple[np.ndarray, np.ndarray]:
    """The fiducial U = D (x)M_q from ``fiducial_angles``: the (n, 2, 2) stack
    of M_q, one stacked matmul per rotation, and D, doubled from one entry.
    When qubit b joins, the new half is the old half times the signs of b's
    lower tree neighbours' bits, built by ``kron_factors`` from the lowest of
    them up and repeated over the bits below it.  The width is checked before D."""
    n = spec.n_qubits
    mats = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2))
    for axis, angles in zip(spec.axes, fiducial_angles(spec, params).T):
        rotate, _ = sc.AXES[axis]
        mats = np.moveaxis(rotate(angles), -1, 0) @ mats
    sc._check_n(n)
    signs, low = np.ones((n, n, 2)), list(range(n))   # signs[b, a]: a's (clear, set) pair
    for a, b in map(sorted, spec.plan.tree_edges):
        signs[b, a, 1], low[b] = -1.0, min(low[b], a)
    diag = np.ones(2 ** n)
    for b, lo in enumerate(low):
        np.multiply(diag[:1 << b].reshape(-1, 1 << lo), sc.kron_factors(signs[b, lo:b])[:, None],
                    out=diag[1 << b:2 << b].reshape(-1, 1 << lo))
    return mats, diag


def _fiducial_state(mats: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """U|0> = D (x)M_q|0>: the tensor product of the first columns of the M_q."""
    return diag * sc.kron_factors(mats[:, :, 0])


def _to_z_basis(psi: np.ndarray, n: int, axis: str) -> np.ndarray:
    """(x)V^dagger psi: the state in the basis where the embedding is diagonal."""
    _, to_z = sc.rotation_axis(axis)
    blocks = sc.product_blocks(n, [to_z] * n)
    cur = np.array(psi, dtype=complex).reshape(1, -1)   # a copy to overwrite
    return sc.product_into(cur, np.empty_like(cur), blocks)[0].reshape(-1)


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

def _zyz(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, RY, right) with u = diag(left) . RY . diag(right), RY real
    orthogonal: the ZYZ Euler form (Nielsen & Chuang, Thm 4.1) of each 2x2
    unitary in a stack.

    u = g [[a, -conj(b)], [b, conj(a)]] with g**2 = det u; with alpha = arg a
    and theta = arg b, left is g exp(+-i (alpha - theta) / 2) and right
    exp(+-i (alpha + theta) / 2).  A zero a or b (u anti-diagonal or
    diagonal) has phase 0, which serves.
    """
    g = np.sqrt(u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0] + 0j)[..., None]
    ab = u[..., :, 0] / g
    half = 0.5j * np.angle(ab)
    left = g * np.exp(np.stack([half[..., 0] - half[..., 1], half[..., 1] - half[..., 0]], -1))
    right = np.exp(np.stack([half[..., 0] + half[..., 1], -half[..., 0] - half[..., 1]], -1))
    c, s = np.abs(ab[..., 0]), np.abs(ab[..., 1])
    return left, np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2), right


@functools.lru_cache(maxsize=None)
def _embedding_layer(n: int, axis: str) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """(x)V on n qubits about ``axis`` in ZYZ form: its left phases, the
    Kronecker blocks of its RY layer and its right phases, built once per
    width and axis and shared read-only by every profile call."""
    _, to_z = sc.AXES[axis]
    left, embed, right = _zyz(to_z.conj().T)
    blocks = sc.product_blocks(n, [embed] * n)
    for a in (left, right, *blocks):
        a.flags.writeable = False
    return left, blocks, right


def _middle_blocks(first: np.ndarray, mid: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The stack of B_h = last . diag(mid[s h : s h + s]) . first, one per
    index h of the qubits above the s-amplitude group 0, each in the real
    (2s, 2s) form that right-multiplies a row of s complex amplitudes held as
    interleaved floats: entry (k, j) of B_h^T becomes [[Re, Im], [-Im, Re]].
    ``first`` and ``last`` are real.

    Read as floats, row (k, 0) of that form is row k of B_h^T and row (k, 1)
    row k of i B_h^T.  So one batched real matmul, first^T times the float
    view of diag(mid_h) last^T, writes every row (k, 0), and one multiply by
    i the rows (k, 1).
    """
    s = first.shape[0]
    out = np.empty((mid.size // s, s, 2, s), dtype=complex)   # (h, k, row half, j)
    np.matmul(first.T, np.multiply(mid.reshape(-1, s, 1), last.T, order="C").view(float),
              out=out[:, :, 0].view(float))
    np.multiply(out[:, :, 0], 1j, out=out[:, :, 1])
    return out.view(float).reshape(-1, 2 * s, 2 * s)


def _pair_profiles(spec: FeatureMapSpec, params, angles_a, angles_b, config: KernelConfig,
                   noise) -> np.ndarray:
    """Cumulative weight-mass profiles (m_a, m_b, n+1) of every pair of angle
    rows (angles_a[i], angles_b[j]), sampled when ``config.shots`` is set;
    ``angles_b=None`` means the Gram matrix of angles_a, whose upper triangle
    is evaluated and mirrored, with its diagonal when ``estimate_diagonal``
    is set (exact 1 otherwise).

    The pair state is (x)M_q^dagger . D . (x)V . (E(b) * conj(E(a)) * phi),
    with both layers in ZYZ form (``_zyz``), evaluated one tile of pairs at a
    time, each pair a row, on buffers allocated once per call (see the module
    docstring); the last, short tile takes a leading part of each.  Up to
    n = 12 (``_FOLD_BYTES``) a tile runs these passes:

    1. the phase multiply, one per run of a row's columns;
    2. the embedding layer's groups from 1 on;
    3. one matmul of the tile's float view, seen as (2**n / s, pairs, 2s),
       by the stack of folded middle blocks (``_middle_blocks``), written
       through the same view of the spare buffer;
    4. the fiducial layer's groups from 1 on;
    5. the squares, summed into weight bins by ``simcore.weight_histograms``.

    Wider registers replace passes 2 to 4 by both layers whole and one
    diagonal multiply between them.  ``out`` holds the pairs' weight
    histograms, noise applied, until their cumulative sums replace them.

    Shots draw from one RNG stream per matrix row, so assembly order and
    tiling cannot change sampled results, a leading block of rows or columns
    reproduces the full call's, and every tolerance reuses the same counts.
    The streams are counter-based (Salmon et al., SC'11): one Philox key per
    call, ``SeedSequence((master_seed, tag)).generate_state(2, uint64)`` with
    tag 0 for a Gram and 1 for a cross block.  Row i is one ``multinomial``
    over the normalised histograms of its columns in ascending order (j > i
    for a Gram) from counter (0, 0, i, 0), and a Gram diagonal one more from
    (0, 1, 0, 0).  A stream advances only the two low counter words, so none
    reaches another's, and its counts are those of
    ``Generator(Philox(key=key, counter=counter)).multinomial(shots, h)``.
    """
    n, m_a = spec.n_qubits, angles_a.shape[0]
    gram = angles_b is None
    tag = 0 if gram else 1
    if gram:
        rows_a, rows_b = np.triu_indices(m_a, k=1)
        streams = [([0, 0, i, 0], m_a - 1 - i) for i in range(m_a - 1)]
        if config.estimate_diagonal:
            rows_a, rows_b = (np.concatenate([idx, np.arange(m_a)]) for idx in (rows_a, rows_b))
            streams.append(([0, 1, 0, 0], m_a))
        angles_b = angles_a
    else:
        rows_a, rows_b = (idx.ravel() for idx in np.indices((m_a, angles_b.shape[0])))
        streams = [([0, 0, i, 0], angles_b.shape[0]) for i in range(m_a)]
    mats, fid_diag = _compile_fiducial(spec, params)
    left, to_embed, right = _embedding_layer(n, spec.embed_axis)
    _, undo_ry, undo_right = _zyz(np.conj(mats).transpose(0, 2, 1))
    phi = _to_z_basis(_fiducial_state(mats, fid_diag), n, spec.embed_axis)
    phi *= sc.kron_factors([right] * n)
    mid = fid_diag * sc.kron_factors(undo_right * left)
    undo_fid = sc.product_blocks(n, undo_ry)
    s = to_embed[0].shape[0]
    fold = 2 ** n * 32 * s <= _FOLD_BYTES   # the stack: 2**n / s blocks of (2s)**2 floats
    if fold:
        stack = _middle_blocks(to_embed[0], mid, undo_fid[0])
    layers = sc.weight_layers(n)
    b = rows_a.shape[0]
    per = max(1, _TILE_AMPS // 2 ** n)   # pairs per tile, samples per phase table block
    tile = max(1, min(b, per))
    out = np.empty((b, n + 1))
    transfer = sc.weight_transfer(n, noise or sc.NoiseModel())   # the identity without noise
    amps = np.empty((2, max(tile, 2 * fold) * 2 ** n), dtype=complex)

    def phase_rows(angles, times):
        """``rows(k)``: rows k.. of E(x) * times, E(x)_k = exp(-i z_k . x / 2),
        for the samples x of ``angles``, up to the end of k's block of ``per``
        samples; one block is held at a time."""
        @functools.lru_cache(maxsize=1)
        def block(first):
            f = np.exp(-0.5j * angles[first:first + per].T)
            e = sc.kron_factors(np.stack([f, f.conj()], axis=1))
            return np.multiply(e.T, times, order="C")
        return lambda k: block(k - k % per)[k % per:]

    # the walk is block-major, so each column block of E(b) is built once and
    # each row block once per column block; the sort is stable, so within a
    # block pair the pairs keep their stream order, row by row, and each run of
    # a tile that shares i and one block of E(b) is one multiply:
    # E(b_j) * conj(E(a_i)) * phi, with conj(E(a)) = E(-a)
    walk = np.lexsort((rows_a // per, rows_b // per))
    walk_a, walk_b = rows_a[walk], rows_b[walk]
    rows_e, rows_conj = phase_rows(angles_b, 1.0), phase_rows(-angles_a, phi)
    new_run = ((np.diff(walk_a, prepend=-1) != 0) | (np.diff(walk_b, prepend=-1) != 1)
               | (walk_b % per == 0))
    new_run[::tile] = True   # and every tile starts one
    for lo in range(0, b, tile):
        hi = min(lo + tile, b)
        t = hi - lo
        u = max(t, 2 * fold)   # rows through the layers, at least two when folded
        cur, spare = (buf[:u * 2 ** n].reshape(u, -1) for buf in amps)
        starts = np.flatnonzero(new_run[lo:hi]).tolist()
        for r0, r1 in zip(starts, [*starts[1:], t]):
            np.multiply(rows_e(walk_b[lo + r0])[:r1 - r0], rows_conj(walk_a[lo + r0])[0],
                        out=cur[r0:r1])
        if fold:
            cur[t:] = cur[:1]   # a one-pair tile feeds its row twice, as matmul_rows does
            cur, spare = sc.product_into(cur, spare, to_embed, start=1)
            np.matmul(cur.view(float).reshape(u, -1, 2 * s).transpose(1, 0, 2), stack,
                      out=spare.view(float).reshape(u, -1, 2 * s).transpose(1, 0, 2))
            cur, spare = sc.product_into(spare, cur, undo_fid, start=1)
        else:
            cur, spare = sc.product_into(cur, spare, to_embed)
            cur *= mid
            cur, spare = sc.product_into(cur, spare, undo_fid)
        squares = np.square(cur[:t].view(float), out=spare[:t].view(float))
        out[walk[lo:hi]] = sc.matmul_rows(sc.weight_histograms(squares, layers), transfer.T)
    if config.shots is None:
        np.cumsum(out, axis=1, out=out)
    else:
        key = np.random.SeedSequence((config.master_seed, tag)).generate_state(2, np.uint64)
        bitgen = np.random.Philox(key=key)
        gen = np.random.Generator(bitgen)
        state = {"bit_generator": "Philox", "state": {"counter": None, "key": key.tolist()},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        out /= out.sum(axis=1, keepdims=True)
        lo = 0
        for counter, pairs in streams:
            state["state"]["counter"] = counter
            bitgen.state = state
            rows = out[lo:lo + pairs]
            np.cumsum(gen.multinomial(config.shots, rows), axis=1, out=rows)
            lo += pairs
        out /= config.shots
    if not gram:
        return out.reshape(m_a, angles_b.shape[0], n + 1)
    full = np.ones((m_a, m_a, n + 1))
    full[rows_a, rows_b] = out
    full[rows_b, rows_a] = out
    return full


def _check_tolerance(config: KernelConfig, n_qubits: int) -> None:
    if config.tolerance > n_qubits:
        raise ValueError(f"tolerance {config.tolerance} exceeds qubit count {n_qubits}")


def _exact_route(spec: FeatureMapSpec, config: KernelConfig, noise) -> bool:
    """Whether the noiseless exact tolerance-0 Gram product serves ``config``;
    a tolerance above the register width is a ValueError."""
    _check_tolerance(config, spec.n_qubits)
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
    return _pair_profiles(spec, params, embedding_angles(spec, xs), None, config, noise)


def matrix_from_profiles(profiles: np.ndarray, config: KernelConfig) -> KernelMatrixEstimate:
    _check_tolerance(config, profiles.shape[2] - 1)
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
    angles = embedding_angles(spec, xs)
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
    angles_r, angles_c = embedding_angles(spec, xs_rows), embedding_angles(spec, xs_cols)
    if _exact_route(spec, config, noise):
        return _exact_kernel(spec, params, angles_r, angles_c)
    prof = _pair_profiles(spec, params, angles_r, angles_c, config, noise)
    return np.array(prof[:, :, config.tolerance])


def kernel_entry(spec: FeatureMapSpec, params, x, y, config: KernelConfig,
                 noise: sc.NoiseModel | None = None, seed=None) -> float:
    """Single kernel entry; mostly a readable reference for the batched paths."""
    _check_tolerance(config, spec.n_qubits)
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

def symmetric_eigh(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascending eigenvalues and eigenvectors of a finite matrix's symmetric part,
    and m * eps * max|lambda|, the accuracy of a symmetric eigensolver (Golub &
    Van Loan, Matrix Computations, 4th ed., 8.1): an eigenvalue within it cannot
    be told from zero.  Raises ValueError for a matrix that is not square or
    has no rows, or a NaN or infinite entry."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0:
        raise ValueError(f"values must be a square matrix with at least one row, "
                         f"got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("matrix must be finite (found NaN or inf)")
    w, v = np.linalg.eigh((values + values.T) / 2.0)
    return w, v, values.shape[0] * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))


def psd_project(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest PSD matrix in Frobenius norm, plus the original minimum eigenvalue.

    Clips negative eigenvalues to zero.  A minimum eigenvalue within
    ``symmetric_eigh``'s rounding bound counts as zero, so PSD input comes
    back unchanged, as the same array, not a copy.  Raises ValueError for a
    NaN or infinite entry.
    """
    values = np.asarray(values, dtype=float)
    w, v, bound = symmetric_eigh(values)
    min_eig = float(w[0])
    if min_eig >= -bound:
        return values, min_eig
    clipped = np.clip(w, 0.0, None)
    proj = (v * clipped) @ v.T
    return (proj + proj.T) / 2.0, min_eig


def repair_psd(estimate: KernelMatrixEstimate) -> KernelMatrixEstimate:
    projected, min_eig = psd_project(estimate.values)
    return replace(estimate, values=projected, psd_projected=projected is not estimate.values,
                   min_eigenvalue_before=min_eig)


def psd_distance(values: np.ndarray) -> float:
    """Frobenius distance between the matrix and its PSD projection, after
    normalizing both to unit Frobenius norm.  Exactly 0.0 for PSD input."""
    values = np.asarray(values, dtype=float)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise ValueError("zero matrix has no normalized PSD distance")
    projected, _ = psd_project(values)
    if projected is values:
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
    ns = tuple(ns)
    if not ns:
        raise ValueError("calibration needs at least one register width, got none")
    if len(set(ns)) != len(ns):
        raise ValueError(f"calibration register widths must be distinct, got {list(ns)}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("calibration needs at least one threshold, got none")
    if len(set(thresholds)) != len(thresholds):
        raise ValueError(f"calibration thresholds must be distinct, got {list(thresholds)}")
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

def save_matrix_csv(values: np.ndarray, path, ids=None) -> None:
    """Matrix with row/column ids; floats via repr so reloads are bit-exact."""
    values = np.asarray(values, dtype=float)
    m, k = values.shape
    if k == 0:
        raise ValueError("matrix must have at least one column")
    ids = range(m) if ids is None else ids
    write_table(path, ["", *map(str, range(k))],
                ([str(rid), *map(repr, row)] for rid, row in zip(ids, values.tolist())))


def load_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    records = read_table(path)
    if not records:
        raise ValueError(f"{path}: matrix file is empty")
    rows = parse_records(path, records[1:], lambda cells: list(map(float, cells[1:])))
    values = np.array(rows).reshape(len(rows), len(records[0][1]) - 1)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: matrix cells must be finite (found NaN or inf)")
    return values, [cells[0] for _, cells in records[1:]]


def save_calibration_csv(report: CalibrationReport, path) -> None:
    write_table(path, ["n_qubits", "tolerance", "avg_diagonal", "psd_distance"],
                ([str(n), str(d), repr(avg), repr(dist)] for n, d, avg, dist in report.rows))

"""Kernel estimation: exact routes vs circuit oracles, BFT profiles, PSD repair."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import simcore as sc


def dense_rotation(n, axis, deltas):
    """Kron-built product rotation, qubit 0 least significant."""
    mats = {
        "x": lambda t: np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                                 [-1j * np.sin(t / 2), np.cos(t / 2)]]),
        "y": lambda t: np.array([[np.cos(t / 2), -np.sin(t / 2)],
                                 [np.sin(t / 2), np.cos(t / 2)]], dtype=complex),
        "z": lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]),
    }
    u = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        u = np.kron(u, mats[axis](deltas[q]))
    return u


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return psi / np.linalg.norm(psi)


# ------------------------------------------------------- phase-feature Gram product

def test_product_rotation_overlaps_match_dense_oracle():
    rng = np.random.default_rng(2)
    for axis in ("x", "y", "z"):
        for n in (1, 2, 4):
            psi = random_state(n, seed=(3, n))
            deltas = rng.uniform(-2 * np.pi, 2 * np.pi, size=(6, n))
            got = kn.overlap_kernel_from_state(psi, np.zeros((1, n)), deltas, axis)[0]
            for row, d in zip(got, deltas):
                amp = psi.conj() @ dense_rotation(n, axis, d) @ psi
                assert row == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_overlap_kernel_shapes_and_symmetry():
    psi = random_state(3, seed=9)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(2, 3))
    square = kn.overlap_kernel_from_state(psi, a)
    assert square.shape == (5, 5)
    np.testing.assert_allclose(square, square.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(square), 1.0, atol=1e-12)
    rect = kn.overlap_kernel_from_state(psi, a, b)
    assert rect.shape == (5, 2)
    for i, j in itertools.product(range(5), range(2)):
        single = kn.overlap_kernel_from_state(psi, np.zeros((1, 3)), (b[j] - a[i])[None, :])[0]
        assert rect[i, j] == pytest.approx(single[0], abs=1e-12)


def test_overlap_kernel_rejects_mismatched_state():
    with pytest.raises(ValueError):
        kn.overlap_kernel_from_state(random_state(2, 1), np.zeros((1, 3)), np.zeros((1, 3)))


@st.composite
def state_and_angles(draw):
    n = draw(st.integers(1, 5))
    parts = hnp.arrays(float, (2, 2 ** n), elements=st.floats(-1.0, 1.0))
    re, im = draw(parts)
    psi = re + 1j * im
    norm = np.linalg.norm(psi)
    psi = psi / norm if norm > 1e-3 else np.eye(2 ** n)[0].astype(complex)
    m = draw(st.integers(1, 4))
    angles = draw(hnp.arrays(float, (m, n), elements=st.floats(-4 * np.pi, 4 * np.pi)))
    return psi, angles, draw(st.sampled_from("xyz"))


@settings(max_examples=60, deadline=None)
@given(state_and_angles())
def test_overlap_kernel_properties(case):
    psi, angles, axis = case
    n = angles.shape[1]
    k = kn.overlap_kernel_from_state(psi, angles, axis=axis)
    assert k.flags.owndata   # no view that keeps the complex amplitudes alive
    np.testing.assert_allclose(k, k.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-12)
    assert k.min() >= 0.0 and k.max() <= 1.0 + 1e-12
    for i, j in itertools.product(range(len(angles)), repeat=2):
        delta = angles[j] - angles[i]
        single = kn.overlap_kernel_from_state(psi, np.zeros((1, n)), delta[None, :], axis)[0, 0]
        dense = abs(psi.conj() @ dense_rotation(n, axis, delta) @ psi) ** 2
        assert k[i, j] == pytest.approx(single, abs=1e-12)
        assert k[i, j] == pytest.approx(dense, abs=1e-12)


# ------------------------------------------------------- exact assemblies

def test_assemble_matrix_fast_path_matches_entry_circuits():
    rng = np.random.default_rng(21)
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=1.7)
    params = rng.uniform(-np.pi, np.pi, 9)
    xs = rng.normal(size=(4, 3))
    config = kn.KernelConfig()
    est = kn.assemble_matrix(xs, spec, params, config)
    for i in range(4):
        for j in range(4):
            ref = kn.kernel_entry(spec, params, xs[i], xs[j], config)
            assert est.values[i, j] == pytest.approx(ref, abs=1e-12)
    np.testing.assert_allclose(est.values, est.values.T, atol=0)


def test_assemble_cross_matches_entry_circuits():
    rng = np.random.default_rng(22)
    spec = fm.make_feature_map(fm.line_coupling(2), 2, angle_scale=0.9)
    params = rng.uniform(-np.pi, np.pi, 6)
    rows, cols = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
    got = kn.assemble_cross(rows, cols, spec, params, kn.KernelConfig())
    assert got.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            ref = kn.kernel_entry(spec, params, rows[i], cols[j], kn.KernelConfig())
            assert got[i, j] == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_entry_rejects_non_finite_features(bad):
    # the reference circuit takes the same checked angle map as the batched routes
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    with pytest.raises(ValueError, match="finite"):
        kn.kernel_entry(spec, np.zeros(6), np.array([0.1, bad]), np.zeros(2), kn.KernelConfig())
    with pytest.raises(ValueError, match="finite"):
        kn.kernel_entry(spec, np.zeros(6), np.zeros(2), np.array([bad, 0.1]), kn.KernelConfig())


@pytest.mark.parametrize("shots", [None, 100])
def test_kernel_entry_rejects_tolerance_above_register_like_the_batched_routes(shots):
    # the oracle once returned the total mass (0.9999999999999999 at n=3, tolerance 5)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params, xs = np.zeros(9), np.full((2, 3), 0.3)
    config = kn.KernelConfig(tolerance=5, shots=shots)
    message = "tolerance 5 exceeds qubit count 3"
    for call in (lambda: kn.kernel_entry(spec, params, xs[0], xs[1], config),
                 lambda: kn.assemble_matrix(xs, spec, params, config),
                 lambda: kn.assemble_cross(xs, xs, spec, params, config)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("config, noise", [
    (kn.KernelConfig(), None),
    (kn.KernelConfig(shots=20), None),
    (kn.KernelConfig(tolerance=1), None),
    (kn.KernelConfig(), sc.NoiseModel(p01=0.1, p10=0.05)),
], ids=["exact", "sampled", "tolerance", "noisy"])
def test_cross_blocks_with_no_rows_or_no_columns_are_empty(config, noise):
    rng = np.random.default_rng(23)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = rng.uniform(-np.pi, np.pi, 9)
    xs = rng.normal(size=(4, 3))
    assert kn.assemble_cross(xs[:0], xs, spec, params, config, noise).shape == (0, 4)
    assert kn.assemble_cross(xs, xs[:0], spec, params, config, noise).shape == (4, 0)


def test_diagonal_pinning_flag():
    rng = np.random.default_rng(6)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = rng.uniform(-1, 1, 9)
    xs = rng.normal(size=(3, 3))
    pinned = kn.assemble_matrix(xs, spec, params, kn.KernelConfig(estimate_diagonal=False))
    np.testing.assert_array_equal(np.diag(pinned.values), 1.0)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_blocked_exact_route_matches_unblocked_and_entry_circuits(axis, monkeypatch):
    rng = np.random.default_rng(23)
    n = 4
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=("z", "y", axis), angle_scale=1.3)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    rows, cols = rng.normal(size=(3, n)), rng.normal(size=(2, n))
    config = kn.KernelConfig()
    whole_square = kn.assemble_matrix(rows, spec, params, config).values
    whole_rect = kn.assemble_cross(rows, cols, spec, params, config)

    spans = set()
    phase_rows = kn._phase_rows

    def recording_phase_rows(angles, lo, hi):
        spans.add((lo, hi))
        return phase_rows(angles, lo, hi)

    monkeypatch.setattr(kn, "_phase_rows", recording_phase_rows)
    monkeypatch.setattr(kn, "_CHUNK_AMPS", 50)
    cases = ((rows, whole_square, lambda: kn.assemble_matrix(rows, spec, params, config).values),
             (cols, whole_rect, lambda: kn.assemble_cross(rows, cols, spec, params, config)))
    for others, whole, blocked in cases:
        spans.clear()
        got = blocked()
        blocks = sorted(spans)
        widths = {hi - lo for lo, hi in blocks}
        assert len(blocks) >= 3 and len(widths) > 1
        assert blocks[0][0] == 0 and blocks[-1][1] == 2 ** n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        np.testing.assert_allclose(got, whole, rtol=0, atol=1e-12)
        for i, j in np.ndindex(*got.shape):
            ref = kn.kernel_entry(spec, params, rows[i], others[j], config)
            assert got[i, j] == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_assemblies_reject_non_finite_features(bad):
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    params = np.zeros(6)
    good = np.zeros((3, 2))
    xs = good.copy()
    xs[2, 1] = bad
    config = kn.KernelConfig()
    with pytest.raises(ValueError, match="finite"):
        kn.assemble_matrix(xs, spec, params, config)
    with pytest.raises(ValueError, match="finite"):
        kn.assemble_cross(good, xs, spec, params, config)
    with pytest.raises(ValueError, match="finite"):
        kn.assemble_profiles(xs, spec, params, config)


@pytest.mark.parametrize("params, message", [
    (np.r_[np.zeros(4), np.nan, np.zeros(4)], "fiducial parameters must be finite"),
    (np.r_[-np.inf, np.zeros(8)], "fiducial parameters must be finite"),
    (np.zeros(8), "expected 9 fiducial parameters"),
], ids=["nan", "inf", "short"])
@pytest.mark.parametrize("config, noise", [
    (kn.KernelConfig(), None),
    (kn.KernelConfig(), sc.NoiseModel(p01=0.1, p10=0.05)),
    (kn.KernelConfig(shots=100), sc.NoiseModel(p01=0.1, p10=0.05)),
], ids=["exact", "noisy-exact", "sampled"])
def test_every_route_rejects_bad_fiducial_parameters(params, message, config, noise):
    # a NaN parameter once gave all-NaN exact and noisy matrices with
    # RuntimeWarnings, failed inside numpy's multinomial when sampled, and
    # made kernel_entry return nan
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    xs = np.random.default_rng(24).normal(size=(3, 3))
    with pytest.raises(ValueError, match=message):
        kn.assemble_matrix(xs, spec, params, config, noise)
    with pytest.raises(ValueError, match=message):
        kn.assemble_cross(xs[:2], xs, spec, params, config, noise)
    with pytest.raises(ValueError, match=message):
        kn.kernel_entry(spec, params, xs[0], xs[1], config, noise, seed=1)


_ORACLE_CASES = [(n, coupling) for n in (1, 2, 3, 5, 8, 13)
                 for coupling in ("line", "ring", "heavy-hex") if n >= 3 or coupling != "ring"]


@pytest.mark.parametrize("axes", [("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")])
@pytest.mark.parametrize("n, coupling", _ORACLE_CASES)
def test_compiled_fiducial_is_the_fiducial_circuit(n, coupling, axes):
    # the compile reads fiducial_angles, not the circuit: its state must be
    # the circuit's, its fused matrices the circuit's rotations multiplied
    # gate by gate, and its diagonal the +-1 parity of the CZ tree built
    # index by index, bit for bit
    spec = fm.make_feature_map(_COUPLINGS[coupling](n), n, axes=axes)
    params = np.random.default_rng(n).uniform(-np.pi, np.pi, 3 * n)
    params[::4] = 0.0
    mats, diag = kn._compile_fiducial(spec, params)
    circuit = fm.build_fiducial(spec, params)
    np.testing.assert_allclose(kn._fiducial_state(mats, diag),
                               sc.run_circuit(circuit), rtol=0, atol=1e-13)
    fused = np.array([np.eye(2, dtype=complex)] * n)
    idx = np.arange(2 ** n)
    parity = np.zeros(2 ** n, dtype=idx.dtype)
    for g in circuit.gates:
        if g.name == "cz":
            a, b = g.qubits
            parity ^= (idx >> a) & (idx >> b) & 1
        else:
            fused[g.qubits[0]] = sc.AXES[g.name[1:]][0](g.angle) @ fused[g.qubits[0]]
    assert mats.tobytes() == fused.tobytes()
    assert diag.tobytes() == (1.0 - 2.0 * parity).tobytes()


def test_assemblies_check_the_width_before_any_register_array(monkeypatch):
    # a 25-qubit spec builds no Circuit on the kernel routes, so the compile's
    # own width check must fail the call before any 2**25 array is allocated
    n = sc.MAX_QUBITS + 1
    spec = fm.make_feature_map(fm.line_coupling(n), n)
    xs, params = np.zeros((2, n)), np.zeros(3 * n)
    limit = 2 ** sc.MAX_QUBITS

    def guard(module, name, size):
        fn = getattr(module, name)

        def guarded(*args, **kwargs):
            assert size(*args) <= limit, f"{name} of a register wider than {sc.MAX_QUBITS}"
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, guarded)

    guard(sc, "kron_factors", lambda pairs: 2 ** len(pairs))
    guard(np, "concatenate", lambda arrays, *rest: sum(np.size(a) for a in arrays))
    guard(np, "arange", lambda *args: max((abs(a) for a in args if isinstance(a, int)), default=0))
    for name in ("empty", "zeros", "ones"):
        guard(np, name, lambda shape, *rest: np.prod(shape))
    for config, noise in ((kn.KernelConfig(), None),
                          (kn.KernelConfig(shots=100), sc.NoiseModel(p01=0.1))):
        with pytest.raises(ValueError, match=f"qubit count {n} outside supported range 1..24"):
            kn.assemble_matrix(xs, spec, params, config, noise)
        with pytest.raises(ValueError, match=f"qubit count {n} outside supported range 1..24"):
            kn.assemble_cross(xs, xs, spec, params, config, noise)


# (qubits, fiducial axes, noise, _TILE_AMPS or None to keep it): the first case
# is the plain one; the others cover every embed axis with p01 != p10 plus
# depolarizing, with tiles of 48 // 16 = 3 pairs, so 10 Gram pairs and 12
# cross pairs take 4 tiles each
_NOISY_CASES = [
    (3, ("z", "y", "x"), sc.NoiseModel(p01=0.05, p10=0.01), None),
    *((4, axes, sc.NoiseModel(p01=0.07, p10=0.13, depolarizing=0.05), 48)
      for axes in (("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z"))),
]


def test_noisy_exact_entries_match_circuit_distribution(monkeypatch):
    # with noise the assembly must leave the fast path and honor the channel;
    # each unordered pair is evaluated once in i < j order and mirrored, and
    # every profile (Gram and cross, tiled or not) is the circuit oracle's
    rng = np.random.default_rng(12)
    for n, axes, noise, tile_amps in _NOISY_CASES:
        spec = fm.make_feature_map(fm.line_coupling(n), n, axes=axes)
        params = rng.uniform(-np.pi, np.pi, 3 * n)
        xs = rng.normal(size=(n, n))
        rows = rng.normal(size=(3, n))

        def oracle(x, y):
            circ = fm.build_kernel_circuit(spec, params, x, y)
            dist = sc.outcome_distribution(sc.run_circuit(circ), noise)
            return sc.weight_mass_profile(dist)

        for d in (0, 1, n):
            est = kn.assemble_matrix(xs, spec, params, kn.KernelConfig(tolerance=d), noise)
            for i in range(n):
                for j in range(i, n):
                    assert est.values[i, j] == pytest.approx(oracle(xs[i], xs[j])[d], abs=1e-12)
                    assert est.values[j, i] == est.values[i, j]

        with monkeypatch.context() as patch:
            chunks = []
            histograms = sc.weight_histograms

            def counting_histograms(squares, layers):
                chunks.append(squares.shape[0])
                return histograms(squares, layers)

            patch.setattr(sc, "weight_histograms", counting_histograms)
            if tile_amps is not None:
                patch.setattr(kn, "_TILE_AMPS", tile_amps)
            prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
            cross = [kn.assemble_cross(rows, xs, spec, params, kn.KernelConfig(tolerance=d), noise)
                     for d in range(n + 1)]
        if tile_amps is not None:
            # the profile call, then each cross call, all split the same way
            assert len(chunks) == (n + 2) * 4 and max(chunks) == 3
        for i in range(n):
            for j in range(i, n):
                np.testing.assert_allclose(prof[i, j], oracle(xs[i], xs[j]), rtol=0, atol=1e-12)
                np.testing.assert_array_equal(prof[j, i], prof[i, j])
        for i, j in np.ndindex(3, n):
            ref = oracle(rows[i], xs[j])
            for d in range(n + 1):
                assert cross[d][i, j] == pytest.approx(ref[d], abs=1e-12)


def test_tolerance_cannot_exceed_register():
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    xs = np.zeros((2, 2))
    cfg = kn.KernelConfig(tolerance=3)
    with pytest.raises(ValueError):
        kn.assemble_matrix(xs, spec, np.zeros(6), cfg, sc.NoiseModel(p01=0.1))
    with pytest.raises(ValueError):
        kn.assemble_cross(xs, xs, spec, np.zeros(6), cfg, sc.NoiseModel(p01=0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        kn.KernelConfig(tolerance=-1)
    with pytest.raises(ValueError):
        kn.KernelConfig(shots=0)


# ------------------------------------------------------- BFT profiles

@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_kron_builder_matches_kron_oracle(n):
    # entry k is the product of qubit q's clear-bit or set-bit factor, qubit 0
    # the low bit: np.kron(pairs[n-1], ..., pairs[0]), for each batch column
    rng = np.random.default_rng(n)
    pairs = rng.normal(size=(n, 2, 3)) + 1j * rng.normal(size=(n, 2, 3))

    def oracle(factors):
        dense = np.ones(1, dtype=complex)
        for q in reversed(range(n)):
            dense = np.kron(dense, factors[q])
        return dense

    np.testing.assert_allclose(sc.kron_factors(pairs[:, :, 0]), oracle(pairs[:, :, 0]),
                               rtol=0, atol=1e-12)
    batched = sc.kron_factors(pairs)
    assert batched.shape == (2 ** n, 3)
    for r in range(3):
        np.testing.assert_allclose(batched[:, r], oracle(pairs[:, :, r]), rtol=0, atol=1e-12)
    assert sc.kron_factors(pairs[:0]).tolist() == [[1.0] * 3]   # no qubits: the empty product


@pytest.mark.parametrize("estimate_diagonal", [True, False])
@pytest.mark.parametrize("shots", [None, 300])
def test_gram_profiles_are_the_row_layout_of_their_pairs(estimate_diagonal, shots):
    # angles_b=None evaluates pairs (i, j > i), then (i, i) when the diagonal is
    # estimated, and mirrors them; sampled rows draw from counter (0, 0, i, 0)
    # and the diagonal from (0, 1, 0, 0) under tag 0.  Exact pairs are the
    # cross route's pairs bit for bit, whatever tile they fall in
    rng = np.random.default_rng(47)
    n, m, seed = 4, 7, 13
    spec = fm.make_feature_map(fm.line_coupling(n), n)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    angles = fm.embedding_angles(spec, rng.normal(size=(m, n)))
    noise = sc.NoiseModel(p01=0.05, p10=0.02, depolarizing=0.01)
    cfg = kn.KernelConfig(shots=shots, estimate_diagonal=estimate_diagonal, master_seed=seed)
    pairs = kn._pair_profiles(spec, params, angles, angles, replace(cfg, shots=None), noise)
    key = np.random.SeedSequence((seed, 0)).generate_state(2, np.uint64)

    def row(exact, counter):
        if shots is None:
            return exact
        h = np.diff(exact, prepend=0.0, axis=-1)
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        return np.cumsum(gen.multinomial(shots, h / h.sum(axis=-1, keepdims=True)),
                         axis=-1) / shots

    expected = np.ones((m, m, n + 1))
    for i in range(m - 1):
        expected[i, i + 1:] = expected[i + 1:, i] = row(pairs[i, i + 1:], [0, 0, i, 0])
    if estimate_diagonal:
        diag = np.arange(m)
        expected[diag, diag] = row(pairs[diag, diag], [0, 1, 0, 0])
    gram = kn._pair_profiles(spec, params, angles, None, cfg, noise)
    np.testing.assert_array_equal(gram, expected)


def test_profiles_are_cumulative_and_end_at_total_mass():
    rng = np.random.default_rng(30)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = rng.uniform(-np.pi, np.pi, 9)
    xs = rng.normal(size=(4, 3))
    prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), sc.NoiseModel(p01=0.04))
    assert prof.shape == (4, 4, 4)
    assert np.all(np.diff(prof, axis=2) >= -1e-15)
    np.testing.assert_allclose(prof[:, :, -1], 1.0, atol=1e-12)
    np.testing.assert_allclose(prof, np.transpose(prof, (1, 0, 2)), atol=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), noisy=st.booleans(), shots=st.sampled_from([None, 1, 37, 4000]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_profiles_are_monotone_end_at_total_mass_and_do_not_depend_on_tiles(
        n, noisy, shots, seed):
    # 10 Gram pairs (diagonal included) and 8 cross pairs: in tiles of 3 pairs
    # both calls end on a short tile
    rng = np.random.default_rng(seed)
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=("z", "y", "x"), angle_scale=2.0)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs, rows = rng.normal(size=(4, n)), rng.normal(size=(2, n))
    noise = sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03) if noisy else None
    cfg = kn.KernelConfig(shots=shots, master_seed=seed)
    tiles = []
    histograms = sc.weight_histograms

    def recording_histograms(squares, layers):
        tiles.append(squares.shape[0])
        return histograms(squares, layers)

    def both():
        tiles.clear()
        return (kn.assemble_profiles(xs, spec, params, cfg, noise),
                [kn.assemble_cross(rows, xs, spec, params, replace(cfg, tolerance=d), noise)
                 for d in range(n + 1)])

    prof, cross = both()
    assert np.all(np.diff(prof, axis=2) >= 0.0)
    assert np.all(np.diff(np.stack(cross), axis=0) >= 0.0)
    if shots is None:
        np.testing.assert_allclose(prof[:, :, n], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cross[n], 1.0, rtol=0, atol=1e-12)
    else:
        assert np.all(prof[:, :, n] == 1.0) and np.all(cross[n] == 1.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "weight_histograms", recording_histograms)
        for pairs, expected in ((1, [1] * 10 + [1] * 8), (3, [3, 3, 3, 1] + [3, 3, 2])):
            patch.setattr(kn, "_TILE_AMPS", pairs * 2 ** n)
            tiled_prof, tiled_cross = both()
            assert tiles[:len(expected)] == expected
            np.testing.assert_array_equal(tiled_prof, prof)
            for got, want in zip(tiled_cross, cross):
                np.testing.assert_array_equal(got, want)


@settings(max_examples=8, deadline=None)
@given(noisy=st.booleans(), shots=st.sampled_from([None, 1, 4000]),
       axes=st.sampled_from([("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eight_qubit_profiles_do_not_depend_on_tiles_of_five_or_seven_pairs(
        noisy, shots, axes, seed):
    # a tile holds its pairs as rows, so its pair count sets the row count of
    # every matmul of the product and weight layers (and the item count of
    # the stacked ones): 21 Gram pairs (diagonal included) and 12
    # cross pairs split into 5-pair tiles (5, 5, 5, 5, 1 and 5, 5, 2) and
    # 7-pair tiles (7, 7, 7 and 7, 5) must give the untiled bits
    n = 8
    rng = np.random.default_rng(seed)
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=axes, angle_scale=2.0)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs, rows = rng.normal(size=(6, n)), rng.normal(size=(2, n))
    noise = sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03) if noisy else None
    cfg = kn.KernelConfig(shots=shots, master_seed=seed)
    tiles = []
    histograms = sc.weight_histograms

    def recording_histograms(squares, layers):
        tiles.append(squares.shape[0])
        return histograms(squares, layers)

    def both():
        tiles.clear()
        return (kn.assemble_profiles(xs, spec, params, cfg, noise),
                [kn.assemble_cross(rows, xs, spec, params, replace(cfg, tolerance=d), noise)
                 for d in range(n + 1)])

    prof, cross = both()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "weight_histograms", recording_histograms)
        for pairs, expected in ((5, [5, 5, 5, 5, 1] + [5, 5, 2]), (7, [7, 7, 7] + [7, 5])):
            patch.setattr(kn, "_TILE_AMPS", pairs * 2 ** n)
            tiled_prof, tiled_cross = both()
            assert tiles[:len(expected)] == expected
            np.testing.assert_array_equal(tiled_prof, prof)
            for got, want in zip(tiled_cross, cross):
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("axes", [("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")])
@pytest.mark.parametrize("value", [0.0, np.pi, 1e-9])
@pytest.mark.parametrize("where", ["all", "one"])
def test_profile_route_folds_degenerate_fiducial_rotations(axes, value, where):
    # both product layers are taken apart as diag . RY . diag, whose phases
    # are arbitrary where an entry is 0: every fiducial angle 0 (the README's
    # "params": "zeros") makes each M_q the identity, one angle pi on a non-z
    # axis makes it anti-diagonal, and 1e-9 makes it all but diagonal; the
    # three axis orders embed about x, y and z
    n = 4
    rng = np.random.default_rng(45)
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=axes, angle_scale=2.0)
    params = np.full(3 * n, value)
    if where == "one":
        params[:] = 0.0
        params[next(k for k, a in enumerate(axes) if a != "z")::3] = value
    xs, rows = rng.normal(size=(3, n)), rng.normal(size=(2, n))
    noise = sc.NoiseModel(p01=0.06, p10=0.02, depolarizing=0.04)
    prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
    cross = [kn.assemble_cross(rows, xs, spec, params, kn.KernelConfig(tolerance=d), noise)
             for d in range(n + 1)]
    for d in range(n + 1):
        cfg = kn.KernelConfig(tolerance=d)
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            ref = kn.kernel_entry(spec, params, xs[i], xs[j], cfg, noise)
            assert prof[i, j, d] == prof[j, i, d] == pytest.approx(ref, rel=0, abs=1e-12)
        for i, j in np.ndindex(2, 3):
            ref = kn.kernel_entry(spec, params, rows[i], xs[j], cfg, noise)
            assert cross[d][i, j] == pytest.approx(ref, rel=0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6),
       axes=st.sampled_from([("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")]),
       p01=st.floats(0.001, 0.2), p10=st.floats(0.001, 0.2), depolarizing=st.floats(0.001, 0.2),
       tolerance=st.integers(0, 6), pairs=st.sampled_from([1, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, axes=("z", "y", "x"), p01=0.03, p10=0.11, depolarizing=0.05, tolerance=2,
         pairs=3, seed=0)
def test_profile_route_matrices_equal_kernel_entry(n, axes, p01, p10, depolarizing, tolerance,
                                                   pairs, seed):
    # the tile buffers are reused: in tiles of 3 pairs the 10 Gram pairs end
    # on a 1-pair tile and the 8 cross pairs on a 2-pair tile, after full
    # ones, and neither may see a row left over from an earlier tile
    assume(p01 != p10)
    tolerance %= n + 1
    rng = np.random.default_rng(seed)
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=axes, angle_scale=2.0)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs, rows = rng.normal(size=(4, n)), rng.normal(size=(2, n))
    noise = sc.NoiseModel(p01=p01, p10=p10, depolarizing=depolarizing)
    cfg = kn.KernelConfig(tolerance=tolerance)
    tiles = []
    histograms = sc.weight_histograms

    def recording_histograms(squares, layers):
        tiles.append(squares.shape[0])
        return histograms(squares, layers)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sc, "weight_histograms", recording_histograms)
        patch.setattr(kn, "_TILE_AMPS", pairs * 2 ** n)
        gram = kn.assemble_matrix(xs, spec, params, cfg, noise).values
        cross = kn.assemble_cross(rows, xs, spec, params, cfg, noise)
    assert tiles == ([1] * 18 if pairs == 1 else [3, 3, 3, 1] + [3, 3, 2])
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        ref = kn.kernel_entry(spec, params, xs[i], xs[j], cfg, noise)
        assert gram[i, j] == gram[j, i] == pytest.approx(ref, rel=0, abs=1e-12)
    for i, j in np.ndindex(*cross.shape):
        ref = kn.kernel_entry(spec, params, rows[i], xs[j], cfg, noise)
        assert cross[i, j] == pytest.approx(ref, rel=0, abs=1e-12)


@pytest.mark.parametrize("axes", [("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")])
@pytest.mark.parametrize("root, tree_edges", [
    (2, ((2, 0), (2, 1), (2, 3), (2, 4))),    # star
    (4, ((4, 3), (3, 2), (2, 1), (1, 0))),    # reversed line
])
def test_hand_built_plans_give_kernel_entry_on_both_routes(root, tree_edges, axes):
    # a plan is its root, tree and register: the oracle applies the CZ layers
    # read from tree_edges, the routes fold tree_edges into their diagonal
    n = 5
    plan = fm.EntanglerPlan(root, tree_edges, tuple(range(n)))
    assert sorted(edge for layer in plan.layers for edge in layer) == sorted(tree_edges)
    spec = fm.FeatureMapSpec(axes, 2.0, fm.assign_features(plan), plan)
    rng = np.random.default_rng(35)
    params = rng.uniform(-np.pi, np.pi, spec.n_params)
    xs = rng.normal(size=(4, n))
    noise = sc.NoiseModel(p01=0.04, p10=0.09)
    exact = kn.assemble_matrix(xs, spec, params, kn.KernelConfig()).values
    prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        ref = kn.kernel_entry(spec, params, xs[i], xs[j], kn.KernelConfig())
        assert exact[i, j] == pytest.approx(ref, rel=0, abs=1e-12)
        for d in range(n + 1):
            ref = kn.kernel_entry(spec, params, xs[i], xs[j], kn.KernelConfig(tolerance=d), noise)
            assert prof[i, j, d] == pytest.approx(ref, rel=0, abs=1e-12)


_COUPLINGS = {"line": fm.line_coupling, "ring": fm.ring_coupling,
              "heavy-hex": lambda n: fm.heavy_hex_coupling(2, 6)}   # 14 qubits


@pytest.mark.parametrize("coupling, axes", [("line", ("z", "y", "x")), ("ring", ("x", "z", "y")),
                                            ("heavy-hex", ("y", "x", "z"))])
@pytest.mark.parametrize("n, folded", [(12, True), (13, False)])
def test_profile_route_on_both_sides_of_the_fold_width_rule(n, folded, coupling, axes):
    # n=12 is the widest register whose stack of folded middle blocks fits
    # _FOLD_BYTES and n=13 the first that keeps the unfolded middle; on both
    # sides, Gram and cross profiles must be kernel_entry's, and tiles of 1,
    # 2 and 5 pairs (6 Gram pairs with the diagonal, 6 cross pairs) must give
    # the untiled bits, exact and sampled
    rng = np.random.default_rng(n)
    spec = fm.make_feature_map(_COUPLINGS[coupling](n), n, axes=axes, angle_scale=2.0)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs, rows = rng.normal(size=(3, n)), rng.normal(size=(2, n))
    angles_x, angles_r = fm.embedding_angles(spec, xs), fm.embedding_angles(spec, rows)
    noise = sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03)
    stacks, tiles = [], []
    middle_blocks, histograms = kn._middle_blocks, sc.weight_histograms

    def recording_blocks(*args):
        stacks.append(args[1].size)
        return middle_blocks(*args)

    def recording_histograms(squares, layers):
        tiles.append(squares.shape[0])
        return histograms(squares, layers)

    def both(shots):
        cfg = kn.KernelConfig(shots=shots, master_seed=n)
        return (kn._pair_profiles(spec, params, angles_x, None, cfg, noise),
                kn._pair_profiles(spec, params, angles_r, angles_x, cfg, noise))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kn, "_middle_blocks", recording_blocks)
        untiled = {shots: both(shots) for shots in (None, 4000)}
        assert stacks == ([2 ** n] * 4 if folded else [])
        patch.setattr(sc, "weight_histograms", recording_histograms)
        for pairs, expected in ((1, [1] * 12), (2, [2] * 6), (5, [5, 1, 5, 1])):
            patch.setattr(kn, "_TILE_AMPS", pairs * 2 ** n)
            for shots, (gram, cross) in untiled.items():
                tiles.clear()
                tiled_gram, tiled_cross = both(shots)
                assert tiles == expected
                np.testing.assert_array_equal(tiled_gram, gram)
                np.testing.assert_array_equal(tiled_cross, cross)
    gram, cross = untiled[None]
    for d in (0, 3, n):
        cfg = kn.KernelConfig(tolerance=d)
        for i, j in itertools.combinations_with_replacement(range(3), 2):
            ref = kn.kernel_entry(spec, params, xs[i], xs[j], cfg, noise)
            assert gram[i, j, d] == gram[j, i, d] == pytest.approx(ref, rel=0, abs=1e-12)
        for i, j in np.ndindex(2, 3):
            ref = kn.kernel_entry(spec, params, rows[i], xs[j], cfg, noise)
            assert cross[i, j, d] == pytest.approx(ref, rel=0, abs=1e-12)


def test_profile_phase_tables_stay_within_the_tile_budget(monkeypatch):
    # the per-sample phase tables are held one block of samples at a time, so
    # a cross call's peak grows with its columns only by what its output and
    # pair indices grow: holding E(b) whole for 160 columns at n=12 would
    # add 120 * 2**12 * 16 bytes, about 7.9 MB
    rng = np.random.default_rng(47)
    noise = sc.NoiseModel(p01=0.03)

    def peak(n, m_b, fold_bytes=kn._FOLD_BYTES):
        spec = fm.make_feature_map(fm.line_coupling(n), n, angle_scale=2.0)
        params = rng.uniform(-np.pi, np.pi, 3 * n)
        rows, cols = rng.normal(size=(2, n)), rng.normal(size=(m_b, n))
        monkeypatch.setattr(kn, "_FOLD_BYTES", fold_bytes)
        kn.assemble_cross(rows, cols, spec, params, kn.KernelConfig(), noise)
        tracemalloc.start()
        try:
            kn.assemble_cross(rows, cols, spec, params, kn.KernelConfig(), noise)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 12
    pairs = 2 * (160 - 40)
    grown = peak(n, 160) - peak(n, 40)
    assert grown <= pairs * ((n + 1) * 8 + 2 * 8) + 64 * 1024
    # the folded middle at the widest folded n: the 2 MB stack (512 bytes per
    # amplitude) and, while it is built, its 1 MB operand; at n=13 no stack is
    # built, and a budget that let one in would add at least its 4 MB
    stack = 2 ** n * 512
    assert stack == kn._FOLD_BYTES
    assert stack <= peak(n, 40) - peak(n, 40, fold_bytes=0) <= stack * 3 // 2 + 64 * 1024
    assert abs(peak(n + 1, 40) - peak(n + 1, 40, fold_bytes=0)) <= 64 * 1024
    assert peak(n + 1, 40, fold_bytes=2 * stack) - peak(n + 1, 40) >= 2 * stack


def test_profile_phase_tables_are_built_once_per_column_block(monkeypatch):
    # at n=10 a block holds 32 samples, so a 40 x 90 cross block spans 2 row
    # and 3 column blocks; the block-major walk builds each column block
    # once and each row block once per column block, where a row-by-row walk
    # rebuilds every column block for every row
    n, m_a, m_b, per = 10, 40, 90, 32
    assert kn._TILE_AMPS // 2 ** n == per
    rng = np.random.default_rng(48)
    spec = fm.make_feature_map(fm.line_coupling(n), n, angle_scale=2.0)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    rows, cols = rng.normal(size=(m_a, n)), rng.normal(size=(m_b, n))
    tables, kron = [], sc.kron_factors

    def recording_kron(pairs):
        pairs = np.asarray(pairs)
        if pairs.ndim == 3 and pairs.shape[:2] == (n, 2):   # a block of samples' phase tables
            tables.append(pairs[:, 0].T.copy())
        return kron(pairs)

    monkeypatch.setattr(sc, "kron_factors", recording_kron)
    kn.assemble_cross(rows, cols, spec, params, kn.KernelConfig(), sc.NoiseModel(p01=0.03))
    # a block's first factors are exp(-i x / 2) of its samples x, E(b) for
    # columns and E(-a) for rows
    factors = np.exp(-0.5j * fm.embedding_angles(spec, cols))
    col_builds = [sum(t.shape == factors[lo:lo + per].shape
                      and np.array_equal(t, factors[lo:lo + per]) for t in tables)
                  for lo in range(0, m_b, per)]
    assert col_builds == [1, 1, 1]
    assert len(tables) == 3 + 3 * 2


def test_matrix_from_profiles_slices_one_tolerance():
    rng = np.random.default_rng(31)
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    params = rng.uniform(-np.pi, np.pi, 6)
    xs = rng.normal(size=(3, 2))
    noise = sc.NoiseModel(p01=0.08)
    prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
    for d in (0, 1, 2):
        est = kn.matrix_from_profiles(prof, kn.KernelConfig(tolerance=d))
        np.testing.assert_array_equal(est.values, prof[:, :, d])
    with pytest.raises(ValueError):
        kn.matrix_from_profiles(prof, kn.KernelConfig(tolerance=3))


def test_identity_circuit_diagonal_is_binomial_cdf():
    # a diagonal entry compares a sample with itself; the kernel circuit is
    # identity-equivalent so readout flips alone set the weight profile
    p01 = 0.06
    rng = np.random.default_rng(33)
    for n in (2, 5):
        spec = fm.make_feature_map(fm.line_coupling(n), n)
        params = rng.uniform(-np.pi, np.pi, 3 * n)
        xs = rng.normal(size=(2, n))
        prof = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(),
                                    sc.NoiseModel(p01=p01))
        for d in range(n + 1):
            cdf = sum(math.comb(n, k) * p01 ** k * (1 - p01) ** (n - k)
                      for k in range(d + 1))
            assert prof[0, 0, d] == pytest.approx(cdf, abs=1e-12)
            assert prof[1, 1, d] == pytest.approx(cdf, abs=1e-12)


def test_sampled_matrices_are_seed_deterministic():
    rng = np.random.default_rng(40)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = rng.uniform(-np.pi, np.pi, 9)
    xs = rng.normal(size=(4, 3))
    noise = sc.NoiseModel(p01=0.05)
    cfg = kn.KernelConfig(tolerance=1, shots=500, master_seed=7)
    a = kn.assemble_matrix(xs, spec, params, cfg, noise)
    b = kn.assemble_matrix(xs, spec, params, cfg, noise)
    np.testing.assert_array_equal(a.values, b.values)
    other = kn.assemble_matrix(xs, spec, params,
                               kn.KernelConfig(tolerance=1, shots=500, master_seed=8), noise)
    assert not np.array_equal(a.values, other.values)


def test_same_counts_reused_across_tolerances():
    # entry streams are seeded per pair, not per tolerance, so re-assembling
    # at a larger d must reuse the same draws: the matrices are entrywise
    # ordered and share the top of the cumulative profile
    rng = np.random.default_rng(41)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    params = rng.uniform(-np.pi, np.pi, 9)
    xs = rng.normal(size=(5, 3))
    noise = sc.NoiseModel(p01=0.05)
    mats = [kn.assemble_matrix(xs, spec, params,
                               kn.KernelConfig(tolerance=d, shots=300, master_seed=3),
                               noise).values
            for d in range(4)]
    for lo, hi in zip(mats, mats[1:]):
        assert np.all(hi - lo >= -1e-15)
    np.testing.assert_allclose(mats[3], 1.0, atol=1e-12)
    prof = kn.assemble_profiles(xs, spec, params,
                                kn.KernelConfig(shots=300, master_seed=3), noise)
    for d in range(4):
        np.testing.assert_array_equal(mats[d], prof[:, :, d])


def test_cross_assembly_streams_are_order_independent(monkeypatch):
    # row i draws its columns in ascending order from its own stream, so a
    # leading block of rows, or of columns (a prefix of each row's draw),
    # reproduces the same block of the full call, however the pairs are
    # split into tiles
    rng = np.random.default_rng(42)
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    params = rng.uniform(-np.pi, np.pi, 6)
    rows, cols = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
    noise = sc.NoiseModel(p01=0.1)
    cfg = kn.KernelConfig(tolerance=0, shots=200, master_seed=11)
    full = kn.assemble_cross(rows, cols, spec, params, cfg, noise)
    np.testing.assert_array_equal(
        full, kn.assemble_cross(rows, cols, spec, params, cfg, noise))
    chunk_sizes = []
    real_histograms = sc.weight_histograms

    def recording_histograms(squares, layers):
        chunk_sizes.append(squares.shape[0])
        return real_histograms(squares, layers)

    for tile_amps in (None, 12):   # 12 amplitudes = 3 pairs of 2 qubits per tile
        with monkeypatch.context() as patch:
            if tile_amps is not None:
                patch.setattr(kn, "_TILE_AMPS", tile_amps)
                patch.setattr(sc, "weight_histograms", recording_histograms)
            np.testing.assert_array_equal(
                kn.assemble_cross(rows, cols, spec, params, cfg, noise), full)
            np.testing.assert_array_equal(
                kn.assemble_cross(rows[:2], cols, spec, params, cfg, noise), full[:2])
            np.testing.assert_array_equal(
                kn.assemble_cross(rows, cols[:3], spec, params, cfg, noise), full[:, :3])
    assert chunk_sizes == [3] * 4 + [3] * 2 + [2] + [3] * 3


def test_sampled_rows_follow_their_philox_counter_streams():
    # one Philox key per call from (master_seed, tag), tag 0 for Grams and 1
    # for cross blocks; row i is one multinomial from counter (0, 0, i, 0)
    # over the normalised noisy exact weight histograms of its columns in
    # ascending order (j > i for a Gram), and a Gram's diagonal is one more
    # from counter (0, 1, 0, 0)
    rng = np.random.default_rng(44)
    n, m, shots, seed = 5, 12, 2000, 9
    spec = fm.make_feature_map(fm.line_coupling(n), n)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs, rows = rng.normal(size=(m, n)), rng.normal(size=(4, n))
    noise = sc.NoiseModel(p01=0.04, p10=0.06, depolarizing=0.01)
    cfg = kn.KernelConfig(shots=shots, master_seed=seed)

    def draws(exact, tag, counter):
        h = np.diff(exact, prepend=0.0, axis=-1)
        h /= h.sum(axis=-1, keepdims=True)
        key = np.random.SeedSequence((seed, tag)).generate_state(2, np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
        return np.cumsum(gen.multinomial(shots, h), axis=-1) / shots

    exact = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
    sampled = kn.assemble_profiles(xs, spec, params, cfg, noise)
    for i in range(m - 1):
        expected = draws(exact[i, i + 1:], 0, [0, 0, i, 0])
        np.testing.assert_array_equal(sampled[i, i + 1:], expected)
        np.testing.assert_array_equal(sampled[i + 1:, i], expected)
    diag = np.arange(m)
    np.testing.assert_array_equal(sampled[diag, diag], draws(exact[diag, diag], 0, [0, 1, 0, 0]))
    exact_cross = np.stack([kn.assemble_cross(rows, xs, spec, params,
                                              kn.KernelConfig(tolerance=d), noise)
                            for d in range(n + 1)], axis=-1)
    for d in range(n + 1):
        cross = kn.assemble_cross(rows, xs, spec, params, replace(cfg, tolerance=d), noise)
        for i in range(rows.shape[0]):
            np.testing.assert_array_equal(
                cross[i], draws(exact_cross[i], 1, [0, 0, i, 0])[:, d])
    # the diagonal is drawn on its own stream, or not at all: neither changes
    # an off-diagonal draw
    pinned = kn.assemble_profiles(xs, spec, params, replace(cfg, estimate_diagonal=False), noise)
    off = ~np.eye(m, dtype=bool)
    np.testing.assert_array_equal(pinned[off], sampled[off])
    np.testing.assert_array_equal(pinned[~off], 1.0)


def test_sampled_noisy_entries_follow_the_weight_bin_law():
    # shots are one multinomial over the n+1 weight bins of the noisy exact
    # histogram: every cumulative entry is a multiple of 1/shots and within
    # 6 sd + 2/shots of the exact value (the benchmark's sampled-entry rule)
    rng = np.random.default_rng(43)
    n, m, shots = 6, 20, 4000
    spec = fm.make_feature_map(fm.line_coupling(n), n)
    params = rng.uniform(-np.pi, np.pi, 3 * n)
    xs = rng.normal(size=(m, n))
    noise = sc.NoiseModel(p01=0.03, p10=0.05, depolarizing=0.02)
    exact = kn.assemble_profiles(xs, spec, params, kn.KernelConfig(), noise)
    sampled = kn.assemble_profiles(xs, spec, params,
                                   kn.KernelConfig(shots=shots, master_seed=5), noise)
    counts = sampled * shots
    np.testing.assert_allclose(counts, np.round(counts), rtol=0, atol=1e-6)
    bound = 6.0 * np.sqrt(np.clip(exact * (1.0 - exact), 0.0, None) / shots) + 2.0 / shots
    assert np.all(np.abs(sampled - exact) <= bound)


def test_kernel_entry_sampled_seed_control():
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    params = np.zeros(6)
    x, y = np.array([0.3, 0.1]), np.array([0.2, -0.4])
    cfg = kn.KernelConfig(shots=100)
    noise = sc.NoiseModel(p01=0.2)
    a = kn.kernel_entry(spec, params, x, y, cfg, noise, seed=(1, 2))
    b = kn.kernel_entry(spec, params, x, y, cfg, noise, seed=(1, 2))
    assert a == b
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize("seed, shots", [pytest.param((1, 2), 500, id="seed0"),
                                         pytest.param((3,), 500, id="seed1"),
                                         pytest.param(17, 500, id="17"),
                                         pytest.param(None, None, id="exact")])
def test_sampled_kernel_entry_is_the_share_of_draws_within_tolerance(seed, shots):
    # the draw holds one count per outcome index, qubit 0 the low bit; the
    # entry is the share of shots whose outcome has at most d set bits, and
    # without shots the mass of the exact distribution on those outcomes
    n = 3
    spec = fm.make_feature_map(fm.line_coupling(n), n)
    rng = np.random.default_rng(31)
    params = rng.uniform(0.0, 2 * np.pi, size=spec.n_params)
    x, y = rng.normal(size=n), rng.normal(size=n)
    noise = sc.NoiseModel(p01=0.1, p10=0.05)
    dist = sc.outcome_distribution(
        sc.run_circuit(fm.build_kernel_circuit(spec, params, x, y)), noise)
    draws = dist if shots is None else sc.sample_counts(dist, shots, seed)
    weights = [bin(k).count("1") for k in range(2 ** n)]
    for d in range(n + 1):
        within = sum(c for c, w in zip(draws.tolist(), weights) if w <= d)
        cfg = kn.KernelConfig(tolerance=d, shots=shots)
        got = kn.kernel_entry(spec, params, x, y, cfg, noise, seed=seed)
        if shots is None:
            assert got == pytest.approx(within, rel=0, abs=1e-15)
        else:
            assert got == within / shots


# ------------------------------------------------------- PSD repair

def test_psd_projection_of_exchange_matrix():
    # eigenvalues +-1; the clipped matrix is [[.5, .5], [.5, .5]]
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    projected, min_eig = kn.psd_project(values)
    assert min_eig == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(projected, np.full((2, 2), 0.5), atol=1e-12)
    # normalized Frobenius gap: sqrt(2 - sqrt(2))
    assert kn.psd_distance(values) == pytest.approx(0.7653668647301795, abs=1e-12)


def test_psd_distance_is_scale_invariant_and_zero_on_psd():
    rng = np.random.default_rng(50)
    m = rng.normal(size=(6, 6))
    sym = (m + m.T) / 2
    assert kn.psd_distance(sym) == pytest.approx(kn.psd_distance(10.0 * sym), abs=1e-10)
    gram = m @ m.T
    assert kn.psd_distance(gram) == 0.0
    proj, min_eig = kn.psd_project(gram)
    assert min_eig >= 0
    np.testing.assert_array_equal(proj, gram)


def test_psd_projection_is_idempotent():
    rng = np.random.default_rng(51)
    m = rng.normal(size=(5, 5))
    sym = (m + m.T) / 2
    once, _ = kn.psd_project(sym)
    twice, min_eig = kn.psd_project(once)
    assert min_eig >= -1e-9
    np.testing.assert_allclose(once, twice, atol=1e-10)
    assert np.linalg.eigvalsh(once).min() >= -1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_projection_rejects_non_finite_matrix(bad):
    values = np.eye(2)
    values[0, 1] = values[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        kn.psd_project(values)
    for marked in (False, True):
        with pytest.raises(ValueError, match="finite"):
            kn.repair_psd(kn.KernelMatrixEstimate(values, psd_by_construction=marked))


def test_psd_distance_rejects_zero_matrix():
    with pytest.raises(ValueError):
        kn.psd_distance(np.zeros((3, 3)))


def test_repair_records_projection_metadata():
    est = kn.KernelMatrixEstimate(np.array([[1.0, 2.0], [2.0, 1.0]]))
    repaired = kn.repair_psd(est)
    assert repaired.psd_projected
    assert repaired.min_eigenvalue_before == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.eigvalsh(repaired.values).min() >= -1e-9
    # a PSD matrix comes back unchanged and is not reported as projected
    kept = kn.repair_psd(kn.KernelMatrixEstimate(np.eye(3)))
    assert not kept.psd_projected
    assert kept.min_eigenvalue_before == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(kept.values, np.eye(3))


def test_repair_of_a_psd_matrix_keeps_its_array():
    est = kn.KernelMatrixEstimate(np.eye(3))
    assert kn.repair_psd(est).values is est.values
    assert kn.psd_project(est.values)[0] is est.values


def test_exact_gram_with_a_rounding_level_eigenvalue_is_not_projected():
    # an exact Gram is PSD by the Schur product theorem; at n=3, m=300 its
    # computed minimum eigenvalue is a rounding-level negative, inside
    # m * eps * max|lambda|, so repair keeps the array and reports no projection
    rng = np.random.default_rng(0)
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=2 * np.pi)
    params = rng.uniform(0.0, 2 * np.pi, 9)
    est = kn.assemble_matrix(rng.uniform(0.0, 1.0, (300, 3)), spec, params, kn.KernelConfig())
    assert -1e-12 < np.linalg.eigvalsh(est.values)[0] < 0.0
    repaired = kn.repair_psd(est)
    assert repaired.min_eigenvalue_before is None
    assert not repaired.psd_projected
    assert repaired.values is est.values
    assert kn.psd_project(est.values)[0] is est.values
    assert kn.psd_distance(est.values) == 0.0


def test_repairing_an_exact_gram_runs_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(4)
    spec = fm.make_feature_map(fm.line_coupling(4), 4, angle_scale=2 * np.pi)
    params = rng.uniform(0.0, 2 * np.pi, 12)
    xs = rng.uniform(0.0, 1.0, (20, 4))
    for config in (kn.KernelConfig(), kn.KernelConfig(estimate_diagonal=False)):
        est = kn.assemble_matrix(xs, spec, params, config)
        assert est.psd_by_construction
        keep = est.values.copy()

        def no_eigensolve(values):
            raise AssertionError("an exact Gram needs no eigensolve")

        with monkeypatch.context() as patch:
            patch.setattr(kn, "symmetric_eigh", no_eigensolve)
            repaired = kn.repair_psd(est)
        assert repaired.values is est.values
        np.testing.assert_array_equal(repaired.values, keep)
        assert not repaired.psd_projected and repaired.min_eigenvalue_before is None
        assert repaired.psd_by_construction


def test_profile_route_estimates_are_not_marked_and_keep_the_eigensolve():
    rng = np.random.default_rng(6)
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=2 * np.pi)
    params = rng.uniform(0.0, 2 * np.pi, 9)
    xs = rng.uniform(0.0, 1.0, (8, 3))
    for config, noise in ((kn.KernelConfig(tolerance=1), None),
                          (kn.KernelConfig(shots=50), None),
                          (kn.KernelConfig(), sc.NoiseModel(p01=0.05))):
        est = kn.assemble_matrix(xs, spec, params, config, noise)
        assert not est.psd_by_construction
        repaired = kn.repair_psd(est)
        w = np.linalg.eigvalsh((est.values + est.values.T) / 2.0)
        assert repaired.min_eigenvalue_before == pytest.approx(w[0], abs=1e-12)


@pytest.mark.parametrize("axes", [("z", "y", "x"), ("x", "z", "y"), ("y", "x", "z")])
@pytest.mark.parametrize("n", [1, 3, 8, 10, 12])
def test_exact_grams_have_no_eigenvalue_below_rounding(n, axes):
    # the Schur product theorem that lets repair skip the eigensolve, checked
    # directly: the smallest eigenvalue is within m * eps * max|lambda| of 0
    rng = np.random.default_rng((n, ord(axes[2])))
    spec = fm.make_feature_map(fm.line_coupling(n), n, axes=axes, angle_scale=2 * np.pi)
    params = rng.uniform(0.0, 2 * np.pi, 3 * n)
    m = 60
    est = kn.assemble_matrix(rng.uniform(0.0, 1.0, (m, n)), spec, params, kn.KernelConfig())
    assert est.psd_by_construction
    w = np.linalg.eigvalsh(est.values)
    assert w[0] >= -m * np.finfo(float).eps * max(abs(w[0]), abs(w[-1]))


def test_sampled_gram_with_a_negative_eigenvalue_is_projected():
    rng = np.random.default_rng(3)
    spec = fm.make_feature_map(fm.line_coupling(3), 3, angle_scale=2 * np.pi)
    params = rng.uniform(0.0, 2 * np.pi, 9)
    est = kn.assemble_matrix(rng.uniform(0.0, 1.0, (30, 3)), spec, params,
                             kn.KernelConfig(shots=50, master_seed=5))
    repaired = kn.repair_psd(est)
    assert repaired.min_eigenvalue_before < -0.1
    assert repaired.psd_projected and repaired.values is not est.values
    assert np.linalg.eigvalsh(repaired.values).min() >= -1e-12
    assert kn.psd_distance(est.values) > 0.0


def codeword_features():
    # three classes on disjoint 4-coordinate blocks; samples are pi times the
    # 4-bit words of weight 1 or 2, so every mismatch is an exact bit flip
    words = [w for w in itertools.product((0, 1), repeat=4) if sum(w) in (1, 2)]
    feats, labels = [], []
    for c in range(3):
        for w in words:
            x = np.zeros(12)
            x[4 * c:4 * c + 4] = np.pi * np.array(w)
            feats.append(x)
            labels.append(c)
    return np.array(feats), np.array(labels)


def test_weight_one_mass_matrix_is_genuinely_indefinite():
    # the tolerance-1 matrix of the flip-lattice dataset adds containment
    # pairs at 0.97^11 on top of a near-identity, which is far from PSD;
    # projection must report a deep negative eigenvalue and then repair it
    feats, _ = codeword_features()
    spec = fm.make_feature_map(fm.line_coupling(12), 12, angle_scale=1.0)
    noise = sc.NoiseModel(p01=0.03)
    prof = kn.assemble_profiles(feats[:10], spec, np.zeros(36), kn.KernelConfig(), noise)
    est = kn.matrix_from_profiles(prof, kn.KernelConfig(tolerance=1))
    dist = kn.psd_distance(est.values)
    assert dist > 0.1
    repaired = kn.repair_psd(est)
    assert repaired.min_eigenvalue_before < -0.5
    assert np.linalg.eigvalsh(repaired.values).min() >= -1e-9
    # tolerance 0 strips the flip mass and the same profiles become diagonal
    base = kn.matrix_from_profiles(prof, kn.KernelConfig(tolerance=0))
    off_diag = base.values - np.diag(np.diag(base.values))
    assert np.abs(off_diag).max() < 1e-12
    assert kn.psd_distance(base.values) == 0.0


def test_average_diagonal():
    values = np.diag([0.5, 0.7, 0.9])
    assert kn.average_diagonal(values) == pytest.approx(0.7)


# ------------------------------------------------------- calibration

def test_calibration_matches_binomial_oracle_exactly():
    noise = sc.NoiseModel(p01=0.02)
    report = kn.calibrate([4, 8], noise, thresholds=(0.9, 1.0))
    for n in (4, 8):
        for d in range(n + 1):
            cdf = sum(math.comb(n, k) * 0.02 ** k * 0.98 ** (n - k)
                      for k in range(d + 1))
            assert report.avg_diagonal(n, d) == pytest.approx(cdf, abs=1e-12)
        # tolerance n accepts every outcome and the noise keeps the mass
        assert report.avg_diagonal(n, n) == 1.0
        assert report.recommended_tolerance(n, 1.0) == n
    assert report.recommended_tolerance(4, 0.9) == 0
    assert report.recommended_tolerance(8, 0.9) == 1


def test_calibration_sampled_mode_tracks_exact():
    noise = sc.NoiseModel(p01=0.02)
    exact = kn.calibrate([4], noise)
    sampled = kn.calibrate([4], noise, shots=20000)
    for d in range(5):
        assert sampled.avg_diagonal(4, d) == pytest.approx(
            exact.avg_diagonal(4, d), abs=0.01)


def test_calibration_threshold_validation_and_lookup():
    noise = sc.NoiseModel(p01=0.02)
    with pytest.raises(ValueError):
        kn.calibrate([4], noise, thresholds=(0.0,))
    with pytest.raises(ValueError):
        kn.calibrate([4], noise, thresholds=(1.2,))
    report = kn.calibrate([4], noise)
    with pytest.raises(KeyError):
        report.avg_diagonal(5, 0)


def test_recommended_tolerance_rejects_an_uncalibrated_width_or_threshold():
    report = kn.calibrate([4], sc.NoiseModel(p01=0.02), thresholds=(0.9, 0.99))
    assert report.recommended_tolerance(4, 0.9) == 0
    assert report.recommended_tolerance(4, 0.99) == 1
    for n, threshold in ((5, 0.9), (3, 0.9), (4, 0.95), (4, 0.5)):
        with pytest.raises(KeyError):
            report.recommended_tolerance(n, threshold)


@pytest.mark.parametrize("samples", [0, -3])
def test_calibration_rejects_fewer_than_one_sample_before_any_work(samples, monkeypatch):
    # zero samples once warned "Mean of empty slice" twice and then failed as
    # a zero matrix with no normalized PSD distance
    def no_work(*args, **kwargs):
        raise AssertionError("calibrate assembled profiles")

    monkeypatch.setattr(kn, "assemble_profiles", no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="samples"):
            kn.calibrate([4], sc.NoiseModel(p01=0.02), samples=samples)


@pytest.mark.parametrize("ns, thresholds, match", [
    ([3, 3], (0.9,), "widths must be distinct"),
    ([3], (0.9, 0.9), "thresholds must be distinct"),
    ([3], (), "at least one threshold"),
])
def test_calibration_rejects_repeated_or_missing_entries_before_any_work(
        ns, thresholds, match, monkeypatch):
    # repeats once computed a width twice and wrote duplicate recommendations;
    # no threshold once wrote a header-only recommendation table
    def no_work(*args, **kwargs):
        raise AssertionError("calibrate assembled profiles")

    monkeypatch.setattr(kn, "assemble_profiles", no_work)
    with pytest.raises(ValueError, match=match):
        kn.calibrate(ns, sc.NoiseModel(p01=0.05), thresholds=thresholds)


def test_calibration_csv_export(tmp_path):
    noise = sc.NoiseModel(p01=0.1)
    report = kn.calibrate([3], noise, thresholds=(0.9, 0.99))
    path = tmp_path / "cal.csv"
    kn.save_calibration_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_qubits,tolerance,avg_diagonal,psd_distance"
    assert len(lines) == 1 + 4


# ------------------------------------------------------- CSV round trips

def test_matrix_csv_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    values = rng.uniform(0, 1, size=(4, 4))
    path = tmp_path / "k.csv"
    kn.save_matrix_csv(values, path, ids=["a", "b", "c", "d"])
    loaded, ids = kn.load_matrix_csv(path)
    np.testing.assert_array_equal(loaded, values)
    assert ids == ["a", "b", "c", "d"]


def test_matrix_csv_default_ids(tmp_path):
    values = np.eye(2)
    path = tmp_path / "k.csv"
    kn.save_matrix_csv(values, path)
    loaded, ids = kn.load_matrix_csv(path)
    np.testing.assert_array_equal(loaded, values)
    assert len(ids) == 2


# -0.0, the smallest subnormals, 1.0, 1e-300 and a few ordinary values
CSV_EDGE_VALUES = np.array([[-0.0, 5e-324, 1.0, 1e-300],
                            [0.1, -2.5e-310, np.pi, 1e300],
                            [2.0 ** -1074 * 3, -1.0, 0.0, 1.0 / 3.0]])


def test_matrix_csv_writer_bytes_match_the_per_element_repr_writer(tmp_path):
    import csv

    ids = ["r0", "r1", "r2"]
    old = tmp_path / "old.csv"
    with open(old, "w", newline="") as fh:   # the writer as it was, cell by cell
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([""] + [str(j) for j in range(CSV_EDGE_VALUES.shape[1])])
        for rid, row in zip(ids, CSV_EDGE_VALUES):
            w.writerow([rid] + [repr(float(v)) for v in row])
    new = tmp_path / "new.csv"
    kn.save_matrix_csv(CSV_EDGE_VALUES, new, ids=ids)
    assert new.read_bytes() == old.read_bytes()
    loaded, _ = kn.load_matrix_csv(new)
    assert loaded.tobytes() == CSV_EDGE_VALUES.tobytes()   # -0.0 keeps its sign


@pytest.mark.parametrize("values, ids", [
    ([[1.0, 0.25, 1.0 / 3.0, -0.0, 5e-324]], ["a,b"]),
    ([[1.0, 0.25], [-0.0, 5e-324]], ['say "hi"', "line\nbreak"]),
    ([[1.0 / 3.0]], ["only"]),
    ([[-0.0]], None),
    ([[5e-324, 1.0], [0.25, 1.0 / 3.0]], [7, ""]),
])
def test_matrix_csv_bytes_match_csv_writer(tmp_path, values, ids):
    import csv

    values = np.array(values)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([""] + [str(j) for j in range(values.shape[1])])
        row_ids = range(values.shape[0]) if ids is None else ids
        for rid, row in zip(row_ids, values.tolist()):
            w.writerow([str(rid), *map(repr, row)])
    path = tmp_path / "k.csv"
    kn.save_matrix_csv(values, path, ids=ids)
    assert path.read_bytes() == ref.read_bytes()
    loaded, back_ids = kn.load_matrix_csv(path)
    assert loaded.tobytes() == values.tobytes()
    assert back_ids == [str(i) for i in row_ids]


def test_matrix_csv_rejects_a_matrix_without_columns(tmp_path):
    with pytest.raises(ValueError, match="column"):
        kn.save_matrix_csv(np.zeros((2, 0)), tmp_path / "k.csv")


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_matrix_csv_roundtrip_is_bit_exact_for_any_finite_matrix(values):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/k.csv"
        kn.save_matrix_csv(values, path)
        loaded, ids = kn.load_matrix_csv(path)
    assert loaded.shape == values.shape
    assert loaded.tobytes() == values.tobytes()
    assert ids == [str(i) for i in range(values.shape[0])]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_matrix_csv_rejects_non_finite_cells(tmp_path, bad):
    path = tmp_path / "k.csv"
    kn.save_matrix_csv(np.eye(2), path)
    path.write_text(path.read_text().replace("0.0", bad, 1))
    with pytest.raises(ValueError, match="finite"):
        kn.load_matrix_csv(path)

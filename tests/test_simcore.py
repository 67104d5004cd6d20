"""Statevector engine checks against independently built matrix oracles."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covkern import kernel as kn
from covkern import simcore as sc


def rotation_oracle(name, angle):
    # written out from the generator definitions, not shared with the module
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if name == "ry":
        return np.array([[c, -s], [s, c]])
    if name == "rz":
        return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]])
    raise AssertionError(name)


def full_unitary(n, gates):
    """Dense 2^n x 2^n unitary by explicit kron products, qubit 0 least significant."""
    dim = 2 ** n
    u = np.eye(dim, dtype=complex)
    for g in gates:
        if g.name == "cz":
            m = np.ones(dim)
            for idx in range(dim):
                if (idx >> g.qubits[0]) & 1 and (idx >> g.qubits[1]) & 1:
                    m[idx] = -1.0
            step = np.diag(m).astype(complex)
        else:
            step = np.eye(1, dtype=complex)
            for q in reversed(range(n)):
                factor = rotation_oracle(g.name, g.angle) if q == g.qubits[0] else np.eye(2)
                step = np.kron(step, factor)
        u = step @ u
    return u


def test_zero_state_is_basis_vector():
    st = sc.zero_state(3)
    assert st.shape == (8,) and st.dtype == complex
    assert st[0] == 1.0
    assert np.all(st[1:] == 0.0)


def test_qubit_index_is_least_significant_bit():
    # rx on qubit 0 must populate index 1, on qubit 1 index 2
    st = sc.apply_gate(sc.zero_state(2), sc.rx(0, np.pi))
    assert abs(st[1]) == pytest.approx(1.0, abs=1e-12)
    st = sc.apply_gate(sc.zero_state(2), sc.rx(1, np.pi))
    assert abs(st[2]) == pytest.approx(1.0, abs=1e-12)


def test_single_gates_match_matrix_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(0, n))
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        name = ("rx", "ry", "rz")[trial % 3]
        gate = sc.GateOp(name, (q,), angle)
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps /= np.linalg.norm(amps)
        out = sc.apply_gate(amps, gate)
        expect = full_unitary(n, [gate]) @ amps
        np.testing.assert_allclose(out, expect, atol=1e-12)


def test_cz_flips_only_the_11_component():
    amps = np.arange(1, 5, dtype=complex)
    amps /= np.linalg.norm(amps)
    before = amps.copy()
    out = sc.apply_gate(amps, sc.cz(0, 1))
    expect = amps * np.array([1, 1, 1, -1])
    np.testing.assert_allclose(out, expect, atol=1e-15)
    np.testing.assert_array_equal(amps, before)


def test_run_circuit_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        circ = sc.Circuit(n)
        for _ in range(12):
            kind = rng.integers(0, 4)
            if kind == 3:
                a, b = rng.choice(n, size=2, replace=False)
                circ.add(sc.cz(int(a), int(b)))
            else:
                maker = (sc.rx, sc.ry, sc.rz)[kind]
                circ.add(maker(int(rng.integers(0, n)), float(rng.uniform(-3, 3))))
        out = sc.run_circuit(circ)
        expect = full_unitary(n, circ.gates)[:, 0]
        np.testing.assert_allclose(out, expect, atol=1e-11)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_circuit_inverse_undoes_itself():
    rng = np.random.default_rng(3)
    circ = sc.Circuit(3)
    for _ in range(9):
        circ.add(sc.rx(int(rng.integers(3)), float(rng.uniform(-3, 3))))
        circ.add(sc.cz(0, 1 + int(rng.integers(2))))
    state = sc.run_circuit(circ.inverse(), sc.run_circuit(circ))
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-10)


def test_run_circuit_returns_a_new_array_even_for_an_empty_circuit():
    # the identity coset of theory.bell_structure is an empty circuit
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    for circ in (sc.Circuit(2), sc.Circuit(2, [sc.rx(0, 0.3)])):
        out = sc.run_circuit(circ, psi)
        assert not np.shares_memory(out, psi)
        out[:] = 0.0
        assert psi[0] == psi[3] == 1.0 / np.sqrt(2.0)
    np.testing.assert_array_equal(sc.run_circuit(sc.Circuit(2), psi), psi)


def test_gate_inverse_negates_rotation_angle_only():
    g = sc.ry(2, 0.7)
    assert g.inverse() == sc.ry(2, -0.7)
    assert sc.cz(0, 1).inverse() == sc.cz(0, 1)


def test_cz_is_order_insensitive_and_rejects_same_qubit():
    assert sc.cz(3, 1) == sc.cz(1, 3)
    with pytest.raises(ValueError):
        sc.cz(2, 2)


def test_register_bounds_enforced():
    with pytest.raises(ValueError):
        sc.zero_state(0)
    with pytest.raises(ValueError):
        sc.zero_state(sc.MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        sc.Circuit(2).add(sc.rx(2, 0.1))
    with pytest.raises(ValueError):
        sc.apply_gate(sc.zero_state(2), sc.rx(5, 0.1))
    with pytest.raises(ValueError):
        sc.run_circuit(sc.Circuit(2), sc.zero_state(3))


def test_outcome_distribution_is_amplitude_square():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    dist = sc.outcome_distribution(amps)
    np.testing.assert_allclose(dist, np.abs(amps) ** 2, atol=1e-14)
    assert dist.sum() == pytest.approx(1.0)


def readout_oracle(probs, n, p01, p10):
    """Push a distribution through the flip channel by explicit enumeration."""
    out = np.zeros_like(probs)
    for true in range(2 ** n):
        for obs in range(2 ** n):
            p = 1.0
            for b in range(n):
                tb, ob = (true >> b) & 1, (obs >> b) & 1
                if tb == 0:
                    p *= p01 if ob == 1 else 1 - p01
                else:
                    p *= p10 if ob == 0 else 1 - p10
            out[obs] += probs[true] * p
    return out


def test_readout_noise_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        probs = rng.dirichlet(np.ones(2 ** n))
        noise = sc.NoiseModel(p01=0.07, p10=0.02)
        got = sc.apply_readout_noise(probs, noise)
        np.testing.assert_allclose(got, readout_oracle(probs, n, 0.07, 0.02), atol=1e-12)
        assert got.sum() == pytest.approx(1.0)


def test_depolarizing_mixes_toward_uniform():
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    noise = sc.NoiseModel(depolarizing=0.4)
    got = sc.apply_readout_noise(probs, noise)
    np.testing.assert_allclose(got, 0.6 * probs + 0.4 / 4, atol=1e-14)


def test_trivial_noise_is_identity():
    noise = sc.NoiseModel()
    assert noise.is_trivial()
    probs = np.array([0.25, 0.75])
    np.testing.assert_allclose(sc.apply_readout_noise(probs, noise), probs)
    assert not sc.NoiseModel(p01=0.01).is_trivial()


def test_reference_functions_read_the_width_from_their_arrays():
    # no reference function takes a width beside its array, each accepts an
    # array-like, and every row of a batch reads through the noise as alone
    for fn in (sc.apply_readout_noise, sc.sample_counts, sc.weight_mass_profile,
               sc.product_blocks):
        assert "n" not in inspect.signature(fn).parameters, fn.__name__
    noise = sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03)
    batch = np.random.default_rng(3).dirichlet(np.ones(8), size=(2, 3))
    noisy = sc.apply_readout_noise(batch, noise)
    assert noisy.shape == batch.shape
    for row, probs in zip(noisy.reshape(-1, 8), batch.reshape(-1, 8)):
        np.testing.assert_allclose(row, sc.apply_readout_noise(probs, noise), rtol=0, atol=1e-15)
    probs = batch[0, 0]
    np.testing.assert_array_equal(sc.apply_readout_noise(probs.tolist(), noise),
                                  sc.apply_readout_noise(probs, noise))
    np.testing.assert_array_equal(sc.weight_mass_profile(probs.tolist()),
                                  sc.weight_mass_profile(probs))
    np.testing.assert_array_equal(sc.sample_counts(probs.tolist(), 50, 1),
                                  sc.sample_counts(probs, 50, 1))
    np.testing.assert_allclose(sc.outcome_distribution([0.6, 0.8j]), [0.36, 0.64], atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_readout_noise_rows_do_not_depend_on_their_batch(n):
    # bit for bit, not within a tolerance: a row of a batch reads through the
    # noise exactly as it does alone, at every width and under every model
    batch = np.random.default_rng(40 + n).dirichlet(np.ones(2 ** n), size=5)
    for noise in (sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03),
                  sc.NoiseModel(p01=0.1), sc.NoiseModel(p10=0.2, depolarizing=0.5)):
        noisy = sc.apply_readout_noise(batch, noise)
        for row, probs in zip(noisy, batch):
            np.testing.assert_array_equal(row, sc.apply_readout_noise(probs, noise))


def test_noise_probabilities_validated():
    with pytest.raises(ValueError):
        sc.NoiseModel(p01=1.5)
    with pytest.raises(ValueError):
        sc.NoiseModel(p10=-0.1)


def test_binomial_cdf_of_identity_circuit_under_flips():
    # point mass at the zero string -> weight profile is the binomial CDF
    p01 = 0.06
    for n in (3, 6, 10):
        dist = np.zeros(2 ** n)
        dist[0] = 1.0
        noisy = sc.apply_readout_noise(dist, sc.NoiseModel(p01=p01))
        for d in range(n + 1):
            cdf = sum(math.comb(n, k) * p01 ** k * (1 - p01) ** (n - k)
                      for k in range(d + 1))
            assert sc.weight_mass_profile(noisy)[d] == pytest.approx(cdf, abs=1e-12)


_rates = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), p01=_rates, p10=_rates, depolarizing=_rates,
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=7, p01=0.07, p10=0.13, depolarizing=0.05, seed=1)   # uniform is not flip-invariant
def test_weight_transfer_is_readout_noise_on_weight_histograms(n, p01, p10, depolarizing, seed):
    noise = sc.NoiseModel(p01=p01, p10=p10, depolarizing=depolarizing)
    t = sc.weight_transfer(n, noise)
    assert t.shape == (n + 1, n + 1)
    assert np.all(t >= 0.0)
    np.testing.assert_allclose(t.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    p = np.random.default_rng(seed).dirichlet(np.full(2 ** n, 0.3))

    def histogram(dist):
        return np.diff(sc.weight_mass_profile(dist), prepend=0.0)

    np.testing.assert_allclose(t @ histogram(p),
                               histogram(sc.apply_readout_noise(p, noise)),
                               rtol=0, atol=1e-12)


def test_weight_transfer_is_built_once_per_width_and_noise_and_read_only():
    noise = sc.NoiseModel(p01=0.03, p10=0.05, depolarizing=0.02)
    t = sc.weight_transfer(8, noise)
    assert sc.weight_transfer(8, sc.NoiseModel(p01=0.03, p10=0.05, depolarizing=0.02)) is t
    assert sc.weight_transfer(8, sc.NoiseModel(p01=0.03)) is not t
    assert t.tobytes() == sc.weight_transfer.__wrapped__(8, noise).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        t[0, 0] = 0.0


@pytest.mark.parametrize("start", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_apply_product_matches_kron_oracle(n, start):
    # product_into on a batch of 3 states held as rows; from group ``start``
    # on it applies the same np.kron product with the identity on the qubits
    # of the groups below
    rng = np.random.default_rng(n)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n)]
    states = rng.normal(size=(3, 2 ** n)) + 1j * rng.normal(size=(3, 2 ** n))
    dense = np.eye(1, dtype=complex)
    for q in reversed(range(n)):
        dense = np.kron(dense, mats[q] if q >= 4 * start else np.eye(2))
    blocks = sc.product_blocks(mats)
    assert [b.shape[0] for b in blocks] == [2 ** min(4, n - lo) for lo in range(0, n, 4)]
    cur = states.copy()
    got, _ = sc.product_into(cur, np.empty_like(cur), blocks, start=start)
    np.testing.assert_allclose(got, states @ dense.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("complex_factors", [False, True])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
def test_product_blocks_match_kron_oracle(n, complex_factors):
    # block g is np.kron(mats[hi-1], ..., mats[lo]) over its group's qubits
    rng = np.random.default_rng(n)
    mats = rng.normal(size=(n, 2, 2)) + complex_factors * 1j * rng.normal(size=(n, 2, 2))
    blocks = sc.product_blocks(list(mats))
    assert len(blocks) == -(-n // 4)
    for block, lo in zip(blocks, range(0, n, 4)):
        dense = np.eye(1)
        for q in reversed(range(lo, min(lo + 4, n))):
            dense = np.kron(dense, mats[q])
        assert block.dtype == mats.dtype
        np.testing.assert_allclose(block, dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 13])
def test_weight_layers_match_bincount_oracle_and_do_not_depend_on_batch(n, noisy):
    # the weight layers sum squared real and imaginary parts into Hamming
    # weight bins; with the transfer after them they must give the per-outcome
    # noise channel's profile, and each row the same bits in any batch
    rng = np.random.default_rng(100 + n)
    states = rng.normal(size=(7, 2 ** n)) + 1j * rng.normal(size=(7, 2 ** n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    noise = sc.NoiseModel(p01=0.04, p10=0.09, depolarizing=0.03) if noisy else sc.NoiseModel()
    layers = sc.weight_layers(n)
    assert all(layer.shape[0] <= 16 * (n + 1) and layer.shape[1] <= n + 1 for layer in layers)
    squares = np.square(states.view(float))
    hist = sc.weight_histograms(squares, layers)
    assert hist.shape == (7, n + 1)
    got = np.cumsum(hist @ sc.weight_transfer(n, noise).T, axis=1)
    probs = (states.conj() * states).real
    want = sc.weight_mass_profile(sc.apply_readout_noise(probs, noise))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    for lo, hi in ((0, 1), (2, 4), (4, 7), (6, 7), (1, 4)):
        np.testing.assert_array_equal(sc.weight_histograms(squares[lo:hi], layers), hist[lo:hi])


def test_matmul_rows_gives_a_lone_row_the_bits_of_a_two_row_product():
    # over leading axes and into a strided out, as the profile route's folded
    # stack calls it, and on a plain matrix, a lone row comes out with the
    # bits it has beside a second row
    rng = np.random.default_rng(8)
    rows, mats = rng.normal(size=(2, 5, 32)), rng.normal(size=(5, 32, 32))
    pair = np.matmul(rows.transpose(1, 0, 2), mats)
    out = np.empty((1, 5, 32)).transpose(1, 0, 2)
    assert sc.matmul_rows(rows[:1].transpose(1, 0, 2), mats, out=out) is out
    np.testing.assert_array_equal(out, pair[:, :1])
    np.testing.assert_array_equal(sc.matmul_rows(rows[:1, 0], mats[0]), pair[0, :1])
    out = np.empty((2, 32))
    assert sc.matmul_rows(rows[:, 0], mats[0], out=out) is out
    np.testing.assert_array_equal(out, pair[0])


def test_hamming_weights_match_bit_counting():
    w = sc.hamming_weights(6)
    for idx in range(64):
        assert w[idx] == bin(idx).count("1")


def test_cached_tables_are_read_only():
    # an in-place edit by one caller would corrupt every later lookup
    left, blocks = kn._embedding_layer(3, "y")
    tables = [sc.hamming_weights(3), sc.weight_transfer(3, sc.NoiseModel(p01=0.1)),
              left, blocks[0]]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    assert sc.hamming_weights(3) is tables[0]
    np.testing.assert_array_equal(sc.hamming_weights(3), [0, 1, 1, 2, 1, 2, 2, 3])


def test_hamming_mass_edge_cases():
    # weight_mass_profile is the Hamming-mass reference: the weight-0 mass is
    # the zero string's alone, the last entry the total, and a distribution
    # whose length is not a power of two is rejected
    dist = np.full(8, 1 / 8)
    prof = sc.weight_mass_profile(dist)
    assert prof[0] == 1 / 8
    assert prof[3] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="dist must be an array of rows of 2"):
        sc.weight_mass_profile(np.full(6, 1 / 6))


def test_weight_mass_profile_is_cumulative_and_batched():
    rng = np.random.default_rng(23)
    dist = rng.dirichlet(np.ones(16))
    prof = sc.weight_mass_profile(dist)
    assert prof.shape == (5,)
    assert np.all(np.diff(prof) >= -1e-15)
    assert prof[-1] == pytest.approx(1.0)
    weights = np.array([bin(k).count("1") for k in range(16)])
    for d in range(5):
        assert prof[d] == pytest.approx(dist[weights <= d].sum(), abs=1e-12)
    batch = rng.dirichlet(np.ones(16), size=7)
    batched = sc.weight_mass_profile(batch)
    assert batched.shape == (7, 5)
    for row, row_dist in zip(batched, batch):
        np.testing.assert_allclose(row, sc.weight_mass_profile(row_dist), atol=1e-12)


def test_sample_counts_deterministic_and_complete():
    dist = np.array([0.5, 0.25, 0.125, 0.125])
    a = sc.sample_counts(dist, 1000, seed=(9, 0, 1, 2))
    b = sc.sample_counts(dist, 1000, seed=(9, 0, 1, 2))
    c = sc.sample_counts(dist, 1000, seed=(9, 0, 1, 3))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (4,) and a.sum() == 1000


def test_sample_counts_concentrates_on_distribution():
    dist = np.array([0.7, 0.1, 0.1, 0.1])
    shots = 200_000
    freq = sc.sample_counts(dist, shots, seed=42)[0] / shots
    # 5 sigma band, sigma = sqrt(p(1-p)/shots) ~ 0.001
    assert abs(freq - 0.7) < 5 * math.sqrt(0.7 * 0.3 / shots)


def test_sample_counts_input_validation():
    with pytest.raises(ValueError):
        sc.sample_counts(np.array([0.5, 0.5]), 0, seed=1)
    with pytest.raises(ValueError, match="dist must be a 1-D array of 2"):
        sc.sample_counts(np.full(3, 1 / 3), 10, seed=1)
    with pytest.raises(ValueError):
        sc.sample_counts(np.array([0.9, 0.3]), 10, seed=1)

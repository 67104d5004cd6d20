"""Alignment objective, SPSA loop, and geometric-difference diagnostics."""

import numpy as np
import pytest
import scipy.linalg

from covkern import align as al
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn


def random_symmetric(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    return (a + a.T) / 2


# ------------------------------------------------------- centering/alignment

def test_center_matrix_matches_projector_oracle():
    m = 7
    k = random_symmetric(m, 1)
    h = np.eye(m) - np.full((m, m), 1.0 / m)
    np.testing.assert_allclose(al.center_matrix(k), h @ k @ h, atol=1e-12)
    centered = al.center_matrix(k)
    np.testing.assert_allclose(centered.sum(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(centered.sum(axis=1), 0.0, atol=1e-10)


def test_alignment_ignores_constant_shift():
    k = random_symmetric(6, 2)
    target = al.target_matrix([0, 0, 1, 1, 2, 2])
    base = al.centered_alignment(target, k)
    shifted = al.centered_alignment(target, k + 3.7)
    assert shifted == pytest.approx(base, abs=1e-12)
    assert al.centered_alignment(target, target) == pytest.approx(1.0, abs=1e-12)
    assert al.centered_alignment(target, -target) == pytest.approx(-1.0, abs=1e-12)


def test_alignment_rejects_constant_kernel():
    target = al.target_matrix([0, 1, 0])
    with pytest.raises(ValueError):
        al.centered_alignment(target, np.ones((3, 3)))


def test_target_matrix_is_the_class_indicator():
    labels = [0, 1, 2, 0]
    t = al.target_matrix(labels)
    assert t[0, 3] == 1.0 and t[0, 1] == 0.0 and t[1, 1] == 1.0
    np.testing.assert_array_equal(al.target_matrix([0, 0]), np.ones((2, 2)))


def test_both_targets_give_identical_alignment():
    # the +1 / -1/(C-1) target is a * zero_one + b * ones with a > 0, and
    # centering kills b
    labels = [0, 1, 2, 0, 1, 2, 0]
    k = random_symmetric(7, 3)
    zero_one = al.target_matrix(labels)
    shifted = 1.5 * zero_one - 0.5   # C = 3
    assert shifted[0, 3] == 1.0 and shifted[0, 1] == -0.5
    a0 = al.centered_alignment(zero_one, k)
    a1 = al.centered_alignment(shifted, k)
    assert a1 == pytest.approx(a0, abs=1e-12)


# ------------------------------------------------------- SPSA

def test_gain_schedule():
    cfg = al.SPSAConfig(a=0.2, c=0.3, stability=10.0)
    a0, c0 = cfg.gains(0)
    assert c0 == pytest.approx(0.3)  # (0 + 1)^0.101 == 1
    assert a0 == pytest.approx(0.2 / 11.0 ** 0.602)
    a5, c5 = cfg.gains(5)
    assert a5 < a0 and c5 < c0
    assert a5 > 0 and c5 > 0


@pytest.mark.parametrize("bad, fragment", [({"c": 0.0}, "c must be nonzero"),
                                           ({"stability": -1.0}, "stability must exceed -1"),
                                           ({"stability": -3.0}, "stability must exceed -1")])
def test_gain_schedule_rejects_a_zero_perturbation_or_a_nonpositive_base(bad, fragment):
    # c = 0 divides the gradient estimate by zero; stability <= -1 makes the
    # first step's base k + 1 + stability zero or negative
    with pytest.raises(ValueError, match=fragment):
        al.SPSAConfig(**bad)
    assert al.SPSAConfig(c=-0.1, stability=-0.5).gains(0)[0] > 0


def test_align_kernel_is_deterministic_and_consistent():
    ds = dt.bell_pair_dataset(4, seed=3)
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    rng = np.random.default_rng(5)
    init = rng.uniform(0, 2 * np.pi, 6)
    spsa = al.SPSAConfig(a=1.0, c=0.2, iterations=8, seed=2)
    cfg = kn.KernelConfig()
    t1 = al.align_kernel(ds.features, ds.labels, spec, init, spsa, cfg)
    t2 = al.align_kernel(ds.features, ds.labels, spec, init, spsa, cfg)
    np.testing.assert_array_equal(t1.losses, t2.losses)
    np.testing.assert_array_equal(t1.params_history, t2.params_history)
    assert t1.losses.shape == (9,)
    assert t1.params_history.shape == (9, 6)
    assert t1.best_index == int(np.argmin(t1.losses))
    assert t1.best_loss == t1.losses[t1.best_index]
    # the reported loss belongs to the reported iterate
    re_eval = al.alignment_loss(ds.features, ds.labels, spec, t1.best_params, cfg)
    assert re_eval == pytest.approx(t1.best_loss, abs=1e-12)


def test_spsa_reduces_bell_pair_loss():
    ds = dt.bell_pair_dataset(6, seed=3)
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    init = np.random.default_rng((3, 5)).uniform(0, 2 * np.pi, 6)
    spsa = al.SPSAConfig(a=1.0, c=0.2, iterations=30, seed=3)
    trace = al.align_kernel(ds.features, ds.labels, spec, init, spsa, kn.KernelConfig())
    assert trace.best_loss < trace.losses[0] - 0.05


def test_degenerate_kernel_scores_worst_loss():
    # identical samples make the kernel constant; the loss must not blow up
    spec = fm.make_feature_map(fm.line_coupling(2), 2)
    xs = np.zeros((4, 2))
    loss = al.alignment_loss(xs, [0, 1, 0, 1], spec, np.zeros(6), kn.KernelConfig())
    assert loss == 1.0


def test_degenerate_kernel_with_rounding_noise_scores_worst_loss():
    # identical non-zero samples under a random fiducial give a kernel of
    # 1 +- 1e-16, which is constant up to rounding and must not score
    rng = np.random.default_rng(17)
    spec = fm.make_feature_map(fm.line_coupling(3), 3)
    xs = np.tile(rng.normal(size=3), (4, 1))
    params = rng.uniform(-np.pi, np.pi, 9)
    loss = al.alignment_loss(xs, [0, 1, 0, 1], spec, params, kn.KernelConfig())
    assert loss == 1.0


def test_trace_csv_roundtrip(tmp_path):
    losses = np.array([0.9, 0.4, 0.6])
    history = np.random.default_rng(0).normal(size=(3, 4))
    trace = al.AlignmentTrace(losses, history)
    path = tmp_path / "trace.csv"
    al.save_trace_csv(trace, path)
    back = al.load_trace_csv(path)
    np.testing.assert_array_equal(back.losses, losses)
    np.testing.assert_array_equal(back.params_history, history)
    assert back.best_index == 1
    with pytest.raises(ValueError):
        empty = tmp_path / "empty.csv"
        empty.write_text("iteration,loss,p0\n")
        al.load_trace_csv(empty)


# ------------------------------------------------------- geometric difference

def test_geometric_difference_diagonal_case_is_exact():
    classical = np.diag([4.0, 1.0])
    quantum = np.diag([9.0, 1.0])
    got = al.geometric_difference(classical, quantum, regularizer=0.0)
    assert got == pytest.approx(1.5, abs=1e-12)


def test_geometric_difference_matches_scipy_oracle():
    rng = np.random.default_rng(8)
    for trial in range(5):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))
        classical = a @ a.T + 0.5 * np.eye(6)
        quantum = b @ b.T
        reg = 1e-6
        sqrt_q = scipy.linalg.sqrtm(quantum).real
        sandwich = sqrt_q @ np.linalg.inv(classical + reg * np.eye(6)) @ sqrt_q
        expected = np.sqrt(np.linalg.eigvalsh((sandwich + sandwich.T) / 2)[-1])
        got = al.geometric_difference(classical, quantum, regularizer=reg)
        assert got == pytest.approx(expected, rel=1e-8)


def test_geometric_difference_scales_as_sqrt():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(5, 5))
    classical = b @ b.T + np.eye(5)
    quantum = b.T @ b
    g1 = al.geometric_difference(classical, quantum, regularizer=1e-9)
    g4 = al.geometric_difference(classical, 4.0 * quantum, regularizer=1e-9)
    assert g4 == pytest.approx(2.0 * g1, rel=1e-9)


def test_geometric_difference_rejects_indefinite_input():
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    good = np.eye(2)
    with pytest.raises(ValueError):
        al.geometric_difference(bad, good)
    with pytest.raises(ValueError):
        al.geometric_difference(good, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_geometric_difference_rejects_non_finite_input(bad):
    values = np.eye(3)
    values[0, 2] = values[2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        al.geometric_difference(values, np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        al.geometric_difference(np.eye(3), values)

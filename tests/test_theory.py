"""Structural math checks: moments, principal angles, closed forms, covariance."""

import numpy as np
import pytest

from covkern import data as dt
from covkern import theory as th
from covkern.simcore import Circuit, StateVector, run_circuit, rx, zero_state


# ------------------------------------------------------- sphere moments

def test_sphere_moment_is_exact_in_dim_one():
    mean, se = th.sphere_inner_moment(1, trials=100)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_sphere_moment_matches_inverse_dim():
    for dim in (3, 7):
        mean, se = th.sphere_inner_moment(dim, trials=100_000, seed=dim)
        assert abs(mean - 1.0 / dim) < 4.0 * se
        assert se < 0.01


def test_sphere_moment_validation():
    with pytest.raises(ValueError):
        th.sphere_inner_moment(0, 100)
    with pytest.raises(ValueError):
        th.sphere_inner_moment(3, 1)


# ------------------------------------------------------- principal angles

def orthonormal(ambient, dim, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.normal(size=(ambient, dim)))[0]


def test_principal_angles_known_cases():
    e1 = np.array([[1.0], [0.0], [0.0]])
    e2 = np.array([[0.0], [1.0], [0.0]])
    np.testing.assert_allclose(th.principal_angles(e1, e1), [0.0], atol=1e-12)
    np.testing.assert_allclose(th.principal_angles(e1, e2), [np.pi / 2], atol=1e-12)
    t = 0.7
    tilted = np.array([[np.cos(t)], [np.sin(t)], [0.0]])
    np.testing.assert_allclose(th.principal_angles(e1, tilted), [t], atol=1e-12)
    # order within a pair of planes: angles come out nondecreasing
    u = orthonormal(6, 2, 1)
    v = orthonormal(6, 2, 2)
    angles = th.principal_angles(u, v)
    assert np.all(np.diff(angles) >= -1e-12)
    np.testing.assert_allclose(angles, th.principal_angles(v, u), atol=1e-10)


def test_principal_angles_validation():
    good = orthonormal(5, 2, 3)
    with pytest.raises(ValueError):
        th.principal_angles(good * 2.0, good)
    with pytest.raises(ValueError):
        th.principal_angles(good, orthonormal(6, 2, 4))
    with pytest.raises(ValueError):
        th.principal_angles(np.ones((2, 3)), good)


def test_aligned_bases_diagonalize_cross_products():
    u = orthonormal(8, 3, 5)
    v = orthonormal(8, 3, 6)
    au, av = th.aligned_bases(u, v)
    cross = au.T @ av
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() < 1e-10
    np.testing.assert_allclose(np.diag(cross), np.cos(th.principal_angles(u, v)),
                               atol=1e-10)
    # alignment is a basis change, not a subspace change
    np.testing.assert_allclose(au @ au.T, u @ u.T, atol=1e-10)
    np.testing.assert_allclose(av @ av.T, v @ v.T, atol=1e-10)
    assert th.cross_orthogonality_defect(u, v) < 1e-10


def test_cross_moment_analytic_limits():
    u = orthonormal(6, 2, 7)
    v_orth = np.linalg.qr(np.hstack([u, orthonormal(6, 2, 8)]))[0][:, 2:]
    assert th.cross_moment_analytic(u, v_orth) == pytest.approx(0.0, abs=1e-12)
    assert th.cross_moment_analytic(u, u) == pytest.approx(0.5, abs=1e-12)


def test_classical_moments_match_analytic_values():
    u = orthonormal(7, 2, 9)
    v = orthonormal(7, 3, 10)
    out = th.classical_subspace_moments(u, v, trials=60_000, seed=11)
    w_mean, w_se = out["within"]
    c_mean, c_se = out["cross"]
    assert out["within_analytic"] == pytest.approx(0.5)
    assert abs(w_mean - out["within_analytic"]) < 5.0 * w_se
    assert abs(c_mean - out["cross_analytic"]) < 5.0 * c_se


# ------------------------------------------------------- closed form

def test_cosine_product_kernel_matches_statevector():
    rng = np.random.default_rng(12)
    for n, scale in ((1, 2.0 * np.pi), (3, 2.0 * np.pi), (4, 1.3)):
        xs = rng.uniform(-1.0, 1.0, (6, n))
        ys = rng.uniform(-1.0, 1.0, (5, n))
        closed = th.cosine_product_kernel(xs, ys, angle_scale=scale)
        from covkern.kernel import overlap_kernel_from_state
        psi = zero_state(n).amplitudes
        direct = overlap_kernel_from_state(psi, scale * xs, scale * ys)
        np.testing.assert_allclose(closed, direct, atol=1e-12)
    square = th.cosine_product_kernel(xs)
    np.testing.assert_allclose(np.diag(square), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        th.cosine_product_kernel(xs, np.zeros((2, n + 1)))


# ------------------------------------------------------- expectation table

def test_expectation_table_structure_and_dim_one_values():
    rows = th.subspace_kernel_expectations((1,), trials=40_000, seed=13)
    by_case = {r.case: r for r in rows}
    assert set(by_case) == set(th.SUBSPACE_CASES)
    assert by_case["same"].dim_y == 1
    assert by_case["orthogonal_double"].dim_y == 2
    # dim 1 sphere points are +-1: same-subspace mean is (1 + cos^2(2))/2 and
    # the orthogonal-equal kernel is the constant cos^4(1)
    same = by_case["same"]
    expected_same = 0.5 * (1.0 + np.cos(2.0) ** 2)
    assert abs(same.mean - expected_same) < 4.0 * same.stderr
    orth = by_case["orthogonal_equal"]
    assert orth.mean == pytest.approx(np.cos(1.0) ** 4, abs=1e-12)
    assert orth.stderr == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        th.subspace_kernel_expectations((0,), trials=100)


def haar_layout_reference(dx, dy, trials, rng):
    """Mean and stderr of an independent layout built the long way: y is a
    uniform point of the span of the last dy columns of a per-trial Haar
    rotation of the (dx + dy)-dim joint span."""
    t = dx + dy
    x = np.zeros((trials, t))
    x[:, :dx] = rng.standard_normal((trials, dx))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    q, r = np.linalg.qr(rng.standard_normal((trials, t, t)))
    rot = q * np.sign(np.einsum("bii->bi", r))[:, None, :]
    ycoef = rng.standard_normal((trials, dy))
    ycoef /= np.linalg.norm(ycoef, axis=1, keepdims=True)
    y = np.einsum("bij,bj->bi", rot[:, :, dx:], ycoef)
    vals = np.prod(np.cos(x - y) ** 2, axis=1)
    return vals.mean(), vals.std(ddof=1) / np.sqrt(trials)


def test_independent_layouts_follow_the_haar_construction():
    trials = 20_000
    for dx in (1, 2, 3):
        by_case = {r.case: r for r in th.subspace_kernel_expectations((dx,), trials, seed=29)}
        rng = np.random.default_rng((29, dx, 1))
        for case, dy in (("independent_equal", dx), ("independent_double", 2 * dx)):
            row = by_case[case]
            assert row.dim_y == dy
            ref_mean, ref_se = haar_layout_reference(dx, dy, trials, rng)
            sigma = np.hypot(row.stderr, ref_se)
            assert abs(row.mean - ref_mean) <= 4.0 * sigma, (dx, case)


def test_expectation_table_is_seed_deterministic():
    a = th.subspace_kernel_expectations((2,), trials=5_000, seed=3)
    b = th.subspace_kernel_expectations((2,), trials=5_000, seed=3)
    assert a == b


def test_ordering_margins():
    rows = [
        th.ExpectationRow("same", 2, 2, 1.0, 0.1),
        th.ExpectationRow("orthogonal_equal", 2, 2, 0.5, 0.0),
        th.ExpectationRow("independent_equal", 2, 2, 0.8, 0.0),
    ]
    margins = th.expectation_ordering_margins(rows)
    assert margins[2] == pytest.approx(2.0)  # worst case: (1.0 - 0.8) / 0.1
    with pytest.raises(ValueError):
        th.expectation_ordering_margins([rows[1]])


def test_expectation_csv(tmp_path):
    rows = th.subspace_kernel_expectations((1,), trials=1_000, seed=0)
    path = tmp_path / "table.csv"
    th.save_expectation_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case,dim_x,dim_y,mean,stderr"
    assert len(lines) == 1 + len(rows)


# ------------------------------------------------------- covariance checks

def test_bell_structure_passes_all_checks():
    structure = th.bell_structure()
    ds = dt.bell_pair_dataset(10, seed=4)
    report = th.check_covariance(structure, th.class_circuits_from_dataset(ds))
    assert report.passed
    dev, ok = th.verify_delta_kernel(ds, structure.fiducial)
    assert ok and dev <= 1e-9


def test_broken_generator_is_reported():
    base = th.bell_structure()
    bad = th.CovariantStructure(base.fiducial,
                                (Circuit(2, [rx(0, 0.5)]),), base.cosets)
    report = th.check_covariance(bad, [[], []])
    assert report.invariance_violations
    assert not report.passed


def test_off_coset_samples_are_reported():
    structure = th.bell_structure()
    ds = dt.bell_pair_dataset(5, seed=6)
    shifted = dt.Dataset(ds.features + 0.3, ds.labels)
    report = th.check_covariance(structure, th.class_circuits_from_dataset(shifted))
    assert len(report.membership_violations) == 10
    assert not report.passed


def test_non_orthogonal_cosets_are_reported():
    base = th.bell_structure()
    bad = th.CovariantStructure(base.fiducial, base.generators,
                                (Circuit(2, []), Circuit(2, [])))
    report = th.check_covariance(bad, [[], []])
    assert report.orthogonality_violations == [(0, 1, pytest.approx(1.0))]


def test_covariance_input_validation():
    structure = th.bell_structure()
    with pytest.raises(ValueError):
        th.check_covariance(structure, [[]])
    with pytest.raises(ValueError):
        th.check_covariance(structure, [[Circuit(3, [])], []])
    with pytest.raises(ValueError):
        th.CovariantStructure(structure.fiducial, (Circuit(3, []),), structure.cosets)


def test_product_rotation_circuit_layout():
    circ = th.product_rotation_circuit([0.5, -1.0], axis="y")
    assert circ.n_qubits == 2
    assert [(g.name, g.qubits[0], g.angle) for g in circ.gates] == [
        ("ry", 0, 0.5), ("ry", 1, -1.0)]


def test_class_circuits_grouping():
    ds = dt.bell_pair_dataset(4, seed=7)
    groups = th.class_circuits_from_dataset(ds, angle_scale=2.0)
    assert len(groups) == 2
    assert all(len(g) == 4 for g in groups)
    # the scale multiplies every rotation angle
    first = groups[0][0]
    assert first.gates[0].angle == pytest.approx(2.0 * ds.features[0, 0])


def test_verify_delta_kernel_flags_wrong_fiducial():
    ds = dt.bell_pair_dataset(6, seed=8)
    dev, ok = th.verify_delta_kernel(ds, zero_state(2))
    assert not ok and dev > 0.1

"""Dataset generators: geometry invariants, splitting, CSV round trips."""

import numpy as np
import pytest

from covkern import data as dt


# ------------------------------------------------------- Dataset container

def test_dataset_validation():
    with pytest.raises(ValueError):
        dt.Dataset(np.zeros(3), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        dt.Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        dt.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), importance=(0, 0))
    ds = dt.Dataset(np.zeros((3, 2)), np.array([1, 0, 1]), importance=(1, 0))
    assert ds.n_samples == 3 and ds.n_features == 2
    np.testing.assert_array_equal(ds.classes(), [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    feats = np.zeros((3, 2))
    feats[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        dt.Dataset(feats, np.array([1, 0, 1]))


# ------------------------------------------------------- random geometry

def test_haar_rotation_is_special_orthogonal():
    rng = np.random.default_rng(0)
    for dim in (1, 3, 6):
        q = dt.haar_rotation(dim, rng)
        np.testing.assert_allclose(q @ q.T, np.eye(dim), atol=1e-12)
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dt.haar_rotation(0, rng)


def test_sphere_points_live_on_subspace_sphere():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(7, 3)))[0]
    pts = dt.sphere_points(basis, 50, rng)
    assert pts.shape == (50, 7)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    residual = pts - (pts @ basis) @ basis.T
    assert np.abs(residual).max() < 1e-12


def test_subspace_bases_orthogonal_layout():
    spec = dt.SubspaceSpec(ambient_dim=9, class_dims=(2, 3, 2),
                           samples_per_class=5, rotate=False, seed=3)
    bases = dt.subspace_bases(spec)
    assert [b.shape for b in bases] == [(9, 2), (9, 3), (9, 2)]
    for b in bases:
        np.testing.assert_allclose(b.T @ b, np.eye(b.shape[1]), atol=1e-12)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(bases[i].T @ bases[j]).max() < 1e-12


def test_subspace_bases_rotation_keeps_joint_span():
    plain = dt.SubspaceSpec(9, (2, 2), 5, rotate=False, seed=4)
    spun = dt.SubspaceSpec(9, (2, 2), 5, rotate=True, seed=4)
    b_plain = dt.subspace_bases(plain)
    b_spun = dt.subspace_bases(spun)
    np.testing.assert_array_equal(b_plain[0], b_spun[0])  # class 0 keeps its block
    joint = np.hstack(b_plain)
    proj = joint @ joint.T
    for b in b_spun:
        np.testing.assert_allclose(proj @ b, b, atol=1e-12)
        np.testing.assert_allclose(b.T @ b, np.eye(2), atol=1e-12)
    # generic rotation really moves the second block
    assert np.abs(b_plain[1] - b_spun[1]).max() > 0.1


def test_subspace_spec_validation():
    with pytest.raises(ValueError):
        dt.SubspaceSpec(4, (2, 3), 5)
    with pytest.raises(ValueError):
        dt.SubspaceSpec(4, (0, 2), 5)
    with pytest.raises(ValueError):
        dt.SubspaceSpec(4, (2, 2), 0)


def test_gen_union_subspaces_contract():
    spec = dt.SubspaceSpec(8, (2, 3), 20, rotate=True, seed=5)
    ds = dt.gen_union_subspaces(spec)
    assert ds.features.shape == (40, 8)
    np.testing.assert_array_equal(ds.labels, np.repeat([0, 1], 20))
    np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)
    bases = dt.subspace_bases(spec)
    for c, basis in enumerate(bases):
        pts = ds.features[ds.labels == c]
        residual = pts - (pts @ basis) @ basis.T
        assert np.abs(residual).max() < 1e-12
    again = dt.gen_union_subspaces(spec)
    np.testing.assert_array_equal(ds.features, again.features)


# ------------------------------------------------------- covariant data

def test_covariant_spec_validation():
    with pytest.raises(ValueError):
        dt.CovariantSpec(0, 0.1, (0.0, 0.5), 5)
    with pytest.raises(ValueError):
        dt.CovariantSpec(2, 0.0, (0.0, 0.5), 5)
    with pytest.raises(ValueError):
        dt.CovariantSpec(2, 0.1, (0.0,), 5)
    with pytest.raises(ValueError):
        dt.CovariantSpec(2, 0.1, (0.0, 0.5), 5, integer_range=(3, 1))
    with pytest.raises(ValueError):
        dt.CovariantSpec(2, 0.1, (0.0, 0.5), 5, axis="q")
    # offsets an exact step multiple apart collide on the same coset
    with pytest.raises(ValueError):
        dt.CovariantSpec(2, 0.1, (0.0, 0.3), 5)


def test_gen_covariant_lands_on_cosets():
    spec = dt.CovariantSpec(n_qubits=3, step=0.25, offsets=(0.0, 0.1, 0.17),
                            samples_per_class=15, integer_range=(-4, 4), seed=6)
    ds = dt.gen_covariant(spec)
    assert ds.features.shape == (45, 3)
    for c, offset in enumerate(spec.offsets):
        block = ds.features[ds.labels == c]
        ratio = (block - offset) / spec.step
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-9)
        assert ratio.min() >= -4 - 1e-9 and ratio.max() <= 4 + 1e-9
    again = dt.gen_covariant(spec)
    np.testing.assert_array_equal(ds.features, again.features)


def test_bell_pair_dataset_structure():
    ds = dt.bell_pair_dataset(25, seed=8)
    assert ds.features.shape == (50, 2)
    zero = ds.features[ds.labels == 0]
    one = ds.features[ds.labels == 1]
    np.testing.assert_allclose(zero.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(one.sum(axis=1), np.pi, atol=1e-12)
    assert np.all(np.bincount(ds.labels) == 25)
    np.testing.assert_array_equal(ds.features, dt.bell_pair_dataset(25, seed=8).features)
    with pytest.raises(ValueError):
        dt.bell_pair_dataset(0)


# ------------------------------------------------------- splitting

def test_split_is_stratified_and_disjoint():
    rng = np.random.default_rng(9)
    ds = dt.Dataset(rng.normal(size=(30, 4)),
                    np.repeat([0, 1, 2], 10), importance=(2, 0, 3, 1))
    train, test = dt.split_dataset(ds, train_fraction=0.5, seed=1)
    assert train.n_samples == 15 and test.n_samples == 15
    for cls in (0, 1, 2):
        assert np.sum(train.labels == cls) == 5
        assert np.sum(test.labels == cls) == 5
    assert train.importance == ds.importance
    merged = np.vstack([train.features, test.features])
    assert np.unique(merged, axis=0).shape[0] == 30
    t2, _ = dt.split_dataset(ds, train_fraction=0.5, seed=1)
    np.testing.assert_array_equal(train.features, t2.features)


def test_split_keeps_one_sample_per_side():
    ds = dt.Dataset(np.arange(8).reshape(4, 2).astype(float), np.array([0, 0, 1, 1]))
    train, test = dt.split_dataset(ds, train_fraction=0.9, seed=0)
    assert np.all(np.bincount(train.labels) >= 1)
    assert np.all(np.bincount(test.labels) >= 1)
    with pytest.raises(ValueError):
        dt.split_dataset(ds, train_fraction=1.0)
    tiny = dt.Dataset(np.zeros((3, 1)), np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        dt.split_dataset(tiny)


# ------------------------------------------------------- CSV round trip

def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    ds = dt.Dataset(rng.normal(size=(6, 3)), np.array([0, 1, 2, 0, 1, 2]),
                    importance=(1, 2, 0))
    path = tmp_path / "data.csv"
    dt.save_csv(ds, path)
    back = dt.load_csv(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.importance == (1, 2, 0)


def test_csv_writer_bytes_match_the_per_element_repr_writer(tmp_path):
    # -0.0, subnormals, 1.0 and 1e-300 among the features
    feats = np.array([[-0.0, 5e-324, 1.0], [1e-300, -2.5e-310, 0.1], [1e300, np.pi, 0.0]])
    ds = dt.Dataset(feats, np.array([2, 0, 1]), importance=(2, 0, 1))
    old = tmp_path / "old.csv"
    with open(old, "w") as fh:   # the writer as it was, cell by cell
        fh.write("#importance,2,0,1\nf0,f1,f2,label\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    new = tmp_path / "new.csv"
    dt.save_csv(ds, new)
    assert new.read_bytes() == old.read_bytes()
    assert dt.load_csv(new).features.tobytes() == feats.tobytes()


def test_csv_string_labels(tmp_path):
    path = tmp_path / "named.csv"
    path.write_text("f0,f1,label\n0.5,1.5,apple\n2.5,3.5,pear\n")
    ds = dt.load_csv(path)
    np.testing.assert_array_equal(ds.labels, np.array(["apple", "pear"]))
    assert ds.features[1, 0] == 2.5


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(ValueError, match="bad header"):
        dt.load_csv(bad_header)
    short_row = tmp_path / "s.csv"
    short_row.write_text("f0,f1,label\n1.0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        dt.load_csv(short_row)
    bad_float = tmp_path / "f.csv"
    bad_float.write_text("f0,label\n1.0,0\nx,1\n")
    with pytest.raises(ValueError, match="line 3"):
        dt.load_csv(bad_float)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="header"):
        dt.load_csv(empty)

"""Dataset generators: geometry invariants, splitting, CSV round trips."""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covkern import align as al
from covkern import cli
from covkern import data as dt
from covkern import kernel as kn
from covkern import svc


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


@pytest.mark.parametrize("importance", [(True, 0), (1.0, 0)])
def test_dataset_rejects_non_integer_importance(importance):
    # a bool or a float entry once passed the permutation check as the int it equals
    with pytest.raises(ValueError, match="importance entries must be integers"):
        dt.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), importance=importance)


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


# ------------------------------------------------------- the CSV dialect

CELLS = st.text(alphabet=',"\r\n ab1.-', max_size=6)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda w: st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=5)))
def test_table_cells_round_trip(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    dt.write_table(path, table[0], table[1:])
    assert [cells for _, cells in dt.read_table(path)] == table
    with open(path, newline="") as fh:   # what any CSV reader sees
        assert list(csv.reader(fh)) == table


def test_table_quotes_only_cells_that_need_it(tmp_path):
    path = tmp_path / "t.csv"
    dt.write_table(path, ["a", "b,c"], [["1.5", 'say "hi"'], ["x\ry", "z\nw"], ["", "-0.0"]])
    assert path.read_bytes() == (b'a,"b,c"\n1.5,"say ""hi"""\n"x\ry","z\nw"\n,-0.0\n')
    # each record's number is the line it ends on; CR and LF inside cells both break lines
    assert [n for n, _ in dt.read_table(path)] == [1, 2, 5, 6]


def test_table_reader_skips_blank_lines_and_takes_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n\r\n1,2\r\n")
    assert list(dt.read_table(path)) == [(1, ["a", "b"]), (3, ["1", "2"])]


def _dataset_text(rows):
    return "f0,f1,label\n0.5,1.5,0\n" + rows


def _model_text(rows):
    return "kind,i,j,value\nmeta,2,1,1.0\n" + rows


# each reader, a file whose line 3 is broken, and the two ways to break it
READERS = {
    "dataset": (dt.load_csv, _dataset_text, "2.5,1\n", "2.5,x,1\n"),
    "matrix": (kn.load_matrix_csv, lambda rows: ",0,1\n0,1.0,0.5\n" + rows,
               "1,0.5\n", "1,0.5,x\n"),
    "model": (svc.load_model_csv, _model_text, "class,0,0\n", "bias,x,,0.5\n"),
    "trace": (al.load_trace_csv, lambda rows: "iteration,loss,p0\n0,0.5,0.1\n" + rows,
              "1,0.4\n", "1,0.4,x\n"),
    "params": (cli.load_params_csv, lambda rows: "index,value\n0,0.1\n" + rows,
               "1,0.2,7\n", "1,x\n"),
}


@pytest.mark.parametrize("fault", ["ragged", "non-numeric"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_names_path_and_line_of_a_bad_row(tmp_path, reader, fault):
    load, text, ragged, non_numeric = READERS[reader]
    path = tmp_path / f"{reader}.csv"
    path.write_text(text(ragged if fault == "ragged" else non_numeric))
    with pytest.raises((ValueError, cli.ArtifactError), match=re.escape(f"{path}: line 3: ")):
        load(path)


def _fitted_model():
    kernel = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    return svc.fit_multiclass(kernel, np.array(["a,b", 'say "hi"', "a,b"]))


# each artifact as an earlier version wrote it: its save, its load, one object
# and how to compare two loaded copies
ARTIFACTS = {
    "dataset": (dt.save_csv, dt.load_csv,
                dt.Dataset(np.array([[0.1, -0.0], [5e-324, 2.0]]), np.array([3, 1]), (1, 0)),
                lambda a, b: a.features.tobytes() == b.features.tobytes()
                and list(a.labels) == list(b.labels) and a.importance == b.importance),
    "matrix": (kn.save_matrix_csv, kn.load_matrix_csv, np.array([[1.0, 1 / 3], [-0.0, 5e-324]]),
               lambda a, b: a[0].tobytes() == b[0].tobytes() and a[1] == b[1]),
    "model": (svc.save_model_csv, svc.load_model_csv, _fitted_model(),
              lambda a, b: list(a.classes) == list(b.classes) and a.c == b.c
              and a.coefs.tobytes() == b.coefs.tobytes()
              and a.biases.tobytes() == b.biases.tobytes()),
    "trace": (al.save_trace_csv, al.load_trace_csv,
              al.AlignmentTrace(np.array([0.9, 0.4]), np.array([[0.1, -0.0], [1 / 3, 2.0]]), 1),
              lambda a, b: a.losses.tobytes() == b.losses.tobytes()
              and a.params_history.tobytes() == b.params_history.tobytes()),
    "params": (cli.save_params_csv, cli.load_params_csv, np.array([0.1, -0.0, 5e-324]),
               lambda a, b: a.tobytes() == b.tobytes()),
}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_crlf_files_load_as_the_lf_files_do(tmp_path, artifact):
    save, load, obj, same = ARTIFACTS[artifact]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    save(obj, lf)
    assert b"\r" not in lf.read_bytes()
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert same(load(lf), load(crlf))


def test_labels_with_commas_and_quotes_round_trip(tmp_path):
    ds = dt.Dataset(np.array([[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]),
                    np.array(["a,b", 'say "hi"', "line\nbreak"]))
    path = tmp_path / "named.csv"
    dt.save_csv(ds, path)
    assert list(dt.load_csv(path).labels) == ["a,b", 'say "hi"', "line\nbreak"]
    model = _fitted_model()
    svc.save_model_csv(model, tmp_path / "model.csv")
    assert list(svc.load_model_csv(tmp_path / "model.csv").classes) == ['a,b', 'say "hi"']

"""The Python API boundary: bad input fails in the entry point's own checker,
with an exception that names the argument, and the package exports only what
it declares."""

import types

import numpy as np
import pytest

import covkern
from covkern import align as al
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import svc


def _feature_map(angle_scale):
    return fm.make_feature_map(fm.line_coupling(2), 2, angle_scale=angle_scale)


def _dataset(importance):
    return dt.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), importance=importance)


# (entry point, argument, bad value, call, exception type, message fragment)
BAD_INPUT = [
    ("KernelConfig", "tolerance", 1.5, lambda v: kn.KernelConfig(tolerance=v), TypeError,
     "tolerance must be an int"),
    ("KernelConfig", "shots", 2.5, lambda v: kn.KernelConfig(shots=v), TypeError,
     "shots must be an int"),
    ("KernelConfig", "shots", True, lambda v: kn.KernelConfig(shots=v), TypeError,
     "shots must be an int"),
    ("make_feature_map", "angle_scale", np.nan, _feature_map, ValueError,
     "angle_scale must be finite"),
    ("rbf_matrix", "gamma", np.nan, lambda v: svc.rbf_matrix(np.zeros((2, 1)), gamma=v),
     ValueError, "gamma must be positive"),
    ("SPSAConfig", "iterations", -1, lambda v: al.SPSAConfig(iterations=v), ValueError,
     "iterations must be >= 0"),
    ("Dataset", "importance", np.array([1, 1]), _dataset, ValueError,
     "importance must permute"),
    ("centered_alignment", "values", np.eye(2), lambda v: al.centered_alignment(np.eye(3), v),
     ValueError, "target and values must have the same shape"),
    ("geometric_difference", "quantum", np.eye(3),
     lambda v: al.geometric_difference(np.eye(2), v), ValueError,
     "classical and quantum must have the same shape"),
    ("psd_project", "values", np.ones((2, 3)), kn.psd_project, ValueError,
     "values must be a square matrix"),
]


def _row_id(row):
    entry, argument, value = row[:3]
    shown = repr(value) if np.ndim(value) == 0 else f"shape{np.shape(value)}"
    return f"{entry}-{argument}-{shown}"


@pytest.mark.parametrize("entry, argument, value, call, error, fragment", BAD_INPUT,
                         ids=map(_row_id, BAD_INPUT))
def test_bad_input_fails_in_the_entry_points_checker(entry, argument, value, call, error,
                                                     fragment):
    assert argument in fragment
    with pytest.raises(error, match=fragment):
        call(value)


def test_dataset_reads_a_numpy_importance_as_a_tuple_of_ints():
    importance = _dataset(np.array([1, 0])).importance
    assert importance == (1, 0) and all(type(i) is int for i in importance)


def test_all_lists_resolvable_non_module_names_only():
    for name in covkern.__all__:
        assert not isinstance(getattr(covkern, name), types.ModuleType), name
    deleted = {"rbf_gamma_search", "classical_subspace_moments", "cross_orthogonality_defect",
               "aligned_bases", "cross_moment_analytic", "principal_angles", "states_equal",
               "decision_function"}
    assert not deleted & set(covkern.__all__)
    assert not any(hasattr(module, name) for name in deleted
                   for module in (covkern, al, covkern.theory, covkern.simcore, svc))

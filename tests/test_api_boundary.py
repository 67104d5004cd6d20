"""The Python API boundary: bad input fails in the entry point's own checker,
with an exception that names the argument, and the package's top level holds
the README quick start's names and its submodules."""

import dataclasses
import functools
import types

import numpy as np
import pytest

import covkern
from covkern import align as al
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import simcore as sc
from covkern import svc

QUICK_START = ["KernelConfig", "NoiseModel", "SPSAConfig", "accuracy", "align_kernel",
               "assemble_cross", "assemble_matrix", "bell_pair_dataset", "calibrate",
               "fit_multiclass", "line_coupling", "make_feature_map", "predict", "repair_psd",
               "split_dataset"]
SUBMODULES = ["align", "data", "featuremap", "kernel", "simcore", "svc", "theory"]


def _feature_map(angle_scale):
    return fm.make_feature_map(fm.line_coupling(2), 2, angle_scale=angle_scale)


def _dataset(importance):
    return dt.Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), importance=importance)


def _assemble(call, tolerance):
    spec = _feature_map(2.0)
    return call(np.zeros((2, 2)), spec, np.zeros(spec.n_params),
                kn.KernelConfig(tolerance=tolerance))


def _align(labels):
    spec = _feature_map(2.0)
    return al.align_kernel(np.zeros((2, 2)), labels, spec, np.zeros(spec.n_params),
                           al.SPSAConfig(iterations=0), kn.KernelConfig())


def _grid_search(candidates=((None, np.eye(4)),), n_folds=2, c=1.0):
    return svc.grid_search(candidates, np.array([0, 0, 1, 1]), c=c, n_folds=n_folds)


def _predict(kernel_cross):
    return svc.predict(svc.fit_multiclass(np.eye(2), [0, 1]), kernel_cross)


# (entry point, argument, bad value, call, exception type, message fragment)
BAD_INPUT = [
    ("KernelConfig", "tolerance", 1.5, lambda v: kn.KernelConfig(tolerance=v), TypeError,
     "tolerance must be an int"),
    ("KernelConfig", "shots", 2.5, lambda v: kn.KernelConfig(shots=v), TypeError,
     "shots must be an int"),
    ("KernelConfig", "shots", True, lambda v: kn.KernelConfig(shots=v), TypeError,
     "shots must be an int"),
    ("KernelConfig", "master_seed", 1.5, lambda v: kn.KernelConfig(master_seed=v), TypeError,
     "master_seed must be an int"),
    ("KernelConfig", "master_seed", -1, lambda v: kn.KernelConfig(master_seed=v), ValueError,
     "master_seed must be >= 0"),
    ("make_feature_map", "angle_scale", np.nan, _feature_map, ValueError,
     "angle_scale must be finite"),
    ("rbf_matrix", "gamma", np.nan, lambda v: svc.rbf_matrix(np.zeros((2, 1)), gamma=v),
     ValueError, "gamma must be positive"),
    ("rbf_matrix", "xs", np.array([[np.nan], [0.0]]), svc.rbf_matrix, ValueError,
     "xs and ys must be finite"),
    ("generalized_rbf_matrix", "ys", np.array([[np.inf]]),
     lambda v: svc.generalized_rbf_matrix(np.zeros((2, 1)), v), ValueError,
     "xs and ys must be finite"),
    ("SPSAConfig", "iterations", -1, lambda v: al.SPSAConfig(iterations=v), ValueError,
     "iterations must be >= 0"),
    ("SPSAConfig", "iterations", 2.5, lambda v: al.SPSAConfig(iterations=v), TypeError,
     "iterations must be an int"),
    ("SPSAConfig", "seed", -3, lambda v: al.SPSAConfig(seed=v), ValueError,
     "seed must be >= 0"),
    ("SPSAConfig", "a", np.inf, lambda v: al.SPSAConfig(a=v), ValueError, "a must be finite"),
    ("SPSAConfig", "c", np.nan, lambda v: al.SPSAConfig(c=v), ValueError, "c must be finite"),
    ("SPSAConfig", "stability", np.inf, lambda v: al.SPSAConfig(stability=v), ValueError,
     "stability must be finite"),
    ("Dataset", "importance", np.array([1, 1]), _dataset, ValueError,
     "importance must permute"),
    ("centered_alignment", "values", np.eye(2), lambda v: al.centered_alignment(np.eye(3), v),
     ValueError, "target and values must have the same shape"),
    ("centered_alignment", "values", np.ones(3), lambda v: al.centered_alignment(np.ones(3), v),
     ValueError, "target and values must be square matrices"),
    ("geometric_difference", "quantum", np.eye(3),
     lambda v: al.geometric_difference(np.eye(2), v), ValueError,
     "classical and quantum must have the same shape"),
    ("psd_project", "values", np.ones((2, 3)), kn.psd_project, ValueError,
     "values must be a square matrix"),
    ("psd_project", "values", np.zeros((0, 0)), kn.psd_project, ValueError,
     "values must be a square matrix with at least one row"),
    ("grid_search", "candidates", [], _grid_search, ValueError,
     "candidates must hold at least one"),
    ("grid_search", "n_folds", 2.5, lambda v: _grid_search(n_folds=v), TypeError,
     "n_folds must be an int"),
    ("grid_search", "c", np.inf, lambda v: _grid_search(c=v), ValueError,
     "c must be positive and finite"),
    ("fit_binary", "max_iter", -1,
     lambda v: svc.fit_binary(np.eye(2), np.array([1.0, -1.0]), max_iter=v), ValueError,
     "max_iter must be at least 1"),
    ("accuracy", "y_true", [], lambda v: svc.accuracy(v, v), ValueError,
     "y_true and y_pred must hold at least one label"),
    ("predict", "kernel_cross", np.array([[np.nan, 0.0]]), _predict, ValueError,
     "kernel_cross must be finite"),
    ("average_diagonal", "values", np.zeros((0, 0)), kn.average_diagonal, ValueError,
     "values must be a square matrix with at least one row"),
    ("calibrate", "samples", 2.5, lambda v: kn.calibrate([2], sc.NoiseModel(), samples=v),
     TypeError, "samples must be an int"),
    ("calibrate", "ns", 2.5, lambda v: kn.calibrate([v], sc.NoiseModel()), TypeError,
     "each register width in ns must be an int"),
    ("NoiseModel", "p01", 1.5, lambda v: sc.NoiseModel(p01=v), ValueError, "p01=1.5 outside"),
    ("align_kernel", "labels", [0, 1, 1], _align, ValueError,
     "labels must hold one label per row of xs"),
    ("assemble_matrix", "tolerance", 5, lambda v: _assemble(kn.assemble_matrix, v),
     ValueError, "tolerance 5 exceeds qubit count"),
    ("assemble_cross", "tolerance", 5,
     lambda v: _assemble(functools.partial(kn.assemble_cross, np.zeros((1, 2))), v),
     ValueError, "tolerance 5 exceeds qubit count"),
    ("bell_pair_dataset", "samples_per_class", 0, dt.bell_pair_dataset, ValueError,
     "samples_per_class must be positive"),
    ("bell_pair_dataset", "samples_per_class", 2.5, dt.bell_pair_dataset, TypeError,
     "samples_per_class must be an int"),
    ("fit_multiclass", "kernel", np.array([[1.0, np.nan], [np.nan, 1.0]]),
     lambda v: svc.fit_multiclass(v, [0, 1]), ValueError, "kernel must be finite"),
    ("fit_multiclass", "c", np.inf,
     lambda v: svc.fit_multiclass(np.ones((4, 4)), [0, 0, 1, 1], c=v), ValueError,
     "c must be positive and finite"),
    ("line_coupling", "n_qubits", 0, fm.line_coupling, ValueError,
     "n_qubits must be at least 1"),
    ("line_coupling", "n", 2.5, fm.line_coupling, TypeError, "n must be an int"),
    ("line_coupling", "n", True, fm.line_coupling, TypeError, "n must be an int"),
    ("ring_coupling", "n", 3.0, fm.ring_coupling, TypeError, "n must be an int"),
    ("heavy_hex_coupling", "row_len", True, lambda v: fm.heavy_hex_coupling(2, v), TypeError,
     "row_len must be an int"),
    ("repair_psd", "values", np.ones((2, 3)),
     lambda v: kn.repair_psd(kn.KernelMatrixEstimate(v)), ValueError,
     "values must be a square matrix"),
    ("apply_gate", "amps", np.ones(3), lambda v: sc.apply_gate(v, sc.rx(0, 0.1)), ValueError,
     "amps must be a 1-D array of 2"),
    ("apply_gate", "amps", np.ones(1), lambda v: sc.apply_gate(v, sc.rx(0, 0.1)), ValueError,
     "amps must be a 1-D array of 2"),
    ("apply_gate", "amps", np.ones((2, 2)), lambda v: sc.apply_gate(v, sc.rx(0, 0.1)),
     ValueError, "amps must be a 1-D array of 2"),
    ("run_circuit", "initial", np.ones(6), lambda v: sc.run_circuit(sc.Circuit(2), v),
     ValueError, "initial must be a 1-D array of 2"),
    ("run_circuit", "initial", np.ones((4, 1)), lambda v: sc.run_circuit(sc.Circuit(2), v),
     ValueError, "initial must be a 1-D array of 2"),
    ("outcome_distribution", "amps", np.ones(0), sc.outcome_distribution, ValueError,
     "amps must be a 1-D array of 2"),
    ("outcome_distribution", "amps", np.ones((1, 4)), sc.outcome_distribution, ValueError,
     "amps must be a 1-D array of 2"),
    ("apply_readout_noise", "probs", np.ones((3, 5)),
     lambda v: sc.apply_readout_noise(v, sc.NoiseModel(p01=0.1)), ValueError,
     "probs must be an array of rows of 2"),
    ("weight_mass_profile", "dist", np.ones(6), sc.weight_mass_profile, ValueError,
     "dist must be an array of rows of 2"),
    ("sample_counts", "dist", np.full(3, 1 / 3), lambda v: sc.sample_counts(v, 10, 0),
     ValueError, "dist must be a 1-D array of 2"),
    ("sample_counts", "dist", np.full((2, 2), 0.5), lambda v: sc.sample_counts(v, 10, 0),
     ValueError, "dist must be a 1-D array of 2"),
    ("overlap_kernel_from_state", "psi", np.ones((4, 1)),
     lambda v: kn.overlap_kernel_from_state(v, np.zeros((1, 2))), ValueError,
     "psi must be a 1-D array of 2"),
    ("overlap_kernel_from_state", "angles_a", np.array([[np.nan, 0.0]]),
     lambda v: kn.overlap_kernel_from_state(sc.zero_state(2), v), ValueError,
     "angles_a must be finite"),
    ("overlap_kernel_from_state", "angles_b", np.array([[0.0, np.inf]]),
     lambda v: kn.overlap_kernel_from_state(sc.zero_state(2), np.zeros((1, 2)), v),
     ValueError, "angles_b must be finite"),
    ("matrix_from_profiles", "profiles", np.ones((2, 2)),
     lambda v: kn.matrix_from_profiles(v, kn.KernelConfig()), ValueError,
     r"profiles must be an \(m, m, n\+1\) array"),
    ("target_matrix", "labels", np.zeros((2, 2)), al.target_matrix, ValueError,
     "labels must be 1-D"),
    ("centered_alignment", "values", np.array([[np.nan, 0.0], [0.0, 1.0]]),
     lambda v: al.centered_alignment(np.eye(2), v), ValueError,
     "target and values must be finite"),
    ("SubspaceSpec", "samples_per_class", 2.5, lambda v: dt.SubspaceSpec(4, (1, 1), v),
     TypeError, "samples_per_class must be an int"),
    ("SubspaceSpec", "class_dims", (1, 1.5), lambda v: dt.SubspaceSpec(4, v, 2), TypeError,
     "each entry of class_dims must be an int"),
    ("SubspaceSpec", "ambient_dim", 4.0, lambda v: dt.SubspaceSpec(v, (1, 1), 2), TypeError,
     "ambient_dim must be an int"),
    ("CovariantSpec", "integer_range", (-1.5, 2),
     lambda v: dt.CovariantSpec(2, 0.1, (0.0, 0.05), 3, integer_range=v), TypeError,
     "each bound of integer_range must be an int"),
    ("CovariantSpec", "n_qubits", 2.0, lambda v: dt.CovariantSpec(v, 0.1, (0.0, 0.05), 3),
     TypeError, "n_qubits must be an int"),
    ("CovariantSpec", "step", np.nan, lambda v: dt.CovariantSpec(2, v, (0.0, 0.05), 3),
     ValueError, "step must be finite"),
    ("CovariantSpec", "offsets", (0.0, np.nan), lambda v: dt.CovariantSpec(2, 0.1, v, 3),
     ValueError, "offsets must be finite"),
    ("split_dataset", "train_fraction", 1.5,
     lambda v: dt.split_dataset(dt.bell_pair_dataset(2), v), ValueError,
     "train_fraction must lie strictly between"),
]

# top-level callables with no BAD_INPUT row, each with the reason it has none
EXEMPT: dict[str, str] = {}


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


def test_every_top_level_callable_has_a_bad_input_row_or_a_stated_exemption():
    rows = {row[0] for row in BAD_INPUT}
    for name in covkern.__all__:
        assert callable(getattr(covkern, name)), name
        assert (name in rows) != (name in EXEMPT), name
    assert set(EXEMPT) <= set(covkern.__all__) and all(EXEMPT.values())


def test_dataset_reads_a_numpy_importance_as_a_tuple_of_ints():
    importance = _dataset(np.array([1, 0])).importance
    assert importance == (1, 0) and all(type(i) is int for i in importance)


def test_all_lists_resolvable_non_module_names_only():
    assert covkern.__all__ == QUICK_START
    for name in covkern.__all__:
        assert not isinstance(getattr(covkern, name), types.ModuleType), name
    for name in SUBMODULES:
        assert isinstance(getattr(covkern, name), types.ModuleType), name
    deleted = {"rbf_gamma_search", "classical_subspace_moments", "cross_orthogonality_defect",
               "aligned_bases", "cross_moment_analytic", "principal_angles", "states_equal",
               "decision_function", "ShotCounts", "StateVector", "hamming_mass",
               "_weights_cache", "_apply_cz"}
    assert not deleted & set(covkern.__all__)
    assert not any(hasattr(module, name) for name in deleted
                   for module in (covkern, al, covkern.theory, covkern.simcore, svc))
    assert not hasattr(svc.BinarySVC, "support")
    assert [f.name for f in dataclasses.fields(kn.CalibrationReport)] == ["thresholds", "rows"]
    assert [f.name for f in dataclasses.fields(kn.KernelMatrixEstimate)] == [
        "values", "psd_projected", "min_eigenvalue_before"]

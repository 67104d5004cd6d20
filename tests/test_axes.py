"""The rotation-axis table in simcore and every entry point that takes an axis."""

import json

import numpy as np
import pytest

from covkern import cli
from covkern import data as dt
from covkern import featuremap as fm
from covkern import kernel as kn
from covkern import simcore as sc
from covkern import theory as th


@pytest.mark.parametrize("axis", list(sc.AXES))
def test_each_axis_rotation_is_rz_in_its_own_basis(axis):
    # R(t) = V RZ(t) V^dagger, with V^dagger the table's basis change
    rotate, to_z = sc.AXES[axis]
    rotate_z, _ = sc.AXES["z"]
    for t in (0.0, 0.7, -2.3, np.pi):
        rotated = to_z.conj().T @ rotate_z(t) @ to_z
        np.testing.assert_allclose(rotate(t), rotated, rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_z @ to_z.conj().T, np.eye(2), rtol=0, atol=1e-15)


_ENTRIES = {
    "rotation": lambda: sc.rotation("w", 0, 0.1),
    "make_feature_map": lambda: fm.make_feature_map(fm.line_coupling(3), 3, axes=("z", "y", "w")),
    "overlap_kernel_from_state": lambda: kn.overlap_kernel_from_state(
        np.eye(4, dtype=complex)[0], np.zeros((1, 2)), np.zeros((1, 2)), axis="w"),
    "product_rotation_circuit": lambda: fm.product_rotation_circuit([0.1, 0.2], "w"),
    "class_circuits_from_dataset": lambda: th.class_circuits_from_dataset(
        dt.bell_pair_dataset(4, seed=7), axis="w"),
    "verify_delta_kernel": lambda: th.verify_delta_kernel(
        dt.bell_pair_dataset(4, seed=7), th.bell_structure().fiducial, axis="w"),
}


@pytest.mark.parametrize("entry", [*_ENTRIES, "cli"])
def test_every_entry_taking_an_axis_rejects_an_unknown_one(entry, tmp_path, capsys):
    # product_rotation_circuit and class_circuits_from_dataset once raised KeyError: 'w'
    if entry != "cli":
        with pytest.raises(ValueError, match="unknown rotation axis 'w'"):
            _ENTRIES[entry]()
        return
    dt.save_csv(dt.bell_pair_dataset(3, seed=1), tmp_path / "train.csv")
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "fit"), "train": str(tmp_path / "train.csv"),
                               "feature_map": {"axes": ["z", "y", "w"]}}))
    assert cli.main(["fit", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert '"axes" in config section "feature_map"' in err and "internal error" not in err


def test_an_unhashable_axis_is_a_value_error():
    with pytest.raises(ValueError, match=r"unknown rotation axis \['x'\]"):
        sc.rotation_axis(["x"])

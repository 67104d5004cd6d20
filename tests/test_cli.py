"""End-to-end runs of every subcommand plus exit-code and override behavior."""

import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covkern import cli
from covkern import data as dt
from covkern import svc
from covkern import theory as th


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------- config resolution

def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert run(["datagen", "--config", tmp_path / "nope.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["datagen", "--config", bad]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_missing_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("COVKERN_OUT", raising=False)
    cfg = write_config(tmp_path, "c.json",
                       {"dataset": {"kind": "bell", "samples_per_class": 3}})
    assert run(["datagen", "--config", cfg]) == 2
    assert "output directory" in capsys.readouterr().err


def test_seed_precedence(tmp_path, monkeypatch):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "seed": 5,
        "dataset": {"kind": "bell", "samples_per_class": 3},
    })
    monkeypatch.delenv("COVKERN_SEED", raising=False)
    assert run(["datagen", "--config", cfg]) == 0
    assert read_json(out / "manifest.json")["seed"] == 5
    monkeypatch.setenv("COVKERN_SEED", "9")
    assert run(["datagen", "--config", cfg]) == 0
    assert read_json(out / "manifest.json")["seed"] == 9
    assert run(["datagen", "--config", cfg, "--seed", "11"]) == 0
    assert read_json(out / "manifest.json")["seed"] == 11
    monkeypatch.setenv("COVKERN_SEED", "not-a-number")
    assert run(["datagen", "--config", cfg]) == 2
    # seeds are non-negative integers wherever they enter; a JSON boolean is
    # not one, though isinstance(True, int) holds
    monkeypatch.setenv("COVKERN_SEED", "-1")
    assert run(["datagen", "--config", cfg]) == 2
    monkeypatch.delenv("COVKERN_SEED")
    assert run(["datagen", "--config", cfg, "--seed", "-1"]) == 2
    for bad in ({"seed": True}, {"seed": -1},
                {"dataset": {"kind": "bell", "samples_per_class": 3, "seed": -2}}):
        bad_cfg = write_config(tmp_path, "bad.json", {
            "out": str(out), "dataset": {"kind": "bell", "samples_per_class": 3}, **bad})
        assert run(["datagen", "--config", bad_cfg]) == 2


def test_out_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("COVKERN_OUT", str(env_out))
    cfg = write_config(tmp_path, "c.json",
                       {"dataset": {"kind": "bell", "samples_per_class": 3}})
    assert run(["datagen", "--config", cfg]) == 0
    assert (env_out / "dataset.csv").exists()


# ------------------------------------------------------- datagen

def test_datagen_bell_with_split(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "seed": 1,
        "dataset": {"kind": "bell", "samples_per_class": 6, "split": 0.5},
    })
    assert run(["datagen", "--config", cfg]) == 0
    full = dt.load_csv(out / "dataset.csv")
    train = dt.load_csv(out / "train.csv")
    test = dt.load_csv(out / "test.csv")
    assert full.n_samples == 12 and train.n_samples == 6 and test.n_samples == 6
    manifest = read_json(out / "manifest.json")
    assert manifest["task"] == "datagen"
    assert manifest["artifacts"] == ["dataset.csv", "test.csv", "train.csv"]
    assert manifest["version"]


def test_datagen_subspaces_and_covariant(tmp_path):
    out = tmp_path / "s"
    cfg = write_config(tmp_path, "s.json", {
        "out": str(out),
        "dataset": {"kind": "subspaces", "ambient_dim": 6, "class_dims": [2, 2],
                    "samples_per_class": 4, "seed": 2},
    })
    assert run(["datagen", "--config", cfg]) == 0
    assert dt.load_csv(out / "dataset.csv").n_features == 6
    out2 = tmp_path / "cv"
    cfg2 = write_config(tmp_path, "cv.json", {
        "out": str(out2),
        "dataset": {"kind": "covariant", "n_qubits": 3, "step": 0.25,
                    "offsets": [0.0, 0.1], "samples_per_class": 4, "seed": 3},
    })
    assert run(["datagen", "--config", cfg2]) == 0
    assert dt.load_csv(out2 / "dataset.csv").n_samples == 8


def test_datagen_rejects_unknown_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "dataset": {"kind": "mystery"},
    })
    assert run(["datagen", "--config", cfg]) == 2
    assert "mystery" in capsys.readouterr().err


def test_datagen_subspaces_without_classes_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"),
        "dataset": {"kind": "subspaces", "ambient_dim": 4, "class_dims": [],
                    "samples_per_class": 3},
    })
    assert run(["datagen", "--config", cfg]) == 2
    assert "class_dims must name at least one class" in capsys.readouterr().err


def test_datagen_reports_missing_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "dataset": {"kind": "subspaces"},
    })
    assert run(["datagen", "--config", cfg]) == 2
    assert "missing field" in capsys.readouterr().err


# ------------------------------------------------------- calibrate

def test_calibrate_writes_tables(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "seed": 0,
        "noise": {"p01": 0.1},
        "calibration": {"n_values": [2, 3], "thresholds": [0.8, 0.95]},
    })
    assert run(["calibrate", "--config", cfg]) == 0
    cal_lines = (out / "calibration.csv").read_text().strip().splitlines()
    assert cal_lines[0] == "n_qubits,tolerance,avg_diagonal,psd_distance"
    assert len(cal_lines) == 1 + 3 + 4  # tolerances 0..n per width
    rec_lines = (out / "recommended.csv").read_text().strip().splitlines()
    assert rec_lines[0] == "n_qubits,threshold,recommended_tolerance"
    assert len(rec_lines) == 1 + 4
    # exact mode at p01=0.1: diag is (1-p)^n at d=0, so n=2 reaches 0.8 at d=0
    assert rec_lines[1] == "2,0.8,0"


def test_calibrate_without_register_widths_is_a_config_error(tmp_path, capsys):
    # an empty n_values used to exit 0 with header-only tables, whose
    # recommended.csv has no second line for a later step to read
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {"out": str(out), "calibration": {"n_values": []}})
    assert run(["calibrate", "--config", cfg]) == 2
    assert "register width" in capsys.readouterr().err
    assert not (out / "recommended.csv").exists()


# ------------------------------------------------------- align / fit / predict

def bell_files(tmp_path, samples=5, seed=1):
    ds = dt.bell_pair_dataset(samples, seed=seed)
    train, test = dt.split_dataset(ds, 0.5, seed=0)
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    dt.save_csv(train, train_path)
    dt.save_csv(test, test_path)
    return str(train_path), str(test_path)


def test_align_writes_trace_and_params(tmp_path):
    train_path, _ = bell_files(tmp_path)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "seed": 3, "train": train_path, "params": "random",
        "spsa": {"a": 1.0, "c": 0.2, "iterations": 4},
    })
    assert run(["align", "--config", cfg]) == 0
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace) == 1 + 5  # initial point plus one row per iteration
    params = cli.load_params_csv(out / "params.csv")
    assert params.shape == (6,)
    manifest = read_json(out / "manifest.json")
    assert manifest["task"] == "align"
    assert set(manifest) >= {"fingerprint", "best_loss", "best_iteration"}
    losses = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert manifest["best_loss"] == pytest.approx(min(losses))


def test_fit_then_predict_roundtrip(tmp_path):
    train_path, test_path = bell_files(tmp_path, samples=6)
    fit_out = tmp_path / "fit"
    fit_cfg_payload = {
        "out": str(fit_out), "seed": 0, "train": train_path,
        "params": "zeros", "svc": {"c": 5.0},
        "baseline": {"kind": "rbf", "gamma": 0.5},
    }
    fit_cfg = write_config(tmp_path, "fit.json", fit_cfg_payload)
    assert run(["fit", "--config", fit_cfg]) == 0
    scores = read_json(fit_out / "scores.json")
    assert {"quantum_train_accuracy", "baseline_train_accuracy"} <= set(scores)
    model = svc.load_model_csv(fit_out / "model.csv")
    assert model.n_train == 6
    kernel_lines = (fit_out / "kernel_train.csv").read_text().strip().splitlines()
    assert len(kernel_lines) == 1 + 6

    pred_out = tmp_path / "pred"
    pred_cfg = write_config(tmp_path, "pred.json", {
        "out": str(pred_out), "seed": 0, "model_dir": str(fit_out),
        "train": train_path, "test": test_path, "params": "zeros",
    })
    assert run(["predict", "--config", pred_cfg]) == 0
    pscores = read_json(pred_out / "scores.json")
    assert {"quantum_test_accuracy", "baseline_test_accuracy"} <= set(pscores)
    pred_lines = (pred_out / "predictions.csv").read_text().strip().splitlines()
    assert pred_lines[0] == "index,predicted,actual"
    assert len(pred_lines) == 1 + 6
    assert read_json(pred_out / "manifest.json")["fingerprint"] == \
        read_json(fit_out / "manifest.json")["fingerprint"]


def test_fit_manifest_records_smo_stats_per_class_pair(tmp_path):
    ds = dt.gen_union_subspaces(dt.SubspaceSpec(ambient_dim=4, class_dims=[1, 1, 1],
                                                samples_per_class=6, seed=2))
    train_path = tmp_path / "train.csv"
    dt.save_csv(ds, train_path)
    fit_out = tmp_path / "fit"
    cfg = write_config(tmp_path, "fit.json", {
        "out": str(fit_out), "seed": 0, "train": str(train_path), "params": "zeros",
        "kernel": {"shots": 500, "tolerance": 1}, "noise": {"p01": 0.05},
        "svc": {"c": 1.0, "tol": 1e-4},
    })
    assert run(["fit", "--config", cfg]) == 0
    stats = read_json(fit_out / "manifest.json")["stats"]
    assert len(stats["smo_iterations"]) == len(stats["smo_kkt_gaps"]) == 3
    assert all(isinstance(n, int) and n > 0 for n in stats["smo_iterations"])
    assert all(0.0 <= gap <= 1e-4 for gap in stats["smo_kkt_gaps"])


def test_predict_rejects_mismatched_pipeline(tmp_path, capsys):
    train_path, test_path = bell_files(tmp_path, samples=4)
    fit_out = tmp_path / "fit"
    fit_cfg = write_config(tmp_path, "fit.json", {
        "out": str(fit_out), "seed": 0, "train": train_path, "params": "zeros",
    })
    assert run(["fit", "--config", fit_cfg]) == 0

    # different fiducial parameters change the kernel: refuse to predict
    drifted = write_config(tmp_path, "p1.json", {
        "out": str(tmp_path / "p1"), "seed": 0, "model_dir": str(fit_out),
        "train": train_path, "test": test_path, "params": "random",
    })
    assert run(["predict", "--config", drifted]) == 4
    assert "does not match" in capsys.readouterr().err

    # tampered training data: sha mismatch
    with open(train_path, "a") as fh:
        fh.write("0.1,0.2,0\n")
    tampered = write_config(tmp_path, "p2.json", {
        "out": str(tmp_path / "p2"), "seed": 0, "model_dir": str(fit_out),
        "train": train_path, "test": test_path, "params": "zeros",
    })
    assert run(["predict", "--config", tampered]) == 4
    assert "differs" in capsys.readouterr().err


def test_predict_without_model_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"out": str(tmp_path / "o")})
    assert run(["predict", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, "c2.json", {
        "out": str(tmp_path / "o"), "model_dir": str(tmp_path / "missing"),
    })
    assert run(["predict", "--config", cfg2]) == 4
    err = capsys.readouterr().err
    assert "model_dir" in err or "no fitted model" in err


def fitted_model(tmp_path):
    """A fit run on a small Bell set, plus a predict config pointing at it."""
    train_path, test_path = bell_files(tmp_path, samples=4)
    fit_out = tmp_path / "fit"
    fit_cfg = write_config(tmp_path, "fit.json", {
        "out": str(fit_out), "seed": 0, "train": train_path, "params": "zeros",
    })
    assert run(["fit", "--config", fit_cfg]) == 0
    pred_cfg = write_config(tmp_path, "pred.json", {
        "out": str(tmp_path / "pred"), "seed": 0, "model_dir": str(fit_out),
        "train": train_path, "test": test_path, "params": "zeros",
    })
    return fit_out, pred_cfg


def test_malformed_params_file_is_an_artifact_error(tmp_path, capsys):
    train_path, _ = bell_files(tmp_path, samples=4)
    params = tmp_path / "params.csv"
    params.write_text("index,value\n0,0.1\n2,0.3\n")
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": train_path, "params": str(params),
    })
    assert run(["fit", "--config", cfg]) == 4
    assert "index 1 is missing" in capsys.readouterr().err
    params.write_text("index,value\n" + "".join(f"{i},nan\n" for i in range(6)))
    assert run(["fit", "--config", cfg]) == 4
    assert "must be finite" in capsys.readouterr().err
    params.write_text("index,value\n0,0.1,7\n")
    with pytest.raises(cli.ArtifactError, match="malformed parameter line"):
        cli.load_params_csv(params)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(float, st.integers(0, 40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_params_csv_roundtrip_is_bit_exact(params):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.csv")
        cli.save_params_csv(params, path)
        loaded = cli.load_params_csv(path)
    assert loaded.dtype == np.float64 and loaded.shape == params.shape
    assert loaded.tobytes() == params.tobytes()   # -0.0 and subnormals included


def test_predict_with_corrupt_model_is_an_artifact_error(tmp_path, capsys):
    fit_out, pred_cfg = fitted_model(tmp_path)
    model = fit_out / "model.csv"
    lines = model.read_text().splitlines()
    meta = lines[1].split(",")
    meta[1] = "four"
    lines[1] = ",".join(meta)
    model.write_text("\n".join(lines) + "\n")
    assert run(["predict", "--config", pred_cfg]) == 4
    assert "unreadable model file" in capsys.readouterr().err


# edits to a fitted two-class model.csv that leave it well-formed CSV but no
# longer a model: each must fail at the boundary, naming the file
MODEL_EDITS = {
    "dropped class": lambda lines: [ln for ln in lines if ln != "class,1,,1"],
    "pair class out of range": lambda lines: [
        "pair,0,0,5" if ln.startswith("pair,") else ln for ln in lines],
    "dropped pair": lambda lines: [ln for ln in lines if not ln.startswith("pair,")],
    "second meta": lambda lines: [x for ln in lines
                                  for x in ([ln, lines[1]] if ln.startswith("pair,") else [ln])],
}


@pytest.mark.parametrize("edit", sorted(MODEL_EDITS))
def test_predict_rejects_an_inconsistent_model_file(tmp_path, capsys, edit):
    fit_out, pred_cfg = fitted_model(tmp_path)
    model = fit_out / "model.csv"
    lines = model.read_text().splitlines()
    assert "class,1,,1" in lines and lines[1].startswith("meta,")
    edited = MODEL_EDITS[edit](lines)
    assert edited != lines
    model.write_text("\n".join(edited) + "\n")
    capsys.readouterr()
    assert run(["predict", "--config", pred_cfg]) == 4
    err = capsys.readouterr().err
    assert str(model) in err and "internal error" not in err


def test_predict_with_non_json_manifest_is_an_artifact_error(tmp_path, capsys):
    fit_out, pred_cfg = fitted_model(tmp_path)
    (fit_out / "manifest.json").write_text("{not json")
    assert run(["predict", "--config", pred_cfg]) == 4
    assert "unreadable manifest" in capsys.readouterr().err


def test_predict_with_non_object_fit_config_is_an_artifact_error(tmp_path, capsys):
    fit_out, pred_cfg = fitted_model(tmp_path)
    manifest = read_json(fit_out / "manifest.json")
    (fit_out / "manifest.json").write_text(json.dumps(manifest | {"config": [1, 2]}))
    assert run(["predict", "--config", pred_cfg]) == 4
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, digest", [
    # the README's fit.json
    ({"feature_map": {"coupling": "line", "angle_scale": 6.283185307179586},
      "kernel": {"shots": None, "tolerance": 0}, "svc": {"c": 1.0}},
     "53c06f62dcee0828106d2196ffa7be7e8d7a7e0e7abd65302532a5129becd509"),
    ({"seed": 5, "feature_map": {"standardize": True}, "params": "random",
      "kernel": {"shots": 500, "tolerance": 1},
      "noise": {"p01": 0.05, "p10": 0.02, "depolarizing": 0.01}},
     "eb572072a8b0faf8d8b069193372e12a3d9b39d2593506fd92f2c4569741f4ed"),
])
def test_fit_fingerprint_is_pinned(tmp_path, overrides, digest):
    # predict refuses a model whose fingerprint differs from its own config's,
    # so a changed digest would orphan every fit run made before the change
    data = tmp_path / "data"
    gen = write_config(tmp_path, "gen.json", {
        "out": str(data), "seed": 0,
        "dataset": {"kind": "subspaces", "ambient_dim": 10, "class_dims": [2, 2, 2],
                    "samples_per_class": 4, "split": 0.5}})
    assert run(["datagen", "--config", gen]) == 0
    fit = write_config(tmp_path, "fit.json", {
        "out": str(tmp_path / "fit"), "seed": 0, "train": str(data / "train.csv"),
        "params": "zeros", **overrides})
    assert run(["fit", "--config", fit]) == 0
    assert read_json(tmp_path / "fit" / "manifest.json")["fingerprint"] == digest


def test_fit_missing_dataset_is_a_data_error(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": str(tmp_path / "absent.csv"),
    })
    assert run(["fit", "--config", cfg]) == 3


def test_fit_non_finite_feature_is_a_data_error(tmp_path, capsys):
    train_path, _ = bell_files(tmp_path)
    with open(train_path) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[0] = "nan"
    lines[1] = ",".join(fields)
    with open(train_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, "c.json", {"out": str(tmp_path / "o"), "train": train_path})
    assert run(["fit", "--config", cfg]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("sections, fragment", [
    ({"kernel": {"tolerence": 1}}, "tolerence"),
    ({"kernel": {"estimate_diagonal": "false"}}, "estimate_diagonal"),
    ({"noise": {"p01": 0.05, "p_01": 0.2}}, "p_01"),
    # integer keys take JSON integers only: int() used to turn 1.9 into 1,
    # "1" into 1, 10.5 shots into 10 and true into 1
    ({"kernel": {"tolerance": 1.9}}, "got 1.9"),
    ({"kernel": {"tolerance": "1"}}, "got '1'"),
    ({"kernel": {"tolerance": True}}, "got True"),
    ({"kernel": {"shots": 10.5}}, "got 10.5"),
    ({"kernel": {"shots": True}}, "got True"),
    ({"kernel": {"master_seed": 3.0}}, "got 3.0"),
    # checked on every fit, not only where the quantum kernel runs
    ({"quantum": False, "baseline": {"kind": "rbf"}, "kernel": {"tolerence": 1}},
     "tolerence"),
    ({"quantum": False, "baseline": {"kind": "rbf"}, "noise": {"p_01": 0.2}}, "p_01"),
    ({"kernel": {"master_seed": -1, "shots": 10}}, "got -1"),
    ({"seed": -1, "params": "random"}, "got -1"),
    # rates take JSON numbers only: float() used to turn true into 1.0
    ({"noise": {"p01": True}}, "got True"),
    ({"noise": {"p01": "0.2"}}, "got '0.2'"),
])
def test_fit_rejects_unknown_or_mistyped_kernel_and_noise_keys(tmp_path, capsys,
                                                               sections, fragment):
    # a typo used to be ignored: the fit ran at tolerance 0, estimated the
    # diagonal ("false" is truthy) or dropped the misspelt rate, and exited 0
    train_path, _ = bell_files(tmp_path)
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": train_path, **sections,
    })
    assert run(["fit", "--config", cfg]) == 2
    assert fragment in capsys.readouterr().err


def test_fit_accepts_every_declared_kernel_and_noise_key(tmp_path):
    train_path, _ = bell_files(tmp_path)
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": train_path,
        "kernel": {"tolerance": 1, "shots": 50, "estimate_diagonal": False, "master_seed": 4},
        "noise": {"p01": 0.05, "p10": 0.02, "depolarizing": 0.01},
    })
    assert run(["fit", "--config", cfg]) == 0


INF, NAN = float("inf"), float("nan")   # written as JSON Infinity and NaN


@pytest.mark.parametrize("task, entries, fragment", [
    # top level
    ("fit", {"quantum": "false"}, "quantum"),
    ("fit", {"trian": "x.csv"}, "trian"),
    ("fit", {"train": 5}, "train"),
    ("fit", {"params": [0.0, "a"]}, "params"),
    ("fit", {"spsa": 5}, "spsa"),
    ("datagen", {"out": 5}, "\"out\""),
    ("align", {"target_kind": "bogus"}, "target_kind"),
    ("predict", {"model_dir": 5}, "model_dir"),
    ("report", {"runs_dir": ["runs"]}, "runs_dir"),
    # feature_map
    ("fit", {"feature_map": {"axes": 5}}, "axes"),
    ("fit", {"feature_map": {"axes": ["z", "y"]}}, "axes"),
    ("fit", {"feature_map": {"standardize": "false"}}, "standardize"),
    ("fit", {"feature_map": {"angle_scale": INF}}, "angle_scale"),
    ("fit", {"feature_map": {"coupling": {"edges": [[0, 1]], "ring": True}}}, "coupling"),
    # svc
    ("fit", {"svc": {"c": "abc"}}, "got 'abc'"),
    ("fit", {"svc": {"C": 10}}, "\"C\""),
    ("fit", {"svc": {"c": 1e400}}, "got inf"),
    ("fit", {"svc": {"tol": None}}, "tol"),
    ("fit", {"svc": {"tol": NAN}}, "got nan"),
    # spsa
    ("align", {"spsa": {"a": None}}, "got None"),
    ("align", {"spsa": {"c": True}}, "got True"),
    ("align", {"spsa": {"iterations": 2.7}}, "got 2.7"),
    ("align", {"spsa": {"seed": -3}}, "got -3"),
    # calibration
    ("calibrate", {"calibration": {"n_values": 5}}, "n_values"),
    ("calibrate", {"calibration": {"thresholds": ["0.9"]}}, "thresholds"),
    ("calibrate", {"calibration": {"n_value": [2]}}, "n_value"),
    # verify
    ("verify", {"verify": {"trials": "x"}}, "trials"),
    ("verify", {"verify": {"sphere_dims": 3}}, "sphere_dims"),
    # dataset: a key set per kind
    ("datagen", {"dataset": {"kind": "subspaces", "ambient_dim": 6, "class_dims": 5,
                             "samples_per_class": 4}}, "class_dims"),
    ("datagen", {"dataset": {"kind": "bell", "samples_per_class": 3, "seed": True}},
     "got True"),
    ("datagen", {"dataset": {"kind": "bell", "samples_per_class": 3, "split": "0.5"}},
     "split"),
    ("datagen", {"dataset": {"kind": "bell", "samples_per_class": 3, "rotate": False}},
     "rotate"),
    ("datagen", {"dataset": {"kind": "subspaces", "ambient_dim": 6, "class_dims": [2, 2],
                             "samples_per_class": 4, "rotate": "no"}}, "rotate"),
    # baseline: a key set per kind
    ("fit", {"quantum": False, "baseline": {"kind": "rbf", "gamma": "1"}}, "gamma"),
    ("fit", {"baseline": {"kind": "rbf", "sigma1": 1.0}}, "sigma1"),
    # svc: c and tol are positive (c <= 0 exited 3, tol 0 ran every SMO iteration)
    ("fit", {"svc": {"c": -1}}, "\"c\""),
    ("fit", {"svc": {"c": 0}}, "\"c\""),
    ("fit", {"svc": {"tol": 0}}, "\"tol\""),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, task, entries, fragment):
    # each of these used to run anyway (exit 0) or end as an internal error
    train_path, test_path = bell_files(tmp_path)
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": train_path, "test": test_path,
        "model_dir": str(tmp_path), "runs_dir": str(tmp_path),
        "dataset": {"kind": "bell", "samples_per_class": 3},
        "calibration": {"n_values": [2]}, "spsa": {"iterations": 1},
        "verify": {"trials": 1000, "sphere_dims": [2], "table_dims": [1]},
        **entries})
    assert run([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "internal error" not in err


def test_sections_the_task_does_not_read_are_still_checked(tmp_path, capsys):
    # such a section only had to be an object, so each typo here ran (exit 0)
    train_path, test_path = bell_files(tmp_path)
    fit_cfg = write_config(tmp_path, "fit.json", {"out": str(tmp_path / "fit"),
                                                  "train": train_path})
    assert run(["fit", "--config", fit_cfg]) == 0
    cases = [
        ("datagen", {"out": str(tmp_path / "data"),
                     "dataset": {"kind": "bell", "samples_per_class": 3}},
         {"svc": {"C": 1}}, "\"C\""),
        ("predict", {"out": str(tmp_path / "pred"), "model_dir": str(tmp_path / "fit"),
                     "test": test_path},
         {"spsa": {"iteratoins": 3}}, "iteratoins"),
    ]
    for task, payload, stray, fragment in cases:
        assert run([task, "--config", write_config(tmp_path, "ok.json", payload)]) == 0
        capsys.readouterr()
        assert run([task, "--config", write_config(tmp_path, "bad.json", payload | stray)]) == 2
        assert fragment in capsys.readouterr().err


def test_fit_feature_map_width_mismatch(tmp_path, capsys):
    train_path, _ = bell_files(tmp_path)
    cfg = write_config(tmp_path, "c.json", {
        "out": str(tmp_path / "o"), "train": train_path,
        "feature_map": {"n_qubits": 5},
    })
    assert run(["fit", "--config", cfg]) == 2
    assert "5" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["fit", "predict"])
def test_tolerance_wider_than_the_register_is_a_config_error(tmp_path, capsys, task):
    # it used to end as "internal error: ValueError: tolerance 9 exceeds qubit count 2"
    _, pred_cfg = fitted_model(tmp_path)
    cfg = read_json(pred_cfg) if task == "predict" else {
        "out": str(tmp_path / "o"), "train": str(tmp_path / "train.csv")}
    cfg["kernel"] = {"tolerance": 9}
    capsys.readouterr()
    assert run([task, "--config", write_config(tmp_path, "tol.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "tolerance 9" in err and "internal error" not in err


def test_register_wider_than_the_simulator_fails_before_any_register_array(
        tmp_path, capsys, monkeypatch):
    # calibrate at n=30 used to die in np.arange(2**30) as "internal error:
    # MemoryError"; the guard fails such a call instead of allocating it
    wide = tmp_path / "wide.csv"
    dt.save_csv(dt.Dataset(np.zeros((4, 30)), np.array([0, 1, 0, 1])), wide)
    arange = np.arange

    def guarded(*args, **kwargs):
        assert all(abs(a) <= 2 ** cli.sc.MAX_QUBITS for a in args if isinstance(a, int))
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)
    cal = write_config(tmp_path, "cal.json", {"out": str(tmp_path / "cal"),
                                              "calibration": {"n_values": [2, 30]}})
    assert run(["calibrate", "--config", cal]) == 2   # a config value
    assert "30" in capsys.readouterr().err
    fit = write_config(tmp_path, "fit.json", {"out": str(tmp_path / "fit"), "train": str(wide)})
    assert run(["fit", "--config", fit]) == 3         # the data
    err = capsys.readouterr().err
    assert "30 features" in err and "internal error" not in err


def test_error_messages_name_the_path_once(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    cfg = write_config(tmp_path, "c.json", {"out": str(tmp_path / "o"), "train": str(bad)})
    assert run(["fit", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "bad header" in err and err.count(str(bad)) == 1
    fit_out, pred_cfg = fitted_model(tmp_path)
    model = fit_out / "model.csv"
    model.write_text(model.read_text().replace("meta,", "meta,x", 1))
    capsys.readouterr()
    assert run(["predict", "--config", pred_cfg]) == 4
    err = capsys.readouterr().err
    assert "unreadable model file" in err and err.count(str(model)) == 1


# ------------------------------------------------------- verify / report

def test_verify_runs_structural_checks(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "seed": 0,
        "verify": {"trials": 20000, "sphere_dims": [2], "table_dims": [1]},
    })
    assert run(["verify", "--config", cfg]) == 0
    lines = (out / "verify_report.csv").read_text().strip().splitlines()
    assert lines[0] == "check,value,margin,condition,pass"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["sphere_moment_d2", "closed_form_n2", "closed_form_n5",
                     "subspace_ordering_dim1", "covariance_checks",
                     "class_indicator_kernel"]
    assert all(ln.endswith("True") for ln in lines[1:])
    assert (out / "expectations.csv").exists()


def test_verify_passes_the_one_dimensional_sphere(tmp_path):
    # at d = 1 every sample's moment is exactly 1: a zero standard error
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "verify": {"trials": 200, "sphere_dims": [1], "table_dims": [1]},
    })
    assert run(["verify", "--config", cfg]) == 0
    rows = list(csv.reader((out / "verify_report.csv").open()))
    assert rows[1] == ["sphere_moment_d1", "1.0", "3.0", "|mean-1/1| <= 3se", "True"]


def test_failed_verify_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "verify": {"trials": 200, "sphere_dims": [2], "table_dims": [1]},
    })
    monkeypatch.setattr(th, "verify_delta_kernel", lambda dataset, fiducial: (0.5, False))
    assert run(["verify", "--config", cfg]) == 5
    captured = capsys.readouterr()
    assert "FAIL class_indicator_kernel" in captured.out and "internal error" not in captured.err
    assert (out / "manifest.json").exists()


def test_report_collects_manifests(tmp_path):
    runs = tmp_path / "runs"
    out1 = runs / "a"
    cfg1 = write_config(tmp_path, "a.json", {
        "out": str(out1), "dataset": {"kind": "bell", "samples_per_class": 3},
    })
    assert run(["datagen", "--config", cfg1]) == 0
    train_path, _ = bell_files(tmp_path)
    out2 = runs / "b"
    cfg2 = write_config(tmp_path, "b.json", {
        "out": str(out2), "train": train_path, "params": "zeros",
    })
    assert run(["fit", "--config", cfg2]) == 0

    rep_out = tmp_path / "rep"
    rep_cfg = write_config(tmp_path, "r.json",
                           {"out": str(rep_out), "runs_dir": str(runs)})
    assert run(["report", "--config", rep_cfg]) == 0
    lines = (rep_out / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("a,datagen,")
    assert lines[2].startswith("b,fit,")
    assert "quantum_train_accuracy" in lines[2]

    empty_cfg = write_config(tmp_path, "e.json", {
        "out": str(tmp_path / "rep2"), "runs_dir": str(tmp_path / "void"),
    })
    assert run(["report", "--config", empty_cfg]) == 3


def test_report_quotes_run_paths_that_hold_commas(tmp_path):
    runs = tmp_path / "runs"
    cfg = write_config(tmp_path, "a.json", {
        "out": str(runs / "a,b"), "dataset": {"kind": "bell", "samples_per_class": 3},
    })
    assert run(["datagen", "--config", cfg]) == 0
    rep_cfg = write_config(tmp_path, "r.json",
                           {"out": str(tmp_path / "rep"), "runs_dir": str(runs)})
    assert run(["report", "--config", rep_cfg]) == 0
    with open(tmp_path / "rep" / "report.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header) == 7
    assert row[:2] == ["a,b", "datagen"]


def test_string_labels_with_commas_and_quotes_survive_fit_and_predict(tmp_path):
    names = np.array(["a,b", 'say "hi"'])
    ds = dt.bell_pair_dataset(6, seed=1)
    train, test = dt.split_dataset(dt.Dataset(ds.features, names[ds.labels]), 0.5, seed=0)
    paths = {}
    for name, part in (("train", train), ("test", test)):
        paths[name] = str(tmp_path / f"{name}.csv")
        dt.save_csv(part, paths[name])
    fit_out = tmp_path / "fit"
    fit_cfg = write_config(tmp_path, "fit.json", {
        "out": str(fit_out), "seed": 0, "train": paths["train"], "params": "zeros"})
    assert run(["fit", "--config", fit_cfg]) == 0
    assert list(svc.load_model_csv(fit_out / "model.csv").classes) == list(names)
    pred_out = tmp_path / "pred"
    pred_cfg = write_config(tmp_path, "pred.json", {
        "out": str(pred_out), "seed": 0, "model_dir": str(fit_out), "test": paths["test"],
        "params": "zeros"})
    assert run(["predict", "--config", pred_cfg]) == 0
    with open(pred_out / "predictions.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["index", "predicted", "actual"]
    assert [r[2] for r in rows] == list(test.labels)
    assert {r[1] for r in rows} <= set(names)


@pytest.mark.parametrize("name, content", [
    ("manifest.json", "{not json"),
    ("manifest.json", "[1, 2]"),
    ("scores.json", "{not json"),
    ("scores.json", "[1, 2]"),
    ("manifest.json", json.dumps({"task": "fit", "artifacts": 5})),
    ("manifest.json", json.dumps({"task": "fit", "artifacts": ["a.csv", 5]})),
])
def test_report_with_bad_json_is_an_artifact_error(tmp_path, capsys, name, content):
    run_dir = tmp_path / "runs" / "a"
    run_dir.mkdir(parents=True)
    (run_dir / "manifest.json").write_text(json.dumps({"task": "fit"}))
    (run_dir / name).write_text(content)
    cfg = write_config(tmp_path, "r.json", {"out": str(tmp_path / "rep"),
                                            "runs_dir": str(tmp_path / "runs")})
    assert run(["report", "--config", cfg]) == 4
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("width", ["sigma1", "sigma2"])
@pytest.mark.parametrize("value", [1e300, 1e-300])
def test_generalized_rbf_width_without_a_finite_positive_square_is_a_config_error(
        tmp_path, capsys, width, value):
    train_path, _ = bell_files(tmp_path)
    cfg = write_config(tmp_path, "fit.json", {
        "out": str(tmp_path / "fit"), "train": train_path, "quantum": False,
        "baseline": {"kind": "generalized_rbf", width: value},
    })
    assert run(["fit", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bad baseline section: widths must be positive" in err and "internal error" not in err


# ------------------------------------------------------- boundary property

_MISSING = object()   # the edge "key absent"
_EDGES = [0, -1, 25, 1e300, 1e-300, True, False, None, "x", "", [], [1], [0, 1], {}, {"x": 1},
          _MISSING]
_DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

# one small config per task, and per kind of a section with kinds; paths are
# relative to the directory the runs start in, which holds train.csv,
# test.csv and runs/fit (a fit of the "fit-rbf" config)
_QUANTUM = {"train": "train.csv", "feature_map": {"n_qubits": 2}, "kernel": {"shots": 50},
            "noise": {"p01": 0.05}}
_BOUNDARY_CONFIGS = {name: {"out": "out", "seed": 3} | cfg for name, cfg in {
    "datagen-subspaces": {"dataset": {"kind": "subspaces", "ambient_dim": 4,
                                      "class_dims": [1, 2], "samples_per_class": 3,
                                      "split": 0.5}},
    "datagen-covariant": {"dataset": {"kind": "covariant", "n_qubits": 2, "step": 0.5,
                                      "offsets": [0.0, 1.0], "samples_per_class": 3}},
    "datagen-bell": {"dataset": {"kind": "bell", "samples_per_class": 3}},
    "calibrate": {"calibration": {"n_values": [2], "samples": 3}, "noise": {"p01": 0.05}},
    "align": {"train": "train.csv", "params": "random", "feature_map": {},
              "spsa": {"iterations": 2}},
    "fit-rbf": _QUANTUM | {"svc": {"c": 1.0}, "baseline": {"kind": "rbf"}},
    "fit-generalized_rbf": _QUANTUM | {"baseline": {"kind": "generalized_rbf", "gamma2": 0.5,
                                                    "sigma2": 2.0}},
    "predict": _QUANTUM | {"model_dir": os.path.join("runs", "fit"), "test": "test.csv"},
    "verify": {"verify": {"trials": 200, "sphere_dims": [2], "table_dims": [1]}},
    "report": {"runs_dir": "runs"},
}.items()}


def _boundary_paths():
    """Every key path of ``cli._SCHEMA`` with the configs it goes into.

    A top-level key goes into the configs that hold it, a section's key into
    those that hold the section, and a kind's key into those of that kind; a
    path that no config holds goes into all of them.
    """
    def holds(cfg, section, key):
        if section is None:
            return key in cfg
        if isinstance(section, tuple):
            return cfg.get(section[0], {}).get("kind") == section[1]
        return section in cfg

    paths = []
    for section, keys in cli._SCHEMA.items():
        for key in keys:
            names = [name for name, cfg in _BOUNDARY_CONFIGS.items() if holds(cfg, section, key)]
            paths.append(((section, key), names or list(_BOUNDARY_CONFIGS)))
    return paths


_PATHS = _boundary_paths()


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    dt.save_csv(dt.bell_pair_dataset(4, seed=1), root / "train.csv")
    dt.save_csv(dt.bell_pair_dataset(2, seed=2), root / "test.csv")
    assert _run_boundary(root, "fit", _BOUNDARY_CONFIGS["fit-rbf"] | {"out": "runs/fit"})[0] == 0
    return root


def _run_boundary(root, task, cfg):
    """Exit code and stderr of one in-process run started in ``root``.

    verify's default of 200,000 trials per check is the one default that
    makes a run more than tiny; it is 2,000 here.
    """
    cfg_path = os.path.join(root, "boundary.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    trials_kind = cli._SCHEMA["verify"]["trials"][0]
    try:
        with mock.patch.dict(os.environ), contextlib.redirect_stderr(err), \
                mock.patch.dict(cli._SCHEMA["verify"], trials=(trials_kind, 2000)), \
                contextlib.redirect_stdout(io.StringIO()):
            os.environ.pop("COVKERN_OUT", None)
            os.environ.pop("COVKERN_SEED", None)
            code = cli.main([task, "--config", cfg_path])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


# max_examples covers every (path, edge): Hypothesis stops once it has drawn each
@settings(max_examples=len(_PATHS) * len(_EDGES) + 100, deadline=None)
@given(st.sampled_from(_PATHS), st.sampled_from(_EDGES))
def test_every_config_key_fails_at_the_boundary_with_a_documented_exit_code(
        boundary_dir, path, edge):
    (section, key), names = path
    for name in names:
        cfg = copy.deepcopy(_BOUNDARY_CONFIGS[name])
        target = cfg if section is None else cfg.setdefault(
            section if isinstance(section, str) else section[0], {})
        if edge is _MISSING:
            target.pop(key, None)
        else:
            target[key] = copy.deepcopy(edge)
        code, err = _run_boundary(boundary_dir, name.split("-")[0], cfg)
        assert code in _DOCUMENTED_EXITS and "internal error" not in err, (name, code, err)


# ------------------------------------------------------- README

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_configs_and_key_table_match_the_schema():
    with open(README) as fh:
        text = fh.read()
    blocks = re.findall(r"cat > \w+\.json <<'EOF'\n(.*?)\nEOF", text, re.S)
    assert len(blocks) == 3
    for block in blocks:
        cfg = json.loads(block)
        cli._section(cfg)
        for name in cfg:
            if isinstance(cfg[name], dict):
                cli._section(cfg, name)
    for section, keys in cli._SCHEMA.items():
        label = ("top level" if section is None else
                 section if isinstance(section, str) else f"{section[0]} ({section[1]})")
        for key, (kind, default) in keys.items():
            row = f"| {label} | `{key}` | {kind.name} |"
            if default is cli._REQUIRED:
                row += " required |"
            elif default is not None:
                row += f" `{json.dumps(default)}` |"
            assert row in text, row


# ------------------------------------------------------- installed script

def test_console_script_smoke(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, "c.json", {
        "out": str(out), "dataset": {"kind": "bell", "samples_per_class": 3},
    })
    proc = subprocess.run([sys.executable, "-m", "covkern.cli", "datagen",
                           "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "datagen: wrote" in proc.stdout
    assert (out / "dataset.csv").exists()


def test_fit_process_never_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use: over a megabyte per process
    train_path, _ = bell_files(tmp_path)
    cfg = write_config(tmp_path, "fit.json", {
        "out": str(tmp_path / "fit"), "seed": 0, "train": train_path, "params": "zeros",
        "baseline": {"kind": "rbf", "gamma": 0.5},
    })
    code = ("import sys\nfrom covkern import cli\n"
            "rc = cli.main(sys.argv[1:])\nprint(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, "fit", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

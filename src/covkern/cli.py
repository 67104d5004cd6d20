"""Command-line experiment harness.

Subcommands: datagen, calibrate, align, fit, predict, verify, report.  Every
run reads one JSON config file, writes its artifacts into an output directory,
and drops a manifest.json recording the resolved configuration, seed, wall
clock, and artifact list.  Numeric artifacts are written with repr floats, so
re-running a manifest's config reproduces them byte for byte.

Exit codes: 0 success; 2 configuration error; 3 dataset error; 4 artifact
mismatch between pipeline stages (e.g. predict against a model fitted with a
different feature map); 1 unexpected internal failure or failed verification
checks.

The seed and output directory can be overridden without editing the config:
command-line flags win, then the environment variables COVKERN_SEED and
COVKERN_OUT, then the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import align as al
from . import data as dt
from . import featuremap as fm
from . import kernel as kn
from . import simcore as sc
from . import svc
from . import theory as th


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


class ArtifactError(Exception):
    exit_code = 4


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """A JSON value kind: its name in the README's config table, the test a
    value must pass, and the value the program uses for one that passes."""

    name: str
    test: Callable[[object], bool]
    load: Callable[[object], object] = lambda v: v


def _integer(minimum: int | None = None) -> _Kind:
    # type(), not isinstance(): a JSON boolean is not a number
    return _Kind("integer" if minimum is None else f"integer >= {minimum}",
                 lambda v: type(v) is int and (minimum is None or v >= minimum))


def _list(kind: _Kind, name: str, length: int | None = None) -> _Kind:
    return _Kind(name, lambda v: (type(v) is list and (length is None or len(v) == length)
                                  and all(map(kind.test, v))),
                 lambda v: tuple(map(kind.load, v)))


def _choice(*words: str) -> _Kind:
    quoted = [json.dumps(w) for w in words]
    return _Kind(f"{', '.join(quoted[:-1])} or {quoted[-1]}",
                 lambda v: type(v) is str and v in words)


_INTEGER, _SEED = _integer(), _integer(0)
_NUMBER = _Kind("number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
                float)
_NUMBERS = _list(_NUMBER, "list of numbers")
_POSITIVE = _Kind("number > 0", lambda v: _NUMBER.test(v) and v > 0, float)
_SHOTS = _Kind("integer or null", lambda v: v is None or _INTEGER.test(v))
_SPLIT = _Kind("number or null", lambda v: v is None or _NUMBER.test(v),
               lambda v: v if v is None else float(v))
_BOOLEAN = _Kind("boolean", lambda v: type(v) is bool)
_STRING = _Kind("string", lambda v: type(v) is str)
_PAIR = _list(_INTEGER, "[integer, integer]", length=2)
_COUPLING = _Kind(
    '"line", "ring", a file path, {"edges": [[u, v], ...]} or {"heavy_hex": [rows, row_len]}',
    lambda v: type(v) is str or (type(v) is dict and len(v) == 1 and (
        _PAIR.test(v.get("heavy_hex")) or _list(_PAIR, "").test(v.get("edges")))))
_PARAMS = _Kind(
    '"zeros", "random", a path ending .csv or a list of numbers',
    lambda v: (type(v) is str and (v in ("zeros", "random") or v.endswith(".csv"))
               or _NUMBERS.test(v)),
    lambda v: _NUMBERS.load(v) if type(v) is list else v)
_REQUIRED = object()

# section -> key -> (kind, default); None is the top level.  A default of None
# leaves an absent key out: the code derives its value or does without it.  A
# section with a "kind" key also takes the keys of its (section, kind) entry.
_SCHEMA: dict = {
    None: {"out": (_STRING, None), "seed": (_SEED, 0), "params": (_PARAMS, "zeros"),
           **dict.fromkeys(("train", "test", "model_dir", "runs_dir"), (_STRING, None)),
           "quantum": (_BOOLEAN, True)},
    "feature_map": {"n_qubits": (_INTEGER, None), "coupling": (_COUPLING, "line"),
                    "use_importance": (_BOOLEAN, True), "standardize": (_BOOLEAN, False),
                    "axes": (_list(_choice("x", "y", "z"), 'list of 3 of "x", "y", "z"', length=3),
                             ("z", "y", "x")),
                    "angle_scale": (_NUMBER, None)},
    "kernel": {"tolerance": (_INTEGER, 0), "shots": (_SHOTS, None),
               "estimate_diagonal": (_BOOLEAN, True), "master_seed": (_SEED, None)},
    "noise": dict.fromkeys(("p01", "p10", "depolarizing"), (_NUMBER, 0.0)),
    "svc": {"c": (_POSITIVE, 1.0), "tol": (_POSITIVE, 1e-3)},
    "spsa": {"a": (_NUMBER, 0.1), "c": (_NUMBER, 0.1), "stability": (_NUMBER, 10.0),
             "iterations": (_integer(0), 100), "seed": (_SEED, None)},
    "calibration": {"n_values": (_list(_INTEGER, "list of integers"), (4, 8, 12)),
                    "thresholds": (_NUMBERS, (0.9,)), "shots": (_SHOTS, None),
                    "samples": (_integer(1), 15), "angle_scale": (_NUMBER, 2.0 * np.pi)},
    "verify": {"trials": (_integer(2), 200_000),
               "sphere_dims": (_list(_integer(1), "list of integers >= 1"), tuple(range(2, 11))),
               "table_dims": (_list(_integer(1), "list of integers >= 1"), (1, 2, 3, 4))},
    "dataset": {"kind": (_choice("subspaces", "covariant", "bell"), _REQUIRED),
                "samples_per_class": (_INTEGER, _REQUIRED), "seed": (_SEED, None),
                "split": (_SPLIT, None)},
    ("dataset", "subspaces"): {"ambient_dim": (_INTEGER, _REQUIRED), "rotate": (_BOOLEAN, True),
                               "class_dims": (_list(_INTEGER, "list of integers"), _REQUIRED)},
    ("dataset", "covariant"): {"n_qubits": (_INTEGER, _REQUIRED), "step": (_NUMBER, _REQUIRED),
                               "offsets": (_NUMBERS, _REQUIRED), "integer_range": (_PAIR, (-8, 8)),
                               "axis": (_choice("x", "y", "z"), "x")},
    ("dataset", "bell"): {},
    "baseline": {"kind": (_choice("rbf", "generalized_rbf"), "rbf")},
    ("baseline", "rbf"): {"gamma": (_NUMBER, 1.0)},
    ("baseline", "generalized_rbf"): {"gamma1": (_NUMBER, 1.0), "sigma1": (_NUMBER, 1.0),
                                      "gamma2": (_NUMBER, 0.0), "sigma2": (_NUMBER, 1.0)},
}
_SCHEMA[None] |= {name: (_Kind("object", lambda v: type(v) is dict), None)
                  for name in _SCHEMA if isinstance(name, str)}


def _value(sec: dict, where: str, key: str, kind: _Kind, default):
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"{where} is missing field \"{key}\"")
        return default
    if not kind.test(sec[key]):
        raise ConfigError(f"\"{key}\" in {where}: expected {kind.name}, got {sec[key]!r}")
    return kind.load(sec[key])


def _section(cfg: dict, name: str | None = None) -> dict:
    """Config section ``name``, or the top level when None, with its defaults
    filled in.  An undeclared key, a missing required key or a value of the
    wrong JSON kind is a ConfigError."""
    where = "the config" if name is None else f"config section \"{name}\""
    sec = cfg if name is None else cfg.get(name, {})
    if type(sec) is not dict:
        raise ConfigError(f"{where}: expected object, got {sec!r}")
    keys = _SCHEMA[name]
    if "kind" in keys:
        keys = keys | _SCHEMA[name, _value(sec, where, "kind", *keys["kind"])]
    for key in sec:
        if key not in keys:
            raise ConfigError(f"unknown key \"{key}\" in {where} (expected "
                              f"{', '.join(keys)}), got {sec[key]!r}")
    values = {key: _value(sec, where, key, *spec) for key, spec in keys.items()}
    return {key: v for key, v in values.items() if v is not None}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def resolve_out(top: dict, flag_value) -> str:
    out = flag_value or os.environ.get("COVKERN_OUT") or top.get("out")
    if not out:
        raise ConfigError("no output directory: set \"out\" in the config, COVKERN_OUT, or --out")
    os.makedirs(out, exist_ok=True)
    return out


def resolve_seed(top: dict, flag_value) -> int:
    if flag_value is not None:
        source, seed = "--seed", flag_value
    elif "COVKERN_SEED" in os.environ:
        source, seed = "COVKERN_SEED", os.environ["COVKERN_SEED"]
    else:
        return top["seed"]
    if not str(seed).isdecimal():
        raise ConfigError(f"{source}: expected {_SEED.name}, got {seed!r}")
    return int(seed)


def _load_dataset(path) -> dt.Dataset:
    if not path:
        raise ConfigError("a dataset path is required")
    try:
        return dt.load_csv(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}")


def _config_call(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, where a ValueError means that a value in config
    section ``name`` is out of range."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {name} section: {exc}")


def noise_from_config(cfg: dict) -> sc.NoiseModel | None:
    model = _config_call("noise", sc.NoiseModel, **_section(cfg, "noise"))
    return None if model.is_trivial() else model


def kernel_config_from_config(cfg: dict, seed: int) -> kn.KernelConfig:
    sec = {"master_seed": seed} | _section(cfg, "kernel")
    return _config_call("kernel", kn.KernelConfig, **sec)


def _feature_map(sec: dict, dataset: dt.Dataset) -> fm.FeatureMapSpec:
    """The feature map a read feature_map section gives for ``dataset``."""
    n_qubits = sec.get("n_qubits", dataset.n_features)
    if n_qubits != dataset.n_features:
        raise ConfigError(
            f"feature_map.n_qubits is {n_qubits} but the dataset has {dataset.n_features} features")
    coupling = sec["coupling"]
    importance = dataset.importance if sec["use_importance"] and dataset.importance else None
    angle_scale = sec.get("angle_scale", np.pi / 2.0 if sec["standardize"] else 1.0)
    try:
        if coupling == "line":
            coupling = fm.line_coupling(n_qubits)
        elif coupling == "ring":
            coupling = fm.ring_coupling(n_qubits)
        elif isinstance(coupling, str):
            coupling = fm.load_coupling(coupling)
        elif "edges" in coupling:
            coupling = fm.coupling_from_edges(coupling["edges"])
        else:
            coupling = fm.heavy_hex_coupling(*coupling["heavy_hex"])
        return fm.make_feature_map(coupling, n_qubits, importance=importance,
                                   axes=sec["axes"], angle_scale=angle_scale)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad feature_map section: {exc}")


def feature_map_from_config(cfg: dict, dataset: dt.Dataset) -> fm.FeatureMapSpec:
    return _feature_map(_section(cfg, "feature_map"), dataset)


def standardizer(train: dt.Dataset, standardize: bool):
    """Zero-mean/unit-variance transform fitted on the training features.

    Returns a callable applied to every feature matrix in the run, or the
    identity when standardization is off (synthetic data keeps raw angles).
    """
    if not standardize:
        return lambda feats: feats
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    if np.any(std == 0.0):
        raise DataError("cannot standardize: a training feature column is constant")
    return lambda feats: (feats - mean) / std


def load_params_csv(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except FileNotFoundError:
        raise ArtifactError(f"parameter file not found: {path}")
    if not lines or lines[0] != "index,value":
        raise ArtifactError(f"{path}: not a parameter file")
    vals = {}
    for ln in lines[1:]:
        try:
            idx, val = ln.split(",")
            vals[int(idx)] = float(val)
        except ValueError:
            raise ArtifactError(f"{path}: malformed parameter line {ln!r}") from None
    missing = sorted(set(range(len(vals))) - set(vals))
    if missing:
        raise ArtifactError(f"{path}: parameter index {missing[0]} is missing")
    params = np.array([vals[i] for i in range(len(vals))])
    if not np.isfinite(params).all():
        raise ArtifactError(f"{path}: parameter values must be finite")
    return params


def save_params_csv(params: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(params):
            fh.write(f"{i},{float(v)!r}\n")


def params_from_config(cfg: dict, spec: fm.FeatureMapSpec, seed: int) -> np.ndarray:
    src = _section(cfg)["params"]
    if isinstance(src, tuple):
        params = np.array(src)
    elif src == "zeros":
        params = np.zeros(spec.n_params)
    elif src == "random":
        params = np.random.default_rng((seed, 77)).uniform(0.0, 2.0 * np.pi, spec.n_params)
    else:
        params = load_params_csv(src)
    if params.shape != (spec.n_params,):
        raise ConfigError(f"expected {spec.n_params} parameters, got {params.shape[0]}")
    return params


def pipeline_fingerprint(spec: fm.FeatureMapSpec, params: np.ndarray,
                         config: kn.KernelConfig, noise: sc.NoiseModel | None,
                         standardize: bool = False) -> str:
    """Hash of everything that determines kernel values for fixed data."""
    payload = {
        "n_qubits": spec.n_qubits,
        "axes": list(spec.axes),
        "standardize": standardize,
        "angle_scale": repr(float(spec.angle_scale)),
        "assignment": list(spec.assignment),
        "root": spec.plan.root,
        "tree_edges": [list(e) for e in spec.plan.tree_edges],
        "layers": [[list(e) for e in layer] for layer in spec.plan.layers],
        "params": [repr(float(v)) for v in params],
        "kernel": dataclasses.asdict(config),
        "noise": None if noise is None else {
            key: repr(rate) for key, rate in dataclasses.asdict(noise).items()},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_artifact(path, what: str) -> dict:
    """The JSON object in an artifact file; an ArtifactError naming the file
    when it is unreadable or holds something else."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: unreadable {what} ({exc})") from None
    if not isinstance(payload, dict):
        raise ArtifactError(f"{path}: {what} is not a JSON object, got {payload!r}")
    return payload


def write_manifest(out: str, task: str, cfg: dict, seed: int, artifacts: list[str],
                   started: float, extra: dict | None = None) -> None:
    manifest = {
        "task": task,
        "version": __version__,
        "seed": seed,
        "config": cfg,
        "artifacts": sorted(artifacts),
        "wall_clock_s": round(time.perf_counter() - started, 3),
    }
    _write_json(os.path.join(out, "manifest.json"), manifest | (extra or {}))


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each takes the config as given, its top level as read, and the
# resolved output directory and seed, and returns its exit code, the artifacts
# it wrote and any extra manifest fields
# ---------------------------------------------------------------------------

_Result = tuple[int, list[str], dict | None]


def cmd_datagen(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    sec = _section(cfg, "dataset")
    kind, fraction = sec.pop("kind"), sec.pop("split", None)
    spec = {"seed": seed} | sec
    if kind == "subspaces":
        dataset = dt.gen_union_subspaces(_config_call("dataset", dt.SubspaceSpec, **spec))
    elif kind == "covariant":
        dataset = dt.gen_covariant(_config_call("dataset", dt.CovariantSpec, **spec))
    else:
        dataset = _config_call("dataset", dt.bell_pair_dataset, **spec)

    artifacts = ["dataset.csv"]
    dt.save_csv(dataset, os.path.join(out, "dataset.csv"))
    if fraction is not None:
        train, test = _config_call("dataset", dt.split_dataset, dataset, fraction,
                                   seed=spec["seed"])
        dt.save_csv(train, os.path.join(out, "train.csv"))
        dt.save_csv(test, os.path.join(out, "test.csv"))
        artifacts += ["train.csv", "test.csv"]
    print(f"datagen: wrote {', '.join(artifacts)} to {out}")
    return 0, artifacts, None


def cmd_calibrate(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    sec = _section(cfg, "calibration")
    noise = noise_from_config(cfg) or sc.NoiseModel()
    ns, thresholds = sec.pop("n_values"), sec["thresholds"]
    report = _config_call("calibration", kn.calibrate, ns, noise, seed=seed, **sec)
    kn.save_calibration_csv(report, os.path.join(out, "calibration.csv"))
    with open(os.path.join(out, "recommended.csv"), "w") as fh:
        fh.write("n_qubits,threshold,recommended_tolerance\n")
        for n in ns:
            for t in thresholds:
                pick = report.recommended_tolerance(n, t)
                fh.write(f"{n},{t!r},{'unreachable' if pick is None else pick}\n")
    for n in ns:
        picks = ", ".join(
            f"threshold {t}: d={report.recommended_tolerance(n, t)}" for t in thresholds)
        print(f"calibrate: n={n} -> {picks}")
    return 0, ["calibration.csv", "recommended.csv"], None


def cmd_align(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    fmap = _section(cfg, "feature_map")
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)
    spsa = al.SPSAConfig(**{"seed": seed} | _section(cfg, "spsa"))
    train = _load_dataset(top.get("train"))
    spec = _feature_map(fmap, train)
    init = params_from_config(cfg, spec, seed)
    transform = standardizer(train, fmap["standardize"])
    trace = al.align_kernel(transform(train.features), train.labels, spec, init, spsa,
                            config, noise=noise)
    al.save_trace_csv(trace, os.path.join(out, "trace.csv"))
    save_params_csv(trace.best_params, os.path.join(out, "params.csv"))
    fingerprint = pipeline_fingerprint(spec, trace.best_params, config, noise, fmap["standardize"])
    print(f"align: best loss {trace.best_loss:.6f} at iteration {trace.best_index} "
          f"({spsa.iterations} iterations)")
    return 0, ["trace.csv", "params.csv"], {"fingerprint": fingerprint,
                                            "best_loss": trace.best_loss,
                                            "best_iteration": trace.best_index}


def _classifiers(cfg: dict) -> tuple[dict, dict | None]:
    """A fit config's svc section, and its baseline section or None."""
    return _section(cfg, "svc"), (_section(cfg, "baseline") if cfg.get("baseline") else None)


def _baseline_kernel(sec: dict, feats_a: np.ndarray, feats_b: np.ndarray | None):
    matrix = svc.rbf_matrix if sec["kind"] == "rbf" else svc.generalized_rbf_matrix
    widths = {key: v for key, v in sec.items() if key != "kind"}
    return _config_call("baseline", matrix, feats_a, feats_b, **widths)


def _fit_baseline(sec: dict, svc_sec: dict, train: dt.Dataset):
    """The baseline model fitted on ``train``, and its training kernel."""
    kernel = _baseline_kernel(sec, train.features, None)
    try:
        return svc.fit_multiclass(kernel, train.labels, **svc_sec), kernel
    except (ValueError, RuntimeError) as exc:
        raise DataError(f"baseline SVC fit failed: {exc}")


def cmd_fit(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    fmap = _section(cfg, "feature_map")
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)
    svc_sec, baseline = _classifiers(cfg)
    if not top["quantum"] and baseline is None:
        raise ConfigError("nothing to fit: quantum disabled and no baseline section")
    train_path = top.get("train")
    train = _load_dataset(train_path)

    artifacts = []
    scores: dict = {"train_samples": train.n_samples}
    extra: dict = {"train_sha256": file_sha256(train_path)}

    if top["quantum"]:
        spec = _feature_map(fmap, train)
        params = params_from_config(cfg, spec, seed)
        transform = standardizer(train, fmap["standardize"])
        estimate = kn.assemble_matrix(transform(train.features), spec, params, config,
                                      noise=noise)
        repaired = kn.repair_psd(estimate)
        kn.save_matrix_csv(repaired.values, os.path.join(out, "kernel_train.csv"))
        artifacts.append("kernel_train.csv")
        try:
            model = svc.fit_multiclass(repaired.values, train.labels, **svc_sec)
        except (ValueError, RuntimeError) as exc:
            raise DataError(f"quantum SVC fit failed: {exc}")
        svc.save_model_csv(model, os.path.join(out, "model.csv"))
        artifacts.append("model.csv")
        train_pred = svc.predict(model, repaired.values)
        scores["quantum_train_accuracy"] = svc.accuracy(train.labels, train_pred)
        scores["kernel_psd_projected"] = bool(repaired.psd_projected)
        extra["fingerprint"] = pipeline_fingerprint(spec, params, config, noise,
                                                    fmap["standardize"])
        extra["stats"] = {"smo_iterations": model.iterations, "smo_kkt_gaps": model.kkt_gaps}

    if baseline is not None:
        base_model, base_train = _fit_baseline(baseline, svc_sec, train)
        base_pred = svc.predict(base_model, base_train)
        scores["baseline_train_accuracy"] = svc.accuracy(train.labels, base_pred)

    _write_json(os.path.join(out, "scores.json"), scores)
    artifacts.append("scores.json")
    for key in sorted(scores):
        if key.endswith("accuracy"):
            print(f"fit: {key} = {scores[key]:.4f}")
    return 0, artifacts, extra


def cmd_predict(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    fmap = _section(cfg, "feature_map")
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)
    model_dir = top.get("model_dir")
    if not model_dir:
        raise ConfigError("predict needs \"model_dir\" pointing at a fit run")
    manifest_path = os.path.join(model_dir, "manifest.json")
    model_path = os.path.join(model_dir, "model.csv")
    if not os.path.exists(manifest_path) or not os.path.exists(model_path):
        raise ArtifactError(f"no fitted model found in {model_dir}")
    fit_manifest = _json_artifact(manifest_path, "manifest")
    if fit_manifest.get("task") != "fit" or not isinstance(fit_manifest.get("fingerprint"), str):
        raise ArtifactError(f"{manifest_path} is not a quantum fit manifest")
    # the fit's config is an artifact here: a bad one is not the user's error
    try:
        fit_cfg = fit_manifest.get("config")
        fit_train = _section(fit_cfg).get("train")
        svc_sec, baseline = _classifiers(fit_cfg)
    except ConfigError as exc:
        raise ArtifactError(f"{manifest_path}: {exc}") from None

    train_path = top.get("train") or fit_train
    train = _load_dataset(train_path)
    if file_sha256(train_path) != fit_manifest.get("train_sha256"):
        raise ArtifactError("training dataset differs from the one the model was fitted on")
    test = _load_dataset(top.get("test"))
    if test.n_samples == 0:
        raise DataError("test dataset is empty")
    if test.n_features != train.n_features:
        raise DataError("test dataset width does not match the training data")

    spec = _feature_map(fmap, train)
    params = params_from_config(cfg, spec, seed)
    fingerprint = pipeline_fingerprint(spec, params, config, noise, fmap["standardize"])
    if fingerprint != fit_manifest["fingerprint"]:
        raise ArtifactError(
            "feature-map/kernel configuration does not match the fitted model "
            f"(model {fit_manifest['fingerprint'][:12]}, config {fingerprint[:12]})")

    try:
        model = svc.load_model_csv(model_path)
    except (OSError, ValueError, IndexError) as exc:
        raise ArtifactError(f"{model_path}: unreadable model file ({exc})") from None
    if model.n_train != train.n_samples:
        raise ArtifactError("model was fitted on a different number of training samples")
    transform = standardizer(train, fmap["standardize"])
    cross = kn.assemble_cross(transform(test.features), transform(train.features),
                              spec, params, config, noise=noise)
    kn.save_matrix_csv(cross, os.path.join(out, "kernel_cross.csv"))
    pred = svc.predict(model, cross)
    with open(os.path.join(out, "predictions.csv"), "w") as fh:
        fh.write("index,predicted,actual\n")
        for i, (p, a) in enumerate(zip(pred, test.labels)):
            fh.write(f"{i},{p},{a}\n")
    scores = {
        "test_samples": test.n_samples,
        "quantum_test_accuracy": svc.accuracy(test.labels, pred),
    }

    if baseline is not None:
        base_model, _ = _fit_baseline(baseline, svc_sec, train)
        base_cross = _baseline_kernel(baseline, test.features, train.features)
        base_pred = svc.predict(base_model, base_cross)
        scores["baseline_test_accuracy"] = svc.accuracy(test.labels, base_pred)

    _write_json(os.path.join(out, "scores.json"), scores)
    for key in sorted(scores):
        if key.endswith("accuracy"):
            print(f"predict: {key} = {scores[key]:.4f}")
    return 0, ["kernel_cross.csv", "predictions.csv", "scores.json"], {"fingerprint": fingerprint}


def cmd_verify(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    sec = _section(cfg, "verify")
    trials = sec["trials"]
    rows: list[tuple[str, float, float, str, bool]] = []

    # sphere second moment against 1/d, 3 standard errors
    for d in sec["sphere_dims"]:
        mean, se = th.sphere_inner_moment(d, trials, seed=(seed + d))
        margin = 3.0 - abs(mean - 1.0 / d) / se
        rows.append((f"sphere_moment_d{d}", mean, margin, f"|mean-1/{d}| <= 3se", margin >= 0))

    # closed form against the statevector kernel
    rng = np.random.default_rng(seed)
    for n in (2, 5):
        xs = rng.uniform(0.0, 1.0, (30, n))
        ys = rng.uniform(0.0, 1.0, (30, n))
        closed = th.cosine_product_kernel(xs, ys)
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0] = 1.0
        direct = kn.overlap_kernel_from_state(psi, 2.0 * np.pi * xs, 2.0 * np.pi * ys)
        dev = float(np.max(np.abs(closed - direct)))
        rows.append((f"closed_form_n{n}", dev, 1e-10 - dev, "max dev <= 1e-10", dev <= 1e-10))

    # five-case expectation ordering with 3-sigma margins
    table = th.subspace_kernel_expectations(sec["table_dims"], trials, seed=seed)
    th.save_expectation_csv(table, os.path.join(out, "expectations.csv"))
    for dx, margin in sorted(th.expectation_ordering_margins(table).items()):
        rows.append((f"subspace_ordering_dim{dx}", margin, margin - 3.0,
                     "separation >= 3 sigma", margin >= 3.0))

    # two-qubit group structure: invariance, membership, orthogonality, kernel
    structure = th.bell_structure()
    bell = dt.bell_pair_dataset(12, seed=seed)
    report = th.check_covariance(structure, th.class_circuits_from_dataset(bell))
    n_viol = (len(report.invariance_violations) + len(report.membership_violations)
              + len(report.orthogonality_violations))
    rows.append(("covariance_checks", float(n_viol), -float(n_viol),
                 "no violations", n_viol == 0))
    dev, ok = th.verify_delta_kernel(bell, structure.fiducial)
    rows.append(("class_indicator_kernel", dev, 1e-9 - dev, "max dev <= 1e-9", ok))

    with open(os.path.join(out, "verify_report.csv"), "w") as fh:
        fh.write("check,value,margin,condition,pass\n")
        for name, value, margin, cond, passed in rows:
            fh.write(f"{name},{value!r},{margin!r},{cond},{passed}\n")
    failed = [r for r in rows if not r[4]]
    for name, value, margin, cond, passed in rows:
        print(f"verify: {'PASS' if passed else 'FAIL'} {name} (value {value:.3g}, {cond})")
    if failed:
        print(f"verify: {len(failed)} of {len(rows)} checks failed")
    else:
        print(f"verify: all {len(rows)} checks passed")
    return (1 if failed else 0), ["verify_report.csv", "expectations.csv"], None


def cmd_report(cfg: dict, top: dict, out: str, seed: int) -> _Result:
    runs_dir = top.get("runs_dir")
    if not runs_dir:
        raise ConfigError("report needs \"runs_dir\" to scan for manifests")
    if not os.path.isdir(runs_dir):
        raise DataError(f"runs directory not found: {runs_dir}")
    entries = []
    for dirpath, _dirnames, filenames in sorted(os.walk(runs_dir)):
        if "manifest.json" not in filenames:
            continue
        manifest_path = os.path.join(dirpath, "manifest.json")
        manifest = _json_artifact(manifest_path, "manifest")
        artifacts = manifest.get("artifacts", [])
        if not _list(_STRING, "").test(artifacts):
            raise ArtifactError(f"{manifest_path}: \"artifacts\" is not a list of file "
                                f"names, got {artifacts!r}")
        scores_path = os.path.join(dirpath, "scores.json")
        scores = _json_artifact(scores_path, "scores") if os.path.exists(scores_path) else {}
        entries.append({
            "run": os.path.relpath(dirpath, runs_dir),
            "task": manifest.get("task", "?"),
            "version": manifest.get("version", "?"),
            "seed": manifest.get("seed", ""),
            "wall_clock_s": manifest.get("wall_clock_s", ""),
            "artifacts": ";".join(artifacts),
            "scores": ";".join(f"{k}={v}" for k, v in sorted(scores.items())),
        })
    if not entries:
        raise DataError(f"no manifests found under {runs_dir}")
    with open(os.path.join(out, "report.csv"), "w") as fh:
        cols = ["run", "task", "version", "seed", "wall_clock_s", "artifacts", "scores"]
        fh.write(",".join(cols) + "\n")
        for row in entries:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(f"report: summarized {len(entries)} runs into {os.path.join(out, 'report.csv')}")
    return 0, ["report.csv"], None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "datagen": cmd_datagen,
    "calibrate": cmd_calibrate,
    "align": cmd_align,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covkern",
        description="Covariant quantum kernel experiments: data generation, "
                    "calibration, alignment, classification, verification.")
    parser.add_argument("task", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output directory (overrides config and COVKERN_OUT)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config and COVKERN_SEED)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        top = _section(cfg)
        for name in cfg:   # every section present, whether the task reads it or not
            if name in _SCHEMA:
                _section(cfg, name)
        out, seed = resolve_out(top, args.out), resolve_seed(top, args.seed)
        started = time.perf_counter()
        code, artifacts, extra = _COMMANDS[args.task](cfg, top, out, seed)
        write_manifest(out, args.task, cfg, seed, artifacts, started, extra)
        return code
    except (ConfigError, DataError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

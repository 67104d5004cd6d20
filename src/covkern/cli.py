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
import hashlib
import json
import os
import sys
import time

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
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def resolve_out(cfg: dict, flag_value) -> str:
    out = flag_value or os.environ.get("COVKERN_OUT") or cfg.get("out")
    if not out:
        raise ConfigError("no output directory: set \"out\" in the config, COVKERN_OUT, or --out")
    os.makedirs(out, exist_ok=True)
    return out


def resolve_seed(cfg: dict, flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("COVKERN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"COVKERN_SEED must be an integer, got {env!r}")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("\"seed\" must be an integer")
    return seed


# declared keys of the sections that reject unknown ones
_KERNEL_KEYS = frozenset({"tolerance", "shots", "estimate_diagonal", "master_seed"})
_NOISE_KEYS = frozenset({"p01", "p10", "depolarizing"})


def _section(cfg: dict, name: str, required: bool = True, keys=None) -> dict:
    """The named config object, or {} when it is absent and not required;
    with ``keys``, any other key in it is a ConfigError."""
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"config section \"{name}\" is required for this task")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section \"{name}\" must be an object")
    unknown = sorted(set(sec) - keys) if keys is not None else []
    if unknown:
        raise ConfigError(f"unknown key(s) in config section \"{name}\": {', '.join(unknown)}"
                          f" (expected {', '.join(sorted(keys))})")
    return sec


def _load_dataset(path) -> dt.Dataset:
    if not path:
        raise ConfigError("a dataset path is required")
    try:
        return dt.load_csv(path)
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    except ValueError as exc:
        raise DataError(str(exc))


def noise_from_config(cfg: dict) -> sc.NoiseModel | None:
    sec = _section(cfg, "noise", required=False, keys=_NOISE_KEYS)
    if not sec:
        return None
    try:
        model = sc.NoiseModel(p01=float(sec.get("p01", 0.0)),
                              p10=float(sec.get("p10", 0.0)),
                              depolarizing=float(sec.get("depolarizing", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise section: {exc}")
    return None if model.is_trivial() else model


def _json_int(sec: dict, name: str, key: str, default):
    """sec[key] when it is a JSON integer (not a boolean), ``default`` when
    the key is absent, and a ConfigError for anything else."""
    if key not in sec:
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"\"{key}\" in config section \"{name}\" must be an integer, "
                          f"got {value!r}")
    return value


def kernel_config_from_config(cfg: dict, seed: int) -> kn.KernelConfig:
    sec = _section(cfg, "kernel", required=False, keys=_KERNEL_KEYS)
    estimate_diagonal = sec.get("estimate_diagonal", True)
    if not isinstance(estimate_diagonal, bool):
        raise ConfigError("\"estimate_diagonal\" in config section \"kernel\" must be "
                          f"true or false, got {estimate_diagonal!r}")
    try:
        return kn.KernelConfig(
            tolerance=_json_int(sec, "kernel", "tolerance", 0),
            shots=None if sec.get("shots") is None else _json_int(sec, "kernel", "shots", None),
            estimate_diagonal=estimate_diagonal,
            master_seed=_json_int(sec, "kernel", "master_seed", seed),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel section: {exc}")


def coupling_from_config(sec: dict, n_qubits: int) -> fm.CouplingMap:
    spec = sec.get("coupling", "line")
    try:
        if spec == "line":
            return fm.line_coupling(n_qubits)
        if spec == "ring":
            return fm.ring_coupling(n_qubits)
        if isinstance(spec, str):
            return fm.load_coupling(spec)
        if isinstance(spec, dict) and "edges" in spec:
            return fm.coupling_from_edges([tuple(e) for e in spec["edges"]])
        if isinstance(spec, dict) and "heavy_hex" in spec:
            rows, row_len = spec["heavy_hex"]
            return fm.heavy_hex_coupling(int(rows), int(row_len))
    except FileNotFoundError:
        raise ConfigError(f"coupling file not found: {spec}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad coupling: {exc}")
    raise ConfigError(f"unrecognized coupling spec: {spec!r}")


def feature_map_from_config(cfg: dict, dataset: dt.Dataset) -> fm.FeatureMapSpec:
    sec = _section(cfg, "feature_map", required=False)
    n_qubits = int(sec.get("n_qubits", dataset.n_features))
    if n_qubits != dataset.n_features:
        raise ConfigError(
            f"feature_map.n_qubits is {n_qubits} but the dataset has {dataset.n_features} features")
    coupling = coupling_from_config(sec, n_qubits)
    importance = None
    if sec.get("use_importance", True) and dataset.importance:
        importance = dataset.importance
    axes = tuple(sec.get("axes", ("z", "y", "x")))
    default_scale = np.pi / 2.0 if sec.get("standardize", False) else 1.0
    try:
        return fm.make_feature_map(coupling, n_qubits, importance=importance,
                                   axes=axes,
                                   angle_scale=float(sec.get("angle_scale", default_scale)))
    except ValueError as exc:
        raise ConfigError(f"bad feature_map section: {exc}")


def standardizer_from_config(cfg: dict, train: dt.Dataset):
    """Zero-mean/unit-variance transform fitted on the training features.

    Returns a callable applied to every feature matrix in the run, or the
    identity when standardization is off (synthetic data keeps raw angles).
    """
    sec = _section(cfg, "feature_map", required=False)
    if not sec.get("standardize", False):
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
    src = cfg.get("params", "zeros")
    if isinstance(src, str) and src.endswith(".csv"):
        params = load_params_csv(src)
    elif src == "zeros":
        params = np.zeros(spec.n_params)
    elif src == "random":
        params = np.random.default_rng((seed, 77)).uniform(0.0, 2.0 * np.pi, spec.n_params)
    elif isinstance(src, list):
        params = np.asarray(src, dtype=float)
    else:
        raise ConfigError(f"unrecognized params source: {src!r}")
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
        "kernel": {
            "tolerance": config.tolerance,
            "shots": config.shots,
            "estimate_diagonal": config.estimate_diagonal,
            "master_seed": config.master_seed,
        },
        "noise": None if noise is None else {
            "p01": repr(noise.p01), "p10": repr(noise.p10),
            "depolarizing": repr(noise.depolarizing),
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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
    if extra:
        manifest.update(extra)
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_datagen(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    sec = _section(cfg, "dataset")
    kind = sec.get("kind")
    try:
        if kind == "subspaces":
            spec = dt.SubspaceSpec(
                ambient_dim=int(sec["ambient_dim"]),
                class_dims=tuple(int(d) for d in sec["class_dims"]),
                samples_per_class=int(sec["samples_per_class"]),
                rotate=bool(sec.get("rotate", True)),
                seed=int(sec.get("seed", seed)),
            )
            dataset = dt.gen_union_subspaces(spec)
        elif kind == "covariant":
            spec = dt.CovariantSpec(
                n_qubits=int(sec["n_qubits"]),
                step=float(sec["step"]),
                offsets=tuple(float(v) for v in sec["offsets"]),
                samples_per_class=int(sec["samples_per_class"]),
                integer_range=tuple(sec.get("integer_range", (-8, 8))),
                axis=sec.get("axis", "x"),
                seed=int(sec.get("seed", seed)),
            )
            dataset = dt.gen_covariant(spec)
        elif kind == "bell":
            dataset = dt.bell_pair_dataset(int(sec["samples_per_class"]),
                                           seed=int(sec.get("seed", seed)))
        else:
            raise ConfigError(f"dataset.kind must be subspaces, covariant, or bell, got {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"dataset section is missing field {exc}")
    except ValueError as exc:
        raise ConfigError(f"bad dataset section: {exc}")

    artifacts = []
    dt.save_csv(dataset, os.path.join(out, "dataset.csv"))
    artifacts.append("dataset.csv")
    fraction = sec.get("split")
    if fraction is not None:
        try:
            train, test = dt.split_dataset(dataset, float(fraction), seed=int(sec.get("seed", seed)))
        except ValueError as exc:
            raise ConfigError(f"bad split: {exc}")
        dt.save_csv(train, os.path.join(out, "train.csv"))
        dt.save_csv(test, os.path.join(out, "test.csv"))
        artifacts += ["train.csv", "test.csv"]
    write_manifest(out, "datagen", cfg, seed, artifacts, started)
    print(f"datagen: wrote {', '.join(artifacts)} to {out}")
    return 0


def cmd_calibrate(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    sec = _section(cfg, "calibration")
    noise = noise_from_config(cfg) or sc.NoiseModel()
    try:
        ns = [int(n) for n in sec.get("n_values", (4, 8, 12))]
        thresholds = tuple(float(t) for t in sec.get("thresholds", (0.9,)))
        shots = sec.get("shots")
        report = kn.calibrate(
            ns, noise,
            shots=None if shots is None else int(shots),
            thresholds=thresholds,
            samples=int(sec.get("samples", 15)),
            seed=seed,
            angle_scale=float(sec.get("angle_scale", 2.0 * np.pi)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad calibration section: {exc}")
    kn.save_calibration_csv(report, os.path.join(out, "calibration.csv"))
    with open(os.path.join(out, "recommended.csv"), "w") as fh:
        fh.write("n_qubits,threshold,recommended_tolerance\n")
        for n in ns:
            for t in thresholds:
                pick = report.recommended_tolerance(n, t)
                fh.write(f"{n},{t!r},{'unreachable' if pick is None else pick}\n")
    write_manifest(out, "calibrate", cfg, seed, ["calibration.csv", "recommended.csv"],
                   started)
    for n in ns:
        picks = ", ".join(
            f"threshold {t}: d={report.recommended_tolerance(n, t)}" for t in thresholds)
        print(f"calibrate: n={n} -> {picks}")
    return 0


def cmd_align(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    train = _load_dataset(cfg.get("train"))
    spec = feature_map_from_config(cfg, train)
    init = params_from_config(cfg, spec, seed)
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)
    sec = _section(cfg, "spsa", required=False)
    try:
        spsa = al.SPSAConfig(
            a=float(sec.get("a", 0.1)),
            c=float(sec.get("c", 0.1)),
            stability=float(sec.get("stability", 10.0)),
            iterations=int(sec.get("iterations", 100)),
            seed=int(sec.get("seed", seed)),
        )
    except ValueError as exc:
        raise ConfigError(f"bad spsa section: {exc}")
    transform = standardizer_from_config(cfg, train)
    trace = al.align_kernel(transform(train.features), train.labels, spec, init, spsa,
                            config, noise=noise,
                            target_kind=cfg.get("target_kind", "zero_one"))
    al.save_trace_csv(trace, os.path.join(out, "trace.csv"))
    save_params_csv(trace.best_params, os.path.join(out, "params.csv"))
    fingerprint = pipeline_fingerprint(
        spec, trace.best_params, config, noise,
        standardize=bool(_section(cfg, "feature_map", required=False).get("standardize", False)))
    write_manifest(out, "align", cfg, seed, ["trace.csv", "params.csv"], started,
                   extra={"fingerprint": fingerprint,
                          "best_loss": trace.best_loss,
                          "best_iteration": trace.best_index})
    print(f"align: best loss {trace.best_loss:.6f} at iteration {trace.best_index} "
          f"({spsa.iterations} iterations)")
    return 0


def _baseline_kernels(sec: dict, feats_a: np.ndarray, feats_b: np.ndarray | None):
    kind = sec.get("kind", "rbf")
    try:
        if kind == "rbf":
            return svc.rbf_matrix(feats_a, feats_b, gamma=float(sec.get("gamma", 1.0)))
        if kind == "generalized_rbf":
            return svc.generalized_rbf_matrix(
                feats_a, feats_b,
                gamma1=float(sec.get("gamma1", 1.0)), sigma1=float(sec.get("sigma1", 1.0)),
                gamma2=float(sec.get("gamma2", 0.0)), sigma2=float(sec.get("sigma2", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"bad baseline section: {exc}")
    raise ConfigError(f"baseline.kind must be rbf or generalized_rbf, got {kind!r}")


def cmd_fit(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    train_path = cfg.get("train")
    train = _load_dataset(train_path)
    svc_sec = _section(cfg, "svc", required=False)
    c = float(svc_sec.get("c", 1.0))
    tol = float(svc_sec.get("tol", 1e-3))
    quantum = bool(cfg.get("quantum", True))
    baseline_sec = _section(cfg, "baseline", required=False)
    if not quantum and not baseline_sec:
        raise ConfigError("nothing to fit: quantum disabled and no baseline section")

    # checked on every fit, so a typo fails even where the baseline alone runs
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)

    artifacts = []
    scores: dict = {"train_samples": train.n_samples}
    extra: dict = {"train_sha256": file_sha256(train_path)}

    if quantum:
        spec = feature_map_from_config(cfg, train)
        params = params_from_config(cfg, spec, seed)
        transform = standardizer_from_config(cfg, train)
        estimate = kn.assemble_matrix(transform(train.features), spec, params, config,
                                      noise=noise)
        repaired = kn.repair_psd(estimate)
        kn.save_matrix_csv(repaired.values, os.path.join(out, "kernel_train.csv"))
        artifacts.append("kernel_train.csv")
        try:
            model = svc.fit_multiclass(repaired.values, train.labels, c=c, tol=tol)
        except (ValueError, RuntimeError) as exc:
            raise DataError(f"quantum SVC fit failed: {exc}")
        svc.save_model_csv(model, os.path.join(out, "model.csv"))
        artifacts.append("model.csv")
        train_pred = svc.predict(model, repaired.values)
        scores["quantum_train_accuracy"] = svc.accuracy(train.labels, train_pred)
        scores["kernel_psd_projected"] = bool(repaired.psd_projected)
        extra["fingerprint"] = pipeline_fingerprint(
            spec, params, config, noise,
            standardize=bool(_section(cfg, "feature_map", required=False).get("standardize", False)))

    if baseline_sec:
        base_train = _baseline_kernels(baseline_sec, train.features, None)
        try:
            base_model = svc.fit_multiclass(base_train, train.labels, c=c, tol=tol)
        except (ValueError, RuntimeError) as exc:
            raise DataError(f"baseline SVC fit failed: {exc}")
        base_pred = svc.predict(base_model, base_train)
        scores["baseline_train_accuracy"] = svc.accuracy(train.labels, base_pred)

    _write_json(os.path.join(out, "scores.json"), scores)
    artifacts.append("scores.json")
    write_manifest(out, "fit", cfg, seed, artifacts, started, extra=extra)
    for key in sorted(scores):
        if key.endswith("accuracy"):
            print(f"fit: {key} = {scores[key]:.4f}")
    return 0


def cmd_predict(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    model_dir = cfg.get("model_dir")
    if not model_dir:
        raise ConfigError("predict needs \"model_dir\" pointing at a fit run")
    manifest_path = os.path.join(model_dir, "manifest.json")
    model_path = os.path.join(model_dir, "model.csv")
    if not os.path.exists(manifest_path) or not os.path.exists(model_path):
        raise ArtifactError(f"no fitted model found in {model_dir}")
    try:
        with open(manifest_path) as fh:
            fit_manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{manifest_path}: unreadable manifest ({exc})") from None
    if (not isinstance(fit_manifest, dict) or fit_manifest.get("task") != "fit"
            or "fingerprint" not in fit_manifest):
        raise ArtifactError(f"{manifest_path} is not a quantum fit manifest")

    train_path = cfg.get("train") or fit_manifest.get("config", {}).get("train")
    train = _load_dataset(train_path)
    if file_sha256(train_path) != fit_manifest.get("train_sha256"):
        raise ArtifactError("training dataset differs from the one the model was fitted on")
    test = _load_dataset(cfg.get("test"))
    if test.n_samples == 0:
        raise DataError("test dataset is empty")
    if test.n_features != train.n_features:
        raise DataError("test dataset width does not match the training data")

    spec = feature_map_from_config(cfg, train)
    params = params_from_config(cfg, spec, seed)
    config = kernel_config_from_config(cfg, seed)
    noise = noise_from_config(cfg)
    standardize = bool(_section(cfg, "feature_map", required=False).get("standardize", False))
    fingerprint = pipeline_fingerprint(spec, params, config, noise, standardize=standardize)
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
    transform = standardizer_from_config(cfg, train)
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
    artifacts = ["kernel_cross.csv", "predictions.csv", "scores.json"]

    baseline_sec = _section(fit_manifest.get("config", {}), "baseline", required=False)
    if baseline_sec:
        svc_sec = _section(fit_manifest.get("config", {}), "svc", required=False)
        c = float(svc_sec.get("c", 1.0))
        tol = float(svc_sec.get("tol", 1e-3))
        base_train = _baseline_kernels(baseline_sec, train.features, None)
        base_model = svc.fit_multiclass(base_train, train.labels, c=c, tol=tol)
        base_cross = _baseline_kernels(baseline_sec, test.features, train.features)
        base_pred = svc.predict(base_model, base_cross)
        scores["baseline_test_accuracy"] = svc.accuracy(test.labels, base_pred)

    _write_json(os.path.join(out, "scores.json"), scores)
    write_manifest(out, "predict", cfg, seed, artifacts, started,
                   extra={"fingerprint": fingerprint})
    for key in sorted(scores):
        if key.endswith("accuracy"):
            print(f"predict: {key} = {scores[key]:.4f}")
    return 0


def cmd_verify(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    sec = _section(cfg, "verify", required=False)
    trials = int(sec.get("trials", 200_000))
    sphere_dims = [int(d) for d in sec.get("sphere_dims", range(2, 11))]
    table_dims = [int(d) for d in sec.get("table_dims", range(1, 5))]
    rows: list[tuple[str, float, float, str, bool]] = []

    # sphere second moment against 1/d, 3 standard errors
    for d in sphere_dims:
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
    table = th.subspace_kernel_expectations(table_dims, trials, seed=seed)
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
    write_manifest(out, "verify", cfg, seed, ["verify_report.csv", "expectations.csv"],
                   started)
    failed = [r for r in rows if not r[4]]
    for name, value, margin, cond, passed in rows:
        print(f"verify: {'PASS' if passed else 'FAIL'} {name} (value {value:.3g}, {cond})")
    if failed:
        print(f"verify: {len(failed)} of {len(rows)} checks failed")
        return 1
    print(f"verify: all {len(rows)} checks passed")
    return 0


def cmd_report(cfg: dict, out: str, seed: int) -> int:
    started = time.perf_counter()
    runs_dir = cfg.get("runs_dir")
    if not runs_dir:
        raise ConfigError("report needs \"runs_dir\" to scan for manifests")
    if not os.path.isdir(runs_dir):
        raise DataError(f"runs directory not found: {runs_dir}")
    entries = []
    for dirpath, _dirnames, filenames in sorted(os.walk(runs_dir)):
        if "manifest.json" not in filenames:
            continue
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            manifest = json.load(fh)
        row = {
            "run": os.path.relpath(dirpath, runs_dir),
            "task": manifest.get("task", "?"),
            "version": manifest.get("version", "?"),
            "seed": manifest.get("seed", ""),
            "wall_clock_s": manifest.get("wall_clock_s", ""),
            "artifacts": ";".join(manifest.get("artifacts", [])),
        }
        scores_path = os.path.join(dirpath, "scores.json")
        if os.path.exists(scores_path):
            with open(scores_path) as fh:
                scores = json.load(fh)
            row["scores"] = ";".join(f"{k}={v}" for k, v in sorted(scores.items()))
        else:
            row["scores"] = ""
        entries.append(row)
    if not entries:
        raise DataError(f"no manifests found under {runs_dir}")
    with open(os.path.join(out, "report.csv"), "w") as fh:
        cols = ["run", "task", "version", "seed", "wall_clock_s", "artifacts", "scores"]
        fh.write(",".join(cols) + "\n")
        for row in entries:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    write_manifest(out, "report", cfg, seed, ["report.csv"], started)
    print(f"report: summarized {len(entries)} runs into {os.path.join(out, 'report.csv')}")
    return 0


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
        out = resolve_out(cfg, args.out)
        seed = resolve_seed(cfg, args.seed)
        return _COMMANDS[args.task](cfg, out, seed)
    except (ConfigError, DataError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

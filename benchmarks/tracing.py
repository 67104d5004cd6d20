"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps public covkern functions at the module attributes through
which they are looked up (their import sites), records one span per call, and
restores the original attributes afterwards.  Nothing under ``src/`` knows
about it, and the untraced run never installs it.

A span is (id, name, start, end, parent, run, attrs).  ``parent`` is the id
of the span that was open when the call began, ``run`` groups the spans of
one repetition of a workload.  Self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time


class Recorder:
    """In-memory span store; single-threaded, like the workloads it traces."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = "setup"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` recording a span per call; ``annotate(args, kwargs, result)``
        returns attributes to attach once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    rec["attrs"].update(annotate(args, kwargs, result))
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace each ``(module, attr)`` in ``targets`` by its traced form.

        ``targets`` maps (module name, attribute) to (span name, annotate).
        Every original is put back on exit, also when the body raises.
        """
        saved = []
        try:
            for (module_name, attr), (name, annotate) in targets.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def span_cost(calls: int = 2000, batches: int = 9) -> float:
    """Seconds one recorded span adds to a call, with a one-key annotation.

    A wrapped no-op against the bare no-op, interleaved in batches so that
    the machine's drift cancels; the median batch."""
    rec = Recorder()

    def noop(*args, **kwargs):
        return None

    traced = rec.wrap(noop, "noop", lambda args, kwargs, result: {"result": result})
    diffs = []
    for _ in range(batches):
        rec.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1, key=2)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1, key=2)
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)


class NullRecorder:
    """Stand-in for the untraced run: benchmark-side spans cost nothing."""

    run = "setup"

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# what the traced run wraps
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _exact_route(config, noise) -> bool:
    noiseless = noise is None or noise.is_trivial()
    return noiseless and config.shots is None and config.tolerance == 0


def _gram_attrs(args, kwargs, result):
    m = len(args[0])
    config, noise = _arg(args, kwargs, 3, "config"), _arg(args, kwargs, 4, "noise")
    return {"route": "exact" if _exact_route(config, noise) else "profile",
            "entries": m * m}


def _cross_attrs(args, kwargs, result):
    mr, mc = len(args[0]), len(args[1])
    config, noise = _arg(args, kwargs, 4, "config"), _arg(args, kwargs, 5, "noise")
    exact = _exact_route(config, noise)
    return {"route": "exact" if exact else "profile", "entries": mr * mc,
            "shots_drawn": 0 if exact else mr * mc * (config.shots or 0)}


def _profiles_attrs(args, kwargs, result):
    m = len(args[0])
    config = _arg(args, kwargs, 3, "config")
    pairs = m * (m - 1) // 2 + (m if config.estimate_diagonal else 0)
    return {"shots_drawn": pairs * (config.shots or 0)}


def _psd_attrs(args, kwargs, result):
    return {"projected": result[1] < 0.0}


def _spsa_attrs(args, kwargs, result):
    return {"iterations": _arg(args, kwargs, 4, "spsa").iterations}


def _binary_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "kkt_gap": result.kkt_gap,
            "tol": _arg(args, kwargs, 3, "tol", 1e-3)}


_KERNEL_GRAM = ("kernel.assemble_matrix", _gram_attrs)
_PSD = ("kernel.psd_project", _psd_attrs)
_FIDUCIAL = ("featuremap.build_fiducial", None)
_RBF = ("svc.rbf", None)

# (module, attribute looked up at call time) -> (span name, annotate)
TARGETS = {
    ("covkern.kernel", "assemble_matrix"): _KERNEL_GRAM,
    ("covkern.align", "assemble_matrix"): _KERNEL_GRAM,
    ("covkern.kernel", "assemble_cross"): ("kernel.assemble_cross", _cross_attrs),
    ("covkern.kernel", "assemble_profiles"): ("kernel.assemble_profiles", _profiles_attrs),
    ("covkern.kernel", "calibrate"): ("kernel.calibrate", None),
    ("covkern.kernel", "psd_project"): _PSD,
    ("covkern.kernel", "build_fiducial"): _FIDUCIAL,
    ("covkern.featuremap", "build_fiducial"): _FIDUCIAL,
    ("covkern.simcore", "apply_readout_noise"): ("simcore.apply_readout_noise", None),
    ("covkern.simcore", "weight_mass_profile"): ("simcore.weight_mass_profile", None),
    ("covkern.simcore", "run_circuit"): ("simcore.run_circuit", None),
    ("covkern.align", "align_kernel"): ("align.align_kernel", _spsa_attrs),
    ("covkern.align", "alignment_loss"): ("align.alignment_loss", None),
    ("covkern.svc", "grid_search"): ("svc.grid_search", None),
    ("covkern.svc", "fit_multiclass"): ("svc.fit_multiclass", None),
    ("covkern.svc", "fit_binary"): ("svc.fit_binary", _binary_attrs),
    ("covkern.svc", "predict"): ("svc.predict", None),
    ("covkern.svc", "rbf_matrix"): _RBF,
    ("covkern.svc", "generalized_rbf_matrix"): _RBF,
    ("covkern.data", "gen_union_subspaces"): ("data.generate", None),
    ("covkern.data", "split_dataset"): ("data.generate", None),
    ("covkern.data", "save_csv"): ("data.csv", None),
    ("covkern.data", "load_csv"): ("data.csv", None),
}


# ---------------------------------------------------------------------------
# per-layer metrics from one repetition's spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric of the benchmark, from the spans of one run."""
    selfs = self_times(spans)

    def pick(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def secs(sel):
        return sum(s["end"] - s["start"] for s in sel)

    def total(sel, key):
        return sum(s["attrs"][key] for s in sel)

    def self_of(prefix):
        return sum(selfs[s["id"]] for s in spans if s["name"].startswith(prefix))

    out: dict[str, float] = {}
    for kind, name in (("gram", "kernel.assemble_matrix"), ("cross", "kernel.assemble_cross")):
        for route in ("exact", "profile"):
            sel = pick(name, route=route)
            sec, entries = secs(sel), total(sel, "entries")
            out[f"kernel.{kind}_{route}_s"] = sec
            out[f"kernel.{kind}_{route}_entries"] = entries
            out[f"kernel.{kind}_{route}_us_per_entry"] = _ratio(sec, entries, 1e6)
    del out["kernel.cross_exact_us_per_entry"]
    out["kernel.calibrate_s"] = secs(pick("kernel.calibrate"))
    out["kernel.shots_drawn"] = (total(pick("kernel.assemble_profiles"), "shots_drawn")
                                 + total(pick("kernel.assemble_cross"), "shots_drawn"))
    out["kernel.self_s"] = self_of("kernel.")
    psd = pick("kernel.psd_project")
    out["kernel.psd_calls"] = len(psd)
    out["kernel.psd_s"] = secs(psd)
    out["kernel.psd_projected_ratio"] = _ratio(sum(s["attrs"]["projected"] for s in psd), len(psd))

    for metric, name in (("readout_noise", "apply_readout_noise"),
                         ("weight_profile", "weight_mass_profile"),
                         ("run_circuit", "run_circuit")):
        sel = pick(f"simcore.{name}")
        out[f"simcore.{metric}_calls"] = len(sel)
        out[f"simcore.{metric}_s"] = secs(sel)
    fid = pick("featuremap.build_fiducial")
    out["featuremap.build_fiducial_calls"] = len(fid)
    out["featuremap.build_fiducial_s"] = secs(fid)

    spsa = pick("align.align_kernel")
    losses = pick("align.alignment_loss")
    iterations = total(spsa, "iterations")
    initial = 0.0  # the loss at the starting point is not an iteration
    for s in spsa:
        inner = [c for c in losses if c["parent"] == s["id"]]
        if inner:
            first = min(inner, key=lambda c: c["start"])
            initial += first["end"] - first["start"]
    out["align.spsa_s"] = secs(spsa)
    out["align.iterations"] = iterations
    out["align.iter_s"] = _ratio(secs(spsa) - initial, iterations)
    out["align.loss_evals"] = len(losses)
    out["align.self_s"] = self_of("align.")

    binary = pick("svc.fit_binary")
    smo_iters = total(binary, "iterations")
    out["svc.grid_s"] = secs(pick("svc.grid_search"))
    out["svc.fit_multiclass_calls"] = len(pick("svc.fit_multiclass"))
    out["svc.fit_multiclass_s"] = secs(pick("svc.fit_multiclass"))
    out["svc.fit_binary_calls"] = len(binary)
    out["svc.smo_iterations"] = smo_iters
    out["svc.smo_us_per_iter"] = _ratio(secs(binary), smo_iters, 1e6)
    out["svc.max_kkt_gap"] = max((s["attrs"]["kkt_gap"] for s in binary), default=0.0)
    out["svc.predict_s"] = secs(pick("svc.predict"))
    out["svc.rbf_s"] = secs(pick("svc.rbf"))

    out["data.generate_s"] = secs(pick("data.generate"))
    out["data.csv_s"] = secs(pick("data.csv"))
    for task in ("datagen", "calibrate", "fit", "predict"):
        out[f"cli.{task}_s"] = secs(pick(f"cli.{task}"))
    out["cli.self_s"] = self_of("cli.")
    return out


def kkt_violations(spans) -> int:
    """Binary fits whose final KKT gap exceeds the tolerance they were given."""
    return sum(1 for s in spans if s["name"] == "svc.fit_binary"
               and s["attrs"]["kkt_gap"] > s["attrs"]["tol"])

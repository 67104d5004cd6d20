"""One benchmark process: set up a workload, optionally time it, write a record.

``run.py`` starts this script with the BLAS thread count already fixed in its
environment, so it holds before numpy loads.  ``--mode setup`` stops once the
inputs exist and the layers are warm; ``--mode run`` then repeats the
workload for ``--seconds``, reads peak memory, runs the correctness checks
and writes the record.  With ``--trace 1`` the span recorder is installed
for set-up and the timed phase and removed afterwards; that process skips
the workload's checks, since ``run.py`` requires its outputs to hash equal
to the checked untraced run's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

MIN_REPS = 5


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def digest(out: dict) -> str:
    """Hash of a repetition's numeric outputs and of the files listed under
    ``artifacts``, to compare repetitions and runs."""
    h = hashlib.sha256()
    for key in sorted(out):
        value = out[key]
        if isinstance(value, np.ndarray):
            h.update(key.encode() + np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            h.update(f"{key}={value!r}".encode())
    for path in out.get("artifacts", ()):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def timed_phase(wl, inputs, ops, rec, seconds):
    """Repeat the workload until ``seconds`` have passed, at least ``MIN_REPS``
    times."""
    reps, outputs = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        rec.run = len(reps)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run(inputs, ops, rec)
        except Exception:
            ops.check(False, "run", "raised:\n" + traceback.format_exc())
            break
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        reps.append({"wall_s": wall, "cpu_s": cpu})
        outputs.append(out)
    return reps, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    rec = tracing.Recorder() if args.trace else tracing.NullRecorder()
    installed = rec.installed(tracing.TARGETS) if args.trace else contextlib.nullcontext()
    ops = workloads.Ops()
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    with installed:
        inputs = wl.inputs(args.seed, args.workdir)
        rec.run = "warm"
        wl.warm(inputs)
        record["setup_end"] = time.monotonic()
        if args.mode == "run":
            reps, outputs = timed_phase(wl, inputs, ops, rec, args.seconds)
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode == "run":
        record["env"] = environment()
        record["reps"] = reps
        if outputs:
            digests = [digest(out) for out in outputs]
            ops.check(len(set(digests)) == 1, "run", "repetitions gave different outputs")
            record["digest"] = digests[0]
            record["accuracy"] = outputs[-1]["accuracy"]
            if not args.trace:   # run.py compares the traced run's digest with this one's
                try:
                    wl.check(inputs, outputs[-1], ops)
                except Exception:
                    ops.check(False, "checks", "raised:\n" + traceback.format_exc())
        if args.trace:
            spans_path = os.path.join(args.workdir, "spans.json")
            rec.dump(spans_path)
            record["spans"] = spans_path
            setup = [s for s in rec.spans if s["run"] == "setup"]
            record["layers"] = [
                tracing.layer_metrics(setup + [s for s in rec.spans if s["run"] == r])
                for r in range(len(reps))]
            record["span_counts"] = [sum(s["run"] == r for s in rec.spans)
                                     for r in range(len(reps))]
            record["span_cost_s"] = tracing.span_cost()
            bad = tracing.kkt_violations(rec.spans)
            ops.check(bad == 0, "fit_binary", f"{bad} traced fits ended above their KKT tol")
        record.update(attempted=ops.attempted, failed=ops.failed, problems=ops.problems)
    with open(args.record, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

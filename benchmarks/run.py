"""covkern benchmark: time one workload end to end, or trace it layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory, so nothing needs installing.  Workloads are
defined in ``workloads.py``.  Each invocation starts fresh processes, one at
a time, all with the same fixed BLAS thread count:

1. one warm-up process that sets the workload up and is not recorded (the
   first process after idle pays for cold library pages and bytecode);
2. ``SETUP_PROBES // 2`` processes that only set up, to time set-up;
3. the timed process: it repeats the workload for ``--seconds`` (at least
   five times) and checks the outputs outside the timed phase;
4. another ``SETUP_PROBES // 2`` set-up processes, so that the set-up probes
   span the invocation rather than one moment of the machine's load;
5. with ``--trace 1``, a second timed process with the span recorder
   installed, for the per-layer metrics and the tracing overhead.

Times are the median over the repetitions.  A repetition is short, so a
run holds many; on a shared machine whose speed drifts by tens of percent
within minutes, their median moved less from run to run than the fastest
repetition or the fastest tenth did.  Being a quantile, it does not move as
a faster program fits more repetitions into the same seconds.  Set-up time
is the median over the set-up processes and the timed process's own
set-up.  The tracing overhead is the recorder's cost per span, measured in
the traced process, times the spans of the median repetition: the
difference between two processes' wall times is mostly the machine's drift,
and is only printed.
A record with the environment, every repetition and the checks goes to
``.bench_build/covkern-bench/``; the last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "covkern-bench"
WORKLOADS = ("subspace_align", "baseline_grid", "noisy_cli")
SETUP_PROBES = 10
BLAS_THREADS = 1   # at most nproc; one keeps cpu_s == wall_s comparable on a shared box
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, mode: str, trace: int, workdir: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its spawn time and record."""
    record = workdir / f"{mode}-trace{trace}.json"
    record.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--mode", mode, "--workdir", str(workdir), "--record", str(record)]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, min(CHILD_TIMEOUT_S, deadline - started)))
    if proc.returncode != 0 or not record.exists():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"worker ({mode}, trace {trace}) exited with {proc.returncode}")
    return started, json.loads(record.read_text())


def probe(args, workdir: Path, deadline: float) -> float:
    """Seconds from spawning a set-up-only process until its set-up ended."""
    started, rec = spawn(args, "setup", 0, workdir, deadline)
    return rec["setup_end"] - started


def source_revision() -> dict:
    """Git revision when the checkout is a repository, and a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
                                      GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull))
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"git_rev": rev, "src_sha256": h.hexdigest()}


def median_rep(reps: list[dict]) -> int:
    """Index of the repetition with the median wall time (the upper median)."""
    order = sorted(range(len(reps)), key=lambda r: reps[r]["wall_s"])
    return order[len(reps) // 2]


def end_to_end(setup_times: list[float], timed: dict) -> dict:
    reps = timed["reps"]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps), "unit": "s"},
        "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(units: dict, traced: dict) -> dict:
    mid = median_rep(traced["reps"])
    layers = traced["layers"][mid]
    out = {name: {"value": layers[name], "unit": units[name]} for name in layers}
    out["trace.overhead_s"] = {
        "value": traced["span_cost_s"] * traced["span_counts"][mid], "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "covkern" / "__init__.py").is_file():
        sys.stderr.write(f"covkern sources not found under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    deadline = time.monotonic() + 175.0
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spawn(args, "setup", 0, workdir, deadline)   # warm-up, not recorded
        setup_times = [probe(args, workdir, deadline) for _ in range(SETUP_PROBES // 2)]
        started, timed = spawn(args, "run", 0, workdir, deadline)
        setup_times.append(timed["setup_end"] - started)
        setup_times += [probe(args, workdir, deadline) for _ in range(SETUP_PROBES // 2)]
        traced = spawn(args, "run", 1, workdir, deadline)[1] if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    children = [timed] + ([traced] if traced else [])
    if not all(c["reps"] for c in children):
        for c in children:
            sys.stderr.write("\n".join(c["problems"]) + "\n")
        sys.stderr.write("benchmark failed: no repetition completed\n")
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    if traced and traced["digest"] != timed["digest"]:
        failed += 1
        problems.append("traced run produced different outputs from the untraced run")

    metrics = (per_layer(units, traced) if traced
               else end_to_end(setup_times, timed))
    walls = sorted(r["wall_s"] for r in timed["reps"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **source_revision(), "env": timed["env"],
              "setup_times_s": setup_times, "untraced": timed, "traced": traced,
              "accuracy": timed["accuracy"], "attempted": attempted, "failed": failed,
              "error_rate": failed / max(attempted, 1), "problems": problems,
              "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(record, indent=1))

    env = timed["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rev {record['git_rev'] or '-'}  src {record['src_sha256'][:12]}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"{env['blas_version']}, blas threads {env['blas_threads']}, nproc {env['nproc']}")
    print(f"repetitions: {len(walls)}, wall min {walls[0]:.4f} s, "
          f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s; "
          f"set-up processes: {len(setup_times)}")
    if traced:
        diff = (statistics.median(r["wall_s"] for r in traced["reps"])
                - statistics.median(walls))
        print(f"traced minus untraced median repetition: {diff:+.4f} s "
              f"(mostly machine drift; trace.overhead_s is spans x cost per span)")
    acc = timed["accuracy"]
    print(f"accuracy: {'n/a' if acc is None else f'{acc:.4f}'}  "
          f"error_rate: {record['error_rate']:.4f} ({failed}/{attempted} operations)")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"record: {workdir / 'result.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

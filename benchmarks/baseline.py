"""Write a committed benchmark record, ``benchmarks/BENCH_<label>.json``.

    python3 benchmarks/baseline.py LABEL

Runs every workload ``REPEATS`` times at seed ``SEED`` through ``run.py
--trace 1`` (which also makes the untraced run).  Per workload it keeps the
median of each end-to-end metric, the per-layer metrics of the run with the
median wall time, every run's wall times, accuracy and error rate, with the
revision and machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

REPEATS = 3
SEED = 0   # the criterion and README seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rows = {}
    for workload in run.WORKLOADS:
        records = []
        for _ in range(REPEATS):
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(spec["run_seconds"]),
                   "--trace", "1"]
            subprocess.run(cmd, check=True, cwd=run.ROOT, stdout=subprocess.DEVNULL)
            path = run.OUT / f"{workload}-seed{SEED}-trace1" / "result.json"
            rec = json.loads(path.read_text())
            rec["end_to_end"] = run.end_to_end(rec["setup_times_s"], rec["untraced"])
            records.append(rec)
        records.sort(key=lambda r: r["end_to_end"]["wall_s"]["value"])
        middle = records[len(records) // 2]
        rows[workload] = {
            "runs": len(records),
            "end_to_end": {name: {"value": statistics.median(r["end_to_end"][name]["value"]
                                                             for r in records),
                                  "unit": m["unit"]}
                           for name, m in middle["end_to_end"].items()},
            "per_layer": middle["metrics"],
            "accuracy": middle["accuracy"],
            "error_rate": max(r["error_rate"] for r in records),
            "untraced_wall_s": [[x["wall_s"] for x in r["untraced"]["reps"]] for r in records],
            "traced_wall_s": [[x["wall_s"] for x in r["traced"]["reps"]] for r in records],
        }
        print(f"{workload}: wall_s {rows[workload]['end_to_end']['wall_s']['value']:.3f} s",
              file=sys.stderr)
    out = {"label": args.label, "seed": SEED, "run_seconds": spec["run_seconds"],
           "git_rev": middle["git_rev"], "src_sha256": middle["src_sha256"],
           "env": middle["env"], "rows": rows}
    path = run.BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the benchmark's span recorder and metric names.

    python3 -m pytest -q benchmarks/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


def span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": 0, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "cli.fit", 0.0, 10.0),
        span(1, "kernel.assemble_matrix", 1.0, 6.0, parent=0, route="profile", entries=4),
        span(2, "simcore.apply_readout_noise", 2.0, 3.0, parent=1),
        span(3, "simcore.weight_mass_profile", 2.5, 4.0, parent=1),  # overlaps 2
        span(4, "svc.fit_multiclass", 7.0, 8.0, parent=0),
        span(5, "svc.fit_binary", 7.5, 9.0, parent=4, iterations=3, kkt_gap=0.0, tol=1e-3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(5.0 - 2.0)
    assert selfs[4] == pytest.approx(0.5)   # child clipped to the parent's end
    assert selfs[5] == pytest.approx(1.5)

    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["kernel.self_s"] == pytest.approx(3.0)
    assert metrics["kernel.gram_profile_s"] == pytest.approx(5.0)
    assert metrics["kernel.gram_profile_us_per_entry"] == pytest.approx(5.0 / 4 * 1e6)
    assert metrics["svc.smo_us_per_iter"] == pytest.approx(1.5 / 3 * 1e6)


def test_spsa_iteration_time_excludes_the_initial_loss():
    spans = [span(0, "align.align_kernel", 0.0, 7.0, iterations=2)]
    spans += [span(1 + k, "align.alignment_loss", float(k), k + 1.0, parent=0)
              for k in range(7)]
    metrics = tracing.layer_metrics(spans)
    assert metrics["align.loss_evals"] == 7
    assert metrics["align.iter_s"] == pytest.approx((7.0 - 1.0) / 2)


def test_installed_wrappers_record_and_are_restored():
    import covkern.kernel as kn
    import covkern.svc as svc

    originals = {key: getattr(__import__(key[0], fromlist=[key[1]]), key[1])
                 for key in tracing.TARGETS}
    rec = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with rec.installed(tracing.TARGETS):
            assert svc.fit_binary.__wrapped__ is originals[("covkern.svc", "fit_binary")]
            assert kn.build_fiducial is not originals[("covkern.kernel", "build_fiducial")]
            svc.rbf_matrix([[0.0], [1.0]], gamma=1.0)
            raise RuntimeError("body failed")
    for (module, attr), original in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is original
    assert [s["name"] for s in rec.spans] == ["svc.rbf"]
    assert rec.spans[0]["end"] >= rec.spans[0]["start"]


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    timed = {"reps": [{"wall_s": 3.0, "cpu_s": 2.9}, {"wall_s": 1.0, "cpu_s": 1.1},
                      {"wall_s": 2.0, "cpu_s": 1.9}],
             "peak_rss_mb": 100.0}
    traced = dict(timed, layers=[tracing.layer_metrics([])] * 3, span_counts=[10, 20, 30],
                  span_cost_s=2e-6)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = run.per_layer(units, traced)
    assert sorted(metrics) == sorted(per_layer)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(30 * 2e-6)  # median rep
    assert len(set(per_layer)) == len(per_layer)
    end_to_end = run.end_to_end([0.3, 0.2, 0.4], timed)
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
    assert end_to_end["wall_s"]["value"] == 2.0 and end_to_end["cpu_s"]["value"] == 1.9
    assert end_to_end["setup_s"]["value"] == 0.3
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_span_cost_is_a_small_positive_time():
    cost = tracing.span_cost(calls=200, batches=3)
    assert 0.0 < cost < 1e-3

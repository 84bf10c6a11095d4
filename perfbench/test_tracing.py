"""Checks that the traced run is safe to compare with the untraced one.

    python3 -m pytest -q perfbench/test_tracing.py

Runs tiny scenarios of each workload shape through the benchmark's own
child process, traced and untraced, and through the tracer in-process with
a wrap point that does not resolve.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

TINY = [
    run.Workload("tiny-event-agree", run._double_well_agreement, "event", 1, 1),
    run.Workload("tiny-event-quorum", run._quadratic_quorum, "event", 8, 2, ("--trace",)),
    run.Workload("tiny-batch-agree", run._double_well_agreement, "batch", 2, 8),
    run.Workload("tiny-batch-quorum", run._quadratic_quorum, "batch", 8, 16),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_matches_untraced(workload, tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(workload.scenario(5)))
    runs = [run.run_once(tmp_path, scenario, workload, traced, i)
            for i, traced in enumerate((False, True, True))]
    run.check_runs(runs, workload, 5, pins={})
    assert [r["problems"] for r in runs] == [[], [], []]
    plain, traced = runs[0], runs[1]
    assert traced["digest"] == plain["digest"]
    assert traced["events"] == plain["events"]
    assert traced["missing"] == [] and traced["absent"] == []
    if workload.driver == "event":
        assert traced["layers"]["sim.events"][0] == plain["events"]


def test_end_to_end_times_are_scaled_by_the_reference_kernel():
    nominal = run.reference.NOMINAL_S
    runs = [{"run_s": 1.0, "setup_s": 0.2, "ref_s": nominal, "peak_rss_mb": 60.0},
            {"run_s": 1.5, "setup_s": 0.3, "ref_s": 1.5 * nominal, "peak_rss_mb": 60.0}]
    metrics = run.end_to_end(runs, TINY[0])
    assert metrics["run_s"][0] == pytest.approx(1.0)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert metrics["seed_iters_per_s"][0] == pytest.approx(1.0)


def test_check_runs_flags_a_changed_count():
    runs = [{"traced": flag, "problems": [], "digest": "d", "events": 1,
             "layers": {"sim.events": [events, "count"]}}
            for flag, events in ((False, 1), (True, 1), (True, 2))]
    run.check_runs(runs, TINY[0], 5, pins={})
    assert runs[1]["problems"] == []
    assert "count sim.events" in runs[2]["problems"][0]


def test_missing_wrap_point_leaves_metric_absent(monkeypatch, tmp_path):
    from asgd import batch, cli

    renamed = tuple(p.replace("_compose_sm_maps", "_compose_stage_maps")
                    for p in tracer.EXTRA_POINTS)
    monkeypatch.setattr(tracer, "EXTRA_POINTS", renamed)
    original = batch._compose_sm_maps
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(TINY[2].scenario(5)))
    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(["run", str(scenario), "--out", str(tmp_path / "out")])
    finally:
        spans.uninstall()
    assert code == 0
    assert batch._compose_sm_maps is original
    assert spans.missing == ["asgd.batch._compose_stage_maps"]
    values, absent = tracer.layer_metrics(
        spans, {"run_s": 1.0, "driver_start": 0.0, "log_s": 0.0})
    assert absent == ["batch.sm_stages", "batch.compose_sm_maps_s"]
    assert values["batch.rounds"][0] > 0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, unit, _, _ in tracer.METRICS}
    emitted.update({"trace_overhead_s": "s", "trace_overhead_frac": "fraction",
                    "sim.events_per_s": "1/s"})
    assert listed == emitted

"""Tests for the measurement harness: stats, fits, reports, exports."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from asgd import batch, harness, sim
from asgd.maa import AggregationRule, MaaOnlyConfig
from asgd.oracle import OracleSpec
from asgd.sgd import LrSchedule, SgdConfig, Variant

QUAD2 = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)


def test_estimate_mean_and_stderr():
    est = harness.estimate(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.mean == 2.5
    assert est.count == 4
    expected = np.std([1.0, 2.0, 3.0, 4.0], ddof=1) / 2.0
    assert abs(est.stderr - expected) < 1e-15


def test_estimate_single_value_and_bad_input():
    est = harness.estimate(np.array([7.0]))
    assert est.mean == 7.0 and est.stderr == 0.0 and est.count == 1
    with pytest.raises(ValueError):
        harness.estimate(np.array([]))
    with pytest.raises(ValueError):
        harness.estimate(np.zeros((2, 2)))


def test_per_seed_external_sq():
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0,
                      x_star=(1.0, 0.0))
    finals = np.array([
        [[1.0, 0.0], [1.0, 2.0]],   # distances^2: 0 and 4 -> mean 2
        [[2.0, 0.0], [0.0, 0.0]],   # distances^2: 1 and 1 -> mean 1
    ])
    per_seed = harness.per_seed_external_sq(finals, spec)
    assert per_seed.tolist() == [2.0, 1.0]


def test_internal_err_picks_worst_pair():
    finals = np.zeros((3, 3, 1))
    finals[:, 1, 0] = [1.0, 1.0, 1.0]
    finals[:, 2, 0] = [4.0, 5.0, 3.0]   # pair (0, 2) dominates
    est, pair = harness.internal_err(finals)
    assert pair == (0, 2)
    per_seed = np.array([16.0, 25.0, 9.0])
    assert abs(est.mean - per_seed.mean()) < 1e-12


def test_internal_err_single_process():
    est, pair = harness.internal_err(np.zeros((4, 1, 2)))
    assert est.mean == 0.0 and pair == (0, 0)


def test_cross_err_worst_cross_pair():
    finals = np.zeros((2, 4, 1))
    finals[:, 2, 0] = 1.0
    finals[:, 3, 0] = 3.0
    est = harness.cross_err(finals, (0, 1), (2, 3))
    assert est.mean == 9.0


def test_fit_rate_exact_power_law():
    xs = np.array([64.0, 128.0, 256.0, 512.0])
    fit = harness.fit_rate(xs, 5.0 / xs)
    assert abs(fit.slope - (-1.0)) < 1e-12
    assert fit.max_residual < 1e-12
    assert fit.points == 4


def test_fit_rate_noisy_recovery():
    rng = np.random.default_rng(3)
    xs = np.array([32.0, 64.0, 128.0, 256.0, 512.0, 1024.0])
    ys = 2.0 * xs ** -0.5 * np.exp(rng.normal(0.0, 0.02, xs.size))
    fit = harness.fit_rate(xs, ys)
    assert abs(fit.slope - (-0.5)) < 0.05


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        harness.fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        harness.fit_rate([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        harness.fit_rate([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_contraction_report_shared_level():
    topo = sim.Topology(4, ((0, 1, 2, 3),))
    conf = MaaOnlyConfig(level="shared", rule=AggregationRule.MID_EXTREMES,
                         q=1.0 / 6.0,
                         inputs=((0.0, 0.0), (1.0, 0.1), (0.3, 0.9), (0.7, 0.4)))
    trace = sim.run(topo, sim.FaultPlan(), sim.Schedule(), conf, QUAD2, [11, 0])
    report = harness.contraction_report(trace, AggregationRule.MID_EXTREMES)
    assert "sm" in report
    sm = report["sm"]
    assert sm.bound == 7.0 / 8.0
    assert sm.rounds_measured + sm.rounds_skipped == 14
    assert sm.ok
    if sm.worst_ratio is not None:
        assert sm.worst_ratio <= 7.0 / 8.0 + 1e-9


def test_contraction_report_zero_diameter_skipped():
    topo = sim.Topology(3, ((0, 1, 2),))
    conf = MaaOnlyConfig(level="shared", rule=AggregationRule.MID_EXTREMES,
                         q=1.0 / 6.0,
                         inputs=((0.5, 0.5),) * 3)
    trace = sim.run(topo, sim.FaultPlan(), sim.Schedule(), conf, QUAD2, [12, 0])
    report = harness.contraction_report(trace, AggregationRule.MID_EXTREMES)
    sm = report["sm"]
    assert sm.rounds_measured == 0
    assert sm.rounds_skipped == 14
    assert sm.worst_ratio is None and sm.ok


def test_contraction_report_cluster_level():
    topo = sim.Topology(3, ((0,), (1,), (2,)))
    conf = MaaOnlyConfig(level="cluster", rule=AggregationRule.MID_EXTREMES,
                         q=0.5, inputs=((0.0,), (1.0,), (0.25,)))
    trace = sim.run(topo, sim.FaultPlan(), sim.Schedule(), conf, QUAD2, [13, 0])
    report = harness.contraction_report(trace, AggregationRule.MID_EXTREMES)
    assert "cmaa" in report
    cm = report["cmaa"]
    assert cm.bound == 23.0 / 24.0
    assert cm.rounds_measured >= 1
    assert cm.ok


def test_run_event_ensemble_completed():
    topo = sim.Topology(2, ((0, 1),))
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=5, quorum=2,
                     x1=(0.3, 0.3),
                     lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0))
    ens = harness.run_event_ensemble(topo, sim.FaultPlan(), sim.Schedule(),
                                     conf, QUAD2, seed_root=21, seeds=3)
    assert ens.ok
    assert ens.liveness == {"completed": 3}
    outs = ens.outputs_array()
    assert outs.shape == (3, 2, 2)
    assert np.isfinite(outs).all()


def test_run_event_ensemble_withholds_stats_on_liveness_failure():
    topo = sim.Topology(2, ((0,), (1,)))
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=5, quorum=2,
                     x1=(0.3, 0.3),
                     lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0))
    plan = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    ens = harness.run_event_ensemble(topo, plan, sim.Schedule(), conf, QUAD2,
                                     seed_root=22, seeds=2)
    assert not ens.ok
    assert ens.liveness == {"blocked": 2}
    with pytest.raises(RuntimeError):
        ens.outputs_array()


def test_divergence_demo_partition_separates_sides():
    topo = sim.Topology(4, ((0, 1), (2, 3)))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=150, quorum=2,
                     x1=(0.0,), lr=LrSchedule(kind="constant", value=0.05),
                     agreement_q=0.5, cluster_quorum=1, lr_check="warn")
    part = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3))
    demo = harness.divergence_demo(topo, conf, spec, part, seeds=16,
                                   seed_root=31)
    assert demo["seeds"] == 16
    assert len(demo["partition_side_internal_err"]) == 2
    assert abs(demo["sequential_plus_rate"] + demo["sequential_minus_rate"] - 1.0) < 1e-12
    assert 0.0 < demo["sequential_plus_rate"] < 1.0
    assert demo["separation_ratio"] > 1.5


def test_csv_axes_sorted_and_repr_floats(tmp_path):
    assert harness.format_axes({"b": 2, "a": 1}) == "a=1;b=2"
    row = harness.csv_row("abc123", {"T": 64, "N": 4}, "external_err",
                          harness.Estimate(mean=0.1, stderr=0.01, count=5))
    assert row == "abc123,N=4;T=64,external_err,0.1,0.01,5"

    path = tmp_path / "metrics.csv"
    harness.write_csv(path, [row, row])
    first = path.read_bytes()
    harness.write_csv(path, [row, row])
    assert path.read_bytes() == first
    assert first.decode().splitlines()[0] == harness.CSV_HEADER


def test_write_summary_sorted_keys(tmp_path):
    path = tmp_path / "summary.json"
    harness.write_summary(path, {"zeta": 1, "alpha": {"b": 2, "a": 1}})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.endswith("\n")


def test_exports_are_utf8_with_lf_under_an_ascii_locale(tmp_path):
    # under this locale open() without an encoding cannot write the row
    csv, summary = tmp_path / "metrics.csv", tmp_path / "summary.json"
    code = (f"from asgd import harness\n"
            f"harness.write_csv({str(csv)!r}, ['caf\\u00e9,x'])\n"
            f"harness.write_summary({str(summary)!r}, {{'k': 'caf\\u00e9'}})\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert csv.read_bytes() == f"{harness.CSV_HEADER}\ncaf\u00e9,x\n".encode("utf-8")
    assert summary.read_bytes() == (
        json.dumps({"k": "caf\u00e9"}, sort_keys=True, indent=2) + "\n").encode("ascii")

"""Tests for the asgd command line interface."""

import json
import os
import re
from pathlib import Path

import pytest

from asgd import batch, cli, harness, sgd, sim
from asgd.maa import AggregationRule
from asgd.sgd import Variant

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _run(args):
    return cli.main([str(a) for a in args])


def test_run_event_scenario(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["liveness"]["ok"]
    assert summary["stats"]["external_err"]["count"] == 3
    assert summary["stats"]["internal_err"]["mean"] >= 0.0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "config,axes,stat,mean,stderr,n_seeds"
    assert len(lines) == 3  # internal + external rows


def test_run_set_override_and_seeds(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path,
                 "--set", "algorithm.iterations=8", "--seeds", 2])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"]["algorithm"]["iterations"] == 8
    assert summary["seeds"] == 2


def test_run_trace_writes_jsonl_and_audit(tmp_path):
    code = _run(["run", SCENARIOS / "maa_shared.json",
                 "--out", tmp_path, "--trace", "--seeds", 2])
    assert code == 0
    for name in ("trace_0000.jsonl", "trace_0001.jsonl"):
        data = (tmp_path / name).read_bytes()
        assert data.isascii() and data.endswith(b"\n") and b"\r" not in data
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(entry["ok"] for entry in summary["audit"].values())


def test_run_batch_scenario(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_batch.json",
                 "--out", tmp_path, "--set", "run.seeds=20",
                 "--set", "algorithm.iterations=32"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["driver"] == "batch"
    assert summary["stats"]["external_err"]["count"] == 20


def test_run_crash_scenario_completes(tmp_path):
    code = _run(["run", SCENARIOS / "maa_cluster_crash.json",
                 "--out", tmp_path, "--seeds", 1])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["liveness"]["counts"] == {"completed": 1}


def test_config_error_exits_2(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.quorum=99"])
    assert code == 2
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.bogus=1"])
    assert code == 2
    code = _run(["run", tmp_path / "missing.json", "--out", tmp_path])
    assert code == 2


_DELETE = object()
_PARTITION = {"side_a": [0, 1], "side_b": [2, 3]}

# (base scenario, edits as (key path, value or _DELETE), the exact stderr
# line[, test id]). A row's test id is its line unless it names its own; a
# row whose line repeats names its own, so no id is left for pytest to
# number, and a new row never renames the test of an old one.
_CUT = {"partition": {"side_a": [0, 1], "side_b": [2, 3, 4, 5]}}
CONFIG_ERRORS = [
    ("sc_quadratic_event", [(("format",), "x")], "format: expected 'asgd-scenario'"),
    ("sc_quadratic_event", [(("version",), 2)], "version: expected 1"),
    ("sc_quadratic_event", [(("bogus",), 1)], "scenario.bogus: unknown field"),
    ("sc_quadratic_event", [(("topology",), _DELETE)], "topology: missing section"),
    ("sc_quadratic_event", [(("oracle",), None)], "oracle: missing section"),
    ("sc_quadratic_event", [(("algorithm",), _DELETE)], "algorithm: missing section"),
    ("sc_quadratic_event", [(("topology",), 5)], "topology: must be an object"),
    ("sc_quadratic_event", [(("faults",), [])], "faults: must be an object"),
    ("sc_quadratic_event", [(("schedule",), 3)], "schedule: must be an object"),
    ("sc_quadratic_event", [(("run",), "x")], "run: must be an object"),
    # topology
    ("sc_quadratic_event", [(("topology", "n"), _DELETE)], "topology.n: missing field"),
    ("sc_quadratic_event", [(("topology", "n"), "4")], "topology.n: unexpected type str"),
    ("sc_quadratic_event", [(("topology", "clusters"), 5)],
     "topology.clusters: unexpected type int"),
    ("sc_quadratic_event", [(("topology", "bogus"), 1)], "topology.bogus: unknown field"),
    ("sc_quadratic_event", [(("topology", "clusters"), [[0, 1], [2, "x"]])],
     "topology.clusters[1][1]: unexpected type str"),
    ("sc_quadratic_event", [(("topology", "n"), 0), (("topology", "clusters"), [])],
     "topology.n: must be >= 1, got 0"),
    ("sc_quadratic_event", [(("topology", "clusters"), [[0, 1], [2]])],
     "topology.clusters: must partition 0..3, got ((0, 1), (2,))"),
    ("sc_quadratic_event", [(("topology", "clusters"), [[0, 1], [2, 3], []])],
     "topology.clusters: empty cluster"),
    # oracle
    ("sc_quadratic_event", [(("oracle", "dim"), _DELETE)], "oracle.dim: missing field"),
    ("sc_quadratic_event", [(("oracle", "sigma"), "x")], "oracle.sigma: unexpected type str"),
    ("sc_quadratic_event", [(("oracle", "sigma"), False)], "oracle.sigma: unexpected type bool"),
    ("sc_quadratic_event", [(("oracle", "mu"), None)], "oracle.mu: unexpected type NoneType"),
    ("sc_quadratic_event", [(("oracle", "x_star"), 1.0)],
     "oracle.x_star: unexpected type float"),
    ("sc_quadratic_event", [(("oracle", "kind"), "x")], "oracle.kind: unknown kind 'x'"),
    ("sc_quadratic_event", [(("oracle", "bogus"), 1)], "oracle.bogus: unknown field"),
    ("sc_quadratic_event", [(("oracle", "sigma"), float("inf"))], "oracle.sigma: must be finite"),
    ("sc_quadratic_event", [(("oracle", "mu"), 10 ** 400)], "oracle.mu: must be finite"),
    ("sc_quadratic_event", [(("algorithm", "agreement_q"), float("nan"))],
     "algorithm.agreement_q: must be finite"),
    ("sc_quadratic_event", [(("oracle", "mu"), 5)],
     "oracle.mu: need 0 < mu <= lipschitz, got mu=5.0 lipschitz=4.0"),
    ("sc_quadratic_event", [(("oracle", "dim"), 0)], "oracle.dim: must be >= 1, got 0"),
    ("sc_quadratic_event", [(("oracle", "sigma"), -1)], "oracle.sigma: must be >= 0, got -1.0"),
    ("sc_quadratic_event", [(("oracle", "mu"), _DELETE)],
     "oracle: quadratic kind requires mu and lipschitz"),
    ("sc_quadratic_event", [(("oracle", "x_star"), [0.0])],
     "oracle.x_star: dimension mismatch"),
    ("nc_doublewell_batch", [(("oracle", "radius"), 0)],
     "oracle.radius: double_well kind requires radius > 0"),
    # algorithm, kind "sgd"
    ("sc_quadratic_event", [(("algorithm", "kind"), _DELETE)],
     "algorithm.kind: missing field"),
    ("sc_quadratic_event", [(("algorithm", "kind"), 3)],
     "algorithm.kind: unexpected type int"),
    ("sc_quadratic_event", [(("algorithm", "kind"), "x")],
     "algorithm.kind: unknown kind 'x'"),
    ("sc_quadratic_event", [(("algorithm", "variant"), _DELETE)],
     "algorithm.variant: missing field"),
    ("sc_quadratic_event", [(("algorithm", "variant"), "x")],
     "algorithm.variant: unknown variant 'x'"),
    ("sc_quadratic_event", [(("algorithm", "iterations"), "x")],
     "algorithm.iterations: unexpected type str"),
    ("sc_quadratic_event", [(("algorithm", "iterations"), True)],
     "algorithm.iterations: unexpected type bool"),
    ("sc_quadratic_event", [(("algorithm", "x1"), "x")],
     "algorithm.x1: unexpected type str"),
    ("sc_quadratic_event", [(("algorithm", "x1"), [True, 0.3])],
     "algorithm.x1[0]: unexpected type bool"),
    ("sc_quadratic_event", [(("algorithm", "maa_rule"), "x")],
     "algorithm.maa_rule: unknown rule 'x'"),
    ("sc_quadratic_event", [(("algorithm", "maa_rule"), 1)],
     "algorithm.maa_rule: unexpected type int"),
    ("sc_quadratic_event", [(("algorithm", "agreement_q"), [])],
     "algorithm.agreement_q: unexpected type list"),
    ("sc_quadratic_event", [(("algorithm", "agreement_q"), True)],
     "algorithm.agreement_q: unexpected type bool"),
    ("sc_quadratic_event", [(("algorithm", "cluster_quorum"), None)],
     "algorithm.cluster_quorum: unexpected type NoneType"),
    ("sc_quadratic_event", [(("algorithm", "lr_check"), 1)],
     "algorithm.lr_check: unexpected type int"),
    ("sc_quadratic_event", [(("algorithm", "tau"), "x")],
     "algorithm.tau: unexpected type str"),
    ("sc_quadratic_event", [(("algorithm", "mark_rounds"), 1)],
     "algorithm.mark_rounds: unexpected type int"),
    ("sc_quadratic_event", [(("algorithm", "bogus"), 1)], "algorithm.bogus: unknown field"),
    # algorithm.lr
    ("sc_quadratic_event", [(("algorithm", "lr"), _DELETE)], "algorithm.lr: missing field"),
    ("sc_quadratic_event", [(("algorithm", "lr"), 5)], "algorithm.lr: unexpected type int"),
    ("sc_quadratic_event", [(("algorithm", "lr", "kind"), _DELETE)],
     "algorithm.lr.kind: missing field"),
    ("sc_quadratic_event", [(("algorithm", "lr", "beta"), "x")],
     "algorithm.lr.beta: unexpected type str"),
    ("sc_quadratic_event", [(("algorithm", "lr", "bogus"), 1)],
     "algorithm.lr.bogus: unknown field"),
    ("sc_quadratic_event", [(("algorithm", "lr"), {"kind": "constant"})],
     "algorithm.lr.value: must be positive, got 0.0"),
    ("sc_quadratic_event", [(("algorithm", "lr", "gamma"), -1)],
     "algorithm.lr.gamma: must be nonnegative, got -1.0"),
    ("nc_doublewell_batch", [(("algorithm", "lr"), {"kind": "constant", "value": 8})],
     "algorithm.agreement_q: 'quarter_lr' gives q_1 = eta_1 / 4 = 2, above 1"),
    # algorithm, kind "maa_only"
    ("maa_cluster_crash", [(("algorithm", "level"), _DELETE)],
     "algorithm.level: missing field"),
    ("maa_cluster_crash", [(("algorithm", "rule"), "x")], "algorithm.rule: unknown rule 'x'"),
    ("maa_cluster_crash", [(("algorithm", "q"), "x")], "algorithm.q: unexpected type str"),
    ("maa_cluster_crash", [(("algorithm", "inputs"), _DELETE)],
     "algorithm.inputs: missing field"),
    ("maa_cluster_crash", [(("algorithm", "tau"), 1)], "algorithm.tau: unknown field"),
    ("maa_cluster_crash", [(("algorithm", "q"), 2)], "algorithm.q: must be in (0, 1], got 2.0"),
    ("maa_cluster_crash", [(("algorithm", "level"), "x")],
     "algorithm.level: must be 'shared' or 'cluster', got 'x'"),
    ("maa_cluster_crash", [(("algorithm", "inputs"), [[0.0], [1.0], [0.5]])],
     "algorithm.inputs: 3 rows for 6 processes"),
    ("maa_cluster_crash", [(("algorithm", "inputs"), [[0.0, 1.0]] * 6)],
     "algorithm.inputs: dimension 2 != oracle dimension 1"),
    ("maa_cluster_crash", [(("algorithm", "cluster_quorum"), 4)],
     "algorithm.cluster_quorum: must be in [1, 3]"),
    # faults.crashes
    ("maa_cluster_crash", [(("faults", "crashes"), {})],
     "faults.crashes: unexpected type dict"),
    ("maa_cluster_crash", [(("faults", "crashes", 0), 5)],
     "faults.crashes[0]: must be an object"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "pid"), _DELETE)],
     "faults.crashes[0].pid: missing field"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "pid"), 1.5)],
     "faults.crashes[0].pid: unexpected type float"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "after_events"), "x")],
     "faults.crashes[0].after_events: unexpected type str"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "bogus"), 1)],
     "faults.crashes[0].bogus: unknown field"),
    ("maa_cluster_crash", [(("faults", "bogus"), 1)], "faults.bogus: unknown field"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "after_events"), _DELETE)],
     "faults.crashes[0]: exactly one of after_events / at_iteration required",
     "faults.crashes[0]: exactly one of after_events / at_iteration required, neither given"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "at_iteration"), 1)],
     "faults.crashes[0]: exactly one of after_events / at_iteration required",
     "faults.crashes[0]: exactly one of after_events / at_iteration required, both given"),
    ("maa_cluster_crash", [(("faults", "crashes"), [{"pid": 5, "after_events": 40},
                                                    {"pid": 5, "after_events": 80}])],
     "faults.crashes[1].pid: duplicate pid 5"),
    ("maa_cluster_crash", [(("faults", "crashes", 0, "pid"), 6)],
     "faults.crashes[0].pid: must be in [0, 5], got 6"),
    # a crash at an iteration no process marks (T = 32 marks 1..33)
    ("sc_quadratic_event", [(("faults",), {"crashes": [{"pid": 3, "at_iteration": 0}]})],
     "faults.crashes[0].at_iteration: must be in [1, 33], got 0"),
    ("sc_quadratic_event", [(("faults",), {"crashes": [{"pid": 3, "at_iteration": 34}]})],
     "faults.crashes[0].at_iteration: must be in [1, 33], got 34"),
    # faults.partition
    ("sc_quadratic_event", [(("faults",), {"partition": []})],
     "faults.partition: unexpected type list"),
    ("sc_quadratic_event", [(("faults",), {"partition": None})],
     "faults.partition: unexpected type NoneType"),
    ("sc_quadratic_event", [(("faults",), {"partition": dict(_PARTITION)}),
                            (("faults", "partition", "side_a"), _DELETE)],
     "faults.partition.side_a: missing field"),
    ("sc_quadratic_event", [(("faults",), {"partition": dict(_PARTITION)}),
                            (("faults", "partition", "from_event"), "x")],
     "faults.partition.from_event: unexpected type str"),
    ("sc_quadratic_event", [(("faults",), {"partition": dict(_PARTITION)}),
                            (("faults", "partition", "bogus"), 1)],
     "faults.partition.bogus: unknown field"),
    ("sc_quadratic_event", [(("faults",), {"partition": {"side_a": [0, 2],
                                                         "side_b": [1, 3]}})],
     "faults.partition: cluster (0, 1) straddles the partition"),
    ("sc_quadratic_event", [(("faults",), {"partition": {"side_a": [0, 1], "side_b": [2]}})],
     "faults.partition: sides must partition the processes"),
    # the crash list is checked, pid and iteration, before the partition
    ("sc_quadratic_event", [(("faults",), {"crashes": [{"pid": 3, "at_iteration": 0}],
                                           "partition": {"side_a": [0, 1], "side_b": [2]}})],
     "faults.crashes[0].at_iteration: must be in [1, 33], got 0",
     "first broken rule: crash iteration and partition"),
    # schedule and run
    ("sc_quadratic_event", [(("schedule",), {"max_delay": "x"})],
     "schedule.max_delay: unexpected type str"),
    ("sc_quadratic_event", [(("schedule",), {"bogus": 1})], "schedule.bogus: unknown field"),
    ("sc_quadratic_event", [(("schedule",), {"event_budget": 0})],
     "schedule.event_budget: must be >= 1"),
    ("sc_quadratic_event", [(("schedule",), {"max_delay": 0})],
     "schedule.max_delay: must be >= 1"),
    ("sc_quadratic_event", [(("schedule",), {"max_delay": 2 ** 63})],
     "schedule.max_delay: must be < 2^63, the bound of the int64 delay draw"),
    ("sc_quadratic_event", [(("run", "driver"), "x")], "run.driver: unknown driver 'x'"),
    ("sc_quadratic_event", [(("run", "seeds"), 0)], "run.seeds: must be >= 1"),
    ("sc_quadratic_event", [(("run", "seeds"), 2 ** 31 - 7)],
     "run.seeds: exceeds the reserved stream tag"),
    ("sc_quadratic_event", [(("run", "seeds"), "x")], "run.seeds: unexpected type str"),
    ("sc_quadratic_event", [(("run", "seeds"), True)], "run.seeds: unexpected type bool"),
    ("sc_quadratic_event", [(("run", "seed_root"), -1)], "run.seed_root: must be >= 0"),
    ("sc_quadratic_event", [(("run", "record_series"), 1)],
     "run.record_series: unexpected type int"),
    ("sc_quadratic_event", [(("run", "bogus"), 1)], "run.bogus: unknown field"),
    ("sc_quadratic_event", [(("run", "quorum_policy"), "x")],
     "run.quorum_policy: must be 'random' or 'split', got 'x'"),
    ("sc_quadratic_event", [(("run", "quorum_policy"), "split")],
     "run.quorum_policy: batch driver only; run.driver is 'event'"),
    ("sc_quadratic_event", [(("run", "record_series"), False)],
     "run.record_series: batch driver only; run.driver is 'event'"),
    # checks the batch driver makes against other sections
    ("maa_shared", [(("run", "driver"), "batch")],
     "run.driver: the batch driver only runs sgd algorithms"),
    ("sc_quadratic_batch", [(("run", "quorum_policy"), "split"),
                            (("algorithm", "quorum"), 3)],
     "run.quorum_policy: split policy needs quorum 3 to divide n = 8"),
    ("sc_quadratic_batch", [(("faults",), {"partition": {"side_a": [0, 1, 2, 3],
                                                         "side_b": [4, 5, 6, 7]}}),
                            (("algorithm", "quorum"), 5)],
     "algorithm.quorum: fewer than 5 reachable units for some receiver"),
    ("nc_doublewell_batch", [(("faults",), {"partition": {"side_a": [0, 1],
                                                          "side_b": [2, 3, 4, 5]}})],
     "algorithm.cluster_quorum: fewer than 2 reachable clusters"),
    ("sc_quadratic_batch", [(("run", "quorum_policy"), "split"),
                            (("faults",), {"partition": {"side_a": [0, 1, 2],
                                                         "side_b": [3, 4, 5, 6, 7]}})],
     "run.quorum_policy: split block straddles the partition"),
    ("nc_doublewell_batch", [(("run", "quorum_policy"), "split")],
     "run.quorum_policy: split policy is defined for the strongly convex variant"),
    ("nc_doublewell_batch", [(("topology", "clusters"), [[0, 1, 2], [3, 4, 5]])],
     "topology.clusters: the batch driver supports the agreement stage for uniform "
     "cluster sizes of 1 or 2; use the event driver otherwise"),
    ("sc_quadratic_batch", [(("faults",), {"crashes": [{"pid": 0, "after_events": 10}]})],
     "faults.crashes: crash plans require run.driver == 'event'"),
    # a batch config that breaks two rules reports the one the driver checks
    # first: cluster sizes, the split rule, process reachability, then
    # cluster reachability
    ("nc_doublewell_batch",
     [(("topology", "clusters"), [[0, 1, 2], [3, 4, 5]]), (("run", "quorum_policy"), "split")],
     "topology.clusters: the batch driver supports the agreement stage for uniform "
     "cluster sizes of 1 or 2; use the event driver otherwise",
     "first broken rule: clusters of 3 and split"),
    ("nc_doublewell_batch", [(("faults",), _CUT), (("algorithm", "quorum"), 3)],
     "algorithm.quorum: fewer than 3 reachable units for some receiver",
     "first broken rule: processes and clusters unreachable"),
    ("nc_doublewell_batch", [(("faults",), _CUT), (("run", "quorum_policy"), "split")],
     "run.quorum_policy: split policy is defined for the strongly convex variant",
     "first broken rule: split and clusters unreachable"),
]
CONFIG_ERROR_IDS = [row[-1] for row in CONFIG_ERRORS]


def _edited_scenario(base: str, edits, path: Path) -> Path:
    raw = json.loads((SCENARIOS / f"{base}.json").read_text())
    for keys, value in edits:
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    path.write_text(json.dumps(raw))
    return path


def test_config_error_ids_are_unique():
    assert len(set(CONFIG_ERROR_IDS)) == len(CONFIG_ERROR_IDS)


@pytest.mark.parametrize("base,edits,line", [row[:3] for row in CONFIG_ERRORS],
                         ids=CONFIG_ERROR_IDS)
def test_config_error_message(base, edits, line, tmp_path, capsys):
    scenario = _edited_scenario(base, edits, tmp_path / "scenario.json")
    code = _run(["run", scenario, "--out", tmp_path / "out"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (tmp_path / "out").exists()


def test_seeds_flag_reads_a_null_run_section_as_absent(tmp_path):
    scenario = _edited_scenario("sc_quadratic_event", [(("run",), None)],
                                tmp_path / "scenario.json")
    assert _run(["run", scenario, "--out", tmp_path / "out", "--seeds", 2,
                 "--set", "algorithm.iterations=8"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seeds"] == 2 and summary["scenario"]["run"] == {"seeds": 2}


def test_seeds_flag_rejects_a_run_section_that_is_not_an_object(tmp_path, capsys):
    scenario = _edited_scenario("sc_quadratic_event", [(("run",), [1])],
                                tmp_path / "scenario.json")
    assert _run(["run", scenario, "--out", tmp_path / "out", "--seeds", 2]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: run: must be an object"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edits,flags,line", [
    ([(("run",), [1])], ["--set", "run.seeds=2"], "run: must be an object"),
    ([], ["--set", "topology.n.x=1"], "topology.n: must be an object"),
], ids=["run.seeds", "topology.n.x"])
def test_set_rejects_a_key_path_through_a_value_that_is_not_an_object(edits, flags, line,
                                                                      tmp_path, capsys):
    scenario = _edited_scenario("sc_quadratic_event", edits, tmp_path / "scenario.json")
    assert _run(["run", scenario, "--out", tmp_path / "out", *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw,flags,line", [
    (None, ["--set", "run.seeds"], "--set: expected key=value, got 'run.seeds'"),
    (None, ["--set", "=2"], "--set: empty key in '=2'"),
    ([1, 2], [], "scenario: top level must be an object"),
], ids=["set without =", "set with an empty key", "top level a list"])
def test_run_rejects_a_malformed_override_or_scenario(raw, flags, line, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    if raw is None:
        _edited_scenario("sc_quadratic_event", [], scenario)
    else:
        scenario.write_text(json.dumps(raw))
    assert _run(["run", scenario, "--out", tmp_path / "out", *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not (tmp_path / "out").exists()


def test_absent_keys_take_the_dataclass_defaults(tmp_path):
    edits = [(("algorithm", "lr"), {"kind": "decreasing", "beta": 2.0}),
             (("algorithm", "lr_check"), "warn")]
    scenario = _edited_scenario("sc_quadratic_event", edits, tmp_path / "scenario.json")
    assert _run(["run", scenario, "--out", tmp_path / "out"]) == 0
    _, plan, schedule, algorithm, _, driver, options = cli.load_scenario(
        json.loads(scenario.read_text()))
    assert algorithm.lr.gamma == 0.0 and algorithm.tau is None
    assert algorithm.maa_rule is AggregationRule.MID_EXTREMES
    assert plan == sim.FaultPlan() and schedule == sim.Schedule()
    assert driver == "event"
    assert options == batch.BatchOptions(seeds=3, seed_root=7, quorum_policy="random",
                                         record_series=True)
    raw = json.loads((SCENARIOS / "maa_shared.json").read_text())
    del raw["algorithm"]["rule"]
    assert cli.load_scenario(raw)[3].rule is AggregationRule.MID_EXTREMES


def test_values_are_converted_by_annotation():
    raw = json.loads((SCENARIOS / "sc_quadratic_event.json").read_text())
    raw["oracle"].update(mu=1, lipschitz=4, x_star=[0, 1])
    raw["algorithm"].update(x1=[0, 1], agreement_q=1, tau=3)
    raw["faults"] = {"crashes": [{"pid": 1, "at_iteration": 2}],
                     "partition": {"side_a": [0, 1], "side_b": [2, 3]}}
    topology, plan, _, algorithm, oracle, _, _ = cli.load_scenario(raw)
    assert topology.clusters == ((0, 1), (2, 3))
    for value in (oracle.mu, oracle.lipschitz, *oracle.x_star, *algorithm.x1,
                  algorithm.agreement_q):
        assert type(value) is float
    assert algorithm.tau == 3 and algorithm.variant is Variant.STRONGLY_CONVEX
    assert plan.crashes == (sim.CrashSpec(pid=1, at_iteration=2),)
    assert plan.partition == sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3))


@pytest.mark.parametrize("name,seeds,calls", [("sc_quadratic_event", 2, 1),
                                              ("sc_quadratic_batch", 20, 1)])
def test_run_validates_once_per_driver_pass(name, seeds, calls, tmp_path, monkeypatch):
    seen = []
    real = sgd.validate_config
    monkeypatch.setattr(sgd, "validate_config",
                        lambda *a: seen.append(1) or real(*a))
    assert _run(["run", SCENARIOS / f"{name}.json", "--out", tmp_path,
                 "--seeds", seeds, "--set", "algorithm.iterations=8"]) == 0
    assert len(seen) == calls


def test_event_run_records_and_prints_its_warnings_once(tmp_path, capsys):
    # eta_1 = 1 exceeds 1/L = 0.25, a warning under lr_check "warn"; every
    # seed runs the same config, so each warning is printed once, not per seed
    assert _run(["run", SCENARIOS / "sc_quadratic_event.json", "--out", tmp_path,
                 "--seeds", 3, "--set", "algorithm.iterations=8",
                 "--set", "algorithm.lr_check=warn",
                 "--set", 'algorithm.lr={"kind": "constant", "value": 1.0}']) == 0
    warnings = json.loads((tmp_path / "summary.json").read_text())["warnings"]
    assert warnings == ["lr: eta_1 = 1 exceeds 1/L = 0.25"]
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warnings]


@pytest.mark.parametrize("name", ["sc_quadratic_event", "sc_quadratic_batch"])
def test_driver_config_error_leaves_no_output_directory(name, tmp_path, capsys):
    code = _run(["run", SCENARIOS / f"{name}.json", "--out", tmp_path / "out",
                 "--set", "algorithm.quorum=99"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: algorithm.quorum: N=99")
    assert not (tmp_path / "out").exists()


def test_failed_audit_on_one_seed_exits_4(tmp_path, monkeypatch, capsys):
    real = sim.audit
    calls = []

    def audit_failing_seed_1(trace, props):
        report = real(trace, props)
        calls.append(trace)
        if len(calls) == 2:  # seeds are audited in order
            report["quorum_composition"] = {"ok": False, "detail": "doctored"}
        return report

    monkeypatch.setattr(sim, "audit", audit_failing_seed_1)
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json", "--out", tmp_path,
                 "--trace", "--seeds", 3])
    assert code == cli.EXIT_AUDIT == 4
    assert len(calls) == 3
    audit = json.loads((tmp_path / "summary.json").read_text())["audit"]
    assert audit["quorum_composition"] == {
        "ok": False, "detail": "seed 1 (1 of 3 seeds failed): doctored"}
    assert all(v["ok"] for k, v in audit.items() if k != "quorum_composition")
    assert "seed 1" in capsys.readouterr().err
    assert (tmp_path / "metrics.csv").exists()


def test_single_process_traced_run_passes_its_audits(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json", "--out", tmp_path,
                 "--trace", "--set", "topology.n=1", "--set", "topology.clusters=[[0]]",
                 "--set", "algorithm.quorum=1"])
    assert code == 0
    audit = json.loads((tmp_path / "summary.json").read_text())["audit"]
    assert "asynchrony_coverage" not in audit
    assert all(entry["ok"] for entry in audit.values())


def test_exit_2_is_only_for_config_errors(tmp_path, monkeypatch):
    def broken(finals):
        raise ValueError("not a config problem")

    monkeypatch.setattr(harness, "internal_err", broken)
    with pytest.raises(ValueError, match="not a config problem"):
        _run(["run", SCENARIOS / "sc_quadratic_event.json", "--out", tmp_path])


def test_trace_with_batch_driver_exits_2(tmp_path, capsys):
    code = _run(["run", SCENARIOS / "sc_quadratic_batch.json",
                 "--out", tmp_path / "out", "--trace"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --trace: event traces require run.driver == 'event'"]
    assert not (tmp_path / "out").exists()


def test_liveness_violation_exits_3(tmp_path):
    code = _run(["run", SCENARIOS / "liveness_blocked.json",
                 "--out", tmp_path])
    assert code == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stats"] is None
    assert not summary["liveness"]["ok"]
    assert summary["liveness"]["counts"] == {"blocked": 2}
    assert "output_pids" not in summary


def test_unequal_output_counts_withhold_stats_and_exit_3(tmp_path, capsys):
    # pid 3's crash lands before its output in some seeds and after it in others
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json", "--out", tmp_path,
                 "--set", "algorithm.iterations=8", "--set", "run.seeds=8",
                 "--set", 'faults.crashes=[{"pid": 3, "after_events": 220}]'])
    assert code == cli.EXIT_WITHHELD == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stats"] is None
    assert summary["liveness"] == {"ok": True, "counts": {"completed": 8}}
    pids = summary["output_pids"]
    assert len(pids) == 8 and {tuple(p) for p in pids} == {(0, 1, 2), (0, 1, 2, 3)}
    assert capsys.readouterr().err.splitlines() == [
        "seeds output from 2 different sets of processes: statistics withheld "
        "(output_pids lists them per seed)"]
    assert (tmp_path / "metrics.csv").read_text() == harness.CSV_HEADER + "\n"


def test_cli_outputs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", out_a]) == 0
    assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", out_b]) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_x1_dimension_error_exits_2(tmp_path, capsys):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.x1=[0.3]"])
    assert code == 2
    assert "algorithm.x1" in capsys.readouterr().err


def test_thread_cap_env(monkeypatch, tmp_path):
    for var in ("ASGD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    before = dict(os.environ)
    cli._apply_thread_cap()
    assert dict(os.environ) == before

    monkeypatch.setenv("ASGD_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # setdefault keeps it
    cli._apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "3"

    for bad in ("0", "abc"):
        monkeypatch.setenv("ASGD_THREADS", bad)
        assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                     "--out", tmp_path]) == 2


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_quick(suite, capsys):
    code = _run(["verify", suite, "--quick"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "all checks passed"
    checks = lines[:-1]
    assert len(checks) == len(cli._SUITES[suite])
    assert all(re.match(r"\[PASS\] [^:]+: \S", line) for line in checks), checks

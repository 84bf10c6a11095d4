"""Event kernel: registers, scheduling, faults, liveness, audits."""

import hashlib

import numpy as np
import pytest

from asgd import sgd, sim
from asgd.maa import AggregationRule, MaaOnlyConfig
from asgd.oracle import OracleSpec, grad, sequential_sgd
from asgd.sgd import LrSchedule, SgdConfig, Variant

MID = AggregationRule.MID_EXTREMES

QUAD2 = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)
NO_FAULTS = sim.FaultPlan()
FAST = sim.Schedule(max_delay=3)


def one_cluster(n):
    return sim.Topology(n=n, clusters=(tuple(range(n)),))


def singletons(n):
    return sim.Topology(n=n, clusters=tuple((i,) for i in range(n)))


def shared_agreement(inputs, q=1 / 6):
    return MaaOnlyConfig(level="shared", rule=MID, q=q,
                         inputs=tuple((float(v),) for v in inputs))


def cluster_agreement(inputs, q=0.5, quorum=None):
    return MaaOnlyConfig(level="cluster", rule=MID, q=q,
                         inputs=tuple((float(v),) for v in inputs),
                         cluster_quorum=quorum)


# ---------------------------------------------------------------------------
# Static pieces
# ---------------------------------------------------------------------------

def test_topology_validation():
    with pytest.raises(ValueError):
        sim.Topology(n=3, clusters=((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        sim.Topology(n=3, clusters=((0, 1),))
    with pytest.raises(ValueError):
        sim.Topology(n=2, clusters=((0, 1), ()))
    topo = sim.Topology(n=4, clusters=((0, 1), (2,), (3,)))
    assert topo.m == 3
    assert topo.majority_quorum() == 2
    assert topo.cluster_of(2) == 1
    assert topo.members_of(1) == (0, 1)


def test_topology_tables_for_unsorted_clusters():
    topo = sim.Topology(n=4, clusters=((3, 1), (0, 2)))
    assert [topo.cluster_of(p) for p in range(4)] == [1, 0, 1, 0]
    assert [topo.members_of(p) for p in range(4)] == [(0, 2), (1, 3), (0, 2), (1, 3)]
    for pid in (-1, 4):
        with pytest.raises(KeyError):
            topo.cluster_of(pid)
        with pytest.raises(KeyError):
            topo.members_of(pid)
    # the lookup tables are not fields
    assert topo == sim.Topology(n=4, clusters=((3, 1), (0, 2)))
    assert repr(topo) == "Topology(n=4, clusters=((3, 1), (0, 2)))"


def test_crash_spec_needs_exactly_one_trigger():
    with pytest.raises(ValueError):
        sim.CrashSpec(pid=0)
    with pytest.raises(ValueError):
        sim.CrashSpec(pid=0, after_events=3, at_iteration=1)


def test_partition_must_follow_cluster_boundaries():
    topo = one_cluster(2)
    plan = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    with pytest.raises(ValueError):
        plan.validate_against(topo)
    plan2 = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    assert plan2.validate_against(singletons(2)) == []


def test_fault_plan_warns_when_crashes_take_cluster_majority():
    topo = singletons(3)
    plan = sim.FaultPlan(crashes=(
        sim.CrashSpec(pid=0, after_events=1),
        sim.CrashSpec(pid=1, after_events=1),
    ))
    warnings = plan.validate_against(topo)
    assert len(warnings) == 1 and "majority" in warnings[0]


def test_register_bank_semantics():
    bank = sim.RegisterBank(("sm", 1, 1, 0), owners=(0, 1))
    bank.write(1, 0, 0, "payload")
    assert bank.read(1, 0) == "payload"
    assert bank.read(1, 1) is None
    with pytest.raises(sim.RegisterViolation):
        bank.write(1, 0, 0, "again")  # double write
    with pytest.raises(sim.RegisterViolation):
        bank.write(1, 1, 0, "foreign")  # writer != owner
    with pytest.raises(sim.RegisterViolation):
        bank.write(1, 5, 5, "outsider")  # not a member


def test_derive_streams_reproducible_and_distinct():
    a = sim.derive_streams([11, 3], 2)
    b = sim.derive_streams([11, 3], 2)
    assert a.schedule.integers(1 << 30) == b.schedule.integers(1 << 30)
    assert a.processes[0].standard_normal() == b.processes[0].standard_normal()
    c = sim.derive_streams([11, 4], 2)
    assert a.tau.integers(1 << 30) != c.tau.integers(1 << 30)


# ---------------------------------------------------------------------------
# Kernel runs: agreement programs
# ---------------------------------------------------------------------------

def test_shared_agreement_reaches_target_all_seeds():
    topo = one_cluster(3)
    conf = shared_agreement([0.0, 0.5, 1.0])
    for seed in range(30):
        trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [5, seed])
        assert trace.liveness["ok"]
        outs = np.array([trace.outputs[p][0] for p in range(3)])
        assert outs.min() >= -1e-12 and outs.max() <= 1 + 1e-12
        assert outs.max() - outs.min() <= (7 / 8) ** 14 + 1e-12


def test_cluster_agreement_contracts_and_marks_rounds():
    topo = singletons(3)
    conf = cluster_agreement([0.0, 2.0, 4.0], q=0.25)
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, 77)
    assert trace.liveness["ok"]
    outs = np.array([trace.outputs[p][0] for p in range(3)])
    assert outs.max() - outs.min() <= 0.25 * 4.0 + 1e-9
    assert outs.min() >= -1e-9 and outs.max() <= 4.0 + 1e-9
    marks = [key for key in trace.round_values if key[0] == "cmaa"]
    rounds = sorted(k[-1] for k in marks)
    assert rounds[0] == 1 and rounds[-1] >= 2
    # measured per-round contraction never beats the 23/24 bound
    by_round = {k[-1]: trace.round_values[k] for k in marks}
    for r in range(1, rounds[-1]):
        cur = np.array([v[0] for v in by_round[r].values()])
        nxt = np.array([v[0] for v in by_round[r + 1].values()])
        span_cur = cur.max() - cur.min()
        span_nxt = nxt.max() - nxt.min()
        if span_cur > 1e-15:
            assert span_nxt <= (23 / 24) * span_cur + 1e-12


def test_kernel_is_deterministic_for_a_seed():
    topo = singletons(3)
    conf = cluster_agreement([0.0, 1.0, 3.0], q=0.5)
    t1 = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [42, 0])
    t2 = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [42, 0])
    assert t1.to_jsonl() == t2.to_jsonl()
    t3 = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [42, 1])
    assert t1.to_jsonl() != t3.to_jsonl()


def test_crashed_process_is_silent_and_others_finish():
    topo = singletons(3)
    plan = sim.FaultPlan(crashes=(sim.CrashSpec(pid=2, after_events=5),))
    conf = cluster_agreement([0.0, 1.0, 2.0], q=0.5)
    trace = sim.run(topo, plan, FAST, conf, QUAD2, 9)
    assert trace.liveness["ok"]
    assert set(trace.outputs) == {0, 1}
    crash_events = [e for e in trace.events if e[0] == "crash"]
    assert len(crash_events) == 1 and crash_events[0][2] == 2


def test_partition_without_majority_blocks_and_is_reported():
    topo = singletons(2)
    plan = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    conf = cluster_agreement([0.0, 1.0], q=0.5)  # majority quorum = 2
    trace = sim.run(topo, plan, FAST, conf, QUAD2, 3)
    assert not trace.liveness["ok"]
    assert trace.liveness["kind"] == "blocked"
    blocked = {entry["pid"] for entry in trace.liveness["blocked"]}
    assert blocked == {0, 1}
    assert trace.outputs == {}


def test_event_budget_exhaustion_reported():
    topo = one_cluster(3)
    conf = shared_agreement([0.0, 0.5, 1.0])
    trace = sim.run(topo, NO_FAULTS, sim.Schedule(max_delay=2, event_budget=10),
                    conf, QUAD2, 1)
    assert not trace.liveness["ok"]
    assert trace.liveness["kind"] == "budget"


def test_witness_audit_replays_agreement_outputs():
    topo = one_cluster(4)
    conf = shared_agreement([0.0, 0.25, 0.75, 1.0])
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, 13)
    report = sim.audit(trace, ["witness_replay", "register_semantics"])
    assert report["witness_replay"]["ok"]
    assert report["register_semantics"]["ok"]
    # tampering with an output must break the replay
    trace.outputs[0] = trace.outputs[0] + 1.0
    assert not sim.audit(trace, ["witness_replay"])["witness_replay"]["ok"]


# ---------------------------------------------------------------------------
# Kernel runs: optimization programs
# ---------------------------------------------------------------------------

def test_strongly_convex_noiseless_matches_sequential_bitwise():
    topo = one_cluster(2)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=3, quorum=2,
                     x1=(1.0, -2.0), lr=LrSchedule(kind="constant", value=0.1))
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [8, 0])
    assert trace.liveness["ok"]
    rng = np.random.default_rng(0)  # unused at sigma = 0
    expect = sequential_sgd(QUAD2, np.array([1.0, -2.0]), 3, 0.1, 1, rng)
    for pid in range(2):
        assert trace.outputs[pid].tobytes() == expect.tobytes()
    assert sim.audit(trace, ["equal_outputs"])["equal_outputs"]["ok"]


def test_non_convex_noiseless_matches_plain_descent_at_tau():
    topo = one_cluster(2)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=3, quorum=2,
                     x1=(1.0, -2.0), lr=LrSchedule(kind="constant", value=0.02))
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [21, 0])
    assert trace.liveness["ok"]
    assert trace.tau in (1, 2, 3)
    x = np.array([1.0, -2.0])
    iterates = {1: x.copy()}
    for t in range(1, 4):
        x = x - 0.02 * grad(QUAD2, x)
        iterates[t + 1] = x.copy()
    for pid in range(2):
        assert trace.outputs[pid].tobytes() == iterates[trace.tau].tobytes()
    assert sim.audit(trace, ["equal_outputs"])["equal_outputs"]["ok"]


def test_quorum_and_stale_audits_pass_and_catch_doctored_notes():
    topo = one_cluster(3)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=4, quorum=2,
                     x1=(0.5, 0.5), lr=LrSchedule(kind="constant", value=0.1))
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [31, 5])
    report = sim.audit(trace)
    for name in ("register_semantics", "quorum_composition", "stale_filtering",
                  "participant_monotone"):
        assert report[name]["ok"], (name, report[name])
    # doctor one quorum note: claim a stale sender tag
    for ev in trace.events:
        if ev[0] == "note":
            ev[3]["sender_tags"] = [0] + ev[3]["sender_tags"][1:]
            break
    assert not sim.audit(trace, ["stale_filtering"])["stale_filtering"]["ok"]


def test_asynchrony_coverage_with_small_quorum():
    topo = one_cluster(2)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=6, quorum=1,
                     x1=(1.0, 1.0), lr=LrSchedule(kind="constant", value=0.1))
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [77, 3])
    assert sim.audit(trace, ["asynchrony_coverage"])["asynchrony_coverage"]["ok"]


def test_trace_jsonl_shape():
    topo = one_cluster(2)
    conf = shared_agreement([0.0, 1.0])
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, 2)
    lines = trace.to_jsonl().strip().split("\n")
    assert lines[0].startswith('{"config"') or "asgd-trace" in lines[0]
    assert len(lines) == len(trace.events) + 2


# ---------------------------------------------------------------------------
# Kernel bookkeeping
# ---------------------------------------------------------------------------

def _outputs_sha(trace):
    finals = np.stack([trace.outputs[p] for p in sorted(trace.outputs)])
    return hashlib.sha256(np.ascontiguousarray(finals).tobytes()).hexdigest()


def test_run_without_recording_builds_no_read_digests(monkeypatch):
    topo = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
    conf = cluster_agreement([0.0, 1.0, 3.0, 2.0], q=0.25)
    recorded = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [6, 1])
    assert recorded.counters["register_reads"] > 0

    def forbidden(value):
        raise AssertionError("_digest called while not recording")

    monkeypatch.setattr(sim, "_digest", forbidden)
    quiet = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [6, 1],
                    record_events=False, record_witness=False)
    assert quiet.liveness["ok"] and quiet.events == []
    assert quiet.counters == recorded.counters
    assert _outputs_sha(quiet) == _outputs_sha(recorded)


def test_wait_clusters_already_held_when_blocking_is_runnable(monkeypatch):
    # pid 0 blocks on WaitClusters only after its WaitCount has seen its own
    # message and pid 1's; no further message on the tag ever arrives, so the
    # run completes only if the kernel leaves pid 0 runnable at once
    tag = ("t", 1)
    x = np.zeros(1)

    def waiter():
        yield sim.Broadcast(tag, x)
        yield sim.WaitCount(tag, 2)
        held = yield sim.WaitClusters(tag, 2)
        yield sim.Output(x + len(held))

    def sender():
        yield sim.Broadcast(tag, x)
        yield sim.Output(x)

    monkeypatch.setattr(sgd, "build_programs",
                        lambda algorithm, contexts, tau_rng: ([waiter(), sender()], None))
    for seed in range(10):
        trace = sim.run(singletons(2), NO_FAULTS, FAST, cluster_agreement([0.0, 1.0]),
                        QUAD2, [14, seed])
        assert trace.liveness["ok"], (seed, trace.liveness)
        assert trace.outputs[0][0] == 2.0
        wakes = [(e[3]["tag"], e[3]["held"]) for e in trace.events
                 if e[0] == "wake" and e[2] == 0]
        assert wakes == [(list(tag), 2), (list(tag), 2)]

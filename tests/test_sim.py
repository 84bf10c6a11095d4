"""Event kernel: registers, scheduling, faults, liveness, audits."""

import gc
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from asgd import cli, sgd, sim
from asgd.maa import AggregationRule, MaaOnlyConfig
from asgd.oracle import OracleSpec, grad, sequential_sgd
from asgd.sgd import LrSchedule, SgdConfig, Variant

MID = AggregationRule.MID_EXTREMES

QUAD2 = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)
NO_FAULTS = sim.FaultPlan()
FAST = sim.Schedule(max_delay=3)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    with pytest.raises(sim.ConfigError):
        sim.Topology(n=3, clusters=((0, 1), (1, 2)))
    with pytest.raises(sim.ConfigError):
        sim.Topology(n=3, clusters=((0, 1),))
    with pytest.raises(sim.ConfigError):
        sim.Topology(n=2, clusters=((0, 1), ()))
    topo = sim.Topology(n=4, clusters=((0, 1), (2,), (3,)))
    assert topo.m == 3
    assert topo.majority_quorum() == 2
    assert topo.cluster_quorum(None) == 2
    assert topo.cluster_quorum(1) == 1 and topo.cluster_quorum(3) == 3
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
    with pytest.raises(sim.ConfigError):
        sim.CrashSpec(pid=0)
    with pytest.raises(sim.ConfigError):
        sim.CrashSpec(pid=0, after_events=3, at_iteration=1)


def test_partition_must_follow_cluster_boundaries():
    topo = one_cluster(2)
    plan = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    with pytest.raises(sim.ConfigError):
        plan.validate_against(topo)
    plan2 = sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    assert plan2.validate_against(singletons(2)) == []


def test_config_digest_writes_every_field():
    # the digest's JSON form: fields only, enums by value, tuples as lists
    algorithm = SgdConfig(variant=Variant.NON_CONVEX, iterations=5, quorum=2,
                          x1=(0.5, -1.0), lr=LrSchedule(kind="constant", value=0.05))
    agreement = MaaOnlyConfig(level="cluster", q=0.5, inputs=((0.0,), (1.0,)))
    plan = sim.FaultPlan(crashes=(sim.CrashSpec(pid=1, at_iteration=2),),
                         partition=sim.PartitionSpec(side_a=(0,), side_b=(1,)))
    expected = [
        (algorithm, {"variant": "non_convex", "iterations": 5, "quorum": 2,
                     "x1": [0.5, -1.0],
                     "lr": {"kind": "constant", "beta": 0.0, "gamma": 0.0, "value": 0.05},
                     "maa_rule": "mid_extremes", "agreement_q": "quarter_lr",
                     "cluster_quorum": None, "lr_check": "strict", "tau": None,
                     "mark_rounds": False}),
        (agreement, {"level": "cluster", "q": 0.5, "inputs": [[0.0], [1.0]],
                     "rule": "mid_extremes", "cluster_quorum": None, "mark_rounds": True}),
        (plan, {"crashes": [{"pid": 1, "after_events": None, "at_iteration": 2}],
                "partition": {"side_a": [0], "side_b": [1], "from_event": 0}}),
    ]
    for config, fields in expected:
        assert sim.config_digest_of(config) == sim.config_digest_of(fields), config


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
    bank.write(1, 0, "payload")
    assert bank.read(1, 0) == "payload"
    assert bank.read(1, 1) is None
    with pytest.raises(sim.RegisterViolation):
        bank.write(1, 0, "again")  # double write
    with pytest.raises(sim.RegisterViolation):
        bank.write(1, 5, "outsider")  # not a member


def test_derive_streams_reproducible_and_distinct():
    a = sim.derive_streams([11, 3], 2)
    b = sim.derive_streams([11, 3], 2)
    assert a.schedule.integers(1 << 30) == b.schedule.integers(1 << 30)
    assert a.processes[0].standard_normal() == b.processes[0].standard_normal()
    c = sim.derive_streams([11, 4], 2)
    assert a.tau.integers(1 << 30) != c.tau.integers(1 << 30)


def _numpy_streams(entropy, k):
    """numpy's own objects: the streams seed_streams re-derives in bulk."""
    return [np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(entropy).spawn(k)]


def _same_stream(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.integers(0, 2 ** 63, size=4).tobytes() == theirs.integers(0, 2 ** 63, size=4).tobytes()
    assert ours.standard_normal(3).tobytes() == theirs.standard_normal(3).tobytes()


@pytest.mark.parametrize("root", [0, 1, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70 + 3])
def test_seed_streams_equal_numpy_spawn_bitwise(root):
    # every child (schedule, tau, each process) of [root, s], for s = 0 and
    # for large s, on one-word roots and on multi-word roots
    n = 3
    seeds = [0, 1, 2 ** 31 - 8, 2 ** 32 - 1]
    got = list(zip(seeds, sim.seed_streams(root, range(n + 2), seeds)))
    assert len(got) == len(seeds)
    for s, rngs in got:
        want = _numpy_streams([root, s], n + 2)
        assert len(rngs) == n + 2
        for ours, theirs in zip(rngs, want):
            _same_stream(ours, theirs)


@pytest.mark.parametrize("entropy", [0, 7, 2 ** 32 - 1, 2 ** 40 + 9, [11, 3],
                                     [2 ** 33, 2 ** 31 - 8], [1, 2, 3, 4, 5, 6], []])
def test_derive_streams_equals_numpy_spawn_bitwise(entropy):
    # the event kernel's master seed: a bare int or a list of ints
    n = 4
    streams = sim.derive_streams(entropy, n)
    want = _numpy_streams(entropy, n + 2)
    for ours, theirs in zip([streams.schedule, streams.tau, *streams.processes], want):
        _same_stream(ours, theirs)


def test_seed_streams_in_blocks_and_children_subsets():
    # more seeds than one block, children in any order, the schedule child
    # left out (as the batch driver does)
    children = [3, 2, 1]
    seeds = range(1000)
    for s, rngs in zip(seeds, sim.seed_streams(5, children, seeds)):
        if s % 97 == 0 or s == 999:
            want = _numpy_streams([5, s], 4)
            for ours, child in zip(rngs, children):
                _same_stream(ours, want[child])


def test_streams_are_pinned_to_numpy_2_4_6_draws():
    # fails when a numpy release moves the seeded streams, whichever layer moved
    assert next(sim.seed_streams(0, [1]))[0].bit_generator.random_raw(2).tolist() == \
        [12492077108140196533, 4482314363672241088]
    rng = next(sim.seed_streams(2 ** 32 - 1, [3], [2 ** 31 - 8]))[0]
    assert rng.bit_generator.random_raw(2).tolist() == [13239760972781499918, 14046995837809404917]


def test_negative_entropy_word_raises_as_numpy_does():
    for entropy in (-1, [3, -1]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(entropy)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sim.derive_streams(entropy, 2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(sim.seed_streams(3, [2], [-1]))
    with pytest.raises(ValueError, match="below 2"):
        next(sim.seed_streams(3, [2], [2 ** 32]))


# ---------------------------------------------------------------------------
# Scheduler draws
# ---------------------------------------------------------------------------

# bounds n of integers(n) around the switches of numpy's bounded-integer
# rule: Lemire on uint32, a uint32 as it is at 2^32, whole words above
DRAW_BOUNDS = [1, 2, 3, 2 ** 31 + 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1]


def _draw_mix(seed, count):
    """(low, high) of `count` integers(low, high) calls: the bounds above,
    small event counts, and delays integers(1, high) with high up to 2^63."""
    pick = random.Random(seed)
    mix = []
    for _ in range(count):
        kind = pick.randrange(3)
        if kind == 0:
            mix.append((0, pick.choice(DRAW_BOUNDS)))
        elif kind == 1:
            mix.append((0, pick.randrange(1, 24)))
        else:
            mix.append((1, pick.choice([2, 3, 2 ** 32, 2 ** 63, pick.randrange(2, 2 ** 63 + 1)])))
    return mix


def _draw_both(seed, mix, block, held_half=False):
    """numpy's integers(low, high) and the kernel's draws, over `mix`, from
    two copies of the same PCG64 stream."""
    want_rng = np.random.Generator(np.random.PCG64(seed))
    ours_rng = np.random.Generator(np.random.PCG64(seed))
    if held_half:
        for rng in (want_rng, ours_rng):
            rng.integers(2 ** 16)  # one uint32: the high half is held
            assert rng.bit_generator.state["has_uint32"] == 1
    draw = sim._schedule_draws(ours_rng, block)
    want = [int(want_rng.integers(low, high)) for low, high in mix]
    return want, [low + draw(high - low) for low, high in mix]


@pytest.mark.parametrize("block", [1, 3, 512])
@pytest.mark.parametrize("held_half", [False, True])
def test_schedule_draws_equal_numpy_integers_bitwise(block, held_half):
    for seed in range(25):
        want, got = _draw_both(seed, _draw_mix(seed, 400), block, held_half)
        assert got == want, seed


_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _stream_whose_next_word_is(word):
    """A PCG64 Generator whose next raw word is `word`. PCG64 steps its
    128-bit LCG state and then outputs XSL-RR of it; a stepped state whose
    high word is 0 outputs its low word unrotated, so the state one step
    before it is set."""
    bitgen = np.random.PCG64(0)
    inc = bitgen.state["state"]["inc"]
    before = (word - inc) * pow(_PCG64_MULT, -1, 2 ** 128) % 2 ** 128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": before, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


@pytest.mark.parametrize("n,bits", [(3, 32), (2 ** 31 + 7, 32), (2 ** 32 - 1, 32),
                                    (2 ** 40 + 3, 64), (2 ** 63 - 25, 64)])
def test_schedule_draws_reject_exactly_below_the_threshold(n, bits):
    # Lemire's method rejects a draw x whose x * n mod 2^bits is below
    # t = 2^bits mod n: craft x with that leftover t - 1 (rejected) and t
    # (kept); n is odd, so x = leftover / n mod 2^bits
    threshold = 2 ** bits % n
    assert threshold > 0
    for leftover in (threshold - 1, threshold):
        x = leftover * pow(n, -1, 2 ** bits) % 2 ** bits
        word = x if bits == 64 else (0xABCD1234 << 32) | x
        assert _stream_whose_next_word_is(word).bit_generator.random_raw() == word
        want_rng = _stream_whose_next_word_is(word)
        want = [int(want_rng.integers(n)) for _ in range(3)]
        draw = sim._schedule_draws(_stream_whose_next_word_is(word), block=2)
        assert [draw(n) for _ in range(3)] == want, leftover
        assert (want[0] == x * n >> bits) == (leftover == threshold)


def test_schedule_draws_of_one_value_take_nothing_from_the_stream():
    mix = [(0, 1), (1, 2)] * 50 + [(0, 2 ** 32), (0, 7), (1, 2 ** 40)]
    want, got = _draw_both(5, mix, block=3)
    assert got == want
    assert got[:100] == [0, 1] * 50
    assert got[100:] == _draw_both(5, mix[100:], block=3)[1]


def test_schedule_draws_are_pinned_to_numpy_2_4_6_draws():
    # fails when a numpy release changes its bounded-integer rule
    mix = [(0, 6), (0, 2 ** 32), (1, 2 ** 40 + 4), (0, 3), (0, 2 ** 31 + 7),
           (1, 2 ** 63), (0, 2 ** 32 + 1), (0, 1), (0, 5)]
    pinned = [1, 2902673494, 235650851865, 0, 168654340, 726114886686888756,
              776632366, 0, 0]
    want, got = _draw_both(2024, mix, block=512)
    assert want == pinned
    assert got == pinned


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
    # round_values[scope][round][pid]: one exchange scope for the one
    # iteration, one shared-memory scope per (exchange round, cluster)
    assert [s for s in trace.round_values if s[0] == "cmaa"] == [("cmaa", 1)]
    by_round = trace.round_values[("cmaa", 1)]
    rounds = sorted(by_round)
    assert rounds == list(range(1, len(rounds) + 1)) and len(rounds) >= 2
    assert all(sorted(by_round[r]) == [0, 1, 2] for r in rounds)
    sm_scopes = [s for s in trace.round_values if s[0] == "sm"]
    assert sorted(sm_scopes) == [("sm", 1, r, c) for r in rounds[:-1] for c in range(3)]
    for scope in sm_scopes:
        for per_pid in trace.round_values[scope].values():
            assert list(per_pid) == [scope[3]]
            assert per_pid[scope[3]].shape == (1,)
    # measured per-round contraction never beats the 23/24 bound
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
    # nothing is enabled, so each pending process is blocked on its wait
    for entry in trace.liveness["blocked"]:
        assert entry["wait"] == "WaitClusters", entry
        assert entry["tag"][0] == "agree", entry
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


def test_witness_replay_after_growth_equals_a_fresh_replay():
    # replay keeps the values it computed; a recorder that grew between
    # replays must give the bits of one that replays the final DAG once
    rng = random.Random(11)
    grown = sim.WitnessRecorder()
    for _ in range(3):
        grown.input(np.array([rng.uniform(-1, 1), rng.uniform(-1e-3, 1e3)]))
    for step in range(300):
        top = len(grown.nodes) - 1
        grown.mid(rng.randint(max(0, top - 5), top), rng.randint(0, top))
        if step % 7 == 0:
            grown.replay(rng.randrange(len(grown.nodes)))
    for node in (len(grown.nodes) - 1, 0, rng.randrange(len(grown.nodes))):
        fresh = sim.WitnessRecorder(nodes=list(grown.nodes))
        assert grown.replay(node).tobytes() == fresh.replay(node).tobytes()


def test_witness_replay_returns_a_copy():
    witness = sim.WitnessRecorder()
    a = witness.input(np.array([1.0, -2.0]))
    b = witness.input(np.array([3.0, 0.5]))
    node = witness.mid(a, b)
    witness.replay(node)[:] = 100.0
    witness.replay(a)[:] = 0.0
    assert witness.replay(node).tolist() == [2.0, -0.75]
    assert witness.replay(a).tolist() == [1.0, -2.0]
    later = witness.mid(node, a)
    assert witness.replay(later).tolist() == [1.5, -1.375]


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
    expect = sequential_sgd(QUAD2, np.array([1.0, -2.0]), 3, lambda t: 0.1, 1, rng)
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


def test_participant_audit_reads_participants_without_an_event_log():
    topo = one_cluster(3)
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=4, quorum=2,
                     x1=(0.5, 0.5), lr=LrSchedule(kind="constant", value=0.1))
    trace = sim.run(topo, NO_FAULTS, FAST, conf, QUAD2, [31, 5],
                    record_events=False, record_witness=False)
    assert trace.events == []
    assert trace.participants == {t: {0, 1, 2} for t in range(1, 6)}
    assert sim.audit(trace, ["participant_monotone"])["participant_monotone"]["ok"]
    # doctor the participants: pid 1 reaches iteration 3 without iteration 2
    trace.participants[2].discard(1)
    report = sim.audit(trace, ["participant_monotone"])["participant_monotone"]
    assert not report["ok"]
    assert report["detail"] == "processes {1} reached iteration 3 without completing 2"


def test_a_wait_feeds_only_its_own_tags_payloads(monkeypatch):
    # each process broadcasts under two tags and waits on one: the feed must
    # hold that tag's payloads and nothing sent under the other
    wanted, other = ("it", 1), ("it", 2)
    feeds = {}

    def program(pid):
        yield sim.Broadcast(other, np.full(1, -1.0 - pid))
        yield sim.Broadcast(wanted, np.full(1, 1.0 + pid))
        feeds[pid] = yield sim.WaitCount(wanted, 3)
        yield sim.Output(np.zeros(1))

    monkeypatch.setattr(sgd, "build_programs",
                        lambda algorithm, contexts, tau_rng: ([program(p) for p in range(3)], None))
    for seed in range(10):
        feeds.clear()
        trace = sim.run(singletons(3), NO_FAULTS, FAST, cluster_agreement([0.0, 1.0, 2.0]),
                        QUAD2, [16, seed])
        assert trace.liveness["ok"], (seed, trace.liveness)
        assert sorted(feeds) == [0, 1, 2]
        for pid, held in feeds.items():
            assert sorted((s, float(v[0])) for s, v in held) == [(0, 1.0), (1, 2.0), (2, 3.0)]


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


ENCODED_VALUES = [
    0, -7, 2 ** 70, True, False, None,
    float("nan"), float("inf"), float("-inf"), -0.0, 1e-320, 0.1,
    np.float64(0.1), np.float64("-inf"),
    'say "hi" \\ there', "tab\t nl\n cr\r nul\x00 us\x1f del\x7f",
    "h\u00e9llo \u2603 \U0001d11e",
    [1, [2.5, [None, "x", []]], [True]],
    {3: "c", 1: {"b": [1, 2], "a": None}, 2: 1.5},
    {"k": "deliver", "t": 3, "p": 1, "tag": ["grad", 2], "h": "0123456789ab"},
]


# the module's line encoders, and the JSONEncoder.encode each replaces (and
# falls back to without the _json accelerator); the planned ones skip the
# key sort, so they are given each value with its dicts in sorted key order
LINE_ENCODERS = {
    "line": sim._encode_trace_line,
    "encode": sim._TRACE_JSON.encode,
    "planned-line": sim._encode_planned_line,
    "planned-encode": sim._PLANNED_JSON.encode,
}
ALL_LINE_ENCODERS = pytest.mark.parametrize("name", list(LINE_ENCODERS))


def _key_sorted(value):
    if isinstance(value, dict):
        return {k: _key_sorted(v) for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [_key_sorted(v) for v in value]
    return value


@ALL_LINE_ENCODERS
@pytest.mark.parametrize("value", ENCODED_VALUES, ids=repr)
def test_trace_line_encoder_writes_json_dumps_bytes(name, value):
    given = _key_sorted(value) if name.startswith("planned") else value
    assert LINE_ENCODERS[name](given) == json.dumps(value, sort_keys=True)


@ALL_LINE_ENCODERS
def test_trace_line_encoder_rejects_what_json_dumps_rejects(name):
    encode = LINE_ENCODERS[name]
    with pytest.raises(TypeError) as want:
        json.dumps({"v": np.int64(1)}, sort_keys=True)
    with pytest.raises(TypeError) as got:
        encode({"v": np.int64(1)})
    assert str(got.value) == str(want.value)
    circular = {"tag": []}
    circular["tag"].append(circular)
    with pytest.raises(RecursionError):
        encode(circular)


def _trace_of(events, outputs=None):
    return sim.RunTrace(
        config_digest="c0ffee", n=3, events=events, outputs=outputs or {},
        participants={}, round_values={}, witness=sim.WitnessRecorder(),
        output_witness={}, counters={"events": len(events)},
        liveness={"ok": True}, warnings=[])


def _sha12(value):
    return hashlib.sha256(value.tobytes()).hexdigest()[:12]


def test_export_digests_each_payload_object_by_its_bytes():
    a = np.array([1.0, 2.0])
    twin = a.copy()  # equal bytes, another object
    other = np.array([1.0, -2.0])
    events = [("send", 0, 0, {"tag": ["g", 1], "payload": a})]
    events += [("deliver", t, p, {"sender": 0, "tag": ["g", 1], "payload": a})
               for t, p in ((1, 1), (2, 2), (3, 0))]
    events += [("send", 4, 1, {"tag": ["g", 1], "payload": twin}),
               ("send", 5, 2, {"tag": ["g", 1], "payload": other}),
               ("deliver", 6, 0, {"sender": 2, "tag": ["g", 1], "payload": other}),
               ("iter", 7, 2, {"iteration": 1, "value": other}),
               ("note", 8, 2, {"kind": "probe", "point": a, "size": 2})]
    lines = [json.loads(line) for line in _trace_of(events).to_jsonl().splitlines()]
    recs = lines[1:-1]
    assert [r.get("h") for r in recs] == [_sha12(a)] * 5 + [_sha12(other)] * 3 + [None]
    assert _sha12(a) != _sha12(other)
    assert recs[-1] == {"k": "note", "t": 8, "p": 2, "kind": "probe",
                        "point": _sha12(a), "size": 2}


def test_export_digests_a_tuple_payload_member_by_member():
    a, b = np.array([0.5]), np.array([-0.25])
    pair = (a, b)
    events = [("send", 0, 0, {"tag": ["m", 0], "payload": pair}),
              ("deliver", 1, 1, {"sender": 0, "tag": ["m", 0], "payload": pair}),
              ("send", 2, 1, {"tag": ["m", 0], "payload": a}),
              ("output", 3, 1, {"value": (b,)})]
    lines = _trace_of(events, outputs={1: b}).to_jsonl().splitlines()
    recs = [json.loads(line) for line in lines]
    want = f"{_sha12(a)}+{_sha12(b)}"
    assert [r.get("h") for r in recs[1:-1]] == [want, want, _sha12(a), _sha12(b)]
    assert recs[-1]["outputs"] == {"1": _sha12(b)}


def test_export_failure_leaves_the_next_export_unaffected():
    # a C encoder kept between exports with circular-reference markers would
    # keep the list's marker from the first failure and call it circular
    shared = [np.int64(1)]
    trace = _trace_of([("note", 0, 0, {"kind": "bad", "held": shared})])
    for _ in range(2):
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            trace.to_jsonl()


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


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    # sim.run turns the cyclic collector off; on every exit it must restore
    # the caller's state, not turn the collector on unasked
    topo = singletons(2)
    during = []

    def faulty():
        yield sim.Broadcast(("t", 1), np.zeros(1))
        during.append(gc.isenabled())
        raise RuntimeError("program fault")

    def completes():
        trace = sim.run(topo, NO_FAULTS, FAST, cluster_agreement([0.0, 1.0]), QUAD2, 3)
        assert trace.liveness["ok"]

    def config_error():
        with pytest.raises(sim.ConfigError, match="3 rows for 2 processes"):
            sim.run(topo, NO_FAULTS, FAST, cluster_agreement([0.0, 1.0, 2.0]), QUAD2, 3)

    def program_error():
        with monkeypatch.context() as patch:
            patch.setattr(sgd, "build_programs",
                          lambda algorithm, contexts, tau_rng: ([faulty(), faulty()], None))
            with pytest.raises(RuntimeError, match="program fault"):
                sim.run(topo, NO_FAULTS, FAST, cluster_agreement([0.0, 1.0]), QUAD2, 3)

    for call in (completes, config_error, program_error):
        (gc.enable if enabled else gc.disable)()
        try:
            call()
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled, call.__name__
    assert during == [False]


def test_runs_leave_no_cyclic_garbage(perfbench_run):
    # sim.run keeps the cyclic collector off, so reference counting alone
    # must free all a run discards: on the benchmark's event workloads and
    # every event scenario, a collection right after the run finds nothing
    cases = {name: work.scenario(0) for name, work in perfbench_run.WORKLOADS.items()
             if work.driver == "event"}
    cases.update((path.stem, json.loads(path.read_text()))
                 for path in sorted(SCENARIOS.glob("*.json")))
    ran = []
    for name, raw in cases.items():
        topology, faults, schedule, algorithm, oracle, driver, options = cli.load_scenario(raw)
        if driver != "event":
            continue
        gc.collect()
        gc.disable()
        try:
            trace = sim.run(topology, faults, schedule, algorithm, oracle,
                            [options.seed_root, 0])
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0, name
        assert trace.events, name
        ran.append(name)
    assert {"event-agree", "event-quorum-trace", "sc_quadratic_event"} <= set(ran), ran


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


def test_a_program_that_returns_without_output_is_incomplete(monkeypatch):
    # pid 1 broadcasts and returns: it is done but never output, so the run
    # must not report success
    tag = ("t", 1)
    x = np.zeros(1)

    def outputs():
        yield sim.Broadcast(tag, x)
        yield sim.Output(x + 1)

    def returns():
        yield sim.Broadcast(tag, x)

    monkeypatch.setattr(sgd, "build_programs",
                        lambda algorithm, contexts, tau_rng: ([outputs(), returns()], None))
    trace = sim.run(singletons(2), NO_FAULTS, FAST, cluster_agreement([0.0, 1.0]),
                    QUAD2, [15, 0])
    assert trace.liveness == {"ok": False, "kind": "incomplete", "missing": [1]}
    assert list(trace.outputs) == [0]

"""Golden digests of the batch driver (both variants) and the event kernel.

Each batch case pins SHA-256 digests of a small run's BatchResult arrays, and
each event case pins the digest of its exported traces (recording on) and of
its outputs (recording off), so an optimisation that moves any output bit or
any scheduled event fails here by name instead of quietly shifting a rate
fit. `asgd run` on every file in scenarios/ is pinned too, by its exit code
and the bytes of its summary.json and metrics.csv. The pins were computed with numpy 2.4.6 on Python 3.11.7; a different
numpy may draw differently, and a mismatch should then be recorded against
that version, not re-pinned silently.
"""

import functools
import hashlib
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from asgd import batch, cli, sim
from asgd.maa import AggregationRule
from asgd.oracle import OracleSpec
from asgd.sgd import LrSchedule, SgdConfig, Variant
from test_sim import _trace_of

PINNED_NUMPY = "2.4.6"

WELL_2D = OracleSpec(kind="double_well", dim=2, sigma=0.3, radius=1.25)
PAIRS_6 = sim.Topology(n=6, clusters=((0, 1), (2, 3), (4, 5)))


def _case_mid_extremes_pairs():
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=12, quorum=2,
                     x1=(0.25, 0.25),
                     lr=LrSchedule(kind="decreasing", beta=0.5, gamma=4.0),
                     lr_check="warn")
    return PAIRS_6, conf, WELL_2D, batch.BatchOptions(seeds=24, seed_root=701)


def _case_approach_extreme_pairs():
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=8, quorum=1,
                     x1=(0.25, -0.5), lr=LrSchedule(kind="constant", value=0.0625),
                     maa_rule=AggregationRule.APPROACH_EXTREME, lr_check="warn")
    return PAIRS_6, conf, WELL_2D, batch.BatchOptions(seeds=20, seed_root=702)


def _case_singletons():
    topo = sim.Topology(n=5, clusters=tuple((i,) for i in range(5)))
    spec = OracleSpec(kind="quadratic", dim=3, sigma=0.5, mu=1.0, lipschitz=4.0)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=10, quorum=2,
                     x1=(1.0, -0.5, 0.25), lr=LrSchedule(kind="constant", value=0.05),
                     lr_check="warn")
    return topo, conf, spec, batch.BatchOptions(seeds=30, seed_root=703)


def _case_divergence_partition():
    # the shape of scenarios/divergence_partition.json, shortened
    topo = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=40, quorum=2,
                     x1=(0.0,), lr=LrSchedule(kind="constant", value=0.01),
                     agreement_q=0.5, cluster_quorum=1)
    cut = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3), from_event=0)
    return topo, conf, spec, batch.BatchOptions(seeds=25, seed_root=31), cut


CASES = {
    "mid_extremes_pairs": _case_mid_extremes_pairs,
    "approach_extreme_pairs": _case_approach_extreme_pairs,
    "singletons": _case_singletons,
    "divergence_partition": _case_divergence_partition,
}

# case -> {field: sha256 of the array's bytes}
GOLDEN = {
    "approach_extreme_pairs": {
        "outputs": "aa15d7d07b9d0ca2fff0f8939de9fdc9e95aeabd057364766dc6f514b3a60134",
        "finals": "5d4d3f9df96d6096e0d8dca477ac79bf775b4e97141df4379e57e6a2a8214df6",
        "taus": "0d709f1898d7d987bd4ec082137c4b817062a2be8a90b78c56aad038b2bb046f",
        "series.diam_sq": "52dbd4365b026555e3382c056240376d3aa319c7e46c1aa7c38caa4883570517",
        "series.grad_norm_sq": "c38dd2308c08e08dec940693ffa002f6724959286975e7050c9632106aad5776",
    },
    "divergence_partition": {
        "outputs": "6dd60b657880f52e9d8f6efcddac1570af88d7df8da4337e215638b342c47d96",
        "finals": "0eabf5d8b9872fd05caaff5f4f1ddd1c692d62768519c121058762a845c603b6",
        "taus": "fdc9f498657a5848614d80acf913d35ea1f93fe0cee921d57f27c4aafe627b3a",
        "series.diam_sq": "dfdb898926fa173798f3b229476d0c07f286b3b210871527f2c1b6fecd4a3e89",
        "series.grad_norm_sq": "e0f1aa42f9e5acd9e9a49cb757f335130a4c63cf13d61791a77a54495525c066",
    },
    "mid_extremes_pairs": {
        "outputs": "580c08d4962c9e491e1e84328f570842de0095afacb4592455df8f94e692009c",
        "finals": "fd7e3c3b789c1d0ea1c48aa65bb0b5202e11ad7dc47204304749bc42f064f1df",
        "taus": "39a45f4bf10019f4e9e0d75061583f12e32698b6520b38a5bca8612f51507653",
        "series.diam_sq": "89f71694141dedff4a8c78b5db40be02ac451aa869ecc708ff8313e5525dd433",
        "series.grad_norm_sq": "2f646f97fb77736a3259c0a1a7cf4b70fe2b97ebad36725c5e61bc1fbcedfa56",
    },
    "singletons": {
        "outputs": "ab121f649995236629e4ddd87a310211378d10f3532335918c6bcda4b5997fa6",
        "finals": "10a6361b541bfc04986cc31f9b99e3de6b23fba07f8d4959dbf5215c941a1fc6",
        "taus": "659b7121470fd2c227fa637b08d7a923408fc1acd298515f45e5865713b8fd7e",
        "series.diam_sq": "855745003e7c964f375554a7448241e5e6235fe78dac1d20fa85956421bdf0a1",
        "series.grad_norm_sq": "4c0869a120c5a571dbed21872bf35d9e0fffb80d09eb75f1ff5b092612d199ed",
    },
}


QUAD_2D = OracleSpec(kind="quadratic", dim=2, sigma=0.7, mu=1.0, lipschitz=4.0)
QUAD_3D = OracleSpec(kind="quadratic", dim=3, sigma=0.5, mu=1.0, lipschitz=4.0)
DECREASING = LrSchedule(kind="decreasing", beta=2.0, gamma=8.0)


def _singletons(n):
    return sim.Topology(n=n, clusters=tuple((i,) for i in range(n)))


def _case_sc_random_d2():
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=12, quorum=3,
                     x1=(0.3, -0.2), lr=DECREASING)
    cut = sim.PartitionSpec(side_a=(0, 1, 2), side_b=(3, 4, 5), from_event=6)
    return _singletons(6), conf, QUAD_2D, batch.BatchOptions(seeds=24, seed_root=711), cut


def _case_sc_random_d3():
    # d = 3 guards the summation order of the diameter's squared norms
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=10, quorum=2,
                     x1=(1.0, -0.5, 0.25), lr=DECREASING)
    return _singletons(5), conf, QUAD_3D, batch.BatchOptions(seeds=20, seed_root=712)


def _case_sc_split():
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=12, quorum=2,
                     x1=(0.3, 0.3), lr=DECREASING)
    return _singletons(6), conf, QUAD_2D, batch.BatchOptions(
        seeds=16, seed_root=713, quorum_policy="split")


def _case_sc_single_process():
    # one process: the diameter is 0 at every iteration
    conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=9, quorum=1,
                     x1=(0.3, 0.3), lr=DECREASING)
    return _singletons(1), conf, QUAD_2D, batch.BatchOptions(seeds=12, seed_root=714)


SC_CASES = {
    "sc_random_d2": _case_sc_random_d2,
    "sc_random_d3": _case_sc_random_d3,
    "sc_split": _case_sc_split,
    "sc_single_process": _case_sc_single_process,
}

# case -> {field: sha256 of the array's bytes}; taus is None under this variant
GOLDEN_SC = {
    "sc_random_d2": {
        "outputs": "8d1423f047cf9bc9e165d059461a6dd5656062832afba95b0b8d88f1eb7c97cb",
        "finals": "8d1423f047cf9bc9e165d059461a6dd5656062832afba95b0b8d88f1eb7c97cb",
        "series.diam_sq": "fdb88c23f4e3c4ba26b3f756e10c469e818638f5faccd4c0d5f01facefcab184",
        "series.grad_norm_sq": "43a2662a914f83fe7130d993d88ce8812ccb3e8a5ea84b34dda2f654715eeac8",
    },
    "sc_random_d3": {
        "outputs": "4670cd19ed25109a75388fd8f6d161b83fed8f7c921f485f05a8733686004d55",
        "finals": "4670cd19ed25109a75388fd8f6d161b83fed8f7c921f485f05a8733686004d55",
        "series.diam_sq": "e23e48fa0afa5330899e7b74047c2f4f6e6f504d99845a30c6aaacb5bf92f43d",
        "series.grad_norm_sq": "7f94c734cb56378e207ba119576cb2c6b87f0f9e78709949839f324871894d3e",
    },
    "sc_single_process": {
        "outputs": "163c987a9c05d4d914f290b6bcb619abf51a8947d6fffbb95ada1f71686ee3df",
        "finals": "163c987a9c05d4d914f290b6bcb619abf51a8947d6fffbb95ada1f71686ee3df",
        "series.diam_sq": "3dc463a76fc170607c07b104c3cb531362ce7d6e10c1a34e0c0f370aeae08ce8",
        "series.grad_norm_sq": "5fa9e0b560b42066462b834e118555c40c57ec8d3db3e0dfd22830ba25ad5d40",
    },
    "sc_split": {
        "outputs": "d9ae2e75f02bbc21cbc0a9bf7a87eab9c74810feaa035f1158eb11e5e5fdabe3",
        "finals": "d9ae2e75f02bbc21cbc0a9bf7a87eab9c74810feaa035f1158eb11e5e5fdabe3",
        "series.diam_sq": "4bff33aeb674a4ca375f6ff8bf76327fb1ed6acf21e9bd9883fa9e63a1370884",
        "series.grad_norm_sq": "fbb35a30e10157a6e879c1a0ca68edca8ae581f5c6811446757310cefee0583c",
    },
}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def digests(result: batch.BatchResult) -> dict[str, str]:
    out = {"outputs": _sha(result.outputs), "finals": _sha(result.finals)}
    if result.taus is not None:
        out["taus"] = _sha(result.taus)
    for key in sorted(result.series):
        out[f"series.{key}"] = _sha(result.series[key])
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_non_convex_digests_match_pins(case):
    got = digests(batch.run_ensemble(*CASES[case]()))
    assert got == GOLDEN[case], (
        f"{case}: digests moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})")


@pytest.mark.parametrize("case", sorted(SC_CASES))
def test_batch_strongly_convex_digests_match_pins(case):
    result = batch.run_ensemble(*SC_CASES[case]())
    assert result.taus is None
    assert digests(result) == GOLDEN_SC[case], (
        f"{case}: digests moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})")


def test_single_process_diameter_is_zero():
    result = batch.run_ensemble(*SC_CASES["sc_single_process"]())
    assert result.series["diam_sq"].shape == (10, 12)
    assert not result.series["diam_sq"].any()


# ---------------------------------------------------------------------------
# Event kernel
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _scenario(name):
    """(topology, faults, schedule, algorithm, oracle, seed_root, seeds) of
    an event-driver file in scenarios/, run as `asgd run` runs it."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    topo, plan, schedule, algo, oracle, driver, options = cli.load_scenario(raw)
    assert driver == "event"
    return topo, plan, schedule, algo, oracle, options.seed_root, options.seeds


def _case_crash_at_iteration_and_partition():
    # pid 3 crashes on entering iteration 3; messages across the partition
    # are deferred until both sides have output, then released and dropped
    topo = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=5, quorum=1,
                     x1=(0.0,), lr=LrSchedule(kind="constant", value=0.01),
                     agreement_q=0.5, cluster_quorum=1)
    plan = sim.FaultPlan(
        crashes=(sim.CrashSpec(pid=3, at_iteration=3),),
        partition=sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3)))
    return topo, plan, sim.Schedule(), conf, spec, 808, 3


def _case_pairs_with_delay(max_delay, seed_root):
    # agreement-coupled SGD: register operations and broadcasts, so the
    # schedule stream serves event choices and delay draws interleaved
    topo = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=2, quorum=2,
                     x1=(0.25, -0.25), lr=LrSchedule(kind="constant", value=0.0625),
                     agreement_q=0.25, lr_check="warn")
    return (topo, sim.FaultPlan(), sim.Schedule(max_delay=max_delay), conf, WELL_2D,
            seed_root, 2)


EVENT_CASES = {
    **{name: functools.partial(_scenario, name)
       for name in ("liveness_blocked", "maa_cluster_crash", "maa_shared",
                    "sc_quadratic_event")},
    "crash_at_iteration_and_partition": _case_crash_at_iteration_and_partition,
    # every delay draw has a range of one value and takes nothing from the stream
    "delay_one": functools.partial(_case_pairs_with_delay, 1, 901),
    # delay draws above 2^32 take whole 64-bit words between 32-bit event choices
    "delay_wide": functools.partial(_case_pairs_with_delay, 2 ** 40 + 3, 902),
}

# case -> sha256 of the concatenated trace exports (recording on) and of the
# outputs (recording off), over the case's seeds in order
GOLDEN_EVENT = {
    "crash_at_iteration_and_partition": {
        "trace": "286054ca2031533fb58e119a99af3074c741959a2b711af8ecee4c4e21b2a96b",
        "outputs": "cf58969ef92a26fe8d4e338379e619e0890a2ff998836f9e49f07156789100f3",
    },
    "delay_one": {
        "trace": "1dd2078ac44a1e7e514d08753a0b7522419593295a2fb694c3bcf3c7df7d1618",
        "outputs": "ab26c4a641a9a2f528a8c7044239502142bc77b66f1b9b55c7550fd061a5d1d1",
    },
    "delay_wide": {
        "trace": "3c196ce6cd47c1db91b8a63c80c03deb2215d30be80d3b69241c0e574b4ff6d2",
        "outputs": "5874ff5e83aee162a23dbf9594016612f2cece47f40618d8ad946b79537aa1bb",
    },
    "liveness_blocked": {
        "trace": "a2a8cc2001df20f7fa43c5712a4ea8dec74234e77698ecc795f13af44b06e901",
        "outputs": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "maa_cluster_crash": {
        "trace": "2c293ebe8ae16a63a7a9e962e305b7699b2c845044608228546320f9e87c6d41",
        "outputs": "31731b4a6734648a12254f7bf216ed4150d19502ddf3f47ea5352bc68ea41e70",
    },
    "maa_shared": {
        "trace": "b997e32625220ebe63adc4df79c0a3fc75e3b17d13d30f78a1604a1bfd123542",
        "outputs": "f4a9e77f49baa6b6252379a50f5ac7c157437313754e1a92ab49c0687f1f87e0",
    },
    "sc_quadratic_event": {
        "trace": "5baeb8926db1aeff99719413b91907d0eca8acee38aba6d434af1e4bcad3a519",
        "outputs": "40509ef62aed64264e24e5f283895e3c6e182913f6dab3272e435b0216c3cb1a",
    },
}


@functools.lru_cache(maxsize=None)  # the runs are deterministic; tests only read them
def _event_runs(case, record: bool) -> list[sim.RunTrace]:
    topo, plan, schedule, algo, oracle, seed_root, seeds = EVENT_CASES[case]()
    return [sim.run(topo, plan, schedule, algo, oracle, [seed_root, s],
                    record_events=record, record_witness=record)
            for s in range(seeds)]


def _outputs_sha(traces: list[sim.RunTrace]) -> str:
    h = hashlib.sha256()
    for s, trace in enumerate(traces):
        for pid in sorted(trace.outputs):
            h.update(f"{s}/{pid}:".encode())
            h.update(np.ascontiguousarray(trace.outputs[pid]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(EVENT_CASES))
def test_event_digests_match_pins(case):
    on = _event_runs(case, record=True)
    off = _event_runs(case, record=False)
    for s, (a, b) in enumerate(zip(on, off)):
        assert a.counters == b.counters, (case, s)
        assert a.liveness == b.liveness, (case, s)
        assert _outputs_sha([a]) == _outputs_sha([b]), (case, s)
    got = {
        "trace": hashlib.sha256(
            "".join(t.to_jsonl() for t in on).encode()).hexdigest(),
        "outputs": _outputs_sha(off),
    }
    assert got == GOLDEN_EVENT[case], (
        f"{case}: digests moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})")


def _kinds_sim_run_logs() -> set[str]:
    return set(re.findall(r'\blog\("(\w+)"', inspect.getsource(sim.run)))


def test_event_cases_log_every_event_kind():
    # a kind no golden case logs is a kind whose export no pin guards
    logged = {e[0] for case in EVENT_CASES
              for trace in _event_runs(case, record=True) for e in trace.events}
    assert _kinds_sim_run_logs() == logged


def _reference_jsonl(trace: sim.RunTrace) -> str:
    """The trace export as first written: json.dumps for every line, and
    every array digested again at every event that logs it."""
    def digest(value):
        if isinstance(value, np.ndarray):
            return hashlib.sha256(value.tobytes()).hexdigest()[:12]
        if isinstance(value, tuple):
            return "+".join(digest(v) for v in value)
        return hashlib.sha256(repr(value).encode()).hexdigest()[:12]

    lines = [json.dumps({"format": "asgd-trace", "version": 1,
                         "config": trace.config_digest, "n": trace.n,
                         "tau": trace.tau}, sort_keys=True)]
    for kind, tick, pid, data in trace.events:
        rec = {"k": kind, "t": tick, "p": pid}
        for key, val in data.items():
            if isinstance(val, (np.ndarray, tuple)) and key in ("payload", "value"):
                rec["h"] = digest(val)
            elif isinstance(val, np.ndarray):
                rec[key] = digest(val)
            else:
                rec[key] = val
        lines.append(json.dumps(rec, sort_keys=True))
    lines.append(json.dumps({
        "outputs": {str(p): digest(v) for p, v in sorted(trace.outputs.items())},
        "liveness": trace.liveness,
        "counters": dict(sorted(trace.counters.items())),
    }, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_event_export_equals_reference_line_by_line():
    kinds = set()
    for case in ("crash_at_iteration_and_partition", "maa_cluster_crash"):
        for s, trace in enumerate(_event_runs(case, record=True)):
            kinds.update(e[0] for e in trace.events)
            got = trace.to_jsonl().split("\n")
            want = _reference_jsonl(trace).split("\n")
            assert len(got) == len(want), (case, s)
            for i, (a, b) in enumerate(zip(got, want)):
                assert a == b, (case, s, i)
    # together the two cases log every kind, so every kind's line is compared
    assert kinds == _kinds_sim_run_logs()


def test_export_of_program_data_equals_reference_line_by_line():
    # a note, and a payload or value that is neither an array nor a tuple,
    # is program data: the export must sort the keys of every dict in it,
    # as it must in an event whose keys differ from the kernel's
    a, b = np.array([1.0, -0.5]), np.array([0.25])
    nested = {"zeta": {"b": 1, "a": {"d": 2, "c": None}}, "alpha": [{"y": 1, "x": 2}, []]}
    events = [
        ("note", 0, 0, {"kind": "probe", **nested}),
        ("send", 1, 0, {"tag": ["g", 1], "payload": {"z": [1, {"b": 2, "a": 1}], "a": 0}}),
        ("deliver", 2, 1, {"sender": 0, "tag": ["g", 1], "payload": {"z": 1, "a": 0}}),
        ("send", 3, 1, {"tag": ["g", 1], "payload": 7}),
        ("send", 4, 2, {"tag": ["g", 1], "payload": [3, {"b": 1, "a": 2}]}),
        ("output", 5, 2, {"value": [{"b": 1, "a": 2}, {"d": {"f": 1, "e": 0}}]}),
        ("send", 6, 0, {"tag": ["g", 1.5, True, None, False], "payload": a}),
        ("deliver", 7, 2, {"sender": 0, "tag": ["g", 1.5, True, None, False], "payload": a}),
        ("wait", 8, 1, {"tag": [-0.0, None, True], "count": 2, "wait_kind": "WaitCount"}),
        ("write", 9, 0, {"instance": ["mid", 0], "round": 1, "payload": (a, b)}),
        ("read", 10, 1, {"instance": ["mid", 0], "round": 1, "owner": 0, "observed": None}),
        ("round", 11, 1, {"scope": ["mid", 0.5, None], "round": 1, "value": b}),
        ("iter", 12, 1, {"iteration": 1, "value": b}),
        ("output", 13, 1, {"value": b}),
        # keys unlike the first of their kind, and keys that collide with k
        ("wake", 14, 0, {"tag": ["g", 1], "held": 2}),
        ("wake", 15, 1, {"tag": ["g", 1], "held": {"b": 1, "a": 0}, "why": {"z": 0, "y": 1}}),
        ("defer", 16, 2, {"receiver": 0, "tag": ["g"], "k": {"b": 1, "a": 2}}),
    ]
    trace = _trace_of(events, outputs={1: b, 2: a})
    got = trace.to_jsonl().split("\n")
    want = _reference_jsonl(trace).split("\n")
    assert len(got) == len(want) == len(events) + 3
    for i, (line, ref) in enumerate(zip(got, want)):
        assert line == ref, (i, events[i - 1] if 0 < i <= len(events) else None)


def test_crash_and_partition_case_takes_both_fault_paths():
    for trace in _event_runs("crash_at_iteration_and_partition", record=True):
        assert trace.liveness["ok"]
        crashes = [e for e in trace.events if e[0] == "crash"]
        assert [(e[2], e[3]["trigger"]) for e in crashes] == [(3, "at_iteration=3")]
        assert trace.counters["deferred"] > 0
        # every deferred message is released after the last output, when
        # each receiver has finished, so each one is dropped then
        last_output = max(i for i, e in enumerate(trace.events) if e[0] == "output")
        released = [e for e in trace.events[last_output:]
                    if e[0] == "drop" and (e[2] < 2) != (e[3]["sender"] < 2)]
        assert len(released) == trace.counters["deferred"]


# ---------------------------------------------------------------------------
# `asgd run` on every scenario file
# ---------------------------------------------------------------------------

# scenario -> (exit code, sha256 of summary.json, sha256 of metrics.csv) of
# `asgd run scenarios/<name>.json`, the file as committed
GOLDEN_RUN = {
    "divergence_partition": (
        0, "292c7c165cc1f34414d43640bf187e51e9129d725b10f067f88b357731da6fb0",
        "bb174ca11b018d442634f3d0d887f6adce5ab85cc0bc59f7d6748d253150a300"),
    "liveness_blocked": (
        3, "806b7f389af08c44cb3d50bf0b343709a8d6d8d979c6ec47ae835f24c18cd0ab",
        "d7fb44b4a49a29ae0127eb7293b33b37d758a5758924b171ed5f6ecd70aa8405"),
    "maa_cluster_crash": (
        0, "7b045d0004e25017826ed3ecfc8277c112288169a5d5766e5f3d4c4f686f4448",
        "7482d89d772a0692a9095e042001d80fd603c8be1a57c71ef8d0e51872fddf64"),
    "maa_shared": (
        0, "3c495fc4c2b523a3c531ba439fd1cdc5c808d775568db53a6b5b41cf48a515cc",
        "d95c9412aa9d75ceee440aa3a99abbaa440ab3c6e3ae3af8c79dfadda70bd598"),
    "nc_doublewell_batch": (
        0, "b4fe009cd056ff6cf5a896905f10e85760acf715d8cada0ec0be5e9fc35ffd42",
        "00ec2f091ed2f871374c39b33f5a1e5e9294cf909b328017460ab190b387b07c"),
    "sc_quadratic_batch": (
        0, "3f2ed43831be03f7fa374fad57ba7fded3f11f9e578163c2098e8338ae67535e",
        "3f107a942651fb8090eb0923465ee2303d72e2efb6780654e7e8be2afbb786d1"),
    "sc_quadratic_event": (
        0, "6ce7f140ceaf3d90e6e93280e689b1079afd1c2265aa63dbbd3b05a8401107b4",
        "8ca6d7b8033ab4338d5bfdf4891c909f7e115ea0e20646590191fea6e99a8694"),
}


def test_golden_run_covers_every_scenario_file():
    assert sorted(GOLDEN_RUN) == sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN_RUN))
def test_run_outputs_match_pins(name, tmp_path):
    code = cli.main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)])
    got = (code,
           hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest(),
           hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest())
    assert got == GOLDEN_RUN[name], (
        f"{name}: outputs moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})")

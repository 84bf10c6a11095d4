"""Golden digests of the batch non-convex driver and the event kernel.

Each batch case pins SHA-256 digests of a small run's BatchResult arrays, and
each event case pins the digest of its exported traces (recording on) and of
its outputs (recording off), so an optimisation that moves any output bit or
any scheduled event fails here by name instead of quietly shifting a rate
fit. The pins were computed with numpy 2.4.6 on Python 3.11.7; a different
numpy may draw differently, and a mismatch should then be recorded against
that version, not re-pinned silently.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from asgd import batch, cli, sim
from asgd.maa import AggregationRule
from asgd.oracle import OracleSpec
from asgd.sgd import LrSchedule, SgdConfig, Variant

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
    return topo, conf, spec, batch.BatchOptions(seeds=25, seed_root=31, partition=cut)


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


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def digests(result: batch.BatchResult) -> dict[str, str]:
    out = {"outputs": _sha(result.outputs), "finals": _sha(result.finals),
           "taus": _sha(result.taus)}
    for key in sorted(result.series):
        out[f"series.{key}"] = _sha(result.series[key])
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_non_convex_digests_match_pins(case):
    got = digests(batch.run_ensemble(*CASES[case]()))
    assert got == GOLDEN[case], (
        f"{case}: digests moved (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})")


# ---------------------------------------------------------------------------
# Event kernel
# ---------------------------------------------------------------------------

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _scenario(name):
    """(topology, faults, schedule, algorithm, oracle, seed_root, seeds) of
    an event-driver file in scenarios/, run as `asgd run` runs it."""
    raw = json.loads((SCENARIOS / f"{name}.json").read_text())
    topo, plan, schedule, algo, oracle, opts = cli.load_scenario(raw)
    assert opts["driver"] == "event"
    return topo, plan, schedule, algo, oracle, opts["seed_root"], opts["seeds"]


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


EVENT_CASES = {
    **{name: functools.partial(_scenario, name)
       for name in ("liveness_blocked", "maa_cluster_crash", "maa_shared",
                    "sc_quadratic_event")},
    "crash_at_iteration_and_partition": _case_crash_at_iteration_and_partition,
}

# case -> sha256 of the concatenated trace exports (recording on) and of the
# outputs (recording off), over the case's seeds in order
GOLDEN_EVENT = {
    "crash_at_iteration_and_partition": {
        "trace": "5987171f226174ee576f32328665c87577a077dd0d6f1beaf89f2ca7631d2a39",
        "outputs": "cf58969ef92a26fe8d4e338379e619e0890a2ff998836f9e49f07156789100f3",
    },
    "liveness_blocked": {
        "trace": "6e4b3b2a6a3c834833d3d3424f2d811214b595528996aaf71e3e20124a7d7fa1",
        "outputs": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "maa_cluster_crash": {
        "trace": "552837d7e105f64aed509e9f91b2a0b1430310ed51c6731690150a709c6b3c42",
        "outputs": "31731b4a6734648a12254f7bf216ed4150d19502ddf3f47ea5352bc68ea41e70",
    },
    "maa_shared": {
        "trace": "2453f516d2ca7474d9c5de404bdfdf6380c71d5eddc203d78dbedc1fa2a10653",
        "outputs": "f4a9e77f49baa6b6252379a50f5ac7c157437313754e1a92ab49c0687f1f87e0",
    },
    "sc_quadratic_event": {
        "trace": "a145551a720d25a9b6d450cf56a38948dc69fe6c3fa428f8b1e69daee684f116",
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

"""Event-level simulator for cluster-based asynchronous algorithms.

The unit of execution is one scheduler event: a register write, a register
read, a message delivery, a wait wake-up, or a local step. Process programs
are generators that yield effect objects; the kernel picks uniformly at
random (from a seeded schedule stream) among all enabled events, so every
interleaving of the fine-grained steps is reachable.

Model notes:

- Within a cluster, processes communicate through single-writer multi-reader
  register banks; writing someone else's cell or writing a cell twice is a
  hard failure (``RegisterViolation``).
- Across the whole system, processes communicate by broadcast messages with
  per-receiver delivery delays drawn uniformly from [1, max_delay] scheduler
  ticks. A process's broadcast is delivered to itself synchronously at send
  time and counts toward its own quorums.
- Crashed processes take no further events; their earlier messages remain
  deliverable. A partition defers messages crossing it until every surviving
  process on both sides has produced its output.
- Logical time is the event counter. A run ends successfully when every
  non-crashed process has output; it reports a liveness violation when no
  event is enabled while some non-crashed process is still waiting, or when
  the event budget is exhausted.

Schedule invariant: the enabled events are, in this order, the pending
message deliveries in arrival order, then the runnable processes by
ascending pid; each event is picked by one ``integers(enabled_count)`` draw
from the schedule stream. That order and that draw define the seeded
schedule, so no optimisation may reorder them.

The runnable set ({READY} plus {BLOCKED whose wait holds}) is maintained
incrementally, not rebuilt per event. It changes only when a step blocks,
outputs, finishes or crashes its process, when a crash is applied, and when
a delivery on a blocked receiver's wait tag satisfies the wait;
``WaitClusters`` reads a per-(receiver, tag) set of sender clusters kept up
to date by each delivery. With ``record_events=False`` no event record is
built at all (no payload digests, no tag copies).
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np

# ---------------------------------------------------------------------------
# Static configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Process count and its partition into disjoint clusters."""

    n: int
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = []
        for c in self.clusters:
            if len(c) == 0:
                raise ValueError("topology.clusters: empty cluster")
            seen.extend(c)
        if sorted(seen) != list(range(self.n)):
            raise ValueError(
                f"topology.clusters: must partition 0..{self.n - 1}, got {self.clusters}"
            )
        # lookup tables, not fields: equality, hashing and repr are unchanged
        object.__setattr__(self, "_cluster_index", {
            pid: idx for idx, members in enumerate(self.clusters) for pid in members})
        object.__setattr__(self, "_sorted_members",
                           tuple(tuple(sorted(members)) for members in self.clusters))

    @property
    def m(self) -> int:
        return len(self.clusters)

    def cluster_of(self, pid: int) -> int:
        return self._cluster_index[pid]

    def members_of(self, pid: int) -> tuple[int, ...]:
        return self._sorted_members[self._cluster_index[pid]]

    def majority_quorum(self) -> int:
        return self.m // 2 + 1

    def to_jsonable(self) -> dict:
        return {"n": self.n, "clusters": [list(c) for c in self.clusters]}


@dataclass(frozen=True)
class CrashSpec:
    """Crash one process, triggered by global event count or by iteration."""

    pid: int
    after_events: int | None = None
    at_iteration: int | None = None

    def __post_init__(self):
        if (self.after_events is None) == (self.at_iteration is None):
            raise ValueError("crash: exactly one of after_events / at_iteration required")

    def to_jsonable(self) -> dict:
        return {"pid": self.pid, "after_events": self.after_events,
                "at_iteration": self.at_iteration}


@dataclass(frozen=True)
class PartitionSpec:
    """Split of the processes into two sides; cross messages are deferred.

    The split must follow cluster boundaries (no cluster straddles it).
    """

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    from_event: int = 0

    def to_jsonable(self) -> dict:
        return {"side_a": list(self.side_a), "side_b": list(self.side_b),
                "from_event": self.from_event}


@dataclass(frozen=True)
class FaultPlan:
    crashes: tuple[CrashSpec, ...] = ()
    partition: PartitionSpec | None = None

    def validate_against(self, topology: Topology) -> list[str]:
        """Hard-errors raise; returns a list of progress warnings."""
        warnings = []
        pids = [c.pid for c in self.crashes]
        if len(set(pids)) != len(pids):
            raise ValueError("faults.crashes: duplicate pid")
        for c in self.crashes:
            if not 0 <= c.pid < topology.n:
                raise ValueError(f"faults.crashes: pid {c.pid} out of range")
        if self.partition is not None:
            a, b = set(self.partition.side_a), set(self.partition.side_b)
            if a & b or (a | b) != set(range(topology.n)):
                raise ValueError("faults.partition: sides must partition the processes")
            for members in topology.clusters:
                ms = set(members)
                if ms & a and ms & b:
                    raise ValueError(
                        "faults.partition: cluster {} straddles the partition".format(members)
                    )
        crashed_pids = set(pids)
        dead_clusters = sum(
            1 for members in topology.clusters if set(members) <= crashed_pids
        )
        if dead_clusters > (topology.m - 1) // 2:
            warnings.append(
                "crash plan can kill {} full clusters; cluster-majority progress "
                "is not guaranteed".format(dead_clusters)
            )
        return warnings

    def to_jsonable(self) -> dict:
        return {
            "crashes": [c.to_jsonable() for c in self.crashes],
            "partition": self.partition.to_jsonable() if self.partition else None,
        }


@dataclass(frozen=True)
class Schedule:
    """Delay law and run budget for the event kernel."""

    max_delay: int = 4
    event_budget: int = 10_000_000

    def __post_init__(self):
        if self.max_delay < 1:
            raise ValueError("schedule.max_delay: must be >= 1")
        if self.event_budget < 1:
            raise ValueError("schedule.event_budget: must be >= 1")

    def to_jsonable(self) -> dict:
        return {"max_delay": self.max_delay, "event_budget": self.event_budget}


# ---------------------------------------------------------------------------
# Seeded stream derivation (the single implementation shared by all drivers)
# ---------------------------------------------------------------------------


@dataclass
class RunStreams:
    schedule: np.random.Generator
    tau: np.random.Generator
    processes: list[np.random.Generator]


def derive_streams(entropy, n: int) -> RunStreams:
    """Per-run streams: child 0 schedule, child 1 tau, children 2..n+1 per pid."""
    ss = np.random.SeedSequence(entropy)
    children = ss.spawn(n + 2)
    return RunStreams(
        schedule=np.random.Generator(np.random.PCG64(children[0])),
        tau=np.random.Generator(np.random.PCG64(children[1])),
        processes=[np.random.Generator(np.random.PCG64(c)) for c in children[2:]],
    )


# ---------------------------------------------------------------------------
# Effects yielded by process programs
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Write:
    instance: tuple
    round_index: int
    payload: Any


@dataclass(slots=True)
class Read:
    instance: tuple
    round_index: int
    owner: int


@dataclass(slots=True)
class Broadcast:
    tag: tuple
    payload: Any


@dataclass(slots=True)
class WaitCount:
    """Block until at least `count` messages with this tag have arrived."""

    tag: tuple
    count: int


@dataclass(slots=True)
class WaitClusters:
    """Block until messages with this tag cover at least `count` clusters."""

    tag: tuple
    count: int


@dataclass(slots=True)
class IterMark:
    """Start of an iteration; carries the entering iterate for snapshots."""

    iteration: int
    value: np.ndarray


@dataclass(slots=True)
class RoundMark:
    """Per-round value marker used by contraction reports."""

    scope: tuple
    round_index: int
    value: np.ndarray


@dataclass(slots=True)
class Note:
    """Structured audit breadcrumb (quorum composition and similar)."""

    kind: str
    data: dict


@dataclass(slots=True)
class Output:
    value: np.ndarray
    witness_node: int = -1


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------


class RegisterViolation(RuntimeError):
    """Foreign-cell write or double write; always a hard failure."""


class RegisterBank:
    """Single-writer multi-reader cells keyed by (round_index, owner pid)."""

    def __init__(self, instance: tuple, owners: tuple[int, ...]):
        self.instance = instance
        self.owners = frozenset(owners)
        self.cells: dict[tuple[int, int], Any] = {}

    def write(self, round_index: int, owner: int, writer: int, payload) -> None:
        if writer != owner:
            raise RegisterViolation(
                f"process {writer} attempted to write cell ({round_index}, {owner}) "
                f"of bank {self.instance}"
            )
        if owner not in self.owners:
            raise RegisterViolation(
                f"process {owner} does not own a cell in bank {self.instance}"
            )
        key = (round_index, owner)
        if key in self.cells:
            raise RegisterViolation(f"cell {key} of bank {self.instance} written twice")
        self.cells[key] = payload

    def read(self, round_index: int, owner: int):
        return self.cells.get((round_index, owner))


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

TRACE_FORMAT_VERSION = 1


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()[:12]
    if isinstance(value, tuple):
        return "+".join(_digest(v) for v in value)
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


@dataclass
class WitnessRecorder:
    """Append-only DAG of midpoint operations behind every agreement output.

    Node kinds: ("input", bytes, shape) and ("mid", parent_a, parent_b).
    """

    nodes: list[tuple] = field(default_factory=list)
    enabled: bool = True

    def input(self, value: np.ndarray) -> int:
        if not self.enabled:
            return -1
        self.nodes.append(("input", value.tobytes(), value.shape[0]))
        return len(self.nodes) - 1

    def mid(self, a: int, b: int) -> int:
        if not self.enabled:
            return -1
        self.nodes.append(("mid", a, b))
        return len(self.nodes) - 1

    def replay(self, idx: int) -> np.ndarray:
        """Recompute the value at a node with the same float op order.

        Parents always precede children in the node list, so evaluating the
        reachable set in ascending index order needs no recursion (agreement
        chains can be thousands of mids deep).
        """
        needed: set[int] = set()
        stack = [idx]
        while stack:
            i = stack.pop()
            if i in needed:
                continue
            needed.add(i)
            node = self.nodes[i]
            if node[0] == "mid":
                stack.extend(node[1:3])
        memo: dict[int, np.ndarray] = {}
        for i in sorted(needed):
            node = self.nodes[i]
            if node[0] == "input":
                memo[i] = np.frombuffer(node[1], dtype=np.float64).copy()
            else:
                memo[i] = (memo[node[1]] + memo[node[2]]) / 2.0
        return memo[idx]


@dataclass
class RunTrace:
    """Everything observable about one run."""

    config_digest: str
    n: int
    events: list[tuple]
    outputs: dict[int, np.ndarray]
    snapshots: dict[tuple[int, int], np.ndarray]
    round_values: dict[tuple, dict[int, np.ndarray]]
    witness: WitnessRecorder
    output_witness: dict[int, int]
    counters: dict[str, int]
    liveness: dict
    warnings: list[str]
    tau: int | None = None

    def to_jsonl(self) -> str:
        """Line-delimited export; deterministic bytes for a deterministic run."""
        lines = [json.dumps({
            "format": "asgd-trace",
            "version": TRACE_FORMAT_VERSION,
            "config": self.config_digest,
            "n": self.n,
            "tau": self.tau,
        }, sort_keys=True)]
        for ev in self.events:
            kind, tick, pid, data = ev
            rec = {"k": kind, "t": tick, "p": pid}
            for key, val in data.items():
                if isinstance(val, (np.ndarray, tuple)) and key in ("payload", "value"):
                    rec["h"] = _digest(val)
                elif isinstance(val, np.ndarray):
                    rec[key] = _digest(val)
                else:
                    rec[key] = val
            lines.append(json.dumps(rec, sort_keys=True))
        trailer = {
            "outputs": {str(p): _digest(v) for p, v in sorted(self.outputs.items())},
            "liveness": self.liveness,
            "counters": dict(sorted(self.counters.items())),
        }
        lines.append(json.dumps(trailer, sort_keys=True))
        return "\n".join(lines) + "\n"


def config_digest_of(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

READY, BLOCKED, DONE, CRASHED = "ready", "blocked", "done", "crashed"


@dataclass
class ProcessContext:
    """What a process program can see locally."""

    pid: int
    topology: Topology
    oracle_spec: Any
    rng: np.random.Generator
    witness: WitnessRecorder

    @property
    def cluster_id(self) -> int:
        return self.topology.cluster_of(self.pid)

    @property
    def cluster_members(self) -> tuple[int, ...]:
        return self.topology.members_of(self.pid)


class _ProcState:
    __slots__ = ("gen", "status", "wait", "feed")

    def __init__(self, gen: Iterator):
        self.gen = gen
        self.status = READY
        self.wait: WaitCount | WaitClusters | None = None
        self.feed = None


def run(
    topology: Topology,
    fault_plan: FaultPlan,
    schedule: Schedule,
    algorithm,
    oracle_spec,
    master_seed,
    record_events: bool = True,
    record_witness: bool = True,
) -> RunTrace:
    """Execute one full run and return its trace.

    `algorithm` is an SgdConfig or MaaOnlyConfig (see asgd.sgd / asgd.maa);
    `master_seed` is an int or a list of ints (SeedSequence entropy).
    """
    from . import sgd as _sgd  # deferred: sgd imports effect types from here

    # hard config errors (quorum vs survivors, dimensions, strict lr bounds)
    # raise here; theory-premise issues come back as warnings on the trace
    warnings = _sgd.validate_config(algorithm, topology, fault_plan, oracle_spec)
    streams = derive_streams(master_seed, topology.n)
    witness = WitnessRecorder(enabled=record_witness)

    digest = config_digest_of({
        "topology": topology.to_jsonable(),
        "faults": fault_plan.to_jsonable(),
        "schedule": schedule.to_jsonable(),
        "algorithm": algorithm.to_jsonable(),
        "oracle": _oracle_jsonable(oracle_spec),
        "seed": master_seed if isinstance(master_seed, int) else list(master_seed),
    })

    contexts = [
        ProcessContext(pid=i, topology=topology, oracle_spec=oracle_spec,
                       rng=streams.processes[i], witness=witness)
        for i in range(topology.n)
    ]
    programs, tau = _sgd.build_programs(algorithm, contexts, streams.tau)

    procs = [_ProcState(g) for g in programs]
    inboxes: list[dict[tuple, list]] = [dict() for _ in range(topology.n)]
    # per receiver and tag: the clusters of the senders held so far
    sender_clusters: list[dict[tuple, set[int]]] = [dict() for _ in range(topology.n)]
    # {READY} | {BLOCKED whose wait holds}, ascending pid; kept up to date by
    # the events that can change it (see the module docstring)
    runnable: list[int] = list(range(topology.n))
    banks: dict[tuple, RegisterBank] = {}
    buckets: dict[int, list] = {}
    ready_msgs: list = []
    deferred: list = []

    trace_events: list[tuple] = []
    snapshots: dict[tuple[int, int], np.ndarray] = {}
    round_values: dict[tuple, dict[int, np.ndarray]] = {}
    outputs: dict[int, np.ndarray] = {}
    output_witness: dict[int, int] = {}
    counters = {
        "events": 0, "sends": 0, "deliveries": 0, "drops": 0, "deferred": 0,
        "register_writes": 0, "register_reads": 0, "wakeups": 0,
    }

    sched_rng = streams.schedule
    crash_by_events = {c.pid: c.after_events for c in fault_plan.crashes
                       if c.after_events is not None}
    crash_by_iter = {c.pid: c.at_iteration for c in fault_plan.crashes
                     if c.at_iteration is not None}
    partition = fault_plan.partition
    side_of: dict[int, int] = {}
    if partition is not None:
        for p in partition.side_a:
            side_of[p] = 0
        for p in partition.side_b:
            side_of[p] = 1

    tick = 0
    liveness: dict = {"ok": True, "kind": "completed"}

    # Every call site checks record_events first, so a run that does not
    # record builds no event record at all.
    def log(_kind: str, _pid: int | None, **data):
        trace_events.append((_kind, tick, _pid, data))

    def bank_for(instance: tuple, pid: int) -> RegisterBank:
        bank = banks.get(instance)
        if bank is None:
            bank = banks[instance] = RegisterBank(instance, topology.members_of(pid))
        return bank

    def wait_satisfied(pid: int, wait) -> bool:
        if isinstance(wait, WaitCount):
            return len(inboxes[pid].get(wait.tag, ())) >= wait.count
        return len(sender_clusters[pid].get(wait.tag, ())) >= wait.count

    def partition_blocks(sender: int, receiver: int) -> bool:
        if partition is None or counters["events"] < partition.from_event:
            return False
        return side_of[sender] != side_of[receiver]

    def both_sides_done() -> bool:
        if partition is None:
            return False
        for p in range(topology.n):
            if procs[p].status in (READY, BLOCKED) and p not in crash_applied:
                return False
        return True

    crash_applied: set[int] = set()

    def apply_crash(pid: int, why: str):
        crash_applied.add(pid)
        procs[pid].status = CRASHED
        if pid in runnable:
            runnable.remove(pid)
        if record_events:
            log("crash", pid, trigger=why)

    def deliver(msg):
        sender, receiver, tag, payload = msg
        st = procs[receiver]
        if st.status in (DONE, CRASHED):
            counters["drops"] += 1
            if record_events:
                log("drop", receiver, sender=sender, tag=list(tag))
            return
        held = inboxes[receiver].get(tag)
        if held is None:
            held = inboxes[receiver][tag] = []
            sender_clusters[receiver][tag] = set()
        held.append((sender, payload))
        sender_clusters[receiver][tag].add(topology.cluster_of(sender))
        counters["deliveries"] += 1
        if record_events:
            log("deliver", receiver, sender=sender, tag=list(tag), payload=payload)
        # only a delivery on its wait tag can make a blocked process runnable
        if st.status == BLOCKED and st.wait.tag == tag and receiver not in runnable \
                and wait_satisfied(receiver, st.wait):
            bisect.insort(runnable, receiver)

    # Main loop. One iteration = one event.
    while True:
        if counters["events"] >= schedule.event_budget:
            liveness = {"ok": False, "kind": "budget",
                        "detail": f"event budget {schedule.event_budget} exhausted"}
            break

        # event-count crash triggers
        if crash_by_events:
            for pid, threshold in list(crash_by_events.items()):
                if pid not in crash_applied and counters["events"] >= threshold \
                        and procs[pid].status not in (DONE,):
                    apply_crash(pid, f"after_events={threshold}")

        if tick in buckets:
            ready_msgs.extend(buckets.pop(tick))

        enabled_count = len(ready_msgs) + len(runnable)

        if enabled_count == 0:
            pending = [i for i, st in enumerate(procs) if st.status in (READY, BLOCKED)]
            if not pending:
                break  # everyone done or crashed
            if buckets:
                tick = min(buckets)  # fast-forward to the next delivery
                continue
            if deferred and both_sides_done():
                ready_msgs.extend(deferred)
                deferred.clear()
                continue
            liveness = {
                "ok": False, "kind": "blocked",
                "blocked": [
                    {"pid": i,
                     "wait": type(procs[i].wait).__name__ if procs[i].wait else "none",
                     "tag": list(procs[i].wait.tag) if procs[i].wait else None}
                    for i in pending
                ],
            }
            break

        choice = int(sched_rng.integers(enabled_count))
        counters["events"] += 1

        if choice < len(ready_msgs):
            msg = ready_msgs.pop(choice)
            deliver(msg)
            tick += 1
            continue

        pid = runnable[choice - len(ready_msgs)]
        st = procs[pid]
        if st.status == BLOCKED:
            st.feed = list(inboxes[pid].get(st.wait.tag, ()))
            counters["wakeups"] += 1
            if record_events:
                log("wake", pid, tag=list(st.wait.tag), held=len(st.feed))
            st.wait = None
            st.status = READY

        try:
            effect = st.gen.send(st.feed)
        except StopIteration:
            st.status = DONE
            runnable.remove(pid)
            tick += 1
            continue
        st.feed = None

        if isinstance(effect, Write):
            bank = bank_for(effect.instance, pid)
            bank.write(effect.round_index, pid, pid, effect.payload)
            counters["register_writes"] += 1
            if record_events:
                log("write", pid, instance=list(effect.instance),
                    round=effect.round_index, payload=effect.payload)
        elif isinstance(effect, Read):
            bank = bank_for(effect.instance, pid)
            st.feed = bank.read(effect.round_index, effect.owner)
            counters["register_reads"] += 1
            if record_events:
                log("read", pid, instance=list(effect.instance),
                    round=effect.round_index, owner=effect.owner,
                    observed=_digest(st.feed) if st.feed is not None else None)
        elif isinstance(effect, Broadcast):
            # synchronous self-delivery, delayed delivery to everyone else
            if record_events:
                log("send", pid, tag=list(effect.tag), payload=effect.payload)
            counters["sends"] += topology.n
            deliver((pid, pid, effect.tag, effect.payload))
            for other in range(topology.n):
                if other == pid:
                    continue
                msg = (pid, other, effect.tag, effect.payload)
                if partition_blocks(pid, other):
                    deferred.append(msg)
                    counters["deferred"] += 1
                    if record_events:
                        log("defer", pid, receiver=other, tag=list(effect.tag))
                    continue
                delay = int(sched_rng.integers(1, schedule.max_delay + 1))
                buckets.setdefault(tick + delay, []).append(msg)
        elif isinstance(effect, (WaitCount, WaitClusters)):
            st.status = BLOCKED
            st.wait = effect
            if record_events:
                log("wait", pid, tag=list(effect.tag), count=effect.count,
                    wait_kind=type(effect).__name__)
            # a wait that already holds (self-delivery plus earlier
            # arrivals) leaves the process runnable
            if not wait_satisfied(pid, effect):
                runnable.remove(pid)
        elif isinstance(effect, IterMark):
            snapshots[(pid, effect.iteration)] = effect.value
            if record_events:
                log("iter", pid, iteration=effect.iteration, value=effect.value)
            if crash_by_iter.get(pid) == effect.iteration:
                apply_crash(pid, f"at_iteration={effect.iteration}")
        elif isinstance(effect, RoundMark):
            key = effect.scope + (effect.round_index,)
            round_values.setdefault(key, {})[pid] = effect.value
            if record_events:
                log("round", pid, scope=list(effect.scope), round=effect.round_index,
                    value=effect.value)
        elif isinstance(effect, Note):
            if record_events:
                log("note", pid, kind=effect.kind, **effect.data)
        elif isinstance(effect, Output):
            outputs[pid] = effect.value
            if record_witness and effect.witness_node >= 0:
                output_witness[pid] = effect.witness_node
            st.status = DONE
            runnable.remove(pid)
            if record_events:
                log("output", pid, value=effect.value)
            if deferred and both_sides_done():
                ready_msgs.extend(deferred)
                deferred.clear()
        else:
            raise TypeError(f"unknown effect {effect!r}")
        tick += 1

    # A run is only complete if every non-crashed process produced output.
    if liveness["ok"]:
        missing = [i for i, st in enumerate(procs)
                   if st.status != DONE and i not in crash_applied]
        if missing:
            liveness = {"ok": False, "kind": "incomplete", "blocked": missing}

    return RunTrace(
        config_digest=digest,
        n=topology.n,
        events=trace_events,
        outputs=outputs,
        snapshots=snapshots,
        round_values=round_values,
        witness=witness,
        output_witness=output_witness,
        counters=counters,
        liveness=liveness,
        warnings=warnings,
        tau=tau,
    )


def _oracle_jsonable(oracle_spec) -> dict:
    from dataclasses import asdict

    return asdict(oracle_spec)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def audit(trace: RunTrace, properties: list[str] | None = None) -> dict[str, dict]:
    """Check structural invariants against the recorded event log.

    Available properties: register_semantics, quorum_composition,
    stale_filtering, participant_monotone, witness_replay, equal_outputs,
    asynchrony_coverage.
    """
    all_checks = {
        "register_semantics": _audit_registers,
        "quorum_composition": _audit_quorums,
        "stale_filtering": _audit_stale,
        "participant_monotone": _audit_monotone,
        "witness_replay": _audit_witness,
        "equal_outputs": _audit_equal_outputs,
        "asynchrony_coverage": _audit_asynchrony,
    }
    names = properties if properties is not None else list(all_checks)
    report = {}
    for name in names:
        if name not in all_checks:
            raise KeyError(f"unknown audit property {name!r}")
        report[name] = all_checks[name](trace)
    return report


def _audit_registers(trace: RunTrace) -> dict:
    written: dict[tuple, str] = {}
    for kind, tick, pid, data in trace.events:
        if kind == "write":
            key = (tuple(data["instance"]), data["round"], pid)
            if key in written:
                return {"ok": False, "detail": f"double write at {key}"}
            written[key] = _digest(data["payload"])
        elif kind == "read":
            key = (tuple(data["instance"]), data["round"], data["owner"])
            seen = data["observed"]
            expect = written.get(key)
            if seen is not None and seen != expect:
                return {"ok": False,
                        "detail": f"read at {key} observed {seen}, last write {expect}"}
    return {"ok": True, "detail": "single-writer cells consistent with event order"}


def _audit_quorums(trace: RunTrace) -> dict:
    bad = []
    for kind, tick, pid, data in trace.events:
        if kind == "note" and data.get("kind") == "quorum":
            if data["mode"] == "exact" and data["used"] != data["required"]:
                bad.append((pid, data))
            if data["mode"] == "at_least" and data["used"] < data["required"]:
                bad.append((pid, data))
    if bad:
        return {"ok": False, "detail": f"{len(bad)} bad quorum records: {bad[:3]}"}
    return {"ok": True, "detail": "quorum sizes match their modes"}


def _audit_stale(trace: RunTrace) -> dict:
    for kind, tick, pid, data in trace.events:
        if kind == "note" and data.get("kind") == "quorum":
            tags = data.get("sender_tags", [])
            want = data.get("iteration")
            for tag_iter in tags:
                if tag_iter != want:
                    return {"ok": False,
                            "detail": f"pid {pid} consumed a round-{tag_iter} message "
                                      f"in iteration {want}"}
    return {"ok": True, "detail": "no cross-iteration message consumption"}


def _audit_monotone(trace: RunTrace) -> dict:
    reached: dict[int, set[int]] = {}
    for (pid, t) in trace.snapshots:
        reached.setdefault(t, set()).add(pid)
    ts = sorted(reached)
    for earlier, later in zip(ts, ts[1:]):
        if later != earlier + 1:
            continue
        if not reached[later] <= reached[earlier]:
            extra = reached[later] - reached[earlier]
            return {"ok": False,
                    "detail": f"processes {extra} reached iteration {later} "
                              f"without completing {earlier}"}
    return {"ok": True, "detail": "participant sets shrink monotonically"}


def _audit_witness(trace: RunTrace) -> dict:
    if not trace.witness.enabled or not trace.output_witness:
        return {"ok": True, "detail": "no witnesses recorded"}
    for pid, node in trace.output_witness.items():
        if node < 0:
            continue
        replayed = trace.witness.replay(node)
        if replayed.tobytes() != trace.outputs[pid].tobytes():
            return {"ok": False, "detail": f"witness replay mismatch for process {pid}"}
    return {"ok": True, "detail": "all output witnesses replay bit-exactly"}


def _audit_equal_outputs(trace: RunTrace) -> dict:
    blobs = {v.tobytes() for v in trace.outputs.values()}
    if len(blobs) > 1:
        return {"ok": False, "detail": f"{len(blobs)} distinct outputs"}
    return {"ok": True, "detail": "all outputs bit-identical"}


def _audit_asynchrony(trace: RunTrace) -> dict:
    current: dict[int, int] = {}
    for kind, tick, pid, data in trace.events:
        if kind == "iter":
            current[pid] = data["iteration"]
            if len(set(current.values())) > 1:
                return {"ok": True,
                        "detail": f"processes at different iterations at tick {tick}"}
    return {"ok": False, "detail": "no two processes were ever at different iterations"}

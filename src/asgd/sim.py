"""Event-level simulator for cluster-based asynchronous algorithms.

The unit of execution is one scheduler event: a register write, a register
read, a message delivery, a wait wake-up, or a local step. Process programs
are generators that yield effect objects; the kernel picks uniformly at
random (from a seeded schedule stream) among all enabled events, so every
interleaving of the fine-grained steps is reachable.

Model notes:

- Within a cluster, processes communicate through single-writer multi-reader
  register banks. A ``Write`` names no owner, so a process writes only its
  own cell; a double write or a non-member's write is a ``RegisterViolation``.
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
schedule, so no optimisation may reorder them. The draws, these and each
delay's ``integers(1, max_delay + 1)``, take the values numpy's
``Generator.integers`` gives, in the same order from the same stream;
``_schedule_draws`` computes them in Python ints from the stream's raw
words, read in blocks, because numpy's per-call cost dominates a scalar
draw.

The runnable set ({READY} plus {BLOCKED whose wait holds}) is maintained
incrementally, not rebuilt per event. It changes only when a step blocks,
outputs, finishes or crashes its process, when a crash is applied, and when
a delivery on a blocked receiver's wait tag satisfies the wait;
``WaitClusters`` reads a per-(receiver, tag) set of sender clusters kept up
to date by each delivery. With ``record_events=False`` no event record is
built at all (no payload digests, no tag copies).

A message carries the index of its ``send`` record in the event log (-1
when not recording), and its ``deliver``, ``drop`` and ``defer`` records
log that index as ``m`` instead of repeating the send's sender, tag and
payload.

The event log is the trace. Each event is logged as the dict that its
trace line writes: ``k``, ``t`` and ``p`` and the log site's data, with a
payload or value logged as its digest ``h``. So the log keeps no array
alive; an array lives only as long as the run's own state (an inbox, a
register bank, the round values) holds it. ``RunTrace.to_jsonl`` writes
each record as ``json.dumps(record, sort_keys=True)`` does.

``run`` keeps the cyclic garbage collector off for the length of a run and
leaves it as the caller had it. A run makes no reference cycles, so
reference counting frees everything it discards, and the collector would
only scan the growing event log again and again: a record that holds a
list (a tag, an instance, a scope or a note's data) is tracked, while a
``deliver``, ``drop``, ``defer``, ``iter``, ``output`` or ``crash`` record
holds only ints and strings and is not. tests/test_sim.py checks, on the
benchmark's event workloads and on every event scenario, that a collection
right after a run finds nothing.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator, Optional

import numpy as np

# ---------------------------------------------------------------------------
# Static configuration types
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Invalid configuration.

    A config class's own check names a field relative to the class (empty
    for a check on the class as a whole); the scenario loader prefixes it
    with the section's key. A check across sections names the full
    scenario key.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
        self.message = message


@dataclass(frozen=True)
class Topology:
    """Process count and its partition into disjoint clusters."""

    n: int
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", f"must be >= 1, got {self.n}")
        seen = []
        for c in self.clusters:
            if len(c) == 0:
                raise ConfigError("clusters", "empty cluster")
            seen.extend(c)
        if sorted(seen) != list(range(self.n)):
            raise ConfigError(
                "clusters", f"must partition 0..{self.n - 1}, got {self.clusters}")
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

    def cluster_quorum(self, requested: int | None) -> int:
        """The cluster quorum a run uses: `requested`, or a majority of
        clusters when none is set."""
        return self.majority_quorum() if requested is None else requested


@dataclass(frozen=True)
class CrashSpec:
    """Crash one process, triggered by global event count or by iteration."""

    pid: int
    after_events: int | None = None
    at_iteration: int | None = None

    def __post_init__(self):
        if (self.after_events is None) == (self.at_iteration is None):
            raise ConfigError("", "exactly one of after_events / at_iteration required")


@dataclass(frozen=True)
class PartitionSpec:
    """Split of the processes into two sides; cross messages are deferred.

    The split must follow cluster boundaries (no cluster straddles it).
    """

    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    from_event: int = 0


@dataclass(frozen=True)
class FaultPlan:
    crashes: tuple[CrashSpec, ...] = ()
    partition: PartitionSpec | None = None

    def validate_against(self, topology: Topology) -> list[str]:
        """Hard errors raise ConfigError; returns a list of progress warnings."""
        warnings = []
        crashed_pids = set()
        for i, c in enumerate(self.crashes):
            if c.pid in crashed_pids:
                raise ConfigError(f"faults.crashes[{i}].pid", f"duplicate pid {c.pid}")
            if not 0 <= c.pid < topology.n:
                raise ConfigError(f"faults.crashes[{i}].pid",
                                  f"must be in [0, {topology.n - 1}], got {c.pid}")
            crashed_pids.add(c.pid)
        if self.partition is not None:
            a, b = set(self.partition.side_a), set(self.partition.side_b)
            if a & b or (a | b) != set(range(topology.n)):
                raise ConfigError("faults.partition", "sides must partition the processes")
            for members in topology.clusters:
                ms = set(members)
                if ms & a and ms & b:
                    raise ConfigError("faults.partition",
                                      f"cluster {members} straddles the partition")
        dead_clusters = sum(
            1 for members in topology.clusters if set(members) <= crashed_pids
        )
        if dead_clusters > (topology.m - 1) // 2:
            warnings.append(
                "crash plan can kill {} full clusters; cluster-majority progress "
                "is not guaranteed".format(dead_clusters)
            )
        return warnings


@dataclass(frozen=True)
class Schedule:
    """Delay law and run budget for the event kernel."""

    max_delay: int = 4
    event_budget: int = 10_000_000

    def __post_init__(self):
        if self.max_delay < 1:
            raise ConfigError("max_delay", "must be >= 1")
        if self.max_delay >= 2 ** 63:
            raise ConfigError("max_delay", "must be < 2^63, the bound of the int64 delay draw")
        if self.event_budget < 1:
            raise ConfigError("event_budget", "must be >= 1")


# ---------------------------------------------------------------------------
# Seeded stream derivation (the single implementation shared by all drivers)
#
# Stream c of a run seeded with `entropy` is numpy's
# Generator(PCG64(SeedSequence(entropy).spawn(k)[c])). seed_streams derives
# those streams for many seeds at once: SeedSequence's hash mixing and its
# generate_state(4, uint64) run in numpy uint32 arithmetic over every
# (seed, child) row of a block, and each PCG64 seeds itself from its row
# through numpy's ISeedSequence interface, so no SeedSequence object is
# built. tests/test_sim.py holds the streams bitwise to numpy's own.
# ---------------------------------------------------------------------------

_POOL_WORDS = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = (1 << 32) - 1
_BLOCK_ROWS = 1024  # (seed, child) rows derived per block


def _entropy_words(entropy) -> list[int]:
    """SeedSequence's entropy coercion: an int becomes its 32-bit words, low
    word first (0 is one word); a sequence concatenates its items' words."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
        return words
    if isinstance(entropy, (str, bytes, float, np.inexact)):
        raise TypeError(f"seed entropy must be an int or a sequence of ints, got {entropy!r}")
    return [w for item in entropy for w in _entropy_words(item)]


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of `count` hashmix calls."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int, m: int) -> np.ndarray:
    """Hashmix calls k..k+m-1, one per row of the result; `values`, (m, R) or
    (R,), broadcasts to (m, R)."""
    values = (values ^ consts[k:k + m, None]) * consts[k + 1:k + m + 1, None]
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """(R, 4) uint64: SeedSequence(...).generate_state(4, uint64) for each
    column of assembled entropy (L, R) uint32, which is the run entropy
    padded to the pool, then the spawn key.

    Pool words that one step of SeedSequence's mixing updates independently
    are updated together; the hash constants, which depend only on the
    number of hashmix calls made before, are precomputed.
    """
    width = entropy.shape[0]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_WORDS ** 2 + _POOL_WORDS * (width - _POOL_WORDS))
    pool = _hashmix(entropy[:_POOL_WORDS], consts, 0, _POOL_WORDS)
    k = _POOL_WORDS
    for i_src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != i_src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[i_src], consts, k, len(dst)))
        k += len(dst)
    for i_src in range(_POOL_WORDS, width):
        pool = _mix(pool, _hashmix(entropy[i_src], consts, k, _POOL_WORDS))
        k += _POOL_WORDS
    # generate_state(8 uint32 words) cycles over the pool with its own constants
    state = _hashmix(pool[np.arange(8) % _POOL_WORDS], _hash_consts(_INIT_B, _MULT_B, 8), 0, 8)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _derived_seed_class():
    # deferred: importing numpy.random takes about 9 ms, which a process
    # that never draws (a config error, `asgd --help`) should not pay
    from numpy.random.bit_generator import ISeedSequence

    class DerivedSeed(ISeedSequence):
        """One stream's PCG64 seed words, already derived by _pcg64_seeds."""

        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a derived seed holds only PCG64's four uint64 words")
            return self._words

    return DerivedSeed


def seed_streams(entropy, children, seeds=None) -> Iterator[list[np.random.Generator]]:
    """Yield a list of one Generator per child in `children`, the stream of
    that child of SeedSequence(entropy).spawn: once, or for each seed index s
    in the sequence `seeds` (each below 2^32), of SeedSequence([*entropy, s]).

    Seeds are derived a block at a time, never all at once.
    """
    prefix = _entropy_words(entropy)
    children = list(children)
    derived_seed = _derived_seed_class()
    per_block = max(1, _BLOCK_ROWS // max(1, len(children)))
    if seeds is None:
        blocks = [[prefix]]
    else:
        blocks = ([prefix + _entropy_words(s) for s in seeds[start:start + per_block]]
                  for start in range(0, len(seeds), per_block))
    for block in blocks:
        run_words = len(block[0])
        if seeds is not None and any(len(words) != len(prefix) + 1 for words in block):
            raise ValueError("seed indices must be below 2^32")
        width = max(run_words, _POOL_WORDS)  # run entropy padded to the pool
        cols = np.zeros((width + 1, len(block), len(children)), dtype=np.uint32)
        cols[:run_words] = np.array(block, dtype=np.uint32).T[:, :, None]
        cols[width] = children  # the spawn key
        words = _pcg64_seeds(cols.reshape(width + 1, -1)).reshape(len(block), len(children), 4)
        for seed_words in words:
            yield [np.random.Generator(np.random.PCG64(derived_seed(w))) for w in seed_words]


@dataclass
class RunStreams:
    schedule: np.random.Generator
    tau: np.random.Generator
    processes: list[np.random.Generator]


def derive_streams(entropy, n: int) -> RunStreams:
    """Per-run streams: child 0 schedule, child 1 tau, children 2..n+1 per pid."""
    schedule, tau, *processes = next(seed_streams(entropy, range(n + 2)))
    return RunStreams(schedule=schedule, tau=tau, processes=processes)


_U32 = 0xFFFF_FFFF
_U64 = 0xFFFF_FFFF_FFFF_FFFF


def _schedule_draws(generator: np.random.Generator, block: int = 512):
    """Return draw(n) -> int, the value of int(generator.integers(n)) for
    1 <= n <= 2^63, call after call, from the generator's PCG64 stream.

    A scalar `integers` call costs about 3 us, nearly all call overhead
    (timeit, 2-vCPU Xeon VM, numpy 2.4); this takes the stream's raw
    64-bit words `block` at a time and applies numpy's bounded-integer rule
    to them in Python ints, about 0.5 us a draw. For the range rng = n - 1:

    - rng = 0 draws nothing;
    - rng < 2^32 - 1 is Lemire's method on uint32 halves, which are handed
      out low half first, the high half held for the next one, as PCG64's
      next_uint32 does;
    - rng = 2^32 - 1 takes one uint32 half as it is;
    - a larger rng is Lemire's method on whole words, which leaves a held
      half where it is.

    It starts from the half the generator may already hold. The generator
    itself must not be drawn from once this has begun.
    """
    bitgen = generator.bit_generator
    state = bitgen.state
    held = state["uinteger"] if state["has_uint32"] else None
    words = iter(())

    def next_word() -> int:
        nonlocal words
        word = next(words, None)
        if word is None:
            words = iter(bitgen.random_raw(block).tolist())
            word = next(words)
        return word

    def next_half() -> int:
        nonlocal held
        if held is None:
            word = next_word()
            held = word >> 32
            return word & _U32
        half, held = held, None
        return half

    def draw(n: int) -> int:
        nonlocal held
        rng = n - 1
        if rng < _U32:
            if not rng:
                return 0
            # next_half() inlined: this is the path of every event choice
            if held is None:
                word = next_word()
                held = word >> 32
                m = (word & _U32) * n
            else:
                m = held * n
                held = None
            if (m & _U32) < n:
                threshold = (_U32 - rng) % n
                while (m & _U32) < threshold:
                    m = next_half() * n
            return m >> 32
        if rng == _U32:
            return next_half()
        m = next_word() * n
        if (m & _U64) < n:
            threshold = (_U64 - rng) % n
            while (m & _U64) < threshold:
                m = next_word() * n
        return m >> 64

    return draw


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
    """Start of an iteration; carries the entering iterate for the event log."""

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
    """Write by a non-member or double write; always a hard failure."""


class RegisterBank:
    """Single-writer multi-reader cells keyed by (round_index, owner pid)."""

    def __init__(self, instance: tuple, owners: tuple[int, ...]):
        self.instance = instance
        self.owners = frozenset(owners)
        self.cells: dict[tuple[int, int], Any] = {}

    def write(self, round_index: int, owner: int, payload) -> None:
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

TRACE_FORMAT_VERSION = 2
# The trace's JSON dialect: the bytes of json.dumps(..., sort_keys=True).
# A trace record is a tree of the kernel's own log data, so the
# circular-reference check is off; a circular record still fails, with
# RecursionError instead of ValueError.
_TRACE_JSON = json.JSONEncoder(sort_keys=True, check_circular=False)


# _encode_trace_line(rec) writes _TRACE_JSON.encode(rec)'s bytes for a trace
# line. With the _json accelerator it calls the C encoder that encode builds
# on every call (about a quarter of encode's cost on a trace line), built
# once with the arguments encode passes, so the same call writes the same
# bytes; with no markers it holds no state between calls. Without the
# accelerator it is _TRACE_JSON.encode.
if c_make_encoder is None:
    _encode_trace_line = _TRACE_JSON.encode
else:
    _trace_writer = c_make_encoder(
        None, _TRACE_JSON.default, encode_basestring_ascii, _TRACE_JSON.indent,
        _TRACE_JSON.key_separator, _TRACE_JSON.item_separator,
        _TRACE_JSON.sort_keys, _TRACE_JSON.skipkeys, _TRACE_JSON.allow_nan)

    def _encode_trace_line(rec) -> str:
        return "".join(_trace_writer(rec, 0))


def _digest(value) -> str:
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()[:12]
    if isinstance(value, tuple):
        return "+".join(_digest(v) for v in value)
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


@dataclass
class WitnessRecorder:
    """Append-only DAG of midpoint operations behind every agreement output,
    and the only reader of its nodes.

    Node kinds: ("input", bytes) and ("mid", parent_a, parent_b); parents
    always precede their children. _values holds replay's values of
    nodes[:len(_values)].
    """

    nodes: list[tuple] = field(default_factory=list)
    enabled: bool = True
    _values: list[np.ndarray] = field(default_factory=list, init=False, repr=False, compare=False)

    def input(self, value: np.ndarray) -> int:
        if not self.enabled:
            return -1
        self.nodes.append(("input", value.tobytes()))
        return len(self.nodes) - 1

    def mid(self, a: int, b: int) -> int:
        if not self.enabled:
            return -1
        self.nodes.append(("mid", a, b))
        return len(self.nodes) - 1

    def replay(self, idx: int) -> np.ndarray:
        """Recompute the value at a node with the same float op order.

        Nodes are evaluated in ascending index order, one float op each, and
        kept: the DAG only grows, so a later replay starts where the last one
        stopped. Returns a copy, never the kept array.
        """
        values = self._values
        for node in self.nodes[len(values):idx + 1]:
            if node[0] == "input":
                values.append(np.frombuffer(node[1], dtype=np.float64).copy())
            else:
                values.append((values[node[1]] + values[node[2]]) / 2.0)
        return values[idx].copy()

    def coefficients(self, node: int) -> dict[int, Fraction]:
        """Exact dyadic weights of the input nodes reachable from `node`:
        nonnegative and summing to one, they certify its value as a convex
        combination of inputs. One descending sweep; a pending weight is an
        integer numerator over 2^D, D the longest path from `node`, and each
        input's weight becomes a Fraction once, at the end."""
        pending: dict[int, tuple[int, int]] = {node: (1, 0)}
        coeffs: dict[int, Fraction] = {}
        for idx in range(node, -1, -1):
            weight = pending.pop(idx, None)
            if weight is None:
                continue
            record = self.nodes[idx]
            if record[0] == "input":
                coeffs[idx] = Fraction(weight[0], 1 << weight[1])
                continue
            num, depth = weight[0], weight[1] + 1  # each parent gets half
            for parent in record[1:3]:
                held_num, held_depth = pending.get(parent, (0, depth))
                top = max(held_depth, depth)
                pending[parent] = ((held_num << (top - held_depth)) + (num << (top - depth)), top)
        return coeffs


@dataclass
class RunTrace:
    """Everything observable about one run."""

    config_digest: str
    n: int
    events: list[dict]  # the trace line records, in event order
    outputs: dict[int, np.ndarray]
    participants: dict[int, set[int]]  # [iteration] -> pids that reached it
    round_values: dict[tuple, dict[int, dict[int, np.ndarray]]]  # [scope][round][pid]
    witness: WitnessRecorder
    output_witness: dict[int, int]
    counters: dict[str, int]
    liveness: dict
    warnings: list[str]
    tau: int | None = None

    def to_jsonl(self) -> str:
        """Line-delimited export; deterministic bytes for a deterministic run.

        Every line is json.dumps(record, sort_keys=True): a header, one line
        per event record, and a trailer. A record holds k, t, p and its log
        site's data, a payload or value as its digest h. A deliver, drop or
        defer record's m is the 0-based index of its send among the event
        lines (line m + 2 of the export), whose p, tag and h are the
        message's sender, tag and payload digest; a defer also names its
        receiver.
        """
        encode = _encode_trace_line
        lines = [encode({
            "format": "asgd-trace",
            "version": TRACE_FORMAT_VERSION,
            "config": self.config_digest,
            "n": self.n,
            "tau": self.tau,
        })]
        lines.extend(map(encode, self.events))
        trailer = {
            "outputs": {str(p): _digest(v) for p, v in sorted(self.outputs.items())},
            "liveness": self.liveness,
            "counters": dict(sorted(self.counters.items())),
        }
        lines.append(encode(trailer))
        return "\n".join(lines) + "\n"


def _config_value(value):
    """json.dumps fallback: a config dataclass is written as {field: value}
    over all its fields, an Enum as its value."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"{type(value).__name__} is not a config value")


def config_digest_of(payload) -> str:
    """Digest of `payload` as canonical JSON; config objects inside it are
    written field by field (see `_config_value`)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":"),
                   default=_config_value).encode()
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


def _collector_paused(fn):
    """`fn` run with the cyclic garbage collector off; the collector is left
    on again only if it was on when the call began, on every exit path."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
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
        "topology": topology,
        "faults": fault_plan,
        "schedule": schedule,
        "algorithm": algorithm,
        "oracle": oracle_spec,
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

    trace_events: list[dict] = []
    participants: dict[int, set[int]] = {}
    round_values: dict[tuple, dict[int, dict[int, np.ndarray]]] = {}
    outputs: dict[int, np.ndarray] = {}
    output_witness: dict[int, int] = {}
    counters = {
        "events": 0, "sends": 0, "deliveries": 0, "drops": 0, "deferred": 0,
        "register_writes": 0, "register_reads": 0, "wakeups": 0,
    }

    # the only reader of the schedule stream
    draw = _schedule_draws(streams.schedule)
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
    # record builds no event record at all. The record is the trace line's:
    # the site's data with the kind, tick and pid set on it.
    def log(_kind: str, _pid: int | None, **rec):
        rec["k"], rec["t"], rec["p"] = _kind, tick, _pid
        trace_events.append(rec)

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

    # only a partition defers a message, so its caller tests `deferred` first
    def both_sides_done() -> bool:
        return all(st.status not in (READY, BLOCKED) for st in procs)

    def apply_crash(pid: int, why: str):
        procs[pid].status = CRASHED
        if pid in runnable:
            runnable.remove(pid)
        if record_events:
            log("crash", pid, trigger=why)

    # a message is (sender, receiver, tag, payload, m): m is the index of its
    # send record in trace_events, -1 when not recording
    def deliver(msg):
        sender, receiver, tag, payload, m = msg
        st = procs[receiver]
        if st.status in (DONE, CRASHED):
            counters["drops"] += 1
            if record_events:
                log("drop", receiver, m=m)
            return
        held = inboxes[receiver].get(tag)
        if held is None:
            held = inboxes[receiver][tag] = []
            sender_clusters[receiver][tag] = set()
        held.append((sender, payload))
        sender_clusters[receiver][tag].add(topology.cluster_of(sender))
        counters["deliveries"] += 1
        if record_events:
            log("deliver", receiver, m=m)
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
                if counters["events"] >= threshold \
                        and procs[pid].status not in (DONE, CRASHED):
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
            # a READY process is runnable, so every pending one is BLOCKED
            liveness = {
                "ok": False, "kind": "blocked",
                "blocked": [{"pid": i, "wait": type(procs[i].wait).__name__,
                             "tag": list(procs[i].wait.tag)} for i in pending],
            }
            break

        choice = draw(enabled_count)
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

        # reads first: a register stage does about two per write
        if isinstance(effect, Read):
            bank = bank_for(effect.instance, pid)
            st.feed = bank.read(effect.round_index, effect.owner)
            counters["register_reads"] += 1
            if record_events:
                log("read", pid, instance=list(effect.instance),
                    round=effect.round_index, owner=effect.owner,
                    observed=_digest(st.feed) if st.feed is not None else None)
        elif isinstance(effect, Write):
            bank = bank_for(effect.instance, pid)
            bank.write(effect.round_index, pid, effect.payload)
            counters["register_writes"] += 1
            if record_events:
                log("write", pid, instance=list(effect.instance),
                    round=effect.round_index, h=_digest(effect.payload))
        elif isinstance(effect, Broadcast):
            # synchronous self-delivery, delayed delivery to everyone else
            m = -1
            if record_events:
                m = len(trace_events)
                log("send", pid, tag=list(effect.tag), h=_digest(effect.payload))
            counters["sends"] += topology.n
            deliver((pid, pid, effect.tag, effect.payload, m))
            for other in range(topology.n):
                if other == pid:
                    continue
                msg = (pid, other, effect.tag, effect.payload, m)
                if partition_blocks(pid, other):
                    deferred.append(msg)
                    counters["deferred"] += 1
                    if record_events:
                        log("defer", pid, receiver=other, m=m)
                    continue
                delay = 1 + draw(schedule.max_delay)
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
            participants.setdefault(effect.iteration, set()).add(pid)
            if record_events:
                log("iter", pid, iteration=effect.iteration, h=_digest(effect.value))
            if crash_by_iter.get(pid) == effect.iteration:
                apply_crash(pid, f"at_iteration={effect.iteration}")
        elif isinstance(effect, RoundMark):
            by_round = round_values.setdefault(effect.scope, {})
            by_round.setdefault(effect.round_index, {})[pid] = effect.value
            if record_events:
                log("round", pid, scope=list(effect.scope), round=effect.round_index,
                    h=_digest(effect.value))
        elif isinstance(effect, Note):
            if record_events:
                log("note", pid, kind=effect.kind, **effect.data)
        elif isinstance(effect, Output):
            outputs[pid] = effect.value
            if effect.witness_node >= 0:  # a disabled recorder gives -1
                output_witness[pid] = effect.witness_node
            st.status = DONE
            runnable.remove(pid)
            if record_events:
                log("output", pid, h=_digest(effect.value))
            if deferred and both_sides_done():
                ready_msgs.extend(deferred)
                deferred.clear()
        else:
            raise TypeError(f"unknown effect {effect!r}")
        tick += 1

    # A run is only complete if every non-crashed process produced output.
    if liveness["ok"]:
        missing = [i for i, st in enumerate(procs)
                   if st.status != CRASHED and i not in outputs]
        if missing:
            liveness = {"ok": False, "kind": "incomplete", "missing": missing}

    return RunTrace(
        config_digest=digest,
        n=topology.n,
        events=trace_events,
        outputs=outputs,
        participants=participants,
        round_values=round_values,
        witness=witness,
        output_witness=output_witness,
        counters=counters,
        liveness=liveness,
        warnings=warnings,
        tau=tau,
    )


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def audit(trace: RunTrace, properties: list[str] | None = None) -> dict[str, dict]:
    """Check structural invariants against the recorded event log.

    Available properties: the keys of AUDITS, all of them by default.
    """
    names = properties if properties is not None else list(AUDITS)
    report = {}
    for name in names:
        if name not in AUDITS:
            raise KeyError(f"unknown audit property {name!r}")
        report[name] = AUDITS[name](trace)
    return report


def _audit_registers(trace: RunTrace) -> dict:
    written: dict[tuple, str] = {}
    for rec in trace.events:
        kind = rec["k"]
        if kind == "write":
            key = (tuple(rec["instance"]), rec["round"], rec["p"])
            if key in written:
                return {"ok": False, "detail": f"double write at {key}"}
            written[key] = rec["h"]
        elif kind == "read":
            key = (tuple(rec["instance"]), rec["round"], rec["owner"])
            seen = rec["observed"]
            expect = written.get(key)
            if seen is not None and seen != expect:
                return {"ok": False,
                        "detail": f"read at {key} observed {seen}, last write {expect}"}
    return {"ok": True, "detail": "single-writer cells consistent with event order"}


def _quorum_wakes(trace: RunTrace):
    """(pid, note, wake) for each quorum note record: the wake record of the
    wait the kernel last resumed its process from, None when no wake has
    come since that process's previous quorum note."""
    woken: dict[int, dict] = {}
    for rec in trace.events:
        kind = rec["k"]
        if kind == "wake":
            woken[rec["p"]] = rec
        elif kind == "note" and rec["kind"] == "quorum":
            yield rec["p"], rec, woken.pop(rec["p"], None)


def _audit_quorums(trace: RunTrace) -> dict:
    bad = []
    for pid, note, wake in _quorum_wakes(trace):
        used, required = note["used"], note["required"]
        if wake is None:
            ok = False
        elif note["mode"] == "exact":  # the first N of those held
            ok = used == required <= wake["held"]
        else:  # every one held
            ok = required <= used == wake["held"]
        if not ok:
            bad.append((pid, note, wake))
    if bad:
        return {"ok": False, "detail": f"{len(bad)} bad quorum records: {bad[:3]}"}
    return {"ok": True, "detail": "quorum sizes match their modes"}


def _audit_stale(trace: RunTrace) -> dict:
    for pid, note, wake in _quorum_wakes(trace):
        if wake is None or wake["tag"][1] != note["iteration"]:
            return {"ok": False, "detail": f"pid {pid}'s iteration-{note['iteration']} "
                                           f"quorum resumed from wake {wake}"}
    return {"ok": True, "detail": "no cross-iteration message consumption"}


def _audit_monotone(trace: RunTrace) -> dict:
    reached = trace.participants
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
    if not trace.output_witness:
        return {"ok": True, "detail": "no witnesses recorded"}
    for pid, node in trace.output_witness.items():
        replayed = trace.witness.replay(node)
        if replayed.tobytes() != trace.outputs[pid].tobytes():
            return {"ok": False, "detail": f"witness replay mismatch for process {pid}"}
    return {"ok": True, "detail": "all output witnesses replay bit-exactly"}


def _audit_asynchrony(trace: RunTrace) -> dict:
    current: dict[int, int] = {}
    for rec in trace.events:
        if rec["k"] == "iter":
            current[rec["p"]] = rec["iteration"]
            if len(set(current.values())) > 1:
                return {"ok": True,
                        "detail": f"processes at different iterations at tick {rec['t']}"}
    return {"ok": False, "detail": "no two processes were ever at different iterations"}


# the trace audits by property name, in report order
AUDITS = {
    "register_semantics": _audit_registers,
    "quorum_composition": _audit_quorums,
    "stale_filtering": _audit_stale,
    "participant_monotone": _audit_monotone,
    "witness_replay": _audit_witness,
    "asynchrony_coverage": _audit_asynchrony,
}

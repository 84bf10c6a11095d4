"""Vectorized ensemble driver: many seeded replicas of one scenario at once.

The event kernel in asgd.sim explores interleavings one register operation
at a time, which is what the agreement, liveness, and audit checks need, but
it is far too slow for rate sweeps over hundreds of seeds. This driver runs
the same two algorithms at round granularity with numpy arrays shaped
(seeds, processes, dim), sampling the adversary's choices per iteration and
per agreement round instead of per event.

The schedule family it samples is a strict subset of the kernel's legal
schedules:

- quorums are resolved at round granularity ("random": the process's own
  message plus a uniform sample of the others; "split": fixed disjoint
  blocks of N processes that only ever hear each other, the worst case the
  averaging analysis allows);
- the shared-memory agreement stage inside a two-process cluster is reduced
  to its reachable outcomes. Per stage, writer order makes each member
  either see both cells or only its own, and seeing both is guaranteed for
  at least one member, so a stage keeps one member's value and averages
  the other's, or averages both. The composed map of a whole stage sequence
  is therefore a pair of weights (w0, w1): member i's new value is
  w_i * v0 + (1 - w_i) * v1. Each stage halves at most once, so after j
  stages every weight is a multiple of 2^-j in [0, 1]; up to 53 stages the
  weights and their complements are exact floats (the midpoint-of-extremes
  stage has 14). With approach-extreme's 73 stages this still holds unless
  the first 53 stages of a map all skip the both-see-both outcome, which has
  probability (2/3)^53 < 5e-10 per map: once both members average, the two
  weights are equal and stay equal;
- cluster members receive identical message sets during the exchange
  rounds, and a partition is applied at iteration granularity
  (PartitionSpec.from_event is read as the first affected iteration).

Per-seed noise and tau come from sim.derive_streams([seed_root, s], n), the
same derivation the event kernel uses, so a replica here and an event run
with master seed [seed_root, s] consume identical gradient noise. That is
what makes the bit-exact cross-driver tests possible on configurations
whose quorums are schedule-independent (n = N). The adversary's own draws
come from one shared stream (child [seed_root, BATCH_SCHEDULE_TAG]).

The agreement rounds of one iteration run in cluster layout: values are
held as (seeds, clusters, members, dim) from the first round to the last,
a round's exchange gathers whole clusters by flat row index, and the result
is scattered back to process order once per iteration. After a
midpoint-of-extremes round every member holds its cluster's aggregate, so
the member axis collapses to 1 until the next stage map expands it.

Restrictions, enforced at entry: no crash plans (use the event driver), and
the non-convex agreement stage supports uniform cluster sizes of 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sim
from .maa import STAGE_TARGET, AggregationRule, required_rounds
from .oracle import OracleSpec, clamp, grad
from .sgd import ConfigError, SgdConfig, Variant, validate_config
from .vecmath import batched_approach_extreme, batched_mid_extremes

# Reserved child index for the ensemble-wide adversary stream; member seeds
# are [seed_root, s] for s < seeds, kept far below this tag.
BATCH_SCHEDULE_TAG = 2 ** 31 - 7

# Reachable one-stage maps of the two-member shared-memory stage, rows =
# (new value of member 0, new value of member 1) as weights over the pair.
# _compose_sm_maps draws indices into this table and composes them in the
# weight-pair form.
_SM_PATTERNS = np.array([
    [[0.5, 0.5], [0.5, 0.5]],  # both members collected both cells
    [[1.0, 0.0], [0.5, 0.5]],  # member 0 collected only its own cell
    [[0.5, 0.5], [0.0, 1.0]],  # member 1 collected only its own cell
])


@dataclass(frozen=True)
class BatchOptions:
    seeds: int
    seed_root: int
    quorum_policy: str = "random"  # "random" | "split"
    partition: sim.PartitionSpec | None = None
    record_series: bool = True

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError("batch.seeds", "must be >= 1")
        if self.seeds >= BATCH_SCHEDULE_TAG:
            raise ConfigError("batch.seeds", "exceeds the reserved stream tag")
        if self.quorum_policy not in ("random", "split"):
            raise ConfigError("batch.quorum_policy",
                              f"must be 'random' or 'split', got {self.quorum_policy!r}")

    def to_jsonable(self) -> dict:
        return {
            "seeds": self.seeds, "seed_root": self.seed_root,
            "quorum_policy": self.quorum_policy,
            "partition": self.partition.to_jsonable() if self.partition else None,
        }


@dataclass
class BatchResult:
    outputs: np.ndarray  # (S, n, d): x_{T+1} (strongly convex) or x_tau
    finals: np.ndarray   # (S, n, d): x_{T+1} always
    taus: np.ndarray | None
    series: dict[str, np.ndarray]
    config_digest: str
    warnings: list[str]


def _predraw_noise(n: int, dim: int, iterations: int, options: BatchOptions,
                   want_tau: bool):
    noise = np.empty((options.seeds, n, iterations, dim))
    taus = np.empty(options.seeds, dtype=np.int64) if want_tau else None
    for s in range(options.seeds):
        streams = sim.derive_streams([options.seed_root, s], n)
        for p in range(n):
            noise[s, p] = streams.processes[p].standard_normal((iterations, dim))
        if want_tau:
            taus[s] = streams.tau.integers(1, iterations + 1)
    return noise, taus


def _side_mask(units: int, unit_side: np.ndarray | None):
    """allowed[i, j]: may unit i use unit j's message (True off partition)."""
    if unit_side is None:
        return np.ones((units, units), dtype=bool)
    return unit_side[:, None] == unit_side[None, :]


def _sample_quorums(rng: np.random.Generator, seeds: int, allowed: np.ndarray,
                    count: int) -> np.ndarray:
    """(seeds, units, count) unit indices: self first, rest uniform; sorted."""
    units = allowed.shape[0]
    if (allowed.sum(axis=1) < count).any():
        raise ConfigError("quorum", f"fewer than {count} reachable units for some receiver")
    keys = rng.random((seeds, units, units))
    diag = np.arange(units)
    keys[:, diag, diag] = -1.0  # own message always arrives first
    keys[:, ~allowed] = np.inf
    idx = np.argsort(keys, axis=2)[:, :, :count]
    return np.sort(idx, axis=2)


def _split_quorums(n: int, count: int, proc_side: np.ndarray | None) -> np.ndarray:
    if n % count:
        raise ConfigError("batch.quorum_policy",
                          f"split policy needs quorum {count} to divide n = {n}")
    groups = np.arange(n) // count
    if proc_side is not None:
        for g in range(n // count):
            if len(set(proc_side[groups == g])) > 1:
                raise ConfigError("batch.quorum_policy",
                                  "split block straddles the partition")
    idx = (groups[:, None] * count) + np.arange(count)[None, :]
    return idx  # (n, count), already ascending


def _sequential_mean(gathered: np.ndarray) -> np.ndarray:
    """Mean over axis -2 summed strictly left to right, one division.

    Mirrors the event driver's ascending-sender accumulation so the
    schedule-independent configurations agree bitwise.
    """
    count = gathered.shape[-2]
    total = gathered[..., 0, :].copy()
    for j in range(1, count):
        total += gathered[..., j, :]
    return total / count


def _compose_sm_maps(rng: np.random.Generator, seeds: int, clusters: int,
                     rounds_outer: int, rounds_sm: int) -> np.ndarray:
    """(rounds_outer, seeds, clusters, 2) composed shared-memory stages.

    Entry [..., i] is member i's weight on member 0's entering value; its
    weight on member 1 is one minus that. A stage's pick indexes
    _SM_PATTERNS: every pattern keeps a member's row or averages the two, so
    one stage is the average of the two weights and a choice per member.
    """
    picks = rng.integers(0, 3, size=(seeds, clusters, rounds_outer, rounds_sm),
                         dtype=np.int8)
    picks = np.ascontiguousarray(picks.transpose(3, 2, 0, 1))  # stage first
    w0 = np.ones((rounds_outer, seeds, clusters))
    w1 = np.zeros((rounds_outer, seeds, clusters))
    for pick in picks:
        avg = (w0 + w1) * 0.5
        w0 = np.where(pick == 1, w0, avg)
        w1 = np.where(pick == 2, w1, avg)
    return np.stack([w0, w1], axis=-1)


def _proc_sides(topology: sim.Topology, options: BatchOptions):
    if options.partition is None:
        return None, None, None
    side = np.zeros(topology.n, dtype=np.int64)
    side[list(options.partition.side_b)] = 1
    cluster_side = np.array([side[members[0]] for members in
                             [sorted(c) for c in topology.clusters]])
    start = max(1, options.partition.from_event)
    return side, cluster_side, start


def run_ensemble(topology: sim.Topology, algorithm: SgdConfig,
                 oracle_spec: OracleSpec, options: BatchOptions) -> BatchResult:
    if not isinstance(algorithm, SgdConfig):
        raise ConfigError("algorithm", "the batch driver runs SgdConfig scenarios only")
    warnings = validate_config(algorithm, topology,
                               sim.FaultPlan(partition=options.partition),
                               oracle_spec)

    digest = sim.config_digest_of({
        "driver": "batch",
        "topology": topology.to_jsonable(),
        "algorithm": algorithm.to_jsonable(),
        "oracle": sim._oracle_jsonable(oracle_spec),
        "options": options.to_jsonable(),
    })
    sched_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([options.seed_root, BATCH_SCHEDULE_TAG])))

    if algorithm.variant is Variant.STRONGLY_CONVEX:
        result = _run_strongly_convex(topology, algorithm, oracle_spec, options,
                                      sched_rng, digest)
    else:
        result = _run_non_convex(topology, algorithm, oracle_spec, options,
                                 sched_rng, digest)
    result.warnings.extend(warnings)
    return result


def _series_store(record: bool, iterations: int, seeds: int):
    if not record:
        return {}
    return {
        "diam_sq": np.zeros((iterations + 1, seeds)),
        "grad_norm_sq": np.zeros((iterations, seeds)),
    }


def _record_head(series, t, X, spec):
    if not series:
        return
    diffs = X[:, :, None, :] - X[:, None, :, :]
    d2 = np.einsum("sijd,sijd->sij", diffs, diffs)
    series["diam_sq"][t - 1] = d2.max(axis=(1, 2))
    if t <= series["grad_norm_sq"].shape[0]:
        g = grad(spec, X)
        series["grad_norm_sq"][t - 1] = np.einsum("spd,spd->sp", g, g).mean(axis=1)


def _run_strongly_convex(topology, conf, spec, options, sched_rng, digest):
    S, n, d, T = options.seeds, topology.n, spec.dim, conf.iterations
    noise, _ = _predraw_noise(n, d, T, options, want_tau=False)
    proc_side, _, part_start = _proc_sides(topology, options)

    split_idx = None
    if options.quorum_policy == "split":
        split_idx = _split_quorums(n, conf.quorum, proc_side)
    open_allowed = _side_mask(n, None)
    cut_allowed = _side_mask(n, proc_side)

    X = np.broadcast_to(np.asarray(conf.x1, dtype=np.float64), (S, n, d)).copy()
    series = _series_store(options.record_series, T, S)
    rows = np.arange(S)[:, None, None]
    for t in range(1, T + 1):
        _record_head(series, t, X, spec)
        G = grad(spec, X) + noise[:, :, t - 1] * spec.noise_scale
        y = X - conf.lr.eta(t) * G
        if split_idx is not None:
            gathered = y[rows, np.broadcast_to(split_idx, (S, n, conf.quorum))]
        else:
            allowed = open_allowed
            if part_start is not None and t >= part_start:
                allowed = cut_allowed
            idx = _sample_quorums(sched_rng, S, allowed, conf.quorum)
            gathered = y[rows, idx]
        X = _sequential_mean(gathered)
    if series:
        _record_head(series, T + 1, X, spec)
    return BatchResult(outputs=X, finals=X, taus=None, series=series,
                       config_digest=digest, warnings=[])


def _cluster_table(topology: sim.Topology):
    members = [tuple(sorted(c)) for c in topology.clusters]
    sizes = {len(c) for c in members}
    if len(sizes) > 1 or max(sizes) > 2:
        raise ConfigError(
            "topology.clusters",
            "the batch driver supports the agreement stage for uniform "
            "cluster sizes of 1 or 2; use the event driver otherwise")
    return np.array(members), sizes.pop()  # (m, k) pids, k


def _run_non_convex(topology, conf, spec, options, sched_rng, digest):
    S, n, d, T = options.seeds, topology.n, spec.dim, conf.iterations
    m = topology.m
    members, k = _cluster_table(topology)
    quorum_clusters = conf.cluster_quorum
    if quorum_clusters is None:
        quorum_clusters = topology.majority_quorum()
    if options.quorum_policy == "split" and conf.quorum != n:
        raise ConfigError("batch.quorum_policy",
                          "split policy is defined for the strongly convex variant")

    if conf.tau_override is not None:
        noise, _ = _predraw_noise(n, d, T, options, want_tau=False)
        taus = np.full(S, conf.tau_override, dtype=np.int64)
    else:
        noise, taus = _predraw_noise(n, d, T, options, want_tau=True)
    proc_side, cluster_side, part_start = _proc_sides(topology, options)
    open_proc = _side_mask(n, None)
    cut_proc = _side_mask(n, proc_side)
    open_cluster = _side_mask(m, None)
    cut_cluster = _side_mask(m, cluster_side)

    sm_rounds = required_rounds(STAGE_TARGET[conf.maa_rule], conf.maa_rule, "shared")

    X = np.broadcast_to(np.asarray(conf.x1, dtype=np.float64), (S, n, d)).copy()
    outputs = np.empty_like(X)
    series = _series_store(options.record_series, T, S)
    rows = np.arange(S)[:, None, None]
    # flat row of (seed, cluster) in a (S * m, k * d) view of the cluster layout
    seed_base = (np.arange(S) * m)[None, :, None, None]
    diag = np.arange(m)
    for t in range(1, T + 1):
        _record_head(series, t, X, spec)
        captured = taus == t
        if captured.any():
            outputs[captured] = X[captured]

        cut = part_start is not None and t >= part_start
        allowed_p = cut_proc if cut else open_proc
        allowed_c = cut_cluster if cut else open_cluster

        G = grad(spec, X) + noise[:, :, t - 1] * spec.noise_scale
        idx = _sample_quorums(sched_rng, S, allowed_p, conf.quorum)
        g = _sequential_mean(G[rows, idx])
        eta = conf.lr.eta(t)
        y = X - eta * g

        rounds = required_rounds(conf.q_at(t), conf.maa_rule, "cluster")
        if rounds == 0:
            X = clamp(spec, y)
            continue
        if k == 2:
            # each member's weights on member 0's and member 1's value
            on0 = _compose_sm_maps(sched_rng, S, m, rounds, sm_rounds)[..., None]
            on1 = 1.0 - on0
        ex_keys = sched_rng.random((S, rounds, m, m))
        ex_keys[:, :, diag, diag] = -1.0
        ex_keys[:, :, ~allowed_c] = np.inf
        if (allowed_c.sum(axis=1) < quorum_clusters).any():
            raise ConfigError("algorithm.cluster_quorum",
                              f"fewer than {quorum_clusters} reachable clusters")
        ex_idx = np.sort(np.argsort(ex_keys, axis=3)[:, :, :, :quorum_clusters], axis=3)
        ex_rows = (ex_idx.transpose(1, 0, 2, 3) + seed_base).reshape(rounds, -1)

        V = y[:, members]  # (S, m, k, d); after mid_extremes (S, m, 1, d)
        for r in range(rounds):
            if k == 2:
                V = on0[r] * V[:, :, :1] + on1[r] * V[:, :, -1:]
            held = V.reshape(S * m, k * d)[ex_rows[r]].reshape(S * m, -1, d)
            if conf.maa_rule is AggregationRule.MID_EXTREMES:
                V = batched_mid_extremes(held).reshape(S, m, 1, d)
            else:
                V = batched_approach_extreme(np.repeat(held, k, axis=0),
                                             V.reshape(S * m * k, d)).reshape(S, m, k, d)
        X = np.empty_like(y)
        X[:, members] = V
        X = clamp(spec, X)
    _record_head(series, T + 1, X, spec)
    return BatchResult(outputs=outputs, finals=X, taus=taus, series=series,
                       config_digest=digest, warnings=[])

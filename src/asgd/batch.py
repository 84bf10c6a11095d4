"""Vectorized ensemble driver: many seeded replicas of one scenario at once.

The event kernel in asgd.sim explores interleavings one register operation
at a time, which is what the agreement, liveness, and audit checks need, but
it is far too slow for rate sweeps over hundreds of seeds. This driver runs
the same two algorithms at round granularity on numpy arrays over (seeds,
processes, dim), sampling the adversary's choices per iteration and per
agreement round instead of per event.

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
  w_i * v0 + (1 - w_i) * v1. Until the first stage where both members
  average, each stage moves one end of the interval [w1, w0] to its
  midpoint; that stage sets both weights to the midpoint, and they stay
  equal. So the pair follows in closed form from where that stage falls and
  which ends the stages before it moved (_compose_picks), with no stage
  loop. Every weight is a multiple of 2^-53 in [0, 1], an exact float with
  an exact complement, unless a map's first 53 stages all skip the
  both-average outcome. Only approach-extreme's 73 stages allow that (the
  midpoint-of-extremes stage has 14), with probability (2/3)^53 < 5e-10 per
  map, and then the call composes stage by stage;
- cluster members receive identical message sets during the exchange
  rounds, and a partition is applied at iteration granularity:
  PartitionSpec.from_event is read as the first cut iteration, and from
  then on each process, and each cluster by its members' side, hears only
  its own side. Neither driver ever delivers a message across the cut.

Per-seed noise and tau come from sim.seed_streams(seed_root, children,
range(seeds)), the bulk derivation the event kernel's sim.derive_streams
also runs on, so a replica here and an event run with master seed
[seed_root, s] consume identical gradient noise, and both drivers average
a quorum with one shared kernel (_sequential_mean runs sgd's
_sum_then_divide). That is what makes the bit-exact cross-driver tests
possible on configurations whose quorums are schedule-independent (n = N).
Only the process children and, when wanted, the tau child are derived,
never the schedule child, and the noise is held time-major in the
iterate's layout, (T, d, n, S).
The adversary's own draws come from one shared stream
(SeedSequence([seed_root, BATCH_SCHEDULE_TAG])).

The iterate is held coordinate-major, X of shape (dim, processes, seeds),
from the first iteration to the last, so each ufunc of an iteration runs
over rows of processes * seeds; BatchResult gets (seeds, processes, dim)
copies once, at the end. The gradient is the oracle's elementwise formula
on the transposed view, which keeps X's memory layout. The series row
takes the diameter coordinate-major (vecmath.diameter_sq with axis=0) and
averages each seed's gradient norms from a contiguous (seeds, processes)
array, as the point-major loop did, so the row keeps its bits.

The agreement rounds of one iteration run coordinate-major too: V is held as
(dim, members, seeds * clusters), one column per (seed, cluster), from the
first round to the last, so each ufunc of a round runs over rows of seeds *
clusters. An iteration's stage maps are (rounds, 2, seeds, clusters), so a
round's map is a pair of (members, seeds * clusters) weight rows by reshape,
broadcast over the coordinates; a round's exchange is one np.take of V's
columns into the held sets (dim, partners * members, seeds * clusters),
partner-major; the result goes back to process order once per iteration.
After a midpoint-of-extremes round every member holds its cluster's
aggregate, so the member axis collapses to 1 until the next stage map
expands it.

Both quorum levels, a process's N senders each iteration and a cluster's
exchange partners each round, are the `count` lowest of one uniform key
per (receiver, sender), drawn by _quorum_keys (the receiver's own key is
-1, a sender it may not hear is inf) and picked by _lowest. _lowest marks
the keys not above each row's count-th lowest and reads the marked
positions with np.flatnonzero, which lists them row-major, so each quorum
comes out ascending with no index sort. A row of at most six keys marks
the keys with fewer than `count` keys strictly below them, by one
comparison pass per key; a longer row sorts its values (not indices) for
the cut. The marks are the same: a NaN key is below none and has none
below it, and a row with fewer than `count` keys that are not NaN is
marked whole. A tie at the cut marks more than `count` keys in some row;
only then does the call fall back to a stable argsort, so a tie goes to
the lowest sender on every machine. A process quorum's
values are gathered sender-major by one np.take of columns of a (dim,
processes * seeds) view, into (dim, N, processes * seeds), so the mean
adds whole rows, sender by sender.

Both variants run one iteration loop in run_ensemble. Its head is shared:
the gradient, the series row, the tau capture, the noise and the process
quorum draw. The strongly convex tail averages the stepped iterates
X - eta * G over the quorum; the non-convex tail averages the gradients,
steps, and runs the agreement rounds. The tails stay inline, keep each
temporary (y, g, V) bound until the next iteration rebinds it, drop the
round tables (stage weights, exchange columns) at the end of their
iteration, and compute the convex step before the quorum draw. Keep that
order: when large temporaries are allocated and freed decides when glibc
gives heap back to the system, and so a fresh process's page faults and
peak RSS, which perfbench's one-run children measure. (Adding the noise to
G in place, one allocation fewer, tripled batch-quorum's first-run faults.)

Of a fault plan the driver takes only a partition (crash plans need the
event kernel). Restriction, enforced at entry: the non-convex agreement
stage supports uniform cluster sizes of 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sgd, sim
from .maa import STAGE_TARGET, AggregationRule, required_rounds
from .oracle import OracleSpec, clamp, grad
from .sgd import SgdConfig, Variant, _sum_then_divide
from .sim import ConfigError
from .vecmath import _sq, batched_approach_extreme, batched_mid_extremes, diameter_sq

# Reserved child index for the ensemble-wide adversary stream; member seeds
# are [seed_root, s] for s < seeds, kept far below this tag.
BATCH_SCHEDULE_TAG = 2 ** 31 - 7

# Seeds whose noise _predraw_noise draws before one transposed copy
_NOISE_BLOCK = 16

@dataclass(frozen=True)
class BatchOptions:
    """A scenario's `run` section less run.driver. Both drivers read seeds
    and seed_root; quorum_policy and record_series are the batch driver's."""

    seeds: int = 1
    seed_root: int = 0
    quorum_policy: str = "random"  # "random" | "split"
    record_series: bool = True

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError("seeds", "must be >= 1")
        if self.seeds >= BATCH_SCHEDULE_TAG:
            raise ConfigError("seeds", "exceeds the reserved stream tag")
        if self.seed_root < 0:
            raise ConfigError("seed_root", "must be >= 0")
        if self.quorum_policy not in ("random", "split"):
            raise ConfigError("quorum_policy",
                              f"must be 'random' or 'split', got {self.quorum_policy!r}")


@dataclass
class BatchResult:
    outputs: np.ndarray  # (S, n, d): x_{T+1} (strongly convex) or x_tau
    finals: np.ndarray   # (S, n, d): x_{T+1} always
    taus: np.ndarray | None
    series: dict[str, np.ndarray]
    warnings: list[str]


def _predraw_noise(n: int, dim: int, iterations: int, options: BatchOptions,
                   want_tau: bool):
    """Noise (T, d, n, S) in the iterate's coordinate-major layout, time-major
    so that iteration t reads noise[t - 1] whole, and taus (S,) when wanted;
    the schedule child is never derived. Each stream draws its (T, d) block
    in one call; a block of seeds is then copied into place at once."""
    seeds = options.seeds
    noise = np.empty((iterations, dim, n, seeds))
    taus = np.empty(seeds, dtype=np.int64) if want_tau else None
    block = min(seeds, _NOISE_BLOCK)
    buf = np.empty((block, n, iterations, dim))  # a block of seeds' draws, process-major
    children = [*range(2, n + 2), 1] if want_tau else range(2, n + 2)
    streams = sim.seed_streams(options.seed_root, children, range(seeds))
    for s, rngs in enumerate(streams):
        row = s % block
        for rng, out in zip(rngs, buf[row]):
            rng.standard_normal(out=out)
        if want_tau:
            taus[s] = rngs[n].integers(1, iterations + 1)
        if row == block - 1 or s == seeds - 1:
            noise[..., s - row:s + 1] = buf[:row + 1].transpose(2, 3, 1, 0)
    return noise, taus


def _partition(topology: sim.Topology, partition: sim.PartitionSpec | None,
               iterations: int):
    """(first cut iteration, process sides): PartitionSpec.from_event read as
    an iteration, side 1 for side_b. Without a partition every process is on
    side 0 and the cut starts after the last iteration."""
    side = np.zeros(topology.n, dtype=np.int64)
    if partition is None:
        return iterations + 1, side
    side[list(partition.side_b)] = 1
    return max(1, partition.from_event), side


def _side_masks(unit_side: np.ndarray):
    """(open, cut) masks, indexed by whether the cut is on; allowed[i, j]:
    may unit i use unit j's message."""
    units = unit_side.size
    return (np.ones((units, units), dtype=bool),
            unit_side[:, None] == unit_side[None, :])


def _require_reachable(allowed: np.ndarray, count: int, key: str, units: str) -> None:
    """Raise unless every receiver may hear at least `count` units."""
    if (allowed.sum(axis=1) < count).any():
        raise ConfigError(key, f"fewer than {count} reachable {units}")


def _count_marks(keys: np.ndarray, count: int) -> np.ndarray:
    """Keys with fewer than `count` keys of their row strictly below them."""
    below = np.zeros(keys.shape, dtype=np.uint8)
    less = np.empty(keys.shape, dtype=bool)
    for j in range(keys.shape[-1]):
        np.less(keys[..., j:j + 1], keys, out=less)
        below += less
    return below < count


def _lowest(keys: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the `count` lowest keys of each last-axis row,
    bitwise np.sort(np.argsort(keys, axis=-1, kind="stable")[..., :count], -1).

    Every row has at least `count` keys not above its count-th lowest (a NaN
    cut marks the whole row), so exactly rows * count marked keys means
    exactly `count` in every row, and then they are the argsort's first
    `count` whatever its order among them. Otherwise (a tie at the cut) the
    call runs that stable argsort: the default one's order among equal keys
    depends on the sort numpy dispatches for the CPU.
    """
    units = keys.shape[-1]
    rows = keys.size // units
    if units <= 6:  # counting pays up to six keys a row (BENCH_16.json)
        marked = _count_marks(keys, count)
    else:  # cut keeps the sort alive to the end; freeing it early tripled page faults
        cut = np.sort(keys, axis=-1)[..., count - 1:count]
        marked = keys > cut
        np.logical_not(marked, out=marked)
    pos = np.flatnonzero(marked)
    if pos.size != rows * count:  # a tie at the cut
        return np.sort(np.argsort(keys, axis=-1, kind="stable")[..., :count], axis=-1)
    pos = pos.reshape(rows, count) - np.arange(0, rows * units, units)[:, None]
    return pos.reshape(keys.shape[:-1] + (count,))


def _quorum_keys(rng: np.random.Generator, lead: tuple[int, ...],
                 allowed: np.ndarray) -> np.ndarray:
    """lead + (units, units) uniform keys, one per (receiver, sender): -1 for
    the receiver itself, whose own message always arrives first, and inf for
    a sender it may not hear."""
    units = allowed.shape[0]
    keys = rng.random(lead + (units, units))
    diag = np.arange(units)
    keys[..., diag, diag] = -1.0
    keys[..., ~allowed] = np.inf
    return keys


def _sample_quorums(rng: np.random.Generator, seeds: int, allowed: np.ndarray,
                    count: int) -> np.ndarray:
    """(seeds, units, count) unit indices: self first, rest uniform; sorted.
    The caller has checked that `count` units are reachable."""
    return _lowest(_quorum_keys(rng, (seeds,), allowed), count)


def _split_quorums(n: int, count: int, proc_side: np.ndarray) -> np.ndarray:
    if n % count:
        raise ConfigError("run.quorum_policy",
                          f"split policy needs quorum {count} to divide n = {n}")
    blocks = proc_side.reshape(n // count, count)
    if (blocks != blocks[:, :1]).any():
        raise ConfigError("run.quorum_policy", "split block straddles the partition")
    groups = np.arange(n) // count
    idx = (groups[:, None] * count) + np.arange(count)[None, :]
    return idx  # (n, count), already ascending


def _sequential_mean(gathered: np.ndarray) -> np.ndarray:
    """Mean over axis -2 summed strictly left to right, one division: the
    event driver's own averaging kernel, sgd._sum_then_divide, run over that
    axis, so the schedule-independent configurations agree bitwise."""
    return _sum_then_divide(np.moveaxis(gathered, -2, 0))


def _compose_sm_maps(rng: np.random.Generator, seeds: int, clusters: int,
                     rounds_outer: int, rounds_sm: int) -> np.ndarray:
    """(rounds_outer, 2, seeds, clusters) composed shared-memory stages.

    Entry [:, i] is member i's weight on member 0's entering value; its
    weight on member 1 is one minus that. A stage picks one of three
    outcomes: 0, both members collected both cells and take the average;
    1 or 2, member 0 or member 1 collected only its own cell and keeps its
    value while the other takes the average. The picks are one int8 draw
    of (seeds, clusters, rounds_outer, rounds_sm). _compose_picks reads each
    map in closed form from where its first pick 0 falls, and composes the
    whole call stage by stage only if some map has none in its first 53
    stages, which needs rounds_sm > 53.
    """
    picks = rng.integers(0, 3, size=(seeds, clusters, rounds_outer, rounds_sm),
                         dtype=np.int8)
    picks = np.ascontiguousarray(picks.transpose(3, 2, 0, 1))  # stage first
    return _compose_picks(picks)


# After this many halvings a weight in [0, 1] is a multiple of 2^-53, the
# finest that is still an exact float.
_EXACT_STAGES = 53


def _compose_picks(picks: np.ndarray) -> np.ndarray:
    """Weight pairs of stage-first picks (stages, rows, ...), bitwise those
    of _compose_stage_loop, with the pair axis after the rows: (rows, 2, ...).

    With z stages before the first pick 0, picks 1 and 2 each halve the
    interval [w1, w0] = [0, 1] from below or from above, so w1 is
    lo = sum of 2^-(s+1) over the stages s < z that pick 1 and w0 is
    lo + 2^-z. Pick 0 then sets both to lo + 2^-(z+1), and later stages
    average equal weights, which is exact. Each of these values is exact
    when z <= 52, or when no stage picks 0 and there are at most 53
    stages, and then so is every value of the stage loop. Otherwise, which
    needs more than 53 stages, the whole call falls back to the loop.
    """
    stages, shape = picks.shape[0], picks.shape[1:]
    exact = min(stages, _EXACT_STAGES)
    alive = np.ones(shape, dtype=bool)  # no pick 0 yet
    z = np.zeros(shape, dtype=np.int8)
    low = np.zeros(shape)  # lo * 2^exact, an integer below 2^53
    lower = np.empty(shape, dtype=bool)
    for pick in picks[:exact]:
        np.logical_and(alive, pick, out=alive)
        z += alive
        np.equal(pick, 1, out=lower)
        lower &= alive
        low += low
        low += lower
    if stages > _EXACT_STAGES and (z == _EXACT_STAGES).any():
        return _compose_stage_loop(picks)
    averaged = z < exact  # some stage picked 0; else z == stages
    up = -1 - z  # both weights end at lo + 2^up
    maps = np.empty(shape[:1] + (2,) + shape[1:])
    np.ldexp(1.0, up + ~averaged, out=maps[:, 0])  # else w0 = lo + 2^-z
    np.ldexp(1.0, up, out=maps[:, 1])
    maps[:, 1] *= averaged  # else w1 = lo
    low *= 2.0 ** -exact
    maps += low[:, None]
    return maps


def _compose_stage_loop(picks: np.ndarray) -> np.ndarray:
    """_compose_picks one stage at a time: a stage averages the two weights
    and each member keeps its own or takes the average."""
    w0 = np.ones(picks.shape[1:])
    w1 = np.zeros(picks.shape[1:])
    for pick in picks:
        avg = (w0 + w1) * 0.5
        w0 = np.where(pick == 1, w0, avg)
        w1 = np.where(pick == 2, w1, avg)
    return np.stack([w0, w1], axis=1)


def _series_store(record: bool, iterations: int, seeds: int):
    if not record:
        return {}
    return {
        "diam_sq": np.zeros((iterations + 1, seeds)),
        "grad_norm_sq": np.zeros((iterations, seeds)),
    }


def _record_head(series, t, X, g):
    """Record iteration t's diameter and, for t <= T, the gradient norm of
    g = grad(spec, X), which the caller computes once for its own step;
    X and g are coordinate-major, (d, n, S)."""
    if not series:
        return
    series["diam_sq"][t - 1] = diameter_sq(X, axis=0)
    if t <= series["grad_norm_sq"].shape[0]:
        # each seed's n norms contiguous, so that the mean sums them as it always has
        norms = np.ascontiguousarray(_sq(g, 0.0, axis=0).T)
        series["grad_norm_sq"][t - 1] = norms.mean(axis=1)


def _cluster_table(topology: sim.Topology):
    members = [topology.members_of(c[0]) for c in topology.clusters]  # sorted
    sizes = {len(c) for c in members}
    if len(sizes) > 1 or max(sizes) > 2:
        raise ConfigError(
            "topology.clusters",
            "the batch driver supports the agreement stage for uniform "
            "cluster sizes of 1 or 2; use the event driver otherwise")
    return np.array(members), sizes.pop()  # (m, k) pids, k


def run_ensemble(topology: sim.Topology, algorithm: SgdConfig,
                 oracle_spec: OracleSpec, options: BatchOptions,
                 partition: sim.PartitionSpec | None = None) -> BatchResult:
    if not isinstance(algorithm, SgdConfig):
        raise ConfigError("run.driver", "the batch driver only runs sgd algorithms")
    warnings = sgd.validate_config(algorithm, topology, sim.FaultPlan(partition=partition),
                                   oracle_spec)
    sched_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([options.seed_root, BATCH_SCHEDULE_TAG])))
    conf, spec = algorithm, oracle_spec
    S, n, d, T, m = options.seeds, topology.n, spec.dim, conf.iterations, topology.m
    convex = conf.variant is Variant.STRONGLY_CONVEX
    if not convex:
        members, k = _cluster_table(topology)
        quorum_clusters = topology.cluster_quorum(conf.cluster_quorum)
        if options.quorum_policy == "split" and conf.quorum != n:
            raise ConfigError("run.quorum_policy",
                              "split policy is defined for the strongly convex variant")

    start, proc_side = _partition(topology, partition, T)
    split_idx = None
    if convex and options.quorum_policy == "split":
        split_idx = _split_quorums(n, conf.quorum, proc_side)
    allowed = _side_masks(proc_side)
    if split_idx is None and start <= T:
        _require_reachable(allowed[True], conf.quorum, "algorithm.quorum",
                           "units for some receiver")
    if not convex:
        allowed_c = _side_masks(proc_side[members[:, 0]])
        if start <= T and any(required_rounds(conf.q_at(t), conf.maa_rule, "cluster")
                              for t in range(start, T + 1)):  # an exchange runs cut
            _require_reachable(allowed_c[True], quorum_clusters,
                               "algorithm.cluster_quorum", "clusters")
        sm_rounds = required_rounds(STAGE_TARGET[conf.maa_rule], conf.maa_rule, "shared")

    noise, taus = _predraw_noise(n, d, T, options,
                                 want_tau=not convex and conf.tau is None)
    if not convex and conf.tau is not None:
        taus = np.full(S, conf.tau, dtype=np.int64)

    X = np.broadcast_to(np.asarray(conf.x1, dtype=np.float64)[:, None, None], (d, n, S)).copy()
    series = _series_store(options.record_series, T, S)
    # column of each (sender, process, seed) of a quorum in a (d, n * S) view
    cols = np.empty((conf.quorum, n, S), dtype=np.intp)
    senders = cols.reshape(conf.quorum, -1)  # one row of n * S columns per sender
    seed_col = np.arange(S)
    if split_idx is not None:
        np.add(split_idx.T[:, :, None] * S, seed_col, out=cols)
    if not convex:
        outputs = np.empty_like(X)
        SM = S * m  # one column per (seed, cluster), seed-major
        # column of (member, seed, cluster 0) in a (d, k * SM) view of V
        col_base = np.arange(0, k * SM, SM)[:, None, None] + np.arange(0, SM, m)[:, None]
    for t in range(1, T + 1):
        G = grad(spec, X.T).T  # elementwise, so it keeps X's memory layout
        _record_head(series, t, X, G)
        if taus is not None:
            captured = taus == t
            if captured.any():
                outputs[..., captured] = X[..., captured]
        cut = t >= start
        G = G + noise[t - 1] * spec.noise_scale
        if convex:  # y before the quorum keys (see the module docstring)
            y = X - conf.lr.eta(t) * G
        if split_idx is None:
            idx = _sample_quorums(sched_rng, S, allowed[cut], conf.quorum)
            np.multiply(idx.transpose(2, 1, 0), S, out=cols)
            cols += seed_col

        if convex:  # average the stepped iterates
            X = _sequential_mean(y.reshape(d, -1).take(senders, axis=1)).reshape(d, n, S)
            continue
        # average the gradients, step, then agree
        g = _sequential_mean(G.reshape(d, -1).take(senders, axis=1)).reshape(d, n, S)
        y = X - conf.lr.eta(t) * g
        rounds = required_rounds(conf.q_at(t), conf.maa_rule, "cluster")
        if rounds == 0:
            X = clamp(spec, y)
            continue
        if k == 2:
            # each member's weights on member 0's and member 1's value, (k, SM) a round
            W0 = _compose_sm_maps(sched_rng, S, m, rounds, sm_rounds).reshape(rounds, k, SM)
            W1 = 1.0 - W0
        ex_idx = _lowest(_quorum_keys(sched_rng, (S, rounds), allowed_c[cut]),
                        quorum_clusters)
        # a round's (partner, member) columns of each held set, (partners * k, SM)
        ex_cols = np.empty((rounds, quorum_clusters, k, S, m), dtype=np.intp)
        np.add(ex_idx.transpose(1, 3, 0, 2)[:, :, None], col_base, out=ex_cols)
        ex_cols = ex_cols.reshape(rounds, -1, SM)

        V = y[:, members].transpose(0, 2, 3, 1).reshape(d, k, SM)  # after mid_extremes (d, 1, SM)
        for r in range(rounds):
            if k == 2:
                V = W0[r] * V[:, :1] + W1[r] * V[:, -1:]
            held = V.reshape(d, -1).take(ex_cols[r], axis=1)
            if conf.maa_rule is AggregationRule.MID_EXTREMES:
                V = batched_mid_extremes(held)[:, None]
            else:
                V = batched_approach_extreme(held, V)
        ex_cols = W0 = W1 = None  # kept to the next iteration, +1.4 MB batch-agree peak RSS
        X = np.empty_like(y)
        X[:, members] = V.reshape(d, -1, S, m).transpose(0, 3, 1, 2)
        X = clamp(spec, X)
    _record_head(series, T + 1, X, None)
    finals = np.ascontiguousarray(X.T)  # (S, n, d)
    return BatchResult(outputs=finals if convex else np.ascontiguousarray(outputs.T),
                       finals=finals, taus=taus, series=series, warnings=warnings)

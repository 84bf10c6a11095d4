"""Multidimensional approximate agreement on top of the event simulator.

Two layers:

- ``smmaa_subroutine``: the shared-memory stage run inside one cluster.
  Each process writes its value to its own cell of a fresh single-writer
  register bank, then for a fixed number of rounds collects every written
  cell of the current round, aggregates, and writes the result to the next
  round's cell. Because every process writes round r before reading round r,
  all collected sets contain the first-written round-r value, which is what
  drives the per-round contraction (7/8 for midpoint-of-extremes, 31/32 for
  approach-extreme).

- ``cluster_maa_subroutine``: the message-passing loop across clusters.
  Each round first tightens the cluster internally with the shared-memory
  stage (to 1/6 of the entering diameter for midpoint-of-extremes, 1/10 for
  approach-extreme), broadcasts the result, waits for messages from a quorum
  of distinct clusters (majority by default), and aggregates over everything
  held. Per-round system-wide contraction: 23/24 and 79/80 respectively.

Round counts are computed with exact rational arithmetic so they never
suffer from log rounding. Every aggregation also appends a node to the
witness DAG, so any output can be replayed bit-for-bit from the original
inputs and certified as a convex (dyadic) combination of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import sim
from .vecmath import as_point_set, extreme_pair, farthest_index


class AggregationRule(Enum):
    MID_EXTREMES = "mid_extremes"
    APPROACH_EXTREME = "approach_extreme"


SHARED_FACTOR = {
    AggregationRule.MID_EXTREMES: Fraction(7, 8),
    AggregationRule.APPROACH_EXTREME: Fraction(31, 32),
}
CLUSTER_FACTOR = {
    AggregationRule.MID_EXTREMES: Fraction(23, 24),
    AggregationRule.APPROACH_EXTREME: Fraction(79, 80),
}
# How far the shared-memory stage tightens the cluster before each exchange.
STAGE_TARGET = {
    AggregationRule.MID_EXTREMES: Fraction(1, 6),
    AggregationRule.APPROACH_EXTREME: Fraction(1, 10),
}


def required_rounds(q, rule: AggregationRule, level: str) -> int:
    """Smallest R with factor^R <= q, computed exactly.

    `level` is "shared" or "cluster"; `q` in (0, 1] is taken at the exact
    binary value of the float passed. Exact rationals avoid the classic
    failure of ceil(log(q)/log(factor)) landing on x.0000000000004.
    Results are memoised: a constant learning rate asks the same question
    every iteration.
    """
    # a plain function in front of the cache, so wrappers that expect one
    # (perfbench's tracer counts agreement rounds here) still apply
    return _required_rounds(q, rule, level)


@functools.lru_cache(maxsize=1024)
def _required_rounds(q, rule: AggregationRule, level: str) -> int:
    if isinstance(q, float) and not math.isfinite(q):
        raise ValueError(f"target q must be finite, got {q}")
    qf = Fraction(q)
    if not 0 < qf <= 1:
        raise ValueError(f"target q must be in (0, 1], got {q}")
    if level == "shared":
        factor = SHARED_FACTOR[rule]
    elif level == "cluster":
        factor = CLUSTER_FACTOR[rule]
    else:
        raise ValueError(f"level must be 'shared' or 'cluster', got {level!r}")
    rounds = 0
    cur = Fraction(1)
    while cur > qf:
        cur *= factor
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# Generator subroutines (composed into process programs via `yield from`)
# ---------------------------------------------------------------------------


def smmaa_subroutine(ctx, iteration: int, cluster_round: int, rounds: int,
                     value: np.ndarray, node: int, rule: AggregationRule,
                     mark: bool = True):
    """Shared-memory stage; returns (value, witness node).

    The register bank is keyed by (iteration, cluster round, cluster id) so
    each invocation is a fresh instance and clusters never collide.
    """
    instance = ("sm", iteration, cluster_round, ctx.cluster_id)
    members = ctx.cluster_members
    yield sim.Write(instance, 1, (value, node))
    for r in range(1, rounds + 1):
        if mark:
            yield sim.RoundMark(instance, r, value)
        collected = []
        for owner in members:
            payload = yield sim.Read(instance, r, owner)
            if payload is not None:
                collected.append(payload)
        vals = as_point_set([p[0] for p in collected])
        if rule is AggregationRule.MID_EXTREMES:
            i0, j0 = extreme_pair(vals)
            value = (vals[i0] + vals[j0]) / 2.0
            node = ctx.witness.mid(collected[i0][1], collected[j0][1])
        else:
            far = farthest_index(vals, value)
            value = (value + vals[far]) / 2.0
            node = ctx.witness.mid(node, collected[far][1])
        yield sim.Write(instance, r + 1, (value, node))
    if mark:
        yield sim.RoundMark(instance, rounds + 1, value)
    return value, node


def cluster_maa_subroutine(ctx, iteration: int, value: np.ndarray, node: int,
                           rule: AggregationRule, q, quorum: int,
                           mark: bool = True):
    """Cross-cluster agreement loop; returns (value, witness node)."""
    total_rounds = required_rounds(q, rule, "cluster")
    sm_rounds = required_rounds(STAGE_TARGET[rule], rule, "shared")
    scope = ("cmaa", iteration)
    for r in range(1, total_rounds + 1):
        if mark:
            yield sim.RoundMark(scope, r, value)
        value, node = yield from smmaa_subroutine(
            ctx, iteration, r, sm_rounds, value, node, rule, mark=mark)
        tag = ("agree", iteration, r)
        yield sim.Broadcast(tag, (value, node))
        held = yield sim.WaitClusters(tag, quorum)
        vals = as_point_set([payload[0] for _, payload in held])
        nodes = [payload[1] for _, payload in held]
        if rule is AggregationRule.MID_EXTREMES:
            i0, j0 = extreme_pair(vals)
            value = (vals[i0] + vals[j0]) / 2.0
            node = ctx.witness.mid(nodes[i0], nodes[j0])
        else:
            far = farthest_index(vals, value)
            value = (value + vals[far]) / 2.0
            node = ctx.witness.mid(node, nodes[far])
    if mark:
        yield sim.RoundMark(scope, total_rounds + 1, value)
    return value, node


# ---------------------------------------------------------------------------
# Agreement-only runs (no gradients), used by agreement acceptance checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaaOnlyConfig:
    """Run just the agreement machinery on fixed per-process inputs."""

    level: str  # "shared" | "cluster"
    rule: AggregationRule
    q: float
    inputs: tuple[tuple[float, ...], ...]
    cluster_quorum: int | None = None
    mark_rounds: bool = True

    def __post_init__(self):
        if self.level not in ("shared", "cluster"):
            raise ValueError(f"maa.level: must be 'shared' or 'cluster', got {self.level!r}")
        if not 0 < self.q <= 1:
            raise ValueError(f"maa.q: must be in (0, 1], got {self.q}")
        widths = {len(row) for row in self.inputs}
        if len(widths) != 1:
            raise ValueError("maa.inputs: rows must share one dimension")

    def to_jsonable(self) -> dict:
        return {
            "kind": "maa_only",
            "level": self.level,
            "rule": self.rule.value,
            "q": self.q,
            "inputs": [list(row) for row in self.inputs],
            "cluster_quorum": self.cluster_quorum,
            "mark_rounds": self.mark_rounds,
        }


def build_maa_only_programs(conf: MaaOnlyConfig, contexts) -> list:
    n = contexts[0].topology.n
    if len(conf.inputs) != n:
        raise ValueError(
            f"maa.inputs: {len(conf.inputs)} rows for {n} processes")

    def program(ctx):
        x = np.asarray(conf.inputs[ctx.pid], dtype=np.float64)
        node = ctx.witness.input(x)
        yield sim.IterMark(1, x)
        if conf.level == "shared":
            rounds = required_rounds(conf.q, conf.rule, "shared")
            x, node = yield from smmaa_subroutine(
                ctx, 1, 1, rounds, x, node, conf.rule, mark=conf.mark_rounds)
        else:
            quorum = conf.cluster_quorum
            if quorum is None:
                quorum = ctx.topology.majority_quorum()
            x, node = yield from cluster_maa_subroutine(
                ctx, 1, x, node, conf.rule, conf.q, quorum,
                mark=conf.mark_rounds)
        yield sim.Output(x, witness_node=node)

    return [program(ctx) for ctx in contexts]


# ---------------------------------------------------------------------------
# Witness inspection
# ---------------------------------------------------------------------------


def replay_output(trace: sim.RunTrace, pid: int) -> np.ndarray:
    """Recompute a process's output from its witness DAG, same op order."""
    node = trace.output_witness[pid]
    return trace.witness.replay(node)


def witness_coefficients(witness: sim.WitnessRecorder, node: int) -> dict[int, Fraction]:
    """Exact dyadic weights of the input nodes reachable from `node`.

    The weights certify the output as a convex combination of inputs: they
    are nonnegative and sum to one. Parents always have smaller indices than
    their children, so one descending sweep suffices.
    """
    pending: dict[int, Fraction] = {node: Fraction(1)}
    coeffs: dict[int, Fraction] = {}
    for idx in range(node, -1, -1):
        weight = pending.pop(idx, None)
        if weight is None:
            continue
        record = witness.nodes[idx]
        if record[0] == "input":
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + weight
        else:
            _, a, b = record
            pending[a] = pending.get(a, Fraction(0)) + weight / 2
            pending[b] = pending.get(b, Fraction(0)) + weight / 2
    return coeffs

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
inputs and certified as a convex (dyadic) combination of them
(sim.WitnessRecorder.replay and .coefficients).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import sim
from .vecmath import as_point_set, extreme_pair, farthest_index, picks_both

_F64 = np.dtype(np.float64)


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


def _aggregate(ctx, rule: AggregationRule, value: np.ndarray, node: int,
               payloads: list):
    """One aggregation step over (value, witness node) payloads; returns the
    new (value, witness node). Used by both agreement levels.

    Midpoint-of-extremes over one or two plain float64 vectors of one shape,
    the common case with clusters of two, is answered from the payloads
    themselves, bitwise as the general path; anything else goes through
    as_point_set, which coerces the values and rejects mixed dimensions.
    """
    if rule is AggregationRule.MID_EXTREMES and len(payloads) in (1, 2):
        a, na = payloads[0]
        if type(a) is np.ndarray and a.dtype == _F64 and a.ndim == 1:
            if len(payloads) == 1:
                return (a + a) / 2.0, ctx.witness.mid(na, na)
            b, nb = payloads[1]
            if type(b) is np.ndarray and b.dtype == _F64 and b.shape == a.shape:
                if picks_both(a.tolist(), b.tolist()):
                    return (a + b) / 2.0, ctx.witness.mid(na, nb)
                return (a + a) / 2.0, ctx.witness.mid(na, na)
    vals = as_point_set([p[0] for p in payloads])
    if rule is AggregationRule.MID_EXTREMES:
        i0, j0 = extreme_pair(vals)
        return ((vals[i0] + vals[j0]) / 2.0,
                ctx.witness.mid(payloads[i0][1], payloads[j0][1]))
    far = farthest_index(vals, value)
    return (value + vals[far]) / 2.0, ctx.witness.mid(node, payloads[far][1])


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
        value, node = _aggregate(ctx, rule, value, node, collected)
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
        value, node = _aggregate(ctx, rule, value, node,
                                 [payload for _, payload in held])
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
    q: float
    inputs: tuple[tuple[float, ...], ...]
    rule: AggregationRule = AggregationRule.MID_EXTREMES
    cluster_quorum: int | None = None
    mark_rounds: bool = True

    def __post_init__(self):
        if self.level not in ("shared", "cluster"):
            raise sim.ConfigError("level", f"must be 'shared' or 'cluster', got {self.level!r}")
        if not 0 < self.q <= 1:
            raise sim.ConfigError("q", f"must be in (0, 1], got {self.q}")
        widths = {len(row) for row in self.inputs}
        if len(widths) != 1:
            raise sim.ConfigError("inputs", "rows must share one dimension")

    def programs(self, contexts, tau_rng) -> tuple[list, None]:
        """One agreement program per process for the event kernel; no tau."""

        def program(ctx):
            x = np.asarray(self.inputs[ctx.pid], dtype=np.float64)
            node = ctx.witness.input(x)
            yield sim.IterMark(1, x)
            if self.level == "shared":
                rounds = required_rounds(self.q, self.rule, "shared")
                x, node = yield from smmaa_subroutine(
                    ctx, 1, 1, rounds, x, node, self.rule, mark=self.mark_rounds)
            else:
                quorum = ctx.topology.cluster_quorum(self.cluster_quorum)
                x, node = yield from cluster_maa_subroutine(
                    ctx, 1, x, node, self.rule, self.q, quorum,
                    mark=self.mark_rounds)
            yield sim.Output(x, witness_node=node)

        return [program(ctx) for ctx in contexts], None

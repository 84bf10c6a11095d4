"""The two cluster-based asynchronous SGD algorithms as simulator programs.

Strongly convex variant (quorum-averaged iterates):
    each iteration t: draw one stochastic gradient at x, step to
    y = x - eta_t * g, broadcast <t, y>, wait for exactly N round-t
    messages (first N by arrival; the process's own broadcast is delivered
    to itself synchronously, so it always counts), and set x_{t+1} to their
    average. Output x_{T+1}. Tolerates up to n - N crashes.

Non-convex variant (agreement-coupled gradient steps):
    each iteration t: broadcast the local stochastic gradient <t, g>,
    wait for at least N round-t gradients, average everything held,
    step to y = x - eta_t * g_avg, then run the cluster agreement loop
    to contract the y's to relative diameter q_t (eta_t / 4 by default)
    and clamp to the oracle's domain box. Output x_tau for a shared tau
    drawn uniformly from [1, T]; the value is captured entering iteration
    tau. Tolerates crashes of a minority of whole clusters.

Averaging, in both variants, sums in ascending sender order and divides
once, so any two processes averaging the same multiset get bit-identical
results. That rule is _sum_then_divide, the one kernel of both drivers:
batch._sequential_mean runs it over a stacked axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import maa, sim
from .oracle import OracleSpec, clamp, smoothness_constants, stochastic_grad
from .sim import ConfigError


class Variant(Enum):
    STRONGLY_CONVEX = "strongly_convex"
    NON_CONVEX = "non_convex"


@dataclass(frozen=True)
class LrSchedule:
    """Learning rate schedule: beta / (gamma + t), or a constant."""

    kind: str  # "decreasing" | "constant"
    beta: float = 0.0
    gamma: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind == "decreasing":
            if self.beta <= 0:
                raise ConfigError("beta", f"must be positive, got {self.beta}")
            if self.gamma < 0:
                raise ConfigError("gamma", f"must be nonnegative, got {self.gamma}")
        elif self.kind == "constant":
            if self.value <= 0:
                raise ConfigError("value", f"must be positive, got {self.value}")
        else:
            raise ConfigError("kind", f"must be 'decreasing' or 'constant', got {self.kind!r}")

    def eta(self, t: int) -> float:
        if self.kind == "decreasing":
            return self.beta / (self.gamma + t)
        return self.value

    def max_eta(self) -> float:
        return self.eta(1)


@dataclass(frozen=True)
class SgdConfig:
    variant: Variant
    iterations: int
    quorum: int
    x1: tuple[float, ...]
    lr: LrSchedule
    maa_rule: maa.AggregationRule = maa.AggregationRule.MID_EXTREMES
    agreement_q: str | float = "quarter_lr"  # "quarter_lr" or a fixed float
    cluster_quorum: int | None = None
    lr_check: str = "strict"  # "strict" | "warn"
    tau: int | None = None  # fixes the non-convex output iteration
    mark_rounds: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations", "must be >= 1")
        if self.quorum < 1:
            raise ConfigError("quorum", "must be >= 1")
        if self.lr_check not in ("strict", "warn"):
            raise ConfigError("lr_check", f"must be 'strict' or 'warn', got {self.lr_check!r}")
        if self.agreement_q != "quarter_lr":
            q = self.agreement_q
            if not isinstance(q, (int, float)) or not 0 < q <= 1:
                raise ConfigError("agreement_q",
                                  f"must be 'quarter_lr' or a float in (0, 1], got {q!r}")
        if self.tau is not None and not 1 <= self.tau <= self.iterations:
            raise ConfigError("tau", f"must be in [1, {self.iterations}]")

    def q_at(self, t: int) -> float:
        if self.agreement_q == "quarter_lr":
            return self.lr.eta(t) / 4.0
        return float(self.agreement_q)


def validate_config(config, topology: sim.Topology, fault_plan: sim.FaultPlan,
                    oracle_spec: OracleSpec) -> list[str]:
    """Hard errors raise ConfigError; theory-premise issues come back as warnings.

    The quorum bound N <= n - f is always a hard error: below it the wait can
    never be satisfied once the crashes land. Learning-rate bounds are hard
    under lr_check="strict" and warnings under "warn".
    """
    warnings = fault_plan.validate_against(topology)
    if isinstance(config, maa.MaaOnlyConfig):
        if len(config.inputs) != topology.n:
            raise ConfigError("algorithm.inputs",
                              f"{len(config.inputs)} rows for {topology.n} processes")
        return warnings + _cluster_quorum_warnings(config.cluster_quorum, topology)
    if not isinstance(config, SgdConfig):
        raise ConfigError("algorithm", f"unknown config type {type(config).__name__}")

    f = len(fault_plan.crashes)
    if config.quorum > topology.n - f:
        raise ConfigError(
            "algorithm.quorum",
            f"N={config.quorum} exceeds n - f = {topology.n} - {f}; "
            "the quorum wait could block forever")
    if len(config.x1) != oracle_spec.dim:
        raise ConfigError("algorithm.x1",
                          f"dimension {len(config.x1)} != oracle dimension {oracle_spec.dim}")

    info = smoothness_constants(oracle_spec)
    lipschitz, mu = info.lipschitz, info.strong_convexity
    issues = []
    eta_max = config.lr.max_eta()
    if config.variant is Variant.STRONGLY_CONVEX:
        if eta_max > 1.0 / lipschitz:
            issues.append(f"lr: eta_1 = {eta_max:.6g} exceeds 1/L = {1.0 / lipschitz:.6g}")
        if config.lr.kind == "decreasing" and mu > 0 and config.lr.beta * mu <= 1.0:
            issues.append(f"lr.beta: beta = {config.lr.beta:.6g} must exceed 1/mu = {1.0 / mu:.6g}")
    else:
        bound = min(0.5, 1.0 / (4.0 * lipschitz))
        if eta_max > bound:
            issues.append(f"lr: eta_1 = {eta_max:.6g} exceeds min(1/2, 1/(4L)) = {bound:.6g}")
    if issues:
        if config.lr_check == "strict":
            raise ConfigError("algorithm." + issues[0].split(":")[0], "; ".join(issues))
        warnings.extend(issues)

    if config.variant is Variant.NON_CONVEX:
        # both schedules are non-increasing, so q_1 is the largest target
        if config.q_at(1) > 1:
            raise ConfigError("algorithm.agreement_q",
                              f"'quarter_lr' gives q_1 = eta_1 / 4 = {config.q_at(1):.6g}, "
                              "above 1")
        warnings += _cluster_quorum_warnings(config.cluster_quorum, topology)
        needed = 16 * lipschitz ** 2 * config.quorum
        if config.iterations < needed:
            warnings.append(
                f"iterations: T = {config.iterations} below the theory premise "
                f"16 L^2 N = {needed:.6g}; rate guarantees may not bind yet")
    return warnings


def _cluster_quorum_warnings(cluster_quorum: int | None, topology: sim.Topology) -> list[str]:
    """Check the agreement loop's cluster quorum against the cluster count."""
    if cluster_quorum is None:
        return []
    if not 1 <= cluster_quorum <= topology.m:
        raise ConfigError("algorithm.cluster_quorum", f"must be in [1, {topology.m}]")
    if cluster_quorum < topology.majority_quorum():
        return ["cluster_quorum below majority: cross-partition agreement is forfeit"]
    return []


def _sum_then_divide(terms) -> np.ndarray:
    """Mean of a sequence of arrays, summed left to right, one division."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total / len(terms)


def _ordered_average(held: list) -> np.ndarray:
    """Average message payloads in ascending sender order, one division."""
    ordered = sorted(held, key=lambda item: item[0])
    return _sum_then_divide([payload for _, payload in ordered])


def _strongly_convex_program(conf: SgdConfig, ctx: sim.ProcessContext):
    spec = ctx.oracle_spec
    x = np.asarray(conf.x1, dtype=np.float64)
    for t in range(1, conf.iterations + 1):
        yield sim.IterMark(t, x)
        g = stochastic_grad(spec, x, ctx.rng)
        y = x - conf.lr.eta(t) * g
        tag = ("it", t)
        yield sim.Broadcast(tag, y)
        held = yield sim.WaitCount(tag, conf.quorum)
        used = held[:conf.quorum]  # first N by arrival, later ones ignored
        yield sim.Note("quorum", {
            "mode": "exact", "required": conf.quorum, "used": len(used),
            "iteration": t, "sender_tags": [tag[1] for _ in used],
            "senders": [s for s, _ in used],
        })
        x = _ordered_average(used)
    yield sim.IterMark(conf.iterations + 1, x)
    yield sim.Output(x)


def _non_convex_program(conf: SgdConfig, ctx: sim.ProcessContext, tau: int):
    spec = ctx.oracle_spec
    quorum_clusters = ctx.topology.cluster_quorum(conf.cluster_quorum)
    x = np.asarray(conf.x1, dtype=np.float64)
    result = x
    for t in range(1, conf.iterations + 1):
        yield sim.IterMark(t, x)
        if t == tau:
            result = x
        g_local = stochastic_grad(spec, x, ctx.rng)
        tag = ("grad", t)
        yield sim.Broadcast(tag, g_local)
        held = yield sim.WaitCount(tag, conf.quorum)
        yield sim.Note("quorum", {
            "mode": "at_least", "required": conf.quorum, "used": len(held),
            "iteration": t, "sender_tags": [tag[1] for _ in held],
            "senders": [s for s, _ in held],
        })
        g = _ordered_average(held)  # every held round-t gradient
        eta = conf.lr.eta(t)
        y = x - eta * g
        node = ctx.witness.input(y)
        x_next, _ = yield from maa.cluster_maa_subroutine(
            ctx, t, y, node, conf.maa_rule, conf.q_at(t), quorum_clusters,
            mark=conf.mark_rounds)
        x = clamp(spec, x_next)
    yield sim.IterMark(conf.iterations + 1, x)
    yield sim.Output(result)


def build_programs(algorithm, contexts, tau_rng) -> tuple[list, int | None]:
    """Instantiate one program per process; returns (programs, tau).

    tau is drawn here (once, shared by every process) from the dedicated
    stream so both execution drivers consume the stream identically; an
    explicit tau skips the draw entirely. `algorithm` is an SgdConfig or a
    MaaOnlyConfig: the caller, sim.run, has already run validate_config.
    """
    if isinstance(algorithm, maa.MaaOnlyConfig):
        return maa.build_maa_only_programs(algorithm, contexts), None
    if algorithm.variant is Variant.STRONGLY_CONVEX:
        return [_strongly_convex_program(algorithm, ctx) for ctx in contexts], None
    if algorithm.tau is not None:
        tau = algorithm.tau
    else:
        tau = int(tau_rng.integers(1, algorithm.iterations + 1))
    return [_non_convex_program(algorithm, ctx, tau) for ctx in contexts], tau

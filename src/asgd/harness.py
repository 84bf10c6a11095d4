"""Measurement harness: ensemble statistics, rate fits, reports, exports.

Conventions used throughout:

- external error: squared distance to the optimizer, averaged over the
  processes of a run, one value per seed;
- internal error: seed-mean squared distance for the worst process pair
  (the pair is picked on the seed-mean, then its per-seed values give the
  spread);
- rate fits are least squares on log10/log10 with at least three points;
- CSV exports are deterministic: sorted axes, repr() floats, fixed column
  order (config, axes, stat, mean, stderr, n_seeds);
- statistics are only reported for ensembles whose runs all completed and
  whose seeds all output from the same processes; a liveness violation
  flags the whole ensemble and withholds the numbers, and so do seeds that
  output from different processes (a crash that lands before its process's
  output in some seeds and after it in others).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import batch, sgd, sim, vecmath
from .maa import CLUSTER_FACTOR, SHARED_FACTOR, AggregationRule
from .oracle import OracleSpec, sequential_sgd

# Reserved member tag for sequential-baseline streams so they never collide
# with ensemble member seeds [root, s].
SEQUENTIAL_TAG = 2 ** 31 - 11


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    count: int


def estimate(values: np.ndarray) -> Estimate:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("estimate expects a non-empty 1-d sample")
    if values.size == 1:
        return Estimate(mean=float(values[0]), stderr=0.0, count=1)
    return Estimate(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(values.size)),
        count=values.size,
    )


def per_seed_external_sq(finals: np.ndarray, spec: OracleSpec) -> np.ndarray:
    """(S,) mean over processes of squared distance to the optimizer."""
    delta = finals - spec.target
    return np.einsum("spd,spd->sp", delta, delta).mean(axis=1)


def internal_err(finals: np.ndarray) -> tuple[Estimate, tuple[int, int]]:
    """Worst process pair by seed-mean squared distance, with its spread;
    (0, 0) with error 0 for a single process."""
    first, second = vecmath.pair_list(finals.shape[1])
    d2 = vecmath.pair_sq(finals)
    best = int(d2.mean(axis=0).argmax())
    return estimate(d2[:, best]), (int(first[best]), int(second[best]))


def cross_err(finals: np.ndarray, side_a, side_b) -> Estimate:
    """Worst cross-side pair by seed-mean squared distance."""
    best = None
    for i in side_a:
        for j in side_b:
            cand = vecmath.diameter_sq(finals[:, [i, j]])  # i to j, per seed
            if best is None or cand.mean() > best.mean():
                best = cand
    return estimate(best)


# ---------------------------------------------------------------------------
# Rate fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    points: int
    max_residual: float


def fit_rate(xs, ys) -> RateFit:
    """Least-squares slope of log10(y) against log10(x)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("fit_rate needs at least three paired points")
    if (xs <= 0).any() or (ys <= 0).any():
        raise ValueError("fit_rate needs strictly positive values on both axes")
    lx, ly = np.log10(xs), np.log10(ys)
    design = np.stack([lx, np.ones_like(lx)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   points=int(xs.size), max_residual=float(np.abs(resid).max()))


# ---------------------------------------------------------------------------
# Contraction reports (from event traces with round marks)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionReport:
    bound: float
    rounds_measured: int
    rounds_skipped: int  # zero-diameter rounds carry no ratio
    expanded_zero_rounds: int  # zero-diameter rounds that grew back
    worst_ratio: float | None

    @property
    def rounds_observed(self) -> int:
        return self.rounds_measured + self.rounds_skipped

    @property
    def ok(self) -> bool:
        if self.expanded_zero_rounds:
            return False
        if self.worst_ratio is None:
            return True
        return self.worst_ratio <= self.bound + 1e-9


def contraction_report(trace: sim.RunTrace, rule: AggregationRule) -> dict[str, ContractionReport]:
    """Per-round diameter ratios against the rule's contraction factors."""
    bounds = {
        "sm": float(SHARED_FACTOR[rule]),
        "cmaa": float(CLUSTER_FACTOR[rule]),
    }
    measured = {kind: [] for kind in bounds}
    skipped = {kind: 0 for kind in bounds}
    expanded = {kind: 0 for kind in bounds}
    for scope, by_round in trace.round_values.items():
        kind = scope[0]
        rounds = sorted(by_round)
        for r, r_next in zip(rounds, rounds[1:]):
            if r_next != r + 1:
                continue
            shared_pids = sorted(set(by_round[r]) & set(by_round[r_next]))
            if len(shared_pids) < 2:
                continue
            cur = np.stack([by_round[r][p] for p in shared_pids])
            nxt = np.stack([by_round[r_next][p] for p in shared_pids])
            span_cur = math.sqrt(vecmath.diameter_sq(cur))
            span_nxt = math.sqrt(vecmath.diameter_sq(nxt))
            if span_cur <= 1e-15:
                # no ratio to take, but consensus must not grow back
                skipped[kind] += 1
                if span_nxt > 1e-12:
                    expanded[kind] += 1
                continue
            measured[kind].append(span_nxt / span_cur)
    return {
        kind: ContractionReport(
            bound=bounds[kind],
            rounds_measured=len(measured[kind]),
            rounds_skipped=skipped[kind],
            expanded_zero_rounds=expanded[kind],
            worst_ratio=max(measured[kind]) if measured[kind] else None,
        )
        for kind in bounds if measured[kind] or skipped[kind]
    }


# ---------------------------------------------------------------------------
# Event-driver ensembles
# ---------------------------------------------------------------------------


@dataclass
class EventEnsemble:
    traces: list[sim.RunTrace]
    ok: bool
    liveness: dict[str, int]
    warnings: list[str]

    def withheld(self) -> tuple[str, dict] | None:
        """Why the statistics are withheld, as a message and the summary
        fields that show it, or None when they are not. outputs_array rows
        are processes in pid order, and the statistics treat a row as one
        process in every seed, so every seed must output from the same pids."""
        if not self.ok:
            return f"liveness violation: statistics withheld (counts: {self.liveness})", {}
        pids = [sorted(t.outputs) for t in self.traces]
        if any(p != pids[0] for p in pids):
            kinds = len({tuple(p) for p in pids})
            return (f"seeds output from {kinds} different sets of processes: "
                    "statistics withheld (output_pids lists them per seed)",
                    {"output_pids": pids})
        return None

    def outputs_array(self) -> np.ndarray:
        """(S, n, d) outputs, unless the statistics are withheld."""
        withheld = self.withheld()
        if withheld:
            raise RuntimeError(withheld[0])
        return np.stack([t.outputs_array() for t in self.traces])


def run_event_ensemble(topology, fault_plan, schedule, algorithm, oracle_spec,
                       seed_root: int, seeds: int, record: bool = False) -> EventEnsemble:
    """One sim.run per seed after one validate_config pass, whose warnings the
    ensemble keeps; `record` turns on both event and witness recording."""
    warnings = sgd.validate_config(algorithm, topology, fault_plan, oracle_spec)
    traces = []
    counts: dict[str, int] = {}
    for s in range(seeds):
        trace = sim.run(topology, fault_plan, schedule, algorithm, oracle_spec,
                        [seed_root, s], record_events=record, record_witness=record)
        traces.append(trace)
        kind = trace.liveness["kind"]
        counts[kind] = counts.get(kind, 0) + 1
    return EventEnsemble(traces=traces, ok=all(t.liveness["ok"] for t in traces),
                         liveness=counts, warnings=warnings)


# ---------------------------------------------------------------------------
# Divergence demonstration (partitioned vs healthy vs sequential baseline)
# ---------------------------------------------------------------------------


def divergence_demo(topology, conf, spec: OracleSpec, partition: sim.PartitionSpec,
                    seeds: int, seed_root: int) -> dict:
    """Three arms on one bistable task: partitioned, healthy, sequential.

    The partitioned arm's sides settle into wells independently; the healthy
    arm keeps everyone together; the per-seed sequential baseline shows the
    two wells are genuinely both reachable.
    """
    options = batch.BatchOptions(seeds=seeds, seed_root=seed_root, record_series=False)
    healthy = batch.run_ensemble(topology, conf, spec, options)
    parted = batch.run_ensemble(topology, conf, spec, options, partition)
    healthy_internal, _ = internal_err(healthy.finals)
    parted_cross = cross_err(parted.finals, partition.side_a, partition.side_b)

    landings = []
    for s in range(seeds):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed_root, SEQUENTIAL_TAG, s])))
        final = sequential_sgd(spec, np.asarray(conf.x1), conf.iterations,
                               conf.lr.eta, conf.quorum, rng)
        landings.append(1.0 if final[0] > 0 else 0.0)
    plus_rate = float(np.mean(landings))

    return {
        "healthy_internal_err": healthy_internal.mean,
        "partition_cross_err": parted_cross.mean,
        "separation_ratio": (parted_cross.mean / healthy_internal.mean
                             if healthy_internal.mean > 0 else math.inf),
        "sequential_plus_rate": plus_rate,
    }


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

CSV_HEADER = "config,axes,stat,mean,stderr,n_seeds"


def format_axes(axes: dict) -> str:
    return ";".join(f"{k}={axes[k]}" for k in sorted(axes))


def csv_row(config_hash: str, axes: dict, stat: str, est: Estimate) -> str:
    return ",".join([
        config_hash,
        format_axes(axes),
        stat,
        repr(float(est.mean)),
        repr(float(est.stderr)),
        str(est.count),
    ])


def write_csv(path, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_summary(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

"""Verification checks shared by `asgd verify` and the acceptance tests.

Each check runs acceptance criterion 1, 2, 4, 6, 7 or 11, or the
event-kernel shared-level check, at its seeds, sample counts and tolerances,
and returns a Check: the name on its [PASS]/[FAIL] line, whether it passed,
and the measured detail. The acceptance tests add the wall-time gates.

`quick=True` shrinks sample counts and takes a prefix of each sweep, with
the same seeds; gates that count samples scale with the count, and the
divergence check loosens its tolerances to what a shorter run resolves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import batch, harness, sim, vecmath
from .maa import CLUSTER_FACTOR, SHARED_FACTOR, AggregationRule, MaaOnlyConfig
from .oracle import OracleSpec, noise
from .sgd import LrSchedule, SgdConfig, Variant

MID = AggregationRule.MID_EXTREMES
APPROACH = AggregationRule.APPROACH_EXTREME

QUAD_2D = OracleSpec(kind="quadratic", dim=2, sigma=1.0, mu=1.0, lipschitz=4.0)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _pairs(n):
    return tuple((i, i + 1) for i in range(0, n, 2))


def _singletons(n):
    return tuple((i,) for i in range(n))


def _sc_config(iterations, quorum):
    return SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=iterations,
                     quorum=quorum, x1=(0.3, 0.3),
                     lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0))


def _span(points) -> float:
    return math.sqrt(vecmath.diameter_sq(vecmath.as_point_set(points)))


def _outputs(trace: sim.RunTrace) -> np.ndarray:
    return np.stack([trace.outputs[p] for p in sorted(trace.outputs)])


def _stage_worst_ratio(rule, trials, seed):
    """One-stage contraction: a stage takes the written round values P; every
    participant collects a view that always contains the round's
    first-written value and its own, then aggregates. Returns the worst
    span of the new values over factor * diam(P)."""
    rng = np.random.default_rng(seed)
    factor = float(SHARED_FACTOR[rule])
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 31))
        d = int(rng.integers(1, 9))
        pts = rng.normal(0.0, 1.0, (k, d)) * float(rng.uniform(0.2, 5.0))
        diam = _span(pts)
        if diam == 0.0:
            continue
        first_writer = int(rng.integers(k))
        new_pts = []
        for i in range(k):
            mask = rng.random(k) < float(rng.uniform(0.2, 1.0))
            mask[first_writer] = True
            mask[i] = True
            view = pts[mask][None]
            if rule is MID:
                new_pts.append(vecmath.batched_mid_extremes(view)[0])
            else:
                new_pts.append(vecmath.batched_approach_extreme(view, pts[i][None, None])[0, 0])
        worst = max(worst, _span(np.stack(new_pts)) / (factor * diam))
    return worst


def mid_extremes_stage(quick: bool = False) -> Check:
    """Criterion 1: a midpoint-of-extremes stage contracts by 7/8."""
    trials = 250 if quick else 1000
    worst = _stage_worst_ratio(MID, trials, seed=101)
    return Check("criterion-01 mid-extremes 7/8 stage", worst <= 1.0 + 1e-9,
                 f"worst span / (7/8 diam) = {worst:.6f} over {trials} set pairs")


def approach_extreme_stage(quick: bool = False) -> Check:
    """Criterion 2: an approach-extreme stage contracts by 31/32."""
    trials = 250 if quick else 1000
    worst = _stage_worst_ratio(APPROACH, trials, seed=102)
    return Check("criterion-02 approach-extreme 31/32 stage", worst <= 1.0 + 1e-9,
                 f"worst span / (31/32 diam) = {worst:.6f} over {trials} set pairs")


def shared_level_contraction(quick: bool = False) -> Check:
    """On the event kernel, every shared-memory round of an agreement run
    contracts by the stage factor (a zero-diameter round stays at zero), and
    the run ends within q = 1/6 of the input span."""
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0)
    runs = 10 if quick else 40
    rng = np.random.default_rng(2024)
    ok = True
    details = []
    for rule in AggregationRule:
        worst_sm = 0.0
        worst_end = 0.0
        expanded = 0
        for r in range(runs):
            n = int(rng.integers(2, 6))
            inputs = tuple(tuple(row) for row in rng.normal(0, 1, (n, 2)))
            conf = MaaOnlyConfig(level="shared", rule=rule, q=1.0 / 6.0,
                                 inputs=inputs)
            topo = sim.Topology(n, (tuple(range(n)),))
            trace = sim.run(topo, sim.FaultPlan(), sim.Schedule(), conf, spec,
                            [900 + r, 0], record_events=False)
            rep = harness.contraction_report(trace, rule).get("sm")
            if rep is not None:
                expanded += rep.expanded_zero_rounds
                if rep.worst_ratio is not None:
                    worst_sm = max(worst_sm, rep.worst_ratio)
            span_in = _span(inputs)
            if span_in > 0:
                worst_end = max(worst_end, _span(_outputs(trace)) / span_in)
        bound = float(SHARED_FACTOR[rule])
        ok &= (worst_sm <= bound + 1e-9 and expanded == 0
               and worst_end <= 1.0 / 6.0 + 1e-9)
        details.append(f"{rule.value}: worst per-round ratio {worst_sm:.4f} "
                       f"<= {bound:.4f}, {expanded} zero-diameter rounds grew "
                       f"back, worst output/input span ratio {worst_end:.4f} <= 1/6")
    return Check("shared-level contraction", ok,
                 f"{runs} runs per rule; " + "; ".join(details))


def cluster_round_contraction(quick: bool = False) -> Check:
    """Criterion 4: cluster-level agreement rounds contract by 23/24 resp.
    79/80, measured on event-simulator runs with cluster crashes inside the
    budget."""
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=1.0)
    sweep = ((MID, 0.34, 2), (APPROACH, 0.69, 2)) if quick else \
        ((MID, 0.34, 8), (APPROACH, 0.69, 5))
    pair_runs = 1 if quick else 2
    # the full check asks for 1000 observed rounds over its 43 runs
    total_runs = 3 * sum(runs for _, _, runs in sweep) + 2 * pair_runs
    min_observed = 1000 * total_runs / 43
    rng = np.random.default_rng(404)
    observed = 0
    expanded = 0
    worst = {MID: 0.0, APPROACH: 0.0}
    end_to_end_bad = 0

    def run_one(topo, conf, crashes, seed, rule):
        nonlocal observed, expanded, end_to_end_bad
        trace = sim.run(topo, sim.FaultPlan(crashes=crashes), sim.Schedule(),
                        conf, spec, seed, record_events=False,
                        record_witness=False)
        rep = harness.contraction_report(trace, rule)["cmaa"]
        observed += rep.rounds_observed
        expanded += rep.expanded_zero_rounds
        if rep.worst_ratio is not None:
            worst[rule] = max(worst[rule], rep.worst_ratio)
        end_to_end_bad += _span(_outputs(trace)) > conf.q * _span(conf.inputs) + 1e-12

    for rule, q, runs in sweep:
        for m in (3, 5, 7):
            for r in range(runs):
                topo = sim.Topology(m, _singletons(m))
                inputs = tuple(tuple(row)
                               for row in rng.normal(0.0, 2.0, (m, 2)))
                conf = MaaOnlyConfig(level="cluster", rule=rule, q=q,
                                     inputs=inputs)
                crashes = ()
                if r % 2 == 1:  # up to floor((m-1)/2) whole-cluster crashes
                    f_c = int(rng.integers(1, (m - 1) // 2 + 1))
                    pids = rng.choice(m, size=f_c, replace=False)
                    crashes = tuple(
                        sim.CrashSpec(pid=int(p),
                                      after_events=int(rng.integers(50, 2000)))
                        for p in pids)
                run_one(topo, conf, crashes, [440 + r, m], rule)
    # two-member clusters exercise the in-cluster stage as well
    for rule in (MID, APPROACH):
        for r in range(pair_runs):
            topo = sim.Topology(6, _pairs(6))
            inputs = tuple(tuple(row) for row in rng.normal(0.0, 2.0, (6, 2)))
            conf = MaaOnlyConfig(level="cluster", rule=rule, q=0.5,
                                 inputs=inputs)
            run_one(topo, conf, (), [460 + r, 0], rule)
    return Check(
        "criterion-04 cluster round contraction",
        (observed >= min_observed and expanded == 0 and end_to_end_bad == 0
         and all(worst[rule] <= float(CLUSTER_FACTOR[rule]) + 1e-9 for rule in worst)),
        f"{observed} exchange rounds observed: worst measured ratios "
        f"{worst[MID]:.4f} <= {CLUSTER_FACTOR[MID]} and "
        f"{worst[APPROACH]:.4f} <= {CLUSTER_FACTOR[APPROACH]}, "
        f"{expanded} zero-diameter rounds grew back, {end_to_end_bad} runs "
        "missed their target q within the ceil(log) round budget")


def variance_scaling(quick: bool = False) -> Check:
    """Criterion 6: averaging B noisy gradients divides the variance by B;
    the quorum average inside the algorithm does the same with B = N."""
    sigma = 1.0
    spec = OracleSpec(kind="quadratic", dim=3, sigma=sigma, mu=1.0,
                      lipschitz=1.0)
    draws_total = 20_000 if quick else 100_000
    batches = (1, 4) if quick else (1, 4, 16, 64)
    quorums = ((1, 2_000), (4, 2_000)) if quick else \
        ((1, 20_000), (4, 20_000), (16, 8_000), (64, 4_000))
    rng = np.random.default_rng(606)
    details = []
    ok = True
    for b in batches:
        # the B draws of every group in one call, summed left to right
        draws = batch._sequential_mean(noise(spec, rng, (draws_total // b, b)))
        total_var = float(draws.var(axis=0, ddof=1).sum())
        bound = sigma ** 2 / b * 1.1
        ok &= total_var <= bound
        details.append(f"B={b}: {total_var:.4f}<={bound:.4f}")

    for n, seeds in quorums:
        topo = sim.Topology(n, _singletons(n))
        conf = SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=1,
                         quorum=n, x1=(0.0, 0.0),
                         lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0))
        result = batch.run_ensemble(
            topo, conf, QUAD_2D,
            batch.BatchOptions(seeds=seeds, seed_root=660 + n,
                               record_series=False))
        eff = (0.0 - result.finals[:, 0]) / conf.lr.eta(1)
        total_var = float(eff.var(axis=0, ddof=1).sum())
        bound = sigma ** 2 / n * 1.1
        ok &= total_var <= bound
        details.append(f"N={n}: {total_var:.5f}<={bound:.5f}")
    return Check("criterion-06 variance scaling", ok, "; ".join(details))


def strongly_convex_external_rate(quick: bool = False) -> Check:
    """Criterion 7: strongly convex external error decays like 1/T and
    never gets worse when the quorum N grows."""
    topo = sim.Topology(8, _singletons(8))
    seeds = 64 if quick else 200
    horizons = (64, 128, 256) if quick else (64, 128, 256, 512)
    quorums = (1, 2, 4) if quick else (1, 2, 4, 8)
    means = []
    for T in horizons:
        result = batch.run_ensemble(
            topo, _sc_config(T, 4), QUAD_2D,
            batch.BatchOptions(seeds=seeds, seed_root=71001,
                               record_series=False))
        means.append(harness.estimate(
            harness.per_seed_external_sq(result.finals, QUAD_2D)).mean)
    fit = harness.fit_rate(np.array(horizons, float), np.array(means))

    sweep = []
    for n_q in quorums:
        result = batch.run_ensemble(
            topo, _sc_config(256, n_q), QUAD_2D,
            batch.BatchOptions(seeds=seeds, seed_root=71000 + n_q,
                               record_series=False))
        sweep.append(harness.estimate(
            harness.per_seed_external_sq(result.finals, QUAD_2D)))
    monotone = all(
        nxt.mean <= cur.mean + 3.0 * math.hypot(cur.stderr, nxt.stderr)
        for cur, nxt in zip(sweep, sweep[1:]))
    return Check(
        "criterion-07 strongly convex external rate",
        -1.25 <= fit.slope <= -0.75 and monotone,
        f"slope {fit.slope:.3f} in [-1.25,-0.75] over T={horizons}, "
        f"N-sweep means {[f'{e.mean:.5f}' for e in sweep]} non-increasing "
        "within 3 SE")


def partition_divergence(quick: bool = False) -> Check:
    """Criterion 11: a partition along cluster boundaries with a forfeited
    cluster majority drives the sides to different wells; the healthy arm
    agrees, and the sequential baseline lands in either well about half the
    time."""
    topo = sim.Topology(4, _pairs(4))
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    iterations, seeds = (200, 24) if quick else (400, 50)
    ratio_floor, band = (5.0, (0.25, 0.75)) if quick else (10.0, (0.4, 0.6))
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=iterations,
                     quorum=2, x1=(0.0,),
                     lr=LrSchedule(kind="constant", value=0.01),
                     agreement_q=0.5, cluster_quorum=1)
    part = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3))
    demo = harness.divergence_demo(topo, conf, spec, part, seeds=seeds,
                                   seed_root=31)
    return Check(
        "criterion-11 partition divergence",
        (demo["separation_ratio"] >= ratio_floor
         and band[0] <= demo["sequential_plus_rate"] <= band[1]),
        f"cross-partition error {demo['partition_cross_err']:.3f} is "
        f"{demo['separation_ratio']:.0f}x the healthy internal error "
        f"{demo['healthy_internal_err']:.2e} (>= {ratio_floor:g}x); sequential "
        f"baseline lands positive {demo['sequential_plus_rate']:.2f} of the "
        f"time (0.5 +- {band[1] - 0.5:g})")

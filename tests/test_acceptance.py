"""Acceptance suite: twelve end-to-end checks at their stated tolerances.

One [PASS]/[FAIL] line prints per criterion (run pytest with -s to watch
them live). Geometry, schedule, fault, and determinism checks run on the
event simulator; the two rate sweeps and the divergence demonstration run
on the batched ensemble driver.

Criteria 1, 2, 4, 6, 7 and 11 live in asgd.checks, which `asgd verify` runs
too; their tests here call them at full size and add the wall-time gates.
"""

import math
import random
import time

import numpy as np
from schedutil import run_scripted

from asgd import batch, checks, harness, sim, vecmath
from asgd.checks import APPROACH, MID, QUAD_2D, _pairs, _sc_config, _singletons
from asgd.maa import MaaOnlyConfig, required_rounds
from asgd.oracle import OracleSpec, grad
from asgd.sgd import LrSchedule, SgdConfig, Variant


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1, 2, 4, 6, 7 and 11 run from asgd.checks, which says what each
# one measures; the tests add the wall-time gates.
# ---------------------------------------------------------------------------

def test_c01_mid_extremes_stage_contraction():
    t0 = time.monotonic()
    check = checks.mid_extremes_stage()
    took = time.monotonic() - t0
    _line(check.name, check.ok and took < 10.0,
          f"{check.detail}, {took:.1f}s (< 10s)")


def test_c02_approach_extreme_stage_contraction():
    t0 = time.monotonic()
    check = checks.approach_extreme_stage()
    took = time.monotonic() - t0
    _line(check.name, check.ok and took < 10.0,
          f"{check.detail}, {took:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# Criterion 3: the shared-memory agreement subroutine end to end — its round
# budget comes from the closed form, and 14 rounds really land every process
# within 1/6 of the initial spread under arbitrary interleavings.
# ---------------------------------------------------------------------------

def _scripted_worst(rule, rounds, target, sizes, schedules, rng):
    worst = 0.0
    for size in sizes:
        for trial in range(schedules):
            d = 1 + (trial & 1)
            inputs = [[rng.uniform(-2.0, 2.0) for _ in range(d)]
                      for _ in range(size)]
            span_in = math.sqrt(vecmath.diameter_sq(np.asarray(inputs)))
            if span_in == 0.0:
                continue
            results, _, _ = run_scripted(inputs, rounds, rule, rng)
            outs = np.stack([results[p][0] for p in range(size)])
            span_out = math.sqrt(vecmath.diameter_sq(outs))
            worst = max(worst, span_out / (target * span_in))
    return worst


def test_c03_smmaa_end_to_end():
    ok_counts = (required_rounds(1 / 6, MID, "shared") == 14
                 and required_rounds(1 / 6, APPROACH, "shared") == 57
                 and required_rounds(1 / 10, APPROACH, "shared") == 73)
    rng = random.Random(303)
    worst_mid = _scripted_worst(MID, 14, 1 / 6, range(2, 9), 500, rng)
    worst_ae = _scripted_worst(APPROACH, 57, 1 / 6, (2, 5, 8), 50, rng)
    _line("criterion-03 shared agreement end-to-end",
          ok_counts and worst_mid <= 1.0 + 1e-9 and worst_ae <= 1.0 + 1e-9,
          "round counts 14/57/73 confirmed; worst final/allowed spread "
          f"{worst_mid:.4f} (mid, 3500 schedules) {worst_ae:.4f} (approach, "
          "150 schedules)")


def test_c04_cluster_round_contraction():
    check = checks.cluster_round_contraction()
    _line(check.name, check.ok, check.detail)


# ---------------------------------------------------------------------------
# Criterion 5: every agreement output carries a witness that replays to the
# exact output bytes and certifies a convex combination of the inputs.
# ---------------------------------------------------------------------------

def test_c05_witness_replay():
    rng = np.random.default_rng(505)
    runs = 0
    outputs_checked = 0
    for i in range(50):  # shared level
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        conf = MaaOnlyConfig(
            level="shared", rule=MID if i % 2 == 0 else APPROACH,
            q=float(rng.uniform(0.05, 0.5)),
            inputs=tuple(tuple(row) for row in rng.normal(0.0, 1.0, (n, d))))
        topo = sim.Topology(n, (tuple(range(n)),))
        trace = sim.run(topo, sim.FaultPlan(), sim.Schedule(), conf,
                        OracleSpec(kind="quadratic", dim=d, sigma=0.0, mu=1.0,
                                   lipschitz=1.0),
                        [550 + i, 0], record_events=False)
        runs += 1
        for pid, out in trace.outputs.items():
            replayed = trace.witness.replay(trace.output_witness[pid])
            assert replayed.tobytes() == out.tobytes()
            coeffs = trace.witness.coefficients(trace.output_witness[pid])
            assert sum(coeffs.values()) == 1
            assert all(c >= 0 for c in coeffs.values())
            outputs_checked += 1
    for i in range(50):  # cluster level, crashes on half the runs
        m = int(rng.integers(2, 4))
        size = int(rng.integers(1, 3))
        n = m * size
        clusters = tuple(tuple(range(c * size, (c + 1) * size))
                         for c in range(m))
        conf = MaaOnlyConfig(
            level="cluster", rule=MID if i % 2 == 0 else APPROACH,
            q=float(rng.uniform(0.3, 0.7)),
            inputs=tuple(tuple(row) for row in rng.normal(0.0, 1.0, (n, 1))))
        crashes = ()
        if i % 2 == 1 and m == 3:
            victim = int(rng.integers(n))
            crashes = (sim.CrashSpec(pid=victim,
                                     after_events=int(rng.integers(30, 800))),)
        trace = sim.run(sim.Topology(n, clusters), sim.FaultPlan(crashes=crashes),
                        sim.Schedule(), conf,
                        OracleSpec(kind="quadratic", dim=1, sigma=0.0, mu=1.0,
                                   lipschitz=1.0),
                        [570 + i, 0], record_events=False)
        runs += 1
        for pid, out in trace.outputs.items():
            replayed = trace.witness.replay(trace.output_witness[pid])
            assert replayed.tobytes() == out.tobytes()
            coeffs = trace.witness.coefficients(trace.output_witness[pid])
            assert sum(coeffs.values()) == 1
            outputs_checked += 1
    _line("criterion-05 witness replay", runs == 100 and outputs_checked >= 300,
          f"{runs} runs, {outputs_checked} agreement outputs replayed "
          "bit-exactly with convex witness weights")


def test_c06_variance_scaling():
    check = checks.variance_scaling()
    _line(check.name, check.ok, check.detail)


def test_c07_strongly_convex_external_rate():
    t0 = time.monotonic()
    check = checks.strongly_convex_external_rate()
    took = time.monotonic() - t0
    _line(check.name, check.ok and took < 300.0,
          f"{check.detail}, {took:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# Criterion 8: the internal (disagreement) error also decays like 1/T on the
# adversarial split schedule; well-mixed schedules beat that rate, and a
# noiseless run has exactly zero disagreement.
# ---------------------------------------------------------------------------

def test_c08_internal_error_rate():
    topo = sim.Topology(8, _singletons(8))
    seeds = 200
    horizons = (64, 128, 256, 512)

    def internal_means(policy):
        out = []
        for T in horizons:
            result = batch.run_ensemble(
                topo, _sc_config(T, 4), QUAD_2D,
                batch.BatchOptions(seeds=seeds, seed_root=81001,
                                   quorum_policy=policy, record_series=False))
            out.append(harness.internal_err(result.finals)[0].mean)
        return np.array(out)

    fit_split = harness.fit_rate(np.array(horizons, float),
                                 internal_means("split"))
    fit_random = harness.fit_rate(np.array(horizons, float),
                                  internal_means("random"))

    quiet = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0,
                       lipschitz=4.0)
    result = batch.run_ensemble(
        topo, _sc_config(64, 4), quiet,
        batch.BatchOptions(seeds=8, seed_root=81002, quorum_policy="split",
                           record_series=False))
    zero_internal = harness.internal_err(result.finals)[0].mean
    _line("criterion-08 internal error rate",
          (-1.25 <= fit_split.slope <= -0.75
           and fit_random.slope < fit_split.slope - 0.3
           and zero_internal == 0.0),
          f"split-schedule slope {fit_split.slope:.3f} in [-1.25,-0.75]; "
          f"well-mixed slope {fit_random.slope:.3f} decays faster; "
          f"sigma=0 internal error is exactly {zero_internal}")


# ---------------------------------------------------------------------------
# Criterion 9: non-convex rate — the best (min over t) ensemble-mean squared
# gradient norm decays like (NT)^(-1/2)-ish, and the per-iteration parameter
# diameter stays inside the agreement envelope 2 sigma^2 eta^3 / N.
# ---------------------------------------------------------------------------

def test_c09_non_convex_rate_and_envelope():
    t0 = time.monotonic()
    spec = OracleSpec(kind="double_well", dim=2, sigma=0.3, radius=1.25)
    topo = sim.Topology(6, _pairs(6))
    budgets = (256, 1024, 4096)
    seeds = 100
    ys_min = []
    ys_tau = []
    envelope_ok = True
    env_fracs = []
    for nt in budgets:
        T = nt  # quorum N = 1
        eta = math.sqrt(1.0) / math.sqrt(T)
        conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=T, quorum=1,
                         x1=(0.25, 0.25),
                         lr=LrSchedule(kind="constant", value=eta),
                         agreement_q="quarter_lr", lr_check="warn")
        result = batch.run_ensemble(
            topo, conf, spec,
            batch.BatchOptions(seeds=seeds, seed_root=91001,
                               record_series=True))
        ys_min.append(float(result.series["grad_norm_sq"].mean(axis=1).min()))
        g = grad(spec, result.outputs)  # the deployed random-tau statistic
        ys_tau.append(float(np.einsum("spd,spd->sp", g, g).mean()))
        bound = 2.0 * spec.sigma ** 2 * eta ** 3 / conf.quorum
        frac = float((result.series["diam_sq"] <= bound + 1e-15).mean())
        env_fracs.append(frac)
        envelope_ok &= frac >= 0.99
    fit = harness.fit_rate(np.array(budgets, float), np.array(ys_min))
    took = time.monotonic() - t0
    _line("criterion-09 non-convex rate and diameter envelope",
          -0.8 <= fit.slope <= -0.2 and envelope_ok and took < 900.0,
          f"min-over-t grad-norm slope {fit.slope:.3f} in [-0.8,-0.2] over "
          f"NT={budgets} (random-tau outputs: "
          f"{[f'{y:.4f}' for y in ys_tau]}), diameter within "
          f"2 sigma^2 eta^3/N for {[f'{f:.4f}' for f in env_fracs]} of "
          f"iterations (>= 0.99), {took:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# Criterion 10: liveness — crash plans inside the budget always let every
# survivor output, for both algorithm variants; an unsatisfiable cluster
# quorum is reported as a liveness violation, not a hang.
# ---------------------------------------------------------------------------

def test_c10_liveness():
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.5, mu=1.0, lipschitz=4.0)
    topo = sim.Topology(6, _pairs(6))
    conf = _sc_config(6, 2)
    rng = np.random.default_rng(1001)
    live_sc = 0
    for i in range(50):  # quorum-averaged variant: any f <= n - N crashes
        f = int(rng.integers(0, 5))
        pids = rng.choice(6, size=f, replace=False)
        crashes = []
        for j, pid in enumerate(pids):
            if j % 2 == 0:
                crashes.append(sim.CrashSpec(pid=int(pid),
                                             after_events=int(rng.integers(1, 400))))
            else:
                crashes.append(sim.CrashSpec(pid=int(pid),
                                             at_iteration=int(rng.integers(1, 7))))
        trace = sim.run(topo, sim.FaultPlan(crashes=tuple(crashes)),
                        sim.Schedule(), conf, spec, [1002, i],
                        record_events=False, record_witness=False)
        assert set(range(6)) - {c.pid for c in crashes} <= set(trace.outputs)
        live_sc += trace.liveness["ok"]

    dwell = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    nc_conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=2, quorum=1,
                        x1=(0.0,), lr=LrSchedule(kind="constant", value=0.01),
                        agreement_q=0.5)
    live_nc = 0
    for i in range(50):  # agreement-coupled variant: minority cluster crashes
        crashes = []
        if i % 5:  # keep some plans crash-free
            cluster = int(rng.integers(3))
            for pid in (2 * cluster, 2 * cluster + 1):
                if i % 2:
                    crashes.append(sim.CrashSpec(
                        pid=pid, after_events=int(rng.integers(0, 600))))
                else:
                    crashes.append(sim.CrashSpec(
                        pid=pid, at_iteration=int(rng.integers(1, 3))))
        trace = sim.run(topo, sim.FaultPlan(crashes=tuple(crashes)),
                        sim.Schedule(), nc_conf, dwell, [1005, i],
                        record_events=False, record_witness=False)
        assert set(range(6)) - {c.pid for c in crashes} <= set(trace.outputs)
        live_nc += trace.liveness["ok"]

    # negative control: two of three clusters die instantly, so the cluster
    # majority is violated and the survivors' exchange can never complete
    plan = sim.FaultPlan(crashes=tuple(sim.CrashSpec(pid=p, after_events=0)
                                       for p in (2, 3, 4, 5)))
    control = sim.run(topo, plan, sim.Schedule(), nc_conf, dwell, [1006, 0],
                      record_events=False, record_witness=False)
    control_ok = (not control.liveness["ok"]
                  and control.liveness["kind"] == "blocked"
                  and {b["pid"] for b in control.liveness["blocked"]} == {0, 1}
                  and not control.outputs)
    _line("criterion-10 liveness", live_sc == 50 and live_nc == 50 and control_ok,
          f"{live_sc}/50 quorum-variant and {live_nc}/50 agreement-variant "
          "crash plans completed with every survivor producing an output; "
          "majority-violated control reported blocked for both survivors")


def test_c11_partition_divergence():
    check = checks.partition_divergence()
    _line(check.name, check.ok, check.detail)


# ---------------------------------------------------------------------------
# Criterion 12: byte-identical traces and CSV exports across repeat runs of
# twenty scenario configurations.
# ---------------------------------------------------------------------------

def _c12_scenarios():
    quad1 = OracleSpec(kind="quadratic", dim=1, sigma=0.5, mu=1.0,
                       lipschitz=1.0)
    dwell = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    nc = dict(variant=Variant.NON_CONVEX, quorum=1, x1=(0.0,),
              lr=LrSchedule(kind="constant", value=0.01), agreement_q=0.5)
    scenarios = [
        ("sc-pairs", "event", sim.Topology(4, _pairs(4)), sim.FaultPlan(),
         sim.Schedule(), _sc_config(6, 2), QUAD_2D),
        ("sc-singletons", "event", sim.Topology(5, _singletons(5)),
         sim.FaultPlan(), sim.Schedule(),
         SgdConfig(variant=Variant.STRONGLY_CONVEX, iterations=5, quorum=3,
                   x1=(0.3,),
                   lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0)),
         quad1),
        ("sc-crash-events", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(crashes=(sim.CrashSpec(pid=3, after_events=100),)),
         sim.Schedule(), _sc_config(6, 2), QUAD_2D),
        ("sc-crash-iteration", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(crashes=(sim.CrashSpec(pid=0, at_iteration=3),)),
         sim.Schedule(), _sc_config(6, 2), QUAD_2D),
        ("sc-partition-late", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(partition=sim.PartitionSpec(side_a=(0, 1),
                                                   side_b=(2, 3),
                                                   from_event=100)),
         sim.Schedule(), _sc_config(5, 2), QUAD_2D),
        ("sc-delay-1", "event", sim.Topology(4, _pairs(4)), sim.FaultPlan(),
         sim.Schedule(max_delay=1), _sc_config(6, 2), QUAD_2D),
        ("nc-basic", "event", sim.Topology(4, _pairs(4)), sim.FaultPlan(),
         sim.Schedule(), SgdConfig(iterations=3, **nc), dwell),
        ("nc-tau-override", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(), sim.Schedule(),
         SgdConfig(iterations=3, tau=2, **nc), dwell),
        ("nc-approach-rule", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(), sim.Schedule(),
         SgdConfig(iterations=2, maa_rule=APPROACH,
                   **{**nc, "agreement_q": 0.7}), dwell),
        ("nc-marked-rounds", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(), sim.Schedule(),
         SgdConfig(iterations=2, mark_rounds=True, **nc), dwell),
        ("maa-shared-mid", "event", sim.Topology(5, ((0, 1, 2, 3, 4),)),
         sim.FaultPlan(), sim.Schedule(),
         MaaOnlyConfig(level="shared", rule=MID, q=1 / 6,
                       inputs=((0.0,), (1.0,), (0.25,), (0.5,), (0.75,))),
         quad1),
        ("maa-shared-approach", "event", sim.Topology(3, ((0, 1, 2),)),
         sim.FaultPlan(), sim.Schedule(),
         MaaOnlyConfig(level="shared", rule=APPROACH, q=0.1,
                       inputs=((0.0,), (1.0,), (0.4,))), quad1),
        ("maa-cluster-mid", "event", sim.Topology(3, _singletons(3)),
         sim.FaultPlan(), sim.Schedule(),
         MaaOnlyConfig(level="cluster", rule=MID, q=0.3,
                       inputs=((0.0,), (1.0,), (0.5,))), quad1),
        ("maa-cluster-approach", "event", sim.Topology(4, _pairs(4)),
         sim.FaultPlan(), sim.Schedule(),
         MaaOnlyConfig(level="cluster", rule=APPROACH, q=0.6,
                       inputs=((0.0,), (1.0,), (0.3,), (0.7,))), quad1),
        ("maa-cluster-crash", "event", sim.Topology(6, _pairs(6)),
         sim.FaultPlan(crashes=(sim.CrashSpec(pid=5, after_events=60),)),
         sim.Schedule(),
         MaaOnlyConfig(level="cluster", rule=MID, q=0.4,
                       inputs=((0.0,), (1.0,), (0.4,), (0.8,), (0.2,),
                               (0.6,))), quad1),
        ("batch-sc-random", "batch", sim.Topology(8, _singletons(8)), None,
         None, _sc_config(32, 4), QUAD_2D),
        ("batch-sc-split", "batch", sim.Topology(8, _singletons(8)), None,
         None, _sc_config(32, 4), QUAD_2D),
        ("batch-sc-partition", "batch", sim.Topology(8, _singletons(8)), None,
         None, _sc_config(24, 4), QUAD_2D),
        ("batch-nc", "batch", sim.Topology(4, _pairs(4)), None, None,
         SgdConfig(iterations=8, **nc), dwell),
        ("batch-nc-partition", "batch", sim.Topology(4, _pairs(4)), None,
         None, SgdConfig(iterations=8, tau=5, cluster_quorum=1, **nc),
         dwell),
    ]
    return scenarios


def _c12_execute(name, kind, topo, plan, sched, algo, oracle, tmp_path, rep):
    if kind == "event":
        trace = sim.run(topo, plan, sched, algo, oracle, [1200, 7])
        if plan.partition is not None:  # a cut that defers nothing tests nothing
            assert trace.counters["deferred"] > 0, name
        blob = trace.to_jsonl().encode()
        finals = np.stack([trace.outputs[p] for p in sorted(trace.outputs)])[None]
        digest = trace.config_digest
    else:
        partition = None
        policy = "split" if name == "batch-sc-split" else "random"
        if name == "batch-sc-partition":
            partition = sim.PartitionSpec(side_a=tuple(range(4)),
                                          side_b=tuple(range(4, 8)),
                                          from_event=10)
        if name == "batch-nc-partition":
            partition = sim.PartitionSpec(side_a=(0, 1), side_b=(2, 3))
        options = batch.BatchOptions(seeds=4, seed_root=1200, quorum_policy=policy)
        result = batch.run_ensemble(topo, algo, oracle, options, partition)
        blob = result.outputs.tobytes() + result.finals.tobytes()
        finals = result.outputs
        digest = sim.config_digest_of({"driver": "batch", "topology": topo,
                                       "algorithm": algo, "oracle": oracle,
                                       "options": options, "partition": partition})
    est, _ = harness.internal_err(finals)
    rows = [harness.csv_row(digest, {"scenario": name}, "internal_err", est)]
    if oracle.kind == "quadratic":
        rows.append(harness.csv_row(
            digest, {"scenario": name}, "external_err",
            harness.estimate(harness.per_seed_external_sq(finals, oracle))))
    csv_path = tmp_path / f"{name}-{rep}.csv"
    harness.write_csv(csv_path, rows)
    return blob, csv_path.read_bytes()


def test_c12_determinism(tmp_path):
    scenarios = _c12_scenarios()
    assert len(scenarios) == 20
    mismatched = []
    for entry in scenarios:
        a = _c12_execute(*entry, tmp_path, 0)
        b = _c12_execute(*entry, tmp_path, 1)
        if a != b:
            mismatched.append(entry[0])
    _line("criterion-12 determinism", not mismatched,
          "20 scenarios x 2 repeats: traces and CSV exports byte-identical"
          + (f"; MISMATCHED: {mismatched}" if mismatched else ""))

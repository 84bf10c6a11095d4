"""Benchmark of `asgd run` on four workloads (see README.md beside this file).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout that holds src/asgd. It writes the
workload's scenario, generated from --seed, and then runs `asgd run` on it
in a closed loop with one client: each run is a fresh interpreter (the
child.py script calling asgd.cli.main) started after the previous one has
ended, with ASGD_THREADS=1, until --seconds are spent. The first run warms
the bytecode cache and is checked but not timed.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced runs with traced ones and reports the per-layer
metrics, the tracing overhead and the unattributed time. Every run is
checked: exit code, liveness, trace audits, outputs_sha256 and event count
equal across runs (traced or not), and, at the default seed, equal to the
pins in pins.json. The last line of standard output is one JSON object;
the exit code is 1 when any check failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
MIN_TIMED = {False: 3, True: 4}  # timed runs per --trace setting
RUN_TIMEOUT_S = 100.0
ENV = {
    "ASGD_THREADS": "1",
    # asgd.cli applies ASGD_THREADS before numpy's first import; the child
    # imports numpy earlier, to install its hooks, so the caps are set here.
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    # one string-hash layout for every run, so it is not a source of spread
    "PYTHONHASHSEED": "0",
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _double_well_agreement(driver: str, iterations: int, seeds: int, seed: int) -> dict:
    """Non-convex agreement-coupled SGD in the shape of criterion 9's arm."""
    return {
        "format": "asgd-scenario", "version": 1,
        "topology": {"n": 6, "clusters": [[0, 1], [2, 3], [4, 5]]},
        "oracle": {"kind": "double_well", "dim": 2, "sigma": 0.3, "radius": 1.25},
        "algorithm": {
            "kind": "sgd", "variant": "non_convex", "iterations": iterations,
            "quorum": 1, "x1": [0.25, 0.25],
            "lr": {"kind": "constant", "value": 0.0625},
            "agreement_q": "quarter_lr", "lr_check": "warn",
        },
        "run": {"driver": driver, "seeds": seeds, "seed_root": seed},
    }


def _quadratic_quorum(driver: str, iterations: int, seeds: int, seed: int) -> dict:
    """Strongly convex quorum-averaged SGD, 8 singleton clusters, N=4."""
    return {
        "format": "asgd-scenario", "version": 1,
        "topology": {"n": 8, "clusters": [[i] for i in range(8)]},
        "oracle": {"kind": "quadratic", "dim": 2, "sigma": 1.0,
                   "mu": 1.0, "lipschitz": 4.0},
        "algorithm": {
            "kind": "sgd", "variant": "strongly_convex", "iterations": iterations,
            "quorum": 4, "x1": [0.3, 0.3],
            "lr": {"kind": "decreasing", "beta": 2.0, "gamma": 8.0},
        },
        "run": {"driver": driver, "seeds": seeds, "seed_root": seed,
                "quorum_policy": "random", "record_series": True},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (driver, iterations, seeds, seed) -> scenario dict
    driver: str
    iterations: int
    seeds: int
    flags: tuple = ()

    def scenario(self, seed: int) -> dict:
        return self.make(self.driver, self.iterations, self.seeds, seed)


# Why each workload is here is written down in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("event-agree", _double_well_agreement, "event", 2, 2),
    Workload("event-quorum-trace", _quadratic_quorum, "event", 128, 4, ("--trace",)),
    Workload("batch-agree", _double_well_agreement, "batch", 16, 100),
    Workload("batch-quorum", _quadratic_quorum, "batch", 128, 2000),
)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_once(work: Path, scenario: Path, workload: Workload, traced: bool,
             index: int) -> dict:
    """Start one child, wait for it, and collect its report and outputs."""
    out = work / f"out-{index}"
    report_path = work / f"report-{index}.json"
    rec = {"traced": traced, "problems": []}
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path), repr(spawned),
           "1" if traced else "0", "run", str(scenario), "--out", str(out),
           *workload.flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **ENV),
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"no exit within {RUN_TIMEOUT_S:.0f}s")
        return rec
    finally:
        rec["wall_s"] = time.monotonic() - spawned
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        rec["problems"].append(f"child exited {proc.returncode}: {tail[0]}")
        return rec
    rec.update(json.loads(report_path.read_text()))
    if rec["exit"] != 0:
        rec["problems"].append(f"asgd run exited {rec['exit']}")
    summary_path = out / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
        rec["digest"] = summary.get("outputs_sha256")
        rec["events"] = summary.get("counters", {}).get("events")
        if not summary.get("liveness", {}).get("ok"):
            rec["problems"].append("liveness.ok is false")
        failed = [k for k, v in (summary.get("audit") or {}).items() if not v["ok"]]
        if failed:
            rec["problems"].append(f"trace audits failed: {failed}")
        if workload.flags and not summary.get("audit"):
            rec["problems"].append("no trace audit in summary.json")
    else:
        rec["problems"].append("no summary.json written")
    if "run_s" not in rec:
        rec["problems"].append("the driver never started")
    shutil.rmtree(out, ignore_errors=True)
    return rec


def check_runs(runs: list, workload: Workload, seed: int, pins: dict) -> None:
    """Cross-run checks; each failure is added to the offending run."""
    ref = next((r for r in runs if not r["problems"] and not r["traced"]), None)
    pin = pins["workloads"][workload.name] if seed == DEFAULT_SEED else None
    for r in runs:
        if "digest" not in r:
            continue
        if ref is not None and (r["digest"], r["events"]) != (ref["digest"], ref["events"]):
            kind = "traced" if r["traced"] else "untraced"
            r["problems"].append(
                f"{kind} run gave outputs_sha256 {r['digest']} events {r['events']}, "
                f"first untraced run {ref['digest']} events {ref['events']}")
        if pin is not None:
            if r["digest"] != pin["outputs_sha256"]:
                r["problems"].append(
                    f"outputs_sha256 {r['digest']} != pinned {pin['outputs_sha256']} "
                    f"(pinned on python {pins['python']} numpy {pins['numpy']}, "
                    f"running python {r.get('python')} numpy {r.get('numpy')})")
            if "events" in pin and r["events"] != pin["events"]:
                r["problems"].append(f"events {r['events']} != pinned {pin['events']}")
    # exact counts must repeat across traced runs
    traced = [r for r in runs if r["traced"] and "layers" in r]
    for r in traced[1:]:
        for name, (value, unit) in r["layers"].items():
            first = traced[0]["layers"].get(name)
            if unit == "count" and first is not None and value != first[0]:
                r["problems"].append(f"count {name} = {value}, first traced run {first[0]}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def timing(values: list) -> tuple:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    note = f"median of {n} runs; no tail percentile below n=40"
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            note = f"median of {n} runs; p{q} {cut:.6g}"
            break
    return statistics.median(values), note


def normalised(run: dict, key: str) -> float:
    """The run's time `key` in seconds of the nominal host: scaled by how
    much slower than nominal the reference kernel ran in the same child."""
    return run[key] * reference.NOMINAL_S / run["ref_s"]


def end_to_end(timed: list, workload: Workload) -> dict:
    """{name: (value, unit, note)} of the untraced runs."""
    work = workload.seeds * workload.iterations
    run_s = [normalised(r, "run_s") for r in timed]
    metrics = {
        "run_s": (*timing(run_s), "s"),
        "setup_s": (*timing([normalised(r, "setup_s") for r in timed]), "s"),
        "peak_rss_mb": (*timing([r["peak_rss_mb"] for r in timed]), "MB"),
        "seed_iters_per_s": (*timing([work / t for t in run_s]), "1/s"),
    }
    return {name: (value, unit, note) for name, (value, note, unit) in metrics.items()}


def wall_clock(timed: list) -> dict:
    """{name: (value, unit, note)}: the raw times end_to_end normalises."""
    return {f"{key} (wall)": (*timing([r[key] for r in timed]), "s")
            for key in ("run_s", "setup_s", "ref_s")}


def per_layer(timed: list) -> dict:
    """{name: (value, unit, note)}: medians over the traced runs, plus the
    tracing overhead and the kernel's event rate from the untraced ones."""
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced if name in r["layers"]]
        # counts repeat exactly (check_runs flags it when they do not)
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = (value, unit, f"median of {len(values)} traced runs")
    base = statistics.median(normalised(r, "run_s") for r in plain)
    overhead = statistics.median(normalised(r, "run_s") for r in traced) - base
    pair = (f"median traced minus median untraced run_s, host-speed normalised, "
            f"{len(traced)}+{len(plain)} runs")
    metrics["trace_overhead_s"] = (overhead, "s", pair)
    metrics["trace_overhead_frac"] = (overhead / base, "fraction",
                                      pair + "; base: untraced run_s")
    metrics["sim.events_per_s"] = (
        statistics.median((r["events"] or 0) / r["run_s"] for r in plain), "1/s",
        f"summary.counters.events / untraced run_s, median of {len(plain)} runs")
    return metrics


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(workload: Workload, seed: int, seconds: float, traced_mode: bool,
            work: Path) -> list:
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(workload.scenario(seed), indent=1))
    start = time.monotonic()
    runs = [run_once(work, scenario, workload, False, 0)]  # warm-up
    # traced mode alternates which side of each pair goes first
    order = [False, True, True, False] if traced_mode else [False]
    while True:
        timed = runs[1:]
        if len(timed) >= MIN_TIMED[traced_mode]:
            typical = statistics.median(r["wall_s"] for r in timed)
            if time.monotonic() - start + typical > seconds:
                break
        runs.append(run_once(work, scenario, workload,
                             order[len(timed) % len(order)], len(runs)))
    return runs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "asgd" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'asgd'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced_mode = args.trace == 1
    pins = json.loads((BENCH / "pins.json").read_text())
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runs = measure(workload, args.seed, args.seconds, traced_mode, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_runs(runs, workload, args.seed, pins)

    failed = sum(1 for r in runs if r["problems"])
    timed = [r for r in runs[1:] if not r["problems"]]
    complete = timed and (not traced_mode or
                          {r["traced"] for r in timed} == {False, True})
    metrics = {}
    if complete:
        metrics = per_layer(timed) if traced_mode else end_to_end(timed, workload)
    first = next((r for r in runs if "digest" in r), {})
    env = {"nproc": os.cpu_count(), "cpu": cpu_model(),
           "python": first.get("python"), "numpy": first.get("numpy"),
           "ASGD_THREADS": ENV["ASGD_THREADS"], "commit": git_commit()}

    print(f"workload {workload.name}: driver {workload.driver}, "
          f"{workload.seeds} seeds x {workload.iterations} iterations, "
          f"seed_root {args.seed}{' --trace' if workload.flags else ''}; "
          f"closed loop, 1 client, {len(runs)} runs (1 warm-up)")
    print("env: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    pinned = "checked against pins.json" if args.seed == DEFAULT_SEED else \
        "recorded (non-default seed: compare across commits)"
    print(f"outputs: outputs_sha256={first.get('digest')} events={first.get('events')} "
          f"{pinned}")
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED run: {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}  ({note})")
    if complete and not traced_mode:
        for name, (value, note, unit) in wall_clock(timed).items():
            print(f"{name:40s} {value:.6g} {unit}  ({note}; printed only)")
    if complete and not traced_mode and workload.driver == "event":
        value, note = timing([r["events"] / normalised(r, "run_s") for r in timed])
        print(f"{'events_per_s':40s} {value:.6g} 1/s  ({note}; summary.counters.events "
              "/ run_s; printed only, batch workloads have no events)")
    if complete and traced_mode:
        print("bases: unattributed_frac is unattributed_s / traced_run_s")
        missing = sorted({n for r in timed if r["traced"] for n in r["missing"]})
        if missing:
            absent = sorted({n for r in timed if r["traced"] for n in r["absent"]})
            print(f"absent metrics: {absent} (wrap points not found: {missing})")
    print(f"{'failed_frac':40s} {failed / len(runs):.6g} fraction  "
          f"({failed} of {len(runs)} runs attempted; in the JSON as failed/attempted)")

    result = {
        "correct": failed == 0 and bool(complete),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result, "runs": runs}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry points.

Two commands:

  asgd run SCENARIO.json [--out DIR] [--set key=value ...] [--seeds S] [--trace]
  asgd verify SUITE [--quick]

`run` executes a scenario file (JSON, format "asgd-scenario" version 1) and
writes summary.json plus metrics.csv into the output directory; --trace also
writes one JSONL event trace per seed (event driver only). Exit codes: 0 on
success, 2 for configuration or usage problems, 3 when a run had a liveness
violation (statistics are withheld in that case).

`verify` runs the acceptance criteria in asgd.checks by suite: contraction
(criteria 1, 2, 4 and the shared-level check), variance (criterion 6),
convergence (criterion 7), divergence (criterion 11), or all. It prints one
[PASS]/[FAIL] line per check; --quick trims sample counts and sweeps.
Exit code 0 when every line passed, 1 otherwise.

ASGD_THREADS caps the numpy thread pools; it is applied here before numpy is
first imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LIVENESS = 3

SCENARIO_FORMAT = "asgd-scenario"
SCENARIO_VERSION = 1


def _apply_thread_cap() -> None:
    raw = os.environ.get("ASGD_THREADS", "").strip()
    if not raw:
        return
    cap = int(raw)  # ValueError surfaces as a config error in main()
    if cap < 1:
        raise ValueError(f"ASGD_THREADS must be >= 1, got {raw}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(cap))


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def _fail(field: str, message: str):
    from .sgd import ConfigError

    raise ConfigError(field, message)


def _section(raw: dict, name: str, required: bool = False) -> dict:
    value = raw.get(name)
    if value is None:
        if required:
            _fail(name, "missing section")
        return {}
    if not isinstance(value, dict):
        _fail(name, "must be an object")
    return value


def _get(section: dict, where: str, key: str, kinds, required: bool = False,
         default=None):
    if key not in section:
        if required:
            _fail(f"{where}.{key}", "missing field")
        return default
    value = section[key]
    if kinds is not None and not isinstance(value, kinds):
        _fail(f"{where}.{key}", f"unexpected type {type(value).__name__}")
    return value


def _check_keys(section: dict, where: str, allowed: set) -> None:
    for key in section:
        if key not in allowed:
            _fail(f"{where}.{key}", "unknown field")


def load_scenario(raw: dict):
    """Build (topology, fault_plan, schedule, algorithm, oracle, run_opts)."""
    from . import sim
    from .maa import AggregationRule, MaaOnlyConfig
    from .oracle import OracleSpec
    from .sgd import LrSchedule, SgdConfig, Variant

    if raw.get("format") != SCENARIO_FORMAT:
        _fail("format", f"expected {SCENARIO_FORMAT!r}")
    if raw.get("version") != SCENARIO_VERSION:
        _fail("version", f"expected {SCENARIO_VERSION}")
    _check_keys(raw, "scenario", {"format", "version", "topology", "oracle",
                                  "algorithm", "faults", "schedule", "run"})

    topo_raw = _section(raw, "topology", required=True)
    _check_keys(topo_raw, "topology", {"n", "clusters"})
    clusters = _get(topo_raw, "topology", "clusters", list, required=True)
    topology = sim.Topology(
        n=_get(topo_raw, "topology", "n", int, required=True),
        clusters=tuple(tuple(c) for c in clusters),
    )

    oracle_raw = _section(raw, "oracle", required=True)
    _check_keys(oracle_raw, "oracle",
                {"kind", "dim", "sigma", "mu", "lipschitz", "x_star", "radius"})
    x_star = _get(oracle_raw, "oracle", "x_star", list)
    oracle = OracleSpec(
        kind=_get(oracle_raw, "oracle", "kind", str, required=True),
        dim=_get(oracle_raw, "oracle", "dim", int, required=True),
        sigma=float(_get(oracle_raw, "oracle", "sigma", (int, float), required=True)),
        mu=_get(oracle_raw, "oracle", "mu", (int, float)),
        lipschitz=_get(oracle_raw, "oracle", "lipschitz", (int, float)),
        x_star=tuple(x_star) if x_star is not None else None,
        radius=_get(oracle_raw, "oracle", "radius", (int, float)),
    )

    algo_raw = _section(raw, "algorithm", required=True)
    kind = _get(algo_raw, "algorithm", "kind", str, required=True)
    if kind == "sgd":
        _check_keys(algo_raw, "algorithm",
                    {"kind", "variant", "iterations", "quorum", "x1", "lr",
                     "maa_rule", "agreement_q", "cluster_quorum", "lr_check",
                     "tau", "mark_rounds"})
        variant_name = _get(algo_raw, "algorithm", "variant", str, required=True)
        try:
            variant = Variant(variant_name)
        except ValueError:
            _fail("algorithm.variant", f"unknown variant {variant_name!r}")
        lr_raw = _get(algo_raw, "algorithm", "lr", dict, required=True)
        _check_keys(lr_raw, "algorithm.lr", {"kind", "beta", "gamma", "value"})
        lr = LrSchedule(
            kind=_get(lr_raw, "algorithm.lr", "kind", str, required=True),
            beta=_get(lr_raw, "algorithm.lr", "beta", (int, float)),
            gamma=_get(lr_raw, "algorithm.lr", "gamma", (int, float)),
            value=_get(lr_raw, "algorithm.lr", "value", (int, float)),
        )
        rule_name = _get(algo_raw, "algorithm", "maa_rule", str,
                         default="mid_extremes")
        try:
            rule = AggregationRule(rule_name)
        except ValueError:
            _fail("algorithm.maa_rule", f"unknown rule {rule_name!r}")
        agreement_q = _get(algo_raw, "algorithm", "agreement_q",
                           (str, int, float), default="quarter_lr")
        if not isinstance(agreement_q, str):
            agreement_q = float(agreement_q)
        algorithm = SgdConfig(
            variant=variant,
            iterations=_get(algo_raw, "algorithm", "iterations", int, required=True),
            quorum=_get(algo_raw, "algorithm", "quorum", int, required=True),
            x1=tuple(_get(algo_raw, "algorithm", "x1", list, required=True)),
            lr=lr,
            maa_rule=rule,
            agreement_q=agreement_q,
            cluster_quorum=_get(algo_raw, "algorithm", "cluster_quorum", int),
            lr_check=_get(algo_raw, "algorithm", "lr_check", str, default="strict"),
            tau_override=_get(algo_raw, "algorithm", "tau", int),
            mark_rounds=_get(algo_raw, "algorithm", "mark_rounds", bool,
                             default=False),
        )
    elif kind == "maa_only":
        _check_keys(algo_raw, "algorithm",
                    {"kind", "level", "rule", "q", "inputs", "cluster_quorum",
                     "mark_rounds"})
        rule_name = _get(algo_raw, "algorithm", "rule", str,
                         default="mid_extremes")
        try:
            rule = AggregationRule(rule_name)
        except ValueError:
            _fail("algorithm.rule", f"unknown rule {rule_name!r}")
        inputs = _get(algo_raw, "algorithm", "inputs", list, required=True)
        algorithm = MaaOnlyConfig(
            level=_get(algo_raw, "algorithm", "level", str, required=True),
            rule=rule,
            q=float(_get(algo_raw, "algorithm", "q", (int, float), required=True)),
            inputs=tuple(tuple(row) for row in inputs),
            cluster_quorum=_get(algo_raw, "algorithm", "cluster_quorum", int),
            mark_rounds=_get(algo_raw, "algorithm", "mark_rounds", bool,
                             default=True),
        )
    else:
        _fail("algorithm.kind", f"unknown kind {kind!r}")

    faults_raw = _section(raw, "faults")
    _check_keys(faults_raw, "faults", {"crashes", "partition"})
    crashes = []
    for i, entry in enumerate(_get(faults_raw, "faults", "crashes", list,
                                   default=[])):
        if not isinstance(entry, dict):
            _fail(f"faults.crashes[{i}]", "must be an object")
        _check_keys(entry, f"faults.crashes[{i}]",
                    {"pid", "after_events", "at_iteration"})
        crashes.append(sim.CrashSpec(
            pid=_get(entry, f"faults.crashes[{i}]", "pid", int, required=True),
            after_events=_get(entry, f"faults.crashes[{i}]", "after_events", int),
            at_iteration=_get(entry, f"faults.crashes[{i}]", "at_iteration", int),
        ))
    partition = None
    part_raw = _get(faults_raw, "faults", "partition", dict)
    if part_raw is not None:
        _check_keys(part_raw, "faults.partition",
                    {"side_a", "side_b", "from_event"})
        partition = sim.PartitionSpec(
            side_a=tuple(_get(part_raw, "faults.partition", "side_a", list,
                              required=True)),
            side_b=tuple(_get(part_raw, "faults.partition", "side_b", list,
                              required=True)),
            from_event=_get(part_raw, "faults.partition", "from_event", int,
                            default=0),
        )
    fault_plan = sim.FaultPlan(crashes=tuple(crashes), partition=partition)

    sched_raw = _section(raw, "schedule")
    _check_keys(sched_raw, "schedule", {"max_delay", "event_budget"})
    schedule = sim.Schedule(
        max_delay=_get(sched_raw, "schedule", "max_delay", int, default=4),
        event_budget=_get(sched_raw, "schedule", "event_budget", int,
                          default=10_000_000),
    )

    run_raw = _section(raw, "run")
    _check_keys(run_raw, "run",
                {"driver", "seeds", "seed_root", "quorum_policy",
                 "record_series"})
    run_opts = {
        "driver": _get(run_raw, "run", "driver", str, default="event"),
        "seeds": _get(run_raw, "run", "seeds", int, default=1),
        "seed_root": _get(run_raw, "run", "seed_root", int, default=0),
        "quorum_policy": _get(run_raw, "run", "quorum_policy", str,
                              default="random"),
        "record_series": _get(run_raw, "run", "record_series", bool,
                              default=True),
    }
    if run_opts["driver"] not in ("event", "batch"):
        _fail("run.driver", f"unknown driver {run_opts['driver']!r}")
    if run_opts["seeds"] < 1:
        _fail("run.seeds", "must be >= 1")
    return topology, fault_plan, schedule, algorithm, oracle, run_opts


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one --set key=value override; the value is parsed as JSON when
    possible and kept as a string otherwise."""
    if "=" not in assignment:
        _fail("--set", f"expected key=value, got {assignment!r}")
    key, text = assignment.split("=", 1)
    parts = [p for p in key.split(".") if p]
    if not parts:
        _fail("--set", f"empty key in {assignment!r}")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    import numpy as np

    from . import batch, harness, sim
    from .maa import MaaOnlyConfig
    from .sgd import SgdConfig, validate_config

    raw = json.loads(Path(args.scenario).read_text())
    if not isinstance(raw, dict):
        _fail("scenario", "top level must be an object")
    for assignment in args.set or []:
        apply_override(raw, assignment)
    if args.seeds is not None:
        raw.setdefault("run", {})["seeds"] = args.seeds

    topology, fault_plan, schedule, algorithm, oracle, run_opts = load_scenario(raw)
    warnings = list(validate_config(algorithm, topology, fault_plan, oracle))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)

    digest = sim.config_digest_of(raw)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = run_opts["seeds"]
    seed_root = run_opts["seed_root"]

    summary = {
        "format": "asgd-summary",
        "digest": digest,
        "driver": run_opts["driver"],
        "seeds": seeds,
        "seed_root": seed_root,
        "scenario": raw,
        "warnings": warnings,
    }

    if run_opts["driver"] == "event":
        ensemble = harness.run_event_ensemble(
            topology, fault_plan, schedule, algorithm, oracle,
            seed_root=seed_root, seeds=seeds,
            record_events=args.trace, record_witness=args.trace)
        if args.trace:
            for s, trace in enumerate(ensemble.traces):
                path = outdir / f"trace_{s:04d}.jsonl"
                path.write_text(trace.to_jsonl())
            # asynchrony coverage needs at least two iterations to observe
            props = ["register_semantics", "quorum_composition",
                     "stale_filtering", "participant_monotone",
                     "witness_replay"]
            if isinstance(algorithm, SgdConfig) and algorithm.iterations >= 2:
                props.append("asynchrony_coverage")
            summary["audit"] = sim.audit(ensemble.traces[0], props)
        summary["liveness"] = {"ok": ensemble.ok, "counts": ensemble.liveness}
        if not ensemble.ok:
            summary["stats"] = None
            harness.write_summary(outdir / "summary.json", summary)
            harness.write_csv(outdir / "metrics.csv", [])
            print("liveness violation: statistics withheld "
                  f"(counts: {ensemble.liveness})", file=sys.stderr)
            return EXIT_LIVENESS
        finals = ensemble.outputs_array()
        counters = {}
        for t in ensemble.traces:
            for k, v in t.counters.items():
                counters[k] = counters.get(k, 0) + v
        summary["counters"] = counters
    else:
        if args.trace:
            _fail("--trace", "event traces require run.driver == 'event'")
        if not isinstance(algorithm, SgdConfig):
            _fail("run.driver", "the batch driver only runs sgd algorithms")
        if fault_plan.crashes:
            _fail("faults.crashes", "crash plans require run.driver == 'event'")
        options = batch.BatchOptions(
            seeds=seeds, seed_root=seed_root,
            quorum_policy=run_opts["quorum_policy"],
            partition=fault_plan.partition,
            record_series=run_opts["record_series"])
        result = batch.run_ensemble(topology, algorithm, oracle, options)
        finals = result.outputs
        summary["liveness"] = {"ok": True}
        summary["warnings"] = list(result.warnings)
        if run_opts["record_series"] and result.series:
            summary["series_len"] = {k: len(v) for k, v in result.series.items()}

    internal, pair = harness.internal_err(finals)
    stats = {"internal_err": vars(internal) | {"pair": list(pair)}}
    rows = [harness.csv_row(digest, {"driver": run_opts["driver"]},
                            "internal_err", internal)]
    if oracle.kind == "quadratic":
        external = harness.estimate(harness.per_seed_external_sq(finals, oracle))
        stats["external_err"] = vars(external)
        rows.append(harness.csv_row(digest, {"driver": run_opts["driver"]},
                                    "external_err", external))
    summary["stats"] = stats
    summary["outputs_sha256"] = hashlib.sha256(
        np.ascontiguousarray(finals).tobytes()).hexdigest()

    harness.write_summary(outdir / "summary.json", summary)
    harness.write_csv(outdir / "metrics.csv", rows)
    print(f"ok: {seeds} seed(s), results in {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


# suite -> names of the asgd.checks functions it runs. checks loads numpy, so
# it is imported in _cmd_verify, after main() has applied ASGD_THREADS.
_SUITES = {
    "contraction": ("mid_extremes_stage", "approach_extreme_stage",
                    "cluster_round_contraction", "shared_level_contraction"),
    "variance": ("variance_scaling",),
    "convergence": ("strongly_convex_external_rate",),
    "divergence": ("partition_divergence",),
}


def _cmd_verify(args) -> int:
    from . import checks

    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        for check_name in _SUITES[name]:
            check = getattr(checks, check_name)(args.quick)
            print(f"[{'PASS' if check.ok else 'FAIL'}] {check.name}: {check.detail}",
                  flush=True)
            ok &= check.ok
    print("all checks passed" if ok else "some checks FAILED")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asgd", description="cluster-based distributed SGD simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("scenario", help="path to a scenario JSON file")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="override a scenario field (dotted path)")
    runp.add_argument("--seeds", type=int, default=None,
                      help="shorthand for --set run.seeds=S")
    runp.add_argument("--trace", action="store_true",
                      help="write per-seed event traces (event driver only)")

    verp = sub.add_parser("verify", help="run a built-in checking suite")
    verp.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    verp.add_argument("--quick", action="store_true",
                      help="smaller sample counts")
    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    args = build_parser().parse_args(argv)
    from .sgd import ConfigError

    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

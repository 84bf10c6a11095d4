"""Command line entry points.

Two commands:

  asgd run SCENARIO.json [--out DIR] [--set key=value ...] [--seeds S] [--trace]
  asgd verify SUITE [--quick]

`run` executes a scenario file (JSON, format "asgd-scenario" version 1) and
writes summary.json plus metrics.csv into the output directory; --trace also
writes one JSONL event trace per seed (event driver only) and audits every
seed's trace. run.driver picks the driver, and the rest of the `run` section
is a batch.BatchOptions. Its quorum_policy and record_series apply to the
batch driver only: under the event driver, a value other than the default is
a configuration error. Crash plans need the event driver.

Exit codes: 0 on success; 2 for a configuration or usage error and nothing
else (a ConfigError, whose message names the exact scenario key, an
unreadable file or malformed JSON; any other exception propagates); 3 when
statistics are withheld: a run had a liveness violation, or the seeds
output from different processes (a crash that lands before its process's
output in some seeds only; summary.json then lists output_pids, the
sorted pids per seed); 4 when a trace audit failed on some seed
(outputs are still written and summary.json names the seed; exit 3 takes
precedence).

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
import dataclasses
import enum
import hashlib
import json
import os
import sys
import types
import typing
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_WITHHELD = 3
EXIT_AUDIT = 4

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
    from .sim import ConfigError  # sim loads numpy, after ASGD_THREADS is applied

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


def _unknown(where: str, value: str):
    # "algorithm.maa_rule" -> "unknown rule 'x'", "algorithm.kind" -> "unknown kind 'x'"
    _fail(where, f"unknown {where.rsplit('.', 1)[-1].rsplit('_', 1)[-1]} {value!r}")


def _json_type(tp):
    """The JSON value type(s) accepted for a field annotated `tp`."""
    if typing.get_origin(tp) is tuple:
        return list
    if dataclasses.is_dataclass(tp):
        return dict
    if issubclass(tp, enum.Enum):
        return str
    if tp is float:
        return (int, float)
    return tp


def _accepts(tp, value) -> bool:
    # a JSON boolean is a Python bool, an int to isinstance, but only a bool
    # field takes it
    return isinstance(value, _json_type(tp)) and (tp is bool or not isinstance(value, bool))


def _value(tp, value, where: str):
    """Check one JSON value against the annotation `tp`; return it converted."""
    # X | None accepts what X accepts: an absent key takes the default, and
    # an explicit null is a type error
    union = isinstance(tp, types.UnionType)
    options = [a for a in typing.get_args(tp) if a is not type(None)] if union else [tp]
    tp = next((a for a in options if _accepts(a, value)), None)
    if tp is None:
        _fail(where, f"unexpected type {type(value).__name__}")
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        read = _read if dataclasses.is_dataclass(item) else _value
        return tuple(read(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return _read(tp, value, where)
    if issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            _unknown(where, value)
    if tp is float:
        # json reads NaN and Infinity; an int this large would overflow float()
        if not -sys.float_info.max <= value <= sys.float_info.max:
            _fail(where, "must be finite")
        return float(value)
    return value


def _read(cls, raw, where: str):
    """Build the config dataclass `cls` from the JSON object `raw`.

    The keys are the class's fields, a key left out takes the field's
    default, and each value is checked and converted by its annotation.
    A ConfigError from the class's own checks, which names a field relative
    to the class, is raised again with `where` in front.
    """
    from .sim import ConfigError

    if not isinstance(raw, dict):
        _fail(where, "must be an object")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in raw:
        if key not in names:
            _fail(f"{where}.{key}", "unknown field")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in raw:
            kwargs[f.name] = _value(hints[f.name], raw[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            _fail(f"{where}.{f.name}", "missing field")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc.field}" if exc.field else where, exc.message) from exc


def load_scenario(raw: dict):
    """Build (topology, fault_plan, schedule, algorithm, oracle, driver, options).

    Each section is read into its config class (see `_read`); the two keys
    that are not fields pick what runs: algorithm.kind the algorithm's
    class, run.driver the driver. The rest of `run` is a
    batch.BatchOptions, whose seeds and seed_root both drivers read.
    """
    from . import sim
    from .batch import BatchOptions
    from .maa import MaaOnlyConfig
    from .oracle import OracleSpec
    from .sgd import SgdConfig

    if raw.get("format") != SCENARIO_FORMAT:
        _fail("format", f"expected {SCENARIO_FORMAT!r}")
    if raw.get("version") != SCENARIO_VERSION:
        _fail("version", f"expected {SCENARIO_VERSION}")
    for key in raw:
        if key not in ("format", "version", "topology", "oracle", "algorithm",
                       "faults", "schedule", "run"):
            _fail(f"scenario.{key}", "unknown field")

    topology = _read(sim.Topology, _section(raw, "topology", required=True), "topology")
    oracle = _read(OracleSpec, _section(raw, "oracle", required=True), "oracle")
    algo_raw = dict(_section(raw, "algorithm", required=True))
    if "kind" not in algo_raw:
        _fail("algorithm.kind", "missing field")
    kind = _value(str, algo_raw.pop("kind"), "algorithm.kind")
    classes = {"sgd": SgdConfig, "maa_only": MaaOnlyConfig}
    if kind not in classes:
        _unknown("algorithm.kind", kind)
    algorithm = _read(classes[kind], algo_raw, "algorithm")
    fault_plan = _read(sim.FaultPlan, _section(raw, "faults"), "faults")
    schedule = _read(sim.Schedule, _section(raw, "schedule"), "schedule")
    run_raw = dict(_section(raw, "run"))
    driver = _value(str, run_raw.pop("driver", "event"), "run.driver")
    if driver not in ("event", "batch"):
        _unknown("run.driver", driver)
    options = _read(BatchOptions, run_raw, "run")
    # the driver rules: what one driver takes and the other does not
    if driver == "event":
        for name in ("quorum_policy", "record_series"):
            if getattr(options, name) != getattr(BatchOptions, name):
                _fail(f"run.{name}", "batch driver only; run.driver is 'event'")
    elif fault_plan.crashes:
        _fail("faults.crashes", "crash plans require run.driver == 'event'")
    return topology, fault_plan, schedule, algorithm, oracle, driver, options


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
    for i, part in enumerate(parts[:-1]):
        nxt = node.get(part)
        if nxt is None:  # a null section is an absent one, as _section reads it
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            _fail(".".join(parts[:i + 1]), "must be an object")
        node = nxt
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def _audit_seeds(traces, algorithm, topology) -> dict:
    """Audit every seed's trace on each property in sim.AUDITS, asynchrony
    only where two processes and two iterations can show it and every seed's
    run completed (a blocked run's failure would restate its liveness
    failure). Per property: ok over all seeds; the detail is seed 0's when
    all pass, else the first failing seed's, named."""
    from . import sim
    from .sgd import SgdConfig

    shows = (isinstance(algorithm, SgdConfig) and algorithm.iterations >= 2
             and topology.n >= 2 and all(trace.liveness["ok"] for trace in traces))
    props = [p for p in sim.AUDITS if p != "asynchrony_coverage" or shows]
    reports = [sim.audit(trace, props) for trace in traces]
    audit = {}
    for prop in props:
        failed = [s for s, report in enumerate(reports) if not report[prop]["ok"]]
        if failed:
            audit[prop] = {"ok": False, "detail": (
                f"seed {failed[0]} ({len(failed)} of {len(reports)} seeds failed): "
                f"{reports[failed[0]][prop]['detail']}")}
        else:
            audit[prop] = reports[0][prop]
    return audit


def _start_output(out: str, summary: dict, warnings: list[str]) -> Path:
    """Record and print the warnings of the driver's validate_config pass,
    then create the output directory. Each driver validates before its first
    step, so a config error leaves no directory behind."""
    summary["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _cmd_run(args) -> int:
    import numpy as np

    from . import batch, harness, sim

    raw = json.loads(Path(args.scenario).read_text())
    if not isinstance(raw, dict):
        _fail("scenario", "top level must be an object")
    for assignment in args.set or []:
        apply_override(raw, assignment)
    if args.seeds is not None:
        apply_override(raw, f"run.seeds={args.seeds}")

    topology, fault_plan, schedule, algorithm, oracle, driver, options = load_scenario(raw)
    digest = sim.config_digest_of(raw)
    summary = {
        "format": "asgd-summary",
        "digest": digest,
        "driver": driver,
        "seeds": options.seeds,
        "seed_root": options.seed_root,
        "scenario": raw,
    }

    if driver == "event":
        ensemble = harness.run_event_ensemble(
            topology, fault_plan, schedule, algorithm, oracle,
            seed_root=options.seed_root, seeds=options.seeds, record=args.trace)
        outdir = _start_output(args.out, summary, ensemble.warnings)
        if args.trace:
            for s, trace in enumerate(ensemble.traces):
                path = outdir / f"trace_{s:04d}.jsonl"
                path.write_bytes(trace.to_jsonl().encode("ascii"))
            summary["audit"] = _audit_seeds(ensemble.traces, algorithm, topology)
        summary["liveness"] = {"ok": ensemble.ok, "counts": ensemble.liveness}
        withheld = ensemble.withheld()
        if withheld:
            message, fields = withheld
            summary.update(fields, stats=None)
            harness.write_summary(outdir / "summary.json", summary)
            harness.write_csv(outdir / "metrics.csv", [])
            print(message, file=sys.stderr)
            return EXIT_WITHHELD
        finals = ensemble.outputs_array()
        counters = {}
        for t in ensemble.traces:
            for k, v in t.counters.items():
                counters[k] = counters.get(k, 0) + v
        summary["counters"] = counters
    else:
        if args.trace:
            _fail("--trace", "event traces require run.driver == 'event'")
        result = batch.run_ensemble(topology, algorithm, oracle, options,
                                    fault_plan.partition)
        outdir = _start_output(args.out, summary, result.warnings)
        finals = result.outputs
        summary["liveness"] = {"ok": True}
        if result.series:
            summary["series_len"] = {k: len(v) for k, v in result.series.items()}

    internal, pair = harness.internal_err(finals)
    stats = {"internal_err": vars(internal) | {"pair": list(pair)}}
    rows = [harness.csv_row(digest, {"driver": driver}, "internal_err", internal)]
    if oracle.kind == "quadratic":
        external = harness.estimate(harness.per_seed_external_sq(finals, oracle))
        stats["external_err"] = vars(external)
        rows.append(harness.csv_row(digest, {"driver": driver}, "external_err", external))
    summary["stats"] = stats
    summary["outputs_sha256"] = hashlib.sha256(
        np.ascontiguousarray(finals).tobytes()).hexdigest()

    harness.write_summary(outdir / "summary.json", summary)
    harness.write_csv(outdir / "metrics.csv", rows)
    failed = [f"{k}: {v['detail']}" for k, v in summary.get("audit", {}).items()
              if not v["ok"]]
    if failed:
        print("trace audit failed: " + "; ".join(failed), file=sys.stderr)
        return EXIT_AUDIT
    print(f"ok: {options.seeds} seed(s), results in {outdir}")
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
    from .sim import ConfigError

    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_verify(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the asgd package from outside the package:
every public module-level function of the eight modules in MODULES, plus the
private helpers and methods in EXTRA_POINTS that the per-layer metrics need.
Each wrapper records a span: its duration, and the part of it that child
spans covered. A layer's self time is its spans' duration minus their
children. Spans are kept as running sums in memory; nothing is written
until the run ends.

Wrap points are resolved by name. A name that no longer resolves is listed
in `Tracer.missing`, and every metric that needs it is left out of the
report, so a renamed helper costs its metric, not the run.

Program steps are spans too: `sgd.build_programs` hands the kernel proxies
whose `send` is timed, so the kernel's self time excludes the programs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("vecmath", "oracle", "sim", "maa", "sgd", "batch", "harness", "cli")
ENTRY_POINT = "asgd.cli.main"  # calls everything else; a span on it explains nothing
DRIVERS = ("asgd.harness.run_event_ensemble", "asgd.batch.run_ensemble")
EXTRA_POINTS = (
    "asgd.sim.RunTrace.to_jsonl",
    "asgd.sim.WitnessRecorder.mid",
    "asgd.batch._predraw_noise",
    "asgd.batch._sample_quorums",
    "asgd.batch._sequential_mean",
    "asgd.batch._compose_sm_maps",
    "asgd.batch._record_head",
)
STEP = "asgd.sgd.<program step>"
BATCH_DRIVER = "asgd.batch.run_ensemble"
# Points whose outermost spans are summed into one time; inner calls of the
# same group (internal_err calls estimate) are not counted twice. The batch
# driver is a group of its own so that hooks can tell they run inside it.
GROUPS = {
    "asgd.harness.estimate": "harness.stats",
    "asgd.harness.internal_err": "harness.stats",
    "asgd.harness.per_seed_external_sq": "harness.stats",
    "asgd.harness.write_summary": "harness.export",
    "asgd.harness.write_csv": "harness.export",
    BATCH_DRIVER: BATCH_DRIVER,
}


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, original, replacement) -> None:
        """Swap `original` for `replacement` on `owner`; when the owner is a
        module, also every asgd module global bound to the same object (the
        `from .x import f` copies)."""
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            for name in MODULES:
                module = importlib.import_module(f"asgd.{name}")
                targets += [(module, key) for key, val in vars(module).items()
                            if val is original and (module, key) != (owner, attr)]
        for obj, key in targets:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, replacement)

    def restore(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)


def resolve(name: str):
    """(owner, attribute, function) for a dotted wrap point, or None."""
    parts = name.split(".")
    try:
        owner = importlib.import_module(".".join(parts[:2]))
    except ImportError:
        return None
    for part in parts[2:-1]:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    fn = vars(owner).get(parts[-1])
    if not inspect.isfunction(fn):
        return None
    return owner, parts[-1], fn


def public_points() -> list[str]:
    points = []
    for name in MODULES:
        module = importlib.import_module(f"asgd.{name}")
        for attr, val in vars(module).items():
            if (inspect.isfunction(val) and val.__module__ == module.__name__
                    and not attr.startswith("_")):
                points.append(f"{module.__name__}.{attr}")
    return [p for p in points if p != ENTRY_POINT]


def mark_drivers(patches: Patches, on_start) -> None:
    """Call `on_start()` when the first driver call begins."""
    for name in DRIVERS:
        found = resolve(name)
        if found is None:
            continue
        owner, attr, fn = found

        @functools.wraps(fn)
        def marked(*args, _fn=fn, **kwargs):
            on_start()
            return _fn(*args, **kwargs)

        patches.replace(owner, attr, fn, marked)


class _Step:
    """A process program whose steps are timed as spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, tracer, gen):
        self._gen = gen
        self._tracer = tracer

    def send(self, value):  # the only generator method the kernel calls
        return self._tracer.call(STEP, "sgd", self._gen.send, (value,), {})


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def _after_sim_run(tracer, args, kwargs, trace):
    if tracer.first_run is None:
        tracer.first_run = (args, kwargs)
    counters = trace.counters
    tracer.counts["sim.events"] += counters.get("events", 0)
    tracer.counts["sim.register_ops"] += (counters.get("register_writes", 0)
                                          + counters.get("register_reads", 0))
    tracer.counts["sim.deliveries"] += counters.get("deliveries", 0)
    tracer.counts["sim.wakeups"] += counters.get("wakeups", 0)
    return trace


def _after_build_programs(tracer, args, kwargs, result):
    programs, tau = result
    return [_Step(tracer, gen) for gen in programs], tau


def _after_required_rounds(tracer, args, kwargs, rounds):
    if _arg(args, kwargs, 2, "level") == "cluster" and tracer.depth[BATCH_DRIVER]:
        tracer.counts["batch.rounds"] += rounds
    return rounds


def _after_compose_sm_maps(tracer, args, kwargs, maps):
    clusters = _arg(args, kwargs, 2, "clusters")
    rounds_outer = _arg(args, kwargs, 3, "rounds_outer")
    tracer.counts["batch.sm_stages"] += clusters * rounds_outer
    return maps


def _after_sequential_mean(tracer, args, kwargs, mean):
    if tracer.depth[BATCH_DRIVER]:
        tracer.counts["batch.iterations"] += 1
    return mean


AFTER = {
    "asgd.sim.run": _after_sim_run,
    "asgd.sgd.build_programs": _after_build_programs,
    "asgd.maa.required_rounds": _after_required_rounds,
    "asgd.batch._compose_sm_maps": _after_compose_sm_maps,
    "asgd.batch._sequential_mean": _after_sequential_mean,
}


class Tracer:
    """Running sums of spans and counts over the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.module_self = defaultdict(float)
        self.module_calls = Counter()
        self.group_s = defaultdict(float)
        self.depth = Counter()
        self.counts = Counter()
        self.sim_run_s: list[float] = []
        self.toplevel: list[tuple[float, float]] = []  # (start, duration)
        self.first_run = None  # (args, kwargs) of the first sim.run call
        self.wrapped: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches = Patches()

    # -- spans ----------------------------------------------------------

    def call(self, name, module, fn, args, kwargs):
        group = GROUPS.get(name)
        if group:
            self.depth[group] += 1
        frame = [0.0]
        self._stack.append(frame)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            after = AFTER.get(name)
            return after(self, args, kwargs, result) if after else result
        finally:
            elapsed = time.monotonic() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            else:
                self.toplevel.append((start, elapsed))
            self.calls[name] += 1
            self.incl[name] += elapsed
            self.self_s[name] += elapsed - frame[0]
            self.module_self[module] += elapsed - frame[0]
            self.module_calls[module] += 1
            if name == "asgd.sim.run":
                self.sim_run_s.append(elapsed)
            if group:
                self.depth[group] -= 1
                if not self.depth[group]:
                    self.group_s[group] += elapsed

    def _wrapper(self, name, fn):
        module = fn.__module__.rsplit(".", 1)[-1]
        if inspect.isgeneratorfunction(fn):
            # creating a generator runs none of its body: count calls only
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                self.module_calls[module] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, module, fn, args, kwargs)
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name in public_points() + list(EXTRA_POINTS):
            found = resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            self._patches.replace(owner, attr, fn, self._wrapper(name, fn))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- report ---------------------------------------------------------

    def toplevel_after(self, start: float) -> float:
        return sum(d for s, d in self.toplevel if s >= start)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _module_metrics(module: str):
    return [
        (f"{module}.self_s", "s", (), lambda t, x: t.module_self[module]),
        (f"{module}.calls", "count", (), lambda t, x: t.module_calls[module]),
    ]


_SIM_RUN = "asgd.sim.run"
_BUILD = "asgd.sgd.build_programs"
_B = "asgd.batch."
_V = "asgd.vecmath."
_PER_ITER_HELPERS = (_B + "_predraw_noise", _B + "_sample_quorums",
                     _B + "_sequential_mean", _B + "_record_head")

# (name, unit, wrap points it needs, value from (tracer, extra)). `extra`
# holds what the traced child measures around the tracer: run_s (driver
# start to summary written, traced) and log_s.
METRICS = [
    ("sim.events", "count", (_SIM_RUN,), lambda t, x: t.counts["sim.events"]),
    ("sim.register_ops", "count", (_SIM_RUN,), lambda t, x: t.counts["sim.register_ops"]),
    ("sim.deliveries", "count", (_SIM_RUN,), lambda t, x: t.counts["sim.deliveries"]),
    ("sim.wakeups", "count", (_SIM_RUN,), lambda t, x: t.counts["sim.wakeups"]),
    ("sim.run_s_p50", "s", (_SIM_RUN,), lambda t, x: percentile(t.sim_run_s, 50)),
    ("sim.run_s_p90", "s", (_SIM_RUN,), lambda t, x: percentile(t.sim_run_s, 90)),
    ("sim.kernel_self_s", "s", (_SIM_RUN, _BUILD), lambda t, x: t.self_s[_SIM_RUN]),
    ("sim.kernel_self_us_per_event", "us", (_SIM_RUN, _BUILD),
     lambda t, x: _ratio(t.self_s[_SIM_RUN], t.counts["sim.events"], 1e6)),
    ("sim.log_s", "s", (_SIM_RUN,), lambda t, x: x["log_s"]),
    ("sim.to_jsonl_s", "s", ("asgd.sim.RunTrace.to_jsonl",),
     lambda t, x: t.incl["asgd.sim.RunTrace.to_jsonl"]),
    ("sim.audit_s", "s", ("asgd.sim.audit",), lambda t, x: t.incl["asgd.sim.audit"]),
    ("sim.derive_streams_s", "s", ("asgd.sim.derive_streams",),
     lambda t, x: t.incl["asgd.sim.derive_streams"]),
    *_module_metrics("sim"),
    ("sgd.step_self_s", "s", (_BUILD,), lambda t, x: t.self_s[STEP]),
    ("sgd.steps", "count", (_BUILD,), lambda t, x: t.calls[STEP]),
    ("sgd.validate_config_calls", "count", ("asgd.sgd.validate_config",),
     lambda t, x: t.calls["asgd.sgd.validate_config"]),
    *_module_metrics("sgd"),
    ("maa.required_rounds_calls", "count", ("asgd.maa.required_rounds",),
     lambda t, x: t.calls["asgd.maa.required_rounds"]),
    ("maa.required_rounds_s", "s", ("asgd.maa.required_rounds",),
     lambda t, x: t.incl["asgd.maa.required_rounds"]),
    ("maa.witness_mid_calls", "count", ("asgd.sim.WitnessRecorder.mid",),
     lambda t, x: t.calls["asgd.sim.WitnessRecorder.mid"]),
    *_module_metrics("maa"),
    ("vecmath.extreme_pair_s", "s", (_V + "extreme_pair",),
     lambda t, x: t.incl[_V + "extreme_pair"]),
    ("vecmath.extreme_pair_calls", "count", (_V + "extreme_pair",),
     lambda t, x: t.calls[_V + "extreme_pair"]),
    ("vecmath.farthest_index_s", "s", (_V + "farthest_index",),
     lambda t, x: t.incl[_V + "farthest_index"]),
    ("vecmath.as_point_set_s", "s", (_V + "as_point_set",),
     lambda t, x: t.incl[_V + "as_point_set"]),
    ("vecmath.batched_mid_extremes_s", "s", (_V + "batched_mid_extremes",),
     lambda t, x: t.incl[_V + "batched_mid_extremes"]),
    ("vecmath.batched_mid_extremes_calls", "count", (_V + "batched_mid_extremes",),
     lambda t, x: t.calls[_V + "batched_mid_extremes"]),
    ("vecmath.batched_mid_extremes_us_per_call", "us", (_V + "batched_mid_extremes",),
     lambda t, x: _ratio(t.incl[_V + "batched_mid_extremes"],
                         t.calls[_V + "batched_mid_extremes"], 1e6)),
    ("vecmath.batched_approach_extreme_s", "s", (_V + "batched_approach_extreme",),
     lambda t, x: t.incl[_V + "batched_approach_extreme"]),
    *_module_metrics("vecmath"),
    ("oracle.stochastic_grad_s", "s", ("asgd.oracle.stochastic_grad",),
     lambda t, x: t.incl["asgd.oracle.stochastic_grad"]),
    ("oracle.stochastic_grad_calls", "count", ("asgd.oracle.stochastic_grad",),
     lambda t, x: t.calls["asgd.oracle.stochastic_grad"]),
    ("oracle.grad_s", "s", ("asgd.oracle.grad",), lambda t, x: t.incl["asgd.oracle.grad"]),
    ("oracle.grad_calls", "count", ("asgd.oracle.grad",),
     lambda t, x: t.calls["asgd.oracle.grad"]),
    *_module_metrics("oracle"),
    ("batch.iterations", "count", (BATCH_DRIVER, _B + "_sequential_mean"),
     lambda t, x: t.counts["batch.iterations"]),
    ("batch.rounds", "count", (BATCH_DRIVER, "asgd.maa.required_rounds"),
     lambda t, x: t.counts["batch.rounds"]),
    ("batch.sm_stages", "count", (_B + "_compose_sm_maps",),
     lambda t, x: t.counts["batch.sm_stages"]),
    ("batch.compose_sm_maps_s", "s", (_B + "_compose_sm_maps",),
     lambda t, x: t.incl[_B + "_compose_sm_maps"]),
    ("batch.sample_quorums_s", "s", (_B + "_sample_quorums",),
     lambda t, x: t.incl[_B + "_sample_quorums"]),
    ("batch.predraw_noise_s", "s", (_B + "_predraw_noise",),
     lambda t, x: t.incl[_B + "_predraw_noise"]),
    ("batch.record_head_s", "s", (_B + "_record_head",),
     lambda t, x: t.incl[_B + "_record_head"]),
    ("batch.sequential_mean_s", "s", (_B + "_sequential_mean",),
     lambda t, x: t.incl[_B + "_sequential_mean"]),
    ("batch.per_iter_us", "us", (BATCH_DRIVER, _B + "_sequential_mean"),
     lambda t, x: _ratio(t.incl[BATCH_DRIVER], t.counts["batch.iterations"], 1e6)),
    ("batch.per_round_us", "us",
     (BATCH_DRIVER, "asgd.maa.required_rounds") + _PER_ITER_HELPERS,
     lambda t, x: _ratio(t.incl[BATCH_DRIVER]
                         - sum(t.incl[p] for p in _PER_ITER_HELPERS),
                         t.counts["batch.rounds"], 1e6)),
    *_module_metrics("batch"),
    ("harness.stats_s", "s", ("asgd.harness.estimate", "asgd.harness.internal_err",
                              "asgd.harness.per_seed_external_sq"),
     lambda t, x: t.group_s["harness.stats"]),
    ("harness.export_s", "s", ("asgd.harness.write_summary", "asgd.harness.write_csv"),
     lambda t, x: t.group_s["harness.export"]),
    *_module_metrics("harness"),
    ("cli.load_s", "s", ("asgd.cli.load_scenario",),
     lambda t, x: t.incl["asgd.cli.load_scenario"]),
    *_module_metrics("cli"),
    ("traced_run_s", "s", (), lambda t, x: x["run_s"]),
    ("unattributed_s", "s", (), lambda t, x: x["run_s"] - t.toplevel_after(x["driver_start"])),
    ("unattributed_frac", "fraction", (),
     lambda t, x: _ratio(x["run_s"] - t.toplevel_after(x["driver_start"]), x["run_s"])),
]


def layer_metrics(tracer: Tracer, extra: dict) -> tuple[dict, list[str]]:
    """({name: [value, unit]}, [names left out because a wrap point is missing])."""
    values, absent = {}, []
    for name, unit, needs, fn in METRICS:
        if any(p not in tracer.wrapped for p in needs):
            absent.append(name)
            continue
        values[name] = [fn(tracer, extra), unit]
    return values, absent

"""The benchmark's tracer finds every function its per-layer metrics need,
and the benchmark's scenarios load.

perfbench/tracer.py wraps asgd functions by dotted name, and a name that no
longer resolves only drops the metrics that need it from the report. This
test loads the tracer as it is and fails on such a rename, so the tier-1
suite catches it; perfbench/test_tracing.py covers traced runs. The
workloads of perfbench/run.py are checked the same way: a scenario key the
loader no longer accepts fails here, not only in a benchmark run. So is the
batch.iterations counter, which counts batch._sequential_mean calls: each
batch variant must make one per iteration; and the batch.sm_stages counter,
which reads batch._compose_sm_maps's clusters and rounds by position.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from asgd import batch, cli, sim
from asgd.maa import required_rounds
from asgd.oracle import OracleSpec
from asgd.sgd import LrSchedule, SgdConfig, Variant

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_wrap_point_resolves():
    tracer = _load_tracer()
    needed = {point for _, _, needs, _ in tracer.METRICS for point in needs}
    installed = {point for point in tracer.public_points() + list(tracer.EXTRA_POINTS)
                 if tracer.resolve(point) is not None}
    assert sorted(needed - installed) == []
    assert [p for p in tracer.EXTRA_POINTS + tracer.DRIVERS if tracer.resolve(p) is None] == []


def test_the_stage_counter_reads_the_composers_clusters_and_rounds_by_position():
    # the batch driver passes them positionally, so a reorder of the
    # parameters would miscount batch.sm_stages without a missing name
    tracer = _load_tracer()
    assert tracer.AFTER["asgd.batch._compose_sm_maps"] is tracer._after_compose_sm_maps
    params = list(inspect.signature(batch._compose_sm_maps).parameters)
    assert params[2:4] == ["clusters", "rounds_outer"]


def test_the_stage_counter_sees_each_iterations_clusters_and_rounds(monkeypatch):
    # batch.sm_stages adds clusters * rounds_outer from the composer's
    # positional arguments 2 and 3, so every call must pass the cluster count
    # and its iteration's agreement rounds there
    calls = []
    compose = batch._compose_sm_maps

    def spied(*args, **kwargs):
        calls.append((args[2:4], kwargs))
        return compose(*args, **kwargs)

    monkeypatch.setattr(batch, "_compose_sm_maps", spied)
    conf = SgdConfig(variant=Variant.NON_CONVEX, iterations=6, quorum=1, x1=(0.5, -0.5),
                     lr=LrSchedule(kind="decreasing", beta=1.0, gamma=0.0),
                     agreement_q="quarter_lr", lr_check="warn")
    spec = OracleSpec(kind="quadratic", dim=2, sigma=1.0, mu=1.0, lipschitz=1.0)
    batch.run_ensemble(sim.Topology(6, ((0, 1), (2, 3), (4, 5))), conf, spec,
                       batch.BatchOptions(seeds=2, record_series=False))
    rounds = [required_rounds(conf.q_at(t), conf.maa_rule, "cluster")
              for t in range(1, conf.iterations + 1)]
    assert len(set(rounds)) > 1  # the count must come from the iteration
    assert calls == [((3, r), {}) for r in rounds]


def test_every_workload_scenario_loads_with_its_driver(perfbench_run):
    assert perfbench_run.WORKLOADS
    for name, workload in perfbench_run.WORKLOADS.items():
        driver = cli.load_scenario(workload.scenario(0))[5]
        assert driver == workload.driver, name


@pytest.mark.parametrize("variant", list(Variant))
def test_the_iteration_counter_sees_one_mean_per_iteration(variant, monkeypatch):
    # batch.iterations counts the calls of batch._sequential_mean through the
    # module attribute inside run_ensemble, so each variant must make exactly
    # one such call per iteration
    calls = []
    mean = batch._sequential_mean

    def counted(gathered):
        calls.append(gathered.shape)
        return mean(gathered)

    monkeypatch.setattr(batch, "_sequential_mean", counted)
    iterations = 5
    conf = SgdConfig(variant=variant, iterations=iterations, quorum=2, x1=(0.5, -0.5),
                     lr=LrSchedule(kind="constant", value=0.05), agreement_q=0.5,
                     lr_check="warn")
    spec = OracleSpec(kind="quadratic", dim=2, sigma=1.0, mu=1.0, lipschitz=1.0)
    batch.run_ensemble(sim.Topology(4, ((0, 1), (2, 3))), conf, spec,
                       batch.BatchOptions(seeds=3, record_series=False))
    assert len(calls) == iterations

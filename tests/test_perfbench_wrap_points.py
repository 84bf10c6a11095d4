"""The benchmark's tracer finds every function its per-layer metrics need,
and the benchmark's scenarios load.

perfbench/tracer.py wraps asgd functions by dotted name, and a name that no
longer resolves only drops the metrics that need it from the report. This
test loads the tracer as it is and fails on such a rename, so the tier-1
suite catches it; perfbench/test_tracing.py covers traced runs. The
workloads of perfbench/run.py are checked the same way: a scenario key the
loader no longer accepts fails here, not only in a benchmark run. So is the
batch.iterations counter, which counts batch._sequential_mean calls: each
batch variant must make one per iteration.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from asgd import batch, cli, sim
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


def test_every_workload_scenario_loads_with_its_driver(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports reference
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks itself up in sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert module.WORKLOADS
    for name, workload in module.WORKLOADS.items():
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

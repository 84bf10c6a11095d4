"""The benchmark's tracer finds every function its per-layer metrics need.

perfbench/tracer.py wraps asgd functions by dotted name, and a name that no
longer resolves only drops the metrics that need it from the report. This
test loads the tracer as it is and fails on such a rename, so the tier-1
suite catches it; perfbench/test_tracing.py covers traced runs.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

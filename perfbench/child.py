"""Run one `asgd run` in this fresh interpreter and write a timing report.

    python3 perfbench/child.py REPORT SPAWNED TRACED ASGD_ARG...

REPORT is the JSON file to write. SPAWNED is the parent's time.monotonic()
taken just before it started this process; both processes read the same
system-wide monotonic clock on Linux, so setup_s covers interpreter start.
TRACED is 1 to install the span tracer. The reference kernel
(reference.py) is timed once before cli.main, which setup_s leaves out, and
once after the run. The asgd package is imported from
the src directory of the checkout that holds this file, never from an
installed copy.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _log_cost(first_run) -> float:
    """The first seed's sim.run with recording on minus off, untraced: the
    median over three adjacent on/off pairs, alternating which goes first."""
    from asgd import sim

    args, kwargs = first_run
    diffs = []
    for i in range(3):
        took = {}
        for record in (i % 2 == 0, i % 2 == 1):
            options = dict(kwargs, record_events=record, record_witness=record)
            start = time.monotonic()
            sim.run(*args, **options)
            took[record] = time.monotonic() - start
        diffs.append(took[True] - took[False])
    return statistics.median(diffs)


def main() -> int:
    report_path, spawned, traced = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, str(SRC))
    import asgd

    if Path(asgd.__file__).resolve().parent != SRC / "asgd":
        print(f"error: imported asgd from {asgd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracer as tr
    from asgd import cli

    driver_start = []

    def on_driver_start():
        if not driver_start:
            driver_start.append(time.monotonic())

    spans = None
    if traced:
        spans = tr.Tracer()
        spans.install()
    markers = tr.Patches()
    tr.mark_drivers(markers, on_driver_start)
    ref_before = reference.run()
    code = cli.main(argv)
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    markers.restore()
    ref_after = reference.run()

    import numpy

    report = {"exit": code, "peak_rss_mb": peak_rss_mb,
              "ref_s": (ref_before + ref_after) / 2.0,
              "python": platform.python_version(), "numpy": numpy.__version__}
    if driver_start:
        report["setup_s"] = driver_start[0] - spawned - ref_before
        report["run_s"] = end - driver_start[0]
    if spans is not None:
        spans.uninstall()
        recorded = "--trace" in argv and spans.first_run is not None
        extra = {"run_s": report.get("run_s", 0.0),
                 "driver_start": driver_start[0] if driver_start else end,
                 "log_s": _log_cost(spans.first_run) if recorded else 0.0}
        report["layers"], report["absent"] = tr.layer_metrics(spans, extra)
        report["missing"] = spans.missing
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the asgd command line interface."""

import json
import os
import re
from pathlib import Path

import pytest

from asgd import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _run(args):
    return cli.main([str(a) for a in args])


def test_run_event_scenario(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["liveness"]["ok"]
    assert summary["stats"]["external_err"]["count"] == 3
    assert summary["stats"]["internal_err"]["mean"] >= 0.0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "config,axes,stat,mean,stderr,n_seeds"
    assert len(lines) == 3  # internal + external rows


def test_run_set_override_and_seeds(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path,
                 "--set", "algorithm.iterations=8", "--seeds", 2])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"]["algorithm"]["iterations"] == 8
    assert summary["seeds"] == 2


def test_run_trace_writes_jsonl_and_audit(tmp_path):
    code = _run(["run", SCENARIOS / "maa_shared.json",
                 "--out", tmp_path, "--trace", "--seeds", 2])
    assert code == 0
    assert (tmp_path / "trace_0000.jsonl").exists()
    assert (tmp_path / "trace_0001.jsonl").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(entry["ok"] for entry in summary["audit"].values())


def test_run_batch_scenario(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_batch.json",
                 "--out", tmp_path, "--set", "run.seeds=20",
                 "--set", "algorithm.iterations=32"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["driver"] == "batch"
    assert summary["stats"]["external_err"]["count"] == 20


def test_run_crash_scenario_completes(tmp_path):
    code = _run(["run", SCENARIOS / "maa_cluster_crash.json",
                 "--out", tmp_path, "--seeds", 1])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["liveness"]["counts"] == {"completed": 1}


def test_config_error_exits_2(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.quorum=99"])
    assert code == 2
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.bogus=1"])
    assert code == 2
    code = _run(["run", tmp_path / "missing.json", "--out", tmp_path])
    assert code == 2


def test_trace_with_batch_driver_exits_2(tmp_path):
    code = _run(["run", SCENARIOS / "sc_quadratic_batch.json",
                 "--out", tmp_path, "--trace"])
    assert code == 2


def test_liveness_violation_exits_3(tmp_path):
    code = _run(["run", SCENARIOS / "liveness_blocked.json",
                 "--out", tmp_path])
    assert code == 3
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["stats"] is None
    assert not summary["liveness"]["ok"]
    assert summary["liveness"]["counts"] == {"blocked": 2}


def test_cli_outputs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", out_a]) == 0
    assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", out_b]) == 0
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_x1_dimension_error_exits_2(tmp_path, capsys):
    code = _run(["run", SCENARIOS / "sc_quadratic_event.json",
                 "--out", tmp_path, "--set", "algorithm.x1=[0.3]"])
    assert code == 2
    assert "algorithm.x1" in capsys.readouterr().err


def test_thread_cap_env(monkeypatch, tmp_path):
    for var in ("ASGD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restored after the test
    before = dict(os.environ)
    cli._apply_thread_cap()
    assert dict(os.environ) == before

    monkeypatch.setenv("ASGD_THREADS", "2")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")  # setdefault keeps it
    cli._apply_thread_cap()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["MKL_NUM_THREADS"] == "3"

    for bad in ("0", "abc"):
        monkeypatch.setenv("ASGD_THREADS", bad)
        assert _run(["run", SCENARIOS / "sc_quadratic_event.json",
                     "--out", tmp_path]) == 2


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_verify_quick(suite, capsys):
    code = _run(["verify", suite, "--quick"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "all checks passed"
    checks = lines[:-1]
    assert len(checks) == len(cli._SUITES[suite])
    assert all(re.match(r"\[PASS\] [^:]+: \S", line) for line in checks), checks

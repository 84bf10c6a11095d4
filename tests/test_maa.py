"""Agreement machinery: round counts, scripted schedules, witnesses.

The scripted executor here drives the shared-memory stage by hand, without
the event kernel, so the frozen expected values are an independent check on
the aggregation logic itself.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from schedutil import run_scripted

from asgd import checks, harness, sim
from asgd.maa import (
    AggregationRule,
    MaaOnlyConfig,
    STAGE_TARGET,
    required_rounds,
    witness_coefficients,
)

MID = AggregationRule.MID_EXTREMES
APPROACH = AggregationRule.APPROACH_EXTREME


# ---------------------------------------------------------------------------
# Round counts
# ---------------------------------------------------------------------------

def test_required_rounds_frozen_values():
    assert required_rounds(1 / 6, MID, "shared") == 14
    assert required_rounds(1 / 6, APPROACH, "shared") == 57
    assert required_rounds(1 / 10, APPROACH, "shared") == 73
    assert required_rounds(1 / 6, MID, "cluster") == 43
    assert required_rounds(1 / 10, APPROACH, "cluster") == 184
    assert required_rounds(1.0, MID, "shared") == 0
    assert required_rounds(1.0, APPROACH, "cluster") == 0


def test_required_rounds_matches_log_formula_off_boundary():
    rng = random.Random(7)
    factors = {
        (MID, "shared"): 7 / 8, (APPROACH, "shared"): 31 / 32,
        (MID, "cluster"): 23 / 24, (APPROACH, "cluster"): 79 / 80,
    }
    for _ in range(200):
        q = rng.uniform(1e-4, 0.999)
        rule = rng.choice([MID, APPROACH])
        level = rng.choice(["shared", "cluster"])
        expect = math.ceil(math.log(q) / math.log(factors[(rule, level)]))
        assert required_rounds(q, rule, level) == expect, (q, rule, level)


def test_required_rounds_exact_on_power_boundary():
    # 0.875**3 is an exact dyadic float, so the answer must be exactly 3,
    # where a log-ratio version can round up to 4.
    assert required_rounds(0.875 ** 3, MID, "shared") == 3
    assert required_rounds(0.96875 ** 5, APPROACH, "shared") == 5


def test_required_rounds_rejects_bad_targets():
    for bad in (0.0, -0.5, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            required_rounds(bad, MID, "shared")
    with pytest.raises(ValueError):
        required_rounds(0.5, MID, "nowhere")


# ---------------------------------------------------------------------------
# Scripted shared-memory executor (kernel-free oracle; see schedutil.py)
# ---------------------------------------------------------------------------

def test_scripted_two_process_frozen_outputs():
    # p1 runs to completion before p0 starts: p1 never sees p0's cells.
    order = [1] * 8 + [0] * 8
    for rule in (MID, APPROACH):
        results, cells, witness = run_scripted([0.0, 1.0], 2, rule, order)
        assert results[1][0][0] == 1.0
        assert results[0][0][0] == 0.75
        # registers after the run: A2 = {0.5, 1.0}, A3 = {0.75, 1.0}
        assert cells[(2, 0)][0][0] == 0.5 and cells[(2, 1)][0][0] == 1.0
        assert cells[(3, 0)][0][0] == 0.75 and cells[(3, 1)][0][0] == 1.0


def test_scripted_witness_coefficients_and_replay():
    order = [1] * 8 + [0] * 8
    results, _, witness = run_scripted([0.0, 1.0], 2, MID, order)
    value, node = results[0]
    coeffs = witness_coefficients(witness, node)
    # 0.75 = (1/4) * x0 + (3/4) * x1 over the two input nodes
    assert sorted(coeffs.values()) == [Fraction(1, 4), Fraction(3, 4)]
    assert sum(coeffs.values()) == 1
    assert witness.replay(node).tobytes() == value.tobytes()


def test_random_schedules_contract_per_round():
    # Whatever the interleaving, consecutive register generations contract
    # by the rule's factor, because every collect contains the first-written
    # value of its round.
    rng = random.Random(2024)
    for rule, factor in ((MID, 7 / 8), (APPROACH, 31 / 32)):
        for trial in range(120):
            n = rng.randint(2, 5)
            inputs = [rng.uniform(-3, 3) for _ in range(n)]
            rounds = rng.randint(1, 6)
            results, cells, _ = run_scripted(inputs, rounds, rule, rng)
            lo, hi = min(inputs), max(inputs)
            for pid, (value, _) in results.items():
                assert lo - 1e-12 <= value[0] <= hi + 1e-12
            for r in range(1, rounds + 1):
                cur = [cells[(r, p)][0][0] for p in range(n)]
                nxt = [cells[(r + 1, p)][0][0] for p in range(n)]
                span_cur = max(cur) - min(cur)
                span_nxt = max(nxt) - min(nxt)
                assert span_nxt <= factor * span_cur + 1e-12, (rule, trial, r)


def test_shared_level_contraction_on_event_kernel():
    # the same property on the event kernel's own interleavings, through the
    # check `asgd verify contraction` runs
    check = checks.shared_level_contraction()
    assert check.ok, check.detail


def test_cluster_round_contraction_detail_states_its_counts(monkeypatch):
    # doctor one run's report (two zero-diameter rounds grew back) and one
    # run's outputs (target q missed): the detail must print both counts
    real_report, real_run = harness.contraction_report, sim.run
    doctored = {"report": False, "run": False}

    def report(trace, rule):
        reps = real_report(trace, rule)
        if not doctored["report"]:
            doctored["report"] = True
            reps["cmaa"] = dataclasses.replace(reps["cmaa"], expanded_zero_rounds=2)
        return reps

    def run(*args, **kwargs):
        trace = real_run(*args, **kwargs)
        if not doctored["run"]:
            doctored["run"] = True
            trace.outputs[0] = trace.outputs[0] + 100.0
        return trace

    monkeypatch.setattr(harness, "contraction_report", report)
    monkeypatch.setattr(sim, "run", run)
    check = checks.cluster_round_contraction(quick=True)
    assert not check.ok
    assert check.name == "criterion-04 cluster round contraction"
    assert "2 zero-diameter rounds grew back" in check.detail, check.detail
    assert "1 runs missed their target q" in check.detail, check.detail


def test_random_schedules_witness_convexity():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 4)
        inputs = [rng.uniform(-1, 1) for _ in range(n)]
        results, _, witness = run_scripted(inputs, 3, MID, rng)
        for pid, (value, node) in results.items():
            coeffs = witness_coefficients(witness, node)
            assert sum(coeffs.values()) == 1
            assert all(c >= 0 for c in coeffs.values())
            assert witness.replay(node).tobytes() == value.tobytes()


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------

def test_stage_targets():
    assert STAGE_TARGET[MID] == Fraction(1, 6)
    assert STAGE_TARGET[APPROACH] == Fraction(1, 10)


def test_maa_only_config_validation():
    with pytest.raises(ValueError):
        MaaOnlyConfig(level="sideways", rule=MID, q=0.5, inputs=((0.0,),))
    with pytest.raises(ValueError):
        MaaOnlyConfig(level="shared", rule=MID, q=0.0, inputs=((0.0,),))
    with pytest.raises(ValueError):
        MaaOnlyConfig(level="shared", rule=MID, q=0.5, inputs=((0.0,), (0.0, 1.0)))

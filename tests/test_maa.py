"""Agreement machinery: round counts, scripted schedules, witnesses.

The scripted executor here drives the shared-memory stage by hand, without
the event kernel, so the frozen expected values are an independent check on
the aggregation logic itself.
"""

import dataclasses
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from schedutil import run_scripted

from asgd import checks, harness, maa, sim
from asgd.maa import (
    AggregationRule,
    MaaOnlyConfig,
    STAGE_TARGET,
    required_rounds,
)
from asgd.vecmath import as_point_set, pair_list, pair_sq

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
    coeffs = witness.coefficients(node)
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
            coeffs = witness.coefficients(node)
            assert sum(coeffs.values()) == 1
            assert all(c >= 0 for c in coeffs.values())
            assert witness.replay(node).tobytes() == value.tobytes()


def _fraction_coefficients(witness, node):
    """WitnessRecorder.coefficients as first written, with one Fraction per
    pending weight: the reference for the integer version."""
    pending = {node: Fraction(1)}
    coeffs = {}
    for idx in range(node, -1, -1):
        weight = pending.pop(idx, None)
        if weight is None:
            continue
        record = witness.nodes[idx]
        if record[0] == "input":
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + weight
        else:
            _, a, b = record
            pending[a] = pending.get(a, Fraction(0)) + weight / 2
            pending[b] = pending.get(b, Fraction(0)) + weight / 2
    return coeffs


def test_witness_coefficients_equal_the_fraction_reference():
    order = [1] * 8 + [0] * 8
    results, _, witness = run_scripted([0.0, 1.0], 2, MID, order)
    for _, node in results.values():
        assert witness.coefficients(node) == _fraction_coefficients(witness, node)

    rng = random.Random(7)
    for _ in range(40):
        # random DAGs: parents drawn anywhere below, so paths of unequal
        # length meet, and mid(a, a) occurs
        witness = sim.WitnessRecorder()
        for _ in range(rng.randint(1, 4)):
            witness.input(np.array([rng.random()]))
        for _ in range(rng.randint(0, 300)):
            top = len(witness.nodes) - 1
            a = rng.randint(max(0, top - 6), top)
            b = a if rng.random() < 0.05 else rng.randint(0, top)
            witness.mid(a, b)
        for node in (len(witness.nodes) - 1, rng.randrange(len(witness.nodes))):
            got = witness.coefficients(node)
            assert got == _fraction_coefficients(witness, node)
            assert sum(got.values()) == 1
            assert all(isinstance(c, Fraction) for c in got.values())


# ---------------------------------------------------------------------------
# The aggregation step on one or two payloads
# ---------------------------------------------------------------------------

def _reference_mid_extremes(ctx, payloads):
    """The general path: as_point_set, the extreme pair of the pair-list
    scan that extreme_pair stands for, then the midpoint."""
    vals = as_point_set([p[0] for p in payloads])
    first, second = pair_list(vals.shape[0])
    best = int(pair_sq(vals).argmax())
    i0, j0 = int(first[best]), int(second[best])
    return (vals[i0] + vals[j0]) / 2.0, ctx.witness.mid(payloads[i0][1], payloads[j0][1])


def _witnessed(values):
    """A context whose witness holds one input node per value, and the
    (value, node) payloads."""
    ctx = types.SimpleNamespace(witness=sim.WitnessRecorder())
    return ctx, [(v, ctx.witness.input(np.asarray(v, dtype=np.float64)))
                 for v in values]


def _assert_aggregate_is_the_general_path(values, rule=MID):
    ctx, payloads = _witnessed(values)
    ref_ctx, ref_payloads = _witnessed(values)
    value = np.zeros(np.shape(values[0]))
    with np.errstate(invalid="ignore", over="ignore"):
        got, node = maa._aggregate(ctx, rule, value, -1, payloads)
        want, want_node = _reference_mid_extremes(ref_ctx, ref_payloads)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), [np.asarray(v).tolist() for v in values]
    assert node == want_node
    assert ctx.witness.nodes[node] == ref_ctx.witness.nodes[want_node]


EDGE_PAIRS = [
    ([1.0, -2.0], [1.0, -2.0]),            # equal points
    ([0.0, -0.0], [-0.0, 0.0]),            # signed zeros
    ([-0.0, -0.0], [0.0, 0.0]),
    ([1e-170, 0.0], [3e-170, 0.0]),        # the square underflows to 0
    ([5e-324, 0.0], [0.0, -5e-324]),
    ([1e-160, 0.0], [0.0, 0.0]),           # a subnormal square
    ([1e300, 0.0], [-1e300, 0.0]),         # the square and the sum overflow
    ([math.nan, 0.0], [1.0, 0.0]),         # NaN in point 0
    ([0.0, 0.0], [math.nan, 0.0]),         # NaN in point 1
    ([math.nan, 0.0], [math.nan, 0.0]),
    ([0.0, math.inf], [0.0, math.inf]),    # inf in point 0 (inf - inf)
    ([0.0, -math.inf], [0.0, 5.0]),
    ([0.0, 0.0], [-math.inf, 0.0]),        # inf in point 1
    ([math.inf, 0.0], [-math.inf, 0.0]),
]


@pytest.mark.parametrize("p0,p1", EDGE_PAIRS)
def test_aggregate_on_edge_pairs_is_the_general_path(p0, p1):
    a, b = np.array(p0), np.array(p1)
    _assert_aggregate_is_the_general_path([a, b])
    _assert_aggregate_is_the_general_path([b, a])
    _assert_aggregate_is_the_general_path([a])
    _assert_aggregate_is_the_general_path([b])


@pytest.mark.parametrize("d", [1, 2, 5])
def test_aggregate_on_random_pairs_is_the_general_path(d):
    rng = np.random.default_rng(d)
    for _ in range(300):
        a = rng.standard_normal(d) * 10.0 ** rng.integers(-200, 200)
        b = a + rng.standard_normal(d) * 10.0 ** rng.integers(-200, 10)
        if rng.random() < 0.2:
            b = a.copy()
        _assert_aggregate_is_the_general_path([a, b])
        _assert_aggregate_is_the_general_path([a])


def _counting_as_point_set(monkeypatch):
    calls = []

    def counted(points):
        calls.append(len(points))
        return as_point_set(points)

    monkeypatch.setattr(maa, "as_point_set", counted)
    return calls


def test_aggregate_fast_path_skips_as_point_set(monkeypatch):
    calls = _counting_as_point_set(monkeypatch)
    _assert_aggregate_is_the_general_path([np.array([1.0, 2.0])])
    _assert_aggregate_is_the_general_path([np.array([1.0, 2.0]), np.array([3.0, 0.5])])
    assert calls == []


@pytest.mark.parametrize("values", [
    [np.array([1, 2]), np.array([4, -3])],               # integer arrays
    [np.array([1, 2])],
    [[1.0, 2.0], [4.0, -3.0]],                           # lists
    [[1.0, 2.0]],
    [np.array([1.0, 2.0]), [4.0, -3.0]],                 # one of each
    [np.array([1.0, 2.0], dtype=np.float32), np.array([4.0, -3.0])],
    [np.array([1.0, 2.0]), np.array([4.0, -3.0]), np.array([0.0, 0.0])],
])
def test_aggregate_other_payloads_take_the_general_path(monkeypatch, values):
    calls = _counting_as_point_set(monkeypatch)
    _assert_aggregate_is_the_general_path(values)
    assert calls == [len(values)]


@pytest.mark.parametrize("values", [
    [np.array([1.0, 2.0]), np.array([3.0])],
    [np.array([1.0]), np.array([2.0, 3.0])],
    [np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])],
    [np.array([[1.0, 2.0]])],                            # not a vector
])
@pytest.mark.parametrize("rule", [MID, APPROACH])
def test_aggregate_rejects_mixed_dimensions(values, rule):
    ctx = types.SimpleNamespace(witness=sim.WitnessRecorder())
    with pytest.raises(ValueError):
        maa._aggregate(ctx, rule, np.zeros(2), -1, [(v, -1) for v in values])


def test_aggregate_approach_extreme_takes_the_general_path(monkeypatch):
    calls = _counting_as_point_set(monkeypatch)
    ctx, payloads = _witnessed([np.array([1.0, 2.0]), np.array([4.0, -3.0])])
    got, node = maa._aggregate(ctx, APPROACH, np.array([0.0, 0.0]), 0, payloads)
    assert got.tolist() == [2.0, -1.5]
    assert ctx.witness.nodes[node] == ("mid", 0, 1)
    assert calls == [2]


# ---------------------------------------------------------------------------
# Config surface
# ---------------------------------------------------------------------------

def test_stage_targets():
    assert STAGE_TARGET[MID] == Fraction(1, 6)
    assert STAGE_TARGET[APPROACH] == Fraction(1, 10)


def test_maa_only_config_validation():
    with pytest.raises(sim.ConfigError):
        MaaOnlyConfig(level="sideways", rule=MID, q=0.5, inputs=((0.0,),))
    with pytest.raises(sim.ConfigError):
        MaaOnlyConfig(level="shared", rule=MID, q=0.0, inputs=((0.0,),))
    with pytest.raises(sim.ConfigError):
        MaaOnlyConfig(level="shared", rule=MID, q=0.5, inputs=((0.0,), (0.0, 1.0)))

"""Algorithm configs: validation, schedules, averaging order."""

import numpy as np
import pytest

from asgd import batch, sim
from asgd.maa import AggregationRule, MaaOnlyConfig
from asgd.oracle import OracleSpec
from asgd.sgd import (
    ConfigError,
    LrSchedule,
    SgdConfig,
    Variant,
    _ordered_average,
    validate_config,
)

QUAD = OracleSpec(kind="quadratic", dim=2, sigma=1.0, mu=1.0, lipschitz=4.0)
TOPO = sim.Topology(n=4, clusters=((0, 1), (2, 3)))
NO_FAULTS = sim.FaultPlan()


def sc_config(**kw):
    base = dict(variant=Variant.STRONGLY_CONVEX, iterations=10, quorum=2,
                x1=(1.0, 1.0), lr=LrSchedule(kind="decreasing", beta=2.0, gamma=8.0))
    base.update(kw)
    return SgdConfig(**base)


def test_lr_schedule_values():
    lr = LrSchedule(kind="decreasing", beta=2.0, gamma=8.0)
    assert lr.eta(1) == 2.0 / 9.0
    assert lr.eta(10) == 2.0 / 18.0
    const = LrSchedule(kind="constant", value=0.05)
    assert const.eta(1) == const.eta(100) == 0.05


def test_lr_schedule_validation():
    with pytest.raises(ConfigError):
        LrSchedule(kind="linear", value=0.1)
    with pytest.raises(ConfigError):
        LrSchedule(kind="decreasing", beta=0.0, gamma=1.0)
    with pytest.raises(ConfigError):
        LrSchedule(kind="constant", value=0.0)


def test_config_field_validation():
    with pytest.raises(ConfigError):
        sc_config(iterations=0)
    with pytest.raises(ConfigError):
        sc_config(quorum=0)
    with pytest.raises(ConfigError):
        sc_config(lr_check="maybe")
    with pytest.raises(ConfigError):
        sc_config(agreement_q=1.5)
    with pytest.raises(ConfigError):
        sc_config(tau=11)


def test_agreement_q_quarter_rule():
    conf = sc_config(variant=Variant.NON_CONVEX,
                     lr=LrSchedule(kind="constant", value=0.05))
    assert conf.q_at(1) == 0.05 / 4
    fixed = sc_config(variant=Variant.NON_CONVEX, agreement_q=0.25,
                      lr=LrSchedule(kind="constant", value=0.05))
    assert fixed.q_at(3) == 0.25


def test_quorum_bound_is_a_hard_error():
    plan = sim.FaultPlan(crashes=(sim.CrashSpec(pid=0, after_events=1),))
    conf = sc_config(quorum=4)
    with pytest.raises(ConfigError) as err:
        validate_config(conf, TOPO, plan, QUAD)
    assert err.value.field == "algorithm.quorum"
    # N = n - f is fine
    assert validate_config(sc_config(quorum=3), TOPO, plan, QUAD) == []


def test_x1_dimension_checked():
    with pytest.raises(ConfigError) as err:
        validate_config(sc_config(x1=(1.0,)), TOPO, NO_FAULTS, QUAD)
    assert err.value.field == "algorithm.x1"


def test_lr_bounds_strict_vs_warn():
    # eta_1 = 1.0 > 1/L = 0.25 for the strongly convex variant
    hot = sc_config(lr=LrSchedule(kind="constant", value=1.0))
    with pytest.raises(ConfigError):
        validate_config(hot, TOPO, NO_FAULTS, QUAD)
    warnings = validate_config(sc_config(lr=LrSchedule(kind="constant", value=1.0),
                                         lr_check="warn"),
                               TOPO, NO_FAULTS, QUAD)
    assert any("1/L" in w for w in warnings)
    # beta must exceed 1/mu for the decreasing schedule
    slow = sc_config(lr=LrSchedule(kind="decreasing", beta=0.5, gamma=10.0))
    with pytest.raises(ConfigError):
        validate_config(slow, TOPO, NO_FAULTS, QUAD)


def test_non_convex_bounds_and_premise_warning():
    conf = sc_config(variant=Variant.NON_CONVEX,
                     lr=LrSchedule(kind="constant", value=0.2))
    with pytest.raises(ConfigError):  # 0.2 > 1/(4L) = 0.0625
        validate_config(conf, TOPO, NO_FAULTS, QUAD)
    ok = sc_config(variant=Variant.NON_CONVEX,
                   lr=LrSchedule(kind="constant", value=0.05))
    warnings = validate_config(ok, TOPO, NO_FAULTS, QUAD)
    assert any("16 L^2 N" in w for w in warnings)  # T = 10 is tiny
    below = sc_config(variant=Variant.NON_CONVEX, cluster_quorum=1,
                      lr=LrSchedule(kind="constant", value=0.05))
    warnings = validate_config(below, TOPO, NO_FAULTS, QUAD)
    assert any("majority" in w for w in warnings)


def test_maa_only_config_validated_against_topology():
    conf = MaaOnlyConfig(level="cluster", rule=AggregationRule.MID_EXTREMES,
                         q=0.5, inputs=((0.0, 0.0),) * 3)
    with pytest.raises(ConfigError):
        validate_config(conf, TOPO, NO_FAULTS, QUAD)


def test_maa_only_inputs_take_the_oracle_dimension():
    # the run's statistics read the oracle's dimension, so the inputs' must match
    flat = MaaOnlyConfig(level="cluster", q=0.5, inputs=((0.0,),) * 4)
    with pytest.raises(ConfigError) as err:
        validate_config(flat, TOPO, NO_FAULTS, QUAD)
    assert str(err.value) == "algorithm.inputs: dimension 1 != oracle dimension 2"
    plane = MaaOnlyConfig(level="cluster", q=0.5, inputs=((0.0, 0.0),) * 4)
    assert validate_config(plane, TOPO, NO_FAULTS, QUAD) == []


def _crash_at(iteration):
    return sim.FaultPlan(crashes=(sim.CrashSpec(pid=3, at_iteration=iteration),))


def test_a_crash_iteration_that_no_process_marks_is_a_hard_error():
    # a program marks iterations 1..T+1 (SGD) or 1 (maa_only); a crash at
    # any other iteration would never fire
    maa_only = MaaOnlyConfig(level="cluster", q=0.5, inputs=((0.0, 0.0),) * 4)
    for conf, last in ((sc_config(iterations=3), 4), (maa_only, 1)):
        for bad in (0, last + 1):
            with pytest.raises(ConfigError) as err:
                validate_config(conf, TOPO, _crash_at(bad), QUAD)
            assert str(err.value) == (f"faults.crashes[0].at_iteration: "
                                      f"must be in [1, {last}], got {bad}")
        for good in (1, last):
            validate_config(conf, TOPO, _crash_at(good), QUAD)
        trace = sim.run(TOPO, _crash_at(last), sim.Schedule(), conf, QUAD, 5)
        assert [(rec["p"], rec["trigger"]) for rec in trace.events if rec["k"] == "crash"] \
            == [(3, f"at_iteration={last}")]
        assert 3 not in trace.outputs and trace.liveness["ok"]


def test_ordered_average_ignores_arrival_order():
    msgs = [(2, np.array([1.0, 0.0])), (0, np.array([0.5, 0.25])),
            (1, np.array([-1.0, 2.0]))]
    a = _ordered_average(list(msgs))
    b = _ordered_average(list(reversed(msgs)))
    assert a.tobytes() == b.tobytes()


def _mean_as_first_written(gathered):
    """batch._sequential_mean before both drivers shared one kernel."""
    total = gathered[..., 0, :].copy()
    for j in range(1, gathered.shape[-2]):
        total += gathered[..., j, :]
    return total / gathered.shape[-2]


def test_one_mean_kernel_gives_both_drivers_the_same_bits():
    # a sender-sorted message list (event driver) and a stacked axis -2
    # (batch driver) go through one kernel; edge values make the summation
    # order show: signed zeros, +-inf, NaN, overflow and cancellation
    rng = np.random.default_rng(17)
    edge = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                     5e-324, 1.0, -3.0, 0.1])
    for count in range(1, 7):
        for _ in range(150):
            vecs = np.where(rng.random((count, 3)) < 0.5,
                            rng.choice(edge, size=(count, 3)),
                            rng.normal(size=(count, 3)))
            before = vecs.copy()
            msgs = [(int(p), vecs[p]) for p in rng.permutation(count)]  # arrival order
            with np.errstate(invalid="ignore", over="ignore"):
                event = _ordered_average(msgs)
                stacked = batch._sequential_mean(vecs[None, None])[0, 0]
                want = _mean_as_first_written(vecs[None, None])[0, 0]
            assert event.tobytes() == stacked.tobytes() == want.tobytes()
            assert vecs.tobytes() == before.tobytes()

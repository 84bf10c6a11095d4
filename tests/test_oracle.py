"""Oracle tests: finite-difference gradients, noise statistics, baselines."""

import copy

import numpy as np
import pytest

from asgd.oracle import (
    OracleSpec,
    clamp,
    grad,
    noise,
    sequential_sgd,
    smoothness_constants,
    stochastic_grad,
    value,
)
from asgd.sim import ConfigError

QUAD = OracleSpec(kind="quadratic", dim=2, sigma=1.0, mu=1.0, lipschitz=4.0)
WELL = OracleSpec(kind="double_well", dim=2, sigma=0.3, radius=2.0)


def finite_difference_grad(spec, x, h=1e-6):
    """Independent oracle: central differences on the loss."""
    out = np.zeros_like(x)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (value(spec, x + step) - value(spec, x - step)) / (2 * h)
    return out


@pytest.mark.parametrize("spec", [QUAD, WELL], ids=["quadratic", "double_well"])
def test_grad_matches_finite_differences(spec):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-1.8, 1.8, size=spec.dim)
        g = grad(spec, x)
        fd = finite_difference_grad(spec, x)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(g - fd).max() / scale < 1e-6


def test_quadratic_known_gradient():
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=2.0, lipschitz=2.0,
                      x_star=(0.0, 0.0))
    assert grad(spec, np.array([1.0, 0.0])).tolist() == [2.0, 0.0]


def test_quadratic_realizes_both_extreme_curvatures():
    assert QUAD.curvatures.tolist() == [1.0, 4.0]
    info = smoothness_constants(QUAD)
    assert info.lipschitz == 4.0 and info.strong_convexity == 1.0


def test_curvatures_are_built_once_and_read_only():
    spec = OracleSpec(kind="quadratic", dim=3, sigma=0.0, mu=1.0, lipschitz=3.0)
    first = spec.curvatures
    assert spec.curvatures is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 5.0
    assert first.tolist() == [1.0, 2.0, 3.0]
    assert not OracleSpec(kind="quadratic", dim=1, sigma=0.0, mu=2.0,
                          lipschitz=2.0).curvatures.flags.writeable


def test_double_well_smoothness_for_radius_two():
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.0, radius=2.0)
    assert smoothness_constants(spec).lipschitz == 44.0


def test_double_well_minimum_is_zero_at_wells():
    x = np.array([1.0, -1.0])
    assert value(WELL, x) == 0.0
    assert grad(WELL, x).tolist() == [0.0, 0.0]


def test_dim1_quadratic_requires_equal_constants():
    with pytest.raises(ConfigError):
        OracleSpec(kind="quadratic", dim=1, sigma=0.0, mu=1.0, lipschitz=4.0)


def test_noise_total_variance_matches_sigma():
    rng = np.random.default_rng(42)
    spec = OracleSpec(kind="quadratic", dim=4, sigma=0.7, mu=1.0, lipschitz=1.0)
    draws = np.array([noise(spec, rng) for _ in range(20000)])
    total_var = draws.var(axis=0).sum()
    assert abs(total_var - 0.49) < 0.02
    # per-coordinate variance sigma^2 / d
    assert np.abs(draws.var(axis=0) - 0.49 / 4).max() < 0.01


def test_stochastic_grad_is_unbiased():
    rng = np.random.default_rng(3)
    x = np.array([0.4, -0.2])
    samples = np.array([stochastic_grad(WELL, x, rng) for _ in range(20000)])
    assert np.abs(samples.mean(axis=0) - grad(WELL, x)).max() < 0.01


def test_stochastic_grad_is_grad_plus_noise():
    rng = np.random.default_rng(5)
    twin = copy.deepcopy(rng)
    x = np.array([0.5, 0.5])
    g = stochastic_grad(QUAD, x, rng)
    assert g.tobytes() == (grad(QUAD, x) + noise(QUAD, twin)).tobytes()


def test_clamp_respects_radius():
    x = np.array([3.0, -5.0])
    assert clamp(WELL, x).tolist() == [2.0, -2.0]
    assert clamp(QUAD, x) is x


def test_sequential_sgd_matches_closed_form_when_noiseless():
    # With sigma=0 the quadratic recursion has the exact closed form
    # x_{t+1} - x* = prod_t (1 - eta_t a) (x_1 - x*), computed here
    # independently coordinate by coordinate.
    spec = OracleSpec(kind="quadratic", dim=2, sigma=0.0, mu=1.0, lipschitz=4.0,
                      x_star=(0.5, -0.5))
    x1 = np.array([2.0, 2.0])
    schedule = lambda t: 2.0 / (8.0 + t)
    out = sequential_sgd(spec, x1, 20, schedule, batch_size=1,
                         rng=np.random.default_rng(0))
    # The closed form groups the float ops differently, so compare with a
    # tight relative tolerance rather than bitwise.
    expected = spec.target + x1 - spec.target
    for t in range(1, 21):
        expected = spec.target + (1 - schedule(t) * spec.curvatures) * (expected - spec.target)
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)


def test_sequential_sgd_batch_mean_reduces_variance():
    spec = OracleSpec(kind="quadratic", dim=1, sigma=1.0, mu=1.0, lipschitz=1.0)
    finals_b1, finals_b16 = [], []
    for s in range(300):
        finals_b1.append(sequential_sgd(spec, np.zeros(1), 30, lambda t: 0.1, 1,
                                        np.random.default_rng((1, s))))
        finals_b16.append(sequential_sgd(spec, np.zeros(1), 30, lambda t: 0.1, 16,
                                         np.random.default_rng((2, s))))
    v1 = np.var(np.array(finals_b1))
    v16 = np.var(np.array(finals_b16))
    assert v16 < v1 / 4  # expect ~16x reduction, allow slack


def test_sequential_sgd_double_well_lands_both_sides():
    spec = OracleSpec(kind="double_well", dim=1, sigma=0.3, radius=1.5)
    finals = np.array([
        sequential_sgd(spec, np.zeros(1), 400, lambda t: 0.01, 1,
                       np.random.default_rng((9, s)))[0]
        for s in range(300)
    ])
    near_plus = np.mean(np.abs(finals - 1.0) < 0.3)
    near_minus = np.mean(np.abs(finals + 1.0) < 0.3)
    assert near_plus + near_minus > 0.95
    assert 0.35 < near_plus < 0.65

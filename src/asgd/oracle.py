"""Loss oracles: deterministic gradients plus seeded Gaussian noise.

Two model problems are supported:

- "quadratic": Q(x) = 0.5 (x - x*)' A (x - x*) with diagonal A whose entries
  are spread linearly over [mu, L], so both extreme curvatures are realized
  exactly.
- "double_well": Q(x) = sum_i (x_i^2 - 1)^2 on the clamp box
  ||x||_inf <= radius. Iterates are projected back onto the box after every
  update; the smoothness constant is computed for the box.

Stochastic gradients add isotropic Gaussian noise with per-coordinate variance
sigma^2 / d (total variance sigma^2). Every draw consumes exactly one
standard_normal(d) call from the supplied generator, so per-process streams
line up across the event simulator, the batched driver, and the sequential
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .sim import ConfigError


@dataclass(frozen=True)
class SmoothnessInfo:
    """Curvature constants exposed by an oracle."""

    lipschitz: float
    strong_convexity: float | None


@dataclass(frozen=True)
class OracleSpec:
    """Configuration of a loss oracle.

    kind "quadratic" uses mu, lipschitz, x_star; kind "double_well" uses
    radius. sigma is the total standard deviation of the gradient noise and
    dim the problem dimension.
    """

    kind: str
    dim: int
    sigma: float
    mu: float | None = None
    lipschitz: float | None = None
    x_star: tuple[float, ...] | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "double_well"):
            raise ConfigError("kind", f"unknown kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError("dim", f"must be >= 1, got {self.dim}")
        if self.sigma < 0:
            raise ConfigError("sigma", f"must be >= 0, got {self.sigma}")
        if self.kind == "quadratic":
            if self.mu is None or self.lipschitz is None:
                raise ConfigError("", "quadratic kind requires mu and lipschitz")
            if not (0 < self.mu <= self.lipschitz):
                raise ConfigError(
                    "mu", f"need 0 < mu <= lipschitz, got mu={self.mu} lipschitz={self.lipschitz}")
            if self.dim == 1 and self.mu != self.lipschitz:
                raise ConfigError("", "dim=1 quadratic cannot realize mu != lipschitz")
            if self.x_star is not None and len(self.x_star) != self.dim:
                raise ConfigError("x_star", "dimension mismatch")
        else:
            if self.radius is None or self.radius <= 0:
                raise ConfigError("radius", "double_well kind requires radius > 0")

    @cached_property
    def curvatures(self) -> np.ndarray:
        """Diagonal curvature of the quadratic oracle, built once per spec
        (every quadratic gradient reads it) and read-only."""
        if self.kind != "quadratic":
            raise ValueError("curvatures only defined for the quadratic oracle")
        if self.dim == 1:
            curv = np.array([self.mu])
        else:
            curv = np.linspace(self.mu, self.lipschitz, self.dim)
        curv.flags.writeable = False
        return curv

    @property
    def target(self) -> np.ndarray:
        if self.x_star is None:
            return np.zeros(self.dim)
        return np.asarray(self.x_star, dtype=np.float64)

    @property
    def noise_scale(self) -> float:
        """Per-coordinate noise standard deviation."""
        return self.sigma / np.sqrt(self.dim)


def smoothness_constants(spec: OracleSpec) -> SmoothnessInfo:
    """Curvature constants for the oracle (box-restricted for double_well)."""
    if spec.kind == "quadratic":
        return SmoothnessInfo(
            lipschitz=float(spec.lipschitz),
            strong_convexity=float(spec.mu),
        )
    # d^2/dx^2 (x^2-1)^2 = 12 x^2 - 4; on |x| <= r the magnitude peaks at
    # max(4, 12 r^2 - 4).
    r = float(spec.radius)
    return SmoothnessInfo(
        lipschitz=max(4.0, 12.0 * r * r - 4.0),
        strong_convexity=None,
    )


def value(spec: OracleSpec, x: np.ndarray) -> np.ndarray:
    """Loss at x; broadcasts over leading axes."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kind == "quadratic":
        delta = x - spec.target
        return 0.5 * np.einsum("...i,i,...i->...", delta, spec.curvatures, delta)
    sq = x * x - 1.0
    return np.einsum("...i,...i->...", sq, sq)


def grad(spec: OracleSpec, x: np.ndarray) -> np.ndarray:
    """Exact gradient at x; broadcasts over leading axes."""
    x = np.asarray(x, dtype=np.float64)
    if spec.kind == "quadratic":
        return spec.curvatures * (x - spec.target)
    return 4.0 * x * (x * x - 1.0)


def clamp(spec: OracleSpec, x: np.ndarray) -> np.ndarray:
    """Project an iterate back onto the oracle's domain."""
    if spec.kind == "double_well":
        return np.clip(x, -spec.radius, spec.radius)
    return x


def noise(spec: OracleSpec, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Zero-mean Gaussian noise draws with total variance sigma^2 each,
    shape (*shape, dim); one draw by default."""
    return rng.standard_normal((*shape, spec.dim)) * spec.noise_scale


def stochastic_grad(spec: OracleSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One noisy gradient draw at x: grad(spec, x) + noise(spec, rng)."""
    return grad(spec, x) + noise(spec, rng)


def sequential_sgd(
    spec: OracleSpec,
    x1: np.ndarray,
    iterations: int,
    learning_rate: Callable[[int], float],
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Plain single-process mini-batch SGD baseline; returns the final iterate.

    Each iteration averages batch_size stochastic gradients (summed in draw
    order, divided once) and takes one step; double_well iterates are clamped
    after every step.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    x = np.asarray(x1, dtype=np.float64).copy()
    for t in range(1, iterations + 1):
        acc = np.zeros(spec.dim)
        for _ in range(batch_size):
            acc = acc + stochastic_grad(spec, x, rng)
        x = x - learning_rate(t) * (acc / batch_size)
        x = clamp(spec, x)
    return x

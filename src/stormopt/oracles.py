"""Noisy sum-of-squares oracles and sample-size rules.

The objective family is f(x) = sum_i f_i(x)^2 over smooth components f_i.
Noise enters per component: multiplicative (1+w_i) factors, additive w_i
offsets (w_i uniform on [-sigma, sigma]), or computation failures where a
small component is replaced by a garbage value V with probability sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

Components = Union[Callable[[np.ndarray], np.ndarray], Sequence[Callable]]

DEFAULT_GARBAGE_VALUE = -10000.0


@dataclass
class EstimatePair:
    f0: float
    fs: float
    samples_used: int

    def __post_init__(self):
        if self.samples_used < 1:
            raise ValueError("samples_used must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "none"           # none | multiplicative | additive | failure
    sigma: float = 0.0
    epsilon: float = 0.1         # failure: components below this can fail
    garbage_value: float = DEFAULT_GARBAGE_VALUE
    failure_mode: str = "component"  # component | objective

    def __post_init__(self):
        if self.kind not in ("none", "multiplicative", "additive", "failure"):
            raise ValueError(f"unknown noise kind: {self.kind}")
        if self.failure_mode not in ("component", "objective"):
            raise ValueError(f"unknown failure mode: {self.failure_mode}")


def _component_values(components: Components, x: np.ndarray) -> np.ndarray:
    if callable(components):
        return np.atleast_1d(np.asarray(components(x), dtype=float))
    return np.array([float(f(x)) for f in components])


def eval_multiplicative(components: Components, sigma: float, x, rng) -> float:
    """sum((1 + w_i) f_i(x))^2 with w_i ~ U[-sigma, sigma], fresh per call."""
    f = _component_values(components, x)
    w = rng.uniform(-sigma, sigma, size=f.size)
    return float(np.sum(((1.0 + w) * f) ** 2))


def eval_additive(components: Components, sigma: float, x, rng) -> float:
    """sum(f_i(x) + w_i)^2 with w_i ~ U[-sigma, sigma], fresh per call."""
    f = _component_values(components, x)
    w = rng.uniform(-sigma, sigma, size=f.size)
    return float(np.sum((f + w) ** 2))


def eval_failure(components: Components, sigma: float, epsilon: float, V: float,
                 x, rng, mode: str = "component") -> float:
    """Computation-failure oracle.

    In component mode each component with |f_i(x)| < epsilon is independently
    replaced by V with probability sigma before squaring. In objective mode
    the whole sum of squares is replaced by V with probability sigma whenever
    any component is below epsilon.
    """
    f = _component_values(components, x)
    if mode == "objective":
        if sigma > 0 and np.any(np.abs(f) < epsilon) and rng.uniform() < sigma:
            return float(V)
        return float(np.sum(f**2))
    if sigma > 0:
        small = np.abs(f) < epsilon
        fail = small & (rng.uniform(size=f.size) < sigma)
        f = np.where(fail, V, f)
    return float(np.sum(f**2))


def per_s_to_sigma(p_s: float, m: int) -> float:
    """Per-component failure probability giving problem-level success p_s."""
    if not 0 <= p_s <= 1:
        raise ValueError("p_s must lie in [0,1]")
    return 1.0 - p_s ** (1.0 / m)


class StochasticProblem:
    """A noisy objective with an evaluation counter and optional noiseless reference.

    ``residual(x)`` returns the stacked component values; ``jacobian(x)`` their
    Jacobian (used only for the noiseless gradient reference). Every call to
    noisy_eval counts exactly one evaluation.
    """

    def __init__(self, name: str, dimension: int, residual: Callable,
                 x0, noise: NoiseSpec = NoiseSpec(),
                 jacobian: Optional[Callable] = None,
                 f_star: Optional[float] = None):
        self.name = name
        self.dimension = int(dimension)
        self.residual = residual
        self.jacobian = jacobian
        self.x0 = np.asarray(x0, dtype=float)
        self.noise = noise
        self.f_star = f_star
        self.eval_count = 0

    # noiseless reference ------------------------------------------------
    def true_f(self, x) -> float:
        f = _component_values(self.residual, np.asarray(x, dtype=float))
        return float(np.sum(f**2))

    def true_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = _component_values(self.residual, x)
        J = np.asarray(self.jacobian(x), dtype=float)
        return 2.0 * (J.T @ f)

    @property
    def noiseless_ref(self):
        if self.jacobian is None:
            return None
        return (self.true_f, self.true_grad)

    # noisy oracle ---------------------------------------------------------
    def noisy_eval(self, x, rng) -> float:
        self.eval_count += 1
        kind = self.noise.kind
        if kind == "none":
            return self.true_f(x)
        if kind == "multiplicative":
            return eval_multiplicative(self.residual, self.noise.sigma, x, rng)
        if kind == "additive":
            return eval_additive(self.residual, self.noise.sigma, x, rng)
        return eval_failure(self.residual, self.noise.sigma, self.noise.epsilon,
                            self.noise.garbage_value, x, rng, self.noise.failure_mode)


def averaged_estimate(problem, x, p: int, rng) -> float:
    """Mean of p fresh noisy evaluations (counts p against the budget)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    vals = [problem.noisy_eval(x, rng) for _ in range(p)]
    return float(np.mean(vals))


def _ceil_with_tolerance(v: float, rel: float = 1e-9) -> int:
    return max(1, math.ceil(v - rel * max(1.0, abs(v))))


def chebyshev_sample_size(V: float, kappa: float, alpha_prime: float, delta: float) -> int:
    """Samples needed so that P(|mean - E| > kappa delta^2) <= 1 - alpha_prime
    for variance bound V, via the Chebyshev inequality."""
    if min(V, kappa, delta) <= 0 or not 0 < alpha_prime < 1:
        raise ValueError("V, kappa, delta must be positive and alpha_prime in (0,1)")
    return _ceil_with_tolerance(V / (kappa**2 * (1.0 - alpha_prime) * delta**4))


def chebyshev_gradient_sample_size(V: float, kappa_ef: float, kappa_eg: float,
                                   alpha_prime: float, delta: float) -> int:
    """Sample size covering both the value (kappa_ef delta^2) and gradient
    (kappa_eg delta) accuracy targets."""
    if min(V, kappa_ef, kappa_eg, delta) <= 0 or not 0 < alpha_prime < 1:
        raise ValueError("inputs must be positive and alpha_prime in (0,1)")
    p_val = V / (kappa_ef**2 * (1.0 - alpha_prime) * delta**4)
    p_grad = V / (kappa_eg**2 * (1.0 - alpha_prime) * delta**2)
    return _ceil_with_tolerance(max(p_val, p_grad))

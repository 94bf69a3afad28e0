"""Noisy sum-of-squares oracles and sample-size rules.

The objective family is f(x) = sum_i f_i(x)^2 over smooth components f_i,
given as one residual callable returning the stacked f_i(x). Noise enters
per component: multiplicative (1+w_i) factors, additive w_i offsets (w_i
uniform on [-sigma, sigma]), or computation failures where a small component
is replaced by a garbage value V with probability sigma (in the objective
failure mode, the whole sum is replaced by V with probability sigma whenever
any component is small).

The oracle has two entry points over one noise core, ``_noisy_values``:

* ``StochasticProblem.noisy_evals(x, count, rng)``: one point, many draws. It
  evaluates the residual once and draws the noise of all ``count`` samples
  in one generator call. ``noisy_eval`` (one sample) and
  ``averaged_estimate`` (the mean of p samples) go through it.
* ``StochasticProblem.noisy_eval_batch(X, rng)``: many points, one draw
  each. It evaluates the residual once on the whole ``(p, n)`` array, so the
  residual must work over the last axis (see ``StochasticProblem``), and
  draws the noise of all p rows in one generator call.

Both consume the generator exactly as the same single evaluations in a loop
would, so their values, evaluation counts and generator states are
bit-identical to that loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_GARBAGE_VALUE = -10000.0


@dataclass
class EstimatePair:
    f0: float
    fs: float


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
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.kind == "failure" and self.sigma > 1:
            raise ValueError(f"failure sigma is a probability, got {self.sigma!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")


def _component_values(residual: Callable, x: np.ndarray) -> np.ndarray:
    return np.asarray(residual(x), dtype=float).reshape(-1)


def _noisy_values(F: np.ndarray, noise: NoiseSpec, rng) -> np.ndarray:
    """One noisy sum of squares per row of the (rows, m) component values ``F``.

    Row r of a (rows, m) draw is what the r-th of ``rows`` single draws of
    size m would get, and ``sum(axis=1)`` reduces each row as ``np.sum``
    reduces a 1-D array, so every value is bit-identical to a single draw.
    """
    kind, sigma = noise.kind, noise.sigma
    if kind == "multiplicative":
        w = rng.uniform(-sigma, sigma, size=F.shape)
        return (((1.0 + w) * F) ** 2).sum(axis=1)
    if kind == "additive":
        w = rng.uniform(-sigma, sigma, size=F.shape)
        return ((F + w) ** 2).sum(axis=1)
    if kind == "none" or sigma <= 0:
        return (F**2).sum(axis=1)
    small = np.abs(F) < noise.epsilon
    if noise.failure_mode == "objective":
        # the whole value fails; only rows with a small component draw, one
        # uniform each in row order, as single draws would
        out = (F**2).sum(axis=1)
        can_fail = small.any(axis=1)
        fail = rng.uniform(size=int(np.count_nonzero(can_fail))) < sigma
        out[np.flatnonzero(can_fail)[fail]] = noise.garbage_value
        return out
    fail = small & (rng.uniform(size=F.shape) < sigma)
    return (np.where(fail, noise.garbage_value, F) ** 2).sum(axis=1)


def per_s_to_sigma(p_s: float, m: int) -> float:
    """Per-component failure probability giving problem-level success p_s."""
    if not 0 <= p_s <= 1:
        raise ValueError("p_s must lie in [0,1]")
    return 1.0 - p_s ** (1.0 / m)


class StochasticProblem:
    """A noisy objective with an evaluation counter and optional noiseless reference.

    ``residual(x)`` returns the stacked component values; ``jacobian(x)`` their
    Jacobian (used only for the noiseless gradient reference). The residual
    works over the last axis: given a ``(p, n)`` array of points it returns
    the ``(p, m)`` array whose row i equals ``residual(X[i])`` bit for bit.
    ``noisy_eval_batch`` relies on that. Every noisy sample counts one
    evaluation: ``noisy_eval`` one, ``noisy_evals`` ``count`` and
    ``noisy_eval_batch`` one per row.
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
    def noisy_evals(self, x, count: int, rng) -> np.ndarray:
        """``count`` fresh noisy evaluations at one point (counts ``count``)."""
        self.eval_count += count
        f = _component_values(self.residual, np.asarray(x, dtype=float))
        return _noisy_values(f.reshape(1, -1).repeat(count, axis=0), self.noise, rng)

    def noisy_eval(self, x, rng) -> float:
        return float(self.noisy_evals(x, 1, rng)[0])

    def noisy_eval_batch(self, X, rng) -> np.ndarray:
        """One fresh noisy evaluation at each row of the (p, n) array ``X``
        (counts p). The residual is called once, on all of ``X``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"need a (p, n) array of points, got shape {X.shape}")
        F = np.ascontiguousarray(self.residual(X), dtype=float)  # rows summed as 1-D arrays
        if F.ndim != 2 or F.shape[0] != X.shape[0]:
            raise ValueError(f"residual of {X.shape[0]} points must have shape "
                             f"({X.shape[0]}, m), got {F.shape}")
        self.eval_count += X.shape[0]
        return _noisy_values(F, self.noise, rng)


def averaged_estimate(problem, x, p: int, rng) -> float:
    """Mean of p fresh noisy evaluations (counts p against the budget)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.mean(problem.noisy_evals(x, p, rng)))


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

"""Built-in sum-of-squares test problems with analytic Jacobians and known
minimizers. Dimensions are desk-scale (2..10).

Every residual works over the last axis, as ``StochasticProblem`` requires:
a (p, n) array of points gives the (p, m) array of their component values.
The Jacobians take one point."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .oracles import NoiseSpec, StochasticProblem


@dataclass
class ProblemSpec:
    name: str
    n: int
    m: int
    residual: Callable
    jacobian: Callable
    x0: np.ndarray
    f_star: Optional[float]
    minimizer: Optional[np.ndarray] = None
    budget_multiplier: int = 1000

    def instantiate(self, noise: NoiseSpec = NoiseSpec()) -> StochasticProblem:
        return StochasticProblem(self.name, self.n, self.residual, self.x0,
                                 noise=noise, jacobian=self.jacobian,
                                 f_star=self.f_star)


def _pow(v, e):
    """The C pow, on a scalar or element by element, as the scalar ``**`` of
    one point computes it. The array ``**`` squares or uses a vectorized pow,
    which differs from it in the last bit on some inputs, so rows of a batch
    would not equal their one-point values."""
    return np.float_power(v, e) if isinstance(v, np.ndarray) else v ** e


def simple_quadratic_residual(x):
    return x - 1.0


def simple_quadratic_jacobian(x):
    return np.eye(len(x))


def rosenbrock_residual(x):
    f = np.zeros(x.shape)
    f[..., 0::2] = 10.0 * (x[..., 1::2] - x[..., 0::2] ** 2)
    f[..., 1::2] = 1.0 - x[..., 0::2]
    return f


def rosenbrock_jacobian(x):
    n = len(x)
    J = np.zeros((n, n))
    for i in range(0, n, 2):
        J[i, i] = -20.0 * x[i]
        J[i, i + 1] = 10.0
        J[i + 1, i] = -1.0
    return J


def powell_singular_residual(x):
    x0, x1, x2, x3 = x.T  # scalars of one point, or columns of a (p, n) array
    return np.array([
        x0 + 10.0 * x1,
        np.sqrt(5.0) * (x2 - x3),
        _pow(x1 - 2.0 * x2, 2),
        np.sqrt(10.0) * _pow(x0 - x3, 2),
    ]).T


def powell_singular_jacobian(x):
    return np.array([
        [1.0, 10.0, 0.0, 0.0],
        [0.0, 0.0, np.sqrt(5.0), -np.sqrt(5.0)],
        [0.0, 2.0 * (x[1] - 2.0 * x[2]), -4.0 * (x[1] - 2.0 * x[2]), 0.0],
        [2.0 * np.sqrt(10.0) * (x[0] - x[3]), 0.0, 0.0, -2.0 * np.sqrt(10.0) * (x[0] - x[3])],
    ])


def beale_residual(x):
    x0, x1 = x.T
    return np.array([
        1.5 - x0 * (1.0 - x1),
        2.25 - x0 * (1.0 - _pow(x1, 2)),
        2.625 - x0 * (1.0 - _pow(x1, 3)),
    ]).T


def beale_jacobian(x):
    return np.array([
        [-(1.0 - x[1]), x[0]],
        [-(1.0 - x[1] ** 2), 2.0 * x[0] * x[1]],
        [-(1.0 - x[1] ** 3), 3.0 * x[0] * x[1] ** 2],
    ])


def freudenstein_roth_residual(x):
    x0, x1 = x.T
    return np.array([
        -13.0 + x0 + ((5.0 - x1) * x1 - 2.0) * x1,
        -29.0 + x0 + ((1.0 + x1) * x1 - 14.0) * x1,
    ]).T


def freudenstein_roth_jacobian(x):
    return np.array([
        [1.0, 10.0 * x[1] - 3.0 * x[1] ** 2 - 2.0],
        [1.0, 3.0 * x[1] ** 2 + 2.0 * x[1] - 14.0],
    ])


def linear_full_rank_residual(x, dim_out):
    temp = 2.0 * x.sum(axis=-1) / dim_out + 1.0  # a scalar, or one per point
    out = np.full((dim_out,) + np.shape(temp), -temp)
    out[: x.shape[-1]] += x.T
    return out.T


def linear_full_rank_jacobian(x, dim_out):
    J = np.full((dim_out, len(x)), -2.0 / dim_out)
    J[np.arange(len(x)), np.arange(len(x))] += 1.0
    return J


def _simple_quad_spec(n: int) -> ProblemSpec:
    return ProblemSpec(
        name=f"simple-quad-{n}", n=n, m=n,
        residual=simple_quadratic_residual, jacobian=simple_quadratic_jacobian,
        x0=np.zeros(n), f_star=0.0, minimizer=np.ones(n))


def _rosenbrock_spec(n: int) -> ProblemSpec:
    x0 = np.tile([-1.2, 1.0], n // 2)
    return ProblemSpec(
        name=f"rosenbrock-{n}", n=n, m=n,
        residual=rosenbrock_residual, jacobian=rosenbrock_jacobian,
        x0=x0, f_star=0.0, minimizer=np.ones(n))


def builtin_suite() -> List[ProblemSpec]:
    lfr_m = 10
    return [
        _simple_quad_spec(2),
        _simple_quad_spec(10),
        _rosenbrock_spec(2),
        _rosenbrock_spec(10),
        ProblemSpec(
            name="powell-4", n=4, m=4,
            residual=powell_singular_residual, jacobian=powell_singular_jacobian,
            x0=np.array([3.0, -1.0, 0.0, 1.0]), f_star=0.0, minimizer=np.zeros(4)),
        ProblemSpec(
            name="beale-2", n=2, m=3,
            residual=beale_residual, jacobian=beale_jacobian,
            x0=np.array([1.0, 1.0]), f_star=0.0, minimizer=np.array([3.0, 0.5])),
        ProblemSpec(
            name="freudenstein-roth-2", n=2, m=2,
            residual=freudenstein_roth_residual, jacobian=freudenstein_roth_jacobian,
            x0=np.array([0.5, -2.0]), f_star=0.0, minimizer=np.array([5.0, 4.0])),
        ProblemSpec(
            name="linear-full-rank-5", n=5, m=lfr_m,
            residual=lambda x: linear_full_rank_residual(x, lfr_m),
            jacobian=lambda x: linear_full_rank_jacobian(x, lfr_m),
            x0=np.ones(5), f_star=float(lfr_m - 5), minimizer=-np.ones(5)),
    ]


def problem_names() -> List[str]:
    return [spec.name for spec in builtin_suite()]


def get_problem(name: str) -> ProblemSpec:
    for spec in builtin_suite():
        if spec.name == name:
            return spec
    raise KeyError(f"unknown problem {name!r}; known: {', '.join(problem_names())}")

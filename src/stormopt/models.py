"""Local quadratic models: poised sample sets, interpolation/regression fits,
gradient-based Taylor models, and empirical fully-linearity probes.

Model convention: a model centered at ``c`` is evaluated on steps ``s`` as

    m(c + s) = f0 + g.s + s.H.s

(no 1/2 on the quadratic term). All fitters and the subproblem solver use
this convention consistently; ``gradient_at`` accounts for the implied
factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import _kernels

COND_LIMIT = 1e12  # geometry certificate: scaled system condition number

KIND_LINEAR = "interpolation-linear"
KIND_QUADRATIC = "interpolation-quadratic"
KIND_REGRESSION = "regression"


class GeometryError(RuntimeError):
    """Sample-set geometry too degenerate to fit the requested model."""


@dataclass
class QuadraticModel:
    center: np.ndarray
    f0: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.gradient = np.asarray(self.gradient, dtype=float)
        self.hessian = np.asarray(self.hessian, dtype=float)
        asym = np.abs(self.hessian - self.hessian.T).max(initial=0.0)
        scale = max(1.0, np.abs(self.hessian).max(initial=0.0))
        if asym > 1e-12 * scale:
            raise ValueError("model hessian must be symmetric")

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.gradient))

    def value(self, s: np.ndarray) -> float:
        s = np.asarray(s, dtype=float)
        return float(self.f0 + self.gradient @ s + s @ self.hessian @ s)

    def gradient_at(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.gradient + 2.0 * (self.hessian @ s)

    def value_at(self, x: np.ndarray) -> float:
        return self.value(np.asarray(x, dtype=float) - self.center)

    def decrease(self, s: np.ndarray) -> float:
        """m(center) - m(center + s)."""
        return self.f0 - self.value(s)


@dataclass
class PoisedSet:
    points: np.ndarray  # (p, n), rows inside B(center, delta)
    center: np.ndarray
    delta: float
    kind: str
    poisedness_estimate: float = field(default=np.nan)

    @property
    def npoints(self) -> int:
        return self.points.shape[0]


@dataclass
class ModelQualityReport:
    delta: float
    max_value_error: float
    max_gradient_error: float
    implied_kappa_ef: float
    implied_kappa_eg: float


def expected_point_count(kind: str, n: int, p: Optional[int] = None) -> int:
    if kind == KIND_LINEAR:
        return n + 1
    if kind == KIND_QUADRATIC:
        return _kernels.quad_basis_size(n)
    if kind == KIND_REGRESSION:
        if p is None or p < n + 1:
            raise ValueError("regression sets need p >= n+1")
        return p
    raise ValueError(f"unknown poised-set kind: {kind}")


def sample_in_ball(center: np.ndarray, delta: float, count: int, rng) -> np.ndarray:
    """Uniform samples from the closed ball B(center, delta)."""
    n = center.size
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = delta * rng.uniform(0.0, 1.0, size=count) ** (1.0 / n)
    return center + r[:, None] * v


def _random_orthonormal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def initial_frame(center: np.ndarray, delta: float, count: int, rng) -> np.ndarray:
    """The first ``count`` rows of: the center, the +frame, the -frame and the
    pair midpoints of a random orthonormal frame scaled by delta; uniform ball
    samples, one draw each, fill any rows past that quadratic count."""
    n = center.size
    q = _random_orthonormal(n, rng)
    i, j = _kernels.pair_indices(n)  # the pair order of quad_basis
    rows = np.vstack([center, center + delta * q, center - delta * q,
                      center + delta * (q[i] + q[j]) / np.sqrt(2.0)])[:count]
    tail = [sample_in_ball(center, delta, 1, rng) for _ in range(count - len(rows))]
    return np.vstack([rows, *tail])


def make_poised_set(center, delta: float, kind: str, rng, p: Optional[int] = None) -> PoisedSet:
    """Construct a sample set in B(center, delta) for the given model kind.

    Linear and quadratic interpolation take the first n+1 or (n+1)(n+2)/2
    rows of ``initial_frame``: the center, the +frame, then (quadratic only)
    the -frame and the pair midpoints. Regression uses the center plus
    uniform ball samples (p total points).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    center = np.asarray(center, dtype=float)
    n = center.size
    if kind in (KIND_LINEAR, KIND_QUADRATIC):
        pts = initial_frame(center, delta, expected_point_count(kind, n), rng)
    elif kind == KIND_REGRESSION:
        count = expected_point_count(kind, n, p)
        pts = np.vstack([center, sample_in_ball(center, delta, count - 1, rng)])
    else:
        raise ValueError(f"unknown poised-set kind: {kind}")
    pset = PoisedSet(points=pts, center=center, delta=float(delta), kind=kind)
    pset.poisedness_estimate = estimate_poisedness(pset, rng)
    return pset


def _basis_matrix(steps_scaled: np.ndarray, degree: int) -> np.ndarray:
    if degree == 1:
        p = steps_scaled.shape[0]
        return np.concatenate([np.ones((p, 1)), steps_scaled], axis=1)
    if degree == 2:
        return _kernels.quad_basis(steps_scaled)
    raise ValueError("degree must be 1 or 2")


def _lstsq(points: np.ndarray, center: np.ndarray, values: np.ndarray, degree: int,
           scale: float):
    """Basis of the steps from ``center`` scaled by ``scale``, and its
    least-squares solve: ``(M, coef, rank, singular values)``."""
    M = _basis_matrix((points - center) / scale, degree)
    coef, _, rank, sv = np.linalg.lstsq(M, values, rcond=None)
    return M, coef, rank, sv


def _model(center: np.ndarray, coef: np.ndarray, degree: int, scale: float) -> QuadraticModel:
    """Unscale the coefficients of ``_lstsq`` into a model. Both triangles of
    H come from one coefficient, so H is exactly symmetric.

    Raises GeometryError when the value, gradient or Hessian is not finite:
    a NaN or inf sample value, or a scale so small that unscaling
    overflows."""
    n = center.size
    g = coef[1 : 1 + n] / scale
    H = np.zeros((n, n))
    if degree == 2:
        H[np.diag_indices(n)] = coef[1 + n : 1 + 2 * n]
        i, j = _kernels.pair_indices(n)  # the pair order of quad_basis
        H[i, j] = H[j, i] = coef[1 + 2 * n :] / 2.0
        H /= scale**2
    if not (np.isfinite(coef[0]) and np.isfinite(g).all() and np.isfinite(H).all()):
        raise GeometryError("non-finite model")
    return QuadraticModel(center, float(coef[0]), g, H)


def estimate_poisedness(pset: PoisedSet, rng, n_samples: int = 100) -> float:
    """Monte-Carlo estimate of the max absolute Lagrange-polynomial mass
    over the ball (the sample nodes are always included as probe points,
    so the estimate is >= 1 whenever the set reproduces constants)."""
    degree = 2 if pset.kind == KIND_QUADRATIC else 1
    scale = max(pset.delta, 1e-300)
    S = (pset.points - pset.center) / scale
    M = _basis_matrix(S, degree)
    probes = sample_in_ball(pset.center, pset.delta, n_samples, rng)
    P = _basis_matrix((probes - pset.center) / scale, degree)
    P = np.vstack([P, M])
    # Lagrange values at probe y: phi(y)^T pinv(M); degenerate sets score inf
    try:
        lam = P @ np.linalg.pinv(M)
    except np.linalg.LinAlgError:
        return float("inf")
    return float(np.abs(lam).sum(axis=1).max())


def fit_interpolation(pset: PoisedSet, values: Sequence[float]) -> QuadraticModel:
    """Interpolate the values exactly over a linear or quadratic poised set.

    Raises GeometryError when the scaled interpolation system has condition
    number above COND_LIMIT.
    """
    values = np.asarray(values, dtype=float)
    if pset.kind not in (KIND_LINEAR, KIND_QUADRATIC):
        raise ValueError("fit_interpolation needs an interpolation kind")
    if values.size != pset.npoints:
        raise ValueError("values/points length mismatch")
    n = pset.center.size
    if pset.npoints != expected_point_count(pset.kind, n):
        raise ValueError(f"{pset.kind} needs {expected_point_count(pset.kind, n)} points")
    degree = 2 if pset.kind == KIND_QUADRATIC else 1
    scale = max(pset.delta, 1e-300)
    _, coef, _, sv = _lstsq(pset.points, pset.center, values, degree, scale)
    if sv[-1] <= 0 or sv[0] / sv[-1] > COND_LIMIT:
        raise GeometryError("interpolation system is numerically singular")
    return _model(pset.center, coef, degree, scale)


def fit_regression(pset: PoisedSet, values: Sequence[float], degree: int) -> QuadraticModel:
    """Least-squares fit of a degree-1 or degree-2 model over the set.

    Raises GeometryError when the basis matrix is rank-deficient, which
    includes every set with fewer points than basis functions.
    """
    values = np.asarray(values, dtype=float)
    if values.size != pset.npoints:
        raise ValueError("values/points length mismatch")
    scale = max(pset.delta, 1e-300)
    M, coef, rank, _ = _lstsq(pset.points, pset.center, values, degree, scale)
    if rank < M.shape[1]:
        raise GeometryError("rank-deficient regression basis")
    return _model(pset.center, coef, degree, scale)


def fit_quadratic_set(points: np.ndarray, center: np.ndarray, values: Sequence[float],
                      delta: float = 0.0) -> QuadraticModel:
    """Quadratic model through an arbitrary point set of size n+1..(n+1)(n+2)/2.

    With a full quadratic count this is plain interpolation; with fewer
    points the minimum-norm least-squares solution is taken, which still
    interpolates whenever the system is consistent. Steps are scaled by the
    larger of the furthest point's distance from ``center`` and the radius
    ``delta``. Used by the variants whose persistent sets grow one point per
    iteration.
    """
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.shape[0] < center.size + 1:
        raise GeometryError("too few points for a quadratic set")
    dists = np.linalg.norm(points - center, axis=1)
    scale = max(float(dists.max(initial=0.0)), delta, 1e-300)
    # Rank-deficient geometry still yields the min-norm interpolant when the
    # data are consistent; only irreconcilable values flag the iteration.
    M, coef, _, _ = _lstsq(points, center, values, 2, scale)
    resid = np.abs(M @ coef - values).max(initial=0.0)
    if resid > 1e-7 * max(1.0, np.abs(values).max(initial=0.0)):
        raise GeometryError("inconsistent interpolation data")
    return _model(center, coef, 2, scale)


def fit_gradient_taylor(x0, fbar: float, gbar, Hopt=None) -> QuadraticModel:
    """Model from a (noisy) value and gradient sample: f0=fbar, g=gbar, H=Hopt or 0.

    Hopt is taken in the model convention s.H.s; pass half a true Hessian to
    reproduce a second-order Taylor expansion.
    """
    x0 = np.asarray(x0, dtype=float)
    g = np.asarray(gbar, dtype=float)
    H = np.zeros((x0.size, x0.size)) if Hopt is None else np.asarray(Hopt, dtype=float)
    return QuadraticModel(x0, float(fbar), g, 0.5 * (H + H.T))


def probe_fully_linear(model: QuadraticModel, reference: Tuple[Callable, Callable],
                       delta: float, n_probe: int, rng) -> ModelQualityReport:
    """Estimate value/gradient error bounds of the model on B(center, delta).

    ``reference`` is a (f, grad) pair of exact evaluators. Probes n_probe
    uniform ball points plus the center and the boundary points along +-g.
    """
    f_true, g_true = reference
    pts = [model.center]
    gn = model.grad_norm
    if gn > 0:
        d = model.gradient / gn
        pts.append(model.center + delta * d)
        pts.append(model.center - delta * d)
    pts = np.vstack([np.asarray(pts), sample_in_ball(model.center, delta, n_probe, rng)])
    val_err = 0.0
    grad_err = 0.0
    for y in pts:
        s = y - model.center
        val_err = max(val_err, abs(f_true(y) - model.value(s)))
        grad_err = max(grad_err, float(np.linalg.norm(np.asarray(g_true(y), dtype=float)
                                                      - model.gradient_at(s))))
    return ModelQualityReport(
        delta=float(delta),
        max_value_error=val_err,
        max_gradient_error=grad_err,
        implied_kappa_ef=val_err / delta**2,
        implied_kappa_eg=grad_err / delta,
    )

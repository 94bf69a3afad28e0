"""Trust-region subproblem steps with a per-call Cauchy-decrease certificate.

Both solvers work on models in the convention m(c+s) = f0 + g.s + s.H.s;
internally the dogleg formulas use the equivalent standard form with B = 2H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import QuadraticModel


@dataclass
class StepResult:
    step: np.ndarray
    model_decrease: float
    cauchy_decrease_bound: float  # (kappa_fcd_used / 2) ||g|| min{||g||/||H||, delta}
    kappa_fcd_used: float


def _spectral_norm(H: np.ndarray) -> float:
    if not np.any(H):
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def _certify(model: QuadraticModel, step: np.ndarray, delta: float, hn: float) -> StepResult:
    """The certificate of a step from a model with a nonzero gradient, given
    hn = ||H||."""
    gn = model.grad_norm
    decrease = model.decrease(step)
    radius_term = min(gn / hn, delta) if hn > 0 else delta
    full_bound = 0.5 * gn * radius_term  # certificate with fraction 1
    kappa = min(1.0, decrease / full_bound) if full_bound > 0 else 1.0
    return StepResult(step, decrease, kappa * full_bound, kappa)


def _cauchy_step(model: QuadraticModel, delta: float) -> np.ndarray:
    """The minimizer along -g within the ball, for a nonzero gradient."""
    g = model.gradient
    gn = model.grad_norm
    d = -g / gn
    curv = float(g @ model.hessian @ g) / gn**2  # m(t d) = f0 - t gn + t^2 curv
    if curv <= 0:
        t = delta
    else:
        t = min(delta, gn / (2.0 * curv))
    return t * d


def cauchy_point(model: QuadraticModel, delta: float) -> StepResult:
    """Exact minimizer of the model along -g within the ball."""
    if model.grad_norm == 0.0:
        return StepResult(np.zeros(model.dim), 0.0, 0.0, 1.0)
    return _certify(model, _cauchy_step(model, delta), delta, _spectral_norm(model.hessian))


def _clip_to_ball(s: np.ndarray, delta: float) -> np.ndarray:
    ns = float(np.linalg.norm(s))
    if ns > delta:
        s = s * (delta / ns)
    return s


def dogleg(model: QuadraticModel, delta: float) -> StepResult:
    """Dogleg step when the curvature is positive definite, Cauchy fallback
    otherwise; never returns less decrease than the Cauchy point."""
    g = model.gradient
    gn = model.grad_norm
    if gn == 0.0:
        return cauchy_point(model, delta)
    hn = _spectral_norm(model.hessian)  # one norm for both certificates
    cp = _certify(model, _cauchy_step(model, delta), delta, hn)
    B = 2.0 * model.hessian
    candidate = None
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        L = None
    if L is not None:
        p_newton = np.linalg.solve(L.T, np.linalg.solve(L, -g))
        if np.linalg.norm(p_newton) <= delta:
            candidate = p_newton
        else:
            gBg = float(g @ B @ g)
            p_u = -(gn**2 / gBg) * g
            nu = float(np.linalg.norm(p_u))
            if nu >= delta:
                candidate = -(delta / gn) * g
            else:
                d = p_newton - p_u
                a = float(d @ d)
                b = 2.0 * float(p_u @ d)
                cc = nu**2 - delta**2
                tau = (-b + np.sqrt(max(0.0, b * b - 4 * a * cc))) / (2 * a)
                candidate = p_u + tau * d
    if candidate is None:
        return cp
    candidate = _clip_to_ball(candidate, delta)
    result = _certify(model, candidate, delta, hn)
    if result.model_decrease < cp.model_decrease:
        return cp
    return result

"""Generic stochastic trust-region loop over pluggable components.

One iteration performs, in order: model construction on B(x_k, delta_k),
step calculation with a Cauchy-decrease certificate, estimation of the
function values at x_k and x_k + s_k, the acceptance test, and the radius
update. Model builders and estimators are duck-typed objects:

    builder.build(problem, state, rng) -> QuadraticModel
        -- may raise GeometryError or numpy.linalg.LinAlgError
    builder.update_after_iteration(problem, state, trial, estimate, success, rng)
        -- optional hook, called after the radius update
    estimator.estimate(problem, state, model, step, rng) -> EstimatePair

A solver is any callable (model, delta) -> StepResult. The variants in
``stormopt.variants`` assemble these pieces: each runner takes ``problem``,
``cfg`` and the keywords ``stop=None`` and ``solver=dogleg`` (its
``REGISTRY`` entries are ``(problem, cfg, stop=None)``) and calls ``run``;
that module holds the sample-size rules and their constant ``P_MIN``.

Degenerate model geometry (a ``GeometryError``, or a ``LinAlgError`` from a
fit whose least-squares solve did not converge) and zero model decrease both
yield a flagged unsuccessful iteration (the radius shrinks and the loop
continues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .models import GeometryError
from .oracles import EstimatePair

ZERO_DECREASE_REL_FLOOR = 1e-15
PHI_NU = 0.5  # weight of f in the logged monitor phi (diagnostics only)


@dataclass(frozen=True)
class TrustRegionConfig:
    delta0: float = 1.0
    delta_max: float = 10.0
    gamma: float = 2.0
    eta1: float = 0.1
    eta2: float = 0.001
    budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        # an infinite radius makes every fit and every radius update inf, so
        # neither the radius floor nor the budget would ever stop the run
        if not (0 < self.delta0 <= self.delta_max and math.isfinite(self.delta_max)):
            raise ValueError("need 0 < delta0 <= delta_max < inf")
        if not (math.isfinite(self.gamma) and self.gamma > 1):
            raise ValueError("need gamma > 1")
        if not 0 < self.eta1 < 1:
            raise ValueError("need eta1 in (0,1)")
        if not (math.isfinite(self.eta2) and self.eta2 >= 0):
            raise ValueError("need eta2 >= 0")
        if self.budget < 1:
            raise ValueError("need a positive budget")


@dataclass
class TrustRegionState:
    k: int
    x: np.ndarray
    delta: float


def _same(a, b) -> bool:
    """Exact equality of scalars and of tuples or lists of them, except that a
    float NaN equals a float NaN in the same position. A NaN is unequal to
    itself, so records whose NaN fields are distinct objects, as after
    pickling, would otherwise differ."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


def _same_array(a, b) -> bool:
    """``np.array_equal`` with NaN equal to NaN; None equals only None."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b, equal_nan=True)


@dataclass(eq=False)
class IterationEvent:
    k: int
    x_before: np.ndarray
    x_after: np.ndarray
    delta_before: float
    delta_after: float
    rho: Optional[float]
    model_gradient_norm: float
    f0_estimate: float
    fs_estimate: float
    evals_used_this_iter: int
    success: bool
    flag: Optional[str] = None  # None | "geometry" | "zero-decrease"
    true_f_before: Optional[float] = None
    true_f_after: Optional[float] = None
    phi: Optional[float] = None

    def __eq__(self, other):
        if not isinstance(other, IterationEvent):
            return NotImplemented
        return (
            self.k == other.k
            and _same_array(self.x_before, other.x_before)
            and _same_array(self.x_after, other.x_after)
            and _same(
                (self.delta_before, self.delta_after, self.rho, self.model_gradient_norm,
                 self.f0_estimate, self.fs_estimate, self.evals_used_this_iter,
                 self.success, self.flag, self.true_f_before, self.true_f_after, self.phi),
                (other.delta_before, other.delta_after, other.rho, other.model_gradient_norm,
                 other.f0_estimate, other.fs_estimate, other.evals_used_this_iter,
                 other.success, other.flag, other.true_f_before, other.true_f_after, other.phi))
        )


@dataclass
class StoppingRule:
    budget: Optional[int] = None        # max noisy evaluations (checked at iteration start)
    target_f: Optional[float] = None    # stop when the noiseless f drops strictly below
    delta_floor: float = 1e-12
    max_iterations: Optional[int] = None


@dataclass(eq=False)
class RunRecord:
    problem: str
    variant: str
    seed: int
    events: List[IterationEvent] = field(default_factory=list)
    x_final: Optional[np.ndarray] = None
    f_final_true: Optional[float] = None
    eval_total: int = 0
    stop_reason: str = ""
    loss_trace: List[tuple] = field(default_factory=list)  # (evals, true f) checkpoints
    x_checkpoints: List[tuple] = field(default_factory=list)  # (evals, x) for non-TR baselines

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        return (
            _same((self.problem, self.variant, self.seed, self.eval_total, self.stop_reason,
                   self.f_final_true, self.loss_trace),
                  (other.problem, other.variant, other.seed, other.eval_total,
                   other.stop_reason, other.f_final_true, other.loss_trace))
            and _same_array(self.x_final, other.x_final)
            and self.events == other.events
        )

    def evals_to_reach(self, threshold: float, budget: Optional[int] = None) -> Optional[int]:
        """Noisy evaluations spent until the true f first drops below threshold.

        None when the run never got there (or only past the budget).
        """
        total = 0
        for ev in self.events:
            total += ev.evals_used_this_iter
            if ev.true_f_after is not None and ev.true_f_after < threshold:
                if budget is not None and total > budget:
                    return None
                return total
        return None


def acceptance_test(rho: float, model_grad_norm: float, delta: float,
                    eta1: float, eta2: float) -> bool:
    """True iff rho >= eta1 and ||g|| >= eta2 * delta."""
    return rho >= eta1 and model_grad_norm >= eta2 * delta


def phi_monitor(f_value: float, delta: float, nu: float) -> float:
    """Lyapunov-style monitor nu * f + (1 - nu) * delta^2 (diagnostics only)."""
    if not 0 < nu < 1:
        raise ValueError("need nu in (0,1)")
    return nu * f_value + (1.0 - nu) * delta**2


def run(problem, model_builder, estimator, solver, cfg: TrustRegionConfig,
        stop: StoppingRule, *, variant: str = "custom") -> RunRecord:
    """Run the trust-region loop until the stopping rule fires. Every random
    draw comes from one generator seeded with ``cfg.seed``."""
    if problem.dimension < 1:
        raise ValueError("problem dimension must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    state = TrustRegionState(k=0, x=np.array(problem.x0, dtype=float), delta=cfg.delta0)
    ref = problem.noiseless_ref
    record = RunRecord(problem=problem.name, variant=variant, seed=cfg.seed)
    stop_reason = None
    # noiseless f at state.x, carried over so each point is evaluated once
    true_after = ref[0](state.x) if ref is not None else None

    while True:
        if stop.budget is not None and problem.eval_count >= stop.budget:
            stop_reason = "budget"
            break
        if stop.max_iterations is not None and state.k >= stop.max_iterations:
            stop_reason = "max-iterations"
            break

        evals_before = problem.eval_count
        x_before = state.x.copy()
        delta_before = state.delta
        true_before = true_after

        flag = None
        rho = None
        success = False
        grad_norm = np.nan
        f0 = np.nan
        fs = np.nan
        step = None
        try:
            model = model_builder.build(problem, state, rng)
        except (GeometryError, np.linalg.LinAlgError):
            model = None
            flag = "geometry"
        if model is not None:
            grad_norm = model.grad_norm
            step = solver(model, state.delta)
            est: EstimatePair = estimator.estimate(problem, state, model, step, rng)
            f0, fs = est.f0, est.fs
            if step.model_decrease <= ZERO_DECREASE_REL_FLOOR * max(1.0, abs(f0)):
                flag = "zero-decrease"
            else:
                rho = (f0 - fs) / step.model_decrease
                success = acceptance_test(rho, grad_norm, state.delta, cfg.eta1, cfg.eta2)

        if success:
            state.x = x_before + step.step
            state.delta = min(cfg.gamma * state.delta, cfg.delta_max)
        else:
            state.delta = state.delta / cfg.gamma
        trial = x_before + step.step if step is not None else x_before
        if hasattr(model_builder, "update_after_iteration"):
            model_builder.update_after_iteration(problem, state, trial, fs, success, rng)

        if success and ref is not None:  # a rejected step leaves state.x, and f, as they were
            true_after = ref[0](state.x)
        phi = phi_monitor(true_after, state.delta, PHI_NU) if true_after is not None else None
        record.events.append(IterationEvent(
            k=state.k, x_before=x_before, x_after=state.x.copy(),
            delta_before=delta_before, delta_after=state.delta,
            rho=rho, model_gradient_norm=float(grad_norm),
            f0_estimate=float(f0), fs_estimate=float(fs),
            evals_used_this_iter=problem.eval_count - evals_before,
            success=success, flag=flag,
            true_f_before=true_before, true_f_after=true_after, phi=phi,
        ))
        record.loss_trace.append((problem.eval_count, true_after))

        state.k += 1

        if (stop.target_f is not None and true_after is not None
                and true_after < stop.target_f):
            stop_reason = "target"
            break
        if state.delta < stop.delta_floor:
            stop_reason = "delta-floor"
            break

    record.x_final = state.x.copy()
    record.f_final_true = true_after
    record.eval_total = problem.eval_count
    record.stop_reason = stop_reason
    return record

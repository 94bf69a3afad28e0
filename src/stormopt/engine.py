"""Generic stochastic trust-region loop over pluggable components.

One iteration performs, in order: model construction on B(x_k, delta_k),
step calculation with a Cauchy-decrease certificate, estimation of the
function values at x_k and x_k + s_k, the acceptance test, and the radius
update. The loop makes no assumption on how the model and the two estimates
are made; one duck-typed ``components`` object supplies both:

    components.build(problem, state, rng) -> QuadraticModel
        -- may raise GeometryError or numpy.linalg.LinAlgError
    components.estimate(problem, state, model, step, rng) -> EstimatePair
    components.update_after_iteration(problem, state, trial, estimate, success, rng)
        -- optional hook, called after the radius update

The engine owns the stopping rule. At the start of each iteration it sets
``state.budget_left`` to ``stop.budget`` minus the evaluations spent (None
without a budget), stops when that is not positive, and otherwise hands it
to ``build``, so a component can cap its sample sizes without knowing the
budget itself.

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

import dataclasses
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
    budget_left: Optional[int] = None  # stop.budget - evaluations spent; None without a budget


def _same(a, b) -> bool:
    """Exact equality, field by field, of same-type dataclasses, and of
    arrays, tuples, lists and scalars within them, except that NaN equals
    NaN in the same position. A NaN is unequal to itself, so records whose
    NaN fields are distinct objects, as after pickling, would otherwise
    differ."""
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


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
        return _same(self, other) if isinstance(other, IterationEvent) else NotImplemented


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
        return _same(self, other) if isinstance(other, RunRecord) else NotImplemented

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


def run(problem, components, solver, cfg: TrustRegionConfig, stop: StoppingRule, *,
        variant: str = "custom") -> RunRecord:
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
        state.budget_left = None if stop.budget is None else stop.budget - problem.eval_count
        if state.budget_left is not None and state.budget_left <= 0:
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
            model = components.build(problem, state, rng)
        except (GeometryError, np.linalg.LinAlgError):
            model = None
            flag = "geometry"
        if model is not None:
            grad_norm = model.grad_norm
            step = solver(model, state.delta)
            est: EstimatePair = components.estimate(problem, state, model, step, rng)
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
        if hasattr(components, "update_after_iteration"):
            components.update_after_iteration(problem, state, trial, fs, success, rng)

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

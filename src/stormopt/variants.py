"""Trust-region variants assembled from the generic engine: persistent-set
sample averaging (with optional full resampling), fresh-regression runs for
unbiased noise, fresh-interpolation runs for computation-failure noise, a
subsampled-Newton variant for logistic loss, and an Adagrad baseline.

Each trust-region variant is one components class whose ``build``,
``estimate`` and optional ``update_after_iteration`` the engine calls; one
instance holds a run's state, such as the sample size ``build`` chose for
``estimate`` to reuse.

The runners are ``run_tr_saa(problem, cfg, resample=False, *, stop=None,
solver=dogleg)`` and ``run_storm_unbiased``, ``run_storm_failure`` and
``run_storm_logistic(problem, cfg, *, [hessian=True,] stop=None,
solver=dogleg)``; ``stop`` defaults to a budget-only rule at ``cfg.budget``.
``REGISTRY`` maps the name of every sum-of-squares variant to a runner
``(problem, cfg, stop=None) -> RunRecord``; the CLI runs variants through it.

Sample sizes come from ``P_MIN`` and the problem's dimension n; nothing else
configures them:
    tr-saa / storm-unbiased : p_k = max(P_MIN + k, ceil(1/delta_k)), capped at
                              the budget left, which the engine passes as
                              ``state.budget_left``
    tr-saa / storm-failure  : at most quad_basis_size(n) set points; storm-failure
                              starts from that many, tr-saa from n + 1
    storm-logistic          : p_k = min(p_max, max(100 k + p0, ceil(1/delta_k^2)))
                              with p0 = n + 1 and p_max the training-set size
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from . import _kernels
from .engine import RunRecord, StoppingRule, TrustRegionConfig, run
from .logistic import Dataset, LogisticProblem
from .models import (KIND_REGRESSION, PoisedSet, QuadraticModel, fit_quadratic_set,
                     fit_regression, initial_frame, sample_in_ball)
from .oracles import EstimatePair, averaged_estimate
from .subproblem import dogleg

P_MIN = 10
_NO_BUDGET_CAP = int(sys.float_info.max)
_DEDUPE_REL_TOL = 1e-12


def _rate_linear(k: int, delta: float, budget_left: Optional[int] = None) -> int:
    """max(P_MIN + k, ceil(1/delta)), capped at the budget left so the 1/delta
    rule cannot explode past the budget mid-iteration. The cap (the largest
    float when there is no budget) is applied to 1/delta before the ceil, so
    a tiny radius cannot overflow it."""
    cap = _NO_BUDGET_CAP if budget_left is None else max(1, budget_left)
    return min(cap, max(P_MIN + k, math.ceil(min(1.0 / delta, cap))))


class _PersistentSet:
    """Interpolation set with running value averages and furthest-point
    eviction (ties broken by lowest index; the current center is never
    evicted). Row i of ``points`` goes with ``means[i]`` and ``counts[i]``."""

    def __init__(self, points: np.ndarray):
        self.points = np.array(points, dtype=float)  # (p, n)
        self.means = np.zeros(len(self.points))
        self.counts = np.zeros(len(self.points), dtype=int)
        self.center_index = 0

    def __len__(self):
        return len(self.points)

    def array(self) -> np.ndarray:
        return self.points

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance of every point to ``x``, bit-identical to ``np.linalg.norm``
        of each row's difference (the row-wise dot that the norm takes)."""
        D = self.points - x
        return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])

    @staticmethod
    def _first_within(dists: np.ndarray, x: np.ndarray) -> Optional[int]:
        tol = _DEDUPE_REL_TOL * max(1.0, float(np.linalg.norm(x)))
        hits = np.flatnonzero(dists <= tol)
        return int(hits[0]) if hits.size else None

    def find(self, x: np.ndarray) -> Optional[int]:
        """Index of the first point within the dedupe tolerance of ``x``."""
        return self._first_within(self.distances(x), x)

    def augment_and_evict(self, trial: np.ndarray, mean: float, count: int,
                          new_center: np.ndarray, p_max: int):
        j = self.find(trial)
        if j is None:
            self.points = np.vstack([self.points, trial])
            self.means = np.append(self.means, mean)
            self.counts = np.append(self.counts, count)
        elif count > 0:
            total = self.counts[j] + count
            self.means[j] = (self.counts[j] * self.means[j] + count * mean) / total
            self.counts[j] = total
        dists = self.distances(new_center)
        ci = self._first_within(dists, new_center)
        if ci is not None:
            self.center_index = ci
        if len(self.points) > p_max:
            dists[self.center_index] = -np.inf
            evict = int(np.argmax(dists))  # argmax takes the lowest index on ties
            self.points = np.delete(self.points, evict, axis=0)
            self.means = np.delete(self.means, evict)
            self.counts = np.delete(self.counts, evict)
            if evict < self.center_index:
                self.center_index -= 1


class TrSaaComponents:
    """Persistent interpolation set with incrementally averaged values; the
    center estimate doubles as f_k^0 and is interpolated by the model."""

    def __init__(self, resample: bool):
        self.resample = resample
        self.pset: Optional[_PersistentSet] = None

    def build(self, problem, state, rng):
        self._p_k = _rate_linear(state.k, state.delta, state.budget_left)
        if self.pset is None:
            pts = initial_frame(state.x, state.delta, problem.dimension + 1, rng)
            self.pset = _PersistentSet(pts)
        for i in range(len(self.pset)):
            if self.resample:
                self.pset.means[i] = averaged_estimate(problem, self.pset.points[i],
                                                       self._p_k, rng)
                self.pset.counts[i] = self._p_k
            else:
                have = int(self.pset.counts[i])
                if have < self._p_k:
                    extra = self._p_k - have
                    fresh = averaged_estimate(problem, self.pset.points[i], extra, rng)
                    self.pset.means[i] = (have * self.pset.means[i] + extra * fresh) / self._p_k
                    self.pset.counts[i] = self._p_k
        return fit_quadratic_set(self.pset.array(), state.x, self.pset.means, state.delta)

    def estimate(self, problem, state, model, step, rng):
        f0 = float(self.pset.means[self.pset.center_index])
        fs = averaged_estimate(problem, state.x + step.step, self._p_k, rng)
        return EstimatePair(f0=f0, fs=fs)

    def update_after_iteration(self, problem, state, trial, trial_estimate, success, rng):
        count = 0 if not np.isfinite(trial_estimate) else self._p_k
        mean = trial_estimate if count else 0.0
        self.pset.augment_and_evict(trial, mean, count, state.x,
                                    _kernels.quad_basis_size(problem.dimension))


class StormUnbiasedComponents:
    """Fresh uniformly drawn regression set each iteration; estimates are
    sample averages independent of the model values."""

    def build(self, problem, state, rng):
        self._p_k = _rate_linear(state.k, state.delta, state.budget_left)
        pts = np.vstack([state.x[None, :],
                         sample_in_ball(state.x, state.delta, self._p_k - 1, rng)])
        values = np.array([problem.noisy_eval(p, rng) for p in pts])
        degree = 2 if self._p_k >= _kernels.quad_basis_size(problem.dimension) else 1
        return fit_regression(PoisedSet(pts, state.x, state.delta, KIND_REGRESSION),
                              values, degree)

    def estimate(self, problem, state, model, step, rng):
        f0 = averaged_estimate(problem, state.x, self._p_k, rng)
        fs = averaged_estimate(problem, state.x + step.step, self._p_k, rng)
        return EstimatePair(f0=f0, fs=fs)


class StormFailureComponents:
    """Persistent minimal-change interpolation set of quad_basis_size(n)
    points whose values are recomputed afresh every iteration (single draws,
    no averaging)."""

    def __init__(self):
        self.pset: Optional[_PersistentSet] = None

    def build(self, problem, state, rng):
        if self.pset is None:
            pts = initial_frame(state.x, state.delta,
                                _kernels.quad_basis_size(problem.dimension), rng)
            self.pset = _PersistentSet(pts)
        values = problem.noisy_eval_batch(self.pset.array(), rng)
        return fit_quadratic_set(self.pset.array(), state.x, values, state.delta)

    def estimate(self, problem, state, model, step, rng):
        f0 = problem.noisy_eval(state.x, rng)
        fs = problem.noisy_eval(state.x + step.step, rng)
        return EstimatePair(f0=f0, fs=fs)

    def update_after_iteration(self, problem, state, trial, trial_estimate, success, rng):
        self.pset.augment_and_evict(trial, 0.0, 0, state.x,
                                    _kernels.quad_basis_size(problem.dimension))


class StormLogisticComponents:
    """Model from a subsampled gradient (and optionally Hessian) at x_k; the
    constant term is omitted, so m(0) = 0 and the model decrease is -m(s)."""

    def __init__(self, p0: int, p_max: int, hessian: bool = True):
        self.p0 = p0
        self.p_max = p_max
        self.hessian = hessian

    def _rate(self, k: int, delta: float) -> int:
        # 1/delta^2 is capped at p_max before the ceil: a tiny radius would
        # otherwise overflow it, or underflow delta^2 to 0
        inv_sq = 1.0 / max(delta**2, 1.0 / self.p_max)
        return min(self.p_max, max(100 * k + self.p0, math.ceil(inv_sq)))

    def build(self, problem: LogisticProblem, state, rng):
        self._p_k = self._rate(state.k, state.delta)
        idx = problem.draw_sample(self._p_k, rng)
        _, grad, hess = problem.sampled_loss_grad_hess(idx, state.x, self.hessian)
        n = problem.dimension
        H = 0.5 * hess if self.hessian else np.zeros((n, n))
        return QuadraticModel(state.x, 0.0, grad, H)

    def estimate(self, problem: LogisticProblem, state, model, step, rng):
        i0 = problem.draw_sample(self._p_k, rng)
        i_s = problem.draw_sample(self._p_k, rng)
        f0 = problem.sampled_loss(i0, state.x)
        fs = problem.sampled_loss(i_s, state.x + step.step)
        return EstimatePair(f0=f0, fs=fs)


def _default_stop(cfg: TrustRegionConfig, stop: Optional[StoppingRule]):
    return stop if stop is not None else StoppingRule(budget=cfg.budget)


def run_tr_saa(problem, cfg: TrustRegionConfig, resample: bool = False, *,
               stop: Optional[StoppingRule] = None, solver=dogleg) -> RunRecord:
    return run(problem, TrSaaComponents(resample), solver, cfg, _default_stop(cfg, stop),
               variant="tr-saa-resample" if resample else "tr-saa")


def run_storm_unbiased(problem, cfg: TrustRegionConfig, *,
                       stop: Optional[StoppingRule] = None, solver=dogleg) -> RunRecord:
    return run(problem, StormUnbiasedComponents(), solver, cfg, _default_stop(cfg, stop),
               variant="storm-unbiased")


def run_storm_failure(problem, cfg: TrustRegionConfig, *,
                      stop: Optional[StoppingRule] = None, solver=dogleg) -> RunRecord:
    return run(problem, StormFailureComponents(), solver, cfg, _default_stop(cfg, stop),
               variant="storm-failure")


def run_storm_logistic(problem: LogisticProblem, cfg: TrustRegionConfig, *,
                       hessian: bool = True, stop: Optional[StoppingRule] = None,
                       solver=dogleg) -> RunRecord:
    comp = StormLogisticComponents(p0=problem.dimension + 1,
                                   p_max=problem.train.n_samples, hessian=hessian)
    return run(problem, comp, solver, cfg, _default_stop(cfg, stop),
               variant="storm-logistic" if hessian else "storm-logistic-h0")


REGISTRY = {
    "tr-saa": lambda problem, cfg, stop=None: run_tr_saa(problem, cfg, stop=stop),
    "tr-saa-resample": lambda problem, cfg, stop=None: run_tr_saa(
        problem, cfg, resample=True, stop=stop),
    "storm-unbiased": lambda problem, cfg, stop=None: run_storm_unbiased(
        problem, cfg, stop=stop),
    "storm-failure": lambda problem, cfg, stop=None: run_storm_failure(
        problem, cfg, stop=stop),
}


def check_adagrad_settings(step0: float, batch: int) -> None:
    """Raise ValueError unless step0 is finite and positive and batch >= 1
    (a batch of 0 draws no data, so the budget would never be reached)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    if not (math.isfinite(step0) and step0 > 0):
        raise ValueError(f"step0 must be finite and > 0, got {step0!r}")


def run_adagrad(dataset: Dataset, step0: float = 1.0, batch: int = 10,
                budget: Optional[int] = None, *, lam: float = 1e-4,
                seed: int = 0, record_every: Optional[int] = None) -> RunRecord:
    """Diagonal adaptive gradient descent on the subsampled logistic loss.

    Accumulates per-coordinate squared gradients; the step is
    step0 * g / (sqrt(acc) + 1e-8). True loss is recorded at evenly spaced
    evaluation counts.
    """
    check_adagrad_settings(step0, batch)
    rng = np.random.default_rng(seed)
    problem = LogisticProblem(dataset, lam=lam)
    if budget is None:
        budget = dataset.n_samples
    if record_every is None:
        record_every = max(1, budget // 50)
    x = problem.x0.copy()
    w = x[:-1]  # a view: the steps update x in place
    two_lam = 2.0 * problem.lam
    acc = np.zeros_like(x)
    den = np.empty_like(x)
    record = RunRecord(problem=problem.name, variant="adagrad", seed=seed)
    record.loss_trace.append((0, problem.true_f(x)))
    record.x_checkpoints.append((0, x.copy()))
    next_record = record_every
    while problem.eval_count < budget:
        idx = problem.draw_sample(batch, rng)
        # the gradient of problem.sampled_loss_grad_hess, without its loss
        grad = _kernels.logistic_grad(*problem.rows(idx), w, x[-1])
        grad /= idx.size
        grad[:-1] += two_lam * w
        if grad.any():
            acc += grad**2
            grad *= step0
            np.sqrt(acc, out=den)
            den += 1e-8
            grad /= den
            x -= grad
        if problem.eval_count >= next_record:
            record.loss_trace.append((problem.eval_count, problem.true_f(x)))
            record.x_checkpoints.append((problem.eval_count, x.copy()))
            next_record += record_every
    record.x_final = x
    # every step draws at least one sample, so a checkpoint at the final
    # count was taken at this x
    if record.loss_trace[-1][0] == problem.eval_count:
        record.f_final_true = record.loss_trace[-1][1]
    else:
        record.f_final_true = problem.true_f(x)
        record.loss_trace.append((problem.eval_count, record.f_final_true))
        record.x_checkpoints.append((problem.eval_count, x.copy()))
    record.eval_total = problem.eval_count
    record.stop_reason = "budget"
    return record

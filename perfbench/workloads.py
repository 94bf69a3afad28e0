"""The three seeded workloads, each the library call its CLI subcommand makes.

A workload builds its inputs once from the workload seed (that is the set-up
that ``setup_s`` times) and then runs repetitions. Repetition ``rep`` draws
its solver seeds from ``(seed, rep)``, so a run averages over several seeds
and repetition 0 is the same for a given seed whatever the machine speed:
its outputs give the result digest.

Every solver run is timed on its own. Output checks run outside the timed
region; a run that raised or failed a check counts as failed.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import List, Optional

from stormopt import cli, engine, logistic, oracles, problems, variants
from stormopt.engine import StoppingRule, TrustRegionConfig
from stormopt.profiles import ProfileTable, solve_threshold

import checks
from spans import Rebinder

SEED_STRIDE = 10_000  # solver seeds of one workload seed never meet another's


@dataclass
class Run:
    """One timed solver run and what its checks found."""
    label: str
    seconds: float
    record: object = None
    cfg: Optional[TrustRegionConfig] = None
    target: Optional[float] = None
    solved: Optional[bool] = None  # None where the run has no target
    problems: List[str] = field(default_factory=list)

    @property
    def trust_region(self) -> bool:
        return self.cfg is not None


@dataclass
class Rep:
    runs: List[Run] = field(default_factory=list)
    result: dict = field(default_factory=dict)  # workload outputs for the digest
    table: Optional[ProfileTable] = None
    loss_final: Optional[float] = None
    iterations: int = 0  # trust-region iterations, counted by close()

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.runs)

    def close(self, keep_records: bool) -> "Rep":
        """Count the iterations, then drop the records unless asked to keep
        them. Holding every repetition's records would make the peak RSS grow
        with the number of repetitions, that is with speed."""
        self.iterations = sum(len(r.record.events) for r in self.runs
                              if r.trust_region and r.record is not None)
        if not keep_records:
            for r in self.runs:
                r.record = None
        return self


def _timed(tracer, run_id: int, fn):
    """Call ``fn`` and return (result, seconds); under tracing, inside a
    root span that carries the solver-run id."""
    if tracer is None:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    tracer.run_id = run_id
    with tracer.span("bench.run"):
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
    tracer.run_id = -1
    return out, seconds


def _attempt(rep: Rep, label: str, tracer, fn):
    """Run one solver call and return (run, its result), or None when it
    raised; either way the run is appended to ``rep``."""
    try:
        out, seconds = _timed(tracer, len(rep.runs), fn)
    except Exception:  # noqa: BLE001 - the benchmark counts and reports every failure
        rep.runs.append(Run(label, 0.0, problems=[traceback.format_exc(limit=3)]))
        return None
    run = Run(label, seconds)
    rep.runs.append(run)
    return run, out


class ProfileGrid:
    """``stormopt profile``: three solvers on all eight built-in problems,
    multiplicative noise sigma=1e-3, tau=1e-3, budget 1000*(n+1)."""

    name = "profile-grid"
    solvers = ("storm-unbiased", "tr-saa", "tr-saa-resample")
    noise, sigma, tau, budget_mult = "multiplicative", 1e-3, 1e-3, 1000
    expected_spans = ("engine.loop", "engine.noiseless", "variants.build",
                      "variants.estimate", "variants.set_update", "oracles.noisy_eval",
                      "oracles.averaged_estimate", "models.fit", "_kernels.quad_basis",
                      "subproblem.dogleg", "profiles.table", "cli.profile_cells")

    def build_inputs(self, seed: int):
        return problems.builtin_suite()

    def _cell(self, rep: Rep, spec, solver: str, cell_seed: int, tracer):
        """One (solver, problem, seed) cell as its own run_profile_cells call."""
        captured = []
        rebinder = Rebinder("stormopt")
        loop = engine.run

        def capture(*args, **kwargs):
            rec = loop(*args, **kwargs)
            captured.append(rec)
            return rec

        rebinder.rebind(loop, capture)
        try:
            got = _attempt(rep, f"{solver}/{spec.name}/{cell_seed}", tracer,
                           lambda: cli.run_profile_cells(
                               [solver], [spec], self.noise, self.sigma, self.tau,
                               self.budget_mult, 1, seed0=cell_seed))
        finally:
            rebinder.close()
        if got is None:
            return None
        run, table = got
        budget = self.budget_mult * (spec.n + 1)
        run.cfg = TrustRegionConfig(budget=budget, seed=cell_seed)
        run.target = solve_threshold(spec.instantiate().true_f(spec.x0), spec.f_star, self.tau)
        if len(captured) != 1 or len(table.rows) != 1:
            run.problems.append(f"expected one record and one row, got "
                                f"{len(captured)} and {len(table.rows)}")
            return None
        run.record = captured[0]
        run.problems += checks.check_tr_record(run.record, run.cfg)
        row = table.rows[0]
        want = run.record.evals_to_reach(run.target, budget)
        if row.evals_to_solve != want:
            run.problems.append(f"table says {row.evals_to_solve}, record says {want}")
        run.solved = row.evals_to_solve is not None
        return row

    def run_rep(self, specs, seed: int, rep: int, tracer=None, first_only=False) -> Rep:
        out = Rep()
        cell_seed = seed * SEED_STRIDE + rep
        table = ProfileTable()
        for spec in specs:
            for solver in self.solvers:
                row = self._cell(out, spec, solver, cell_seed, tracer)
                if row is not None:
                    table.rows.append(row)
                if first_only:
                    return out
        csv_text = table.to_csv()
        out.result = {"profile_csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
                      "cells": len(table.rows)}
        out.table = table
        return out


class FailureSweep:
    """``stormopt sweep``: storm-failure on simple-quad-10 under
    component-failure noise, budget 10 000, target 1e-5 passed as a stop."""

    name = "failure-sweep"
    problem = "simple-quad-10"
    ps_grid = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
    seeds_per_ps = 4
    budget, ftol, epsilon, garbage = 10_000, 1e-5, 0.1, -10000.0
    expected_spans = ("engine.loop", "engine.noiseless", "variants.build",
                      "variants.estimate", "variants.set_update", "oracles.noisy_eval",
                      "models.fit", "_kernels.quad_basis", "subproblem.dogleg")

    def build_inputs(self, seed: int):
        return problems.get_problem(self.problem)

    def run_rep(self, spec, seed: int, rep: int, tracer=None, first_only=False) -> Rep:
        out = Rep()
        base = seed * SEED_STRIDE + rep * self.seeds_per_ps
        solved_frac, eval_totals = [], []
        for ps in self.ps_grid:
            solved = 0
            for j in range(self.seeds_per_ps):
                # the same calls, in the same order, as cli.cmd_sweep
                noise = oracles.NoiseSpec(kind="failure",
                                          sigma=oracles.per_s_to_sigma(ps, spec.m),
                                          epsilon=self.epsilon, garbage_value=self.garbage)
                problem = spec.instantiate(noise)
                cfg = TrustRegionConfig(budget=self.budget, seed=base + j)
                stop = StoppingRule(budget=self.budget, target_f=self.ftol)
                got = _attempt(out, f"ps={ps}/{base + j}", tracer,
                               lambda: variants.run_storm_failure(problem, cfg, stop=stop))
                if got is None:
                    continue
                run, record = got
                run.record = record
                run.cfg, run.target = cfg, self.ftol
                run.problems += checks.check_tr_record(run.record, cfg)
                if run.record.stop_reason == "target" and not run.record.f_final_true < self.ftol:
                    run.problems.append("stopped on target above the target")
                run.solved = run.record.evals_to_reach(self.ftol, self.budget) is not None
                solved += run.solved
                eval_totals.append(run.record.eval_total)
                if first_only:
                    return out
            solved_frac.append(solved / self.seeds_per_ps)
        out.result = {"solved_fraction": dict(zip(map(repr, self.ps_grid), solved_frac)),
                      "eval_totals": eval_totals}
        return out


class LogisticTrain:
    """``stormopt train``: synthetic 200 000 x 50 data, a 5% test split, one
    pass of storm-logistic, then one pass of the Adagrad baseline."""

    name = "logistic-train"
    n_samples, n_features, lam = 200_000, 50, 1e-4
    expected_spans = ("engine.loop", "engine.noiseless", "variants.build",
                      "variants.estimate", "subproblem.dogleg", "logistic.sampled",
                      "logistic.draw_sample", "logistic.true_f",
                      "_kernels.logistic_sums", "_kernels.logistic_hess")

    def build_inputs(self, seed: int):
        ds = logistic.make_synthetic(self.n_samples, self.n_features, seed=seed)
        return logistic.train_test_split(ds, test_fraction=0.05, seed=seed)

    def run_rep(self, data, seed: int, rep: int, tracer=None, first_only=False) -> Rep:
        train, test = data
        out = Rep()
        run_seed = seed * SEED_STRIDE + rep
        budget = train.n_samples
        cfg = TrustRegionConfig(budget=budget, seed=run_seed)
        test_problem = logistic.LogisticProblem(test, lam=self.lam)

        # the same calls, in the same order, as cli.cmd_train
        got = _attempt(out, f"storm-logistic/{run_seed}", tracer,
                       lambda: variants.run_storm_logistic(
                           logistic.LogisticProblem(train, lam=self.lam), cfg, hessian=True))
        if got is not None:
            run, record = got
            run.record = record
            run.cfg = cfg
            run.problems += checks.check_tr_record(run.record, cfg)
            run.problems += self._check_losses(run.record, test_problem)
            out.result["storm"] = [run.record.eval_total, repr(float(run.record.f_final_true))]
            out.loss_final = run.record.f_final_true
        if first_only:
            return out
        got = _attempt(out, f"adagrad/{run_seed}", tracer,
                       lambda: variants.run_adagrad(train, step0=1.0, batch=10, budget=budget,
                                                    lam=self.lam, seed=run_seed))
        if got is not None:
            run, record = got
            run.record = record
            run.problems += checks.check_baseline_record(run.record, budget)
            run.problems += self._check_losses(run.record, test_problem)
            out.result["adagrad"] = [run.record.eval_total, repr(float(run.record.f_final_true))]
        return out

    @staticmethod
    def _check_losses(rec, test_problem) -> list:
        """Training must beat x0 = 0, whose loss is log 2, on both splits."""
        test_loss = test_problem.true_f(rec.x_final)
        if rec.f_final_true < math.log(2.0) and test_loss < math.log(2.0):
            return []
        return [f"train loss {rec.f_final_true!r} or test loss {test_loss!r} not below log 2"]


WORKLOADS = {w.name: w for w in (ProfileGrid(), FailureSweep(), LogisticTrain())}

"""Output checks on the records a workload produces.

Each check returns a list of problems; an empty list means the record passed.
"""

from __future__ import annotations

import math

FLAGS = (None, "geometry", "zero-decrease")


def check_tr_record(rec, cfg) -> list:
    """Invariants of one trust-region run under config ``cfg``."""
    problems = []
    for ev in rec.events:
        # grow (up to delta_max) exactly on acceptance, shrink otherwise
        if ev.success:
            want = min(cfg.gamma * ev.delta_before, cfg.delta_max)
        else:
            want = ev.delta_before / cfg.gamma
        if ev.delta_after != want:
            problems.append(f"k={ev.k}: success={ev.success} but delta "
                            f"{ev.delta_before!r} -> {ev.delta_after!r}")
        if ev.flag not in FLAGS:
            problems.append(f"k={ev.k}: unknown flag {ev.flag!r}")
    used = sum(ev.evals_used_this_iter for ev in rec.events)
    if used != rec.eval_total:
        problems.append(f"eval_total {rec.eval_total} != sum of per-iteration evals {used}")
    if rec.f_final_true is None or not math.isfinite(rec.f_final_true):
        problems.append(f"f_final_true not finite: {rec.f_final_true!r}")
    return problems


def check_baseline_record(rec, budget: int) -> list:
    """Invariants of a non-trust-region baseline run (Adagrad)."""
    problems = []
    if rec.f_final_true is None or not math.isfinite(rec.f_final_true):
        problems.append(f"f_final_true not finite: {rec.f_final_true!r}")
    if rec.eval_total < budget:
        problems.append(f"stopped at {rec.eval_total} evals, before the budget {budget}")
    if not rec.loss_trace or rec.loss_trace[-1][0] != rec.eval_total:
        problems.append("loss trace does not end at eval_total")
    return problems


def evals_past_target(rec, target) -> int:
    """Evaluations spent after the noiseless f first dropped below ``target``."""
    if target is None:
        return 0
    reached = rec.evals_to_reach(target)
    return 0 if reached is None else rec.eval_total - reached

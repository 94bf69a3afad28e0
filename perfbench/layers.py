"""Which package functions get a span, and the per-layer metrics built from
the spans and the records of a traced repetition.

Span names follow the modules. Where one module's function is reached from
two layers, the span takes its name from the caller: the noiseless ``true_f``
is ``engine.noiseless`` when the engine loop calls it and
``oracles.true_f``/``logistic.true_f`` otherwise.
"""

from __future__ import annotations

from contextlib import contextmanager

from stormopt import _kernels, cli, engine, logistic, models, oracles, profiles, subproblem, variants

import checks
from spans import Rebinder, Tracer, spanned


def _noiseless(elsewhere: str):
    def pick(tracer: Tracer) -> str:
        return "engine.noiseless" if tracer.current() == "engine.loop" else elsewhere
    return pick


def _count_logistic_rows(tracer: Tracer, args, kwargs) -> None:
    X, y, w = args[0], args[1], args[2]
    tracer.count("logistic.rows_touched", X.shape[0])
    tracer.count("logistic.bytes_computed", X.nbytes + y.nbytes + w.nbytes)


def _targets():
    """(span name, owner, attribute, per-call hook) for every wrapped function."""
    out = [
        ("engine.loop", engine, "run", None),
        (_noiseless("oracles.true_f"), oracles.StochasticProblem, "true_f", None),
        (_noiseless("logistic.true_f"), logistic.LogisticProblem, "true_f", None),
        ("oracles.noisy_eval", oracles.StochasticProblem, "noisy_eval", None),
        ("oracles.averaged_estimate", oracles, "averaged_estimate", None),
        ("models.fit", models, "fit_quadratic_set", None),
        ("_kernels.quad_basis", _kernels, "quad_basis", None),
        ("_kernels.logistic_sums", _kernels, "logistic_sums", _count_logistic_rows),
        ("_kernels.logistic_hess", _kernels, "logistic_hess", _count_logistic_rows),
        ("subproblem.dogleg", subproblem, "dogleg", None),
        ("logistic.sampled", logistic.LogisticProblem, "sampled_loss", None),
        ("logistic.sampled", logistic.LogisticProblem, "sampled_loss_grad_hess", None),
        ("logistic.draw_sample", logistic.LogisticProblem, "draw_sample", None),
        ("profiles.table", profiles.ProfileTable, "add", None),
        ("profiles.table", profiles.ProfileTable, "to_csv", None),
        ("cli.profile_cells", cli, "run_profile_cells", None),
    ]
    # the variants' component objects, found by the engine's duck type
    for cls in vars(variants).values():
        if isinstance(cls, type) and "build" in vars(cls) and "estimate" in vars(cls):
            out.append(("variants.build", cls, "build", None))
            out.append(("variants.estimate", cls, "estimate", None))
            if "update_after_iteration" in vars(cls):
                out.append(("variants.set_update", cls, "update_after_iteration", None))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install a span around every target for the duration of the block."""
    rebinder = Rebinder("stormopt")
    try:
        for name, owner, attr, on_call in _targets():
            original = getattr(owner, attr)
            if rebinder.rebind(original, spanned(tracer, name, original, on_call)) == 0:
                raise RuntimeError(f"found no binding of {owner.__name__}.{attr}")
        yield
    finally:
        rebinder.close()


SPAN_METRICS = (
    # (metric, span, field); "total" includes the time of child spans, so the
    # full-data diagnostics show whole while their kernel time also counts
    # under _kernels.logistic_sums.self_s
    ("oracles.noisy_eval.calls", "oracles.noisy_eval", "calls"),
    ("oracles.noisy_eval.self_s", "oracles.noisy_eval", "self"),
    ("oracles.averaged_estimate.self_s", "oracles.averaged_estimate", "self"),
    ("variants.build.self_s", "variants.build", "self"),
    ("variants.estimate.self_s", "variants.estimate", "self"),
    ("variants.set_update.self_s", "variants.set_update", "self"),
    ("models.fit.calls", "models.fit", "calls"),
    ("models.fit.self_s", "models.fit", "self"),
    ("_kernels.quad_basis.self_s", "_kernels.quad_basis", "self"),
    ("subproblem.dogleg.calls", "subproblem.dogleg", "calls"),
    ("subproblem.dogleg.self_s", "subproblem.dogleg", "self"),
    ("engine.loop.self_s", "engine.loop", "self"),
    ("engine.noiseless.calls", "engine.noiseless", "calls"),
    ("engine.noiseless.self_s", "engine.noiseless", "self"),
    ("engine.noiseless.total_s", "engine.noiseless", "total"),
    ("logistic.sampled.calls", "logistic.sampled", "calls"),
    ("logistic.sampled.self_s", "logistic.sampled", "self"),
    ("logistic.draw_sample.self_s", "logistic.draw_sample", "self"),
    ("logistic.true_f.total_s", "logistic.true_f", "total"),
    ("_kernels.logistic_sums.self_s", "_kernels.logistic_sums", "self"),
    ("_kernels.logistic_hess.self_s", "_kernels.logistic_hess", "self"),
    ("profiles.table.self_s", "profiles.table", "self"),
    ("cli.profile_cells.self_s", "cli.profile_cells", "self"),
)


def layer_metrics(tracer: Tracer, rep) -> dict:
    """Per-layer values of one traced repetition, as {name: value}."""
    totals = tracer.layer_totals()
    empty = {"calls": 0, "self_ns": 0.0, "total_ns": 0.0}
    out = {}
    for metric, span, fld in SPAN_METRICS:
        t = totals.get(span, empty)
        out[metric] = t["calls"] if fld == "calls" else t[f"{fld}_ns"] / 1e9
    evals = totals.get("oracles.noisy_eval", empty)
    out["oracles.evals_per_s"] = (evals["calls"] / (evals["total_ns"] / 1e9)
                                  if evals["calls"] else 0.0)
    out["logistic.rows_touched"] = tracer.counters.get("logistic.rows_touched", 0)
    out["logistic.bytes_computed"] = tracer.counters.get("logistic.bytes_computed", 0)

    tr_runs = [r for r in rep.runs if r.trust_region and r.record is not None]
    events = [ev for r in tr_runs for ev in r.record.events]
    all_evals = sum(r.record.eval_total for r in tr_runs)
    out["engine.iterations"] = len(events)
    out["engine.accept_frac"] = sum(bool(ev.success) for ev in events) / max(1, len(events))
    out["models.geometry_flags"] = sum(ev.flag == "geometry" for ev in events)
    out["engine.evals_past_target_frac"] = (
        sum(checks.evals_past_target(r.record, r.target) for r in tr_runs) / max(1, all_evals))
    out["trace.spans"] = len(tracer.start)
    return out


def missing_spans(tracer: Tracer, expected) -> list:
    """Expected spans that recorded no call inside a solver run."""
    totals = tracer.layer_totals()
    return [name for name in expected if totals.get(name, {"calls": 0})["calls"] == 0]

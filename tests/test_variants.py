import math

import numpy as np
import pytest

from stormopt import engine, variants
from stormopt.engine import StoppingRule, TrustRegionConfig, run
from stormopt.logistic import Dataset, LogisticProblem, make_synthetic
from stormopt.models import QuadraticModel, initial_frame
from stormopt.oracles import NoiseSpec, per_s_to_sigma
from stormopt.problems import get_problem
from stormopt.subproblem import dogleg
from stormopt.variants import (P_MIN, REGISTRY, StormFailureComponents,
                               StormLogisticComponents, TrSaaComponents, _PersistentSet,
                               _rate_linear, run_adagrad, run_storm_failure,
                               run_storm_logistic, run_storm_unbiased, run_tr_saa)


def problem_with(name="simple-quad-2", noise=NoiseSpec()):
    return get_problem(name).instantiate(noise)


def spy(monkeypatch, log, owner, name, label=None):
    """Append ``label`` (default ``name``) to ``log`` on every call of
    ``owner.name``, and return the spy. The variants look these names up at
    call time, so the spy sees every call a run makes; the runners bind
    ``dogleg`` as a default, so a spy on it is passed as ``solver=``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append(label or name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return wrapper


def spy_evictions(monkeypatch):
    """Record (evicted point, points before eviction, new center) for every
    eviction that ``_PersistentSet.augment_and_evict`` makes."""
    log = []
    original = _PersistentSet.augment_and_evict

    def wrapper(self, trial, mean, count, new_center, p_max):
        grown = self.points if self.find(trial) is not None else np.vstack([self.points, trial])
        original(self, trial, mean, count, new_center, p_max)
        if len(self.points) < len(grown):
            i = next(i for i in range(len(grown))
                     if np.array_equal(np.delete(grown, i, axis=0), self.points))
            log.append((grown[i], grown, np.array(new_center, dtype=float)))
    monkeypatch.setattr(_PersistentSet, "augment_and_evict", wrapper)
    return log


# ------------------------------------------------------------- sample rates

def test_tr_saa_sample_rate():
    assert P_MIN == 10
    assert _rate_linear(0, 1.0) == 10
    assert _rate_linear(5, 0.01) == 100
    assert _rate_linear(60, 0.5) == 70
    assert _rate_linear(5, 0.01, 40) == 40  # capped at the budget left


def test_logistic_sample_rate(monkeypatch):
    made = []
    init = StormLogisticComponents.__init__

    def record(self, p0, p_max, hessian=True):
        made.append((p0, p_max))
        init(self, p0, p_max, hessian)
    monkeypatch.setattr(StormLogisticComponents, "__init__", record)
    problem = LogisticProblem(make_synthetic(300, 10, seed=0), lam=1e-4)
    run_storm_logistic(problem, TrustRegionConfig(budget=100, seed=0))
    assert made == [(12, 300)]  # p0 = dimension + 1, p_max = training-set size

    comp = StormLogisticComponents(p0=12, p_max=50_000)
    assert comp._rate(0, 1.0) == 12
    assert comp._rate(0, 0.01) == 10_000
    assert comp._rate(3, 1.0) == 312
    comp_small = StormLogisticComponents(p0=12, p_max=1_000)
    assert comp_small._rate(0, 0.01) == 1_000  # clamped to the training size


def _old_rate_linear(k, delta, budget_left):
    p = max(P_MIN + k, math.ceil(1.0 / delta))
    return p if budget_left is None else min(p, max(1, budget_left))


def _old_logistic_rate(p0, p_max, k, delta):
    return min(p_max, max(100 * k + p0, math.ceil(1.0 / delta**2)))


def test_rates_equal_the_uncapped_rules_wherever_those_did_not_raise():
    # capping 1/delta at the budget left, or at the largest float without a
    # budget (and 1/delta^2 at p_max), before the ceil only removes the
    # overflow: every other value is unchanged
    deltas = np.concatenate([np.logspace(-300, 1, 3011), [1e-320, 5e-324]])
    compared = raised = 0
    for delta in map(float, deltas):
        for k, left in [(0, 3000), (7, 1), (40, 25), (2, 10**9), (0, None), (9, None)]:
            new = _rate_linear(k, delta, left)
            assert isinstance(new, int)
            assert (1 <= new <= max(1, left)) if left is not None else new >= P_MIN + k
            try:
                old = _old_rate_linear(k, delta, left)
            except OverflowError:
                raised += 1
                continue
            compared += 1
            assert new == old, (delta, k, left)
        for p0, p_max, k in [(12, 50_000, 0), (4, 20, 3), (51, 190_000, 1), (2, 1, 0)]:
            comp = StormLogisticComponents(p0=p0, p_max=p_max)
            new = comp._rate(k, delta)
            assert 1 <= new <= p_max
            try:
                old = _old_logistic_rate(p0, p_max, k, delta)
            except (OverflowError, ZeroDivisionError):
                raised += 1
                continue
            compared += 1
            assert new == old, (delta, p0, p_max, k)
    assert compared and raised  # both kinds of radius were seen


@pytest.mark.parametrize("budget", [300, None])
@pytest.mark.parametrize("runner", [
    run_tr_saa, run_storm_unbiased,
    # components run directly get the budget from the engine, not from a runner
    lambda problem, cfg, stop: run(problem, TrSaaComponents(resample=True), dogleg, cfg, stop),
], ids=["tr-saa", "storm-unbiased", "direct"])
def test_sample_rate_sees_the_engines_budget_left(monkeypatch, runner, budget):
    problem = problem_with(noise=NoiseSpec(kind="additive", sigma=0.1))
    seen = []
    rate = variants._rate_linear

    def spy_rate(k, delta, budget_left=None):
        seen.append((budget_left, problem.eval_count))
        return rate(k, delta, budget_left)
    monkeypatch.setattr(variants, "_rate_linear", spy_rate)
    stop = StoppingRule(budget=budget, max_iterations=None if budget else 30)
    rec = runner(problem, TrustRegionConfig(budget=1_000, seed=0), stop=stop)
    assert len(seen) == len(rec.events)  # one rate per build, one build per iteration
    for left, spent in seen:
        assert left == (None if budget is None else budget - spent)


def _every_37th(residual, value):
    """``residual`` with every 37th call's values replaced by ``value``."""
    calls = [0]

    def hostile(x):
        calls[0] += 1
        out = np.asarray(residual(x), dtype=float)
        return np.full_like(out, value) if calls[0] % 37 == 0 else out
    return hostile


@pytest.mark.parametrize("hostile", ["nan", "inf", "delta0=1e-320"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_hostile_input_leaves_no_unflagged_non_finite_model(name, hostile):
    delta0 = 1.0
    if hostile == "delta0=1e-320":
        # unscaling a model fitted at this radius overflows to inf and NaN
        delta0 = 1e-320
        problem = problem_with("simple-quad-2")
    else:
        problem = problem_with("rosenbrock-2", NoiseSpec(kind="multiplicative", sigma=1e-3))
        problem.residual = _every_37th(problem.residual, float(hostile))
    cfg = TrustRegionConfig(delta0=delta0, budget=3_000, seed=1)
    with np.errstate(all="ignore"):
        rec = REGISTRY[name](problem, cfg, StoppingRule(budget=3_000))
    assert rec.events
    for ev in rec.events:
        assert ev.flag is not None or np.isfinite(ev.model_gradient_norm), ev.k


# ------------------------------------------------------------ phase ordering

def iteration_phases(log):
    """Split a call log into per-iteration lists (each begins with "build"),
    with repeated calls of one phase merged."""
    out = []
    for label in log:
        if label == "build":
            out.append([])
        elif not out[-1] or out[-1][-1] != label:
            out[-1].append(label)
    return out


def spy_phases(monkeypatch, component_cls, names):
    """Returns the call log and the spied step solver to run with."""
    log = []
    spy(monkeypatch, log, component_cls, "build")
    step = spy(monkeypatch, log, variants, "dogleg", "step")
    spy(monkeypatch, log, engine, "acceptance_test", "acceptance")
    for owner, name, label in names:
        spy(monkeypatch, log, owner, name, label)
    return log, step


def test_tr_saa_phase_order(monkeypatch):
    log, step = spy_phases(monkeypatch, TrSaaComponents, [
        (variants, "_rate_linear", "sample-rate"),
        (variants, "averaged_estimate", "averages"),
        (variants, "fit_quadratic_set", "model"),
        (_PersistentSet, "augment_and_evict", "set-update")])
    rec = run_tr_saa(problem_with(), TrustRegionConfig(budget=400, seed=0), solver=step)
    phases = iteration_phases(log)
    assert len(phases) == len(rec.events) > 1
    for ev, got in zip(rec.events, phases):
        # the set values are topped up, then the model is fitted; after the
        # step the trial point is estimated; the set update comes last
        want = ["sample-rate", "averages", "model", "step", "averages",
                "acceptance", "set-update"]
        if ev.flag == "zero-decrease":
            want.remove("acceptance")
        assert got == want


def test_storm_unbiased_phase_order(monkeypatch):
    problem = problem_with()
    log, step = spy_phases(monkeypatch, variants.StormUnbiasedComponents, [
        (variants, "_rate_linear", "sample-rate"),
        (variants, "sample_in_ball", "set-draw"),
        (problem, "noisy_eval", "values"),
        (variants, "fit_regression", "model"),
        (variants, "averaged_estimate", "estimates")])
    rec = run_storm_unbiased(problem, TrustRegionConfig(budget=400, seed=0), solver=step)
    phases = iteration_phases(log)
    assert len(phases) == len(rec.events) > 1
    for ev, got in zip(rec.events, phases):
        want = ["sample-rate", "set-draw", "values", "model", "step",
                "estimates", "acceptance"]
        if ev.flag == "zero-decrease":
            want.remove("acceptance")
        assert got == want


def test_storm_failure_phase_order(monkeypatch):
    problem = problem_with()
    log, step = spy_phases(monkeypatch, StormFailureComponents, [
        (problem, "noisy_eval_batch", "values-afresh"),
        (variants, "fit_quadratic_set", "model"),
        (problem, "noisy_eval", "estimates"),
        (_PersistentSet, "augment_and_evict", "set-update")])
    rec = run_storm_failure(problem, TrustRegionConfig(budget=400, seed=0), solver=step)
    phases = iteration_phases(log)
    assert len(phases) == len(rec.events) > 1
    for ev, got in zip(rec.events, phases):
        want = ["values-afresh", "model", "step", "estimates", "acceptance", "set-update"]
        if ev.flag == "zero-decrease":
            want.remove("acceptance")
        assert got == want


def test_storm_logistic_phase_order(monkeypatch):
    problem = LogisticProblem(make_synthetic(100, 4, seed=0), lam=1e-4)
    log, step = spy_phases(monkeypatch, StormLogisticComponents, [
        (StormLogisticComponents, "_rate", "sample-rate"),
        (problem, "sampled_loss_grad_hess", "model"),
        (problem, "sampled_loss", "estimates")])
    rec = run_storm_logistic(problem, TrustRegionConfig(budget=100, seed=0), solver=step)
    phases = iteration_phases(log)
    assert len(phases) == len(rec.events) > 1
    for ev, got in zip(rec.events, phases):
        want = ["sample-rate", "model", "step", "estimates", "acceptance"]
        if ev.flag == "zero-decrease":
            want.remove("acceptance")
        assert got == want


def test_set_update_sees_the_updated_iterate(monkeypatch):
    # the radius and iterate update comes before the set update, which
    # recenters the set on the new x_k
    centers = []
    original = _PersistentSet.augment_and_evict

    def wrapper(self, trial, mean, count, new_center, p_max):
        centers.append(np.array(new_center))
        original(self, trial, mean, count, new_center, p_max)
    monkeypatch.setattr(_PersistentSet, "augment_and_evict", wrapper)
    for runner in (run_tr_saa, run_storm_failure):
        centers.clear()
        rec = runner(problem_with(), TrustRegionConfig(budget=400, seed=0))
        assert len(centers) == len(rec.events)
        assert any(ev.success for ev in rec.events)
        for ev, c in zip(rec.events, centers):
            np.testing.assert_array_equal(c, ev.x_after)


# --------------------------------------------------------------- independence

def test_storm_unbiased_model_and_estimate_draws_are_separate(monkeypatch):
    # the model consumes exactly p_k draws and the estimates 2 p_k fresh ones
    problem = problem_with(noise=NoiseSpec(kind="additive", sigma=0.1))
    log = []
    orig = problem.noisy_evals

    def counting_evals(x, count, rng):
        log.extend(["draw"] * count)
        return orig(x, count, rng)

    problem.noisy_evals = counting_evals  # noisy_eval draws through it too
    spy(monkeypatch, log, variants, "sample_in_ball", "set-draw")
    spy(monkeypatch, log, variants, "fit_regression", "model")
    step = spy(monkeypatch, log, variants, "dogleg", "step")
    rec = run_storm_unbiased(problem, TrustRegionConfig(budget=150, seed=0), solver=step)
    ev0 = rec.events[0]
    p0 = P_MIN  # p_min at k=0, delta=1
    assert ev0.evals_used_this_iter == 3 * p0
    # draws happen in two separated blocks: the set values after the set
    # draw, and the two estimates after the step
    assert log[:3 * p0 + 3] == (["set-draw"] + ["draw"] * p0 + ["model", "step"]
                                + ["draw"] * (2 * p0))


# ------------------------------------------------------------------ eviction

def test_eviction_respects_cap_and_furthest_rule(monkeypatch):
    evictions = spy_evictions(monkeypatch)
    problem = problem_with(noise=NoiseSpec(kind="failure", sigma=0.3, epsilon=10.0))
    comp = StormFailureComponents()
    cfg = TrustRegionConfig(budget=600, seed=2)
    run(problem, comp, dogleg, cfg, StoppingRule(budget=600), variant="storm-failure")
    assert len(comp.pset) <= 6  # the quadratic count for n = 2
    assert evictions  # at least one eviction happened
    for evicted, grown, center in evictions:
        d_ev = np.linalg.norm(evicted - center)
        dists = np.array([np.linalg.norm(p - center) for p in grown])
        assert d_ev >= dists[dists > 0].max() - 1e-12


def test_tr_saa_center_estimate_is_interpolated_by_model():
    # the stored center estimate serves as f_k^0 AND as an interpolation
    # value, so m_k(x_k) reproduces it on every iteration (the deliberate
    # estimate/model coupling of this variant)

    class Instrumented(TrSaaComponents):
        checks = []

        def estimate(self, problem, state, model, step, rng):
            est = super().estimate(problem, state, model, step, rng)
            self.checks.append((model.value_at(state.x), est.f0))
            return est

    problem = problem_with(noise=NoiseSpec(kind="additive", sigma=0.1))
    cfg = TrustRegionConfig(budget=500, seed=6)
    comp = Instrumented(resample=False)
    run(problem, comp, dogleg, cfg, StoppingRule(budget=500), variant="tr-saa")
    assert comp.checks
    for m_at_center, f0 in comp.checks:
        assert m_at_center == pytest.approx(f0, rel=1e-6, abs=1e-9)


def test_eviction_never_removes_center(monkeypatch):
    evictions = spy_evictions(monkeypatch)
    problem = problem_with(noise=NoiseSpec(kind="additive", sigma=0.05))
    comp = TrSaaComponents(resample=False)
    cfg = TrustRegionConfig(budget=800, seed=4)
    run(problem, comp, dogleg, cfg, StoppingRule(budget=800), variant="tr-saa")
    assert evictions
    for evicted, _, c in evictions:
        assert np.linalg.norm(evicted - c) > 0  # never the center itself


@pytest.mark.parametrize("n", [2, 3, 5, 10])
@pytest.mark.parametrize("seed", range(10))
def test_near_tie_eviction_matches_per_row_norm(n, seed):
    # every point of a +-frame-plus-midpoints set lies at distance delta
    # from the center in exact arithmetic, so the evicted index is decided
    # by the last bits of the computed distances
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(n)
    delta = 10.0 ** rng.uniform(-6, 1)
    pts = initial_frame(center, delta, (n + 1) * (n + 2) // 2, rng)
    pset = _PersistentSet(pts)
    trial = center + 0.5 * delta * rng.standard_normal(n) / np.sqrt(n)
    grown = np.vstack([pts, trial])
    want = np.array([np.linalg.norm(p - center) for p in grown])
    assert np.array_equal(_PersistentSet(grown).distances(center), want)
    pset.augment_and_evict(trial, 0.0, 0, center, p_max=len(pts))
    want[0] = -np.inf  # the center
    assert np.array_equal(pset.points, np.delete(grown, np.argmax(want), axis=0))
    assert len(pset) == len(pts) and pset.center_index == 0


def test_persistent_set_find_returns_first_match():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pset = _PersistentSet(pts)
    assert pset.find(np.array([1.0, 1e-15])) == 1
    assert pset.find(np.array([0.5, 0.5])) is None
    assert pset.array() is pset.points


# ---------------------------------------------------------- budget compliance

@pytest.mark.parametrize("runner", [
    lambda p, c: run_tr_saa(p, c),
    lambda p, c: run_tr_saa(p, c, resample=True),
    run_storm_unbiased,
    run_storm_failure,
])
def test_budget_compliance(runner):
    problem = problem_with("rosenbrock-2", NoiseSpec(kind="multiplicative", sigma=1e-3))
    budget = 600
    rec = runner(problem, TrustRegionConfig(budget=budget, seed=1))
    worst = max(ev.evals_used_this_iter for ev in rec.events)
    assert rec.eval_total <= budget + worst


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_entry_stops_at_a_reachable_target(name):
    budget = 2000
    rec = REGISTRY[name](problem_with("simple-quad-2"),
                         TrustRegionConfig(budget=budget, seed=0),
                         StoppingRule(budget=budget, target_f=1e-2))
    assert rec.stop_reason == "target"
    assert rec.f_final_true < 1e-2


@pytest.mark.parametrize("p_s, seed", [(0.1, 70038), (0.5, 100093)])
def test_storm_failure_survives_a_failed_least_squares_solve(p_s, seed):
    # seeded sweep runs whose degenerate set once made lstsq raise
    # LinAlgError out of the run; that iteration is now flagged "geometry"
    spec = get_problem("simple-quad-10")
    noise = NoiseSpec(kind="failure", sigma=per_s_to_sigma(p_s, spec.m),
                      epsilon=0.1, garbage_value=-10000.0)
    cfg = TrustRegionConfig(budget=10_000, seed=seed)
    rec = run_storm_failure(spec.instantiate(noise), cfg,
                            stop=StoppingRule(budget=10_000, target_f=1e-5))
    assert rec.stop_reason in ("delta-floor", "target", "budget")
    assert np.isfinite(rec.f_final_true)
    assert sum(ev.evals_used_this_iter for ev in rec.events) == rec.eval_total
    assert any(ev.flag == "geometry" for ev in rec.events)
    for ev in rec.events:
        grow = min(cfg.gamma * ev.delta_before, cfg.delta_max)
        assert ev.delta_after == (grow if ev.success else ev.delta_before / cfg.gamma)


# ----------------------------------------------------- deterministic limits

def test_tr_saa_zero_noise_matches_deterministic_interpolation_tr():
    # with no noise, averaging is a no-op: TR-SAA coincides with the
    # fresh-value interpolation variant given identical seeds and set policy
    stop = StoppingRule(budget=10**6, max_iterations=25)
    cfg = TrustRegionConfig(budget=10**6, seed=9)
    p1 = problem_with("simple-quad-2")
    rec1 = run_tr_saa(p1, cfg, stop=stop)

    class NPlusOneStart(StormFailureComponents):
        def build(self, problem, state, rng):
            if self.pset is None:  # n+1 start, like TR-SAA
                self.pset = _PersistentSet(initial_frame(state.x, state.delta,
                                                         problem.dimension + 1, rng))
            return super().build(problem, state, rng)

    comp = NPlusOneStart()
    rec2 = run(problem_with("simple-quad-2"), comp, dogleg, cfg, stop)
    for e1, e2 in zip(rec1.events, rec2.events):
        np.testing.assert_allclose(e1.x_after, e2.x_after, atol=1e-12)
        assert e1.delta_after == pytest.approx(e2.delta_after, abs=1e-15)


def test_storm_failure_sigma_zero_equals_noise_none():
    stop = StoppingRule(budget=10**6, max_iterations=20)
    cfg = TrustRegionConfig(budget=10**6, seed=3)
    rec1 = run_storm_failure(problem_with("beale-2"), cfg, stop=stop)
    rec2 = run_storm_failure(
        problem_with("beale-2", NoiseSpec(kind="failure", sigma=0.0)), cfg, stop=stop)
    for e1, e2 in zip(rec1.events, rec2.events):
        np.testing.assert_array_equal(e1.x_after, e2.x_after)


def test_full_batch_logistic_equals_deterministic_newton_tr():
    ds = make_synthetic(20, 3, seed=5, margin_noise=0.2)
    problem = LogisticProblem(ds, lam=1e-3)
    comp = StormLogisticComponents(p0=20, p_max=20)  # every sample is the full batch
    cfg = TrustRegionConfig(budget=10**9, seed=0)
    stop = StoppingRule(budget=10**9, max_iterations=15)
    rec = run(problem, comp, dogleg, cfg, stop)

    # reference: exact trust-region Newton on the true loss, same update rules
    x = problem.x0.copy()
    delta = cfg.delta0
    idx = np.arange(20)
    for ev in rec.events:
        _, g, H = problem.sampled_loss_grad_hess(idx, x, True)
        model = QuadraticModel(x.copy(), 0.0, g, 0.5 * H)
        step = dogleg(model, delta)
        f0 = problem.true_f(x)
        fs = problem.true_f(x + step.step)
        rho = (f0 - fs) / step.model_decrease
        success = rho >= cfg.eta1 and model.grad_norm >= cfg.eta2 * delta
        if success:
            x = x + step.step
            delta = min(cfg.gamma * delta, cfg.delta_max)
        else:
            delta = delta / cfg.gamma
        np.testing.assert_allclose(ev.x_after, x, atol=1e-10)
        assert ev.delta_after == pytest.approx(delta)


def test_logistic_hessian_free_mode_sets_h_zero():
    ds = make_synthetic(60, 3, seed=1)
    problem = LogisticProblem(ds, lam=1e-4)
    comp = StormLogisticComponents(p0=problem.dimension + 1, p_max=60, hessian=False)
    rng = np.random.default_rng(0)

    class S:
        k, x, delta = 0, problem.x0, 1.0

    model = comp.build(problem, S, rng)
    assert not model.hessian.any()


def test_logistic_sample_clamped_to_dataset():
    ds = make_synthetic(30, 3, seed=2)
    problem = LogisticProblem(ds, lam=1e-4)
    rng = np.random.default_rng(0)
    idx = problem.draw_sample(10_000, rng)
    assert len(idx) == 30
    assert len(set(idx.tolist())) == 30  # without replacement


# -------------------------------------------------------------------- adagrad

def test_adagrad_first_step_is_signed_step0():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) + 2.0  # offset so no gradient entry is tiny
    y = np.ones(40)
    ds = Dataset(X, y, "pos")
    rec = run_adagrad(ds, step0=0.5, batch=40, budget=40, lam=0.0, seed=1)
    prob = LogisticProblem(ds, lam=0.0)
    _, g, _ = prob.sampled_loss_grad_hess(np.arange(40), prob.x0, False)
    expected = -0.5 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(rec.x_final, expected, rtol=1e-9)
    np.testing.assert_allclose(np.abs(rec.x_final), 0.5, rtol=1e-6)


def test_adagrad_zero_gradient_no_motion():
    X = np.zeros((10, 2))
    y = np.array([1.0, -1.0] * 5)  # balanced labels, zero features
    ds = Dataset(X, y, "balanced")
    rec = run_adagrad(ds, step0=1.0, batch=10, budget=20, lam=0.0, seed=0)
    np.testing.assert_array_equal(rec.x_final, np.zeros(3))


def test_adagrad_one_pass_improves_on_separable_data():
    ds = make_synthetic(300, 2, seed=8, margin_noise=0.1)
    prob = LogisticProblem(ds, lam=1e-4)
    rec = run_adagrad(ds, step0=1.0, batch=10, budget=300, lam=1e-4, seed=0)
    assert rec.f_final_true < prob.true_f(prob.x0)


def test_adagrad_records_evenly_spaced_losses():
    ds = make_synthetic(200, 2, seed=9)
    rec = run_adagrad(ds, step0=1.0, batch=10, budget=200, lam=1e-4, seed=0)
    evals = [e for e, _ in rec.loss_trace]
    assert evals[0] == 0
    assert evals[-1] >= 200
    assert all(b > a for a, b in zip(evals, evals[1:]))


def _no_sampling(monkeypatch):
    def refuse(self, p, rng):
        raise AssertionError("the training loop drew a sample")
    monkeypatch.setattr(LogisticProblem, "draw_sample", refuse)


@pytest.mark.parametrize("step0, batch", [
    (1.0, 0), (1.0, -2), (float("nan"), 10), (float("inf"), 10), (0.0, 10), (-1.0, 10),
])
def test_adagrad_rejects_bad_settings_before_the_loop(monkeypatch, step0, batch):
    _no_sampling(monkeypatch)  # batch 0 would otherwise loop forever
    with pytest.raises(ValueError, match="step0" if batch >= 1 else "batch"):
        run_adagrad(make_synthetic(50, 2, seed=0), step0=step0, batch=batch, budget=50)


@pytest.mark.parametrize("budget, record_every", [(200, None), (207, None), (200, 70)])
def test_adagrad_evaluates_each_checkpoint_once(monkeypatch, budget, record_every):
    ds = make_synthetic(200, 2, seed=9)
    calls = []
    true_f = LogisticProblem.true_f

    def counted(self, x):
        calls.append(1)
        return true_f(self, x)
    monkeypatch.setattr(LogisticProblem, "true_f", counted)
    rec = run_adagrad(ds, step0=1.0, batch=10, budget=budget, lam=1e-4, seed=0,
                      record_every=record_every)
    assert len(calls) == len(rec.loss_trace) == len(rec.x_checkpoints)
    assert rec.loss_trace[-1] == (rec.eval_total, rec.f_final_true)
    assert rec.f_final_true == true_f(LogisticProblem(ds, lam=1e-4), rec.x_final)
    for (evals, loss), (evals_x, x) in zip(rec.loss_trace, rec.x_checkpoints):
        assert evals == evals_x and loss == true_f(LogisticProblem(ds, lam=1e-4), x)


# ------------------------------------------------------------- solved checks

def test_storm_unbiased_solves_noiseless_quadratic_fast():
    solved = 0
    for seed in range(10):
        problem = problem_with("simple-quad-2")
        budget = 1000 * 3
        rec = run_storm_unbiased(problem, TrustRegionConfig(budget=budget, seed=seed),
                                 stop=StoppingRule(budget=budget, target_f=1e-5))
        if rec.evals_to_reach(1e-5, budget) is not None:
            solved += 1
    assert solved >= 9


def test_corrupted_estimate_confined_to_one_decision():
    # a garbage trial estimate (fs ~ m V^2) drives rho far from 1 and flips at
    # most that one acceptance: the iterate stays, the radius shrinks by
    # exactly 1/gamma, and the run continues normally afterwards
    problem = problem_with("simple-quad-2",
                           NoiseSpec(kind="failure", sigma=0.4, epsilon=0.2))
    cfg = TrustRegionConfig(budget=3_000, seed=1)
    rec = run_storm_failure(problem, cfg)
    garbage = [ev for ev in rec.events
               if ev.rho is not None and abs(ev.fs_estimate) > 1e6 and ev.rho < cfg.eta1]
    assert garbage, "expected at least one corrupted trial estimate"
    for ev in garbage:
        assert not ev.success
        np.testing.assert_array_equal(ev.x_before, ev.x_after)
        assert ev.delta_after == pytest.approx(ev.delta_before / cfg.gamma)


def test_failure_threshold_monotonicity():
    # solved fraction is nondecreasing in the per-component success level
    # (one small statistical inversion tolerated)
    spec = get_problem("simple-quad-10")
    fracs = []
    for level in (0.9, 0.95, 0.99, 0.999, 1.0):
        solved = 0
        for seed in range(30):
            problem = spec.instantiate(NoiseSpec(kind="failure", sigma=1.0 - level))
            cfg = TrustRegionConfig(budget=10_000, seed=seed)
            rec = run_storm_failure(problem, cfg,
                                    stop=StoppingRule(budget=10_000, target_f=1e-5))
            if rec.evals_to_reach(1e-5, 10_000) is not None:
                solved += 1
        fracs.append(solved / 30.0)
    inversions = [(a - b) for a, b in zip(fracs, fracs[1:]) if b < a]
    assert len(inversions) <= 1
    assert all(gap <= 0.05 + 1e-12 for gap in inversions)
    assert fracs[-1] >= 0.95  # no corruption at level 1.0

import numpy as np
import pytest

from stormopt.engine import (StoppingRule, TrustRegionConfig, acceptance_test,
                             phi_monitor, run)
from stormopt.models import GeometryError, QuadraticModel
from stormopt.oracles import EstimatePair, NoiseSpec
from stormopt.problems import get_problem
from stormopt.subproblem import dogleg
from stormopt.variants import run_tr_saa


class ExactQuadraticBuilder:
    """Exact model of f(x) = ||x||^2 around the current iterate."""

    def build(self, problem, state, rng):
        x = state.x
        return QuadraticModel(x.copy(), float(x @ x), 2.0 * x, np.eye(x.size))


class SingleDrawEstimator:
    def estimate(self, problem, state, model, step, rng):
        return EstimatePair(f0=problem.noisy_eval(state.x, rng),
                            fs=problem.noisy_eval(state.x + step.step, rng))


class ExactModelSingleDraws(ExactQuadraticBuilder, SingleDrawEstimator):
    """The components ``run`` takes: an exact model and single-draw estimates."""


def norm_problem(n=2):
    spec_like = get_problem("simple-quad-2")  # reuse the class plumbing
    from stormopt.oracles import StochasticProblem
    return StochasticProblem("norm-sq", n, lambda x: x.copy(), np.ones(n),
                             jacobian=lambda x: np.eye(n))


# ---------------------------------------------------------------- small ops

def test_acceptance_test_truth_table():
    assert acceptance_test(0.5, 1.0, 0.1, 0.1, 0.001)
    assert not acceptance_test(0.05, 1.0, 0.1, 0.1, 0.001)
    assert not acceptance_test(0.5, 1e-6, 1.0, 0.1, 0.001)


def test_phi_monitor_values():
    assert phi_monitor(2.0, 1.0, 0.5) == 1.5
    assert phi_monitor(0.0, 0.0, 0.9) == 0.0
    assert phi_monitor(10.0, 0.5, 0.99) == pytest.approx(9.9025)
    with pytest.raises(ValueError):
        phi_monitor(1.0, 1.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TrustRegionConfig(delta0=2.0, delta_max=1.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(gamma=1.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(eta1=0.0)
    with pytest.raises(ValueError):
        TrustRegionConfig(eta2=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta0"):
            TrustRegionConfig(delta0=bad, delta_max=bad)
        with pytest.raises(ValueError, match="delta_max"):
            TrustRegionConfig(delta_max=bad)
        with pytest.raises(ValueError, match="gamma"):
            TrustRegionConfig(gamma=bad)
        with pytest.raises(ValueError, match="eta2"):
            TrustRegionConfig(eta2=bad)


# -------------------------------------------------------------- exact models

def test_exact_model_every_iteration_rho_one_and_gradient_to_zero():
    problem = norm_problem(2)
    cfg = TrustRegionConfig(delta0=1.0, delta_max=10.0, gamma=2.0, eta1=0.1,
                            eta2=0.0, budget=10_000, seed=0)
    rec = run(problem, ExactModelSingleDraws(), dogleg, cfg,
              StoppingRule(budget=10_000, max_iterations=200))
    grads = []
    for ev in rec.events:
        if ev.model_gradient_norm > 0 and ev.flag is None:
            assert ev.rho == pytest.approx(1.0, abs=1e-9)
            assert ev.success
        grads.append(np.linalg.norm(2.0 * ev.x_after))
    assert min(grads) < 1e-8
    assert len(rec.events) <= 200


def test_injected_estimates_rho_definition():
    # one iteration with f0 = 1.0, fs = 0.5 and model decrease 0.5 -> rho = 1
    class OneStepInjected:
        def build(self, problem, state, rng):
            return QuadraticModel(state.x.copy(), 1.0, np.array([1.0, 0.0]),
                                  np.zeros((2, 2)))

        def estimate(self, problem, state, model, step, rng):
            return EstimatePair(f0=1.0, fs=1.0 - step.model_decrease)

    problem = norm_problem(2)
    cfg = TrustRegionConfig(delta0=0.5, eta2=0.001, budget=10, seed=0)
    rec = run(problem, OneStepInjected(), dogleg, cfg,
              StoppingRule(budget=10, max_iterations=1))
    ev = rec.events[0]
    assert ev.rho == pytest.approx(1.0)
    assert ev.success


def test_unsuccessful_iteration_radius_and_point():
    class BadEstimator(ExactQuadraticBuilder):
        def estimate(self, problem, state, model, step, rng):
            return EstimatePair(f0=0.0, fs=10.0)  # rho < 0

    problem = norm_problem(2)
    cfg = TrustRegionConfig(delta0=0.8, gamma=2.0, budget=10, seed=0)
    rec = run(problem, BadEstimator(), dogleg, cfg,
              StoppingRule(budget=10, max_iterations=1))
    ev = rec.events[0]
    assert not ev.success
    assert ev.delta_after == pytest.approx(0.4)
    np.testing.assert_array_equal(ev.x_before, ev.x_after)


def test_update_coupling_invariant():
    problem = get_problem("rosenbrock-2").instantiate(NoiseSpec(kind="additive", sigma=0.05))
    cfg = TrustRegionConfig(budget=2_000, seed=5)
    rec = run_tr_saa(problem, cfg)
    for ev in rec.events:
        assert 0.0 < ev.delta_before <= cfg.delta_max
        assert 0.0 < ev.delta_after <= cfg.delta_max
        if ev.success:
            assert ev.delta_after == pytest.approx(
                min(cfg.gamma * ev.delta_before, cfg.delta_max))
        else:
            assert ev.delta_after == pytest.approx(ev.delta_before / cfg.gamma)
            np.testing.assert_array_equal(ev.x_before, ev.x_after)


@pytest.mark.parametrize("error", [GeometryError, np.linalg.LinAlgError])
def test_geometry_failure_flagged_and_shrinks(error):
    class FailingBuilder(SingleDrawEstimator):
        def build(self, problem, state, rng):
            raise error("forced")

    problem = norm_problem(2)
    cfg = TrustRegionConfig(delta0=1.0, budget=10, seed=0)
    rec = run(problem, FailingBuilder(), dogleg, cfg,
              StoppingRule(budget=10, max_iterations=3))
    assert [ev.flag for ev in rec.events] == ["geometry"] * 3
    assert rec.events[0].delta_after == pytest.approx(0.5)


def test_zero_decrease_flagged():
    class FlatBuilder(SingleDrawEstimator):
        def build(self, problem, state, rng):
            return QuadraticModel(state.x.copy(), 1.0, np.zeros(2), np.zeros((2, 2)))

    problem = norm_problem(2)
    cfg = TrustRegionConfig(budget=10, seed=0)
    rec = run(problem, FlatBuilder(), dogleg, cfg,
              StoppingRule(budget=10, max_iterations=1))
    assert rec.events[0].flag == "zero-decrease"
    assert rec.events[0].rho is None
    assert not rec.events[0].success


# ------------------------------------------------------------------ stopping

def test_budget_stop_and_overshoot_bound():
    problem = get_problem("simple-quad-2").instantiate(
        NoiseSpec(kind="multiplicative", sigma=1e-3))
    cfg = TrustRegionConfig(budget=500, seed=1)
    rec = run_tr_saa(problem, cfg)
    assert rec.stop_reason in ("budget", "delta-floor")
    worst_iter = max(ev.evals_used_this_iter for ev in rec.events)
    assert rec.eval_total <= 500 + worst_iter


def test_target_stop():
    problem = norm_problem(2)
    cfg = TrustRegionConfig(budget=1_000, eta2=0.0, seed=0)
    rec = run(problem, ExactModelSingleDraws(), dogleg, cfg,
              StoppingRule(budget=1_000, target_f=1e-8))
    assert rec.stop_reason == "target"
    assert rec.f_final_true < 1e-8


def test_delta_floor_stop():
    class NeverAccept(ExactQuadraticBuilder):
        def estimate(self, problem, state, model, step, rng):
            return EstimatePair(f0=0.0, fs=1.0)

    problem = norm_problem(2)
    cfg = TrustRegionConfig(budget=10**6, seed=0)
    rec = run(problem, NeverAccept(), dogleg, cfg,
              StoppingRule(budget=10**6, delta_floor=1e-6))
    assert rec.stop_reason == "delta-floor"
    assert rec.events[-1].delta_after < 1e-6


# -------------------------------------------------------------- determinism

def test_bit_identical_reruns():
    def go():
        problem = get_problem("rosenbrock-2").instantiate(
            NoiseSpec(kind="multiplicative", sigma=1e-2))
        return run_tr_saa(problem, TrustRegionConfig(budget=2_000, seed=42))

    assert go() == go()


def test_different_seeds_differ():
    def go(seed):
        problem = get_problem("rosenbrock-2").instantiate(
            NoiseSpec(kind="multiplicative", sigma=1e-2))
        return run_tr_saa(problem, TrustRegionConfig(budget=2_000, seed=seed))

    assert go(1) != go(2)


# ----------------------------------------------------------------- monitors

def test_radius_square_sums_converge_with_exact_models():
    problem = norm_problem(2)
    cfg = TrustRegionConfig(budget=10**6, eta2=0.0, seed=0)
    rec = run(problem, ExactModelSingleDraws(), dogleg, cfg,
              StoppingRule(budget=10**6, max_iterations=400))
    d2 = np.array([ev.delta_before**2 for ev in rec.events])
    total = d2.sum()
    tail = d2[len(d2) // 2:].sum()
    assert tail < 0.01 * total


def test_noiseless_exact_models_f_nonincreasing_on_successes():
    problem = norm_problem(3)
    cfg = TrustRegionConfig(budget=10**6, eta2=0.0, seed=0)
    rec = run(problem, ExactModelSingleDraws(), dogleg, cfg,
              StoppingRule(budget=10**6, max_iterations=100))
    fs = [ev.true_f_after for ev in rec.events if ev.success]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_eval_accounting_matches_event_sum():
    problem = get_problem("simple-quad-2").instantiate(
        NoiseSpec(kind="additive", sigma=0.1))
    cfg = TrustRegionConfig(budget=800, seed=3)
    rec = run_tr_saa(problem, cfg)
    assert rec.eval_total == sum(ev.evals_used_this_iter for ev in rec.events)


def test_phi_recorded_with_reference():
    problem = norm_problem(2)
    cfg = TrustRegionConfig(budget=100, eta2=0.0, seed=0)
    rec = run(problem, ExactModelSingleDraws(), dogleg, cfg,
              StoppingRule(budget=100, max_iterations=5))
    for ev in rec.events:
        assert ev.phi == pytest.approx(0.5 * ev.true_f_after + 0.5 * ev.delta_after**2)


def test_rejected_steps_reuse_the_noiseless_value():
    # the engine evaluates the noiseless f once at x0 and once per accepted
    # step; a rejected step leaves x, and so f, unchanged
    problem = get_problem("rosenbrock-2").instantiate(
        NoiseSpec(kind="multiplicative", sigma=1e-2))
    calls = []
    true_f = problem.true_f

    def counting_true_f(x):
        calls.append(np.array(x))
        return true_f(x)

    problem.true_f = counting_true_f
    rec = run_tr_saa(problem, TrustRegionConfig(budget=2_000, seed=42))
    accepted = sum(ev.success for ev in rec.events)
    assert 0 < accepted < len(rec.events)  # both kinds of step occur
    assert len(calls) == 1 + accepted
    for ev in rec.events:
        assert ev.true_f_after == true_f(ev.x_after)


# --------------------------------------------------------------- equality

def test_pickled_flagged_record_equals_original():
    # flagged iterations carry NaN estimates; pickling makes fresh NaN
    # objects, which must still compare equal position by position
    import pickle

    from stormopt.oracles import per_s_to_sigma
    from stormopt.variants import run_storm_failure

    spec = get_problem("simple-quad-10")
    problem = spec.instantiate(NoiseSpec(kind="failure", sigma=per_s_to_sigma(0.3, spec.m)))
    rec = run_storm_failure(problem, TrustRegionConfig(budget=2_000, seed=1))
    flagged = [i for i, ev in enumerate(rec.events) if ev.flag is not None]
    assert flagged and np.isnan(rec.events[flagged[0]].fs_estimate)
    copy = pickle.loads(pickle.dumps(rec))
    assert copy == rec
    copy.events[flagged[0]].fs_estimate = 1.0
    assert copy != rec  # a NaN still differs from a number


def test_records_differing_in_one_checkpoint_compare_unequal():
    # every field counts, x_checkpoints too, and arrays inside tuples are
    # compared element by element
    import pickle

    from stormopt.logistic import make_synthetic
    from stormopt.variants import run_adagrad

    rec = run_adagrad(make_synthetic(200, 2, seed=9), step0=1.0, batch=10, budget=200,
                      lam=1e-4, seed=0)
    assert len(rec.x_checkpoints) > 2
    copy = pickle.loads(pickle.dumps(rec))
    assert copy == rec
    copy.x_checkpoints[1][1][0] += 1.0
    assert copy != rec

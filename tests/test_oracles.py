import numpy as np
import pytest

from stormopt.oracles import (NoiseSpec, StochasticProblem, averaged_estimate,
                              chebyshev_gradient_sample_size, chebyshev_sample_size,
                              per_s_to_sigma)
from stormopt.problems import builtin_suite, get_problem


def one_component(x):
    return np.array([1.0])


def zero_component(x):
    return np.array([0.0])


def noisy_problem(residual, n, **noise):
    """A problem with ``residual`` in n variables under ``NoiseSpec(**noise)``."""
    return StochasticProblem("oracle-test", n, residual, np.zeros(n), noise=NoiseSpec(**noise))


# -------------------------------------------------------- multiplicative noise

def test_multiplicative_degenerate_sigma():
    rng = np.random.default_rng(0)
    spec = get_problem("rosenbrock-2")
    x = spec.x0
    exact = float(np.sum(spec.residual(x) ** 2))
    prob = noisy_problem(spec.residual, spec.n, kind="multiplicative", sigma=1e-12)
    val = prob.noisy_eval(x, rng)
    assert abs(val - exact) <= 1e-9 * max(1.0, abs(exact))


def test_multiplicative_range_single_unit_component():
    rng = np.random.default_rng(1)
    prob = noisy_problem(one_component, 1, kind="multiplicative", sigma=0.5)
    vals = [prob.noisy_eval(np.zeros(1), rng) for _ in range(2000)]
    assert min(vals) >= 0.25 - 1e-12
    assert max(vals) <= 2.25 + 1e-12


def test_multiplicative_mean_is_one_plus_sigma_sq_third():
    # E[(1+w)^2] = 1 + sigma^2/3 for w ~ U[-sigma, sigma]
    rng = np.random.default_rng(2)
    sigma = 0.5
    draws = (1.0 + rng.uniform(-sigma, sigma, size=10**6)) ** 2
    expected = 1.0 + sigma**2 / 3.0
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - expected) <= 3.0 * se


# ------------------------------------------------------------- additive noise

def test_additive_degenerate_sigma():
    rng = np.random.default_rng(3)
    spec = get_problem("beale-2")
    exact = float(np.sum(spec.residual(spec.x0) ** 2))
    prob = noisy_problem(spec.residual, spec.n, kind="additive", sigma=1e-12)
    val = prob.noisy_eval(spec.x0, rng)
    assert abs(val - exact) <= 1e-9


def test_additive_range_zero_component():
    rng = np.random.default_rng(4)
    prob = noisy_problem(zero_component, 1, kind="additive", sigma=1.0)
    vals = [prob.noisy_eval(np.zeros(1), rng) for _ in range(2000)]
    assert min(vals) >= 0.0
    assert max(vals) <= 1.0


def test_additive_mean_is_one_third():
    # E[w^2] = 1/3 for w ~ U[-1, 1]
    rng = np.random.default_rng(5)
    draws = rng.uniform(-1, 1, size=10**6) ** 2
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / 3.0) <= 3.0 * se


# -------------------------------------------------------------- failure noise

def test_failure_sigma_zero_is_exact():
    rng = np.random.default_rng(6)
    spec = get_problem("powell-4")
    exact = float(np.sum(spec.residual(spec.x0) ** 2))
    prob = noisy_problem(spec.residual, spec.n, kind="failure", sigma=0.0, epsilon=0.1,
                         garbage_value=-10000.0)
    assert prob.noisy_eval(spec.x0, rng) == exact


def test_failure_certain_corruption_gives_m_v_squared():
    rng = np.random.default_rng(7)
    comp = lambda x: np.zeros(5)  # all |f_i| < eps
    prob = noisy_problem(comp, 2, kind="failure", sigma=1.0, epsilon=0.1,
                         garbage_value=-10000.0)
    val = prob.noisy_eval(np.zeros(2), rng)
    assert val == pytest.approx(5 * 10000.0**2)


def test_failure_large_components_never_corrupted():
    rng = np.random.default_rng(8)
    comp = lambda x: np.array([5.0, -7.0])
    prob = noisy_problem(comp, 1, kind="failure", sigma=1.0, epsilon=0.1,
                         garbage_value=-10000.0)
    for _ in range(200):
        assert prob.noisy_eval(np.zeros(1), rng) == 74.0


def test_failure_objective_mode_switch():
    rng = np.random.default_rng(9)
    comp = lambda x: np.array([0.01, 5.0])
    prob = noisy_problem(comp, 1, kind="failure", sigma=1.0, epsilon=0.1,
                         garbage_value=-10000.0, failure_mode="objective")
    vals = {prob.noisy_eval(np.zeros(1), rng) for _ in range(10)}
    assert vals == {-10000.0}


def test_per_s_to_sigma_paper_value():
    assert per_s_to_sigma(0.9, 5) == pytest.approx(0.0208516, abs=5e-7)


def test_failure_all_exact_probability():
    # probability that a whole poised set of |Y| points evaluates exactly is
    # (1-sigma)^(m |Y|) in the all-small-components regime
    rng = np.random.default_rng(10)
    m, npts, sigma = 3, 4, 0.05
    comp = lambda x: np.full(m, 0.01)
    exact_val = m * 0.01**2
    prob = noisy_problem(comp, 1, kind="failure", sigma=sigma, epsilon=0.1,
                         garbage_value=-10000.0)
    trials = 10_000
    hits = 0
    for _ in range(trials):
        ok = True
        for _ in range(npts):
            if prob.noisy_eval(np.zeros(1), rng) != exact_val:
                ok = False
        if ok:
            hits += 1
    p_theory = (1 - sigma) ** (m * npts)
    se = np.sqrt(p_theory * (1 - p_theory) / trials)
    assert abs(hits / trials - p_theory) <= 3.0 * se


def test_failure_bias_demonstration():
    # with V = -10000 the Monte-Carlo mean of the noisy value is wildly
    # different from the true value at a point with a small component
    rng = np.random.default_rng(11)
    comp = lambda x: np.array([0.05])
    true_f = 0.05**2
    prob = noisy_problem(comp, 1, kind="failure", sigma=0.01, epsilon=0.1,
                         garbage_value=-10000.0)
    draws = np.array([prob.noisy_eval(np.zeros(1), rng) for _ in range(20_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - true_f) > 10.0 * se


# ------------------------------------------------------------------ averaging

def test_averaged_estimate_counts_and_exactness():
    spec = get_problem("simple-quad-2")
    prob = spec.instantiate(NoiseSpec())
    rng = np.random.default_rng(12)
    val = averaged_estimate(prob, spec.x0, 7, rng)
    assert prob.eval_count == 7
    assert val == pytest.approx(prob.true_f(spec.x0))
    averaged_estimate(prob, spec.x0, 1, rng)  # p=1 is a single evaluation
    assert prob.eval_count == 8


def _scalar_noisy_eval(residual, noise, x, rng):
    """One noisy evaluation, drawn as the scalar oracle drew it: a fresh
    residual and a size-m noise draw per sample."""
    f = np.atleast_1d(np.asarray(residual(x), dtype=float))
    sigma = noise.sigma
    if noise.kind == "none":
        return float(np.sum(f**2))
    if noise.kind == "multiplicative":
        w = rng.uniform(-sigma, sigma, size=f.size)
        return float(np.sum(((1.0 + w) * f) ** 2))
    if noise.kind == "additive":
        w = rng.uniform(-sigma, sigma, size=f.size)
        return float(np.sum((f + w) ** 2))
    if noise.failure_mode == "objective":
        if sigma > 0 and np.any(np.abs(f) < noise.epsilon) and rng.uniform() < sigma:
            return float(noise.garbage_value)
        return float(np.sum(f**2))
    if sigma > 0:
        small = np.abs(f) < noise.epsilon
        fail = small & (rng.uniform(size=f.size) < sigma)
        f = np.where(fail, noise.garbage_value, f)
    return float(np.sum(f**2))


RESIDUALS = {
    # small and large components; 150 takes numpy's blocked pairwise sum
    "mixed-4": lambda x: np.array([x[0], 0.01 * x[1], 3.0, 1e-3]),
    "mixed-150": lambda x: np.concatenate([np.linspace(-0.2, 0.2, 75) * x[0],
                                           np.linspace(1.0, 4.0, 75) * x[1]]),
    "large-3": lambda x: np.array([5.0 + x[0], -7.0, 2.0 * x[1]]),
}
NOISES = {
    "none": NoiseSpec(),
    "multiplicative": NoiseSpec(kind="multiplicative", sigma=0.1),
    "additive": NoiseSpec(kind="additive", sigma=0.5),
    "failure-component": NoiseSpec(kind="failure", sigma=0.3),
    "failure-component-sigma-0": NoiseSpec(kind="failure", sigma=0.0),
    "failure-objective": NoiseSpec(kind="failure", sigma=0.3, failure_mode="objective"),
    "failure-objective-sigma-0": NoiseSpec(kind="failure", sigma=0.0,
                                           failure_mode="objective"),
}


@pytest.mark.parametrize("p", [1, 7, 333])
@pytest.mark.parametrize("noise", NOISES, ids=str)
@pytest.mark.parametrize("residual", RESIDUALS, ids=str)
def test_averaged_estimate_matches_scalar_loop_bit_for_bit(residual, noise, p):
    x = np.array([0.3, -1.1])
    prob = StochasticProblem("t", 2, RESIDUALS[residual], x, noise=NOISES[noise])
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = averaged_estimate(prob, x, p, rng)
    want = float(np.mean([_scalar_noisy_eval(RESIDUALS[residual], NOISES[noise], x, ref_rng)
                          for _ in range(p)]))
    assert got == want
    assert prob.eval_count == p
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a single draw through noisy_eval continues the same stream
    assert prob.noisy_eval(x, rng) == _scalar_noisy_eval(RESIDUALS[residual],
                                                         NOISES[noise], x, ref_rng)
    assert prob.eval_count == p + 1
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _mixed_points(spec, rows_per_kind=6, seed=0):
    """Points near the minimizer, where components are small and can fail,
    interleaved with points near x0, where most cannot."""
    rng = np.random.default_rng(seed)
    near = spec.minimizer + 1e-3 * rng.standard_normal((rows_per_kind, spec.n))
    far = spec.x0 + 0.1 * rng.standard_normal((rows_per_kind, spec.n))
    return np.stack([near, far], axis=1).reshape(-1, spec.n)


@pytest.mark.parametrize("noise", NOISES, ids=str)
@pytest.mark.parametrize("spec", builtin_suite(), ids=lambda s: s.name)
def test_noisy_eval_batch_matches_scalar_loop_bit_for_bit(spec, noise):
    X = _mixed_points(spec)
    eps = NOISES[noise].epsilon
    can_fail = (np.abs(spec.residual(X)) < eps).any(axis=1)
    assert can_fail.any() and not can_fail.all()
    prob, ref = spec.instantiate(NOISES[noise]), spec.instantiate(NOISES[noise])
    rng, ref_rng = np.random.default_rng(19), np.random.default_rng(19)
    scalar_rng = np.random.default_rng(19)
    got = prob.noisy_eval_batch(X, rng)
    want = np.array([ref.noisy_eval(x, ref_rng) for x in X])
    scalar = np.array([_scalar_noisy_eval(spec.residual, NOISES[noise], x, scalar_rng)
                       for x in X])
    assert got.shape == (len(X),)
    assert np.array_equal(got, want) and np.array_equal(got, scalar)
    assert prob.eval_count == ref.eval_count == len(X)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("residual", [
    lambda x: np.array([1.0, 2.0]),  # ignores the batch
    lambda x: (x - 1.0).T,           # (m, p) instead of (p, m)
    lambda x: np.zeros((2, 3, 2)),
], ids=["1-d", "transposed", "3-d"])
def test_noisy_eval_batch_rejects_wrong_residual_shape(residual):
    prob = StochasticProblem("t", 2, residual, np.zeros(2))
    with pytest.raises(ValueError):
        prob.noisy_eval_batch(np.zeros((3, 2)), np.random.default_rng(0))
    assert prob.eval_count == 0


def test_noisy_eval_batch_needs_a_2d_array():
    prob = get_problem("simple-quad-2").instantiate()
    with pytest.raises(ValueError):
        prob.noisy_eval_batch(np.zeros(2), np.random.default_rng(0))


def test_noisy_evals_counts_and_shape():
    spec = get_problem("rosenbrock-2")
    prob = spec.instantiate(NoiseSpec(kind="multiplicative", sigma=1e-2))
    vals = prob.noisy_evals(spec.x0, 5, np.random.default_rng(18))
    assert vals.shape == (5,) and prob.eval_count == 5
    assert len(set(vals.tolist())) == 5  # fresh noise per sample


def test_single_draw_is_single_eval():
    spec = get_problem("simple-quad-2")
    prob = spec.instantiate(NoiseSpec(kind="additive", sigma=0.1))
    rng = np.random.default_rng(13)
    prob.noisy_eval(spec.x0, rng)
    assert prob.eval_count == 1


def test_averaged_estimator_variance():
    # additive noise on a zero component: Var(mean of p draws of w^2) =
    # Var(w^2)/p = (4/45)/p
    rng = np.random.default_rng(14)
    p = 100
    reps = 10_000
    draws = rng.uniform(-1, 1, size=(reps, p)) ** 2
    means = draws.mean(axis=1)
    var = means.var(ddof=1)
    expected = (4.0 / 45.0) / p
    assert abs(var - expected) <= 0.2 * expected


# ------------------------------------------------------------- chebyshev sizes

def test_chebyshev_sample_size_examples():
    assert chebyshev_sample_size(1.0, 1.0, 0.9, 1.0) == 10
    assert chebyshev_sample_size(1.0, 1.0, 0.9, 0.5) == 160


def test_chebyshev_delta_scaling():
    p1 = chebyshev_sample_size(2.0, 0.7, 0.9, 0.25)
    p2 = chebyshev_sample_size(2.0, 0.7, 0.9, 0.5)
    assert abs(p1 / 16.0 - p2) <= 1.0  # doubling delta divides p by 16, up to ceiling


def test_chebyshev_gradient_sample_size_examples():
    assert chebyshev_gradient_sample_size(1.0, 1.0, 1.0, 0.9, 1.0) == 10
    assert chebyshev_gradient_sample_size(1.0, 1.0, 1.0, 0.9, 0.1) == 100_000


def test_chebyshev_gradient_dominant_term():
    # for delta >= 1 the value term dominates iff kappa_eg >= kappa_ef * delta
    V, ap = 1.0, 0.9
    kef, keg, delta = 1.0, 3.0, 2.0
    p = chebyshev_gradient_sample_size(V, kef, keg, ap, delta)
    p_val = chebyshev_sample_size(V, kef, ap, delta)
    assert p == p_val  # keg=3 >= kef*delta=2 so the delta^4 term dominates


def test_chebyshev_coverage_guarantee():
    # empirical exceedance of |mean - E| > kappa delta^2 stays within the
    # Chebyshev budget 1 - alpha' (+3 binomial standard errors)
    V = 4.0 / 45.0  # Var(w^2), w ~ U[-1,1]
    kappa, alpha_p = 1.0, 0.9
    reps = 10_000
    rng = np.random.default_rng(15)
    for delta in (1.0, 0.5):
        p = chebyshev_sample_size(V, kappa, alpha_p, delta)
        tol = kappa * delta**2
        means = (rng.uniform(-1, 1, size=(reps, p)) ** 2).mean(axis=1)
        exceed = np.mean(np.abs(means - 1.0 / 3.0) > tol)
        bound = (1 - alpha_p) + 3.0 * np.sqrt((1 - alpha_p) * alpha_p / reps)
        assert exceed <= bound


# ------------------------------------------------------------------- problems

def test_problem_noise_none_matches_reference():
    spec = get_problem("rosenbrock-2")
    prob = spec.instantiate(NoiseSpec())
    rng = np.random.default_rng(16)
    x = spec.x0 + 0.1
    assert prob.noisy_eval(x, rng) == prob.true_f(x)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(kind="gaussian")
    with pytest.raises(ValueError):
        per_s_to_sigma(1.5, 3)


@pytest.mark.parametrize("fields", [
    dict(kind="additive", sigma=float("nan")),
    dict(kind="multiplicative", sigma=float("inf")),
    dict(kind="additive", sigma=-0.1),
    dict(kind="failure", sigma=1.5),
    dict(kind="failure", sigma=0.1, epsilon=float("nan")),
    dict(kind="failure", sigma=0.1, epsilon=-1.0),
])
def test_noise_spec_rejects_out_of_range_values(fields):
    with pytest.raises(ValueError):
        NoiseSpec(**fields)


def test_noise_spec_accepts_range_edges():
    NoiseSpec(kind="failure", sigma=1.0, epsilon=0.0)
    NoiseSpec(kind="multiplicative", sigma=2.0)  # factors may change sign

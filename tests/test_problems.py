import numpy as np
import pytest

from stormopt.problems import builtin_suite, get_problem


def fd_gradient(spec, x, h=1e-6):
    f = lambda z: float(np.sum(spec.residual(z) ** 2))
    g = np.zeros(len(x))
    for j in range(len(x)):
        e = np.zeros(len(x))
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def test_suite_has_at_least_eight_problems():
    suite = builtin_suite()
    assert len(suite) >= 8
    names = {s.name for s in suite}
    assert {"simple-quad-2", "simple-quad-10", "rosenbrock-2", "rosenbrock-10",
            "powell-4", "beale-2", "freudenstein-roth-2",
            "linear-full-rank-5"} <= names


def test_simple_quadratic_values():
    spec = get_problem("simple-quad-2")
    prob = spec.instantiate()
    assert prob.true_f(spec.x0) == 2.0
    assert spec.f_star == 0.0
    assert prob.true_f(np.ones(2)) == 0.0


def test_rosenbrock_classic_values():
    spec = get_problem("rosenbrock-2")
    prob = spec.instantiate()
    np.testing.assert_array_equal(spec.x0, [-1.2, 1.0])
    assert prob.true_f(np.ones(2)) == 0.0
    assert spec.f_star == 0.0


def test_stationarity_at_declared_minimizers():
    for spec in builtin_suite():
        g = fd_gradient(spec, spec.minimizer.astype(float))
        assert np.linalg.norm(g) < 1e-8, spec.name
        # and the analytic jacobian agrees: 2 J^T r is tiny at the minimizer
        prob = spec.instantiate()
        assert np.linalg.norm(prob.true_grad(spec.minimizer)) < 1e-8, spec.name


def test_analytic_jacobians_match_finite_differences():
    rng = np.random.default_rng(0)
    for spec in builtin_suite():
        x = spec.x0 + 0.1 * rng.standard_normal(spec.n)
        prob = spec.instantiate()
        g = prob.true_grad(x)
        g_fd = fd_gradient(spec, x)
        np.testing.assert_allclose(g, g_fd, rtol=1e-4, atol=1e-5)


def test_component_counts():
    for spec in builtin_suite():
        r = spec.residual(spec.x0)
        assert len(r) == spec.m, spec.name
        J = spec.jacobian(spec.x0)
        assert np.asarray(J).shape == (spec.m, spec.n), spec.name


def test_residuals_work_over_the_last_axis():
    rng = np.random.default_rng(1)
    for spec in builtin_suite():
        X = spec.x0 + rng.standard_normal((40, spec.n)) * 10.0 ** rng.uniform(-3, 1, (40, 1))
        F = spec.residual(X)
        assert F.shape == (40, spec.m), spec.name
        for x, row in zip(X, F):
            assert np.array_equal(row, spec.residual(x)), spec.name


def test_powers_match_the_scalar_form():
    # the residuals written with Python-float arithmetic, whose ** is the C pow
    def beale(x):
        x0, x1 = map(float, x)
        return [1.5 - x0 * (1.0 - x1), 2.25 - x0 * (1.0 - x1 ** 2),
                2.625 - x0 * (1.0 - x1 ** 3)]

    def powell(x):
        x0, x1, x2, x3 = map(float, x)
        return [x0 + 10.0 * x1, np.sqrt(5.0) * (x2 - x3), (x1 - 2.0 * x2) ** 2,
                np.sqrt(10.0) * (x0 - x3) ** 2]

    rng = np.random.default_rng(2)
    for name, scalar in (("beale-2", beale), ("powell-4", powell)):
        spec = get_problem(name)
        X = spec.x0 + 3.0 * rng.standard_normal((2000, spec.n))
        F = spec.residual(X)
        for x, row in zip(X, F):
            assert row.tolist() == scalar(x), name


def test_f_star_below_start():
    for spec in builtin_suite():
        prob = spec.instantiate()
        assert spec.f_star <= prob.true_f(spec.x0), spec.name


def test_unknown_problem_raises():
    with pytest.raises(KeyError):
        get_problem("does-not-exist")

import numpy as np

from stormopt.models import QuadraticModel
from stormopt.subproblem import StepResult, cauchy_point, dogleg


def model(g, H, n=None):
    g = np.asarray(g, dtype=float)
    return QuadraticModel(np.zeros(g.size), 0.0, g, np.asarray(H, dtype=float))


def test_cauchy_linear_model_boundary_step():
    r = cauchy_point(model([1.0, 0.0], np.zeros((2, 2))), 1.0)
    np.testing.assert_allclose(r.step, [-1.0, 0.0])
    assert r.model_decrease == 1.0
    assert r.cauchy_decrease_bound == 0.5
    assert r.kappa_fcd_used == 1.0


def test_cauchy_interior_minimizer():
    # m(t d) = -t + t^2 along -g: minimizer t = 1/2, decrease 1/4
    r = cauchy_point(model([1.0, 0.0], np.eye(2)), 1.0)
    np.testing.assert_allclose(r.step, [-0.5, 0.0])
    assert abs(r.model_decrease - 0.25) < 1e-15
    assert abs(r.kappa_fcd_used - 0.5) < 1e-12
    assert abs(r.cauchy_decrease_bound - 0.25) < 1e-12


def test_cauchy_zero_gradient():
    r = cauchy_point(model([0.0, 0.0], np.diag([5.0, -3.0])), 1.0)
    assert not r.step.any()
    assert r.model_decrease == 0.0


def test_dogleg_newton_step_inside_ball():
    # model of ||x - x*||^2 with x* = (0.3, -0.2): Newton point interior
    xstar = np.array([0.3, -0.2])
    m = QuadraticModel(np.zeros(2), float(xstar @ xstar), -2.0 * xstar, np.eye(2))
    r = dogleg(m, 1.0)
    np.testing.assert_allclose(r.step, xstar, atol=1e-12)
    assert abs(r.model_decrease - float(xstar @ xstar)) < 1e-12


def test_dogleg_large_radius_unconstrained_minimizer():
    H = np.array([[2.0, 0.0], [0.0, 1.0]])
    g = np.array([1.0, 1.0])
    m = model(g, H)
    r = dogleg(m, 100.0)
    expected = np.linalg.solve(2.0 * H, -g)
    np.testing.assert_allclose(r.step, expected, atol=1e-12)


def test_dogleg_indefinite_falls_back_to_certified_step():
    m = model([0.0, -0.1], np.diag([1.0, -1.0]))
    r = dogleg(m, 1.0)
    assert np.linalg.norm(r.step) <= 1.0 + 1e-12
    assert r.model_decrease >= r.cauchy_decrease_bound - 1e-12
    # brute-force disk search confirms the certificate is attainable
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(10_000, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    best = max(m.decrease(p) for p in pts)
    assert best >= r.cauchy_decrease_bound


def test_certificate_holds_on_1000_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal(n)
        H = rng.standard_normal((n, n))
        H = 0.5 * (H + H.T)
        delta = float(rng.uniform(1e-3, 10.0))
        m = QuadraticModel(np.zeros(n), 0.0, g, H)
        for solver in (cauchy_point, dogleg):
            r = solver(m, delta)
            assert r.model_decrease >= r.cauchy_decrease_bound - 1e-12 * max(
                1.0, abs(r.model_decrease))
            assert np.linalg.norm(r.step) <= delta * (1.0 + 1e-12)
            assert 0.0 < r.kappa_fcd_used <= 1.0


def test_dogleg_never_worse_than_cauchy():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        g = rng.standard_normal(n)
        H = rng.standard_normal((n, n))
        H = 0.5 * (H + H.T)
        delta = float(rng.uniform(1e-2, 5.0))
        m = QuadraticModel(np.zeros(n), 0.0, g, H)
        assert dogleg(m, delta).model_decrease >= cauchy_point(m, delta).model_decrease - 1e-12


def _first_dogleg(model, delta):
    """The dogleg step as first written, with ||H|| computed for each
    certificate, for comparison with the one-norm version."""
    def certify(step):
        gn, decrease = model.grad_norm, model.decrease(step)
        if gn == 0.0:
            return StepResult(step, decrease, 0.0, 1.0)
        H = model.hessian
        hn = float(np.abs(np.linalg.eigvalsh(H)).max()) if np.any(H) else 0.0
        radius_term = min(gn / hn, delta) if hn > 0 else delta
        full_bound = 0.5 * gn * radius_term
        kappa = min(1.0, decrease / full_bound) if full_bound > 0 else 1.0
        return StepResult(step, decrease, kappa * full_bound, kappa)

    g, gn = model.gradient, model.grad_norm
    if gn == 0.0:
        return StepResult(np.zeros(model.dim), 0.0, 0.0, 1.0)
    curv = float(g @ model.hessian @ g) / gn**2
    t = delta if curv <= 0 else min(delta, gn / (2.0 * curv))
    cp = certify(t * (-g / gn))
    B = 2.0 * model.hessian
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return cp
    p_newton = np.linalg.solve(L.T, np.linalg.solve(L, -g))
    if np.linalg.norm(p_newton) <= delta:
        candidate = p_newton
    else:
        p_u = -(gn**2 / float(g @ B @ g)) * g
        nu = float(np.linalg.norm(p_u))
        if nu >= delta:
            candidate = -(delta / gn) * g
        else:
            d = p_newton - p_u
            a, b, cc = float(d @ d), 2.0 * float(p_u @ d), nu**2 - delta**2
            candidate = p_u + (-b + np.sqrt(max(0.0, b * b - 4 * a * cc))) / (2 * a) * d
    ns = float(np.linalg.norm(candidate))
    if ns > delta:
        candidate = candidate * (delta / ns)
    result = certify(candidate)
    return cp if result.model_decrease < cp.model_decrease else result


def _same_result(a, b):
    return (a.step.tobytes() == b.step.tobytes()
            and [np.float64(v).tobytes() for v in (a.model_decrease, a.cauchy_decrease_bound,
                                                   a.kappa_fcd_used)]
            == [np.float64(v).tobytes() for v in (b.model_decrease, b.cauchy_decrease_bound,
                                                  b.kappa_fcd_used)])


def test_dogleg_takes_one_spectral_norm_and_keeps_every_step(monkeypatch):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6))
    models = {
        "positive definite": model(rng.standard_normal(6), A @ A.T + np.eye(6)),
        "indefinite": model(rng.standard_normal(6), 0.5 * (A + A.T)),
        "zero gradient": model(np.zeros(6), A @ A.T),
    }
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(H):
        calls.append(1)
        return eigvalsh(H)
    for name, m in models.items():
        for delta in (1e-3, 0.3, 1e3):  # the Cauchy, dogleg and Newton branches
            want = _first_dogleg(m, delta)
            monkeypatch.setattr(np.linalg, "eigvalsh", counted)
            calls.clear()
            got = dogleg(m, delta)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert len(calls) == (0 if name == "zero gradient" else 1), (name, delta)
            assert _same_result(got, want), (name, delta)

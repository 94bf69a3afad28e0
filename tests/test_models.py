import numpy as np
import pytest

from stormopt.models import (KIND_QUADRATIC, KIND_REGRESSION, GeometryError, PoisedSet,
                             QuadraticModel, _random_orthonormal, fit_gradient_taylor,
                             fit_interpolation, fit_quadratic_set, fit_regression,
                             initial_frame, make_poised_set, probe_fully_linear,
                             sample_in_ball)


def rng_(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- poised sets

def test_linear_set_three_points_and_conditioning():
    ps = make_poised_set(np.zeros(2), 1.0, "interpolation-linear", rng_(3))
    assert ps.npoints == 3
    np.testing.assert_allclose(ps.points[0], [0.0, 0.0])
    # scaled interpolation matrix [1, s] is orthonormal-based: condition <= 10
    M = np.concatenate([np.ones((3, 1)), ps.points], axis=1)
    assert np.linalg.cond(M) <= 10.0


def test_quadratic_set_count_and_radius():
    ps = make_poised_set(np.zeros(3), 0.5, "interpolation-quadratic", rng_(4))
    assert ps.npoints == 10  # (n+1)(n+2)/2 for n=3
    assert np.linalg.norm(ps.points, axis=1).max() <= 0.5 + 1e-12


def test_regression_set_membership():
    center = np.array([1.0, 1.0])
    ps = make_poised_set(center, 1.0, "regression", rng_(5), p=20)
    assert ps.npoints == 20
    assert np.linalg.norm(ps.points - center, axis=1).max() <= 1.0 + 1e-12
    assert any(np.allclose(p, center) for p in ps.points)


def test_poisedness_estimate_at_least_one_with_center():
    for kind, p in [("interpolation-linear", None), ("interpolation-quadratic", None),
                    ("regression", 15)]:
        ps = make_poised_set(np.zeros(2), 1.0, kind, rng_(6), p=p)
        assert ps.poisedness_estimate >= 1.0


def test_points_inside_ball_for_all_kinds():
    c = np.array([0.5, -0.5, 2.0])
    for kind, p in [("interpolation-linear", None), ("interpolation-quadratic", None),
                    ("regression", 12)]:
        ps = make_poised_set(c, 0.25, kind, rng_(7), p=p)
        assert np.linalg.norm(ps.points - c, axis=1).max() <= 0.25 * (1 + 1e-12)


def _loop_frame(center, delta, count, rng):
    """Row-by-row frame: center, +frame, -frame, pair midpoints, then one ball
    sample per missing row, cut to ``count`` rows."""
    n = center.size
    q = _random_orthonormal(n, rng)
    rows = [center] + [center + delta * q[i] for i in range(n)]
    rows += [center - delta * q[i] for i in range(n)]
    rows += [center + delta * (q[i] + q[j]) / np.sqrt(2.0)
             for i in range(n) for j in range(i + 1, n)]
    rows = rows[:count]
    while len(rows) < count:
        rows.append(sample_in_ball(center, delta, 1, rng)[0])
    return np.vstack(rows)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_initial_frame_matches_row_by_row_frame(n):
    # counts n+1 and (n+1)(n+2)/2 are the linear and quadratic sets; rows
    # past the quadratic count come from the ball, one draw each
    quad = (n + 1) * (n + 2) // 2
    for count in sorted({1, n + 1, n + 2, quad - 1, quad, quad + 1, quad + 3}):
        center = rng_(n).standard_normal(n)
        want_rng, got_rng = rng_(50 + count), rng_(50 + count)
        want = _loop_frame(center, 0.3, count, want_rng)
        got = initial_frame(center, 0.3, count, got_rng)
        assert got.shape == (count, n)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_in_ball_uniformity_bounds():
    pts = sample_in_ball(np.zeros(2), 2.0, 500, rng_(8))
    r = np.linalg.norm(pts, axis=1)
    assert r.max() <= 2.0
    # median radius of uniform disk samples is 2/sqrt(2) ~ 1.414
    assert abs(np.median(r) - 2.0 / np.sqrt(2.0)) < 0.15


# -------------------------------------------------------------- interpolation

def test_linear_interpolation_reproduces_affine_function():
    f = lambda p: 3.0 + 2.0 * p[0] - p[1]
    ps = make_poised_set(np.array([0.3, -0.2]), 0.7, "interpolation-linear", rng_(9))
    m = fit_interpolation(ps, [f(p) for p in ps.points])
    np.testing.assert_allclose(m.gradient, [2.0, -1.0], atol=1e-9)
    assert abs(m.f0 - f(ps.center)) < 1e-9
    assert not m.hessian.any()


def test_quadratic_interpolation_recovers_identity_hessian():
    # f(x) = x1^2 + x2^2 equals s.H.s with H = I in the model convention
    f = lambda p: p[0] ** 2 + p[1] ** 2
    ps = make_poised_set(np.zeros(2), 1.0, "interpolation-quadratic", rng_(10))
    m = fit_interpolation(ps, [f(p) for p in ps.points])
    np.testing.assert_allclose(m.hessian, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(m.gradient, 0.0, atol=1e-9)
    assert abs(m.f0) < 1e-9


def test_interpolation_of_constant_values():
    ps = make_poised_set(np.zeros(3), 1.0, "interpolation-quadratic", rng_(11))
    m = fit_interpolation(ps, [7.0] * ps.npoints)
    assert abs(m.f0 - 7.0) < 1e-9
    np.testing.assert_allclose(m.gradient, 0.0, atol=1e-9)
    np.testing.assert_allclose(m.hessian, 0.0, atol=1e-9)


def test_interpolation_reproduction_at_nodes():
    rng = rng_(12)
    f = lambda p: np.sin(p[0]) + np.cos(2 * p[1]) + p[0] * p[1]
    for kind in ("interpolation-linear", "interpolation-quadratic"):
        ps = make_poised_set(np.array([0.4, 0.9]), 0.6, kind, rng)
        vals = [f(p) for p in ps.points]
        m = fit_interpolation(ps, vals)
        scale = max(1.0, max(abs(v) for v in vals))
        for p, v in zip(ps.points, vals):
            assert abs(m.value_at(p) - v) <= 1e-9 * scale


def test_interpolation_rejects_degenerate_geometry():
    ps = make_poised_set(np.zeros(2), 1.0, "interpolation-linear", rng_(13))
    ps.points[2] = ps.points[1]  # duplicate node
    with pytest.raises(GeometryError):
        fit_interpolation(ps, [0.0, 1.0, 2.0])


def test_interpolation_validates_counts():
    ps = make_poised_set(np.zeros(2), 1.0, "interpolation-linear", rng_(14))
    with pytest.raises(ValueError):
        fit_interpolation(ps, [1.0, 2.0])


# ----------------------------------------------------------------- regression

def test_regression_exact_on_linear_data():
    f = lambda p: 1.0 - 0.5 * p[0] + 2.5 * p[1]
    ps = make_poised_set(np.zeros(2), 1.0, "regression", rng_(15), p=12)
    m = fit_regression(ps, [f(p) for p in ps.points], degree=1)
    np.testing.assert_allclose(m.gradient, [-0.5, 2.5], atol=1e-9)
    assert abs(m.f0 - 1.0) < 1e-9


def test_regression_symmetry_kills_odd_component():
    # f(x) = x1^2 on symmetric points +-delta e1 and the center: degree-1 fit
    # has zero slope
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    ps = make_poised_set(np.zeros(2), 1.0, "regression", rng_(16), p=5)
    ps.points = pts
    m = fit_regression(ps, [p[0] ** 2 for p in pts], degree=1)
    np.testing.assert_allclose(m.gradient, 0.0, atol=1e-9)


def test_regression_normal_equations_residual_orthogonality():
    rng = rng_(17)
    ps = make_poised_set(np.zeros(3), 1.0, "regression", rng, p=25)
    vals = np.array([np.sin(p).sum() for p in ps.points])
    m = fit_regression(ps, vals, degree=2)
    preds = np.array([m.value_at(p) for p in ps.points])
    resid = preds - vals
    from stormopt.models import _basis_matrix
    M = _basis_matrix(ps.points - ps.center, 2)
    # residual orthogonal to the basis columns (normal equations)
    norms = np.linalg.norm(M, axis=0) * max(1.0, np.linalg.norm(resid))
    assert np.all(np.abs(M.T @ resid) <= 1e-8 * norms)


def test_regression_rank_gate():
    ps = make_poised_set(np.zeros(2), 1.0, "regression", rng_(18), p=8)
    ps.points = np.zeros((8, 2))  # all coincident
    with pytest.raises(GeometryError):
        fit_regression(ps, list(range(8)), degree=1)
    # 2 points cannot determine the 3 coefficients of a linear model in n=2
    few = PoisedSet(np.array([[0.0, 0.0], [0.5, 0.0]]), np.zeros(2), 1.0, KIND_REGRESSION)
    with pytest.raises(GeometryError):
        fit_regression(few, [0.0, 1.0], degree=1)


def test_noisy_quadratic_regression_recovers_hessian():
    # 20 noisy samples of ||x||^2, noise uniform +-0.01: H within Frobenius
    # 0.5 of truth in >= 95 of 100 seeded trials.
    hits = 0
    for seed in range(100):
        rng = rng_(1000 + seed)
        ps = make_poised_set(np.zeros(2), 1.0, "regression", rng, p=20)
        vals = [float(p @ p) + rng.uniform(-0.01, 0.01) for p in ps.points]
        m = fit_regression(ps, vals, degree=2)
        if np.linalg.norm(m.hessian - np.eye(2), "fro") < 0.5:
            hits += 1
    assert hits >= 95


def test_regression_consistency_error_halves_when_p_quadruples():
    # linear truth + value noise: coefficient error ~ 1/sqrt(p)
    g_true = np.array([1.0, -2.0])
    errs = {}
    for p in (50, 200):
        trials = []
        for seed in range(60):
            rng = rng_(2000 + seed)
            ps = make_poised_set(np.zeros(2), 1.0, "regression", rng, p=p)
            vals = [float(g_true @ q) + rng.uniform(-0.5, 0.5) for q in ps.points]
            m = fit_regression(ps, vals, degree=1)
            trials.append(np.linalg.norm(m.gradient - g_true))
        errs[p] = np.mean(trials)
    ratio = errs[50] / errs[200]
    assert 1.4 < ratio < 2.9  # statistical tolerance around the ideal 2


# --------------------------------------------------------------------- taylor

def test_gradient_taylor_fields():
    m = fit_gradient_taylor(np.zeros(2), 1.0, np.array([1.0, 0.0]))
    assert m.value(np.array([0.5, 0.3])) == pytest.approx(1.5)
    assert not m.hessian.any()


def test_gradient_taylor_quadratic_exactness():
    # passing half the true Hessian reproduces a quadratic globally
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -1.0])
    f = lambda p: 0.5 * p @ A @ p + b @ p + 3.0
    x0 = np.array([0.7, -0.4])
    m = fit_gradient_taylor(x0, f(x0), A @ x0 + b, Hopt=0.5 * A)
    for p in sample_in_ball(x0, 3.0, 20, rng_(19)):
        assert abs(m.value_at(p) - f(p)) < 1e-10


def test_gradient_taylor_pure_quadratic():
    m = fit_gradient_taylor(np.zeros(2), 0.0, np.zeros(2), Hopt=np.eye(2))
    s = np.array([0.3, -0.2])
    assert m.value(s) == pytest.approx(float(s @ s))


def test_model_requires_symmetric_hessian():
    with pytest.raises(ValueError):
        QuadraticModel(np.zeros(2), 0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------------- probing

def test_probe_exact_model_zero_errors():
    A = np.array([[1.0, 0.2], [0.2, 2.0]])
    f = lambda p: float(p @ A @ p)
    g = lambda p: 2.0 * A @ p
    m = QuadraticModel(np.zeros(2), 0.0, np.zeros(2), A)
    rep = probe_fully_linear(m, (f, g), 1.0, 50, rng_(21))
    assert rep.max_value_error <= 1e-9
    assert rep.max_gradient_error <= 1e-9


def test_probe_constant_model_of_constant_function():
    m = QuadraticModel(np.zeros(3), 4.0, np.zeros(3), np.zeros((3, 3)))
    rep = probe_fully_linear(m, (lambda p: 4.0, lambda p: np.zeros(3)), 0.5, 30, rng_(22))
    assert rep.max_value_error == 0.0
    assert rep.max_gradient_error == 0.0


def test_probe_linear_model_error_scaling():
    # linear interpolation of x1^2: value error O(d^2), gradient error O(d)
    f = lambda p: p[0] ** 2
    g = lambda p: np.array([2.0 * p[0], 0.0])
    reports = {}
    for d in (0.5, 0.25):
        rng = rng_(23)
        ps = make_poised_set(np.zeros(2), d, "interpolation-linear", rng)
        m = fit_interpolation(ps, [f(p) for p in ps.points])
        reports[d] = probe_fully_linear(m, (f, g), d, 200, rng)
    vr = reports[0.5].max_value_error / reports[0.25].max_value_error
    gr = reports[0.5].max_gradient_error / reports[0.25].max_gradient_error
    assert 4.0 * 0.7 <= vr <= 4.0 * 1.3
    assert 2.0 * 0.7 <= gr <= 2.0 * 1.3


def test_fully_linear_kappas_bounded_over_radii():
    f = lambda p: np.sin(p[0]) + 0.5 * p[1] ** 2
    g = lambda p: np.array([np.cos(p[0]), p[1]])
    kef, keg = [], []
    for d in (1.0, 0.5, 0.25, 0.125):
        rng = rng_(24)
        ps = make_poised_set(np.array([0.3, 0.3]), d, "interpolation-linear", rng)
        m = fit_interpolation(ps, [f(p) for p in ps.points])
        rep = probe_fully_linear(m, (f, g), d, 100, rng)
        kef.append(rep.implied_kappa_ef)
        keg.append(rep.implied_kappa_eg)
    assert max(kef) <= 2.5 * min(kef)
    assert max(keg) <= 2.5 * min(keg)


# -------------------------------------------------------- arbitrary-size fits

def test_fit_quadratic_set_interpolates_underdetermined():
    rng = rng_(25)
    f = lambda p: 1.0 + p[0] - p[1] + 2 * p[0] * p[1]
    pts = np.vstack([np.zeros(2), sample_in_ball(np.zeros(2), 1.0, 4, rng)])
    vals = np.array([f(p) for p in pts])
    m = fit_quadratic_set(pts, np.zeros(2), vals)
    for p, v in zip(pts, vals):
        assert abs(m.value_at(p) - v) < 1e-7


def test_fit_quadratic_set_flags_inconsistent_duplicates():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError):
        fit_quadratic_set(pts, np.zeros(2), [0.0, 1.0, 5.0, 1.0])


# ------------------------------------------------------ polynomial exactness

def test_degree_matching_fits_recover_polynomials_exactly():
    rng = rng_(30)
    n = 3
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    c = 0.7
    f = lambda p: float(p @ A @ p + b @ p + c)
    center = rng.standard_normal(n)

    ps = make_poised_set(center, 0.8, "interpolation-quadratic", rng)
    m = fit_interpolation(ps, [f(p) for p in ps.points])
    s0 = center
    # recovered coefficients expressed around the center must match the truth
    np.testing.assert_allclose(m.hessian, A, atol=1e-8)
    np.testing.assert_allclose(m.gradient, 2 * A @ s0 + b, atol=1e-8)
    assert abs(m.f0 - f(center)) < 1e-8

    pr = make_poised_set(center, 0.8, "regression", rng_(31), p=25)
    mr = fit_regression(pr, [f(p) for p in pr.points], degree=2)
    np.testing.assert_allclose(mr.hessian, A, atol=1e-8)
    np.testing.assert_allclose(mr.gradient, 2 * A @ s0 + b, atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_three_fitters_agree_on_a_full_quadratic_set(n):
    rng = rng_(40 + n)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(n)
    f = lambda p: float(p @ A @ p + b @ p - 0.3)
    center = rng.standard_normal(n)
    ps = make_poised_set(center, 0.5, KIND_QUADRATIC, rng)
    vals = [f(p) for p in ps.points]
    fits = [fit_interpolation(ps, vals), fit_regression(ps, vals, degree=2),
            fit_quadratic_set(ps.points, ps.center, vals, delta=ps.delta)]
    for m in fits:
        assert np.array_equal(m.hessian, m.hessian.T)
        assert abs(m.f0 - fits[0].f0) <= 1e-8
        np.testing.assert_allclose(m.gradient, fits[0].gradient, atol=1e-8)
        np.testing.assert_allclose(m.hessian, fits[0].hessian, atol=1e-8)
    np.testing.assert_allclose(fits[0].hessian, A, atol=1e-8)
    np.testing.assert_allclose(fits[0].gradient, 2 * A @ center + b, atol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fitter", ["interpolation", "regression", "quadratic-set"])
def test_a_non_finite_value_gives_a_geometry_error_not_a_model(fitter, bad):
    # a NaN residual gives NaN coefficients; the least-squares residual test
    # of fit_quadratic_set is False for NaN, so only the finiteness check
    # stops a NaN model
    ps = make_poised_set(np.zeros(2), 0.5, KIND_QUADRATIC, rng_(50))
    vals = [float(p @ p) for p in ps.points]
    vals[3] = bad
    fit = {"interpolation": lambda: fit_interpolation(ps, vals),
           "regression": lambda: fit_regression(ps, vals, degree=2),
           "quadratic-set": lambda: fit_quadratic_set(ps.points, ps.center, vals, ps.delta)}
    with pytest.raises(GeometryError, match="non-finite"):
        fit[fitter]()

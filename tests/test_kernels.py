import numpy as np
import pytest

from stormopt import _kernels
from stormopt._kernels import (logistic_hess, logistic_loss, logistic_sums, quad_basis,
                               quad_basis_size)


def test_quad_basis_size():
    assert quad_basis_size(2) == 6
    assert quad_basis_size(10) == 66


def _quad_basis_loop(S):
    """Reference layout built column by column with a Python pair loop."""
    p, n = S.shape
    cols = [np.ones((p, 1)), S, S**2]
    cross = [S[:, i] * S[:, j] for i in range(n) for j in range(i + 1, n)]
    if cross:
        cols.append(np.stack(cross, axis=1))
    return np.concatenate(cols, axis=1)


def test_quad_basis_matches_numpy_reference():
    rng = np.random.default_rng(0)
    for p, n in ((7, 1), (7, 2), (7, 5), (7, 9), (66, 10), (231, 20), (3, 1), (5, 2)):
        S = rng.standard_normal((p, n))
        B = quad_basis(S)
        assert B.shape == (p, quad_basis_size(n))
        assert np.array_equal(B, _quad_basis_loop(S))


def test_quad_basis_column_layout():
    S = np.array([[2.0, 3.0]])
    row = quad_basis(S)[0]
    np.testing.assert_allclose(row, [1.0, 2.0, 3.0, 4.0, 9.0, 6.0])


def test_logistic_kernels_match_numpy_reference():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 6))
    y = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    w = rng.standard_normal(6)
    beta = 0.3
    t = y * (X @ w + beta)
    loss, grad = logistic_sums(X, y, w, beta)
    # loss_i = log(1 + exp(-t_i)); d loss_i / d t_i = -1 / (1 + exp(t_i))
    assert abs(loss - np.logaddexp(0.0, -t).sum()) < 1e-10 * max(1.0, abs(loss))
    dt = -np.exp(-np.logaddexp(0.0, t))
    coef = y * dt
    np.testing.assert_allclose(grad, np.concatenate([X.T @ coef, [coef.sum()]]), rtol=1e-10)
    s = 1.0 / (1.0 + np.exp(-t))
    Xb = np.hstack([X, np.ones((40, 1))])
    np.testing.assert_allclose(logistic_hess(X, y, w, beta),
                               Xb.T @ (Xb * (s * (1.0 - s))[:, None]), rtol=1e-10)


def test_logistic_kernels_stable_for_large_margins():
    X = np.array([[100.0], [-100.0]])
    y = np.array([1.0, 1.0])
    w = np.array([1.0])
    loss, grad = logistic_sums(X, y, w, 0.0)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    # log(1+exp(-100)) ~ 0 and log(1+exp(100)) ~ 100
    assert abs(loss - 100.0) < 1e-6
    H = logistic_hess(X, y, w, 0.0)
    assert np.all(np.isfinite(H))


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("X, y, w, beta", [
    (np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), np.array([0.5, -2.0]), 0.0),  # t == +-0
    (np.array([[1.0], [2.0]]), np.array([-1.0, -1.0]), np.array([0.0]), 0.0),  # t == -0.0
    (np.array([[0.0]]), np.array([-1.0]), np.array([1.0]), 0.0),
    (np.array([[800.0], [-800.0], [710.0], [-745.5]]), np.ones(4), np.array([1.0]), 0.0),
    (np.array([[1.0], [1.0]]), np.array([1.0, -1.0]), np.array([1e3]), -300.0),
])
def test_logistic_loss_matches_sums_at_zero_and_huge_margins(X, y, w, beta):
    got = logistic_loss(X, y, w, beta)
    assert _same_bits(got, logistic_sums(X, y, w, beta)[0])
    t = y * (X @ w + beta)
    assert got == pytest.approx(np.logaddexp(0.0, -t).sum(), rel=1e-15)


def test_logistic_loss_matches_sums_on_random_data():
    rng = np.random.default_rng(4)
    for N, m in ((1, 1), (10, 3), (2000, 10), (500, 50)):
        X = rng.standard_normal((N, m))
        y = np.where(rng.uniform(size=N) < 0.5, -1.0, 1.0)
        for scale in (0.0, 0.1, 1.0, 30.0):
            w, beta = scale * rng.standard_normal(m), scale * rng.standard_normal()
            assert _same_bits(logistic_loss(X, y, w, beta), logistic_sums(X, y, w, beta)[0])


def test_backend_reports_a_valid_choice():
    assert _kernels.BACKEND == "numpy"

import numpy as np
import pytest

from stormopt.logistic import (Dataset, LibsvmParseError, LogisticProblem,
                               load_libsvm, logistic_hessian, logistic_value_grad,
                               make_synthetic, subsample_logistic_oracle, train_test_split)


def toy_dataset():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -0.7], [2.0, 1.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    return Dataset(X, y, "toy")


# -------------------------------------------------------------------- parser

def test_libsvm_round_trip(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("+1 1:0.5 3:2.0\n-1 2:1.5\n+1 1:-1.0 2:0.25 3:0.125\n")
    ds = load_libsvm(str(path))
    assert ds.features.shape == (3, 3)
    np.testing.assert_allclose(ds.features[0], [0.5, 0.0, 2.0])
    np.testing.assert_allclose(ds.features[1], [0.0, 1.5, 0.0])
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])


def test_libsvm_label_mapping(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("0 1:1.0\n1 1:2.0\n0 1:3.0\n")
    ds = load_libsvm(str(path))
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0, -1.0])


def test_libsvm_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:0.5\n-1 nonsense\n")
    with pytest.raises(LibsvmParseError, match="line 2"):
        load_libsvm(str(path))


def test_libsvm_zero_based_index_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 0:0.5\n")
    with pytest.raises(LibsvmParseError, match="line 1"):
        load_libsvm(str(path))


@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_libsvm_non_finite_label_reports_line(tmp_path, label):
    path = tmp_path / "bad.txt"
    path.write_text(f"+1 1:0.5\n-1 1:1.0\n{label} 1:2.0\n")
    with pytest.raises(LibsvmParseError, match="line 3: non-finite label"):
        load_libsvm(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_libsvm_non_finite_feature_reports_line(tmp_path, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"+1 1:0.5\n-1 1:1.0 2:{value}\n")
    with pytest.raises(LibsvmParseError, match="line 2: non-finite value"):
        load_libsvm(str(path))


def test_libsvm_repeated_index_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 1:0.5 2:1.0\n-1 2:1.5 1:1.0 2:3.0\n")
    with pytest.raises(LibsvmParseError, match="line 2: index 2 repeated"):
        load_libsvm(str(path))


# --------------------------------------------------------------------- split

def test_split_sizes_and_disjointness():
    ds = make_synthetic(200, 4, seed=0)
    train, test = train_test_split(ds, 0.05, seed=1)
    assert train.n_samples == 190
    assert test.n_samples == 10
    assert train.n_samples + test.n_samples == ds.n_samples


def test_split_depends_only_on_split_seed():
    ds = make_synthetic(100, 3, seed=0)
    t1, _ = train_test_split(ds, 0.05, seed=5)
    t2, _ = train_test_split(ds, 0.05, seed=5)
    t3, _ = train_test_split(ds, 0.05, seed=6)
    np.testing.assert_array_equal(t1.features, t2.features)
    assert not np.array_equal(t1.features, t3.features)


# -------------------------------------------------------------------- oracle

def test_loss_at_zero_is_log_two_and_gradient_formula():
    ds = toy_dataset()
    idx = np.arange(5)
    loss, grad, _ = subsample_logistic_oracle(ds, idx, np.zeros(2), 0.0, 0.0)
    assert loss == pytest.approx(np.log(2.0))
    Xb = np.concatenate([ds.features, np.ones((5, 1))], axis=1)
    expected = -(ds.labels[:, None] * Xb).mean(axis=0) / 2.0
    np.testing.assert_allclose(grad, expected, rtol=1e-12)


def test_single_sample_closed_form_in_beta():
    ds = Dataset(np.zeros((1, 1)), np.array([1.0]), "one")
    for beta in (-2.0, 0.0, 3.0):
        loss, grad, _ = subsample_logistic_oracle(ds, [0], np.zeros(1), beta, 0.0)
        assert loss == pytest.approx(np.log1p(np.exp(-beta)))
        assert grad[-1] == pytest.approx(-1.0 / (1.0 + np.exp(beta)))


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 3))
    y = np.where(rng.uniform(size=5) < 0.5, -1.0, 1.0)
    ds = Dataset(X, y, "rand")
    lam = 1e-3
    x = np.concatenate([rng.standard_normal(3), [0.4]])
    idx = np.arange(5)

    def loss_at(z):
        l, _, _ = subsample_logistic_oracle(ds, idx, z[:-1], z[-1], lam)
        return l

    _, grad, hess = subsample_logistic_oracle(ds, idx, x[:-1], x[-1], lam)
    h = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd = (loss_at(x + e) - loss_at(x - e)) / (2 * h)
        assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(fd))

    def grad_at(z):
        _, g, _ = subsample_logistic_oracle(ds, idx, z[:-1], z[-1], lam)
        return g

    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd_col = (grad_at(x + e) - grad_at(x - e)) / (2 * h)
        np.testing.assert_allclose(hess[:, j], fd_col, rtol=1e-4, atol=1e-6)


def test_regularizer_touches_weights_not_bias():
    ds = toy_dataset()
    lam = 0.5
    w = np.array([1.0, -2.0])
    _, _, hess = subsample_logistic_oracle(ds, np.arange(5), w, 0.0, lam)
    _, _, hess0 = subsample_logistic_oracle(ds, np.arange(5), w, 0.0, 0.0)
    diff = hess - hess0
    np.testing.assert_allclose(np.diag(diff)[:-1], 2 * lam)
    assert diff[-1, -1] == pytest.approx(0.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        subsample_logistic_oracle(toy_dataset(), [], np.zeros(2), 0.0, 0.0)


def test_stable_for_huge_margins():
    ds = Dataset(np.array([[40.0]]), np.array([1.0]), "big")
    loss, grad, hess = subsample_logistic_oracle(ds, [0], np.array([1.0]), 0.0, 0.0)
    assert np.isfinite(loss) and loss == pytest.approx(np.exp(-40.0), abs=1e-20)
    assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))


def test_oracle_matches_direct_value_grad_and_hessian():
    rng = np.random.default_rng(6)
    ds = Dataset(rng.standard_normal((30, 4)), np.where(rng.uniform(size=30) < 0.5, -1.0, 1.0))
    w, beta, lam = rng.standard_normal(4), -0.7, 1e-2
    for sample in ([3, 1, 4, 1, 5], {7, 2, 19}, np.arange(30)):
        idx = np.asarray(sorted(sample) if isinstance(sample, set) else sample)
        X, y = ds.features[idx], ds.labels[idx]
        loss, grad = logistic_value_grad(X, y, w, beta, lam)
        got = subsample_logistic_oracle(ds, sample, w, beta, lam)
        assert got[0] == loss
        assert np.array_equal(got[1], grad)
        assert np.array_equal(got[2], logistic_hessian(X, y, w, beta, lam))


def test_problem_losses_are_floats_equal_to_the_gradient_path():
    rng = np.random.default_rng(2)
    ds = make_synthetic(400, 5, seed=3)
    prob = LogisticProblem(ds, lam=1e-3)
    idx = prob.draw_sample(50, rng)
    for x in (prob.x0, rng.standard_normal(6), 40.0 * rng.standard_normal(6)):
        full, sampled = prob.true_f(x), prob.sampled_loss(idx, x)
        assert type(full) is float and type(sampled) is float
        assert full == logistic_value_grad(ds.features, ds.labels, x[:-1], x[-1], 1e-3)[0]
        assert sampled == prob.sampled_loss_grad_hess(idx, x, want_hessian=False)[0]


@pytest.mark.parametrize("lam", [-1.0, -1e-12, float("nan"), float("inf")])
def test_problem_rejects_bad_regularization(lam):
    with pytest.raises(ValueError, match="lam"):
        LogisticProblem(toy_dataset(), lam=lam)


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_synthetic_rejects_non_finite_margin_noise(noise):
    with pytest.raises(ValueError, match="margin_noise"):
        make_synthetic(50, 2, seed=0, margin_noise=noise)


def test_problem_eval_counting():
    ds = toy_dataset()
    prob = LogisticProblem(ds, lam=0.0)
    rng = np.random.default_rng(0)
    prob.draw_sample(3, rng)
    prob.draw_sample(2, rng)
    assert prob.eval_count == 5

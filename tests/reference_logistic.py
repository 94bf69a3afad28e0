"""The logistic kernels and the Adagrad loop as first written: plain
full-array numpy, one expression per quantity. The tests hold the tuned
kernels in ``stormopt._kernels`` and ``variants.run_adagrad`` to these bit
for bit."""

import numpy as np


def sigmoid_of_margin(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_sums(X, y, w, beta):
    t = y * (X @ w + float(beta))
    loss = np.where(t > 0, np.log1p(np.exp(-np.abs(t))), -t + np.log1p(np.exp(-np.abs(t))))
    coef = -y * (1.0 - sigmoid_of_margin(t))
    return loss.sum(), np.concatenate([X.T @ coef, [coef.sum()]])


def logistic_loss(X, y, w, beta):
    t = y * (X @ w + float(beta))
    return (np.log1p(np.exp(-np.abs(t))) + np.where(t > 0, 0.0, -t)).sum()


def logistic_hess(X, y, w, beta):
    s = sigmoid_of_margin(y * (X @ w + float(beta)))
    d = s * (1.0 - s)
    Xb = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    return (Xb * d[:, None]).T @ Xb


def adagrad(X, y, step0, batch, budget, lam, seed, record_every):
    """(loss_trace, x_checkpoints, x_final, f_final_true, eval_total) of
    ``run_adagrad`` on the rows X, y, with the same draws."""
    N = X.shape[0]
    lam = float(lam)

    def true_f(x):
        w = x[:-1]
        return float(logistic_loss(X, y, w, x[-1]) / N + lam * float(w @ w))

    rng = np.random.default_rng(seed)
    if record_every is None:
        record_every = max(1, budget // 50)
    x = np.zeros(X.shape[1] + 1)
    acc = np.zeros_like(x)
    evals = 0
    trace, checkpoints = [(0, true_f(x))], [(0, x.copy())]
    next_record = record_every
    while evals < budget:
        p = min(batch, N)
        evals += p
        idx = rng.choice(N, size=p, replace=False)
        w = x[:-1]
        _, grad = logistic_sums(X[idx], y[idx], w, float(x[-1]))
        grad = grad / p
        grad[:-1] += 2.0 * lam * w
        if np.any(grad):
            acc += grad**2
            x -= step0 * grad / (np.sqrt(acc) + 1e-8)
        if evals >= next_record:
            trace.append((evals, true_f(x)))
            checkpoints.append((evals, x.copy()))
            next_record += record_every
    if trace[-1][0] == evals:
        f_final = trace[-1][1]
    else:
        f_final = true_f(x)
        trace.append((evals, f_final))
        checkpoints.append((evals, x.copy()))
    return trace, checkpoints, x, f_final, evals

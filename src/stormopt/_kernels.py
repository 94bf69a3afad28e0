"""Hot numeric kernels: the quadratic basis matrix and the logistic loss,
gradient and Hessian sums, all vectorized numpy.

Each logistic kernel pays only for what its caller reads:
``logistic_sums`` returns the loss and gradient (the storm-logistic model),
``logistic_grad`` the gradient alone (the Adagrad steps) and
``logistic_loss`` the loss alone (full-data losses and the estimates). The
loss is worked out one block of ``LOSS_BLOCK`` rows at a time into one
preallocated vector, which costs little more than the ``X @ w`` it needs.
The three agree bit for bit: every margin t gets one ``exp(-|t|)``, the
loss term is ``log1p(exp(-|t|)) - min(t, 0)`` and the gradient comes from
one helper.

``BACKEND`` names the kernel path; there is only the numpy one.
"""

from functools import lru_cache

import numpy as np

BACKEND = "numpy"


def quad_basis_size(n: int) -> int:
    return (n + 1) * (n + 2) // 2


@lru_cache(maxsize=64)
def pair_indices(n: int):
    """Index arrays (i, j) of the pairs i < j of n coordinates, in row-major
    order. Cached and read-only: ``np.triu_indices`` costs more than a whole
    basis matrix at these sizes."""
    i, j = np.triu_indices(n, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


# Column layout of the quadratic basis, for steps s scaled to the unit ball:
#   [1, s_1..s_n, s_1^2..s_n^2, s_i*s_j for i<j (pair_indices order)]
# The unpacking in models.py depends on this exact order.
def quad_basis(S) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    i, j = pair_indices(S.shape[1])
    return np.concatenate([np.ones((S.shape[0], 1)), S, S**2, S[:, i] * S[:, j]], axis=1)


LOSS_BLOCK = 8192  # rows per block of logistic_loss; 2048 to 32768 time alike


def _margins(X, y, w, beta):
    """The margins t = y(Xw+beta) and exp(-|t|), the one exponential each
    margin needs."""
    t = y * (X @ w + float(beta))
    return t, np.exp(-np.abs(t))


def _sigmoid(t, e):
    """1/(1+exp(-t)) from the margins and e = exp(-|t|), without overflow."""
    return np.where(t < 0, e, 1.0) / (1.0 + e)


def _grad(X, y, t, e):
    """Gradient in (w, beta) of the summed loss at the margins t."""
    coef = -y * (1.0 - _sigmoid(t, e))  # d loss_i / d margin
    grad = np.empty(X.shape[1] + 1)
    np.matmul(X.T, coef, out=grad[:-1])
    grad[-1] = coef.sum()
    return grad


def logistic_sums(X, y, w, beta):
    """Summed loss log(1+exp(-y(Xw+beta))) and its gradient in (w, beta)."""
    t, e = _margins(X, y, w, beta)
    # log(1+exp(-t)) evaluated stably for |t| large
    return (np.log1p(e) - np.minimum(t, 0.0)).sum(), _grad(X, y, t, e)


def logistic_grad(X, y, w, beta):
    """The gradient of ``logistic_sums`` alone."""
    return _grad(X, y, *_margins(X, y, w, beta))


def logistic_loss(X, y, w, beta):
    """The loss of ``logistic_sums`` alone, one block of rows at a time. Row
    blocks of ``X @ w`` equal its rows bit for bit, and the terms are summed
    once over the same N-vector."""
    beta = float(beta)
    terms = np.empty(X.shape[0])
    e = np.empty(min(LOSS_BLOCK, X.shape[0]))
    for lo in range(0, X.shape[0], LOSS_BLOCK):
        t = terms[lo : lo + LOSS_BLOCK]
        eb = e[: t.size]
        np.matmul(X[lo : lo + LOSS_BLOCK], w, out=t)
        t += beta
        t *= y[lo : lo + LOSS_BLOCK]
        np.abs(t, out=eb)
        np.negative(eb, out=eb)
        np.exp(eb, out=eb)
        np.log1p(eb, out=eb)
        np.minimum(t, 0.0, out=t)
        np.subtract(eb, t, out=t)
    return terms.sum()


def logistic_hess(X, y, w, beta):
    """Hessian of the summed loss in (w, beta): the d-weighted Gram matrix."""
    s = _sigmoid(*_margins(X, y, w, beta))
    d = s * (1.0 - s)  # d^2 loss_i / d margin^2
    Xb = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    return (Xb * d[:, None]).T @ Xb

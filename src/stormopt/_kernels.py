"""Hot numeric kernels: the quadratic basis matrix and the logistic loss,
gradient and Hessian sums, all vectorized numpy.

``logistic_loss`` is the loss-only sum, for callers that need no gradient
(full-data losses and the estimates); it equals ``logistic_sums(...)[0]``
bit for bit at about half the cost on large inputs.

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


def _sigmoid_of_margin(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_sums(X, y, w, beta):
    """Summed loss log(1+exp(-y(Xw+beta))) and its gradient in (w, beta)."""
    t = y * (X @ w + float(beta))
    # log(1+exp(-t)) evaluated stably for |t| large
    loss = np.where(t > 0, np.log1p(np.exp(-np.abs(t))), -t + np.log1p(np.exp(-np.abs(t))))
    coef = -y * (1.0 - _sigmoid_of_margin(t))  # d loss_i / d margin
    return loss.sum(), np.concatenate([X.T @ coef, [coef.sum()]])


def logistic_loss(X, y, w, beta):
    """Summed loss log(1+exp(-y(Xw+beta))) alone. Each element adds the same
    two terms as ``logistic_sums``, and x + 0.0 == x where t > 0."""
    t = y * (X @ w + float(beta))
    return (np.log1p(np.exp(-np.abs(t))) + np.where(t > 0, 0.0, -t)).sum()


def logistic_hess(X, y, w, beta):
    """Hessian of the summed loss in (w, beta): the d-weighted Gram matrix."""
    s = _sigmoid_of_margin(y * (X @ w + float(beta)))
    d = s * (1.0 - s)  # d^2 loss_i / d margin^2
    Xb = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    return (Xb * d[:, None]).T @ Xb

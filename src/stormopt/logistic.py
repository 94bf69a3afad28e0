"""Regularized logistic loss on subsampled data, LIBSVM-format ingestion,
and a synthetic two-class generator for desk-scale experiments.

The parameter vector is (w, beta) stacked as one array of length m+1; the
regularizer lam*||w||^2 does not touch the bias term beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels


class LibsvmParseError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (N, m)
    labels: np.ndarray    # (N,) in {-1, +1}
    name: str = "dataset"

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _map_labels(raw: np.ndarray) -> np.ndarray:
    classes = np.unique(raw)
    if classes.size != 2:
        raise LibsvmParseError(f"expected 2 classes, found {classes.size}")
    if set(classes.tolist()) == {-1.0, 1.0}:
        return raw
    return np.where(raw == classes.min(), -1.0, 1.0)


def load_libsvm(path: str, name: Optional[str] = None) -> Dataset:
    """Parse a LIBSVM-format text file: 'label idx:val idx:val ...', 1-based
    indices. Malformed lines raise LibsvmParseError with the line number."""
    labels = []
    rows = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise LibsvmParseError(f"line {lineno}: bad label {parts[0]!r}") from exc
            if not math.isfinite(label):
                raise LibsvmParseError(f"line {lineno}: non-finite label {parts[0]!r}")
            entries = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise LibsvmParseError(f"line {lineno}: bad feature {tok!r}") from exc
                if idx < 1:
                    raise LibsvmParseError(f"line {lineno}: index {idx} is not 1-based")
                if not math.isfinite(val):
                    raise LibsvmParseError(f"line {lineno}: non-finite value {tok!r}")
                if idx in entries:
                    raise LibsvmParseError(f"line {lineno}: index {idx} repeated")
                entries[idx] = val
                max_idx = max(max_idx, idx)
            labels.append(label)
            rows.append(entries)
    if not rows:
        raise LibsvmParseError("empty dataset")
    X = np.zeros((len(rows), max_idx))
    for r, entries in enumerate(rows):
        for idx, val in entries.items():
            X[r, idx - 1] = val
    y = _map_labels(np.asarray(labels, dtype=float))
    return Dataset(X, y, name=name or path)


def train_test_split(ds: Dataset, test_fraction: float = 0.05,
                     seed: int = 0) -> Tuple[Dataset, Dataset]:
    """Random split into floor((1-test_fraction)*N) training samples and the rest."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_samples)
    n_train = int(np.floor((1.0 - test_fraction) * ds.n_samples))
    tr, te = perm[:n_train], perm[n_train:]
    return (Dataset(ds.features[tr], ds.labels[tr], ds.name + ":train"),
            Dataset(ds.features[te], ds.labels[te], ds.name + ":test"))


def make_synthetic(n_samples: int = 2000, n_features: int = 10, seed: int = 0,
                   margin_noise: float = 0.3) -> Dataset:
    """Linearly separable two-class data with label noise near the margin."""
    if not math.isfinite(margin_noise):
        raise ValueError(f"margin_noise must be finite, got {margin_noise!r}")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(n_features)
    w_true /= np.linalg.norm(w_true)
    X = rng.standard_normal((n_samples, n_features))
    margin = X @ w_true
    y = np.sign(margin + margin_noise * rng.standard_normal(n_samples))
    y[y == 0] = 1.0
    return Dataset(X, y, name="synthetic")


def logistic_value(X: np.ndarray, y: np.ndarray, w: np.ndarray, beta: float,
                   lam: float) -> float:
    """The loss of ``logistic_value_grad`` alone, as a Python float."""
    return float(_kernels.logistic_loss(X, y, w, beta) / X.shape[0] + lam * float(w @ w))


def logistic_value_grad(X: np.ndarray, y: np.ndarray, w: np.ndarray, beta: float,
                        lam: float) -> Tuple[float, np.ndarray]:
    n = X.shape[0]
    loss_sum, grad = _kernels.logistic_sums(X, y, w, beta)
    loss = loss_sum / n + lam * float(w @ w)
    grad = grad / n
    grad[:-1] += 2.0 * lam * w
    return loss, grad


def logistic_hessian(X: np.ndarray, y: np.ndarray, w: np.ndarray, beta: float,
                     lam: float) -> np.ndarray:
    n = X.shape[0]
    H = _kernels.logistic_hess(X, y, w, beta) / n
    H[np.arange(w.size), np.arange(w.size)] += 2.0 * lam
    return H


def subsample_logistic_oracle(dataset: Dataset, index_sample: Sequence[int],
                              w: np.ndarray, beta: float, lam: float):
    """Loss, gradient, and Hessian of the regularized logistic loss over the
    given sample indices. The gradient/Hessian are exact derivatives of the
    subsampled loss; the bias row of the Hessian carries no regularization."""
    idx = np.asarray(sorted(index_sample) if isinstance(index_sample, (set, frozenset))
                     else index_sample, dtype=int)
    if idx.size == 0:
        raise ValueError("empty index sample")
    x = np.append(np.asarray(w, dtype=float), float(beta))
    return LogisticProblem(dataset, lam=lam).sampled_loss_grad_hess(idx, x, want_hessian=True)


class LogisticProblem:
    """Empirical-risk objective over a training set, counting one evaluation
    per data point touched by any subsampled computation."""

    def __init__(self, train: Dataset, lam: float = 1e-4, name: Optional[str] = None):
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
        self.train = train
        self.lam = float(lam)
        self.name = name or train.name
        self.dimension = train.n_features + 1
        self.x0 = np.zeros(self.dimension)
        self.f_star = None
        self.eval_count = 0

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        return x[:-1], float(x[-1])

    def true_f(self, x) -> float:
        w, beta = self._split(x)
        return logistic_value(self.train.features, self.train.labels, w, beta, self.lam)

    def true_grad(self, x) -> np.ndarray:
        w, beta = self._split(x)
        _, grad = logistic_value_grad(self.train.features, self.train.labels, w, beta, self.lam)
        return grad

    @property
    def noiseless_ref(self):
        return (self.true_f, self.true_grad)

    def draw_sample(self, p: int, rng) -> np.ndarray:
        p = min(p, self.train.n_samples)
        self.eval_count += p
        return rng.choice(self.train.n_samples, size=p, replace=False)

    def sampled_loss(self, idx: np.ndarray, x) -> float:
        w, beta = self._split(x)
        return logistic_value(self.train.features[idx], self.train.labels[idx],
                              w, beta, self.lam)

    def sampled_loss_grad_hess(self, idx: np.ndarray, x, want_hessian: bool):
        w, beta = self._split(x)
        X, y = self.train.features[idx], self.train.labels[idx]
        loss, grad = logistic_value_grad(X, y, w, beta, self.lam)
        hess = logistic_hessian(X, y, w, beta, self.lam) if want_hessian else None
        return loss, grad, hess

"""Micro timings of the numeric kernels at fixed sizes.

Each kernel is called directly, in batches long enough to time, and the
median microseconds per call over the batches is reported with the
operations and bytes the call computes. Operations and bytes are computed
from the array sizes (a multiply-add counts as two operations); they ignore
caches and temporaries.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from stormopt import _kernels, subproblem
from stormopt.models import QuadraticModel

BATCH_SECONDS = 0.02
BATCHES = 7


def _us_per_call(fn, *args) -> float:
    fn(*args)
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        if time.perf_counter() - t0 >= BATCH_SECONDS:
            break
        calls *= 2
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        per_call.append((time.perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e6


def _cases(rng):
    for p, n in ((66, 10), (231, 20)):
        q = _kernels.quad_basis_size(n)
        yield (f"quad_basis.{p}x{n}", _kernels.quad_basis, (rng.standard_normal((p, n)),),
               p * (n + n * (n - 1) // 2), 8 * (p * n + p * q))
    for N, m in ((2000, 10), (20000, 50)):
        X = rng.standard_normal((N, m))
        y = np.where(rng.uniform(size=N) < 0.5, -1.0, 1.0)
        w = rng.standard_normal(m)
        # two matrix-vector products plus about 20 elementwise operations a row
        yield (f"logistic_sums.{N}x{m}", _kernels.logistic_sums, (X, y, w, 0.1),
               4 * N * m + 20 * N, 8 * (2 * N * m + 2 * N))
    n = 10
    A = rng.standard_normal((n, n))
    model = QuadraticModel(np.zeros(n), 0.0, rng.standard_normal(n), A @ A.T + n * np.eye(n))
    # one Cholesky factorisation, two symmetric eigenvalue solves, a few matrix-vector products
    yield (f"dogleg.n{n}", subproblem.dogleg, (model, 0.1),
           n**3 // 3 + 2 * (4 * n**3 // 3) + 10 * n * n, 8 * 6 * n * n)


def micro_metrics(seed: int) -> dict:
    """{"micro.<kernel>.<size>.us|flops|bytes": value} for every case."""
    out = {}
    for name, fn, args, flops, nbytes in _cases(np.random.default_rng(seed)):
        out[f"micro.{name}.us"] = _us_per_call(fn, *args)
        out[f"micro.{name}.flops"] = flops
        out[f"micro.{name}.bytes"] = nbytes
    return out

"""Property tests of the logistic kernels: the loss-only kernel against the
loss of the loss-and-gradient kernel, and every kernel against the first
full-array formulas. Kept apart from test_kernels.py so that file runs
without hypothesis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import reference_logistic as ref  # noqa: E402
from stormopt._kernels import logistic_grad, logistic_loss, logistic_sums  # noqa: E402


@st.composite
def logistic_cases(draw):
    N, m = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    coords = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    X = draw(arrays(np.float64, (N, m), elements=coords))
    y = draw(arrays(np.float64, N, elements=st.sampled_from([-1.0, 1.0])))
    return X, y, draw(arrays(np.float64, m, elements=coords)), draw(coords)


@settings(max_examples=300, deadline=None)
@given(logistic_cases())
def test_logistic_loss_equals_the_loss_of_logistic_sums(case):
    X, y, w, beta = case
    got, want = logistic_loss(X, y, w, beta), logistic_sums(X, y, w, beta)[0]
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(logistic_cases())
def test_logistic_kernels_equal_the_first_formulas(case):
    X, y, w, beta = case
    loss, grad = logistic_sums(X, y, w, beta)
    want_loss, want_grad = ref.logistic_sums(X, y, w, beta)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert logistic_grad(X, y, w, beta).tobytes() == want_grad.tobytes()

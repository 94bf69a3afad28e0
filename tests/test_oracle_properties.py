"""Property tests of the batched oracle against a loop of single draws."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from stormopt.oracles import NoiseSpec  # noqa: E402
from stormopt.problems import builtin_suite  # noqa: E402
from test_oracles import _scalar_noisy_eval  # noqa: E402

SPECS = builtin_suite()
NOISE_FORMS = [("multiplicative", "component"), ("additive", "component"),
               ("failure", "component"), ("failure", "objective"), ("none", "component")]


@st.composite
def batch_cases(draw):
    spec = draw(st.sampled_from(SPECS))
    p = draw(st.integers(1, 12))
    X = draw(arrays(np.float64, (p, spec.n),
                    elements=st.floats(-5.0, 5.0, allow_nan=False, width=64)))
    kind, mode = draw(st.sampled_from(NOISE_FORMS))
    sigma = draw(st.floats(0.0, 1.0)) if kind != "none" else 0.0
    epsilon = draw(st.floats(0.0, 10.0))
    noise = NoiseSpec(kind=kind, sigma=sigma, epsilon=epsilon, failure_mode=mode)
    return spec, X, noise, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(batch_cases())
def test_batch_equals_loop_of_single_draws(case):
    spec, X, noise, seed = case
    prob, ref = spec.instantiate(noise), spec.instantiate(noise)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    got = prob.noisy_eval_batch(X, rng)
    want = np.array([ref.noisy_eval(x, ref_rng) for x in X])
    scalar = np.array([_scalar_noisy_eval(spec.residual, noise, x, scalar_rng) for x in X])
    assert np.array_equal(got, want) and np.array_equal(got, scalar)
    assert prob.eval_count == ref.eval_count == len(X)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == scalar_rng.bit_generator.state

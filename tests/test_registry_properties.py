"""Property tests of every registry entry: the radius and the iterate move
together with acceptance, evaluations add up, and reruns are bit-identical."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stormopt.engine import StoppingRule, TrustRegionConfig  # noqa: E402
from stormopt.oracles import NoiseSpec  # noqa: E402
from stormopt.problems import builtin_suite  # noqa: E402
from stormopt.variants import REGISTRY  # noqa: E402

SPECS = builtin_suite()
NOISES = [NoiseSpec(), NoiseSpec(kind="multiplicative", sigma=1e-2),
          NoiseSpec(kind="additive", sigma=1e-2),
          NoiseSpec(kind="failure", sigma=0.2, epsilon=1.0),
          NoiseSpec(kind="failure", sigma=0.2, epsilon=1.0, failure_mode="objective")]


def _run(name, spec, noise, seed, budget):
    cfg = TrustRegionConfig(budget=budget, seed=seed)
    return cfg, REGISTRY[name](spec.instantiate(noise), cfg, StoppingRule(budget=budget))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(REGISTRY)), spec=st.sampled_from(SPECS),
       noise=st.sampled_from(NOISES), seed=st.integers(0, 2**32 - 1),
       budget=st.integers(20, 600))
def test_registry_entry_invariants(name, spec, noise, seed, budget):
    cfg, rec = _run(name, spec, noise, seed, budget)
    assert rec.events
    for ev in rec.events:
        if ev.success:
            assert ev.delta_after == min(cfg.gamma * ev.delta_before, cfg.delta_max)
        else:
            assert ev.delta_after == ev.delta_before / cfg.gamma
            np.testing.assert_array_equal(ev.x_after, ev.x_before)
    assert sum(ev.evals_used_this_iter for ev in rec.events) == rec.eval_total
    assert _run(name, spec, noise, seed, budget)[1] == rec

"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the package's test suite (``tests/``); it checks that every
metric is printed with its unit, that self time is computed correctly, that
the per-cell profile grid equals the one-call grid, and that tracing leaves
the package as it found it.
"""

import json
from pathlib import Path

import pytest

import run  # sets the BLAS thread count and puts src/ on the path
import layers
from spans import Tracer, layer_totals
from stormopt import cli, oracles, subproblem, variants
from workloads import WORKLOADS

TINY = {
    "profile-grid": {"budget_mult": 20},
    "failure-sweep": {"budget": 300, "seeds_per_ps": 1, "ps_grid": (0.5, 1.0)},
    "logistic-train": {"n_samples": 3000, "n_features": 5},
}
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, attrs in TINY.items():
        for attr, value in attrs.items():
            monkeypatch.setattr(WORKLOADS[name], attr, value)
    # set-up probes run in a fresh interpreter, at full size: one is enough here
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def test_self_time_on_a_hand_built_tree():
    #  root [0,100] -> a [10,40], b [50,90] -> c [60,70];  d [0,5] runs outside
    names = ["root", "a", "b", "c", "d"]
    start = [0, 10, 50, 60, 200]
    end = [100, 40, 90, 70, 205]
    parent = [-1, 0, 0, 2, -1]
    totals = layer_totals(names, range(5), start, end, parent)
    assert {n: t["self_ns"] for n, t in totals.items()} == {
        "root": 30, "a": 30, "b": 30, "c": 10, "d": 5}
    assert totals["b"]["total_ns"] == 40
    kept = layer_totals(names, range(5), start, end, parent,
                        keep=[True, True, True, True, False])
    assert kept["d"]["calls"] == 0 and kept["root"]["self_ns"] == 30


def test_tracer_nesting_and_counts():
    tracer = Tracer()
    tracer.run_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("rows", 3)
    tracer.run_id = -1
    tracer.count("rows", 100)  # outside a solver run: not kept
    assert list(tracer.parent) == [-1, 0] and list(tracer.run) == [7, 7]
    assert tracer.counters == {"rows": 3}
    totals = tracer.layer_totals()
    assert totals["outer"]["self_ns"] + totals["inner"]["self_ns"] == totals["outer"]["total_ns"]


def test_tracing_restores_every_binding():
    dogleg, averaged = subproblem.dogleg, oracles.averaged_estimate
    before = (variants.fit_quadratic_set, cli.run_profile_cells,
              oracles.StochasticProblem.noisy_eval)
    with layers.traced(Tracer()):
        # bound as a keyword default and imported by name: both are wrapped
        assert variants.run_tr_saa.__kwdefaults__["solver"].__wrapped__ is dogleg
        assert variants.averaged_estimate.__wrapped__ is averaged
    after = (variants.fit_quadratic_set, cli.run_profile_cells,
             oracles.StochasticProblem.noisy_eval)
    assert all(a is b for a, b in zip(before, after))
    assert variants.run_tr_saa.__kwdefaults__["solver"] is dogleg
    assert variants.averaged_estimate is averaged


def test_per_cell_grid_equals_one_call_grid(tiny):
    grid = WORKLOADS["profile-grid"]
    specs = grid.build_inputs(0)[:3]
    rep = grid.run_rep(specs, seed=3, rep=1)
    assert not [p for r in rep.runs for p in r.problems]
    whole = cli.run_profile_cells(list(grid.solvers), specs, grid.noise, grid.sigma,
                                  grid.tau, grid.budget_mult, 1,
                                  seed0=3 * 10_000 + 1)
    assert rep.table == whole
    assert rep.table.to_csv() == whole.to_csv()


def test_benchmark_json_matches_the_metric_lists():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(declared)
    printed = {}
    for line in lines[1:-2]:
        name, value, unit = line.split()
        printed[name] = unit
    report = dict(run.END_TO_END) | {"failed_frac": "ratio"}
    report |= {"logistic-train": {"loss_final": "loss"}}.get(workload, {"solved_frac": "ratio"})
    if trace:
        report |= dict(run.PER_LAYER)
    assert printed == report
    extra = json.loads(lines[-2])
    assert extra["provenance"]["seed"] == 2 and extra["digest"]

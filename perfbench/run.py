#!/usr/bin/env python3
"""Seeded benchmark of the three stormopt experiments.

    python3 perfbench/run.py --workload profile-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from one extra traced repetition. Earlier lines print every metric
with its unit, the run counts, provenance and the result digest. See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "stormopt" / "__init__.py").is_file():
    sys.exit(f"error: no package at {SRC / 'stormopt'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from stormopt import _kernels  # noqa: E402

import layers  # noqa: E402
import micro  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120

# (name, unit) of every metric; BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("iter_us", "us"),
    ("run_ms_p50", "ms"), ("run_ms_p90", "ms"), ("peak_rss_mb", "MB"),
)
# Printed in the report but not in the last line: they exist on only some
# workloads (solved_frac, loss_final) or are 0 on a healthy run (failed_frac).
REPORT_ONLY = (("solved_frac", "ratio"), ("loss_final", "loss"), ("failed_frac", "ratio"))
_TIME_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
PER_LAYER = tuple(
    (metric, _TIME_UNITS[metric.rsplit(".", 1)[1]]) for metric, _, _ in layers.SPAN_METRICS
) + (
    ("oracles.evals_per_s", "1/s"), ("logistic.rows_touched", "count"),
    ("logistic.bytes_computed", "B"), ("engine.iterations", "count"),
    ("engine.accept_frac", "ratio"), ("models.geometry_flags", "count"),
    ("engine.evals_past_target_frac", "ratio"), ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
) + tuple(
    (f"micro.{case}.{kind}", unit)
    for case in ("quad_basis.66x10", "quad_basis.231x20", "logistic_sums.2000x10",
                 "logistic_sums.20000x50", "dogleg.n10")
    for kind, unit in (("us", "us"), ("flops", "count"), ("bytes", "B"))
)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def provenance(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_vendor(), "blas_threads": int(BLAS_THREADS),
            "kernels_backend": _kernels.BACKEND, "nproc": os.cpu_count(),
            "git_commit": git_commit(), "seed": seed}


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input building."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def measure(wl, inputs, seed: int, seconds: float) -> list:
    """Repetitions 0, 1, ... until ``seconds`` have passed (at least MIN_REPS).
    Only repetition 0 keeps its records: the rerun and the traced run compare
    against them."""
    reps = []
    t_end = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < t_end:
        reps.append(wl.run_rep(inputs, seed, len(reps)).close(keep_records=not reps))
    return reps


def p50_p90(times: list):
    if len(times) < 2:  # the quantiles need two runs
        return (times[0], times[0]) if times else (float("nan"), float("nan"))
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[8]


def middle_mean(values: list) -> float:
    """Mean of the middle half. On a shared machine whose speed comes in
    bursts, the plain median of a dozen repetitions jumps between the fast
    and the slow ones, and the plain mean follows a single stall."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.mean(values[cut:len(values) - cut])


def run_times_ms(reps: list) -> list:
    """Times of the trust-region solver runs that passed their checks."""
    return [r.seconds * 1e3 for rep in reps for r in rep.runs
            if r.trust_region and not r.problems]


def end_to_end(reps: list, setup_s: float) -> dict:
    runs = [r for rep in reps for r in rep.runs if not r.problems]
    p50, p90 = p50_p90(run_times_ms(reps))
    solved = [r.solved for r in runs if r.solved is not None]
    losses = [rep.loss_final for rep in reps if rep.loss_final is not None]
    out = {
        "setup_s": setup_s,
        "wall_s": middle_mean([rep.wall for rep in reps]),
        "iter_us": sum(rep.wall for rep in reps) / max(1, sum(rep.iterations for rep in reps)) * 1e6,
        "run_ms_p50": p50,
        "run_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if solved:
        out["solved_frac"] = sum(solved) / len(solved)
    if losses:
        out["loss_final"] = float(statistics.median(losses))
    return out


def failures(rep, what: str) -> list:
    return [f"{what} {r.label}: {p}" for r in rep.runs for p in r.problems]


def records_equal(a, b) -> bool:
    return len(a.runs) == len(b.runs) and all(x.record == y.record
                                              for x, y in zip(a.runs, b.runs))


def digest_check(workload: str, seed: int, digest: dict) -> str:
    reference = json.loads((HERE / "reference_digests.json").read_text())
    want = reference.get(workload, {}).get(str(seed))
    if want is None:
        return "no reference for this seed"
    return "match" if want == digest else "MISMATCH"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]

    setup_s = setup_seconds(wl.name, args.seed)
    inputs = wl.build_inputs(args.seed)
    reps = measure(wl, inputs, args.seed, args.seconds)
    problems = [p for i, rep in enumerate(reps) for p in failures(rep, f"rep {i}")]
    attempted = sum(len(rep.runs) for rep in reps)
    failed = sum(bool(r.problems) for rep in reps for r in rep.runs)

    # bit-identical rerun of the first run of repetition 0
    again = wl.run_rep(inputs, args.seed, 0, first_only=True)
    attempted += 1
    if again.runs[0].problems or again.runs[0].record != reps[0].runs[0].record:
        failed += 1
        problems.append(f"rerun of {again.runs[0].label} failed a check or differs from its first run")

    metrics = end_to_end(reps, setup_s)
    units = dict(END_TO_END + REPORT_ONLY)
    if args.trace:
        tracer = Tracer()
        with layers.traced(tracer):
            traced = wl.run_rep(inputs, args.seed, 0, tracer=tracer)
        attempted += len(traced.runs)
        failed += sum(bool(r.problems) for r in traced.runs)
        problems += failures(traced, "traced")
        if not records_equal(traced, reps[0]):
            failed += 1
            problems.append("traced repetition 0 differs from the untraced one")
        missing = layers.missing_spans(tracer, wl.expected_spans)
        if missing:
            problems.append(f"expected spans with no calls: {', '.join(missing)}")
        metrics.update(layers.layer_metrics(tracer, traced))
        metrics["trace.overhead_frac"] = traced.wall / reps[0].wall - 1.0
        metrics.update(micro.micro_metrics(args.seed))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_csv(out_dir / f"spans-{wl.name}-seed{args.seed}.csv")
        units.update(PER_LAYER)
        declared = PER_LAYER
    else:
        declared = END_TO_END

    metrics["failed_frac"] = failed / attempted
    times = run_times_ms(reps)
    beyond = sum(t > metrics["run_ms_p90"] for t in times)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed}: {len(reps)} repetitions, "
          f"{len(times)} trust-region runs ({beyond} beyond p90), attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {units[name]}")
    digest = reps[0].result
    print(json.dumps({"provenance": provenance(args.seed), "digest": digest,
                      "digest_reference": digest_check(wl.name, args.seed, digest)}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write reference_digests.json: the repetition-0 digest of every workload for
seeds 1 to 10, at the current commit.

    python3 perfbench/make_reference.py

``run.py`` compares a run's digest with this file when its seed is listed.
"""

import json
import sys

import run  # sets the BLAS thread count and puts src/ on the path
from workloads import WORKLOADS

SEEDS = range(1, 11)


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        for seed in SEEDS:
            rep = wl.run_rep(wl.build_inputs(seed), seed, 0)
            problems = run.failures(rep, f"{name} seed {seed}")
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = rep.result
    # one line per (workload, seed), so a later diff shows which digests moved
    body = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(d, sort_keys=True)}"
                      for seed, d in seeds.items())
        + "\n }"
        for name, seeds in reference.items())
    (run.HERE / "reference_digests.json").write_text("{\n" + body + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

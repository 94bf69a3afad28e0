"""One set-up sample: import the package and build one workload's inputs in a
fresh interpreter, and print the seconds that took.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` starts this a few times, one after another, and reports the
median as ``setup_s``. Interpreter start-up itself is not counted.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports stormopt)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].build_inputs(seed)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()

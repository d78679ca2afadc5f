"""Time one workload's set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of this script to the end of the
workload's set-up: importing numpy and legladder, and building the objects
reused across operations. run.py starts several of these and reports the
median as setup_s.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    harness.use_checkout_source()
    workloads.get(name).setup(seed)
    print(f"{time.perf_counter() - START!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of the searn package, driven through its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload parse-unsup --seed 0 \
        --seconds 40 --trace 0

Prints a table of every metric with its unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced repetition follows two untraced ones and the metrics are the
per-layer ones.  Exits 2 without a result when the checkout holds no
searn sources.
"""

import os

# numpy links a threaded OpenBLAS; pin it to one thread before any import
# of numpy so timings do not depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = harness.run_workload(ROOT, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in harness.report_lines(args.workload, args.seed, result):
        print(line)
    print(json.dumps(harness.result_record(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

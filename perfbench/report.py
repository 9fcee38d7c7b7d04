"""Run every workload once and print all its metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace 0]

For each workload this prints every metric that applies to it (with
``--trace 0`` the end-to-end ones, including those that only some workloads
have, such as ``eval_s`` and ``probe_acc``), with its unit and sample count.
It exits with code 1 when any correctness check of any workload failed.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ok = True
    for name in run.WORKLOADS:
        record = run.bench(run.WORKLOADS[name], args.seed, args.seconds,
                           args.trace)
        run.print_record(record)
        ok = ok and record["correct"]
    print("all correctness checks passed" if ok
          else "FAILED: at least one correctness check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

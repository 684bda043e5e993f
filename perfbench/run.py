#!/usr/bin/env python3
"""Streaming-engine benchmark.

    python3 perfbench/run.py --workload slide_energy --seed 1 \
        --seconds 24 --trace 0
    python3 perfbench/run.py --smoke      # every workload tiny, checker self-test

One process generates the workload's input from ``--seed``, frames it
into parquet-fragment epochs and replays it, closed loop, through a
persistent ``StreamEngine`` pool (2 logical CPUs, 2 partitions) in whole
rounds until ``--seconds`` of timed engine work have run.  Every round's
sink output is checked against a computation made apart from the
engine.  The last stdout line is the result JSON; the line before it
records the host, the checks and the disk use.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size relative to the benchmark's (smoke: 0.125)")
    ap.add_argument("--self-test", action="store_true",
                    help="also check that corrupted outputs fail the checks")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload tiny, from another directory")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [HERE, ROOT]
    try:
        import parallel_dataflow_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    import runner

    if args.smoke:
        return runner.smoke()
    if args.workload not in runner.WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(runner.WORKLOADS)}",
              file=sys.stderr)
        return 2
    return runner.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Runs one qflake benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0

Run it from the root of a qflake checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced pass with ``--trace 1``. The line before it holds the
details: environment, run.json digest, failed share and any problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS reads its thread count when numpy is first imported. One thread:
# on the 2-core machine this benchmark was defined on, OpenBLAS with two
# threads ran the SVD of a 390 x 1116 training matrix 10-50x slower than
# with one, and unsteadily, so thread contention would swamp the work.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qflake benchmark")
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "qflake" / "__init__.py").is_file():
        print(f"perfbench: no qflake sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(workloads.WORKLOADS)}")
    report = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, BLAS_THREADS
    )
    print(json.dumps(report.detail, sort_keys=True))
    print(json.dumps(report.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The sagt benchmark: certified ops per second on one workload.

    python3 perfbench/run.py --workload single-sector|multi-sector|cost-curves
                             --seed N --seconds S --trace 0|1

One client in a closed loop calls the public API, one op after another,
and checks every answer.  With --trace 0 it runs whole rounds of the
workload until S seconds have passed and prints the end-to-end metrics;
with --trace 1 it runs a fixed number of rounds with the tracer on, as
many with it off, and prints the per-layer metrics.  Readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
environment block, goes to perfbench/out/.

Exit codes: 0 when the run completed (failed ops are reported, not
fatal), 2 when the checkout holds no sagt sources, 1 on any other error.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single-sector", "multi-sector", "cost-curves")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--inject-bad", action="store_true", help="add two ops that must count as failed"
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sagt" / "__init__.py").is_file():
        print(f"run.py: no sagt sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread (never more than nproc): the load is a single process
    # and its 8x8 problems gain nothing from more; must precede numpy
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import sagt

    if not Path(sagt.__file__).resolve().is_relative_to(src.resolve()):
        print(f"run.py: sagt imported from {sagt.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    bench.report(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the time and the minor page faults of a transport miss, for comparing two trees.

    python3 tools/miss_timing.py

A transport miss is the work of one uncached evolution._transports call:
the per-spin products of a rung's passes, their chain, the 4x4 blocks at
its checkpoints and the per-spin (alpha, beta) there, one entry.  Each row
is a rung of 2,000 x 2^k steps, k = 0..4, on the trigonometric drive at
tau*omega = 20 (omega = 1), bare (adiabatic) and dressed (superadiabatic).  The rung's plan and pass terms
are cached first, since neither depends on tau or omega, so the row
measures what a new duration pays.  After WARMUP misses the row times
REPEATS more, one by one, and prints the best in microseconds and the
minor page faults (getrusage ru_minflt) per miss over those REPEATS.  A
steady loop that reuses freed memory reads under one fault per miss.  The
rows run in one process in the order printed, and a row's faults depend on
what ran before it: glibc serves an array at least as large as the largest
it has freed so far from fresh pages.
Runs on one BLAS thread.  Imports sagt from the src/ directory next to
this script, so a copy of the script in another checkout measures that
checkout.  Takes no options.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import sagt  # noqa: E402
from sagt import evolution  # noqa: E402

STEPS = tuple(2000 * 2**k for k in range(5))
TAU = 20.0
WARMUP = 3
REPEATS = 20


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main():
    schedule = sagt.builtin_schedule("trigonometric")
    print(f"{'steps':>6} {'drive':>7} {'best_us':>9} {'faults/miss':>11}")
    for steps in STEPS:
        for drive, family_tau in (("bare", None), ("dressed", TAU)):
            args = (schedule, 1.0, family_tau, TAU, steps)
            for _ in range(WARMUP):
                evolution._transports.__wrapped__(*args)
            best, faults = float("inf"), minor_faults()
            for _ in range(REPEATS):
                start = time.perf_counter()
                evolution._transports.__wrapped__(*args)
                best = min(best, time.perf_counter() - start)
            faults = (minor_faults() - faults) / REPEATS
            print(f"{steps:>6} {drive:>7} {best * 1e6:>9.1f} {faults:>11.1f}")


if __name__ == "__main__":
    main()

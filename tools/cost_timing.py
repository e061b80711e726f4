"""Print the time of each cost-curves op class, for comparing two trees.

    python3 tools/cost_timing.py

The rows are the direct-route classes of the cost-curves benchmark on the
exponential drive (omega = 1): cost_numeric on a plain and on an
output-rotated superadiabatic sector (a Haar random SU(2) from a fixed
seed) and cost_multi on two sectors, each at tau*omega = 10, where the
quadrature settles at 128 intervals (129 nodes), and at tau*omega = 1,
where it settles at 256 (257 nodes); then one 50-point `sagt cost-sweep`
of the three built-in schedules through cli.main, log-spaced over
tau*omega in [0.1, 1000].  After WARMUP calls each row times REPEATS more,
one by one, and prints the best in microseconds.  Runs on one BLAS
thread.  Imports sagt from the src/ directory next to this script, so a
copy of the script in another checkout measures that checkout.  Takes no
options.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import sagt  # noqa: E402
from sagt import cli  # noqa: E402

NODES = {129: 10.0, 257: 1.0}  # quadrature nodes -> tau*omega
SWEEP = ["cost-sweep", "--schedules", "linear,trig,exp", "--points", "50", "--log",
         "--tau-min", "0.1", "--tau-max", "1000"]
WARMUP = 3
REPEATS = 50


def direct(route, schedule, tau_omega, gate):
    if route == "two-sector":
        return lambda: sagt.cost_multi(2, schedule, tau_omega)
    base = sagt.single_sector_family(1.0, schedule)
    if route == "rotated":
        base = sagt.rotate_family(base, sagt.embed_on_outputs(gate, 1))
    family = sagt.superadiabatic_family(base, tau_omega)
    return lambda: sagt.cost_numeric(family)


def sweep():
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(SWEEP) != 0:
            raise RuntimeError("cost-sweep failed")


def best_us(op):
    for _ in range(WARMUP):
        op()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        op()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def main():
    schedule = sagt.builtin_schedule("exponential")
    gate = sagt.random_unitary(2, np.random.default_rng(7))
    print(f"{'op':>10} {'nodes':>5} {'best_us':>9}")
    for route in ("plain", "rotated", "two-sector"):
        for nodes, tau_omega in NODES.items():
            us = best_us(direct(route, schedule, tau_omega, gate))
            print(f"{route:>10} {nodes:>5} {us:>9.1f}")
    print(f"{'sweep':>10} {'-':>5} {best_us(sweep):>9.1f}")


if __name__ == "__main__":
    main()

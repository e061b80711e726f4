"""Print every cost of a fixed matrix, for comparing two trees.

    python3 tools/cost_matrix.py > costs.txt

Covers the three built-in schedules x tau*omega in {0.1, 0.37, 1, 3.3, 10,
100} x the direct routes of the cost-curves benchmark: cost_numeric on a
plain and on an output-rotated superadiabatic sector (a Haar random SU(2)
from a seed fixed by the row's position) and cost_multi on two sectors.
Each row also prints the closed form at its tau*omega; each schedule adds
the bare drive's direct and closed-form costs, cost_multi on three sectors
(one node per padded chunk) at each tau*omega in THREE_SECTOR_TAU_OMEGAS,
its cost_sweep on the default grid and its cost_sweep on REPEATED_GRID,
which holds each of its tau*omega values more than once.  Every cost is printed as its repr, one per line, so a diff
of two outputs shows every bit that moved.  Imports sagt from the src/
directory next to this script, so a copy of the script in another checkout
measures that checkout.  Takes no options.
"""

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import sagt  # noqa: E402
from sagt.schedules import BUILTIN_KINDS  # noqa: E402

TAU_OMEGAS = (0.1, 0.37, 1.0, 3.3, 10.0, 100.0)
ROUTES = ("plain", "rotated", "two-sector")
THREE_SECTOR_TAU_OMEGAS = (0.3, 10.0)
REPEATED_GRID = (0.3, 2.0, 0.3, 1e3, 2.0, 0.3)


def direct(route, schedule, tau_omega, seed):
    if route == "two-sector":
        return sagt.cost_multi(2, schedule, tau_omega)
    base = sagt.single_sector_family(1.0, schedule)
    if route == "rotated":
        gate = sagt.random_unitary(2, np.random.default_rng(seed))
        base = sagt.rotate_family(base, sagt.embed_on_outputs(gate, 1))
    return sagt.cost_numeric(sagt.superadiabatic_family(base, tau_omega))


def main():
    cases = itertools.product(BUILTIN_KINDS, TAU_OMEGAS, ROUTES)
    for seed, (kind, tau_omega, route) in enumerate(cases):
        schedule = sagt.builtin_schedule(kind)
        value = direct(route, schedule, tau_omega, seed)
        print(f"{kind} {tau_omega!r} {route} direct {value!r}")
        if route == ROUTES[-1]:
            closed = sagt.cost_closed_form(schedule, tau_omega)
            print(f"{kind} {tau_omega!r} closed-form {closed!r}")
    for kind in BUILTIN_KINDS:
        schedule = sagt.builtin_schedule(kind)
        bare = sagt.cost_numeric(sagt.single_sector_family(1.0, schedule))
        print(f"{kind} bare direct {bare!r}")
        print(f"{kind} bare closed-form {sagt.adiabatic_cost(schedule)!r}")
        for tau_omega in THREE_SECTOR_TAU_OMEGAS:
            value = sagt.cost_multi(3, schedule, tau_omega)
            print(f"{kind} {tau_omega!r} three-sector direct {value!r}")
        for grid, label in ((None, "sweep"), (REPEATED_GRID, "repeated-sweep")):
            for report in sagt.cost_sweep([schedule], grid):
                for tau_omega, value in report.grid:
                    print(f"{kind} {label} {report.mode} {tau_omega!r} {value!r}")
                print(f"{kind} {label} {report.mode} quadrature "
                      f"{report.quadrature_points!r} {report.quadrature_defect!r}")


if __name__ == "__main__":
    main()

"""Print the RunRecord of every run of a fixed matrix, for comparing two trees.

    python3 tools/record_matrix.py > records.json

Runs n in {1, 2, 3} x the three built-in schedules x both modes x
tau*omega in {0.1, 1, 20} x {state teleport, gate teleport of a Haar
random SU(2^n)}, 108 runs from 500 initial steps.  Each run draws its
input state (and gate) from its own seed, fixed by its position in the
matrix.  Every RunRecord field is printed as its repr, so a diff of two
outputs shows every bit that moved.  Imports sagt from the src/ directory
next to this script, so a copy of the script in another checkout measures
that checkout.  Takes no options.
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import sagt  # noqa: E402
from sagt.model import MODES  # noqa: E402
from sagt.schedules import BUILTIN_KINDS  # noqa: E402

SECTORS = (1, 2, 3)
TAU_OMEGAS = (0.1, 1.0, 20.0)
KINDS = ("state", "gate")
STEPS = 500


def main():
    cases = itertools.product(SECTORS, BUILTIN_KINDS, MODES, TAU_OMEGAS, KINDS)
    rows = []
    for seed, (n, schedule, mode, tau_omega, kind) in enumerate(cases):
        rng = np.random.default_rng(seed)
        psi_in = sagt.random_state(2**n, rng)
        run_args = (sagt.builtin_schedule(schedule), tau_omega, mode, psi_in)
        if kind == "state":
            record = sagt.run_state_teleport(n, *run_args, steps=STEPS)
        else:
            gate = sagt.random_unitary(2**n, rng)
            record = sagt.run_gate_teleport(gate, *run_args, steps=STEPS)
        fields = {f.name: repr(getattr(record, f.name)) for f in dataclasses.fields(record)}
        case = {"n": n, "schedule": schedule, "mode": mode, "tau_omega": tau_omega,
                "kind": kind, "seed": seed}
        rows.append({"case": case, "record": fields})
    json.dump(rows, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

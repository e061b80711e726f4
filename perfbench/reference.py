"""Frozen reference fidelities for adiabatic teleports.

An adiabatic run is not exact, so its fidelity cannot be checked against 1.
It can be checked against the sector's output map instead.  All sectors of
a register share one 8x8 propagator U, and a gate G loaded through the
output rotation R cancels out of the fidelity: the final state is
R U^(x n) init(psi) and the target is R target(psi).  So for any n, gate
and input

    F = |psi^dag (m (x) ... (x) m) psi|^2,   m_ij = <Bell, e_i| U |e_j, Bell>,

where the 2x2 map m depends only on the schedule and tau*omega.

`python3 perfbench/reference.py` computes m on Chebyshev nodes across the
jittered tau*omega range of every adiabatic configuration the workloads
use, and writes it to reference_adiabatic.json.  The propagator is built
here, not through sagt.evolution: the drive -(eta_i A + eta_f B) is
assembled from Pauli products, the exponential-midpoint product is taken
at 2^15 and 2^16 steps, and the two are Richardson-combined (the rule is
time-symmetric, so its error is even in dt).  Only the schedule weights
come from the package.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TABLE_PATH = HERE / "reference_adiabatic.json"

SCHEDULES = ("linear", "trigonometric", "exponential")
TAU_LEVELS = (0.1, 1.0, 20.0)
JITTER = 0.01  # relative half-width of the tau*omega jitter
NODES = 9
STEPS = 2**15


def _drive_terms():
    i2 = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])

    def kron3(a, b, c):
        return np.kron(np.kron(a, b), c)

    a = kron3(i2, x, x) + kron3(i2, z, z)
    b = kron3(x, x, i2) + kron3(z, z, i2)
    return a, b


def _sector_propagator(schedule, tau, steps):
    a, b = _drive_terms()
    s = (np.arange(steps) + 0.5) / steps
    ei = np.asarray(schedule.eta_i(s), dtype=float)
    ef = np.asarray(schedule.eta_f(s), dtype=float)
    h = -(ei[:, None, None] * a + ef[:, None, None] * b)
    w, v = np.linalg.eigh(h)
    u = np.einsum("kij,kj,klj->kil", v, np.exp(-1j * w * (tau / steps)), v)
    while len(u) > 1:  # steps is a power of two: u[-1] ... u[1] u[0]
        u = u[1::2] @ u[0::2]
    return u[0]


def output_map(schedule, tau):
    """The 2x2 map m(tau) of one adiabatic sector, Richardson-extrapolated."""
    coarse = _sector_propagator(schedule, tau, STEPS)
    fine = _sector_propagator(schedule, tau, 2 * STEPS)
    u = (4.0 * fine - coarse) / 3.0
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    basis = np.eye(2)
    init = [np.kron(basis[j], bell) for j in range(2)]  # input, resource pair
    tgt = [np.kron(bell, basis[i]) for i in range(2)]  # Bell pair, output
    return np.array([[tgt[i] @ u @ init[j] for j in range(2)] for i in range(2)])


def chebyshev_nodes(level):
    k = np.arange(NODES)
    x = np.cos((2 * k + 1) * math.pi / (2 * NODES))
    return level * (1.0 + JITTER * x)


def _interpolate(nodes, values, tau):
    """Barycentric interpolation on first-kind Chebyshev nodes."""
    k = np.arange(len(nodes))
    weights = (-1.0) ** k * np.sin((2 * k + 1) * math.pi / (2 * len(nodes)))
    diff = tau - nodes
    hit = np.flatnonzero(diff == 0.0)
    if hit.size:
        return values[hit[0]]
    c = weights / diff
    return np.tensordot(c, values, axes=1) / c.sum()


class ReferenceTable:
    """Frozen output maps, keyed by (schedule name, tau*omega level)."""

    def __init__(self, path=TABLE_PATH):
        data = json.loads(Path(path).read_text())
        self.jitter = data["jitter"]
        self.maps = {}
        for entry in data["tables"]:
            values = np.array(entry["m_re"]) + 1j * np.array(entry["m_im"])
            key = (entry["schedule"], entry["level"])
            self.maps[key] = (np.array(entry["tau"]), values)

    def fidelity(self, schedule, level, tau, psi):
        nodes, values = self.maps[(schedule, level)]
        if abs(tau / level - 1.0) > self.jitter * (1 + 1e-12):
            raise ValueError(f"tau*omega {tau} outside the frozen range of {level}")
        m = _interpolate(nodes, values, tau)
        psi = np.asarray(psi, dtype=complex).ravel()
        psi = psi / np.linalg.norm(psi)
        full = m
        while full.shape[0] < psi.size:
            full = np.kron(full, m)
        return float(abs(np.vdot(psi, full @ psi)) ** 2)


def build():
    from sagt.schedules import builtin_schedule

    tables = []
    worst = 0.0
    for kind in SCHEDULES:
        schedule = builtin_schedule(kind)
        for level in TAU_LEVELS:
            nodes = chebyshev_nodes(level)
            values = np.array([output_map(schedule, t) for t in nodes])
            # interpolation check at two off-node points of the range
            for t in (level * (1 - 0.7 * JITTER), level * (1 + 0.33 * JITTER)):
                err = np.abs(_interpolate(nodes, values, t) - output_map(schedule, t))
                worst = max(worst, float(err.max()))
            tables.append(
                {
                    "schedule": kind,
                    "level": level,
                    "tau": nodes.tolist(),
                    "m_re": values.real.tolist(),
                    "m_im": values.imag.tolist(),
                }
            )
            print(f"{kind} tau*omega={level}: done", file=sys.stderr)
    return {
        "what": "2x2 adiabatic sector output maps m(tau*omega) on Chebyshev nodes",
        "steps": [STEPS, 2 * STEPS],
        "jitter": JITTER,
        "nodes": NODES,
        "max_interpolation_error": worst,
        "tables": tables,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    TABLE_PATH.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {TABLE_PATH.name}", file=sys.stderr)

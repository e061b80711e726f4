"""The three workloads: seeded op lists and the check every op must pass.

An op is one certified answer: a whole teleport run (the step-doubling
ladder included) or one cost evaluation.  A workload is an endless series
of rounds; round r of seed s is drawn from its own random stream, so the
same (seed, round) always gives the same ops.  Every round of a workload
has the same composition -- only inputs, gates, the tau*omega jitter and
the op order change -- so a run that covers whole rounds measures the same
mix whatever the seed and however many rounds fit in it.
"""

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import sagt
from sagt import cli
from reference import JITTER

SCHEDULES = ("linear", "trigonometric", "exponential")
MODES = ("superadiabatic", "adiabatic")
TAU_LEVELS = (0.1, 1.0, 20.0)
INPUTS_PER_CONFIG = 4  # single-sector: 3 of every 4 ops reuse a configuration
MULTI_KINDS = {2: ("state", "cnot", "cz", "random-su"), 3: ("state", "toffoli", "random-su")}
SWEEP_SCHEDULES = "linear,trig,exp"
COST_TAU_LEVELS = (0.1, 1.0, 10.0, 100.0)

FIDELITY_TOL = 1e-6
PARITY_TOL = 1e-8
COST_RTOL = 1e-6


@dataclass
class Op:
    """One op: `run()` is the timed call, `check(output)` returns a failure
    reason or None, and `key` names the configuration whose generator the
    op uses (ops with equal keys could share cached work)."""

    label: str
    key: tuple
    run: Callable
    check: Callable


def _jittered(rng, level):
    return level * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _random_su(rng, dim):
    g = sagt.random_unitary(dim, rng)
    return g / np.linalg.det(g) ** (1.0 / dim)


# ---------------------------------------------------------------------------
# teleport ops


def _teleport_check(reference, schedule, mode, level, tau, psi):
    def check(rec):
        if not rec.accepted:
            return f"ladder not accepted (defect {rec.convergence_defect:.2e})"
        if not rec.parity_drift <= PARITY_TOL:
            return f"parity drift {rec.parity_drift:.2e}"
        if mode == "superadiabatic":
            want = 1.0
            ok = rec.fidelity >= want - FIDELITY_TOL
        else:
            want = reference.fidelity(schedule, level, tau, psi)
            ok = abs(rec.fidelity - want) <= FIDELITY_TOL
        return None if ok else f"fidelity {rec.fidelity!r}, want {want!r}"

    return check


def teleport_op(reference, n, kind, mode, level, tau, psi, gate=None, gate_label=None):
    """A state teleport (gate None) or a gate teleport on schedule `kind`."""
    schedule = sagt.builtin_schedule(kind)

    def run():
        if gate is None:
            return sagt.run_state_teleport(n, schedule, tau, mode, psi)
        return sagt.run_gate_teleport(gate, schedule, tau, mode, psi)

    if gate is None:
        label, key = f"state n={n}", ("state", n, kind, mode, tau)
    else:
        label, key = f"gate {gate_label} n={n}", ("gate", n, gate_label, kind, mode, tau)
    return Op(
        label=f"{label} {kind} {mode} tau*omega~{level}",
        key=key,
        run=run,
        check=_teleport_check(reference, kind, mode, level, tau, psi),
    )


def single_sector_round(rng, reference, tiny=False):
    """n = 1, every schedule x mode x tau*omega level; each configuration
    runs with INPUTS_PER_CONFIG seeded inputs."""
    ops = []
    for kind in SCHEDULES[:1] if tiny else SCHEDULES:
        for mode in MODES:
            for level in TAU_LEVELS[:1] if tiny else TAU_LEVELS:
                tau = _jittered(rng, level)
                for _ in range(2 if tiny else INPUTS_PER_CONFIG):
                    psi = sagt.random_state(2, rng)
                    ops.append(teleport_op(reference, 1, kind, mode, level, tau, psi))
    return ops


def multi_sector_round(rng, reference, tiny=False):
    """n in {2, 3} x mode x tau*omega level on the trigonometric drive, one
    op per class.  Whether a class runs a state teleport or which gate it
    teleports is fixed by the class: the kinds are dealt out over the
    classes in turn.  Each op gets its own tau*omega, input and random
    gate."""
    ops = []
    for n in (2,) if tiny else (2, 3):
        kinds = MULTI_KINDS[n]
        classes = [(mode, level) for mode in MODES for level in TAU_LEVELS[: 1 if tiny else 3]]
        for c, (mode, level) in enumerate(classes):
            which = kinds[c % len(kinds)]
            tau = _jittered(rng, level)
            psi = sagt.random_state(2**n, rng)
            if which == "state":
                gate = None
            elif which == "random-su":
                gate = _random_su(rng, 2**n)
            else:
                gate = which
            ops.append(
                teleport_op(reference, n, "trigonometric", mode, level, tau, psi, gate, which)
            )
    return ops


# ---------------------------------------------------------------------------
# cost ops


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sweep_check(points):
    def check(output):
        code, text = output
        if code != 0:
            return f"cost-sweep exit code {code}"
        curves = {}
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("schedule,"):
                continue
            name, mode, tau, cost = line.split(",")
            curves.setdefault((name, mode), []).append((float(tau), float(cost)))
        if len(curves) != 2 * len(SCHEDULES) or any(
            len(c) != points for c in curves.values()
        ):
            return f"cost-sweep printed {len(curves)} curves of the wrong length"
        for name in SCHEDULES:
            flat = [c for _, c in curves[(name, "adiabatic")]]
            curve = curves[(name, "superadiabatic")]
            costs = [c for _, c in curve]
            # criterion 8: nonincreasing, above the adiabatic constant, within
            # 1% of it at tau*omega >= 1e3
            if any(a < b - 1e-12 for a, b in zip(costs, costs[1:])):
                return f"{name}: cost curve increases"
            if any(c < f - 1e-12 for c, f in zip(costs, flat)):
                return f"{name}: cost curve dips below its adiabatic constant"
            if curve[-1][0] >= 1e3 and costs[-1] > flat[-1] * 1.01:
                return f"{name}: cost not within 1% of adiabatic at tau*omega >= 1e3"
            # closed-form route at the curve's middle point
            tau, got = curve[points // 2]
            want = sagt.cost_closed_form(sagt.builtin_schedule(name), tau)
            if abs(got - want) > COST_RTOL * want:
                return f"{name}: sweep {got!r} vs closed form {want!r} at {tau!r}"
        # criterion 8: the linear schedule loses the lead somewhere at
        # tau*omega <= 1
        fast = {s: [c for t, c in curves[(s, "superadiabatic")] if t <= 1.0] for s in SCHEDULES}
        if all(
            fast["linear"][i] == min(fast[s][i] for s in SCHEDULES)
            for i in range(len(fast["linear"]))
        ):
            return "linear schedule is cheapest at every tau*omega <= 1"
        return None

    return check


def sweep_op(rng):
    """`sagt cost-sweep` on a seeded log grid from below 0.2 to past 1e3.

    At least 30 points keep the grid ratio under 1.45, so some point falls
    in (0.69, 1], past the tau*omega ~ 0.6 where linear loses the lead."""
    points = int(rng.integers(30, 61))
    tau_min = float(np.exp(rng.uniform(np.log(0.05), np.log(0.2))))
    tau_max = float(np.exp(rng.uniform(np.log(1e3), np.log(2e3))))
    argv = [
        "cost-sweep", "--schedules", SWEEP_SCHEDULES, "--points", str(points),
        "--log", "--tau-min", repr(tau_min), "--tau-max", repr(tau_max),
    ]
    return Op(
        label=f"cost-sweep {points} points",
        key=("sweep", points, tau_min, tau_max),
        run=lambda: _run_cli(argv),
        check=_sweep_check(points),
    )


def direct_op(rng, route, kind, level):
    """Direct-route cost (Frobenius quadrature of the assembled matrix) on a
    plain or output-rotated superadiabatic sector, or on two sectors;
    checked against the closed form times g_n."""
    tau = _jittered(rng, level)
    schedule = sagt.builtin_schedule(kind)
    n = 2 if route == "multi" else 1
    g = sagt.embed_on_outputs(_random_su(rng, 2), 1) if route == "rotated" else None

    def run():
        if route == "multi":
            return sagt.cost_multi(2, schedule, tau)
        base = sagt.single_sector_family(1.0, schedule)
        if g is not None:
            base = sagt.rotate_family(base, g)
        return sagt.cost_numeric(sagt.superadiabatic_family(base, tau))

    def check(value):
        want = sagt.cost_closed_form(schedule, tau) * sagt.cost_scaling(n)
        if abs(value - want) <= COST_RTOL * want:
            return None
        return f"direct cost {value!r} vs closed form x g_{n} {want!r}"

    return Op(
        label=f"cost {route} {kind}",
        key=("cost", route, kind, tau),
        run=run,
        check=check,
    )


def cost_curves_round(rng, reference=None, tiny=False):
    """Three cost sweeps with the direct-route ops between them: every route
    x schedule once per round.  The quadrature refines further at some
    tau*omega than at others, so the COST_TAU_LEVELS are dealt out over the
    (route, schedule) classes in turn, each class keeping its level."""
    ops = [sweep_op(rng) for _ in range(1 if tiny else 3)]
    classes = [(route, kind) for kind in SCHEDULES[: 1 if tiny else 3]
               for route in ("plain", "rotated", "multi")]
    for c, (route, kind) in enumerate(classes):
        level = COST_TAU_LEVELS[c % len(COST_TAU_LEVELS)]
        ops.append(direct_op(rng, route, kind, level))
    return ops


# ---------------------------------------------------------------------------


def injected_bad_ops(reference):
    """Two ops that must be counted as failed: one raises, one comes back
    uncertified (a step budget too small for the ladder to converge)."""
    schedule = sagt.builtin_schedule("linear")
    psi = np.array([1.0, 0.0])
    bad_mode = teleport_op(reference, 1, "linear", "superadiabatic", 1.0, 1.0, psi)
    bad_mode.label, bad_mode.key = "injected: unknown mode", ("injected", 1)
    bad_mode.run = lambda: sagt.run_state_teleport(1, schedule, 1.0, "no-such-mode", psi)
    starved = teleport_op(reference, 1, "linear", "superadiabatic", 1.0, 1.0, psi)
    starved.label, starved.key = "injected: starved ladder", ("injected", 2)
    starved.run = lambda: sagt.run_state_teleport(
        1, schedule, 1.0, "superadiabatic", psi, steps=1, max_steps=2
    )
    return [bad_mode, starved]


ROUNDS = {
    "single-sector": single_sector_round,
    "multi-sector": multi_sector_round,
    "cost-curves": cost_curves_round,
}

# fixed tail percentile per workload: the highest that leaves at least ten
# ops beyond it at this workload's op count per run and does not sit on the
# edge between two op classes, where it would jump between them from run to
# run.  Single-sector: p90 is on the edge of trigonometric adiabatic ops at
# tau*omega >= 1 (11% of the mix), so p85.  Cost-curves (240-300 ops a run):
# p95 falls inside the slowest class, two-sector exponential quadratures
# (1/12 of the mix).  Multi-sector runs 24 ops, so p58 leaves ten beyond it.
TAIL_PERCENTILE = {"single-sector": 85, "multi-sector": 58, "cost-curves": 95}

WARMUP_ROUND = 2**32

# rounds a traced run covers with tracing on (and again with it off)
TRACE_ROUNDS = {"single-sector": 1, "multi-sector": 1, "cost-curves": 10}


def make_round(workload, seed, index, reference, tiny=False):
    """The seeded, shuffled op list of one round."""
    rng = np.random.default_rng([seed, index])
    ops = ROUNDS[workload](rng, reference, tiny)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warmup_ops(workload, reference):
    """Untimed ops that load every code path before measuring; drawn from a
    stream no measured round uses."""
    return make_round(workload, 0, WARMUP_ROUND, reference, tiny=True)

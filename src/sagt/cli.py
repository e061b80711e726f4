"""Command-line front end: teleportation runs, cost sweeps, self-checks.

state-teleport and gate-teleport are one command, cmd_teleport: a gate
teleport is a state teleport with a gate, and the library's run checks
the gate against --n.  Outputs are deterministic for a fixed command line
(seeded randomness, repr-formatted floats; a record's seed is null unless
something was drawn) and land on disk atomically via a temp-file rename.
Exit codes: 0 success, 1 usage or input errors (argparse's usage line and
reason, or one "sagt: error:" line), 2 verification failure (a failed
self-check, or a run whose convergence ladder did not accept).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .cost import cost_multi, cost_scaling, cost_sweep, cost_closed_form
from .counterdiabatic import assembled_register_cd
from .evolution import DEFAULT_STEPS, run_gate_teleport, run_state_teleport
from .model import (
    GATE_NAMES,
    MODES,
    _unit_and_norm,
    embed_on_outputs,
    gate_width,
    multi_sector_family,
    named_gate,
    parity,
    require_sectors,
    rotate_family,
    superadiabatic_family,
)
from .operators import random_state, random_unitary, require_positive
from .schedules import BUILTIN_KINDS, builtin_schedule
from .spectral import MINUS_BASIS, PLUS_BASIS, embed_blocks

SCHEDULE_ALIASES = {"trig": "trigonometric", "exp": "exponential"}


def _schedule(token):
    return builtin_schedule(SCHEDULE_ALIASES.get(token, token))


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_unitary(path):
    """Read a unitary from CSV whose cells are 're im' float pairs."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = []
            for cell in line.split(","):
                try:
                    re, im = map(float, cell.split())
                except ValueError:
                    want = "want 're im' floats"
                    raise ValueError(f"bad cell {cell!r} in {path}: {want}") from None
                row.append(complex(re, im))
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path} line {number}: {len(row)} cells, want {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    mat = np.array(rows, dtype=complex)
    try:
        gate_width(mat)
    except ValueError as exc:
        raise ValueError(f"matrix in {path}: {exc}") from None
    return mat


def _amplitude(token):
    """One --amp token, re or re:im, as a complex number."""
    re, _, im = token.partition(":")
    try:
        return complex(float(re), float(im or 0.0))
    except ValueError:
        raise ValueError(f"psi_in: --amp token {token!r} is not re or re:im") from None


def _input_state(args, n):
    if args.amp is not None:
        psi = np.array([_amplitude(token) for token in args.amp.split(",")])
        norm = _unit_and_norm(psi)[1]
        if abs(norm - 1.0) > 1e-6:
            print(f"note: renormalizing input state (norm was {norm:.6g})", file=sys.stderr)
        return psi  # the run checks its size and norm, and normalizes it
    if args.random_state:
        return random_state(2**n, np.random.default_rng(args.seed))
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return psi


def _record_json(record, config):
    payload = {"version": __version__, "config": config, **dataclasses.asdict(record)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_record(record, config, out):
    text = _record_json(record, config)
    if out:
        _atomic_write(out, text)
        where = out
    else:
        sys.stdout.write(text)
        where = "stdout"
    print(
        f"{config['command']}: fidelity={record.fidelity:.9f} "
        f"steps={record.step_count} defect={record.convergence_defect:.2e} "
        f"-> {where}",
        file=sys.stderr,
    )
    if not record.accepted:
        print(
            f"sagt: warning: run not accepted (defect "
            f"{record.convergence_defect:.2e}, steps {record.step_count})",
            file=sys.stderr,
        )
    return 0 if record.accepted else 2


def _gate(args):
    """(gate, label) from --gate-file, --gate random-su or a named gate;
    (None, None) for a state-teleport."""
    if args.command == "state-teleport":
        return None, None
    if args.gate_file:
        return load_unitary(args.gate_file), os.path.basename(args.gate_file)
    if args.gate == "random-su":
        if args.n is None:
            raise ValueError("--gate random-su needs --n to fix the gate size")
        require_sectors(args.n)
        return random_unitary(2**args.n, np.random.default_rng(args.seed)), "random-su"
    return named_gate(args.gate), args.gate


def cmd_teleport(args):
    schedule = _schedule(args.schedule)
    gate, label = _gate(args)
    n = args.n if gate is None else gate_width(gate)
    psi_in = _input_state(args, n)
    run_args = (schedule, args.tau, args.mode, psi_in)
    options = {"steps": args.steps, "omega": args.omega}
    if gate is None:
        record = run_state_teleport(n, *run_args, **options)
    else:  # run_gate_teleport holds the one width rule for a given --n
        record = run_gate_teleport(gate, *run_args, n=args.n, **options)
    config = {
        "command": args.command,
        "n": n,
        "schedule": schedule.name,
        "tau_omega": args.tau,
        "omega": args.omega,
        "mode": args.mode,
        "steps": args.steps,
        "seed": args.seed if args.random_state or label == "random-su" else None,
        "amp": args.amp,
    }
    if gate is not None:
        config["gate"] = label
    return _emit_record(record, config, args.out)


def cmd_cost_sweep(args):
    schedules = [_schedule(tok) for tok in args.schedules.split(",")]
    if args.log:
        grid = np.geomspace(args.tau_min, args.tau_max, args.points)
    else:
        grid = np.linspace(args.tau_min, args.tau_max, args.points)
    modes = tuple(args.modes.split(","))
    reports = cost_sweep(schedules, grid, modes)
    config = {
        "command": "cost-sweep",
        "schedules": [s.name for s in schedules],
        "tau_min": args.tau_min,
        "tau_max": args.tau_max,
        "points": args.points,
        "log": args.log,
        "modes": list(modes),
    }
    lines = [
        f"# version={__version__}",
        f"# config={json.dumps(config, sort_keys=True)}",
        "schedule,mode,tau_omega,cost_over_homega",
    ]
    for report in reports:
        for tau_omega, cost in report.grid:
            lines.append(f"{report.schedule},{report.mode},{tau_omega!r},{cost!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, text)
        print(
            f"cost-sweep: {len(reports)} curves x {args.points} points -> {args.out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def _verify_checks(grid_points, tau_values, tol):
    """Yield (name, max_defect, tolerance) rows for the self-check table."""
    grid = np.linspace(0.0, 1.0, grid_points)
    bare = [multi_sector_family(1, 1.0, builtin_schedule(kind)) for kind in BUILTIN_KINDS]

    # block structure of the bare drive: equal diagonal blocks, zero off-blocks
    plus, minus = (np.asarray(basis) for basis in (PLUS_BASIS, MINUS_BASIS))
    h = np.concatenate([family.matrix_grid(grid) for family in bare])
    blocks = h[:, plus[:, None], plus], h[:, minus[:, None], minus]
    worst = max(np.abs(blocks[0] - blocks[1]).max(), np.abs(h - embed_blocks(*blocks)).max())
    yield "block-structure", worst, tol

    dressed = [superadiabatic_family(family, tau) for family in bare for tau in tau_values]
    h = np.concatenate([family.matrix_grid(grid) for family in dressed])
    parities = [parity(axis, "global", 1) for axis in "zx"]
    worst = max(np.linalg.norm(h @ p - p @ h, axis=(1, 2)).max() for p in parities)
    yield "parity-commutators", worst, tol
    yield "traceless", np.abs(np.trace(h, axis1=1, axis2=2)).max(), 1e-10

    # covariance under fixed register rotations, via the independent
    # frame-assembled construction
    rng = np.random.default_rng(20240817)
    worst_cov = 0.0
    schedule = builtin_schedule("trigonometric")
    tau = 1.0
    points = (0.15, 0.5, 0.85)
    for i in range(10):
        n = 1 if i < 5 else 2
        gate = random_unitary(2**n, rng)
        rotation = embed_on_outputs(gate, n)
        base = multi_sector_family(n, 1.0, schedule)
        family = superadiabatic_family(rotate_family(base, rotation), tau)
        plain = superadiabatic_family(base, tau)
        built = [assembled_register_cd(schedule, s, tau, n=n, rotation=rotation) for s in points]
        built = np.array(built) + rotation @ base.matrix_grid(points) @ rotation.conj().T
        conjugated = rotation @ plain.matrix_grid(points) @ rotation.conj().T
        worst_cov = max(worst_cov, np.abs(built - conjugated).max())
        worst_cov = max(worst_cov, np.abs(family.matrix_grid(points) - conjugated).max())
    yield "rotation-covariance", worst_cov, tol

    single = cost_closed_form(builtin_schedule("linear"), tau=1.0)
    double = cost_multi(2, builtin_schedule("linear"), tau=1.0)
    defect = abs(double / single - 4.0)
    exact = max(abs(cost_scaling(2) - 4.0), abs(cost_scaling(3) - 8.0 * np.sqrt(3.0)))
    yield "cost-scaling", max(defect / 4.0, exact), 1e-6


def cmd_verify(args):
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    require_positive("--tol", args.tol)
    rows = list(_verify_checks(args.grid, (0.1, 1.0, 10.0), args.tol))
    width = max(len(name) for name, _, _ in rows)
    failed = False
    for name, defect, tolerance in rows:
        ok = defect <= tolerance
        failed = failed or not ok
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {defect:12.3e}  <= {tolerance:8.1e}  {status}")
    print("verify:", "all checks passed" if not failed else "FAILURES above")
    return 2 if failed else 0


def _add_run_options(sub, with_gate=False):
    sub.add_argument("--schedule", default="linear", help="linear | trig | exp")
    sub.add_argument("--tau", type=float, required=True, help="total time tau*omega")
    sub.add_argument("--omega", type=float, default=1.0, help="coupling rate")
    sub.add_argument("--mode", choices=MODES, default="superadiabatic")
    sub.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="initial step count")
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--amp", help="input amplitudes re:im,re:im,...")
    source.add_argument(
        "--random", dest="random_state", action="store_true", help="seeded random input"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the run record JSON here")
    if with_gate:
        gate = sub.add_mutually_exclusive_group(required=True)
        gate.add_argument("--gate", help=f"{', '.join(GATE_NAMES)}, or random-su")
        gate.add_argument("--gate-file", help="CSV unitary ('re im' cells)")
        sub.add_argument("--n", type=int, default=None, help="sector count")
    else:
        sub.add_argument("--n", type=int, default=1, help="sector count")


@functools.cache  # one parser per process, built on the first main call
def build_parser():
    parser = argparse.ArgumentParser(prog="sagt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sagt {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    st = commands.add_parser("state-teleport", help="teleport a state across sectors")
    _add_run_options(st)
    st.set_defaults(func=cmd_teleport)

    gt = commands.add_parser("gate-teleport", help="teleport through a rotated family")
    _add_run_options(gt, with_gate=True)
    gt.set_defaults(func=cmd_teleport)

    cs = commands.add_parser("cost-sweep", help="cost curves over a tau*omega grid")
    cs.add_argument("--schedules", default="linear,trig,exp")
    cs.add_argument("--tau-min", type=float, default=0.1)
    cs.add_argument("--tau-max", type=float, default=1000.0)
    cs.add_argument("--points", type=int, default=60)
    cs.add_argument("--log", action="store_true", help="logarithmic tau grid")
    cs.add_argument("--modes", default=",".join(MODES))
    cs.add_argument("--out", help="write CSV here")
    cs.set_defaults(func=cmd_cost_sweep)

    vf = commands.add_parser("verify", help="run the structural self-checks")
    vf.add_argument("--grid", type=int, default=51, help="s-grid resolution")
    vf.add_argument("--tol", type=float, default=1e-8)
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its reason; exit 2 is for verification
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sagt: error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Piecewise-exponential propagation and the teleportation drivers.

The integrator holds H fixed on each of `steps` sub-intervals at its
midpoint value and applies the exact exponential of that frozen generator,
so every step is unitary by construction and the only error is the
midpoint freezing itself.  Convergence is certified by step doubling: a
run is accepted once doubling `steps` moves the end-point fidelity by no
more than the target defect.

Sector structure is exploited hard: all sectors of a register share one
8x8 generator made of two equal 4x4 parity blocks, so the register
propagator is embed_blocks(u, u)^(x n) for a single 4x4 propagator u.
Steps are grouped into segments between observation points (at most
_CHUNK steps long), and consecutive segments into passes of at most
_CHUNK padded steps.  A pass costs one family.coordinate_grid, the so(4)
coordinates of its steps off one sample, and one spectral.step_products,
a pairwise tree of unit quaternions for each of the two factors of a step,
no eigensolver, for all its segments; a segment costs one 8x8 product per
sector on the state.  A fixed register rotation G telescopes through the
product of step unitaries (G exp(-iH dt) G^dag = exp(-i G H G^dag dt)),
so rotated families are propagated in the unrotated frame and rotated
back only at observation points.  A gate run goes further: it propagates
the unrotated protocol state and applies G once to each rung's end state.
exact_sector_propagator, the closed-form transport of the dressed block,
shares no code with that path; adiabatic_reference applies it per sector.
"""

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from . import spectral
from .cost import _simpson
from .model import (
    MODES,
    _on_outputs,
    gate_width,
    initial_state,
    multi_sector_family,
    named_gate,
    superadiabatic_family,
    target_state,
)
from .operators import require_positive
from .schedules import chi as _chi
from .schedules import in_domain, sample

NORM_ATOL = 1e-10
DEFAULT_STEPS = 2000
DEFAULT_TARGET_DEFECT = 1e-8
MAX_STEPS = 2**20
_CHUNK = 4096
_TRACE_POINTS = 21


def fidelity(psi, phi):
    """|<phi|psi>|^2, insensitive to global phase; clipped to [0, 1]."""
    psi = np.asarray(psi).ravel()
    phi = np.asarray(phi).ravel()
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    val = abs(np.vdot(phi, psi)) ** 2
    if val > 1.0 + 1e-9:
        raise ValueError(f"fidelity {val} exceeds 1 beyond roundoff")
    return float(min(val, 1.0))


def _whole(count, name="steps"):
    """count as an int; ValueError unless it is a whole number."""
    if not float(count).is_integer():
        raise ValueError(f"{name} must be a whole number, got {count}")
    return int(count)


def _apply_sectorwise(u, psi, n):
    """u^(x n) psi for an 8x8 u and an 8**n state: each product acts on the
    leading sector and moves it last, so n of them restore the order."""
    for _ in range(n):
        psi = np.dot(u, psi.reshape(8, -1)).T.ravel()
    return psi


def _passes(cuts):
    """The sorted cuts in passes of _CHUNK // (longest segment) segments,
    each pass starting at the last cut of the one before; padded to the
    longest segment, a pass holds at most _CHUNK steps."""
    width = _CHUNK // np.diff(cuts).max()
    return [cuts[i : i + width + 1] for i in range(0, len(cuts) - 1, width)]


def propagate(family, psi0, steps, tau=None, observer=None):
    """Drive psi0 through s: 0 -> 1 under the family's Hamiltonian.

    tau defaults to family.tau (required one way or the other; it fixes
    the physical duration and hence dt; ValueError if both differ).  If
    given, `observer(s, psi)` is called with the physical state at ~20
    evenly spaced checkpoints, including both endpoints; it may keep psi,
    which is never modified afterwards.  Returns the final state.
    """
    steps = _whole(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    tau = family.tau if tau is None else tau
    if tau is None:
        raise ValueError("a positive total time tau is required to propagate")
    require_positive("tau", tau)
    if family.tau not in (None, tau):
        raise ValueError(f"tau={tau} disagrees with the family's tau={family.tau}")
    psi = np.asarray(psi0, dtype=complex).ravel().copy()
    if psi.size != family.dim:
        raise ValueError(f"state dim {psi.size} != register dim {family.dim}")

    g = family.rotation
    if g is not None:
        psi = g.conj().T @ psi  # work in the unrotated frame throughout

    marks = [] if observer is None else np.linspace(0.0, 1.0, _TRACE_POINTS)
    checkpoints = {int(round(f * steps)) for f in marks}

    def observe(k):
        if k in checkpoints:
            observer(k / steps, psi if g is None else g @ psi)

    dt = float(tau) / steps
    n = family.sectors
    cuts = sorted(checkpoints | set(range(0, steps, _CHUNK)) | {steps})
    observe(0)
    for bounds in _passes(cuts):
        s_mid = (np.arange(bounds[0], bounds[-1]) + 0.5) / steps
        us = spectral.step_products(family.coordinate_grid(s_mid), dt, np.diff(bounds))
        for u, stop in zip(spectral.embed_blocks(us, us), bounds[1:]):
            psi = _apply_sectorwise(u, psi, n)
            observe(stop)

    norm_defect = abs(np.linalg.norm(psi) - 1.0)
    if not norm_defect <= NORM_ATOL:  # NaN fails too
        raise RuntimeError(f"propagation lost normalization by {norm_defect:.2e}")
    return psi if g is None else g @ psi


def _ground_pair_projector(schedule, s):
    """8x8 projectors onto the two sector ground states, at each s given."""
    v0 = spectral.frame_grid(sample(schedule, s))[..., 0]
    p = v0[..., :, None] * v0[..., None, :]
    return spectral.embed_blocks(p, p)


def exact_sector_propagator(schedule, tau, omega=1.0, s=1.0):
    """The exact 4x4 propagator over [0, s] of the dressed sector block,
    V(s) diag(exp(-i tau Int_0^s E_m)) V(0)^T with E = omega (-2 chi, 0, 0,
    2 chi): its frame V carries itself (Berry, J. Phys. A 42, 365303, 2009).
    Int chi is Simpson on 513 nodes of [0, s]."""
    require_positive("tau", tau)
    require_positive("omega", omega)
    grid = np.linspace(0.0, in_domain(float(s)), 513)
    chi_integral = _simpson(_chi(schedule, grid), grid[1])
    phases = np.exp(2j * tau * omega * chi_integral * np.array([1.0, 0.0, 0.0, -1.0]))
    v_0, v_s = spectral.frame_grid(sample(schedule, grid[[0, -1]]))
    return (v_s * phases) @ v_0.T


def adiabatic_reference(family, s, psi_in=None, tau=None):
    """Ideal adiabatic image of the protocol state at parameter s: the exact
    sector propagator on every sector of initial_state, then the family's G.
    It follows the ground manifold with the phase exp(-i tau Int_0^s E0)."""
    if family.mode != "adiabatic":
        raise ValueError("reference trajectories are defined for adiabatic families")
    if tau is None:  # an adiabatic family carries no duration
        raise ValueError("tau is required to evaluate the dynamical phase")
    n = family.sectors
    u = exact_sector_propagator(family.schedule, tau, family.omega, s)
    psi0 = initial_state(np.eye(2**n)[0] if psi_in is None else psi_in, n)
    state = _apply_sectorwise(spectral.embed_blocks(u, u), psi0, n)
    return state if family.rotation is None else family.rotation @ state


@dataclass
class RunRecord:
    """Outcome of one teleportation run, diagnostics included.

    convergence_defect is |F(steps) - F(steps/2)| at the reported step
    count; accepted means the defect met the requested target before the
    step budget max_steps ran out (no rung ever exceeds it).  parity_drift
    and ground_overlap_trace belong to the reported rung (step_count steps):
    the largest excursion of the conserved Z-parity expectation, and the
    overlap with the instantaneous ground manifold of the bare drive, at
    that run's observer checkpoints in the unrotated frame.
    """

    sectors: int
    schedule: str
    tau_omega: float
    omega: float
    mode: str
    gate: Optional[str]
    fidelity: float
    step_count: int
    convergence_defect: float
    accepted: bool
    parity_drift: float
    ground_overlap_trace: list


def _run_protocol(
    n,
    schedule,
    tau_omega,
    mode,
    psi_in,
    steps,
    omega,
    target_defect,
    max_steps,
    gate=None,
    gate_name=None,
):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    require_positive("tau_omega", tau_omega)
    steps, max_steps = _whole(steps), _whole(max_steps, "max_steps")
    if not target_defect >= 0.0:  # NaN fails too
        raise ValueError(f"target_defect must be >= 0, got {target_defect}")
    if 2 * steps > max_steps:  # the ladder needs a rung and its doubling
        raise ValueError(f"steps={steps}: 2*steps exceeds max_steps={max_steps}")
    tau = float(tau_omega) / float(omega)

    # the unrotated family carries the protocol state; G, checked by gate_width,
    # acts on each rung's end state, and target_state checks and applies it apart
    family = multi_sector_family(n, omega, schedule)
    if mode == "superadiabatic":
        family = superadiabatic_family(family, tau)
    psi0 = initial_state(psi_in, n)
    tgt = target_state(psi_in, n, rotation=gate)

    def run(k):
        states = []
        final = propagate(
            family, psi0, k, tau=tau, observer=lambda s, psi: states.append((s, psi))
        )
        if gate is not None:
            final = _on_outputs(gate, final, n)
        return fidelity(final, tgt), states

    f_prev, _ = run(steps)
    count = steps
    while True:
        count *= 2
        f_next, states = run(count)
        defect = abs(f_next - f_prev)
        if defect <= target_defect or count * 2 > max_steps:
            break
        f_prev = f_next

    # observables of the reported rung, read off the unrotated states, where
    # the conserved parity is plain Z...Z and the ground projector the bare one
    z_signs = reduce(np.kron, [[1.0, -1.0]] * (3 * n))
    projectors = _ground_pair_projector(schedule, [s for s, _ in states])
    trace, parities = [], []
    for (s, psi), projector in zip(states, projectors):
        p_psi = _apply_sectorwise(projector, psi, n)
        trace.append((float(s), float(np.real(np.vdot(psi, p_psi)))))
        parities.append(float(np.real(np.sum(z_signs * np.abs(psi) ** 2))))
    return RunRecord(
        sectors=n,
        schedule=schedule.name,
        tau_omega=float(tau_omega),
        omega=float(omega),
        mode=mode,
        gate=gate_name,
        fidelity=f_next,
        step_count=count,
        convergence_defect=float(defect),
        accepted=bool(defect <= target_defect),
        parity_drift=max(abs(p - parities[0]) for p in parities),
        ground_overlap_trace=trace,
    )


def run_state_teleport(
    n,
    schedule,
    tau_omega,
    mode,
    psi_in,
    steps=DEFAULT_STEPS,
    omega=1.0,
    target_defect=DEFAULT_TARGET_DEFECT,
    max_steps=MAX_STEPS,
):
    """Teleport an n-qubit input across n sectors; returns a RunRecord."""
    return _run_protocol(
        n, schedule, tau_omega, mode, psi_in, steps, omega, target_defect, max_steps
    )


def run_gate_teleport(
    gate,
    schedule,
    tau_omega,
    mode,
    psi_in,
    n=None,
    steps=DEFAULT_STEPS,
    omega=1.0,
    target_defect=DEFAULT_TARGET_DEFECT,
    max_steps=MAX_STEPS,
):
    """Teleport through a rotated family so the output emerges with the
    gate applied.  `gate` is a standard gate name or a 2^n x 2^n unitary."""
    if isinstance(gate, str):
        gate_name = gate
        gate = named_gate(gate)
    else:
        gate_name = "custom"
    width = gate_width(gate)
    if n is None:
        n = width
    elif n != width:
        raise ValueError(f"gate acts on {width} qubits but n={n} was requested")
    return _run_protocol(
        n,
        schedule,
        tau_omega,
        mode,
        psi_in,
        steps,
        omega,
        target_defect,
        max_steps,
        gate=gate,
        gate_name=gate_name,
    )

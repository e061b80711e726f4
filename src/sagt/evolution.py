"""Piecewise-exponential propagation and the teleportation drivers.

The integrator holds H fixed on each of `steps` sub-intervals at its
midpoint value and applies the exact exponential of that frozen generator,
so every step is unitary by construction and the only error is the
midpoint freezing itself.  Convergence is certified by step doubling: a
run is accepted once doubling `steps` moves the end-point fidelity by no
more than the target defect.

Sector structure is exploited hard: all sectors of a register share one
8x8 generator made of two equal 4x4 parity blocks, so the register
propagator is E(U)^(x n), E(U) = embed_blocks(U, U), for one 4x4 U = S
(U_a (x) U_b) S^dag of two spins 1/2 (spectral).  A rung (one step count)
is cut at ~20 evenly spaced checkpoints s_k and run in the passes of its
_rung_plan.  A pass weighs its steps' so(4) coordinates off the schedule
terms at its midpoints (spectral.weigh_terms of spectral.coordinate_terms)
straight into one spin_products, one SU(2) tree for both spins; the
segment products chain per spin, and U(s_k) is formed once per rung, at
its checkpoints.  The states at all s_k are one stacked product,
E(U(s_k))^(x n) psi0 with k the leading axis, and propagate returns its
last row, observed or not.  A fixed register rotation G telescopes through
the product of step unitaries (G exp(-iH dt) G^dag = exp(-i G H G^dag dt)),
so rotated families are propagated in the unrotated frame and rotated back
only at observation points.

A run is one sector: initial_state and target_state lay each sector out
on the block ground states g0 = (1, 1, 0, 0)/sqrt 2 and g1 = (1, 0, 0,
1)/sqrt 2, so a run's fidelity is F_1^n, F_1 = |g1^T U(1) g0|^2, for every
input and gate.  As S^dag g0 ~ |+x +x> and S^dag g1 ~ |+y +y>, F_1 = f_a
f_b, f = |<+y|u|+x>|^2 of each spin's U(1) = u, which the ladder reads off
each rung's transport entry; the bare drive's ground state at s_k is
S |+n +n>, n = (cos theta, sin theta, 0), so the trace is p_k^n, p_k =
f_a f_b of f = |<+n|u(s_k)|+x>|^2.  The register is formed once, for the
reported rung, by _rung_states, propagate's own body, for the fidelity
(held to F_1^n to 1e-12) and parity drift.  exact_sector_propagator, the
closed-form transport of the dressed block, shares no code with that
path; adiabatic_reference applies it per sector.

Four read-only LRU caches keep what a run would form again.  A rung's
transport depends only on the schedule, omega, the family's tau (its
mode), the duration and the step count, never on the gate, the sector
count, the input or the observer: _transports keeps its (checkpoints,
U(s_k), the spins at s_k) in _TRANSPORT_CACHE_SIZE entries of about 7 KB
keyed by those values alone.  U(s_k) is kept, not formed off the spins per
read, for the register every run forms from it.  _pass_terms keeps a
pass's schedule terms, free of omega and tau, so a transport miss only
weighs them; _checkpoint_bras keeps the bare drive's ground bras at a rung's
checkpoints (by schedule and step count), and _rung_plan its checkpoints
and passes with their tree indices; each holds _SAMPLE_CACHE_SIZE entries.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from . import spectral
from .cost import _simpson
from .model import (
    MAX_QUBITS,
    MODES,
    _on_outputs,
    gate_width,
    initial_state,
    multi_sector_family,
    named_gate,
    require_sectors,
    superadiabatic_family,
    target_state,
)
from .operators import _whole, require_duration, require_positive
from .schedules import chi as _chi
from .schedules import in_domain, sample

NORM_ATOL = 1e-10
DEFAULT_STEPS = 2000
DEFAULT_TARGET_DEFECT = 1e-8
MAX_STEPS = 2**20
_CHUNK = 16384
_TRACE_POINTS = 21
_TRANSPORT_CACHE_SIZE = 64
_SAMPLE_CACHE_SIZE = 32


def fidelity(psi, phi):
    """|<phi|psi>|^2, insensitive to global phase; clipped to [0, 1]."""
    psi = np.asarray(psi).ravel()
    phi = np.asarray(phi).ravel()
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    val = abs(np.vdot(phi, psi)) ** 2
    if not val <= 1.0 + 1e-9:  # NaN fails too
        raise ValueError(f"fidelity {val} is not finite or exceeds 1 beyond roundoff")
    return float(min(val, 1.0))


def _apply_sectorwise(u, psi, n):
    """u^(x n) psi for 8x8 u and 8**n psi, both broadcast over leading axes:
    each product acts on the leading sector and moves it last, so n of them
    restore the order; a row of a stack gets the bits of its lone call."""
    for _ in range(n):
        psi = np.matmul(u, psi.reshape(psi.shape[:-1] + (8, -1))).swapaxes(-1, -2)
        psi = psi.reshape(psi.shape[:-2] + (-1,))
    return psi


def _passes(cuts):
    """The sorted cuts, each segment longer than _CHUNK split into even
    pieces, in passes of _CHUNK // (longest segment) segments, each pass
    starting at the last cut of the one before: at most _CHUNK steps, and
    fewer than 2 _CHUNK tree entries once tree_index pads each segment to
    a power of two, so the ~20 segments of up to 16,000 steps are one pass."""
    segments = zip(cuts, cuts[1:], (-(-np.diff(cuts) // _CHUNK)).tolist())
    cuts = [lo + (hi - lo) * j // k for lo, hi, k in segments for j in range(k)] + [cuts[-1]]
    width = _CHUNK // np.diff(cuts).max()
    return [cuts[i : i + width + 1] for i in range(0, len(cuts) - 1, width)]


@lru_cache(maxsize=_SAMPLE_CACHE_SIZE)
def _rung_plan(steps):
    """(checkpoints, passes) of a `steps`-step rung: the ~20 evenly spaced
    steps it is observed at, a tuple, and its _passes of those, as (cuts,
    read-only spectral.tree_index of the segment lengths) each.  The index
    holds fewer than 2 x steps int32 entries (1.28 x steps at 2,000 x 2^k):
    82 KB at 16,000 steps, 164 KB at 32,000, 5.2 MB at 1,024,000."""
    checkpoints = tuple(sorted({round(f * steps) for f in np.linspace(0.0, 1.0, _TRACE_POINTS)}))
    passes = tuple((tuple(c), spectral.tree_index(np.diff(c))) for c in _passes(checkpoints))
    for _, index in passes:
        index.flags.writeable = False
    return checkpoints, passes


@lru_cache(maxsize=_SAMPLE_CACHE_SIZE)
def _pass_terms(schedule, dressed, steps, start, stop):
    """Read-only spectral.coordinate_terms at the midpoints of steps
    start..stop-1 of a `steps`-step rung, free of omega and tau.  A pass
    has at most _CHUNK rows of 40 B (16 B on the bare drive), so the cache
    holds at most 32 x 16,384 x 40 B, about 21 MB."""
    s_mid = (np.arange(start, stop) + 0.5) / steps
    terms = spectral.coordinate_terms(sample(schedule, in_domain(s_mid)), dressed)
    for term in terms:
        if term is not None:
            term.flags.writeable = False
    return terms


@lru_cache(maxsize=_TRANSPORT_CACHE_SIZE)
def _transports(schedule, omega, family_tau, tau, steps):
    """(checkpoints, read-only (checkpoints, 4, 4) U(s_k) = u_k ... u_1 with
    U(0) = I, spins) of a `steps`-step run of duration tau: one sector block,
    the spectral.spin_blocks of per-spin U_a(s_k), U_b(s_k), each segment
    chained onto the one before, and spins, read-only (checkpoints, spins, 2)
    (alpha, beta) of those: one spin on the bare drive, where a == b."""
    checkpoints, passes = _rung_plan(steps)
    spins, dt, weights = 1 if family_tau is None else 2, tau / steps, (omega, family_tau)
    chain = {0: [(1.0, 0.0)] * spins}
    for cuts, index in passes:
        terms = _pass_terms(schedule, spins == 2, steps, cuts[0], cuts[-1])
        pair = spectral.spin_products(spectral.weigh_terms(terms, *weights), dt, index, spins)
        for start, stop, alpha, beta in zip(cuts, cuts[1:], *(x.tolist() for x in pair)):
            chain[stop] = [
                (a1 * a0 - b1.conjugate() * b0, b1 * a0 + a1.conjugate() * b0)
                for a1, b1, (a0, b0) in zip(alpha, beta, chain[start])
            ]
    spins = np.array([chain[k] for k in checkpoints])
    blocks = spectral.spin_blocks(*np.moveaxis(spins, -1, 0))
    blocks[0] = np.eye(4)  # exactly
    blocks.flags.writeable = spins.flags.writeable = False
    return checkpoints, blocks, spins


def _require_kept_norm(norm):
    """RuntimeError unless the norm of a propagated unit vector is 1 to NORM_ATOL."""
    norm_defect = abs(norm - 1.0)
    if not norm_defect <= NORM_ATOL:  # NaN fails too
        raise RuntimeError(f"propagation lost normalization by {norm_defect:.2e}")


def _rung_states(family, psi0, steps, tau):
    """(checkpoints, states, spins): unrotated psi0 carried to each checkpoint
    of a `steps`-step rung off its _transports entry, and the entry's spins."""
    key = (family.schedule, family.omega, family.tau, float(tau), steps)
    checkpoints, transports, spins = _transports(*key)
    states = _apply_sectorwise(spectral.embed_blocks(transports, transports), psi0, family.sectors)
    _require_kept_norm(np.linalg.norm(states[-1]))
    return checkpoints, states, spins


def propagate(family, psi0, steps, tau=None, observer=None):
    """Drive psi0 through s: 0 -> 1 under the family's Hamiltonian.

    tau defaults to family.tau (required one way or the other; it fixes
    the physical duration and hence dt; ValueError if both differ).  psi0
    must be a finite unit vector.  If given, `observer(s, psi)` is called
    with the physical state at ~20 evenly spaced checkpoints, including
    both endpoints; it may keep psi, which is never modified afterwards.
    Returns the final state, the last row of the stacked checkpoint states,
    off the rung's transports: cached if a call of equal schedule, omega,
    mode, tau and steps formed them.
    """
    steps = _whole("steps", steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    tau = family.tau if tau is None else tau
    if tau is None:
        raise ValueError("a positive total time tau is required to propagate")
    require_duration("tau", tau)
    if family.tau not in (None, tau):
        raise ValueError(f"tau={tau} disagrees with the family's tau={family.tau}")
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size != family.dim:
        raise ValueError(f"state dim {psi0.size} != register dim {family.dim}")
    norm_defect = abs(np.linalg.norm(psi0) - 1.0)
    if not norm_defect <= NORM_ATOL:  # NaN fails too
        raise ValueError(f"psi0 must be a finite unit vector, norm off by {norm_defect:.2e}")

    g = family.rotation
    if g is not None:
        psi0 = g.conj().T @ psi0  # work in the unrotated frame throughout
    checkpoints, states, _ = _rung_states(family, psi0, steps, tau)
    if observer is not None:
        for k, psi in zip(checkpoints, states):
            observer(k / steps, psi if g is None else g @ psi)
    return states[-1] if g is None else g @ states[-1]


def _ground_amplitude(alpha, beta, phase):
    """<+n|u|+x> of u = [[alpha, -beta*], [beta, alpha*]] and the ground bra
    <+n| = (1, phase) / sqrt 2 of an in-plane field n; real-linear in u."""
    return (alpha - beta.conjugate() + phase * (beta + alpha.conjugate())) / 2


@lru_cache(maxsize=_SAMPLE_CACHE_SIZE)
def _checkpoint_bras(schedule, steps):
    """Read-only (checkpoints, 4, 2) real maps of a `steps`-step rung: a spin's
    (alpha, beta), as four floats, times map k is its _ground_amplitude, as
    (re, im), at the phase exp(-i theta_k) of the bare drive at s_k."""
    _, cos, sin, _, _ = spectral.chart(sample(schedule, np.array(_rung_plan(steps)[0]) / steps))
    alpha, beta = np.eye(4).view(complex).T  # the four unit spins: 1, i, 0, 0 and 0, 0, 1, i
    bras = _ground_amplitude(alpha, beta, (cos - 1j * sin)[:, None]).view(float).reshape(-1, 4, 2)
    bras.flags.writeable = False
    return bras


_CACHES = (_rung_plan, _pass_terms, _transports, _checkpoint_bras)
_Z_SIGNS = reduce(np.multiply.outer, [[1.0, -1.0]] * MAX_QUBITS).ravel()  # Z...Z: (-1)^popcount


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

    sector_fidelity is F_1 of the reported rung (step_count steps) and
    fidelity its F_1^n; convergence_defect is |F(steps) - F(steps/2)| there;
    accepted means the defect met the requested target before the step
    budget max_steps ran out (no rung ever exceeds it).  parity_drift and
    ground_overlap_trace belong to that rung too: the largest excursion of
    its Z-parity expectation, and its overlap p_k^n with the bare drive's
    instantaneous ground manifold, off the spins, at its unrotated checkpoints.
    """

    sectors: int
    schedule: str
    tau_omega: float
    omega: float
    mode: str
    gate: Optional[str]
    fidelity: float
    sector_fidelity: float
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
    require_duration("tau_omega", tau_omega)
    steps, max_steps = _whole("steps", steps), _whole("max_steps", max_steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not target_defect >= 0.0:  # NaN fails too
        raise ValueError(f"target_defect must be >= 0, got {target_defect}")
    if 2 * steps > max_steps:  # the ladder needs a rung and its doubling
        raise ValueError(f"steps={steps}: 2*steps exceeds max_steps={max_steps}")
    n = require_sectors(n)

    # the unrotated family carries the protocol state, and G acts on its end state alone
    family = multi_sector_family(n, omega, schedule)  # checks omega before tau
    tau = float(tau_omega) / float(omega)
    require_duration("tau", tau)
    if mode == "superadiabatic":
        family = superadiabatic_family(family, tau)
    psi0 = initial_state(psi_in, n)
    tgt = target_state(psi_in, n, rotation=gate)

    def sector_fidelity(k):  # F_1 = f_a f_b, f = |<+y|u|+x>|^2 of each spin u of a k-step rung
        ends = _transports(family.schedule, family.omega, family.tau, tau, k)[2][-1].tolist()
        ends = ends if len(ends) == 2 else ends * 2  # one spin serves both on the bare drive
        _require_kept_norm(math.prod(math.hypot(abs(a), abs(b)) for a, b in ends))
        f_a, f_b = (abs(_ground_amplitude(a, b, -1j)) ** 2 for a, b in ends)
        return min(f_a * f_b, 1.0)

    count, f_next = steps, sector_fidelity(steps)
    while True:
        count, f_prev = 2 * count, f_next
        f_next = sector_fidelity(count)
        defect = abs(f_next**n - f_prev**n)
        if defect <= target_defect or count * 2 > max_steps:
            break

    # the reported rung's unrotated register off its cache entry, where parity is plain Z...Z
    checkpoints, states, spins = _rung_states(family, psi0, count, tau)
    f_register = fidelity(states[-1] if gate is None else _on_outputs(gate, states[-1], n), tgt)
    if not abs(f_register - f_next**n) <= 1e-12:
        raise RuntimeError(f"register fidelity {f_register!r} != sector fidelity^n {f_next**n!r}")
    amplitudes = spins.view(float) @ _checkpoint_bras(schedule, count)  # (re, im) per spin
    overlaps = (amplitudes**2).sum(axis=-1).prod(axis=-1) ** (2 // spins.shape[1] * n)  # p_k^n
    parities = np.sum(_Z_SIGNS[: 8**n] * np.abs(states) ** 2, axis=-1)
    return RunRecord(
        sectors=n,
        schedule=schedule.name,
        tau_omega=float(tau_omega),
        omega=float(omega),
        mode=mode,
        gate=gate_name,
        fidelity=f_register,
        sector_fidelity=f_next,
        step_count=count,
        convergence_defect=float(defect),
        accepted=bool(defect <= target_defect),
        parity_drift=float(np.max(np.abs(parities - parities[0]))),
        ground_overlap_trace=[(k / count, p) for k, p in zip(checkpoints, overlaps.tolist())],
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

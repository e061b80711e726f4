"""Energetic cost of a drive: time-averaged Frobenius norm of H.

Sigma(tau) = (1/tau) Int_0^tau ||H(t)|| dt = Int_0^1 ||H(s)|| ds, reported
in units of hbar*omega.  Two independent routes are kept side by side:

* cost_numeric integrates the Frobenius norm of the assembled matrix;
* cost_closed_form integrates sqrt(sum_m [E_m^2 + mu_m / tau^2]) over the
  eight register levels, where mu_m = <d/ds v_m | d/ds v_m> in the
  transport gauge.

They agree because the drive/velocity cross trace vanishes for a real
frame.  Per parity block the levels give E^2 = 4 omega^2 chi^2 twice, and
the mu sum is ||V'||_F^2 = ||K V||_F^2 = ||K||_F^2 for the orthogonal
frame V and its velocity K, which is 2 theta'^2 (1 + a(theta)^2) (see
spectral).  With both blocks the one integrand, in units of hbar*omega, is

    sqrt(16 chi^2 + 4 theta'^2 (1 + a^2) / (tau omega)^2),

the velocity term dropped for the bare drive: two scalar weights read off
spectral.chart, no matrix built.  As tau omega -> 0, tau omega Sigma tends
to 2 Int sqrt(1 + a^2) |d theta|, which is 4.493861 for any path on which
theta runs monotonically from 0 to pi/2.  For n sectors the traceless
sector terms are orthogonal in the Frobenius sense, which collapses the
register cost to a closed scaling g_n = sqrt(2^{3(n-1)} n) times the
single-sector cost, and ||G H G^dag||_F = ||H||_F for a unitary G: a gate
teleport costs what the state teleport does.

All quadratures are composite Simpson on nested grids, each doubling
evaluating only the new midpoints, until the relative change drops below
QUAD_RTOL.  The direct route takes one sector_matrix_grid per Simpson
level and pads those 8x8 terms, unrotated, at most NORM_CHUNK dense
entries at a time, into one buffer per quadrature.  The closed form takes
one schedules.sample per Simpson level; a sweep integrates each distinct
tau*omega of all its modes (the bare drive as tau*omega = inf) once, as a
column of one integrand, frozen at the level where it settles.
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .model import MODES, multi_sector_family, superadiabatic_family
from .operators import MIN_DURATION, _rescaled, _whole, require_duration, require_positive
from .schedules import sample

QUAD_RTOL = 1e-8
MIN_QUAD_POINTS = 16
MAX_QUAD_POINTS = 2**14
NORM_CHUNK = 2**14  # complex entries of the dense matrices cost_numeric pads at once

DEFAULT_TAU_GRID = tuple(np.geomspace(0.1, 1000.0, 60))


def _simpson(values, width):
    """Composite Simpson along the first axis; each column is summed as one
    contiguous row, pairwise, as numpy sums a lone integral."""
    if len(values) % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes")
    v = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    return width / 3.0 * (
        v[..., 0] + v[..., -1] + 4.0 * v[..., 1:-1:2].sum(-1) + 2.0 * v[..., 2:-2:2].sum(-1)
    )


def _converge(integrand, quad_points):
    """Simpson over nested grids of [0, 1] of integrand(s), values at the
    nodes s along its first axis: each doubling samples only the midpoints,
    and each integral is frozen where it settles, as arrays (values,
    intervals, defects); never more than MAX_QUAD_POINTS intervals."""
    require_positive("quad_points", quad_points)
    n = max(_whole("quad_points", quad_points), MIN_QUAD_POINTS)
    if n % 2:
        n += 1
    if n > MAX_QUAD_POINTS:
        raise ValueError(f"quad_points={quad_points} exceeds {MAX_QUAD_POINTS}")
    f = integrand(np.linspace(0.0, 1.0, n + 1))
    cur = _simpson(f, 1.0 / n)
    value, defect, used = np.zeros_like(cur), np.zeros_like(cur), np.zeros_like(cur, int)
    while not used.all():
        prev = cur
        if 2 * n > MAX_QUAD_POINTS:
            msg = f"quadrature did not settle below {QUAD_RTOL} by {n} intervals"
            raise RuntimeError(msg)
        fine = np.empty((2 * n + 1,) + f.shape[1:])
        fine[::2] = f
        fine[1::2] = integrand(np.linspace(0.0, 1.0, 2 * n + 1)[1::2])
        f, n = fine, 2 * n
        cur = _simpson(f, 1.0 / n)
        change = np.abs(cur - prev) / np.maximum(np.abs(cur), 1e-300)
        fresh = (used == 0) & (change <= QUAD_RTOL)
        value, defect = np.where(fresh, cur, value), np.where(fresh, change, defect)
        used = np.where(fresh, n, used)
    return value, used, defect


def cost_numeric(family, quad_points=64):
    """Direct route: Simpson quadrature of ||H(s)||_F = ||G H(s) G^dag||_F,
    off the unrotated register matrix at every node, so a rotated family
    costs its unrotated one's bits: one sector sample per level, padded
    NORM_CHUNK dense entries at a time into one buffer, and padded again
    _rescaled where a square of a sector entry could over- or underflow."""
    per_call = max(1, NORM_CHUNK // family.dim**2)
    buffer = family._pad_buffer(per_call)

    def padded_norms(terms):
        out = np.empty(len(terms))
        for i in range(0, len(terms), per_call):
            h = family._pad(terms[i : i + per_call], out=buffer)
            h = h.reshape(len(h), -1).view(float)
            out[i : i + per_call] = np.sqrt(np.einsum("ij,ij->i", h, h))
        return out

    def norms(s):
        terms = family.sector_matrix_grid(s)
        out = padded_norms(terms)
        # a norm is at least its node's largest sector entry and at most
        # n 8^((n+1)/2) <= 192 times it: no entry of a level whose norms
        # stay in (2^-492, 2^500) is outside (2^-500, 2^500)
        if not 2.0**-492 < out.max() < 2.0**500:
            flat = terms.view(float)
            scaled, exponent = _rescaled(terms, max(flat.max(), -flat.min()))
            out = np.ldexp(padded_norms(scaled), exponent)
        return out

    return float(_converge(norms, quad_points)[0])


def mu(schedule, s, m):
    """Velocity weight <d/ds v_m | d/ds v_m> of register level m.

    Levels 0-3 are the even-parity block in ascending energy, 4-7 the odd
    block; the two blocks share one frame, so mu depends on m mod 4.
    """
    m = _whole("m", m)
    if m not in range(8):
        raise ValueError(f"level index {m} outside 0..7")
    dv = spectral.block_eigenvector_derivatives(schedule, float(s))[:, m % 4]
    return float(dv @ dv)


def _weights(schedule, s):
    """The cost weights 16 chi^2 and 2 ||K||_F^2 = 4 theta'^2 (1 + a^2) at
    the nodes s of [0, 1], both read off one sample."""
    chi2, _, _, rate, a = spectral.chart(sample(schedule, s))
    return 16.0 * chi2, 4.0 * rate * rate * (1.0 + a * a)


def _unit_costs(schedule, tau_omegas, quad_points=64):
    """The closed-form costs in units of hbar*omega at each tau*omega, as
    _converge arrays (values, intervals, defects); tau*omega = inf is the
    bare drive.  One sample per Simpson level serves every tau*omega."""
    with np.errstate(over="ignore"):  # (tau omega)^2 = inf is the bare drive
        tau2 = np.square(np.asarray(tau_omegas, dtype=float))

    def integrand(s):
        energy, velocity = _weights(schedule, s)
        return np.sqrt(energy[:, None] + velocity[:, None] / tau2)

    return _converge(integrand, quad_points)


def cost_closed_form(schedule, tau, omega=1.0, quad_points=64):
    """Spectral route: omega times the unit-cost integral at tau*omega."""
    require_positive("tau", tau)
    require_positive("omega", omega)
    if tau * omega < MIN_DURATION:  # one that overflows to inf is the bare drive
        require_duration("tau*omega", tau * omega)
    return _in_units_of(omega, _unit_costs(schedule, [tau * omega], quad_points)[0][0])


def adiabatic_cost(schedule, omega=1.0, quad_points=64):
    """Cost of the bare drive, 4 omega Int chi ds; independent of tau."""
    require_positive("omega", omega)
    return _in_units_of(omega, _unit_costs(schedule, [np.inf], quad_points)[0][0])


def _in_units_of(omega, unit_cost):
    """omega times a cost in units of hbar*omega; ValueError if it overflows."""
    cost = float(omega) * float(unit_cost)
    if not cost < np.inf:
        raise ValueError(f"omega must keep the cost finite, got {omega}")
    return cost


def cost_scaling(n):
    """g_n = sqrt(2^{3(n-1)} n): the exact multi-sector cost multiplier."""
    n = _whole("n", n)
    if not 1 <= n <= 680:  # g_681 = 2^1020 sqrt(681) > 2^1024, the float range
        raise ValueError(f"need 1 <= n <= 680, where g_n is a float, got {n}")
    e = 3 * (n - 1)
    return float(np.ldexp(np.sqrt(n << (e & 1)), e >> 1))  # 2^(e // 2) sqrt(2^(e % 2) n)


def cost_multi(n, schedule, tau, omega=1.0, quad_points=64):
    """Register cost for n sectors by direct quadrature of the assembled
    superadiabatic Hamiltonian (dense; capacity-limited)."""
    family = superadiabatic_family(multi_sector_family(n, omega, schedule), tau)
    return cost_numeric(family, quad_points)


@dataclass
class CostReport:
    """One schedule/mode sweep: cost as a function of tau*omega."""

    schedule: str
    mode: str
    grid: list  # [(tau_omega, cost_over_homega), ...]
    quadrature_points: int
    quadrature_defect: float


def cost_sweep(schedules, tau_omega_grid=None, modes=MODES):
    """Closed-form cost curves over a tau*omega grid.

    The weights 16 chi^2 and 2 ||K||_F^2 are schedule properties: one sample
    per schedule and quadrature level feeds both, for every mode and grid
    point at once, each distinct tau*omega integrated once.  Costs come out
    in units of hbar*omega, in which they depend on tau and omega only
    through the product tau*omega.  Each report carries the interval count
    and defect of its hardest grid point (the last one with the most
    intervals).
    """
    if tau_omega_grid is None:
        tau_omega_grid = DEFAULT_TAU_GRID
    taus = [float(t) for t in tau_omega_grid]
    if not taus:
        raise ValueError("tau*omega grid is empty")
    for t in taus:
        require_duration("tau*omega", t)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
    rows = [t if mode == "superadiabatic" else np.inf for mode in modes for t in taus]
    distinct, row_of = np.unique(rows, return_inverse=True)
    reports = []
    for schedule in schedules:
        values, used, defects = (part[row_of] for part in _unit_costs(schedule, distinct))
        for k, mode in enumerate(modes):
            part = slice(k * len(taus), (k + 1) * len(taus))
            worst = k * len(taus) + np.flatnonzero(used[part] == used[part].max())[-1]
            reports.append(
                CostReport(
                    schedule=schedule.name,
                    mode=mode,
                    grid=list(zip(taus, values[part].tolist())),
                    quadrature_points=int(used[worst]),
                    quadrature_defect=float(defects[worst]),
                )
            )
    return reports

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
theta runs monotonically from 0 to pi/2.  For n sectors the
traceless sector terms are orthogonal in the Frobenius sense, which
collapses the register cost to a closed scaling g_n = sqrt(2^{3(n-1)} n)
times the single-sector cost.

All quadratures are composite Simpson with interval doubling until the
relative change drops below QUAD_RTOL.  The closed-form route takes one
schedules.sample per Simpson level and reads both weights off it.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import spectral
from .model import multi_sector_family, superadiabatic_family
from .operators import frobenius_norm, require_positive
from .schedules import sample

QUAD_RTOL = 1e-8
MIN_QUAD_POINTS = 16
MAX_QUAD_POINTS = 2**14

DEFAULT_TAU_GRID = tuple(np.geomspace(0.1, 1000.0, 60))


def _simpson(values, width):
    if len(values) % 2 == 0:
        raise ValueError("Simpson needs an odd number of nodes")
    return width / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )


def _converge(sample, quad_points):
    """Double the Simpson interval count until the value settles, never
    sampling more than MAX_QUAD_POINTS intervals."""
    n = max(int(quad_points), MIN_QUAD_POINTS)
    if n % 2:
        n += 1
    if n > MAX_QUAD_POINTS:
        raise ValueError(f"quad_points={quad_points} exceeds {MAX_QUAD_POINTS}")
    prev = _simpson(sample(n), 1.0 / n)
    while True:
        if 2 * n > MAX_QUAD_POINTS:
            msg = f"quadrature did not settle below {QUAD_RTOL} by {n} intervals"
            raise RuntimeError(msg)
        n *= 2
        cur = _simpson(sample(n), 1.0 / n)
        defect = abs(cur - prev) / max(abs(cur), 1e-300)
        if defect <= QUAD_RTOL:
            return float(cur), n, float(defect)
        prev = cur


def cost_numeric(family, quad_points=64):
    """Direct route: Simpson quadrature of ||H(s)||_F for any family."""

    def sample(n):
        grid = np.linspace(0.0, 1.0, n + 1)
        return np.array([frobenius_norm(family.matrix(s)) for s in grid])

    value, _, _ = _converge(sample, quad_points)
    return value


def mu(schedule, s, m):
    """Velocity weight <d/ds v_m | d/ds v_m> of register level m.

    Levels 0-3 are the even-parity block in ascending energy, 4-7 the odd
    block; the two blocks share one frame, so mu depends on m mod 4.
    """
    if m not in range(8):
        raise ValueError(f"level index {m} outside 0..7")
    dv = spectral.block_eigenvector_derivatives(schedule, float(s))[:, m % 4]
    return float(dv @ dv)


def _weights(schedule, n):
    """The cost weights 16 chi^2 and 2 ||K||_F^2 = 4 theta'^2 (1 + a^2) on
    the n-interval Simpson grid of [0, 1], both read off one sample."""
    chi2, _, rate, a = spectral.chart(sample(schedule, np.linspace(0.0, 1.0, n + 1)))
    return 16.0 * chi2, 4.0 * rate * rate * (1.0 + a * a)


def _unit_cost(weights, tau_omega, quad_points=64):
    """The closed-form cost in units of hbar*omega, as (value, intervals,
    defect), from weights(n), the _weights of the n-interval grid;
    tau_omega None is the bare drive."""

    def integrand(n):
        energy, velocity = weights(n)
        if tau_omega is None:
            return np.sqrt(energy)
        return np.sqrt(energy + velocity / tau_omega**2)

    return _converge(integrand, quad_points)


def cost_closed_form(schedule, tau, omega=1.0, quad_points=64):
    """Spectral route: omega times the unit-cost integral at tau*omega."""
    require_positive("tau", tau)
    require_positive("omega", omega)
    return omega * _unit_cost(partial(_weights, schedule), tau * omega, quad_points)[0]


def adiabatic_cost(schedule, omega=1.0, quad_points=64):
    """Cost of the bare drive, 4 omega Int chi ds; independent of tau."""
    require_positive("omega", omega)
    return omega * _unit_cost(partial(_weights, schedule), None, quad_points)[0]


def cost_scaling(n):
    """g_n = sqrt(2^{3(n-1)} n): the exact multi-sector cost multiplier."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return float(np.sqrt(2.0 ** (3 * (n - 1)) * n))


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


def cost_sweep(schedules, tau_omega_grid=None, modes=("adiabatic", "superadiabatic")):
    """Closed-form cost curves over a tau*omega grid.

    The weights 16 chi^2 and 2 ||K||_F^2 are schedule properties: one sample
    per schedule and quadrature level feeds both, built once and reused
    across the whole grid.  Costs come out in units of hbar*omega, in which
    they depend on tau and omega only through the product tau*omega.  Each
    report carries the interval count and defect of its hardest grid point
    (the last one with the most intervals).
    """
    if tau_omega_grid is None:
        tau_omega_grid = DEFAULT_TAU_GRID
    taus = [float(t) for t in tau_omega_grid]
    if not taus:
        raise ValueError("tau*omega grid is empty")
    for t in taus:
        require_positive("tau*omega", t)
    reports = []
    for schedule in schedules:
        weights = lru_cache(maxsize=None)(partial(_weights, schedule))
        for mode in modes:
            if mode not in ("adiabatic", "superadiabatic"):
                raise ValueError(f"unknown mode {mode!r}")
            points = []
            worst = (0, 0.0)
            for tau_omega in taus:
                value, n_used, defect = _unit_cost(
                    weights, tau_omega if mode == "superadiabatic" else None
                )
                points.append((tau_omega, value))
                if n_used >= worst[0]:
                    worst = (n_used, defect)
            reports.append(
                CostReport(
                    schedule=schedule.name,
                    mode=mode,
                    grid=points,
                    quadrature_points=worst[0],
                    quadrature_defect=worst[1],
                )
            )
    return reports

"""Energetic cost: dual-route agreement, frozen integrals, scaling laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sagt
from sagt import cost
from sagt.model import HamiltonianFamily
from sagt.schedules import builtin_schedule, chi

import oracles
import strategies

KINDS = ("linear", "trigonometric", "exponential")

# Frozen via scipy.integrate.quad of 4*chi(s) at epsrel 1e-12 (the oracle is
# re-run below to keep the constants honest).
ADIABATIC_COST = {
    "linear": 3.246450480280461,
    "trigonometric": 4.0,
    "exponential": 2.80950263766697,
}


# Frozen via scipy.integrate.quad of 2 sqrt(1 + a(theta)^2) over [0, pi/2],
# a = (cos + sin) / (2 - sin 2 theta): the fixed-gauge limit of tau omega
# times the cost as tau omega -> 0, the same for every path on which theta
# runs monotonically from 0 to pi/2.
ENERGY_TIME_LIMIT = 4.493860769350516


def _turn_rate(theta):
    return (np.cos(theta) + np.sin(theta)) / (2.0 - np.sin(2.0 * theta))


def test_energy_time_limit_matches_quadrature_oracle():
    fresh = oracles.reference_quad(
        lambda t: 2.0 * np.sqrt(1.0 + _turn_rate(t) ** 2), 0.0, np.pi / 2
    )
    assert fresh == pytest.approx(ENERGY_TIME_LIMIT, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_fast_builtin_drives_reach_the_energy_time_limit(kind):
    sch = builtin_schedule(kind)
    near = [t * cost.cost_closed_form(sch, t) for t in (1e-3, 1e-4)]
    assert near[1] == pytest.approx(ENERGY_TIME_LIMIT, rel=1e-8)
    assert abs(near[1] - ENERGY_TIME_LIMIT) < abs(near[0] - ENERGY_TIME_LIMIT)


@settings(max_examples=15, deadline=None)
@given(sch=strategies.paths)
def test_fast_random_drives_reach_the_energy_time_limit(sch):
    # the excess over the limit is at most 4 (tau omega)^2 Int chi^2 / |theta'|,
    # under 2e-6 on these paths (chi <= 2.8, theta' >= 0.05 pi)
    assert 1e-4 * cost.cost_closed_form(sch, 1e-4) == pytest.approx(
        ENERGY_TIME_LIMIT, rel=1e-6
    )


@settings(max_examples=20, deadline=None)
@given(sch=strategies.paths, tau_omega=st.floats(-2.0, 3.0).map(lambda e: 10.0**e))
def test_superadiabatic_cost_is_at_least_the_adiabatic_cost(sch, tau_omega):
    # the velocity weight 4 theta'^2 (1 + a^2) / (tau omega)^2 only adds
    assert cost.cost_closed_form(sch, tau_omega) >= cost.adiabatic_cost(sch)


@pytest.mark.parametrize("kind", KINDS)
def test_adiabatic_cost_matches_quadrature_oracle(kind):
    sch = builtin_schedule(kind)
    frozen = ADIABATIC_COST[kind]
    fresh = oracles.reference_quad(lambda s: 4.0 * chi(sch, s))
    assert fresh == pytest.approx(frozen, abs=1e-10)
    assert cost.adiabatic_cost(sch) == pytest.approx(frozen, rel=1e-8)


def test_adiabatic_cost_scales_with_omega():
    sch = builtin_schedule("linear")
    assert cost.adiabatic_cost(sch, omega=2.5) == pytest.approx(
        2.5 * cost.adiabatic_cost(sch), rel=1e-12
    )


def test_constant_strength_schedule_costs_exactly_four():
    # the trigonometric drive keeps chi = 1, so the integrand is constant
    assert cost.adiabatic_cost(builtin_schedule("trigonometric")) == pytest.approx(
        4.0, abs=1e-10
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", [0.3, 1.0, 5.0])
def test_closed_form_matches_direct_route(kind, tau):
    sch = builtin_schedule(kind)
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), tau)
    direct = cost.cost_numeric(fam)
    closed = cost.cost_closed_form(sch, tau)
    assert closed == pytest.approx(direct, rel=1e-6)


ROTATION_TAU_OMEGAS = (0.1, 0.37, 1.0, 100.0)


@pytest.mark.parametrize("tau_omega", ROTATION_TAU_OMEGAS)
@pytest.mark.parametrize("kind", KINDS)
def test_cost_numeric_is_rotation_invariant(kind, tau_omega):
    # ||G H G^dag||_F = ||H||_F: the direct route pads the unrotated terms,
    # so a gate's rotation moves no bit of a cost
    seed = [KINDS.index(kind), ROTATION_TAU_OMEGAS.index(tau_omega)]
    u = sagt.random_unitary(2, np.random.default_rng(seed))
    g = sagt.embed_on_outputs(u / np.sqrt(np.linalg.det(u)), 1)  # a Haar SU(2)
    plain = sagt.single_sector_family(1.0, builtin_schedule(kind))
    rotated = sagt.superadiabatic_family(sagt.rotate_family(plain, g), tau_omega)
    assert cost.cost_numeric(rotated) == cost.cost_numeric(
        sagt.superadiabatic_family(plain, tau_omega)
    )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_a_rotated_matrix_grid_keeps_the_frobenius_norms(kind, n):
    # the invariance that lets the direct route skip the rotation, checked
    # on matrix_grid, which does rotate
    base = sagt.multi_sector_family(n, 1.0, builtin_schedule(kind))
    plain = sagt.superadiabatic_family(base, 0.37)
    rotated = sagt.rotate_family(plain, sagt.random_unitary(8**n, np.random.default_rng(n)))
    s = np.linspace(0.0, 1.0, 33)
    want = np.linalg.norm(plain.matrix_grid(s), axis=(1, 2))
    got = np.linalg.norm(rotated.matrix_grid(s), axis=(1, 2))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_cost_depends_only_on_the_duration_rate_product():
    sch = builtin_schedule("exponential")
    fast_strong = cost.cost_closed_form(sch, tau=5.0, omega=2.0)
    slow_weak = cost.cost_closed_form(sch, tau=10.0, omega=1.0)
    assert fast_strong / 2.0 == pytest.approx(slow_weak, rel=1e-10)


def test_mu_levels():
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError):
        cost.mu(sch, 0.5, 8)
    for m in range(4):
        assert cost.mu(sch, 0.3, m) == pytest.approx(
            cost.mu(sch, 0.3, m + 4), rel=1e-12
        )
    # top and bottom of each block are spectral mirror images
    assert cost.mu(sch, 0.3, 0) == pytest.approx(cost.mu(sch, 0.3, 3), rel=1e-8)
    dv = sagt.block_eigenvector_derivatives(sch, 0.3)
    for m in range(4):
        assert cost.mu(sch, 0.3, m) == pytest.approx(
            float(dv[:, m] @ dv[:, m]), rel=1e-12
        )


def test_a_level_index_that_is_not_whole_is_rejected_by_name():
    sch = builtin_schedule("trigonometric")
    with pytest.raises(ValueError, match="m must be a whole number, got 2.5"):
        cost.mu(sch, 0.3, 2.5)
    assert cost.mu(sch, 0.3, 3.0) == cost.mu(sch, 0.3, 3)


def test_cost_scaling_values():
    assert cost.cost_scaling(1) == 1.0
    assert cost.cost_scaling(2) == pytest.approx(4.0, abs=1e-14)
    assert cost.cost_scaling(3) == pytest.approx(8.0 * np.sqrt(3.0), rel=1e-14)
    with pytest.raises(ValueError):
        cost.cost_scaling(0)


def test_cost_scaling_reaches_the_end_of_the_float_range():
    # 2^{3(n-1)} n overflowed before its root was taken: n = 340-342 gave inf
    # and n = 343 an OverflowError, where g_n is about 2e154
    for n in range(1, 340):  # the bits of the old formula wherever it held
        assert cost.cost_scaling(n) == float(np.sqrt(2.0 ** (3 * (n - 1)) * n))
    for n in (340, 341, 342, 343, 500, 680):
        want = 2.0 ** (1.5 * (n - 1) - 600) * np.sqrt(n)  # g_n / 2^600, inside the range
        assert cost.cost_scaling(n) / 2.0**600 == pytest.approx(want, rel=1e-14)
    assert np.isfinite(cost.cost_scaling(680))
    for n in (681, 10**6):  # g_681 is about 2^1024.7
        with pytest.raises(ValueError, match=f"need 1 <= n <= 680, where g_n is a float, got {n}"):
            cost.cost_scaling(n)


def test_a_whole_int_past_the_float_range_is_refused_by_its_range():
    # float(10**400) overflows: the int must reach the range check as it is
    with pytest.raises(ValueError, match=r"need 1 <= n <= 680, where g_n is a float, got 10{400}$"):
        cost.cost_scaling(10**400)
    for n in (np.nan, np.inf):  # still not whole
        with pytest.raises(ValueError, match="n must be a whole number"):
            cost.cost_scaling(n)


def test_two_sector_cost_is_four_times_one_sector():
    sch = builtin_schedule("trigonometric")
    tau = 1.0
    double = cost.cost_multi(2, sch, tau)
    single = cost.cost_closed_form(sch, tau)
    assert double == pytest.approx(cost.cost_scaling(2) * single, rel=1e-6)


def test_cost_sweep_reports():
    schedules = [builtin_schedule(k) for k in KINDS]
    grid = [0.5, 5.0, 500.0]
    reports = cost.cost_sweep(schedules, grid)
    assert len(reports) == len(KINDS) * 2
    assert [r.schedule for r in reports[:2]] == ["linear", "linear"]
    assert [r.mode for r in reports[:2]] == ["adiabatic", "superadiabatic"]
    by_key = {(r.schedule, r.mode): r for r in reports}
    for kind in KINDS:
        flat = by_key[(kind, "adiabatic")]
        corrected = by_key[(kind, "superadiabatic")]
        assert [t for t, _ in flat.grid] == grid
        assert flat.quadrature_defect <= 1e-8
        # the velocity term can only add cost, and it dies off as tau grows
        for (_, a), (_, b) in zip(flat.grid, corrected.grid):
            assert b >= a - 1e-12
        costs = [c for _, c in corrected.grid]
        assert costs == sorted(costs, reverse=True)
        assert corrected.grid[-1][1] == pytest.approx(
            ADIABATIC_COST[kind], rel=1e-4
        )


def test_cost_sweep_matches_closed_form():
    sch = builtin_schedule("linear")
    (report,) = cost.cost_sweep([sch], [0.7], modes=("superadiabatic",))
    assert report.grid[0][1] == pytest.approx(
        cost.cost_closed_form(sch, 0.7), rel=1e-9
    )


def test_cost_sweep_is_deterministic():
    sch = builtin_schedule("exponential")
    a = cost.cost_sweep([sch], [0.2, 2.0])
    b = cost.cost_sweep([sch], [0.2, 2.0])
    assert [r.grid for r in a] == [r.grid for r in b]


def test_cost_sweep_validation():
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError):
        cost.cost_sweep([sch], [0.0, 1.0])
    with pytest.raises(ValueError):
        cost.cost_sweep([sch], [1.0], modes=("thermal",))
    for grid in ([], np.array([]), [1.0, float("nan")], [float("inf")], [-float("inf")]):
        with pytest.raises(ValueError):
            cost.cost_sweep([sch], grid)


def test_cost_validation():
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError):
        cost.cost_closed_form(sch, tau=-1.0)
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="tau must be finite"):
            cost.cost_closed_form(sch, tau=bad)
        with pytest.raises(ValueError, match="omega must be finite"):
            cost.cost_closed_form(sch, tau=1.0, omega=bad)
        with pytest.raises(ValueError, match="omega must be finite"):
            cost.adiabatic_cost(sch, omega=bad)
    with pytest.raises(ValueError):
        cost.cost_multi(0, sch, 1.0)


def test_default_grid():
    grid = np.asarray(cost.DEFAULT_TAU_GRID)
    assert grid.size == 60
    assert grid[0] == pytest.approx(0.1)
    assert grid[-1] == pytest.approx(1000.0)
    assert np.all(np.diff(np.log(grid)) > 0)


def test_quadrature_honours_its_budget():
    requested = []

    def restless(s):  # the value moves at every level and never settles
        requested.append(len(s))
        return np.full(len(s), float(len(requested)))

    with pytest.raises(RuntimeError, match="did not settle"):
        cost._converge(restless, 64)
    # 64 intervals first, then the new midpoints of each doubling
    assert requested[0] == 64 + 1
    assert requested[1:] == [64 * 2**k for k in range(len(requested) - 1)]
    assert sum(requested) - 1 == cost.MAX_QUAD_POINTS
    requested.clear()
    with pytest.raises(ValueError, match="quad_points"):
        cost._converge(restless, cost.MAX_QUAD_POINTS + 1)
    assert requested == []
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError, match="quad_points"):
        cost.cost_closed_form(sch, 1.0, quad_points=2 * cost.MAX_QUAD_POINTS)
    with pytest.raises(ValueError, match="quad_points"):
        cost.adiabatic_cost(sch, quad_points=2 * cost.MAX_QUAD_POINTS)


@pytest.mark.parametrize("kind", KINDS)
def test_adiabatic_costs_never_evaluate_the_velocity_weight(monkeypatch, kind):
    def never(*args, **kwargs):
        raise AssertionError("velocity_grid was called")

    monkeypatch.setattr(sagt.spectral, "velocity_grid", never)
    sch = builtin_schedule(kind)
    frozen = ADIABATIC_COST[kind]
    assert cost.adiabatic_cost(sch) == pytest.approx(frozen, rel=1e-8)
    [report] = cost.cost_sweep([sch], [0.1, 10.0], modes=("adiabatic",))
    assert [c for _, c in report.grid] == pytest.approx([frozen, frozen], rel=1e-8)


@pytest.mark.parametrize("route", ["plain", "rotated", "two-sector"])
def test_direct_route_evaluates_each_simpson_node_once(monkeypatch, route):
    sch = builtin_schedule("trigonometric")
    base = sagt.multi_sector_family(2 if route == "two-sector" else 1, 1.0, sch)
    if route == "rotated":
        gate = sagt.random_unitary(2, np.random.default_rng(3))
        base = sagt.rotate_family(base, sagt.embed_on_outputs(gate, 1))
    family = sagt.superadiabatic_family(base, 0.4)
    want = cost.cost_closed_form(sch, 0.4) * cost.cost_scaling(family.sectors)
    samples, chunks, levels, buffers = [], [], [], []
    sector_grid, pad, pad_buffer, simpson = (
        HamiltonianFamily.sector_matrix_grid,
        HamiltonianFamily._pad,
        HamiltonianFamily._pad_buffer,
        cost._simpson,
    )

    def counted_sector_grid(self, s_values):
        samples.append(np.array(s_values))
        return sector_grid(self, s_values)

    def counted_pad(self, h, out=None):
        chunks.append(len(h))
        assert any(out is buffer for buffer in buffers)
        return pad(self, h, out)

    def counted_pad_buffer(self, count):
        buffers.append(pad_buffer(self, count))
        return buffers[-1]

    def counted_simpson(values, width):
        levels.append(len(values))
        return simpson(values, width)

    monkeypatch.setattr(HamiltonianFamily, "sector_matrix_grid", counted_sector_grid)
    monkeypatch.setattr(HamiltonianFamily, "_pad", counted_pad)
    monkeypatch.setattr(HamiltonianFamily, "_pad_buffer", counted_pad_buffer)
    monkeypatch.setattr(cost, "_simpson", counted_simpson)
    assert cost.cost_numeric(family) == pytest.approx(want, rel=1e-10)
    # one sector sample per Simpson level, padded in chunks
    assert len(levels) >= 2 and levels[0] == 64 + 1
    assert len(samples) == len(levels)
    nodes = np.concatenate(samples)
    assert len(nodes) == levels[-1]  # the final interval count + 1
    assert len(np.unique(nodes)) == len(nodes)
    np.testing.assert_array_equal(np.sort(nodes), np.linspace(0.0, 1.0, len(nodes)))
    per_call = cost.NORM_CHUNK // family.dim**2
    assert sum(chunks) == len(nodes)
    assert all(chunk <= per_call for chunk in chunks)
    # every chunk is padded into the one buffer of per_call entries
    assert len(buffers) == 1 and len(buffers[0][0]) == per_call


@pytest.mark.parametrize("quad_points", [64.7, 0, -5, np.inf, np.nan])
@pytest.mark.parametrize(
    "price",
    [
        lambda sch, q: cost.cost_closed_form(sch, 1.0, quad_points=q),
        lambda sch, q: cost.adiabatic_cost(sch, quad_points=q),
        lambda sch, q: cost.cost_numeric(sagt.single_sector_family(1.0, sch), q),
        lambda sch, q: cost.cost_multi(2, sch, 1.0, quad_points=q),
        lambda sch, q: cost._converge(sch.eta_i, q),
    ],
    ids=["closed-form", "adiabatic", "numeric", "multi", "converge"],
)
def test_a_quad_points_that_cannot_be_honoured_is_refused(price, quad_points):
    def never(s):
        raise AssertionError("sampled before quad_points was checked")

    sch = sagt.Schedule(name="never", eta_i=never, eta_f=never, deta_i=never, deta_f=never)
    with pytest.raises(ValueError, match="quad_points"):
        price(sch, quad_points)


# Interval counts of the parent cost_sweep on DEFAULT_TAU_GRID, per schedule:
# (adiabatic, superadiabatic).
SWEEP_QUADRATURE_POINTS = {
    "linear": (128, 256),
    "trigonometric": (128, 128),
    "exponential": (128, 256),
}


def test_sweep_matches_the_pointwise_costs_on_the_default_grid():
    schedules = [builtin_schedule(kind) for kind in KINDS]
    reports = cost.cost_sweep(schedules)
    assert [(r.schedule, r.mode) for r in reports] == [
        (kind, mode) for kind in KINDS for mode in ("adiabatic", "superadiabatic")
    ]
    for report in reports:
        sch = builtin_schedule(report.schedule)
        taus = [t for t, _ in report.grid]
        assert taus == [float(t) for t in cost.DEFAULT_TAU_GRID]
        adiabatic = report.mode == "adiabatic"
        for t, value in report.grid:
            want = cost.adiabatic_cost(sch) if adiabatic else cost.cost_closed_form(sch, t)
            assert value == pytest.approx(want, rel=1e-14, abs=0)
        points = SWEEP_QUADRATURE_POINTS[report.schedule][0 if adiabatic else 1]
        assert report.quadrature_points == points
        assert 0.0 <= report.quadrature_defect <= cost.QUAD_RTOL


@pytest.mark.filterwarnings("error")
def test_a_tau_omega_whose_square_underflows_is_refused_by_name():
    # the velocity weight over (tau omega)^2 overflowed, and the quadrature ran
    # to its cap with RuntimeWarnings before it gave up; the least duration runs
    sch = sagt.builtin_schedule("linear")
    for tau, omega in ((1e-155, 1.0), (1e-50, 1e-50)):
        with pytest.raises(ValueError, match=r"tau\*omega must be at least"):
            cost.cost_closed_form(sch, tau, omega)
    with pytest.raises(ValueError, match=r"tau\*omega must be at least"):
        cost.cost_sweep([sch], [1.0, 1e-200])
    least = sagt.operators.MIN_DURATION
    assert least * cost.cost_closed_form(sch, least) == pytest.approx(ENERGY_TIME_LIMIT, rel=1e-6)
    # a tau*omega that overflows to inf is still the bare drive's cost
    assert cost.cost_closed_form(sch, 1e300, 1e10) == 1e10 * cost.adiabatic_cost(sch)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1e-165, 1e160])
@pytest.mark.parametrize("tau_omega", [None, 1e90], ids=["bare", "dressed"])
def test_direct_route_norms_past_the_float_range_scale_with_omega(omega, tau_omega):
    # the squares of the dense entries underflowed to a cost of 0.0 at
    # omega = 1e-165 and overflowed to a quadrature that did not settle at
    # omega = 1e160; tau*omega = 1e90 keeps tau a duration at both omega
    sch = builtin_schedule("linear")

    def costs(omega):
        one = sagt.single_sector_family(omega, sch)
        two = sagt.multi_sector_family(2, omega, sch)
        if tau_omega is None:
            return cost.cost_numeric(one), cost.cost_numeric(two)
        tau = tau_omega / omega
        return (
            cost.cost_numeric(sagt.superadiabatic_family(one, tau)),
            cost.cost_multi(2, sch, tau, omega),
        )

    for far, near in zip(costs(omega), costs(1.0)):
        assert far == pytest.approx(omega * near, rel=1e-12, abs=0)


@pytest.mark.filterwarnings("error")
def test_a_tau_omega_whose_square_overflows_is_the_bare_drive_without_a_warning():
    sch = builtin_schedule("linear")
    assert cost.cost_closed_form(sch, 1e155) == cost.adiabatic_cost(sch)
    [flat, dressed] = cost.cost_sweep([sch], [1.0, 1e200])
    assert dressed.grid[1][1] == flat.grid[1][1] == cost.adiabatic_cost(sch)


@pytest.mark.filterwarnings("error")
def test_an_omega_whose_cost_overflows_is_refused_by_name():
    # both returned inf without a word
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError, match="omega must keep the cost finite, got 1e"):
        cost.cost_closed_form(sch, 1.0, 1e308)
    with pytest.raises(ValueError, match="omega must keep the cost finite, got 1e"):
        cost.adiabatic_cost(sch, 1e308)
    assert cost.adiabatic_cost(sch, 1e300) == 1e300 * cost.adiabatic_cost(sch)


# Interval counts of cost_sweep on REPEATED_GRID, per schedule: (adiabatic,
# superadiabatic), as each lone tau*omega takes them.
REPEATED_GRID = [0.3, 2.0, 0.3, 1e3, 2.0]
REPEATED_QUADRATURE_POINTS = {
    "linear": (128, 128),
    "trigonometric": (128, 128),
    "exponential": (128, 256),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_sweep_keeps_the_bits_of_each_lone_cost_on_a_grid_with_repeats(kind):
    # a sweep integrates each distinct tau*omega once, the bare drive's
    # included, and maps the values back onto its grid in order
    sch = builtin_schedule(kind)
    flat, dressed = cost.cost_sweep([sch], REPEATED_GRID)
    assert [t for t, _ in flat.grid] == [t for t, _ in dressed.grid] == REPEATED_GRID
    assert [c for _, c in flat.grid] == [cost.adiabatic_cost(sch)] * len(REPEATED_GRID)
    assert [c for _, c in dressed.grid] == [cost.cost_closed_form(sch, t) for t in REPEATED_GRID]
    points = REPEATED_QUADRATURE_POINTS[kind]
    assert (flat.quadrature_points, dressed.quadrature_points) == points
    for report, taus in ((flat, [np.inf]), (dressed, REPEATED_GRID)):
        values, used, defects = cost._unit_costs(sch, taus)
        worst = np.flatnonzero(used == used.max())[-1]
        assert report.quadrature_defect == defects[worst]

"""Drive schedules: boundary conditions, validation, and the mixing angle."""

import numpy as np
import pytest

import sagt
from sagt.schedules import Schedule, builtin_schedule, chi, grid_eval, make_schedule

KINDS = ("linear", "trigonometric", "exponential")

# Frozen from the closed form sqrt(2) * (sqrt(e) - 1) / (e - 1): both
# exponential branches take the same value at the midpoint, so the mixing
# strength there is that common value times sqrt(2).
EXP_ETA_HALF = 0.3775406687981455
EXP_CHI_HALF = 0.5339231341617462


@pytest.mark.parametrize("kind", KINDS)
def test_boundary_values(kind):
    sch = builtin_schedule(kind)
    assert sch.eta_i(0.0) == pytest.approx(1.0, abs=1e-12)
    assert sch.eta_i(1.0) == pytest.approx(0.0, abs=1e-12)
    assert sch.eta_f(0.0) == pytest.approx(0.0, abs=1e-12)
    assert sch.eta_f(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_declared_derivatives_match_finite_differences(kind):
    sch = builtin_schedule(kind)
    h = 1e-6
    for s in np.linspace(0.05, 0.95, 19):
        fd_i = (sch.eta_i(s + h) - sch.eta_i(s - h)) / (2 * h)
        fd_f = (sch.eta_f(s + h) - sch.eta_f(s - h)) / (2 * h)
        assert sch.deta_i(s) == pytest.approx(fd_i, abs=1e-8)
        assert sch.deta_f(s) == pytest.approx(fd_f, abs=1e-8)


def test_chi_never_closes():
    for kind in KINDS:
        sch = builtin_schedule(kind)
        values = chi(sch, np.linspace(0.0, 1.0, 1001))
        assert np.min(values) > 0.5


def test_chi_known_values():
    lin = builtin_schedule("linear")
    assert chi(lin, 0.5) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    trig = builtin_schedule("trigonometric")
    s = np.linspace(0.0, 1.0, 257)
    np.testing.assert_allclose(chi(trig, s), 1.0, atol=1e-12)
    exp = builtin_schedule("exponential")
    assert exp.eta_f(0.5) == pytest.approx(EXP_ETA_HALF, abs=1e-15)
    assert chi(exp, 0.5) == pytest.approx(EXP_CHI_HALF, abs=1e-15)
    closed = np.sqrt(2.0) * (np.sqrt(np.e) - 1.0) / (np.e - 1.0)
    assert EXP_CHI_HALF == pytest.approx(closed, abs=1e-15)


def test_chi_rejects_out_of_domain():
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError):
        chi(sch, -0.01)
    with pytest.raises(ValueError):
        chi(sch, np.array([0.0, 1.0001]))
    with pytest.raises(ValueError):
        chi(sch, np.array([0.0, np.nan]))


def _scalar_entry_points(sch, s):
    fam = sagt.single_sector_family(1.0, sch)
    dressed = sagt.superadiabatic_family(fam, 1.0)
    return {
        "sector_matrix": lambda: dressed.sector_matrix(s),
        "matrix": lambda: fam.matrix(s),
        "adiabatic_reference": lambda: sagt.adiabatic_reference(fam, s, tau=1.0),
        "exact_sector_propagator": lambda: sagt.exact_sector_propagator(sch, 1.0, s=s),
        "chi": lambda: chi(sch, s),
        "block_hamiltonian": lambda: sagt.block_hamiltonian(sch, s),
        "block_eigenvectors": lambda: sagt.block_eigenvectors(sch, s),
        "block_eigenvector_derivatives": lambda: sagt.block_eigenvector_derivatives(sch, s),
        "block_cd": lambda: sagt.block_cd(sch, s, 1.0),
        "sector_cd": lambda: sagt.sector_cd(sch, s, 1.0),
        "mu": lambda: sagt.cost.mu(sch, s, 0),
    }


@pytest.mark.parametrize("s", [float("nan"), -0.01, 1.0001, 2.0])
def test_every_scalar_entry_point_keeps_to_the_unit_interval(s):
    sch = builtin_schedule("exponential")
    for name, call in _scalar_entry_points(sch, s).items():
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            call()
            raise AssertionError(f"{name} accepted s={s}")


def test_scalar_entry_points_take_both_endpoints():
    sch = builtin_schedule("exponential")
    for s in (0.0, 1.0):
        for call in _scalar_entry_points(sch, s).values():
            assert np.all(np.isfinite(call()))


def test_builtin_schedule_cached_and_validated():
    a = builtin_schedule("linear")
    assert builtin_schedule("linear") is a
    with pytest.raises(ValueError):
        builtin_schedule("cubic")


def test_make_schedule_rejects_bad_boundaries():
    with pytest.raises(ValueError):
        make_schedule(
            "shifted",
            eta_i=lambda s: 1.0 - 0.5 * s,  # ends at 0.5, not 0
            eta_f=lambda s: s,
            deta_i=lambda s: -0.5 + 0.0 * s,
            deta_f=lambda s: 1.0 + 0.0 * s,
        )


def test_make_schedule_rejects_closing_gap():
    # both branches vanish at s = 1/2 while still honoring the endpoints
    with pytest.raises(ValueError):
        make_schedule(
            "pinched",
            eta_i=lambda s: (1.0 - s) * (1.0 - 2.0 * s),
            eta_f=lambda s: s * (2.0 * s - 1.0),
            deta_i=lambda s: 4.0 * s - 3.0,
            deta_f=lambda s: 4.0 * s - 1.0,
        )


def test_make_schedule_rejects_inconsistent_derivatives():
    with pytest.raises(ValueError):
        make_schedule(
            "lying",
            eta_i=lambda s: 1.0 - s,
            eta_f=lambda s: s,
            deta_i=lambda s: 0.0 * s,  # claims flat, is not
            deta_f=lambda s: 1.0 + 0.0 * s,
        )


def test_make_schedule_accepts_custom():
    sch = make_schedule(
        "smoothstep",
        eta_i=lambda s: 1.0 - s * s * (3.0 - 2.0 * s),
        eta_f=lambda s: s * s * (3.0 - 2.0 * s),
        deta_i=lambda s: -6.0 * s * (1.0 - s),
        deta_f=lambda s: 6.0 * s * (1.0 - s),
    )
    assert sch.name == "smoothstep"
    assert chi(sch, 0.5) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_grid_eval_handles_scalar_only_callables():
    def scalar_only(s):
        if np.ndim(s) != 0:
            raise TypeError("scalars only")
        return float(s) ** 2

    out = grid_eval(scalar_only, np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(out, [0.0, 0.25, 1.0])
    assert grid_eval(scalar_only, 0.5) == pytest.approx(0.25)


def test_grid_eval_surfaces_errors_of_array_callables():
    # a real bug on the array path is raised, not retried point by point
    calls = []

    def broken(s):
        calls.append(np.ndim(s))
        if np.ndim(s) != 0:
            raise ZeroDivisionError("bug in a custom schedule")
        return float(s)

    with pytest.raises(ZeroDivisionError):
        grid_eval(broken, np.array([0.0, 0.5, 1.0]))
    assert calls == [1]


def test_raw_schedule_constructor_skips_validation():
    # plateau "schedule" used by other tests to freeze the drive in place;
    # it violates the endpoint contract on purpose
    frozen = Schedule(
        name="plateau",
        eta_i=lambda s: 0.6 + 0.0 * s,
        eta_f=lambda s: 0.8 + 0.0 * s,
        deta_i=lambda s: 0.0 * s,
        deta_f=lambda s: 0.0 * s,
    )
    assert chi(frozen, 0.3) == pytest.approx(1.0, rel=1e-12)


def test_package_reexports():
    assert sagt.builtin_schedule is builtin_schedule
    assert sagt.chi is chi

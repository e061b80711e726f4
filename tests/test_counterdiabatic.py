"""Velocity correction terms that suppress inter-level leakage.

The key independent check rebuilds the correction from first-order
perturbation theory -- matrix elements of the analytic drive derivative
divided by level splittings -- and compares it with the frame-derivative
construction used by the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sagt
from sagt import counterdiabatic, spectral
from sagt.schedules import Schedule, builtin_schedule, sample

import strategies

KINDS = ("linear", "trigonometric", "exponential")
GRID = np.linspace(0.0, 1.0, 21)


def _plateau():
    return Schedule(
        name="plateau",
        eta_i=lambda s: 0.6 + 0.0 * s,
        eta_f=lambda s: 0.8 + 0.0 * s,
        deta_i=lambda s: 0.0 * s,
        deta_f=lambda s: 0.0 * s,
    )


@pytest.mark.parametrize("kind", KINDS)
def test_block_correction_hermitian_traceless(kind):
    sch = builtin_schedule(kind)
    blocks = counterdiabatic.block_cd_grid(sample(sch, GRID), tau=1.0)
    for hcd in blocks:
        np.testing.assert_allclose(hcd, hcd.conj().T, atol=1e-10)
        assert abs(np.trace(hcd)) < 1e-10
        # a real smooth frame has no radial motion: the diagonal vanishes
        assert np.max(np.abs(np.diag(hcd))) < 1e-8


def test_block_correction_scales_inversely_with_duration():
    sch = builtin_schedule("linear")
    slow = counterdiabatic.block_cd(sch, 0.4, tau=10.0)
    fast = counterdiabatic.block_cd(sch, 0.4, tau=1.0)
    np.testing.assert_allclose(10.0 * slow, fast, atol=1e-12)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "build",
    [counterdiabatic.block_cd, counterdiabatic.sector_cd, counterdiabatic.assembled_register_cd],
    ids=["block_cd", "sector_cd", "assembled_register_cd"],
)
def test_velocity_term_rejects_a_duration_that_is_not_finite_and_positive(build, tau):
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        build(builtin_schedule("linear"), 0.4, tau)


def test_plateau_drive_needs_no_correction():
    blocks = counterdiabatic.block_cd_grid(sample(_plateau(), GRID), tau=1.0)
    assert np.max(np.abs(blocks)) < 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_matches_perturbative_construction(kind):
    # independent route: <m| dH/ds |n> / (E_n - E_m) between split levels
    sch = builtin_schedule(kind)
    rate = Schedule(
        name="rate",
        eta_i=sch.deta_i,
        eta_f=sch.deta_f,
        deta_i=lambda s: 0.0 * s,
        deta_f=lambda s: 0.0 * s,
    )
    tau = 2.0
    for s in (0.1, 0.45, 0.8):
        v = spectral.block_eigenvectors(sch, s)
        energies = spectral.block_energies(sch, s)
        dh = spectral.block_hamiltonian(rate, s)  # linear in the amplitudes
        hcd = counterdiabatic.block_cd(sch, s, tau=tau)
        ours = v.conj().T @ hcd @ v
        for m in range(4):
            for n in range(4):
                split = energies[n] - energies[m]
                if abs(split) < 1e-9:
                    continue
                element = 1j / tau * (v[:, m].conj() @ dh @ v[:, n]) / split
                assert abs(ours[m, n] - element) < 1e-8


def test_sector_correction_embeds_both_parity_blocks():
    sch = builtin_schedule("trigonometric")
    for s in (0.2, 0.6):
        block = counterdiabatic.block_cd(sch, s, tau=1.0)
        np.testing.assert_allclose(
            counterdiabatic.sector_cd(sch, s, tau=1.0),
            spectral.embed_blocks(block, block),
            atol=1e-12,
        )


def test_embedded_frame_is_unitary_and_parity_ordered():
    sch = builtin_schedule("linear")
    f = counterdiabatic.embedded_frame(sch, 0.3)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(8), atol=1e-10)
    v = spectral.block_eigenvectors(sch, 0.3)
    for m in range(4):
        np.testing.assert_allclose(
            f[:, m], spectral.embed_block_vector(v[:, m], +1), atol=1e-12
        )
        np.testing.assert_allclose(
            f[:, 4 + m], spectral.embed_block_vector(v[:, m], -1), atol=1e-12
        )


def test_assembled_register_route_agrees_single_sector():
    sch = builtin_schedule("exponential")
    for s in (0.15, 0.5, 0.85):
        np.testing.assert_allclose(
            counterdiabatic.assembled_register_cd(sch, s, tau=1.0, n=1),
            counterdiabatic.sector_cd(sch, s, tau=1.0),
            atol=1e-8,
        )


def test_assembled_register_route_agrees_two_sectors():
    # product-frame derivative: the register correction is the sum of
    # padded per-sector corrections
    sch = builtin_schedule("linear")
    from sagt.operators import place_on_qubits

    for s in (0.3, 0.7):
        sector = counterdiabatic.sector_cd(sch, s, tau=1.0)
        summed = place_on_qubits(sector, [0, 1, 2], 6) + place_on_qubits(
            sector, [3, 4, 5], 6
        )
        np.testing.assert_allclose(
            counterdiabatic.assembled_register_cd(sch, s, tau=1.0, n=2),
            summed,
            atol=1e-8,
        )


def test_assembled_register_route_follows_rotation():
    rng = np.random.default_rng(41)
    g = sagt.embed_on_outputs(sagt.random_unitary(2, rng), 1)
    sch = builtin_schedule("trigonometric")
    s = 0.4
    plain = counterdiabatic.assembled_register_cd(sch, s, tau=1.0, n=1)
    rotated = counterdiabatic.assembled_register_cd(
        sch, s, tau=1.0, n=1, rotation=g
    )
    np.testing.assert_allclose(rotated, g @ plain @ g.conj().T, atol=1e-9)


def test_superadiabatic_family_adds_the_correction():
    sch = builtin_schedule("linear")
    base = sagt.single_sector_family(1.0, sch)
    sa = sagt.superadiabatic_family(base, tau=2.0)
    assert sa.mode == "superadiabatic"
    assert sa.tau == 2.0
    assert base.mode == "adiabatic"  # base untouched
    for s in (0.25, 0.75):
        np.testing.assert_allclose(
            sa.matrix(s),
            base.matrix(s) + counterdiabatic.sector_cd(sch, s, tau=2.0),
            atol=1e-10,
        )
        h = sa.matrix(s)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-10)


def test_superadiabatic_family_multi_sector():
    sch = builtin_schedule("trigonometric")
    base = sagt.multi_sector_family(2, 1.0, sch)
    sa = sagt.superadiabatic_family(base, tau=1.0)
    s = 0.5
    np.testing.assert_allclose(
        sa.matrix(s),
        base.matrix(s)
        + counterdiabatic.assembled_register_cd(sch, s, tau=1.0, n=2),
        atol=1e-8,
    )


def test_superadiabatic_family_validation():
    base = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    for tau in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tau"):
            sagt.superadiabatic_family(base, tau=tau)
    sa = sagt.superadiabatic_family(base, tau=1.0)
    with pytest.raises(ValueError):
        sagt.superadiabatic_family(sa, tau=1.0)  # already corrected


@settings(max_examples=15, deadline=None)
@given(sch=strategies.paths, s=st.floats(0.0, 1.0), tau=st.floats(0.1, 10.0))
def test_sector_correction_on_random_paths(sch, s, tau):
    hcd = counterdiabatic.sector_cd(sch, s, tau)
    np.testing.assert_allclose(
        hcd, counterdiabatic.assembled_register_cd(sch, s, tau), atol=1e-7
    )
    np.testing.assert_allclose(hcd, hcd.conj().T, atol=1e-12)
    assert abs(np.trace(hcd)) < 1e-12
    # the same path frozen at s: nothing moves, so nothing to compensate
    ei, ef = float(sch.eta_i(s)), float(sch.eta_f(s))
    frozen = Schedule(
        name="frozen",
        eta_i=lambda x: ei + 0.0 * x,
        eta_f=lambda x: ef + 0.0 * x,
        deta_i=lambda x: 0.0 * x,
        deta_f=lambda x: 0.0 * x,
    )
    assert np.max(np.abs(counterdiabatic.sector_cd(frozen, s, tau))) == 0.0


def _covariance_defect(sch, n, tau, s, seed):
    """Largest entry of the frame-assembled correction of the register
    rotated by a seeded random gate, plus the rotated drive, minus the
    conjugated superadiabatic generator."""
    gate = sagt.random_unitary(2**n, np.random.default_rng(seed))
    g = sagt.embed_on_outputs(gate, n)
    base = sagt.multi_sector_family(n, 1.0, sch)
    built = counterdiabatic.assembled_register_cd(sch, s, tau, n=n, rotation=g)
    built = built + sagt.rotate_family(base, g).matrix(s)
    conjugated = g @ sagt.superadiabatic_family(base, tau).matrix(s) @ g.conj().T
    return np.abs(built - conjugated).max()


@settings(max_examples=25, deadline=None)
@given(
    sch=strategies.paths,
    n=st.integers(1, 2),
    tau=st.floats(0.1, 20.0),
    s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotated_correction_is_covariant_on_random_paths(sch, n, tau, s, seed):
    # the route's finite-difference roundoff, about eps / _CHECK_STEP,
    # enters through the 1/tau of the correction, so the bound scales with it
    assert _covariance_defect(sch, n, tau, s, seed) <= 3e-9 / tau


def test_rotated_correction_at_the_endpoints_of_a_fast_run():
    # one-sided differences at s = 0 and 1 with tau*omega = 0.1: the
    # finite-difference step balances their truncation against roundoff
    sch = builtin_schedule("trigonometric")
    worst = max(
        _covariance_defect(sch, n, 0.1, s, seed)
        for n in (1, 2)
        for seed in range(8)
        for s in (0.0, 1.0)
    )
    assert worst <= 5e-9

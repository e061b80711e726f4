"""Block reduction and the smooth instantaneous eigenframe.

The frame carries the whole protocol, so it gets the heaviest independent
checking: eigen-residuals against the block Hamiltonian, agreement with a
plain dense diagonalization, continuity along the sweep, and agreement of
the closed-form derivatives with a finite difference of the frame.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import sagt
from sagt import cost, counterdiabatic, spectral
from sagt.schedules import Schedule, builtin_schedule, chi, make_schedule, sample

import oracles
import strategies

KINDS = ("linear", "trigonometric", "exponential")
GRID = np.linspace(0.0, 1.0, 41)

# Frozen from the level law: twice the frozen midpoint mixing strength of
# the exponential schedule (see test_schedules.EXP_CHI_HALF).
EXP_GAP_HALF = 1.0678462683234924


def _schedules():
    return [builtin_schedule(k) for k in KINDS]


def test_block_bases_partition_by_bit_parity():
    assert sorted(spectral.PLUS_BASIS + spectral.MINUS_BASIS) == list(range(8))
    for idx in spectral.PLUS_BASIS:
        assert bin(idx).count("1") % 2 == 0
    for idx in spectral.MINUS_BASIS:
        assert bin(idx).count("1") % 2 == 1


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_reassemble_the_full_generator(kind):
    sch = builtin_schedule(kind)
    fam = sagt.single_sector_family(1.0, sch)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        block = spectral.block_hamiltonian(sch, s)
        full = spectral.embed_blocks(block, block)
        np.testing.assert_allclose(full, fam.matrix(s), atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_block_hamiltonian_on_an_array_stacks_the_scalar_calls(kind):
    sch = builtin_schedule(kind)
    stacked = np.stack([spectral.block_hamiltonian(sch, s, 1.5) for s in GRID])
    batch = spectral.block_hamiltonian(sch, GRID, 1.5)
    assert batch.shape == (len(GRID), 4, 4) and batch.dtype == complex
    np.testing.assert_array_equal(batch, stacked)
    assert spectral.block_hamiltonian(sch, 0.5).shape == (4, 4)


@pytest.mark.parametrize("kind", KINDS)
def test_block_energies_match_dense_diagonalization(kind):
    sch = builtin_schedule(kind)
    for s in GRID:
        block = spectral.block_hamiltonian(sch, s)
        np.testing.assert_allclose(
            oracles.dense_levels(block), spectral.block_energies(sch, s), atol=1e-8
        )


@pytest.mark.parametrize("kind", KINDS)
def test_level_law(kind):
    sch = builtin_schedule(kind)
    for omega in (1.0, 2.5):
        for s in (0.1, 0.5, 0.9):
            c = chi(sch, s)
            expected = np.array([-2 * omega * c, 0.0, 0.0, 2 * omega * c])
            np.testing.assert_allclose(
                spectral.block_energies(sch, s, omega=omega), expected, atol=1e-12
            )
            assert spectral.gap(sch, s, omega=omega) == pytest.approx(
                2 * omega * c, rel=1e-12
            )


def test_gap_frozen_value():
    assert spectral.gap(builtin_schedule("exponential"), 0.5) == pytest.approx(
        EXP_GAP_HALF, abs=1e-12
    )


@pytest.mark.parametrize("kind", KINDS)
def test_eigen_residuals(kind):
    sch = builtin_schedule(kind)
    frames = spectral.frame_grid(sample(sch, GRID))
    for s, v in zip(GRID, frames):
        block = spectral.block_hamiltonian(sch, s)
        energies = spectral.block_energies(sch, s)
        residual = block @ v - v * energies[None, :]
        assert np.max(np.abs(residual)) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
def test_frame_orthonormal(kind):
    frames = spectral.frame_grid(sample(builtin_schedule(kind), GRID))
    gram = np.einsum("sik,sil->skl", frames.conj(), frames)
    defect = np.max(np.abs(gram - np.eye(4)[None]))
    assert defect < 1e-10


def test_endpoint_frames_are_bell_like():
    v0 = spectral.block_eigenvectors(builtin_schedule("linear"), 0.0)
    np.testing.assert_allclose(
        np.abs(v0[:, 0]), np.array([1, 1, 0, 0]) / np.sqrt(2), atol=1e-12
    )
    v1 = spectral.block_eigenvectors(builtin_schedule("linear"), 1.0)
    np.testing.assert_allclose(
        np.abs(v1[:, 0]), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12
    )


def _assert_frame_matches_dense(block, ours, tol=1e-9):
    _, dense = oracles.dense_frame(block)
    # extreme levels are non-degenerate: same ray
    for col in (0, 3):
        assert abs(np.vdot(dense[:, col], ours[:, col])) == pytest.approx(1.0, abs=tol)
    # middle pair is degenerate: compare the spanned subspace
    p_dense = oracles.subspace_projector(dense[:, 1:3])
    p_ours = oracles.subspace_projector(ours[:, 1:3])
    assert np.max(np.abs(p_dense - p_ours)) < tol


@pytest.mark.parametrize("kind", KINDS)
def test_frame_matches_dense_diagonalization(kind):
    sch = builtin_schedule(kind)
    for s in (0.05, 0.35, 0.65, 0.95):
        block = spectral.block_hamiltonian(sch, s)
        _assert_frame_matches_dense(block, spectral.block_eigenvectors(sch, s))


@settings(max_examples=25, deadline=None)
@given(sch=strategies.paths)
def test_frame_and_velocity_weight_on_random_paths(sch):
    s = np.linspace(0.0, 1.0, 17)
    path = sample(sch, s)
    frames = spectral.frame_grid(path)
    for block, v in zip(spectral.drive_grid(path, 1.0), frames):
        _assert_frame_matches_dense(block, v, tol=1e-12)
    # the scalar cost weight 4 theta'^2 (1 + a^2) on the same 16-interval grid
    _, scalar = cost._weights(sch, s)
    k = spectral.velocity_grid(path)
    np.testing.assert_allclose(2.0 * np.einsum("sij,sij->s", k, k), scalar, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    sch=strategies.paths,
    s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300).map(np.array),
)
def test_frame_grid_is_batch_invariant(sch, s):
    # a run's observer trace evaluates its checkpoints in one batch and is
    # compared with single points, bitwise
    frames = spectral.frame_grid(sample(sch, s))
    for i in range(len(s)):
        assert np.array_equal(frames[i], spectral.frame_grid(sample(sch, s[i : i + 1]))[0])


def _long_way():
    """theta = -(3 pi / 2) s: from eta_i = 1 to eta_f = 1 clockwise, through
    theta = -pi/2, where chi + eta_f = 0, and theta = -pi."""
    w = 1.5 * np.pi
    return make_schedule(
        "long-way",
        eta_i=lambda s: np.cos(w * np.asarray(s, dtype=float)),
        eta_f=lambda s: -np.sin(w * np.asarray(s, dtype=float)),
        deta_i=lambda s: -w * np.sin(w * np.asarray(s, dtype=float)),
        deta_f=lambda s: -w * np.cos(w * np.asarray(s, dtype=float)),
    )


@pytest.mark.parametrize(
    "s", [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0 + 1e-9], ids=["half-pi", "pi", "past-pi"]
)
def test_long_way_frame_is_an_eigenframe(s):
    sch = _long_way()
    v = spectral.block_eigenvectors(sch, s)
    assert np.all(np.isfinite(v))
    assert np.abs(v.T @ v - np.eye(4)).max() < 1e-14
    block = spectral.block_hamiltonian(sch, s)
    residual = block @ v - v * spectral.block_energies(sch, s)[None, :]
    assert np.abs(residual).max() < 1e-14
    _assert_frame_matches_dense(block, v, tol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_frame_continuity(kind):
    # a globally smooth gauge: no sign flips, no basis swaps along the sweep
    sch = builtin_schedule(kind)
    delta = 1e-4
    s = np.linspace(0.0, 1.0 - delta, 101)
    ahead = spectral.frame_grid(sample(sch, s + delta))
    here = spectral.frame_grid(sample(sch, s))
    jumps = np.linalg.norm(ahead - here, axis=(1, 2))
    assert np.max(jumps) <= 100 * delta


def _central_difference_frame(schedule, s, h=1e-6):
    # second order: central inside, one-sided at the two endpoint bands
    f = lambda x: spectral.frame_grid(sample(schedule, x))
    out = (f(np.clip(s + h, 0, 1)) - f(np.clip(s - h, 0, 1))) / (2 * h)
    lo, hi = s < h, s > 1.0 - h
    out[lo] = (-3 * f(s[lo]) + 4 * f(s[lo] + h) - f(s[lo] + 2 * h)) / (2 * h)
    out[hi] = (3 * f(s[hi]) - 4 * f(s[hi] - h) + f(s[hi] - 2 * h)) / (2 * h)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_exact_derivative_matches_central_difference(kind):
    sch = builtin_schedule(kind)
    s = np.linspace(0.0, 1.0, 2001)
    fd = _central_difference_frame(sch, s)
    assert np.max(np.abs(spectral.frame_derivative_grid(sample(sch, s)) - fd)) < 1e-9
    # the block correction (i/tau) V' V^T by the same difference route
    v = spectral.frame_grid(sample(sch, s))
    k = np.einsum("...ik,...jk->...ij", fd, v)
    route = 0.5j * (k - np.swapaxes(k, -1, -2))
    exact = sagt.counterdiabatic.block_cd_grid(sample(sch, s), 1.0)
    assert np.max(np.abs(exact - route)) < 1e-9


def test_derivatives_preserve_normalization():
    sch = builtin_schedule("trigonometric")
    s = np.linspace(0.0, 1.0, 21)
    v = spectral.frame_grid(sample(sch, s))
    dv = spectral.frame_derivative_grid(sample(sch, s))
    radial = np.einsum("sim,sim->sm", v.conj(), dv)
    assert np.max(np.abs(radial)) < 1e-8


def _plateau():
    return Schedule(
        name="plateau",
        eta_i=lambda s: 0.6 + 0.0 * s,
        eta_f=lambda s: 0.8 + 0.0 * s,
        deta_i=lambda s: 0.0 * s,
        deta_f=lambda s: 0.0 * s,
    )


def test_plateau_drive_has_static_frame():
    dv = spectral.frame_derivative_grid(sample(_plateau(), np.linspace(0.0, 1.0, 11)))
    assert np.max(np.abs(dv)) < 1e-9


def _families(sch, omega, tau):
    base = sagt.single_sector_family(omega, sch)
    return base, sagt.superadiabatic_family(base, tau)


def _dressed_levels(path, omega, tau):
    """lambda_1^2, lambda_2^2 of the star det(H - x) = x^4 - (E^2 + g^2 +
    h^2) x^2 + E^2 h^2, with theta and a(theta) taken from atan2 and trig."""
    ei, ef, dei, def_ = path
    chi2 = ei * ei + ef * ef
    e2 = 4.0 * omega**2 * chi2
    g = (ei * def_ - ef * dei) / chi2 / tau if tau is not None else 0.0 * ei
    theta = np.arctan2(ef, ei)
    h = (np.cos(theta) + np.sin(theta)) / (2.0 - np.sin(2.0 * theta)) * g
    total = e2 + g * g + h * h
    top = 0.5 * (total + np.sqrt(total * total - 4.0 * e2 * h * h))
    return top, e2 * h * h / top


TAUS = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
OMEGAS = st.sampled_from([0.5, 1.0, 3.0])
DRIVES = st.one_of(strategies.paths, st.builds(_plateau))


@settings(max_examples=25, deadline=None)
@given(sch=DRIVES, tau=TAUS, omega=OMEGAS)
def test_dressed_block_spectrum_is_plus_minus_lambda(sch, tau, omega):
    s = np.linspace(0.0, 1.0, 33)
    path = sample(sch, s)
    for fam, t in zip(_families(sch, omega, tau), (None, tau)):
        top, low = _dressed_levels(path, omega, t)
        l1, l2 = np.sqrt(top), np.sqrt(low)
        expected = np.stack([-l1, -l2, l2, l1], axis=-1)
        got = np.linalg.eigvalsh(fam.block_matrix_grid(s))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * l1.max())


def _ordered_expm(h, dt):
    """exp(-i h_{N-1} dt) ... exp(-i h_0 dt), one scipy expm per block."""
    u = np.eye(4)
    for b in h:
        u = expm(-1j * dt * b) @ u
    return u


def _runs(ab, dt, lengths):
    """(step_products, ordered expm) of each run of lengths[j] rows of ab."""
    blocks = spectral.coordinate_block(ab)
    bounds = np.cumsum([0] + list(lengths))
    want = [_ordered_expm(blocks[lo:hi], dt) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return zip(spectral.step_products(ab, dt, lengths), want, lengths)


@settings(max_examples=25, deadline=None)
@given(sch=DRIVES, tau=TAUS, omega=OMEGAS, reach=st.floats(1e-3, 10.0))
def test_segment_propagator_matches_ordered_expm(sch, tau, omega, reach):
    # reach = the largest lambda_1 dt on the grid, up to about 3 pi
    s = np.linspace(0.0, 1.0, 33)
    for fam in _families(sch, omega, tau):
        ab = fam.coordinate_grid(s)
        h = spectral.coordinate_block(ab)
        dt = reach / np.abs(np.linalg.eigvalsh(h)).max()
        # each step exponential on its own, then runs of 7 and of all rows:
        # roundoff grows with the factors
        for lengths in ([1] * len(ab), [7, 7, 7, 7, 5], [len(ab)]):
            for u, want, count in _runs(ab, dt, lengths):
                assert np.abs(u - want).max() < 1e-13 * count


def test_step_products_of_uneven_runs_match_each_segment():
    lengths = [1, 2, 3, 7, 1, 200]
    fam = sagt.superadiabatic_family(
        sagt.single_sector_family(1.3, builtin_schedule("exponential")), 0.4
    )
    ab = fam.coordinate_grid((np.arange(sum(lengths)) + 0.5) / sum(lengths))
    assert spectral.step_products(ab, 0.05, lengths).shape == (len(lengths), 4, 4)
    for u, want, count in _runs(ab, 0.05, lengths):
        assert np.abs(u - want).max() < 1e-13 * count


def test_identity_padding_leaves_each_run_bitwise_unchanged():
    lengths = [1, 2, 3, 7, 1, 200, 64]
    ab = np.random.default_rng(11).normal(size=(sum(lengths), 6))
    bounds = np.cumsum([0] + lengths)
    together = spectral.step_products(ab, 0.3, lengths)
    for u, lo, hi in zip(together, bounds[:-1], bounds[1:]):
        assert np.array_equal(u, spectral.step_products(ab[lo:hi], 0.3, [hi - lo])[0])


def test_step_products_rejects_non_finite_coordinates():
    ab = np.ones((5, 6))
    ab[3, 2] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        spectral.step_products(ab, 0.1, [2, 3])


def test_step_products_rejects_runs_that_miss_rows():
    # one row would broadcast over a three-step run without the check
    with pytest.raises(ValueError, match="runs of 3 steps for 1"):
        spectral.step_products(np.zeros((1, 6)), 0.1, [3])


@settings(max_examples=25, deadline=None)
@given(sch=strategies.paths, tau=TAUS, omega=OMEGAS)
def test_coordinate_block_is_the_drive_plus_the_velocity_term(sch, tau, omega):
    path = sample(sch, np.linspace(0.0, 1.0, 33))
    drive = spectral.drive_grid(path, omega)
    for t, want in ((None, drive), (tau, drive + counterdiabatic.block_cd_grid(path, tau))):
        h = spectral.coordinate_block(spectral.coordinate_grid(path, omega, t))
        err = np.linalg.norm(h - want, axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(-2, -1)))


def _span_blocks(ab):
    """Blocks i W (a.L + b.R) W^dag for rows (a, b) of ab."""
    gen = np.concatenate((spectral.QUAT_LEFT, spectral.QUAT_RIGHT))
    g = np.tensordot(ab, gen, axes=1)
    w = spectral.REAL_FRAME
    return 1j * w @ g @ w.conj().T


@pytest.mark.parametrize("kind", ["generic", "isoclinic", "left-isoclinic", "zero"])
def test_segment_propagator_on_random_span_vectors(kind):
    # a = 0 leaves only the right factor: the isoclinic rotations, whose
    # spectrum is degenerate; b = 0 leaves only the left one.  Each pins
    # the step order of its own factor's tree.  The zero vector is the
    # identity step
    rng = np.random.default_rng(5)
    ab = rng.normal(size=(9, 6))
    if kind == "isoclinic":
        ab[:, :3] = 0.0
    elif kind == "left-isoclinic":
        ab[:, 3:] = 0.0
    elif kind == "zero":
        ab[4] = 0.0
    h = _span_blocks(ab)
    for dt in (0.1, 2.0, 7.0):
        for u, b in zip(spectral.step_products(ab, dt, [1] * len(ab)), h):
            np.testing.assert_allclose(u, expm(-1j * dt * b), atol=1e-13)
        u = spectral.step_products(ab, dt, [len(ab)])[0]
        np.testing.assert_allclose(u, _ordered_expm(h, dt), atol=1e-13 * len(h))
    if kind == "zero":
        u = spectral.step_products(ab[4:5], 1.0, [1])[0]
        np.testing.assert_allclose(u, np.eye(4), rtol=0, atol=1e-15)


def test_the_sector_generators_are_real_in_the_real_frame():
    w = spectral.REAL_FRAME
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-15)
    np.testing.assert_array_equal(w, spectral.FRAME_0 @ spectral.CARTESIAN)
    generators = {
        "-iA": -1j * spectral.BLOCK_A,
        "-iB": -1j * spectral.BLOCK_B,
        "C": spectral.BLOCK_C,
        "T0": spectral.TURN_0,
        "T1": spectral.TURN_1,
    }
    for name, x in generators.items():
        g = w.conj().T @ x @ w
        assert np.abs(g.imag).max() < 1e-15, name
        assert np.abs(g + g.T).max() < 1e-15, name
    left, right = spectral.QUAT_LEFT, spectral.QUAT_RIGHT
    for m in left:
        for n in right:
            assert np.array_equal(m @ n, n @ m)
    # x -> i x, j x, k x is the quaternion algebra: i j = k, i^2 = -1
    assert np.array_equal(left[0] @ left[1], left[2])
    assert np.array_equal(left[0] @ left[0], -np.eye(4))


def _quaternion_product(x, y):
    """(w1 w2 - v1.v2, w1 v2 + w2 v1 + v1 x v2) for x = (w1, v1), y = (w2, v2)."""
    w1, v1, w2, v2 = x[0], x[1:], y[0], y[1:]
    return np.concatenate(([w1 * w2 - v1 @ v2], w1 * v2 + w2 * v1 + np.cross(v1, v2)))


def test_quaternion_tables_are_the_textbook_product():
    # QUAT_LEFT[m] x = e_m x and QUAT_RIGHT[m] x = x e_m for e = (i, j, k)
    rng = np.random.default_rng(59)
    for x in rng.normal(size=(5, 4)):
        for m, e in enumerate(np.eye(4)[1:]):
            np.testing.assert_allclose(
                spectral.QUAT_LEFT[m] @ x, _quaternion_product(e, x), rtol=0, atol=1e-15
            )
            np.testing.assert_allclose(
                spectral.QUAT_RIGHT[m] @ x, _quaternion_product(x, e), rtol=0, atol=1e-15
            )


def test_embed_blocks_structure():
    plus = np.arange(16, dtype=complex).reshape(4, 4)
    minus = -np.arange(16, dtype=complex).reshape(4, 4)
    full = spectral.embed_blocks(plus, minus)
    assert full.shape == (8, 8)
    for a, ia in enumerate(spectral.PLUS_BASIS):
        for b, ib in enumerate(spectral.PLUS_BASIS):
            assert full[ia, ib] == plus[a, b]
    for a, ia in enumerate(spectral.MINUS_BASIS):
        for b, ib in enumerate(spectral.MINUS_BASIS):
            assert full[ia, ib] == minus[a, b]
    # cross-parity entries stay empty
    mask = np.ones((8, 8), dtype=bool)
    mask[np.ix_(spectral.PLUS_BASIS, spectral.PLUS_BASIS)] = False
    mask[np.ix_(spectral.MINUS_BASIS, spectral.MINUS_BASIS)] = False
    assert np.all(full[mask] == 0)


def test_embed_block_vector():
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    up = spectral.embed_block_vector(v, +1)
    down = spectral.embed_block_vector(v, -1)
    assert up.shape == (8,)
    for a, ia in enumerate(spectral.PLUS_BASIS):
        assert up[ia] == v[a]
    for a, ia in enumerate(spectral.MINUS_BASIS):
        assert down[ia] == v[a]
    with pytest.raises(ValueError):
        spectral.embed_block_vector(v, 0)


def test_embed_blocks_validation():
    with pytest.raises(ValueError):
        spectral.embed_blocks(np.eye(3), np.eye(4))

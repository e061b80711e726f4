"""Time propagation and the teleportation protocol runners."""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import sagt
from sagt import evolution, model, spectral
from sagt.schedules import BUILTIN_KINDS, Schedule, builtin_schedule

import oracles
import strategies
from test_sample_once import count_coordinate_grids, counting_schedule
from test_spectral import step_products


def test_fidelity_phase_invariant():
    rng = np.random.default_rng(7)
    psi = sagt.random_state(8, rng)
    phi = np.exp(0.7j) * psi
    assert evolution.fidelity(psi, phi) == pytest.approx(1.0, abs=1e-12)
    other = sagt.random_state(8, rng)
    f = evolution.fidelity(psi, other)
    assert 0.0 <= f < 1.0


def test_fidelity_validation():
    with pytest.raises(ValueError):
        evolution.fidelity(np.ones(4), np.ones(8))
    with pytest.raises(ValueError):
        evolution.fidelity(2.0 * np.ones(4), np.ones(4) / 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fidelity_rejects_a_non_finite_overlap(bad):
    with pytest.raises(ValueError, match="not finite"):
        evolution.fidelity([bad, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="not finite"):
        evolution.fidelity([1.0, 0.0], [complex(0.0, bad), 0.0])


def test_propagate_matches_dense_reference_single_sector():
    sch = builtin_schedule("linear")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), tau=0.7)
    psi0 = sagt.initial_state(np.array([0.6, 0.8]), 1)
    ours = evolution.propagate(fam, psi0, steps=400)
    ref = oracles.reference_propagate(fam.matrix, psi0, 0.7, 400)
    # same discretization, independent exponentials: agreement to roundoff
    np.testing.assert_allclose(ours, ref, atol=1e-11)


def test_propagate_matches_dense_reference_two_sectors():
    sch = builtin_schedule("trigonometric")
    fam = sagt.superadiabatic_family(sagt.multi_sector_family(2, 1.0, sch), tau=1.0)
    rng = np.random.default_rng(13)
    psi0 = sagt.initial_state(sagt.random_state(4, rng), 2)
    ours = evolution.propagate(fam, psi0, steps=150)
    ref = oracles.reference_propagate(fam.matrix, psi0, 1.0, 150)
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_propagate_matches_dense_reference_rotated():
    rng = np.random.default_rng(19)
    gate = sagt.random_unitary(2, rng)
    g = sagt.embed_on_outputs(gate, 1)
    sch = builtin_schedule("exponential")
    base = sagt.rotate_family(sagt.single_sector_family(1.0, sch), g)
    fam = sagt.superadiabatic_family(base, tau=1.0)
    psi0 = sagt.initial_state(sagt.random_state(2, rng), 1, rotation=gate)
    ours = evolution.propagate(fam, psi0, steps=300)
    ref = oracles.reference_propagate(fam.matrix, psi0, 1.0, 300)
    np.testing.assert_allclose(ours, ref, atol=1e-10)


def test_checkpoint_states_match_dense_reference_three_sectors():
    # at 24 steps the 21 checkpoints cut segments of both 1 and 2 steps
    steps = 24
    rng = np.random.default_rng(29)
    gate = sagt.random_unitary(8, rng)
    gate = gate / np.linalg.det(gate) ** (1 / 8)  # SU(8)
    sch = builtin_schedule("trigonometric")
    g = sagt.embed_on_outputs(gate, 3)
    base = sagt.rotate_family(sagt.multi_sector_family(3, 1.0, sch), g)
    fam = sagt.superadiabatic_family(base, tau=1.0)
    psi0 = sagt.initial_state(sagt.random_state(8, rng), 3, rotation=gate)
    seen = []
    final = evolution.propagate(
        fam, psi0, steps, observer=lambda s, psi: seen.append((s, psi))
    )
    assert len(seen) == 21
    # the dense route run from one checkpoint to the next is the dense
    # route stopped at each checkpoint: same midpoints, same dt
    psi, done = psi0, 0
    for s, observed in seen:
        k = round(s * steps)
        m = k - done
        if m:
            psi = oracles.reference_propagate(
                lambda x: fam.matrix((done + x * m) / steps), psi, m / steps, m
            )
        np.testing.assert_allclose(observed, psi, atol=1e-10)
        done = k
    np.testing.assert_allclose(final, psi, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    sch=strategies.paths,
    superadiabatic=st.booleans(),
    tau=st.floats(0.1, 20.0),
    steps=st.integers(1, 300),
    n=st.integers(1, 2),
    chunk=st.sampled_from([evolution._CHUNK, 1, 7]),
)
def test_segment_products_match_per_step_exponentials(
    sch, superadiabatic, tau, steps, n, chunk
):
    fam = sagt.multi_sector_family(n, 1.0, sch)
    if superadiabatic:
        fam = sagt.superadiabatic_family(fam, tau)
    rng = np.random.default_rng(steps)
    psi0 = sagt.initial_state(sagt.random_state(2**n, rng), n)
    checkpoints = sorted(
        {int(round(f * steps)) for f in np.linspace(0.0, 1.0, 21)}
    )
    # the loop version: one scipy exponential of the 8x8 sector per step
    u, expected = np.eye(8), {}
    for k in range(steps + 1):
        if k in checkpoints:
            expected[k] = functools.reduce(np.kron, [u] * n) @ psi0
        if k < steps:
            h = fam.sector_matrix((k + 0.5) / steps)
            u = expm(-1j * (tau / steps) * h) @ u
    seen = []
    # a small pass width splits the run into many passes and segments; the
    # plan is cached by step count alone, so it is planned afresh either side
    with mock.patch.object(evolution, "_CHUNK", chunk):
        empty_caches()
        final = evolution.propagate(
            fam, psi0, steps, tau=tau, observer=lambda s, psi: seen.append((s, psi))
        )
    empty_caches()
    np.testing.assert_allclose(final, expected[steps], atol=1e-12)
    assert [s for s, _ in seen] == [k / steps for k in checkpoints]
    for (_, psi), k in zip(seen, checkpoints):
        np.testing.assert_allclose(psi, expected[k], atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_sectorwise_is_the_kronecker_power(n):
    # a complex, non-Hermitian, non-symmetric u: a transposed or misplaced
    # sector axis would not pass
    rng = np.random.default_rng(n)
    u = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    psi = rng.normal(size=8**n) + 1j * rng.normal(size=8**n)
    want = functools.reduce(np.kron, [u] * n) @ psi
    np.testing.assert_allclose(evolution._apply_sectorwise(u, psi, n), want, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_stacked_application_gives_each_row_its_lone_bits(n):
    # 21 operators on one state (a rung's checkpoints) and 21 operators on
    # 21 states: every row is the single call, bit for bit
    rng = np.random.default_rng(10 + n)
    us = np.array([sagt.random_unitary(8, rng) for _ in range(21)])
    psis = np.array([sagt.random_state(8**n, rng) for _ in range(21)])
    one_state = evolution._apply_sectorwise(us, psis[0], n)
    row_states = evolution._apply_sectorwise(us, psis, n)
    assert one_state.shape == row_states.shape == (21, 8**n)
    for k, (u, psi) in enumerate(zip(us, psis)):
        assert np.array_equal(one_state[k], evolution._apply_sectorwise(u, psis[0], n))
        assert np.array_equal(row_states[k], evolution._apply_sectorwise(u, psi, n))
        dense = functools.reduce(np.kron, [u] * n)
        np.testing.assert_allclose(row_states[k], dense @ psi, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    chunk=st.sampled_from([evolution._CHUNK, 1, 7]),
    steps=st.integers(1, 3 * evolution._CHUNK),
    marks=st.lists(st.floats(0.0, 1.0), max_size=30),
)
def test_passes_chain_and_cover_the_cuts(chunk, steps, marks):
    # the cuts a rung makes: its checkpoints and the end, which _passes
    # keeps, adding only even splits of a segment longer than the pass width
    cuts = sorted({int(round(f * steps)) for f in marks} | {0, steps})
    with mock.patch.object(evolution, "_CHUNK", chunk):
        passes = evolution._passes(cuts)
    assert passes[0][0] == 0 and passes[-1][-1] == steps
    for before, after in zip(passes, passes[1:]):
        assert before[-1] == after[0]
    made = passes[0] + [c for p in passes[1:] for c in p[1:]]
    assert made == sorted(set(made)) and set(cuts) <= set(made)
    for lo, hi in zip(cuts, cuts[1:]):
        pieces = np.diff([c for c in made if lo <= c <= hi])
        assert len(pieces) == -(-(hi - lo) // chunk)  # one piece unless longer than chunk
        assert pieces.max() - pieces.min() <= 1
    for p in passes:
        assert len(p) >= 2
        assert (len(p) - 1) * np.diff(p).max() <= chunk
        # tree_index pads each segment to the power of two it fills
        padded = 1 << int(np.diff(p).max() - 1).bit_length()
        assert (len(p) - 1) * padded < 2 * chunk


@pytest.mark.parametrize(
    "steps", [2000 * 2**k for k in range(7)] + [1, 19, 999, 4097, 16385, 40001, 400001]
)
def test_a_rung_is_cut_at_its_checkpoints_alone(steps):
    # passes of at most _CHUNK steps, cut at the checkpoints and at even
    # splits of a segment longer than _CHUNK; a 2,000 x 2^k-step rung pads
    # to 1.28 x its steps, in one pass up to 16,000 steps and two at 32,000
    checkpoints, passes = evolution._rung_plan(steps)
    cuts = [c for bounds, _ in passes for c in bounds[:-1]] + [steps]
    for lo, hi in zip(checkpoints, checkpoints[1:]):
        pieces = np.diff([c for c in cuts if lo <= c <= hi])
        assert len(pieces) == -(-(hi - lo) // evolution._CHUNK)
        assert pieces.max() - pieces.min() <= 1
    padded = 0
    for bounds, index in passes:
        assert bounds[-1] - bounds[0] <= evolution._CHUNK
        assert np.array_equal(index, spectral.tree_index(np.diff(bounds)))
        padded += index.size
    assert padded < 2 * steps
    if steps % 2000 == 0:
        assert padded <= 1.28 * steps
    if steps % 2000 == 0 and steps <= 16_000:
        assert len(passes) == 1
    if steps == 32_000:
        assert len(passes) == 2


@settings(max_examples=12, deadline=None)
@given(
    sch=strategies.paths,
    dressed=st.booleans(),
    tau=st.floats(0.1, 20.0),
    steps=st.integers(1, 3 * 4096),
)
def test_the_pass_width_changes_no_bit_of_a_transport(sch, dressed, tau, steps):
    # a run's product keeps its bits in any pass, so any width that holds
    # every segment whole gives the same U(s_k); a width that splits them
    # (7) chains the pieces instead, which moves U by roundoff alone
    transports, family_tau = {}, tau if dressed else None
    for chunk in (7, 4096, 16384):
        with mock.patch.object(evolution, "_CHUNK", chunk):
            empty_caches()  # the plan is cached by step count alone
            transports[chunk] = evolution._transports(sch, 1.0, family_tau, tau, steps)
    empty_caches()
    assert transports[7][0] == transports[4096][0] == transports[16384][0]
    assert np.array_equal(transports[4096][1], transports[16384][1])
    assert np.array_equal(transports[4096][2], transports[16384][2])  # the spins, bit for bit
    if max(np.diff(transports[7][0])) <= 7:
        assert np.array_equal(transports[7][1], transports[16384][1])
    np.testing.assert_allclose(transports[7][1], transports[16384][1], rtol=0, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    sch=strategies.paths,
    tau=st.floats(0.1, 10.0),
    s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_sector_generator_is_two_equal_parity_blocks(sch, tau, s):
    even = np.ix_(spectral.PLUS_BASIS, spectral.PLUS_BASIS)
    odd = np.ix_(spectral.MINUS_BASIS, spectral.MINUS_BASIS)
    base = sagt.single_sector_family(1.0, sch)
    for fam in (base, sagt.superadiabatic_family(base, tau)):
        h = fam.sector_matrix_grid(np.array(s))
        assert np.array_equal(h[(slice(None),) + even], h[(slice(None),) + odd])
        rest = h.copy()
        rest[(slice(None),) + even] = 0.0
        rest[(slice(None),) + odd] = 0.0
        assert not rest.any()


def test_propagate_preserves_norm_and_calls_observer():
    sch = builtin_schedule("linear")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), tau=1.0)
    psi0 = sagt.initial_state(np.array([1.0, 0.0]), 1)
    seen = []

    def watch(s, psi):
        seen.append((s, np.linalg.norm(psi)))

    final = evolution.propagate(fam, psi0, steps=64, observer=watch)
    assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-10)
    svals = [s for s, _ in seen]
    assert svals[0] == 0.0 and svals[-1] == 1.0
    assert any(abs(s - 0.5) < 1e-12 for s in svals)
    assert all(abs(norm - 1.0) < 1e-10 for _, norm in seen)


def test_propagate_validation():
    sch = builtin_schedule("linear")
    adiabatic = sagt.single_sector_family(1.0, sch)
    psi0 = sagt.initial_state(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError):
        evolution.propagate(adiabatic, psi0, steps=10)  # no duration anywhere
    fam = sagt.superadiabatic_family(adiabatic, tau=1.0)
    with pytest.raises(ValueError):
        evolution.propagate(fam, psi0, steps=0)
    with pytest.raises(ValueError):
        evolution.propagate(fam, np.ones(4, dtype=complex), steps=10)
    # an explicit duration equal to the one stored on the family changes nothing
    out_stored = evolution.propagate(fam, psi0, steps=50)
    out_explicit = evolution.propagate(fam, psi0, steps=50, tau=1.0)
    np.testing.assert_allclose(out_stored, out_explicit, atol=1e-14)


def test_propagate_rejects_a_tau_the_family_was_not_built_for():
    # the velocity term of a superadiabatic family is built for its own tau
    sch = builtin_schedule("linear")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), tau=1.0)
    psi0 = sagt.initial_state(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="tau=2.0 disagrees with the family's tau=1.0"):
        evolution.propagate(fam, psi0, 50, tau=2.0)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
def test_propagate_rejects_a_duration_that_is_not_finite_and_positive(tau):
    fam = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    psi0 = sagt.initial_state(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        evolution.propagate(fam, psi0, 100, tau=tau)


@pytest.mark.parametrize("steps", [2.7, float("nan"), float("inf")])
def test_a_step_count_that_is_not_whole_is_rejected(steps):
    sch = builtin_schedule("linear")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), tau=1.0)
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="whole number"):
        evolution.propagate(fam, sagt.initial_state(psi, 1), steps)
    with pytest.raises(ValueError, match="whole number"):
        sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", psi, steps=steps)
    with pytest.raises(ValueError, match="whole number"):
        sagt.run_gate_teleport("x", sch, 1.0, "superadiabatic", psi, steps=steps)


@pytest.mark.parametrize("steps", [0, -5, -5.0])
def test_a_step_count_below_one_is_rejected_before_any_work(monkeypatch, steps):
    # 0 failed inside numpy ("zero-size array to reduction operation") and
    # -5 escaped as a KeyError; both are refused by name, as propagate does
    for run in _unpropagated_runs(monkeypatch, steps=steps):
        with pytest.raises(ValueError, match=f"steps must be >= 1, got {int(steps)}"):
            run()


def _never_propagate(monkeypatch):
    """Make propagate and the transport cache, which the ladder reads, fail
    the test if a run gets that far."""

    def never(*args, **kwargs):
        raise AssertionError("the run propagated")

    monkeypatch.setattr(evolution, "propagate", never)
    monkeypatch.setattr(evolution, "_transports", never)


def _unpropagated_runs(monkeypatch, **options):
    """A state run and a gate run with these options, under _never_propagate."""
    _never_propagate(monkeypatch)
    sch, psi = builtin_schedule("linear"), [1.0, 0.0]
    return (
        lambda: sagt.run_state_teleport(1, sch, 1.0, "adiabatic", psi, **options),
        lambda: sagt.run_gate_teleport("x", sch, 1.0, "adiabatic", psi, **options),
    )


@pytest.mark.parametrize("max_steps", [6.5, float("nan"), float("inf")])
def test_a_step_budget_that_is_not_whole_is_rejected(monkeypatch, max_steps):
    # a NaN budget used to switch the budget off, and 6.5 was taken as it stood
    for run in _unpropagated_runs(monkeypatch, steps=2, max_steps=max_steps):
        with pytest.raises(ValueError, match="max_steps must be a whole number"):
            run()


@pytest.mark.parametrize("target", [float("nan"), -1.0, -1e-300])
def test_a_target_defect_that_no_run_can_meet_is_rejected(monkeypatch, target):
    for run in _unpropagated_runs(monkeypatch, target_defect=target):
        with pytest.raises(ValueError, match="target_defect must be >= 0"):
            run()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_gate_with_a_non_finite_cell_is_rejected_before_propagating(monkeypatch, bad):
    # a NaN unitarity defect used to pass the check, and the run climbed the
    # whole ladder to a NaN fidelity
    gate = np.eye(2, dtype=complex)
    gate[0, 0] = bad
    _unpropagated_runs(monkeypatch)  # a propagate call now fails the test
    with pytest.raises(ValueError, match="gate is not unitary"):
        sagt.run_gate_teleport(gate, builtin_schedule("linear"), 1.0, "adiabatic", [1.0, 0.0])


def test_a_zero_target_defect_runs_to_the_budget():
    sch = builtin_schedule("linear")
    rec = sagt.run_state_teleport(
        1, sch, 1.0, "adiabatic", [1.0, 0.0], steps=2, max_steps=12, target_defect=0.0
    )
    assert rec.step_count == 8


def test_a_long_rung_stays_unitary(cold_cache):
    # every step of the trigonometric drive rounds alike, so a 4,096-step
    # segment drifted about 8e-13 off unit norm, and a 512,000-step rung
    # chained that drift to 1e-10, at NORM_ATOL
    sch = builtin_schedule("trigonometric")
    _, transports, spins = evolution._transports(sch, 1.0, None, 2.0, 512_000)
    u, ((alpha, beta),) = transports[-1], spins[-1]
    assert np.linalg.norm(u.conj().T @ u - np.eye(4), 2) <= 1e-12
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-12
    for n in (2, 3):  # these raised "propagation lost normalization" at 1,024,000 steps
        rec = sagt.run_state_teleport(n, sch, 2.0, "adiabatic", np.eye(2**n)[0], target_defect=0)
        assert (rec.step_count, rec.accepted) == (1_024_000, False)


@pytest.mark.parametrize("mode", evolution.MODES)
def test_runs_need_no_eigensolver(monkeypatch, mode):
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    sch = builtin_schedule("trigonometric")
    rng = np.random.default_rng(47)
    state = sagt.run_state_teleport(1, sch, 1.0, mode, np.array([0.6, 0.8]))
    gate = sagt.run_gate_teleport("cnot", sch, 1.0, mode, sagt.random_state(4, rng))
    for rec in (state, gate):
        assert rec.accepted
        if mode == "superadiabatic":
            assert rec.fidelity >= 1.0 - 1e-6


@pytest.mark.parametrize("tau_omega", [0.05, 1.0])
def test_corrected_drive_transports_the_ground_manifold(tau_omega):
    # with the velocity term included the instantaneous ground pair is an
    # invariant manifold at any sweep rate
    sch = builtin_schedule("trigonometric")
    fam = sagt.superadiabatic_family(
        sagt.single_sector_family(1.0, sch), tau=tau_omega
    )
    v0 = sagt.block_eigenvectors(sch, 0.0)[:, 0]
    psi0 = sagt.embed_block_vector(v0, +1)
    overlaps = []

    def watch(s, psi):
        proj = oracles.ground_pair_projector(sch, s)
        overlaps.append(float(np.real(psi.conj() @ proj @ psi)))

    evolution.propagate(fam, psi0, steps=4000, observer=watch)
    assert min(overlaps) >= 1.0 - 1e-8


def test_adiabatic_reference_endpoints():
    sch = builtin_schedule("linear")
    fam = sagt.single_sector_family(1.0, sch)
    psi_in = np.array([0.6, 0.8j])
    start = sagt.adiabatic_reference(fam, 0.0, psi_in=psi_in, tau=1.0)
    np.testing.assert_allclose(start, sagt.initial_state(psi_in, 1), atol=1e-12)
    end = sagt.adiabatic_reference(fam, 1.0, psi_in=psi_in, tau=1.0)
    assert evolution.fidelity(end, sagt.target_state(psi_in, 1)) == pytest.approx(
        1.0, abs=1e-10
    )


def test_adiabatic_reference_matches_corrected_evolution_midsweep():
    # the corrected drive follows the instantaneous eigenpath including the
    # accumulated dynamical phase, so the overlap is 1 with no modulus trick
    sch = builtin_schedule("trigonometric")
    base = sagt.single_sector_family(1.0, sch)
    fam = sagt.superadiabatic_family(base, tau=1.0)
    psi_in = np.array([0.6, 0.8])
    psi0 = sagt.initial_state(psi_in, 1)
    captured = {}

    def watch(s, psi):
        captured[round(s, 6)] = psi.copy()

    evolution.propagate(fam, psi0, steps=4000, observer=watch)
    for s in (0.25, 0.5, 0.75):
        ref = sagt.adiabatic_reference(base, s, psi_in=psi_in, tau=1.0)
        overlap = np.vdot(ref, captured[s])
        assert abs(overlap - 1.0) < 1e-6


def test_adiabatic_reference_with_rotation():
    gate = sagt.named_gate("hadamard")
    g = sagt.embed_on_outputs(gate, 1)
    sch = builtin_schedule("linear")
    fam = sagt.rotate_family(sagt.single_sector_family(1.0, sch), g)
    psi_in = np.array([1.0, 0.0])
    end = sagt.adiabatic_reference(fam, 1.0, psi_in=psi_in, tau=1.0)
    target = sagt.target_state(psi_in, 1, rotation=gate)
    assert evolution.fidelity(end, target) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "amplitudes, direction",
    [
        ([1e308, 1e308], [1.0, 1.0]),
        ([3e-200, 4e-200], [3.0, 4.0]),
        ([3.0 * 2.0**1020, 4.0 * 2.0**1020], [3.0, 4.0]),
        ([3.0 * 2.0**-1070, 4.0 * 2.0**-1070], [3.0, 4.0]),
    ],
    ids=["overflow", "underflow", "overflow-2^k", "subnormal-2^k"],
)
def test_an_input_whose_norm_leaves_the_float_range_runs_as_its_direction(
    amplitudes, direction
):
    # |psi|^2 overflowed (a warning, then "lost normalization") or underflowed
    # ("zero norm"); scaled by its largest part first, it is its direction
    sch = builtin_schedule("linear")
    record = sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", amplitudes)
    assert _bits(record) == _bits(sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", direction))
    assert np.array_equal(sagt.initial_state(amplitudes, 1), sagt.initial_state(direction, 1))
    with pytest.raises(ValueError, match="psi_in has zero norm"):
        sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", [0.0, 0.0])
    with pytest.raises(ValueError, match="psi_in has non-finite amplitudes"):
        sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", [np.nan, 1.0])


def test_adiabatic_reference_validation():
    sch = builtin_schedule("linear")
    fam = sagt.single_sector_family(1.0, sch)
    with pytest.raises(ValueError):
        sagt.adiabatic_reference(fam, 1.5, tau=1.0)
    with pytest.raises(ValueError):
        sagt.adiabatic_reference(fam, 0.5)  # no duration available
    with pytest.raises(ValueError, match="adiabatic families"):
        sagt.adiabatic_reference(sagt.superadiabatic_family(fam, 1.0), 0.5, tau=1.0)
    with pytest.raises(ValueError, match="tau must be finite and positive"):
        sagt.adiabatic_reference(fam, 0.5, tau=-1.0)
    with pytest.raises(ValueError, match="zero norm"):
        sagt.adiabatic_reference(fam, 0.5, psi_in=np.zeros(2), tau=1.0)
    with pytest.raises(ValueError, match="dim 3"):
        sagt.adiabatic_reference(fam, 0.5, psi_in=[1.0, 0.0, 0.0], tau=1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_adiabatic_reference_on_every_sector_count(n):
    # the exact sector map on every sector is what the superadiabatic drive
    # does to the protocol state, and at s = 1 it is the target up to phase
    rng = np.random.default_rng(40 + n)
    psi_in = sagt.random_state(2**n, rng)
    base = sagt.multi_sector_family(n, 1.0, builtin_schedule("exponential"))
    seen = {}

    def watch(s, psi):
        seen[round(s, 6)] = psi

    fam = sagt.superadiabatic_family(base, 1.0)
    evolution.propagate(fam, sagt.initial_state(psi_in, n), 8000, observer=watch)
    for s in (0.0, 0.25, 0.5, 1.0):
        ref = sagt.adiabatic_reference(base, s, psi_in=psi_in, tau=1.0)
        assert np.linalg.norm(ref - seen[s]) < 5e-8
    target = sagt.target_state(psi_in, n)
    phase = np.vdot(target, ref)
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(ref, phase * target, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tau_omega", [0.3, 1.0, 3.0, 7.0, 20.0])
def test_adiabatic_trigonometric_runs_follow_rabi(tau_omega):
    # the whole propagation, ladder and register, against a closed form that
    # shares no code with it: on the trigonometric schedule each spin of the
    # bare drive is a Rabi problem in the frame turning with its field, so
    # F = f^(2n) within the ladder's target for every input and gate
    sch, rng = builtin_schedule("trigonometric"), np.random.default_rng(11)
    gates = [None, None, None, "hadamard", "t", "cnot", "toffoli"]
    for n, gate in zip([1, 2, 3, 1, 1, 2, 3], gates):
        psi = sagt.random_state(2**n, rng)
        if gate is None:
            rec = sagt.run_state_teleport(n, sch, tau_omega, "adiabatic", psi)
        else:
            rec = sagt.run_gate_teleport(gate, sch, tau_omega, "adiabatic", psi)
        assert rec.accepted
        assert abs(rec.fidelity - oracles.rabi_fidelity(tau_omega, n)) <= 1e-8
        assert abs(rec.sector_fidelity - oracles.rabi_fidelity(tau_omega, 1)) <= 1e-8


# ||u_N - U(1)||_2 of the midpoint product against the exact sector map,
# trigonometric schedule, at N = 1k, 4k and 8k steps (ROADMAP item 1);
# the linear and exponential schedules lie within 15 % of it
_MIDPOINT_ERRORS = {
    1.0: (6.4e-7, 4.0e-8, 1.0e-8),
    20.0: (8.2e-6, 5.1e-7, 1.3e-7),
    1000.0: (4.2e-4, 2.5e-5, 6.1e-6),
}


def _midpoint_errors(schedule, tau, counts=(1000, 4000, 8000)):
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, schedule), tau)
    exact = sagt.exact_sector_propagator(schedule, tau)
    errors = []
    for count in counts:
        s_mid = (np.arange(count) + 0.5) / count
        u = step_products(fam.coordinate_grid(s_mid), tau / count, [count])[0]
        errors.append(np.linalg.norm(u - exact, 2))
    return errors


@pytest.mark.parametrize("tau_omega", sorted(_MIDPOINT_ERRORS))
@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_midpoint_products_converge_to_the_exact_sector_map(kind, tau_omega):
    schedule = builtin_schedule(kind)
    errors = _midpoint_errors(schedule, tau_omega)
    for error, table in zip(errors, _MIDPOINT_ERRORS[tau_omega]):
        assert error <= 1.15 * table
    assert 3.5 <= errors[1] / errors[2] <= 4.5  # second order
    start = sagt.exact_sector_propagator(schedule, tau_omega, s=0.0)
    np.testing.assert_allclose(start, np.eye(4), rtol=0, atol=1e-14)
    for s in (0.3, 1.0):
        u = sagt.exact_sector_propagator(schedule, tau_omega, s=s)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), rtol=0, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(schedule=strategies.paths, tau_omega=st.floats(0.1, 20.0))
def test_midpoint_products_are_second_order_on_random_paths(schedule, tau_omega):
    errors = _midpoint_errors(schedule, tau_omega, counts=(4000, 8000))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_run_state_teleport_record():
    rec = sagt.run_state_teleport(
        1, builtin_schedule("trigonometric"), 1.0, "superadiabatic",
        np.array([0.6, 0.8]),
    )
    assert rec.sectors == 1
    assert rec.schedule == "trigonometric"
    assert rec.tau_omega == 1.0
    assert rec.mode == "superadiabatic"
    assert rec.gate is None
    assert rec.fidelity >= 1.0 - 1e-6
    assert rec.accepted
    assert rec.convergence_defect <= 1e-8
    assert rec.parity_drift <= 1e-8
    assert rec.step_count >= 1
    trace = np.asarray(rec.ground_overlap_trace)  # rows of (s, overlap)
    assert trace.shape[0] >= 3 and trace.shape[1] == 2
    assert trace[0, 0] == 0.0 and trace[-1, 0] == 1.0
    assert float(trace[:, 1].min()) >= 1.0 - 1e-6


def test_run_state_teleport_adiabatic_contrast():
    rec = sagt.run_state_teleport(
        1, builtin_schedule("trigonometric"), 0.5, "adiabatic",
        np.array([1.0, 0.0]),
    )
    assert rec.mode == "adiabatic"
    assert rec.fidelity < 0.99


def test_run_state_teleport_two_sectors():
    rng = np.random.default_rng(3)
    rec = sagt.run_state_teleport(
        2, builtin_schedule("linear"), 0.5, "superadiabatic",
        sagt.random_state(4, rng),
    )
    assert rec.sectors == 2
    assert rec.fidelity >= 1.0 - 1e-6
    assert rec.parity_drift <= 1e-8


def test_run_state_teleport_validation():
    sch = builtin_schedule("linear")
    with pytest.raises(ValueError):
        sagt.run_state_teleport(1, sch, 1.0, "diabatic", np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sagt.run_state_teleport(1, sch, -1.0, "adiabatic", np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sagt.run_state_teleport(2, sch, 1.0, "adiabatic", np.array([1.0, 0.0]))


@pytest.mark.parametrize("tau_omega", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_run_rejects_non_finite_inputs_before_propagating(monkeypatch, tau_omega):
    _never_propagate(monkeypatch)
    with pytest.raises(ValueError, match="tau_omega"):
        sagt.run_state_teleport(
            1, builtin_schedule("linear"), tau_omega, "superadiabatic",
            np.array([1.0, 0.0]),
        )
    with pytest.raises(ValueError, match="omega"):
        sagt.run_state_teleport(
            1, builtin_schedule("linear"), 1.0, "superadiabatic",
            np.array([1.0, 0.0]), omega=tau_omega,
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", model.MODES)
def test_a_duration_too_short_to_weigh_is_refused_before_propagating(monkeypatch, mode):
    # 1/tau overflowed in the velocity weights with a RuntimeWarning, and
    # the run failed on "so(4) coordinates are not finite"
    sch, psi = builtin_schedule("linear"), np.array([1.0, 0.0])
    fam = sagt.single_sector_family(1.0, sch)
    with pytest.raises(ValueError, match="tau must be at least"):
        sagt.superadiabatic_family(fam, 1e-320)
    with pytest.raises(ValueError, match="tau must be at least"):
        evolution.propagate(fam, sagt.initial_state(psi, 1), 8, tau=1e-320)
    with pytest.raises(ValueError, match="tau must be at least"):
        spectral.coordinate_grid(sagt.schedules.sample(sch, np.array([0.5])), 1.0, 1e-320)

    _never_propagate(monkeypatch)
    with pytest.raises(ValueError, match="tau_omega must be at least"):
        sagt.run_state_teleport(1, sch, 1e-320, mode, psi)
    with pytest.raises(ValueError, match="tau must be at least"):  # tau = tau_omega / omega
        sagt.run_gate_teleport("x", sch, 1.0, mode, psi, omega=1e100)


def test_run_honours_the_step_budget(monkeypatch):
    sch = builtin_schedule("linear")
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="max_steps"):
        sagt.run_state_teleport(
            1, sch, 1.0, "superadiabatic", psi, steps=64, max_steps=16
        )
    with pytest.raises(ValueError, match="max_steps"):
        sagt.run_state_teleport(
            1, sch, 1.0, "superadiabatic", psi, steps=16, max_steps=16
        )
    reads = []
    real = evolution._transports

    def counting(*key):
        reads.append(key[-1])
        return real(*key)

    monkeypatch.setattr(evolution, "_transports", counting)
    rec = sagt.run_state_teleport(
        1, sch, 1.0, "adiabatic", psi, steps=2, max_steps=12
    )
    # the rungs 2, 4 and 8, then the reported rung's register off its entry
    assert reads == [2, 4, 8, 8]
    assert max(reads) <= 12
    assert rec.step_count == 8
    assert not rec.accepted


@pytest.mark.parametrize("gate", [None, "cnot"])
@pytest.mark.parametrize("mode", model.MODES)
def test_the_ladder_observes_the_reported_rung_alone(monkeypatch, cold_cache, mode, gate):
    # one _transports read per rung and no propagate; the reported rung's
    # checkpoint states are read off its entry once more, a hit
    reads, infos = [], []
    real = evolution._transports

    def recording(*key):
        entry = real(*key)
        reads.append(key[-1])
        infos.append(real.cache_info())
        return entry

    def never(*args, **kwargs):
        raise AssertionError("propagate was called")

    monkeypatch.setattr(evolution, "propagate", never)
    monkeypatch.setattr(evolution, "_transports", recording)
    sch, psi = builtin_schedule("trigonometric"), sagt.random_state(4, np.random.default_rng(3))
    budget = 250 * 2**6
    if gate is None:
        rec = sagt.run_state_teleport(2, sch, 1.0, mode, psi, steps=250, max_steps=budget)
    else:
        rec = sagt.run_gate_teleport(gate, sch, 1.0, mode, psi, steps=250, max_steps=budget)
    rungs = reads[:-1]
    assert len(rungs) >= 2
    assert rungs == [250 * 2**k for k in range(len(rungs))]
    assert max(rungs) <= budget
    assert reads[-1] == rungs[-1] == rec.step_count
    before, after = infos[-2:]
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert len(rec.ground_overlap_trace) == 21


@pytest.mark.parametrize("kind", ["state", "gate"])
@pytest.mark.parametrize("mode", model.MODES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_run_records_the_observables_of_the_public_observer_path(n, mode, kind):
    # the record's parity drift, read off the reported rung's stacked states,
    # equals the one an observed propagate of that rung gives through Z...Z
    # signs formed by outer products, and its trace, read off the spins, the
    # register's per-row vdot with the ground projectors to roundoff
    rng = np.random.default_rng(7 + n)
    sch, psi_in = builtin_schedule("exponential"), sagt.random_state(2**n, rng)
    if kind == "state":
        rec = sagt.run_state_teleport(n, sch, 1.0, mode, psi_in, steps=250)
    else:
        gate = sagt.random_unitary(2**n, rng)
        rec = sagt.run_gate_teleport(gate, sch, 1.0, mode, psi_in, steps=250)
    fam = sagt.multi_sector_family(n, 1.0, sch)  # the unrotated frame of a gate run
    if mode == "superadiabatic":
        fam = sagt.superadiabatic_family(fam, 1.0)
    seen = []
    psi0 = sagt.initial_state(psi_in, n)
    sagt.propagate(fam, psi0, rec.step_count, 1.0, observer=lambda s, psi: seen.append((s, psi)))
    marks, states = zip(*seen)
    states = np.array(states)
    projectors = oracles.ground_pair_projector(sch, np.array(marks))
    p_states = evolution._apply_sectorwise(projectors, states, n)
    overlaps = [np.real(np.vdot(psi, p_psi)) for psi, p_psi in zip(states, p_states)]
    z_signs = functools.reduce(np.multiply.outer, [[1.0, -1.0]] * (3 * n)).ravel()
    parities = np.sum(z_signs * np.abs(states) ** 2, axis=-1)
    trace = [(float(s), float(overlap)) for s, overlap in zip(marks, overlaps)]
    assert_same_trace(rec.ground_overlap_trace, trace)
    assert rec.parity_drift == float(np.max(np.abs(parities - parities[0])))


def test_run_gate_teleport_named_and_custom():
    rec = sagt.run_gate_teleport(
        "hadamard", builtin_schedule("trigonometric"), 1.0, "superadiabatic",
        np.array([1.0, 0.0]),
    )
    assert rec.gate == "hadamard"
    assert rec.fidelity >= 1.0 - 1e-6

    rng = np.random.default_rng(37)
    custom = sagt.random_unitary(2, rng)
    rec = sagt.run_gate_teleport(
        custom, builtin_schedule("trigonometric"), 1.0, "superadiabatic",
        sagt.random_state(2, rng),
    )
    assert rec.gate == "custom"
    assert rec.fidelity >= 1.0 - 1e-6


def test_run_gate_teleport_infers_and_checks_width():
    with pytest.raises(ValueError):
        sagt.run_gate_teleport(
            "cnot", builtin_schedule("linear"), 1.0, "superadiabatic",
            np.array([1.0, 0.0]),  # one input qubit, two-qubit gate
        )
    with pytest.raises(ValueError):
        sagt.run_gate_teleport(
            "cnot", builtin_schedule("linear"), 1.0, "superadiabatic",
            np.eye(4)[0], n=1,
        )


def assert_same_trace(got, want):
    """Two ground-overlap traces at the same s, their overlaps equal to
    1e-12: the record reads its trace off the spins, an observer off the
    register."""
    assert [s for s, _ in got] == [s for s, _ in want]
    np.testing.assert_allclose([y for _, y in got], [y for _, y in want], rtol=0, atol=1e-12)


def _observables(kept, sch, n):
    """The ground-overlap trace and the Z parities at the kept states."""
    z = np.diag(sagt.parity("z", "global", n)).real
    trace, parities = [], []
    for s, psi in kept:
        proj = oracles.ground_pair_projector(sch, s)
        p_psi = evolution._apply_sectorwise(proj, psi, n)
        trace.append((s, float(np.real(np.vdot(psi, p_psi)))))
        parities.append(float(np.real(np.sum(z * np.abs(psi) ** 2))))
    return trace, parities


@pytest.mark.parametrize(
    "n, mode", [(1, "adiabatic"), (2, "superadiabatic")], ids=["state", "gate"]
)
def test_run_record_reports_the_accepted_rung(n, mode):
    # the trace and the drift belong to the run of rec.step_count steps:
    # re-run that rung on the unrotated family, keeping copies of the
    # observed states, and recompute both; a gate acts on the end state only
    rng = np.random.default_rng(43)
    sch = builtin_schedule("trigonometric")
    psi_in = sagt.random_state(2**n, rng)
    fam = sagt.multi_sector_family(n, 1.0, sch)
    if mode == "superadiabatic":
        fam = sagt.superadiabatic_family(fam, 1.0)
    psi0 = sagt.initial_state(psi_in, n)
    gate = None
    if n == 1:
        rec = sagt.run_state_teleport(n, sch, 1.0, mode, psi_in)
    else:
        gate = sagt.random_unitary(4, rng)
        rec = sagt.run_gate_teleport(gate, sch, 1.0, mode, psi_in)
    assert rec.step_count > evolution.DEFAULT_STEPS  # earlier rungs ran too
    kept = []
    final = evolution.propagate(
        fam, psi0, rec.step_count, tau=1.0,
        observer=lambda s, psi: kept.append((s, psi.copy())),
    )
    if gate is not None:
        final = model._on_outputs(gate, final, n)
    target = sagt.target_state(psi_in, n, rotation=gate)
    trace, parities = _observables(kept, sch, n)
    assert rec.fidelity == evolution.fidelity(final, target)
    assert_same_trace(rec.ground_overlap_trace, trace)
    assert rec.parity_drift == max(abs(p - parities[0]) for p in parities)
    if gate is None:
        return
    # the rotated family, started from the rotated state and unrotated at
    # every checkpoint, tells the same story to roundoff
    g = sagt.embed_on_outputs(gate, n)
    rotated = sagt.rotate_family(sagt.multi_sector_family(n, 1.0, sch), g)
    rotated = sagt.superadiabatic_family(rotated, 1.0)
    kept = []
    final = evolution.propagate(
        rotated, g @ psi0, rec.step_count,
        observer=lambda s, psi: kept.append((s, g.conj().T @ psi)),
    )
    assert abs(evolution.fidelity(final, target) - rec.fidelity) < 1e-12
    trace_rotated, _ = _observables(kept, sch, n)
    np.testing.assert_allclose(trace_rotated, trace, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    sch=strategies.paths,
    tau_omega=st.floats(0.1, 20.0),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_superadiabatic_runs_on_random_paths(sch, tau_omega, n, seed):
    # exact transport on any valid path: the run is accepted, faithful and
    # keeps its Z parity
    psi_in = sagt.random_state(2**n, np.random.default_rng(seed))
    rec = sagt.run_state_teleport(n, sch, tau_omega, "superadiabatic", psi_in)
    assert rec.accepted
    assert rec.fidelity >= 1.0 - 1e-6
    assert rec.parity_drift <= 1e-10


G0 = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)  # a sector's start and target
G1 = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


@settings(max_examples=12, deadline=None)
@given(
    sch=strategies.paths,
    n=st.integers(1, 3),
    mode=st.sampled_from(model.MODES),
    tau_omega=st.floats(0.1, 20.0),
    gated=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_a_run_is_one_sector_to_the_power_n(sch, n, mode, tau_omega, gated, seed):
    # the register fidelity is F_1^n, F_1 = |g1^T U(1) g0|^2, and each trace
    # point p_k^n, p_k = |v0(s_k)^T U_k g0|^2, for every input and gate
    rng = np.random.default_rng(seed)
    psi_in = sagt.random_state(2**n, rng)
    if gated:
        gate = sagt.random_unitary(2**n, rng)
        rec = sagt.run_gate_teleport(gate, sch, tau_omega, mode, psi_in, steps=250)
    else:
        rec = sagt.run_state_teleport(n, sch, tau_omega, mode, psi_in, steps=250)
    steps, family_tau = rec.step_count, tau_omega if mode == "superadiabatic" else None
    checkpoints, transports, _ = evolution._transports(sch, 1.0, family_tau, tau_omega, steps)
    assert abs(rec.sector_fidelity - abs(G1 @ transports[-1] @ G0) ** 2) <= 1e-14
    assert abs(rec.fidelity - rec.sector_fidelity**n) <= 1e-12
    marks = np.array(checkpoints) / steps
    v0 = spectral.frame_grid(sagt.schedules.sample(sch, marks))[..., 0]
    p = np.abs(np.einsum("ki,kij,j->k", v0, transports, G0)) ** 2
    assert [s for s, _ in rec.ground_overlap_trace] == list(marks)
    np.testing.assert_allclose([y for _, y in rec.ground_overlap_trace], p**n, rtol=0, atol=1e-12)


def _spin_state(g):
    """The one-spin factors (x, y) of a product block vector S (x (x) y)."""
    m = (spectral.SPIN_FRAME.conj().T @ g).reshape(2, 2)
    assert abs(np.linalg.det(m)) <= 1e-15  # rank one: a product
    x, y = m[:, np.argmax(np.abs(m).max(1))], m[np.argmax(np.abs(m).max(0))]
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


@settings(max_examples=15, deadline=None)
@given(
    sch=strategies.paths,
    mode=st.sampled_from(model.MODES),
    tau_omega=st.floats(0.1, 20.0),
    steps=st.sampled_from([64, 250, 4000, 9000]),
)
def test_the_sector_fidelity_is_the_product_of_the_spins(sch, mode, tau_omega, steps):
    # U(1) = S (U_a (x) U_b) S^dag and g0, g1 are product states of the two
    # spins, so F_1 = f_a f_b with f = |<end spin|U|start spin>|^2, read off
    # the entry's per-spin (alpha, beta) of U(1); one spin serves both when a == b
    family_tau = tau_omega if mode == "superadiabatic" else None
    _, transports, spins = evolution._transports(sch, 1.0, family_tau, tau_omega, steps)
    ends = spins[-1]
    assert len(ends) == 1 + (family_tau is not None)
    (x0, y0), (x1, y1) = _spin_state(G0), _spin_state(G1)
    (a_a, b_a), (a_b, b_b) = ends[0], ends[-1]
    f_a = abs(x1.conj() @ np.array([[a_a, -b_a.conjugate()], [b_a, a_a.conjugate()]]) @ x0) ** 2
    f_b = abs(y1.conj() @ np.array([[a_b, -b_b.conjugate()], [b_b, a_b.conjugate()]]) @ y0) ** 2
    assert abs(abs(G1 @ transports[-1] @ G0) ** 2 - f_a * f_b) <= 1e-12
    # and the ladder reads the same F_1 off the spins for every n
    psi = [0.6, 0.8j]
    rec = sagt.run_state_teleport(1, sch, tau_omega, mode, psi, steps=steps // 2, max_steps=steps)
    assert rec.step_count == steps
    assert abs(rec.sector_fidelity - f_a * f_b) <= 1e-12


@pytest.mark.parametrize("gate", [None, "cnot"])
def test_a_register_that_is_not_the_sector_to_the_power_n_is_refused(monkeypatch, gate):
    # the register's fidelity is held to the ladder's F_1^n: with each spin
    # turned by pi about z after U(1), the ladder reads its end against -y,
    # disagrees with the register, and the refusal names both
    sch, psi = builtin_schedule("trigonometric"), [0.6, 0.0, 0.0, 0.8]

    def run():  # the ladder stops at its 128-step rung, on the budget
        budget = {"steps": 64, "max_steps": 128}
        if gate is None:
            return sagt.run_state_teleport(2, sch, 1.0, "superadiabatic", psi, **budget)
        return sagt.run_gate_teleport(gate, sch, 1.0, "superadiabatic", psi, **budget)

    register = run().fidelity
    real = evolution._transports

    def turned(*key):  # exp(-i pi/2 sigma_z) u: (alpha, beta) -> (-i alpha, i beta)
        checkpoints, transports, spins = real(*key)
        return checkpoints, transports, spins * [-1j, 1j]

    monkeypatch.setattr(evolution, "_transports", turned)
    # the ladder's own arithmetic on its ends, so the value keeps the ladder's bits
    ends = turned(sch, 1.0, 1.0, 1.0, 128)[2][-1].tolist()
    f_a, f_b = (abs(evolution._ground_amplitude(a, b, -1j)) ** 2 for a, b in ends)
    ladder = (f_a * f_b) ** 2
    assert abs(register - ladder) > 0.5
    with pytest.raises(RuntimeError) as refused:
        run()
    assert repr(register) in str(refused.value)
    assert repr(ladder) in str(refused.value)


@pytest.mark.parametrize("mode", model.MODES)
@pytest.mark.parametrize("drift", [1e-9, float("nan")])
def test_a_rung_whose_spins_left_unit_norm_is_refused(monkeypatch, mode, drift):
    # the ladder holds the product of the spins' |(alpha, beta)| to 1 within
    # NORM_ATOL, as the register holds its state's norm
    real = evolution._transports

    def drifted(*key):
        checkpoints, transports, spins = real(*key)
        return checkpoints, transports, spins * (1 + drift)

    monkeypatch.setattr(evolution, "_transports", drifted)
    sch = builtin_schedule("trigonometric")
    with pytest.raises(RuntimeError, match="propagation lost normalization"):
        sagt.run_state_teleport(1, sch, 1.0, mode, [1.0, 0.0], steps=64, max_steps=128)


# ---------------------------------------------------------------------------
# the caches: one sector transport per rung, whatever n, G, psi, and one
# sample of a pass's schedule terms, whatever omega and tau


def empty_caches():
    for cache in evolution._CACHES:
        cache.cache_clear()


@pytest.fixture
def cold_cache():
    """Every evolution cache, empty at the start and at the end of the
    test; its value empties them all again."""
    empty_caches()
    yield empty_caches
    empty_caches()


def _bits(record):
    """Every RunRecord field as its repr: equal reprs are equal bits."""
    return {f.name: repr(getattr(record, f.name)) for f in dataclasses.fields(record)}


def test_a_repeated_run_forms_no_generator_and_records_the_same(monkeypatch, cold_cache):
    generators = count_coordinate_grids(monkeypatch)
    sch, calls = counting_schedule("trigonometric")
    cold = sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", [0.6, 0.8])
    formed, sampled = len(generators), dict(calls)
    assert formed > 0
    warm = sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", [0.6, 0.8])
    assert len(generators) == formed
    assert calls == sampled  # the checkpoint bras are kept too
    assert _bits(warm) == _bits(cold)


@pytest.mark.parametrize("mode", model.MODES)
def test_a_new_duration_samples_nothing_and_keeps_its_bits(monkeypatch, cold_cache, mode):
    # tau and omega only weigh a pass's schedule terms: a run at a jittered
    # tau*omega, on rungs an earlier run sampled, samples the schedule
    # nowhere and records what it records with every cache empty
    sch, calls = counting_schedule("trigonometric")
    jittered = functools.partial(sagt.run_state_teleport, 1, sch, 1.01, mode, [0.6, 0.8])
    lone = _bits(jittered())
    cold_cache()
    first = sagt.run_state_teleport(1, sch, 1.0, mode, [0.6, 0.8])
    generators, sampled = count_coordinate_grids(monkeypatch), dict(calls)
    record = jittered()
    assert record.step_count == first.step_count
    assert generators == [] and calls == sampled
    assert _bits(record) == lone


@settings(max_examples=20, deadline=None)
@given(
    sch=strategies.paths,
    dressed=st.booleans(),
    taus=st.lists(st.floats(0.1, 20.0), min_size=2, max_size=2, unique=True),
    omegas=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2, unique=True),
    steps=st.one_of(
        st.integers(1, 300), st.integers(evolution._CHUNK + 1, evolution._CHUNK + 300)
    ),
)
def test_sharing_the_pass_terms_keeps_the_bits(sch, dressed, taus, omegas, steps):
    # a transport at (omega_2, tau_2) off the terms a (omega_1, tau_1) call
    # sampled is the transport every cold cache gives, bit for bit
    def transports(omega, tau):
        return evolution._transports(sch, omega, tau if dressed else None, tau, steps)

    empty_caches()
    cold = transports(omegas[1], taus[1])
    empty_caches()
    transports(omegas[0], taus[0])
    with mock.patch.object(evolution, "_pass_terms", wraps=evolution._pass_terms) as terms:
        warm = transports(omegas[1], taus[1])
    assert warm[0] == cold[0]
    assert np.array_equal(warm[1], cold[1]) and np.array_equal(warm[2], cold[2])
    assert not warm[1].flags.writeable and not warm[2].flags.writeable
    assert terms.call_count >= 1 + (steps > evolution._CHUNK)
    for call in terms.call_args_list:
        kept = [a for a in evolution._pass_terms(*call.args) if a is not None]
        assert len(kept) == 1 + dressed
        assert not any(a.flags.writeable for a in kept)
    empty_caches()


def test_the_pass_term_cache_holds_its_bound(monkeypatch, cold_cache):
    # more passes than the cache holds, four of them off a rung longer than
    # 3 _CHUNK: it keeps at most maxsize entries of at most _CHUNK rows each
    generators = count_coordinate_grids(monkeypatch)
    fam = sagt.superadiabatic_family(
        sagt.single_sector_family(1.0, builtin_schedule("linear")), 1.0
    )
    psi0 = sagt.initial_state([1.0, 0.0], 1)
    runs = [3 * evolution._CHUNK + 5] + list(range(1, evolution._SAMPLE_CACHE_SIZE + 5))
    for steps in runs:
        evolution.propagate(fam, psi0, steps)
    info = evolution._pass_terms.cache_info()
    assert info.misses == len(generators) > info.maxsize == evolution._SAMPLE_CACHE_SIZE
    assert info.currsize <= info.maxsize
    assert sum(generators) == sum(runs)
    assert max(generators) <= evolution._CHUNK


def test_the_step_count_caches_hold_their_bound(cold_cache):
    # more step counts than either cache holds: each keeps at most maxsize
    fam = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    psi0 = sagt.initial_state([1.0, 0.0], 1)
    runs = range(1, evolution._SAMPLE_CACHE_SIZE + 6)
    for steps in runs:
        evolution.propagate(fam, psi0, steps, tau=1.0)
    info = evolution._rung_plan.cache_info()
    assert info.maxsize == evolution._SAMPLE_CACHE_SIZE < len(runs)
    assert info.currsize == info.maxsize
    assert info.misses == len(runs)
    # each entry is the (checkpoints, passes) of its step count
    steps = runs[-1]
    checkpoints, passes = evolution._rung_plan(steps)
    assert (checkpoints[0], checkpoints[-1]) == (0, steps)
    assert (passes[0][0][0], passes[-1][0][-1]) == (0, steps)


def test_state_and_gate_runs_of_every_n_share_entries(monkeypatch, cold_cache):
    # a gate teleport is the state teleport in a rotated frame, and every
    # sector follows one u: all six runs of one configuration read the
    # same entries, and each record is the one it has with a cold cache
    rng = np.random.default_rng(53)
    sch = builtin_schedule("exponential")
    runs = []
    for n, gate in ((1, "hadamard"), (2, "cnot"), (3, "toffoli")):
        psi_in = sagt.random_state(2**n, rng)
        runs.append(functools.partial(sagt.run_state_teleport, n, sch, 1.0, "adiabatic", psi_in))
        runs.append(functools.partial(sagt.run_gate_teleport, gate, sch, 1.0, "adiabatic", psi_in))
    cold = []
    for run in runs:
        cold_cache()
        cold.append(_bits(run()))
    cold_cache()
    generators = count_coordinate_grids(monkeypatch)
    rungs = set()
    for run, want in zip(runs, cold):
        record = run()
        assert _bits(record) == want
        count = evolution.DEFAULT_STEPS
        while count <= record.step_count:
            rungs.add(count)
            count *= 2
    # one entry per distinct rung, its generator sampled once over all runs
    assert evolution._transports.cache_info().currsize == len(rungs)
    assert sum(generators) == sum(rungs)


def test_each_configuration_forms_its_own_generator(monkeypatch, cold_cache):
    generators = count_coordinate_grids(monkeypatch)
    trig, linear = builtin_schedule("trigonometric"), builtin_schedule("linear")
    psi0 = sagt.initial_state([0.6, 0.8], 1)

    def observed(fam):
        return lambda: evolution.propagate(fam, psi0, 64, tau=1.0, observer=lambda s, psi: None)

    def adiabatic(sch=trig, omega=1.0):
        return sagt.single_sector_family(omega, sch)

    base = sagt.superadiabatic_family(adiabatic(), 1.0)
    calls = [
        observed(base),
        observed(adiabatic()),  # mode, at equal tau
        observed(sagt.superadiabatic_family(adiabatic(linear), 1.0)),  # schedule
        observed(sagt.superadiabatic_family(adiabatic(omega=2.0), 1.0)),  # omega
        lambda: evolution.propagate(base, psi0, 64),  # no observer: the first entry
    ]
    # omega weighs the terms of the base's sample: a new entry, no new sample
    for k, call in enumerate(calls, 1):
        call()
        assert len(generators) == min(k, 3)
    for call in calls:
        call()
    assert len(generators) == 3
    assert evolution._transports.cache_info().currsize == 4


def test_the_pass_cache_keeps_a_constant_number_of_entries(cold_cache):
    fam = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    psi0 = sagt.initial_state([1.0, 0.0], 1)
    for k in range(evolution._TRANSPORT_CACHE_SIZE + 5):
        evolution.propagate(fam, psi0, 4, tau=1.0 + k / 64)
    info = evolution._transports.cache_info()
    assert info.currsize == info.maxsize == evolution._TRANSPORT_CACHE_SIZE
    assert info.misses == evolution._TRANSPORT_CACHE_SIZE + 5


def test_cached_products_are_read_only(cold_cache):
    sch = builtin_schedule("trigonometric")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), 1.0)
    evolution.propagate(fam, sagt.initial_state([0.6, 0.8], 1), 64)
    # the key every 64-step run of this configuration makes, observed or not
    checkpoints, transports, spins = evolution._transports(sch, 1.0, 1.0, 1.0, 64)
    assert evolution._transports.cache_info().hits == 1
    # U_a(s_k), U_b(s_k): (alpha, beta) each, the identity at s = 0
    assert spins.shape == (evolution._TRACE_POINTS, 2, 2)
    assert np.array_equal(spins[0], [[1.0, 0.0], [1.0, 0.0]])
    assert not spins.flags.writeable
    assert len(checkpoints) == evolution._TRACE_POINTS
    assert (checkpoints[0], checkpoints[-1]) == (0, 64)
    assert transports.shape == (evolution._TRACE_POINTS, 4, 4)
    assert np.array_equal(transports[0], np.eye(4))  # U(0) = I
    assert not transports.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        transports[0, 0, 0] = 0.0
    # a spin's (alpha, beta) as four floats, times the checkpoint's bra, is
    # <+n|u|+x> = (alpha - beta* + exp(-i theta) (beta + alpha*)) / 2 as (re, im)
    bras = evolution._checkpoint_bras(sch, 64)
    theta = np.pi / 2 * np.array(checkpoints) / 64  # the drive turns from x to y
    alpha, beta = 0.3 - 0.8j, 0.2 + 0.48j
    want = (alpha - beta.conjugate() + np.exp(-1j * theta) * (beta + alpha.conjugate())) / 2
    got = np.array([alpha, beta]).view(float) @ bras
    np.testing.assert_allclose(got, np.stack([want.real, want.imag], -1), rtol=0, atol=1e-15)
    assert bras.shape == (evolution._TRACE_POINTS, 4, 2) and not bras.flags.writeable
    # the step-count plan: a tuple of checkpoints, passes of tuples and the
    # read-only tree index of the segments between the cuts
    planned, ((cuts, index),) = evolution._rung_plan(64)
    assert planned is checkpoints
    assert cuts == checkpoints and isinstance(cuts, tuple)
    assert np.array_equal(index, spectral.tree_index(np.diff(cuts)))
    assert not index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0


@pytest.mark.parametrize("steps", [64, 4000, 9000])  # 9,000 > 2 x 4,096: three passes
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
@pytest.mark.parametrize("mode", model.MODES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_observer_changes_no_bit_of_the_final_state(
    monkeypatch, cold_cache, n, mode, rotated, steps
):
    # the state at every checkpoint is E(U(s_k))^(x n) psi0 off one cache
    # entry, so an unobserved call applies the observed call's U(1)
    rng = np.random.default_rng(steps + n)
    fam = sagt.multi_sector_family(n, 1.0, builtin_schedule("trigonometric"))
    if rotated:
        fam = sagt.rotate_family(fam, sagt.embed_on_outputs(sagt.random_unitary(2**n, rng), n))
    if mode == "superadiabatic":
        fam = sagt.superadiabatic_family(fam, 1.0)
    psi0 = sagt.initial_state(sagt.random_state(2**n, rng), n)
    generators = count_coordinate_grids(monkeypatch)
    monkeypatch.setattr(evolution, "_CHUNK", 4096)  # the cold plan takes this pass width
    assert len(evolution._rung_plan(steps)[1]) == 1 + 2 * (steps > 4096)
    observed = evolution.propagate(fam, psi0, steps, tau=1.0, observer=lambda s, psi: None)
    formed = len(generators)
    assert formed > 0
    assert np.array_equal(evolution.propagate(fam, psi0, steps, tau=1.0), observed)
    assert len(generators) == formed
    assert evolution._transports.cache_info().currsize == 1


@pytest.mark.parametrize("bad", ["doubled", "zero", "nan"])
def test_a_psi0_that_is_not_a_unit_vector_is_rejected_before_any_product(
    monkeypatch, cold_cache, bad
):
    # the caller's state is at fault, not the integrator: refused up front
    sch = builtin_schedule("trigonometric")
    fam = sagt.superadiabatic_family(sagt.single_sector_family(1.0, sch), 1.0)
    psi = sagt.initial_state([0.6, 0.8], 1)
    psi0 = {"doubled": 2.0 * psi, "zero": 0.0 * psi, "nan": np.full(8, np.nan)}[bad]
    generators = count_coordinate_grids(monkeypatch)
    with pytest.raises(ValueError, match="psi0 must be a finite unit vector"):
        evolution.propagate(fam, psi0, 64, observer=lambda s, psi: None)
    assert generators == []


def test_a_pass_that_raises_leaves_no_entry(cold_cache):
    def nan(s):
        return np.full(np.shape(s), np.nan)

    sch = Schedule(name="nan", eta_i=nan, eta_f=nan, deta_i=nan, deta_f=nan)
    fam = sagt.single_sector_family(1.0, sch)
    with pytest.raises(ValueError, match="not finite"):
        evolution.propagate(fam, sagt.initial_state([1.0, 0.0], 1), 8, tau=1.0)
    assert evolution._transports.cache_info().currsize == 0

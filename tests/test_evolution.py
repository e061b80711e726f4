"""Time propagation and the teleportation protocol runners."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import sagt
from sagt import evolution, model, spectral
from sagt.schedules import BUILTIN_KINDS, builtin_schedule

import oracles
import strategies


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
    # a small pass width splits the run into many passes and segments
    with mock.patch.object(evolution, "_CHUNK", chunk):
        final = evolution.propagate(
            fam, psi0, steps, tau=tau, observer=lambda s, psi: seen.append((s, psi))
        )
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


@settings(max_examples=100, deadline=None)
@given(
    chunk=st.sampled_from([evolution._CHUNK, 1, 7]),
    steps=st.integers(1, 3 * evolution._CHUNK),
    marks=st.lists(st.floats(0.0, 1.0), max_size=30),
)
def test_passes_chain_and_cover_the_cuts(chunk, steps, marks):
    # the cuts propagate makes: its checkpoints, every multiple of the pass
    # width, and the end
    cuts = {int(round(f * steps)) for f in marks} | set(range(0, steps, chunk))
    cuts = sorted(cuts | {steps})
    with mock.patch.object(evolution, "_CHUNK", chunk):
        passes = evolution._passes(cuts)
    assert passes[0][0] == 0 and passes[-1][-1] == steps
    for before, after in zip(passes, passes[1:]):
        assert before[-1] == after[0]
    assert passes[0] + [c for p in passes[1:] for c in p[1:]] == cuts
    for p in passes:
        assert len(p) >= 2
        assert (len(p) - 1) * np.diff(p).max() <= chunk


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


def _unpropagated_runs(monkeypatch, **options):
    """A state run and a gate run with these options, under a propagate
    that fails if the run gets that far."""

    def never(*args, **kwargs):
        raise AssertionError("propagate was called")

    monkeypatch.setattr(evolution, "propagate", never)
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


def test_a_zero_target_defect_runs_to_the_budget():
    sch = builtin_schedule("linear")
    rec = sagt.run_state_teleport(
        1, sch, 1.0, "adiabatic", [1.0, 0.0], steps=2, max_steps=12, target_defect=0.0
    )
    assert rec.step_count == 8


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
        proj = evolution._ground_pair_projector(sch, s)
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
        u = spectral.step_products(fam.coordinate_grid(s_mid), tau / count, [count])[0]
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


@pytest.mark.parametrize("tau_omega", [float("nan"), float("inf"), -float("inf")])
def test_run_rejects_non_finite_inputs_before_propagating(monkeypatch, tau_omega):
    def never(*args, **kwargs):
        raise AssertionError("propagate was called")

    monkeypatch.setattr(sagt.evolution, "propagate", never)
    with pytest.raises(ValueError, match="tau_omega"):
        sagt.run_state_teleport(
            1, builtin_schedule("linear"), tau_omega, "superadiabatic",
            np.array([1.0, 0.0]),
        )
    with pytest.raises(ValueError, match="omega"):
        sagt.run_state_teleport(
            1, builtin_schedule("linear"), 1.0, "superadiabatic",
            np.array([1.0, 0.0]), omega=abs(tau_omega),
        )


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
    rungs = []
    real = sagt.evolution.propagate

    def counting(family, psi0, steps, **kwargs):
        rungs.append(steps)
        return real(family, psi0, steps, **kwargs)

    monkeypatch.setattr(sagt.evolution, "propagate", counting)
    rec = sagt.run_state_teleport(
        1, sch, 1.0, "adiabatic", psi, steps=2, max_steps=12
    )
    assert rungs == [2, 4, 8]
    assert rec.step_count == 8
    assert not rec.accepted


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


def _observables(kept, sch, n):
    """The ground-overlap trace and the Z parities at the kept states."""
    z = np.diag(sagt.parity("z", "global", n)).real
    trace, parities = [], []
    for s, psi in kept:
        proj = evolution._ground_pair_projector(sch, s)
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
    assert rec.ground_overlap_trace == trace
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

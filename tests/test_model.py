"""Register model: drive Hamiltonians, parity operators, protocol states."""

import dataclasses

import numpy as np
import pytest

import sagt
from sagt import model, operators, spectral
from sagt.schedules import builtin_schedule, chi

import oracles

KINDS = ("linear", "trigonometric", "exponential")


@pytest.mark.parametrize("kind", KINDS)
def test_single_sector_matrix_is_the_declared_pauli_sum(kind):
    # built from Pauli strings here, independently of the parity blocks
    sch = builtin_schedule(kind)
    fam = sagt.single_sector_family(1.5, sch)
    for s in (0.0, 0.3, 1.0):
        expected = -1.5 * (
            sch.eta_i(s)
            * (operators.pauli_string("1XX") + operators.pauli_string("1ZZ"))
            + sch.eta_f(s)
            * (operators.pauli_string("XX1") + operators.pauli_string("ZZ1"))
        )
        np.testing.assert_allclose(fam.matrix(s), expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_matrix_grid_is_the_kron_sum_of_its_sectors(n, rotated):
    rng = np.random.default_rng(n)
    base = sagt.multi_sector_family(n, 1.3, builtin_schedule("exponential"))
    fam = sagt.superadiabatic_family(base, 0.8)
    g = None
    if rotated:
        g = operators.random_unitary(8**n, rng)
        fam = sagt.rotate_family(fam, g)
    s = np.array([0.0, 0.37, 1.0])
    grid = fam.matrix_grid(s)
    assert grid.shape == (3, 8**n, 8**n)
    for h, x in zip(grid, s):
        expected = oracles.kron_sum(fam.sector_matrix(x), n, g)
        np.testing.assert_allclose(h, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(fam.matrix(0.37), fam.matrix_grid([0.37])[0])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_padding_a_slice_of_the_sector_terms_is_matrix_grid_on_that_slice(n, rotated):
    # the direct cost route samples a Simpson level once and pads it in
    # chunks; each chunk must carry the bits of matrix_grid on its nodes
    base = sagt.multi_sector_family(n, 1.3, builtin_schedule("trigonometric"))
    fam = sagt.superadiabatic_family(base, 0.6)
    if rotated:
        fam = sagt.rotate_family(fam, operators.random_unitary(8**n, np.random.default_rng(n)))
    s = np.linspace(0.0, 1.0, 65 if n < 3 else 13)[1::2]  # a level's new midpoints
    terms = fam.sector_matrix_grid(s)
    for part in (slice(None), slice(0, 2), slice(1, 4), slice(2, None, 3), slice(-3, None)):
        np.testing.assert_array_equal(fam._pad(terms[part]), fam.matrix_grid(s[part]))
    # a lone node takes numpy's one-row product in coordinate_block, which
    # rounds apart from the batched rows by an ulp or so
    lone = fam.matrix_grid(s[:1])
    np.testing.assert_allclose(fam._pad(terms[:1]), lone, rtol=0, atol=1e-15 * np.abs(lone).max())


def _sum_into_zeros(fam, h):
    # the register matrices as the sum of 1 (x) h (x) 1 added into a zero batch
    # through diagonal views, sector by sector, then rotated
    n, full = fam.sectors, np.zeros((len(h), fam.dim, fam.dim), dtype=complex)
    for k in range(n):
        pads = full.reshape((len(h),) + (8**k, 8, 8 ** (n - 1 - k)) * 2)
        np.einsum("blirljr->blrij", pads)[...] += h[:, None, None]
    if fam.rotation is not None:
        full = fam.rotation @ full @ fam.rotation.conj().T
    return full


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_padding_chunks_into_one_buffer_keeps_the_bits_of_the_sum_into_zeros(n, rotated):
    # the direct cost route pads every chunk of a level into one buffer: each
    # chunk must clear what the one before it left, and every cell, signed
    # zeros included, must be its sector terms added into zero in order
    base = sagt.multi_sector_family(n, 0.9, builtin_schedule("exponential"))
    fam = sagt.superadiabatic_family(base, 0.45)
    if rotated:
        fam = sagt.rotate_family(fam, operators.random_unitary(8**n, np.random.default_rng(n)))
    s = np.linspace(0.0, 1.0, 11)
    terms, buffer = fam.sector_matrix_grid(s), fam._pad_buffer(4)
    terms.real[terms.real == 0.0] = -0.0
    for part in (slice(0, 4), slice(4, 6), slice(6, 10), slice(8, 11), slice(0, 3)):
        want = _sum_into_zeros(fam, terms[part]).view(np.uint64)
        np.testing.assert_array_equal(fam._pad(terms[part], out=buffer).view(np.uint64), want)
        np.testing.assert_array_equal(fam._pad(terms[part]).view(np.uint64), want)


@pytest.mark.parametrize("kind", KINDS)
def test_block_matrix_grid_is_the_even_block_of_the_sector(kind):
    even = np.ix_(spectral.PLUS_BASIS, spectral.PLUS_BASIS)
    s = np.linspace(0.0, 1.0, 9)
    base = sagt.single_sector_family(1.0, builtin_schedule(kind))
    for fam in (base, sagt.superadiabatic_family(base, 0.7)):
        sector = fam.sector_matrix_grid(s)
        assert np.array_equal(fam.block_matrix_grid(s), sector[(slice(None),) + even])


@pytest.mark.parametrize(
    "grid", ["coordinate_grid", "block_matrix_grid", "sector_matrix_grid"]
)
@pytest.mark.parametrize("bad", [2.0, float("nan"), -0.01])
def test_generator_grids_reject_s_outside_the_unit_interval(grid, bad):
    base = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    for fam in (base, sagt.superadiabatic_family(base, 0.7)):
        with pytest.raises(ValueError, match="outside"):
            getattr(fam, grid)(np.array([0.5, bad]))


def test_family_is_a_five_field_value_object():
    sch = builtin_schedule("linear")
    base = sagt.multi_sector_family(2, 1.0, sch)
    assert [f.name for f in dataclasses.fields(base)] == [
        "sectors", "omega", "schedule", "tau", "rotation"
    ]
    assert (base.mode, base.tau, base.dim) == ("adiabatic", None, 64)
    dressed = sagt.superadiabatic_family(base, 2.0)
    assert (dressed.mode, dressed.tau, dressed.dim) == ("superadiabatic", 2.0, 64)


@pytest.mark.parametrize("omega", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_family_rejects_a_bad_rate(omega):
    with pytest.raises(ValueError, match="omega"):
        sagt.single_sector_family(omega, builtin_schedule("linear"))


@pytest.mark.parametrize("kind", KINDS)
def test_full_spectrum_multiplicities(kind):
    sch = builtin_schedule(kind)
    fam = sagt.single_sector_family(1.0, sch)
    for s in (0.0, 0.2, 0.5, 0.8, 1.0):
        c = chi(sch, s)
        expected = np.sort([-2 * c, -2 * c, 0, 0, 0, 0, 2 * c, 2 * c])
        np.testing.assert_allclose(
            oracles.dense_levels(fam.matrix(s)), expected, atol=1e-8
        )


def test_two_sector_spectrum_is_the_pairwise_sum():
    sch = builtin_schedule("trigonometric")
    single = sagt.single_sector_family(1.0, sch)
    double = sagt.multi_sector_family(2, 1.0, sch)
    assert double.dim == 64
    for s in (0.0, 0.4, 1.0):
        ones = oracles.dense_levels(single.matrix(s))
        expected = np.sort(np.add.outer(ones, ones).ravel())
        np.testing.assert_allclose(
            oracles.dense_levels(double.matrix(s)), expected, atol=1e-8
        )
    # non-interacting sectors: ground energy at the start is twice -2
    assert oracles.dense_levels(double.matrix(0.0))[0] == pytest.approx(
        -4.0, abs=1e-10
    )


def test_sector_count_capacity():
    with pytest.raises(model.CapacityError):
        sagt.multi_sector_family(4, 1.0, builtin_schedule("linear"))


SECTOR_COUNT_USERS = {
    "multi_sector_family": lambda n: sagt.multi_sector_family(
        n, 1.0, builtin_schedule("linear")
    ),
    "parity": lambda n: sagt.parity("z", "global", n),
    "initial_state": lambda n: sagt.initial_state(np.ones(2**n), n),
    "target_state": lambda n: sagt.target_state(np.ones(2**n), n),
}


@pytest.mark.parametrize("user", sorted(SECTOR_COUNT_USERS))
@pytest.mark.parametrize("n", [0, 4])
def test_bad_sector_counts_raise_capacity_errors(n, user):
    with pytest.raises(model.CapacityError, match=f"sector count n={n} outside 1..3"):
        SECTOR_COUNT_USERS[user](n)


def _sector_count_calls(n):
    """Every entry point that takes a sector count n, with a 2-qubit input."""
    sch = builtin_schedule("linear")
    return {
        "multi_sector_family": lambda: sagt.multi_sector_family(n, 1.0, sch),
        "parity": lambda: sagt.parity("z", "global", n),
        "initial_state": lambda: sagt.initial_state(np.ones(4), n),
        "target_state": lambda: sagt.target_state(np.ones(4), n),
        "run_state_teleport": lambda: sagt.run_state_teleport(
            n, sch, 1.0, "adiabatic", np.ones(4), steps=500
        ),
        "cost_scaling": lambda: sagt.cost_scaling(n),
    }


@pytest.mark.parametrize("user", sorted(_sector_count_calls(2)))
def test_a_sector_count_that_is_not_whole_is_rejected_by_name(user):
    with pytest.raises(ValueError, match="n must be a whole number, got 1.5"):
        _sector_count_calls(1.5)[user]()


@pytest.mark.parametrize("user", sorted(_sector_count_calls(2)))
def test_a_whole_float_sector_count_runs_as_the_int(user):
    # the float never reaches numpy: every result is the int's, field for field
    got, want = _sector_count_calls(2.0)[user](), _sector_count_calls(2)[user]()
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, float):
        assert got == want == 4.0
    else:
        assert vars(got) == vars(want)
        assert type(got.sectors) is int


def test_a_sector_index_that_is_not_whole_is_rejected_by_name():
    with pytest.raises(ValueError, match="scope must be a whole number, got 1.5"):
        sagt.parity("z", 1.5, 2)
    np.testing.assert_array_equal(sagt.parity("x", 2.0, 2), sagt.parity("x", 2, 2))


def test_contiguous_layout_matches_role_grouped_reference():
    # The register keeps each sector's three qubits adjacent.  Rebuild the
    # n = 2 generator in a role-grouped layout (inputs first, then channel
    # qubits) and map it across with an independently constructed
    # permutation: the two must agree exactly.
    n = 2
    sch = builtin_schedule("exponential")
    fam = sagt.multi_sector_family(n, 1.0, sch)
    perm = oracles.interleave_permutation(n)
    for s in (0.25, 0.7):
        sector = fam.sector_matrix(s)
        grouped = np.zeros((64, 64), dtype=complex)
        for k in range(n):
            grouped += operators.place_on_qubits(
                sector, [k, n + k, 2 * n + k], 3 * n
            )
        np.testing.assert_allclose(
            fam.matrix(s), perm.T @ grouped @ perm, atol=1e-12
        )


def test_parity_operators_square_to_identity():
    for axis in ("z", "x"):
        p1 = sagt.parity(axis, "global", 1)
        np.testing.assert_allclose(p1 @ p1, np.eye(8), atol=1e-14)
        p2 = sagt.parity(axis, 1, 2)
        np.testing.assert_allclose(p2 @ p2, np.eye(64), atol=1e-14)


def test_parity_eigenvalue_example():
    psi = np.zeros(8)
    psi[0b010] = 1.0
    pz = sagt.parity("z", "global", 1)
    np.testing.assert_allclose(pz @ psi, -psi, atol=1e-14)
    px = sagt.parity("x", "global", 1)
    flipped = np.zeros(8)
    flipped[0b101] = 1.0
    np.testing.assert_allclose(px @ psi, flipped, atol=1e-14)


def test_parity_validation():
    with pytest.raises(ValueError):
        sagt.parity("y", "global", 1)
    with pytest.raises(ValueError):
        sagt.parity("z", 3, 2)
    with pytest.raises(ValueError):
        sagt.parity("z", 0, 1)


def test_parities_commute_with_the_drive():
    for kind in KINDS:
        fam = sagt.single_sector_family(1.0, builtin_schedule(kind))
        ps = sagt.parity_set(fam)
        for s in (0.0, 0.5, 1.0):
            h = fam.matrix(s)
            assert np.linalg.norm(operators.commutator(h, ps.z)) < 1e-12
            assert np.linalg.norm(operators.commutator(h, ps.x)) < 1e-12


def test_parity_set_follows_the_frame_rotation():
    rng = np.random.default_rng(5)
    g = operators.random_unitary(2, rng)
    base = sagt.single_sector_family(1.0, builtin_schedule("linear"))
    gfull = sagt.embed_on_outputs(g, 1)
    rotated = sagt.rotate_family(base, gfull)
    ps = sagt.parity_set(rotated)
    bare = sagt.parity_set(base)
    np.testing.assert_allclose(ps.z, gfull @ bare.z @ gfull.conj().T, atol=1e-12)
    np.testing.assert_allclose(ps.x, gfull @ bare.x @ gfull.conj().T, atol=1e-12)


def test_rotate_family_conjugates_and_composes():
    rng = np.random.default_rng(17)
    base = sagt.single_sector_family(1.0, builtin_schedule("trigonometric"))
    g1 = operators.random_unitary(8, rng)
    g2 = operators.random_unitary(8, rng)
    once = sagt.rotate_family(base, g1)
    twice = sagt.rotate_family(once, g2)
    s = 0.37
    np.testing.assert_allclose(
        once.matrix(s), g1 @ base.matrix(s) @ g1.conj().T, atol=1e-12
    )
    np.testing.assert_allclose(
        twice.matrix(s), g2 @ once.matrix(s) @ g2.conj().T, atol=1e-12
    )
    with pytest.raises(ValueError):
        sagt.rotate_family(base, np.eye(8) * 2.0)


def test_bell_state():
    b = sagt.bell_state()
    np.testing.assert_allclose(
        b, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
    )


def test_initial_state_single_sector_amplitudes():
    a, b = 0.6, 0.8j
    psi = sagt.initial_state(np.array([a, b]), 1)
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = a / np.sqrt(2)
    expected[0b011] = a / np.sqrt(2)
    expected[0b100] = b / np.sqrt(2)
    expected[0b111] = b / np.sqrt(2)
    np.testing.assert_allclose(psi, expected, atol=1e-14)


def test_target_state_single_sector_amplitudes():
    a, b = 0.6, 0.8j
    psi = sagt.target_state(np.array([a, b]), 1)
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = a / np.sqrt(2)
    expected[0b001] = b / np.sqrt(2)
    expected[0b110] = a / np.sqrt(2)
    expected[0b111] = b / np.sqrt(2)
    np.testing.assert_allclose(psi, expected, atol=1e-14)


def test_protocol_states_factorize_over_sectors():
    rng = np.random.default_rng(23)
    alpha = operators.random_state(2, rng)
    beta = operators.random_state(2, rng)
    joint = np.kron(alpha, beta)
    np.testing.assert_allclose(
        sagt.initial_state(joint, 2),
        np.kron(sagt.initial_state(alpha, 1), sagt.initial_state(beta, 1)),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        sagt.target_state(joint, 2),
        np.kron(sagt.target_state(alpha, 1), sagt.target_state(beta, 1)),
        atol=1e-13,
    )


def test_protocol_states_with_rotation():
    # the builders take the bare gate and embed it on the output qubits
    rng = np.random.default_rng(29)
    g = operators.random_unitary(2, rng)
    gfull = sagt.embed_on_outputs(g, 1)
    psi_in = operators.random_state(2, rng)
    np.testing.assert_allclose(
        sagt.initial_state(psi_in, 1, rotation=g),
        gfull @ sagt.initial_state(psi_in, 1),
        atol=1e-13,
    )
    # the rotated target carries the gate on the teleported output
    expected = np.kron(sagt.bell_state(), g @ psi_in)
    np.testing.assert_allclose(
        sagt.target_state(psi_in, 1, rotation=g), expected, atol=1e-13
    )
    with pytest.raises(ValueError):
        sagt.initial_state(psi_in, 1, rotation=np.eye(8))


def test_initial_state_accepts_entangled_inputs():
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    psi = sagt.initial_state(phi, 2)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    # cannot factorize: compare against the definition directly
    basis = [sagt.initial_state(e, 2) for e in np.eye(4)]
    direct = sum(c * v for c, v in zip(phi, basis))
    np.testing.assert_allclose(psi, direct, atol=1e-13)


def test_state_builders_validate_input():
    with pytest.raises(ValueError):
        sagt.initial_state(np.zeros(2), 1)
    with pytest.raises(ValueError):
        sagt.initial_state(np.array([1.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError):
        sagt.target_state(np.array([1.0, 0.0]), 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
def test_non_finite_inputs_are_refused_by_name(bad):
    # without the check, an all-NaN state reached the integrator, which
    # blamed its own normalization
    psi = np.array([bad, 0.0])
    sch = builtin_schedule("linear")
    for build in (
        lambda: sagt.initial_state(psi, 1),
        lambda: sagt.target_state(psi, 1),
        lambda: sagt.run_state_teleport(1, sch, 1.0, "superadiabatic", psi, steps=4),
        lambda: sagt.run_gate_teleport("x", sch, 1.0, "adiabatic", psi, steps=4),
    ):
        with pytest.raises(ValueError, match="psi_in"):
            build()


def test_named_gates():
    for name in sagt.GATE_NAMES:
        g = sagt.named_gate(name)
        dim = g.shape[0]
        np.testing.assert_allclose(g @ g.conj().T, np.eye(dim), atol=1e-12)
    cnot = sagt.named_gate("cnot")
    state = np.zeros(4)
    state[0b10] = 1.0
    out = np.zeros(4)
    out[0b11] = 1.0
    np.testing.assert_allclose(cnot @ state, out, atol=1e-14)
    toff = sagt.named_gate("toffoli")
    state = np.zeros(8)
    state[0b110] = 1.0
    out = np.zeros(8)
    out[0b111] = 1.0
    np.testing.assert_allclose(toff @ state, out, atol=1e-14)
    with pytest.raises(ValueError):
        sagt.named_gate("fredkin")


def test_embed_on_outputs():
    g = sagt.named_gate("hadamard")
    np.testing.assert_allclose(
        sagt.embed_on_outputs(g, 1),
        operators.place_on_qubits(g, [2], 3),
        atol=1e-14,
    )
    rng = np.random.default_rng(31)
    g1 = operators.random_unitary(2, rng)
    g2 = operators.random_unitary(2, rng)
    np.testing.assert_allclose(
        sagt.embed_on_outputs(np.kron(g1, g2), 2),
        operators.place_on_qubits(g1, [2], 6)
        @ operators.place_on_qubits(g2, [5], 6),
        atol=1e-12,
    )
    with pytest.raises(ValueError):
        sagt.embed_on_outputs(np.eye(4), 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_on_outputs_is_the_embedded_gate(n):
    rng = np.random.default_rng(60 + n)
    g = operators.random_unitary(2**n, rng)
    psi = operators.random_state(8**n, rng)
    np.testing.assert_allclose(
        model._on_outputs(g, psi, n), sagt.embed_on_outputs(g, n) @ psi, rtol=0, atol=1e-15
    )

"""Hamiltonian families, parity operators, and the canonical states.

Layout convention: sector k (1-based) of an n-sector register owns the
three consecutive qubits 3k-2, 3k-1, 3k -- input, resource, output.  Each
sector carries its own copy of the drive; sectors act on disjoint qubits,
so the multi-sector Hamiltonian is the padded sum of identical 8x8 sector
terms.  An interleaved labeling (sector k on qubits k, n+2k-1, n+2k) is
unitarily equivalent through a fixed qubit permutation; tests pin that
equivalence down for n = 2.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .counterdiabatic import block_cd_grid
from .operators import pauli_string, place_on_qubits
from .schedules import Schedule
from .spectral import block_hamiltonian, embed_blocks

MAX_QUBITS = 10

UNITARITY_ATOL = 1e-10


class CapacityError(ValueError):
    """Register would exceed the dense-simulation budget."""


def _require_unitary(g, dim, what="rotation"):
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {g.shape}")
    defect = np.abs(g.conj().T @ g - np.eye(dim)).max()
    if defect > UNITARITY_ATOL:
        raise ValueError(f"{what} is not unitary (defect {defect:.2e})")
    return g


@dataclass(frozen=True, eq=False)
class HamiltonianFamily:
    """A time-parametrized register Hamiltonian H(s), s in [0, 1].

    A plain value object: n sectors, the coupling rate omega, the
    schedule, the total drive time tau and an optional fixed rotation G.
    Setting tau makes the family superadiabatic: its generator then
    carries the velocity term (i/tau) K, which scales like 1/tau.

    ``block_matrix_grid`` is the only place the generator is assembled:
    the common 4x4 parity block -omega (eta_i A + eta_f B) + (i/tau) K.
    ``sector_matrix_grid`` and ``sector_matrix`` are its 8x8 embedding on
    both parities, and ``matrix`` assembles the full register operator
    including padding and the rotation (evaluating to G H(s) G^dag).
    """

    sectors: int
    omega: float
    schedule: Schedule
    tau: Optional[float]
    rotation: Optional[np.ndarray]

    @property
    def mode(self):
        return "adiabatic" if self.tau is None else "superadiabatic"

    @property
    def dim(self):
        return 8**self.sectors

    def block_matrix_grid(self, s_values):
        h = block_hamiltonian(self.schedule, s_values, self.omega)
        if self.tau is not None:
            h = h + block_cd_grid(self.schedule, s_values, self.tau)
        return h

    def sector_matrix_grid(self, s_values):
        h = self.block_matrix_grid(s_values)
        return embed_blocks(h, h)

    def sector_matrix(self, s):
        s = float(s)
        if s < 0.0 or s > 1.0:
            raise ValueError(f"s outside [0, 1]: {s}")
        return self.sector_matrix_grid(np.array([s]))[0]

    def matrix(self, s):
        h = self.sector_matrix(s)
        if self.sectors == 1:
            full = h
        else:
            full = np.zeros((self.dim, self.dim), dtype=complex)
            for k in range(self.sectors):
                left = np.eye(8**k, dtype=complex)
                right = np.eye(8 ** (self.sectors - 1 - k), dtype=complex)
                full += np.kron(np.kron(left, h), right)
        if self.rotation is not None:
            full = self.rotation @ full @ self.rotation.conj().T
        return full


def single_sector_family(omega, schedule):
    """The bare three-qubit drive -omega [eta_i (1XX+1ZZ) + eta_f (XX1+ZZ1)]."""
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    if not isinstance(schedule, Schedule):
        raise ValueError("schedule must be a Schedule record")
    return HamiltonianFamily(
        sectors=1, omega=float(omega), schedule=schedule, tau=None, rotation=None
    )


def multi_sector_family(n, omega, schedule):
    """n independent copies of the drive on 3n qubits (sum of padded sectors)."""
    if n < 1:
        raise ValueError(f"need at least one sector, got n={n}")
    if 3 * n > MAX_QUBITS:
        raise CapacityError(
            f"register of {3 * n} qubits exceeds the dense limit of {MAX_QUBITS}"
        )
    base = single_sector_family(omega, schedule)
    if n == 1:
        return base
    return replace(base, sectors=n)


def rotate_family(family, g):
    """Conjugate a family by a fixed register unitary G.

    Rotations compose: rotating an already-rotated family applies the new
    G outermost.
    """
    g = _require_unitary(g, family.dim)
    if family.rotation is not None:
        g = g @ family.rotation
    return replace(family, rotation=g)


# ---------------------------------------------------------------------------
# parity operators


@dataclass(frozen=True)
class ParitySet:
    """The conserved checks of a family: global ZZZ...Z and XXX...X,
    conjugated by the family rotation when one is present."""

    z: np.ndarray
    x: np.ndarray


def parity(axis, scope, n, rotation=None):
    """Parity operator for an n-sector register.

    axis is "z" or "x"; scope is "global" (all 3n qubits) or a 1-based
    sector index (that sector's three qubits, identity elsewhere).
    """
    if axis not in ("z", "x"):
        raise ValueError(f"axis must be 'z' or 'x', got {axis!r}")
    if n < 1 or 3 * n > MAX_QUBITS:
        raise CapacityError(f"bad sector count {n}")
    letter = axis.upper()
    if scope == "global":
        spec = letter * (3 * n)
    else:
        k = int(scope)
        if k < 1 or k > n:
            raise ValueError(f"sector index {scope} outside 1..{n}")
        spec = "1" * (3 * (k - 1)) + letter * 3 + "1" * (3 * (n - k))
    op = pauli_string(spec)
    if rotation is not None:
        g = _require_unitary(rotation, 2 ** (3 * n))
        op = g @ op @ g.conj().T
    return op


def parity_set(family):
    return ParitySet(
        z=parity("z", "global", family.sectors, family.rotation),
        x=parity("x", "global", family.sectors, family.rotation),
    )


# ---------------------------------------------------------------------------
# canonical states


def bell_state():
    """(|00> + |11>) / sqrt 2."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _normalized(psi, what="state"):
    psi = np.asarray(psi, dtype=complex).ravel()
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError(f"{what} has zero norm")
    return psi / norm


def _permute_qubits(psi, source_of_dest, n_qubits):
    # dest qubit j of the output takes source qubit source_of_dest[j]
    return (
        psi.reshape((2,) * n_qubits).transpose(source_of_dest).reshape(2**n_qubits)
    )


def initial_state(psi_in, n, rotation=None):
    """Inputs on each sector's first qubit, Bell pairs on the other two.

    psi_in is an n-qubit state distributed one qubit per sector (it may be
    entangled across sectors).  An optional rotation -- a 2^n x 2^n
    unitary on the n output qubits -- pre-rotates the resource halves,
    which is how a gate is loaded into the protocol.
    """
    psi_in = _normalized(psi_in, "psi_in")
    if psi_in.size != 2**n:
        raise ValueError(f"psi_in has dim {psi_in.size}, expected {2 ** n}")
    if 3 * n > MAX_QUBITS:
        raise CapacityError(f"register of {3 * n} qubits exceeds {MAX_QUBITS}")
    state = psi_in
    for _ in range(n):
        state = np.kron(state, bell_state())
    # kron order: [in_1..in_n, a_1, b_1, ..., a_n, b_n] -> sector-contiguous
    src = []
    for k in range(n):
        src += [k, n + 2 * k, n + 2 * k + 1]
    state = _permute_qubits(state, src, 3 * n)
    if rotation is not None:
        g = _require_unitary(rotation, 2**n, "gate rotation")
        outputs = [3 * k + 2 for k in range(n)]
        state = place_on_qubits(g, outputs, 3 * n) @ state
    return state


def target_state(psi_in, n, rotation=None):
    """Bell pairs on each sector's first two qubits, (rotated) input on the
    output qubits: the ideal end point of the protocol."""
    psi_in = _normalized(psi_in, "psi_in")
    if psi_in.size != 2**n:
        raise ValueError(f"psi_in has dim {psi_in.size}, expected {2 ** n}")
    if 3 * n > MAX_QUBITS:
        raise CapacityError(f"register of {3 * n} qubits exceeds {MAX_QUBITS}")
    out = psi_in
    if rotation is not None:
        g = _require_unitary(rotation, 2**n, "gate rotation")
        out = g @ out
    state = out
    for _ in range(n):
        state = np.kron(state, bell_state())
    # kron order: [o_1..o_n, a_1, b_1, ...]; sector k wants (a_k, b_k, o_k)
    src = []
    for k in range(n):
        src += [n + 2 * k, n + 2 * k + 1, k]
    return _permute_qubits(state, src, 3 * n)


# ---------------------------------------------------------------------------
# named gates


def _gate_table():
    rt2 = 1.0 / np.sqrt(2.0)
    h = rt2 * np.array([[1, 1], [1, -1]], dtype=complex)
    t = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
    return {
        "hadamard": h,
        "t": t,
        "x": x,
        "z": z,
        "cnot": cnot,
        "cz": cz,
        "toffoli": toffoli,
    }


GATE_NAMES = tuple(sorted(_gate_table()))


def named_gate(name):
    """Look up a standard gate matrix by name; see GATE_NAMES."""
    table = _gate_table()
    try:
        return table[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; choose from {GATE_NAMES}") from None


def embed_on_outputs(gate, n):
    """Pad an n-qubit gate onto the n output qubits of a 3n-qubit register."""
    g = _require_unitary(gate, 2**n, "gate")
    return place_on_qubits(g, [3 * k + 2 for k in range(n)], 3 * n)

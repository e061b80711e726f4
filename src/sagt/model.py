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
from functools import reduce
from typing import Optional

import numpy as np

from .operators import _rescaled, _whole, pauli_string, place_on_qubits, require_duration
from .operators import require_positive
from .schedules import Schedule, in_domain, sample
from .spectral import coordinate_block, coordinate_grid, embed_blocks

MAX_QUBITS = 10

UNITARITY_ATOL = 1e-10

MODES = ("adiabatic", "superadiabatic")


class CapacityError(ValueError):
    """Register would exceed the dense-simulation budget."""


def require_sectors(n):
    """The package's one sector-count check: n >= 1 sectors whose 3n
    qubits fit the dense limit MAX_QUBITS, returned as an int; raises
    ValueError if n is not whole and CapacityError if it is out of range."""
    n = _whole("n", n)
    if n < 1 or 3 * n > MAX_QUBITS:
        limit = f"1..{MAX_QUBITS // 3} (3n qubits, dense limit {MAX_QUBITS})"
        raise CapacityError(f"sector count n={n} outside {limit}")
    return n


def _require_unitary(g, dim, what="rotation"):
    g = np.asarray(g, dtype=complex)
    if g.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {g.shape}")
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, and NaN fails below
        defect = np.abs(g.conj().T @ g - np.eye(dim)).max()
    if not defect <= UNITARITY_ATOL:
        raise ValueError(f"{what} is not unitary (defect {defect:.2e})")
    return g


@dataclass(frozen=True, eq=False)
class HamiltonianFamily:
    """A time-parametrized register Hamiltonian H(s), s in [0, 1].

    A plain value object: n sectors, the coupling rate omega, the
    schedule, the total drive time tau and an optional fixed rotation G.
    Setting tau makes the family superadiabatic: its generator then
    carries the velocity term (i/tau) K, which scales like 1/tau.

    ``coordinate_grid`` forms the family's generator, off one sample of an
    in_domain s-array: the so(4) coordinates of the parity block -omega
    (eta_i A + eta_f B) + (i/tau) K, ``block_matrix_grid``, which
    ``sector_matrix_grid`` embeds on both parities.  ``matrix_grid`` is
    ``_pad`` of those sector terms: summed over the register's sectors and
    rotated, one batch of G H(s) G^dag, (N, dim, dim); ``matrix(s)`` is its
    one-point case.  Padding chunks of one sampled grid keeps the bits of
    matrix_grid on chunks of two or more nodes (numpy rounds one row apart).
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

    def coordinate_grid(self, s_values):
        path = sample(self.schedule, in_domain(s_values))
        return coordinate_grid(path, self.omega, self.tau)

    def block_matrix_grid(self, s_values):
        return coordinate_block(self.coordinate_grid(s_values))

    def sector_matrix_grid(self, s_values):
        h = self.block_matrix_grid(s_values)
        return embed_blocks(h, h)

    def sector_matrix(self, s):
        return self.sector_matrix_grid(np.array([float(s)]))[0]

    def matrix_grid(self, s_values):
        return self._pad(self.sector_matrix_grid(s_values))

    def _pad_buffer(self, count):
        """A zero (count, dim, dim) batch, each sector's diagonal view of the
        cells its 1 (x) h (x) 1 fills, and the main diagonal, where they meet."""
        full, n = np.zeros((count, self.dim, self.dim), dtype=complex), self.sectors
        pads = [full.reshape((count,) + (8**k, 8, 8 ** (n - 1 - k)) * 2) for k in range(n)]
        views = [np.einsum("blirljr->blrij", sector) for sector in pads]
        return full, views, full.reshape(count, -1)[:, :: self.dim + 1]

    def _pad(self, h, out=None):
        """The register matrices of the sector terms h in the first len(h)
        entries of out, a _pad_buffer, or of a fresh one (unrotated, a view of
        out).  Each cell holds its terms added into zero in sector order:
        0 + h (+0.0 for -0.0) across each view, and their sum on the diagonal."""
        count = len(h)
        full, views, diagonal = self._pad_buffer(count) if out is None else out
        if len(views) == 1:  # one sector's view is the whole batch
            np.add(h[:, None, None], 0.0, out=views[0][:count])
        else:
            h = h + 0.0
            for view in views:
                view[:count] = h[:, None, None]
            sums = terms = np.diagonal(h, axis1=1, axis2=2)
            for _ in views[1:]:
                sums = (sums[:, :, None] + terms[:, None, :]).reshape(count, -1)
            diagonal[:count] = sums
        full = full[:count]
        if self.rotation is not None:
            full = self.rotation @ full @ self.rotation.conj().T
        return full

    def matrix(self, s):
        """matrix_grid at the one node s, whose bits may differ from that node's
        row in a grid of two or more by an ulp (coordinate_block)."""
        return self.matrix_grid([float(s)])[0]


def single_sector_family(omega, schedule):
    """The bare three-qubit drive -omega [eta_i (1XX+1ZZ) + eta_f (XX1+ZZ1)]."""
    require_positive("omega", omega)
    if not isinstance(schedule, Schedule):
        raise ValueError("schedule must be a Schedule record")
    return HamiltonianFamily(
        sectors=1, omega=float(omega), schedule=schedule, tau=None, rotation=None
    )


def multi_sector_family(n, omega, schedule):
    """n independent copies of the drive on 3n qubits (sum of padded sectors)."""
    return replace(single_sector_family(omega, schedule), sectors=require_sectors(n))


def superadiabatic_family(base, tau):
    """Attach the velocity term to an adiabatic family by setting its tau.

    The family evaluates the term from its schedule and tau; the base
    family's rotation (if any) conjugates the whole sum, which is the
    covariant way to rotate the dressed Hamiltonian.
    """
    if not isinstance(base, HamiltonianFamily):
        raise ValueError("base must be a HamiltonianFamily")
    if base.mode != "adiabatic":
        raise ValueError(f"base family must be adiabatic, got mode {base.mode!r}")
    require_duration("tau", tau)
    return replace(base, tau=float(tau))


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
    n = require_sectors(n)
    letter = axis.upper()
    if scope == "global":
        spec = letter * (3 * n)
    else:
        k = _whole("scope", scope)
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


def _unit_and_norm(psi):
    """(psi / |psi|, |psi|) of a 1-D complex array, off psi scaled exactly by
    a power of two where a square could over- or underflow (|psi| is inf past
    the largest float); ValueError if psi is not finite or is zero."""
    largest = np.abs(psi.view(float)).max(initial=0.0)
    if not largest < np.inf:  # NaN fails too
        raise ValueError("psi_in has non-finite amplitudes")
    if 2.0**-500 < largest < 2.0**500:  # no square over- or underflows
        norm = np.linalg.norm(psi)
        return psi / norm, norm
    if largest == 0.0:
        raise ValueError("psi_in has zero norm")
    psi, exponent = _rescaled(psi, largest)
    norm = np.linalg.norm(psi)
    with np.errstate(over="ignore"):
        return psi / norm, np.ldexp(norm, exponent)


def _protocol_input(psi_in, n):
    """(psi_in normalized, n as an int), checked to be an n-qubit state of
    n sectors."""
    n = require_sectors(n)
    psi = _unit_and_norm(np.asarray(psi_in, dtype=complex).ravel())[0]
    if psi.size != 2**n:
        raise ValueError(f"psi_in has dim {psi.size}, expected {2 ** n}")
    return psi, n


def _sector_layout(lone, n, lone_last):
    """lone (x) n Bell pairs, ordered [q_1..q_n, a_1, b_1, ..., a_n, b_n],
    permuted so that sector k holds (q_k, a_k, b_k), or (a_k, b_k, q_k)
    with lone_last: register qubit j takes qubit src[j] of the product."""
    state = reduce(np.multiply.outer, [bell_state()] * n, lone)
    src = []
    for k in range(n):
        pair = [n + 2 * k, n + 2 * k + 1]
        src += pair + [k] if lone_last else [k] + pair
    return state.reshape((2,) * (3 * n)).transpose(src).reshape(2 ** (3 * n))


def initial_state(psi_in, n, rotation=None):
    """Inputs on each sector's first qubit, Bell pairs on the other two.

    psi_in is an n-qubit state distributed one qubit per sector (it may be
    entangled across sectors; it is normalized).  An optional rotation --
    a 2^n x 2^n unitary, applied on the n output qubits by _on_outputs --
    pre-rotates the resource halves, which is how a gate is loaded.
    """
    psi, n = _protocol_input(psi_in, n)
    state = _sector_layout(psi, n, lone_last=False)
    if rotation is not None:
        state = _on_outputs(_require_unitary(rotation, 2**n, "gate"), state, n)
    return state


def target_state(psi_in, n, rotation=None):
    """Bell pairs on each sector's first two qubits, the (rotated) input on
    the output qubits: the ideal end point of the protocol.  The 2^n x 2^n
    rotation acts on the input before the layout, not through
    embed_on_outputs, so a gate run's fidelity also checks the placement."""
    out, n = _protocol_input(psi_in, n)
    if rotation is not None:
        out = _require_unitary(rotation, 2**n, "gate rotation") @ out
    return _sector_layout(out, n, lone_last=True)


# ---------------------------------------------------------------------------
# named gates


_GATES = {
    "hadamard": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "t": np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
    "toffoli": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}

GATE_NAMES = tuple(sorted(_GATES))


def named_gate(name):
    """Look up a standard gate matrix by name; see GATE_NAMES."""
    try:
        return _GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; choose from {GATE_NAMES}") from None


def gate_width(gate):
    """The qubit count n of a gate: checks that it is a square 2^n x 2^n
    unitary with n >= 1 (to UNITARITY_ATOL) and raises ValueError if not."""
    g = np.asarray(gate)
    dim = len(g) if g.ndim == 2 else 0
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"gate must be 2^n x 2^n with n >= 1, got shape {g.shape}")
    _require_unitary(g, dim, "gate")  # also rejects a non-square gate
    return dim.bit_length() - 1


def embed_on_outputs(gate, n):
    """Pad an n-qubit gate onto the n output qubits of a 3n-qubit register."""
    g = _require_unitary(gate, 2**n, "gate")
    return place_on_qubits(g, [3 * k + 2 for k in range(n)], 3 * n)


def _on_outputs(gate, psi, n):
    """embed_on_outputs(gate, n) @ psi: a checked G on axes 1, 3, ... of psi."""
    outputs = list(range(1, 2 * n, 2))
    psi = np.moveaxis(np.reshape(psi, (4, 2) * n), outputs, range(n))
    psi = (gate @ psi.reshape(2**n, -1)).reshape(psi.shape)
    return np.moveaxis(psi, range(n), outputs).ravel()

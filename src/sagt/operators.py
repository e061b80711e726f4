"""Dense linear algebra for small qubit registers.

Operators are plain complex128 numpy arrays of shape (2**n, 2**n), states
are 1-D amplitude vectors of length 2**n.  The leftmost factor of a tensor
product -- and the leftmost character of a Pauli string -- acts on the most
significant bit of the basis index, so ``pauli_string("Z11")`` flips the
sign of every basis state whose first qubit is 1.
"""

from functools import reduce

import numpy as np

PAULI = {
    "1": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

HERMITICITY_ATOL = 1e-8


def require_positive(name, value):
    """The package's one check that an input is a finite positive number;
    raises ValueError("<name> must be finite and positive, got ...")."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _as_square(a, name="operator"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def tensor(factors):
    """Kronecker product of a sequence of square matrices, leftmost first."""
    factors = [_as_square(f, "tensor factor") for f in factors]
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    return reduce(np.kron, factors)


def pauli_string(spec):
    """Build the operator named by a string over the alphabet 1, X, Y, Z.

    ``"1XX"`` is identity on qubit 1 and X on qubits 2 and 3.  The result
    is Hermitian, unitary and involutory by construction.
    """
    if not spec:
        raise ValueError("empty Pauli string")
    try:
        mats = [PAULI[c] for c in spec]
    except KeyError as bad:
        raise ValueError(f"unknown Pauli letter {bad} in {spec!r}") from None
    return tensor(mats)


def commutator(a, b):
    """[A, B] = AB - BA for equal-dimension square matrices."""
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(a):
    """sqrt(Tr[A^dag A]); reduces to the root-sum-square of the spectrum
    for Hermitian A."""
    return float(np.linalg.norm(_as_square(a), ord="fro"))


def hermiticity_defect(h):
    """Largest elementwise deviation of H from its own adjoint."""
    h = _as_square(h)
    return float(np.abs(h - h.conj().T).max())


def unitary_step(h, dt, atol=HERMITICITY_ATOL):
    """exp(-i H dt) through the eigendecomposition of Hermitian H.

    Exactly unitary up to roundoff regardless of dt, which is what makes
    piecewise-constant propagation norm-preserving by construction.
    """
    h = _as_square(h, "H")
    if hermiticity_defect(h) > atol:
        raise ValueError("H is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def place_on_qubits(op, qubits, n):
    """Embed an operator on the listed qubits of an n-qubit register.

    ``qubits`` are 0-indexed positions, most significant first; the order
    matters for multi-qubit gates (qubits[0] receives the gate's most
    significant factor).  Identity acts everywhere else.
    """
    op = _as_square(op, "op")
    k = len(qubits)
    if op.shape[0] != 2**k:
        raise ValueError(f"operator dim {op.shape[0]} does not match {k} qubits")
    if len(set(qubits)) != k or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"bad qubit positions {qubits} for register of {n}")
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # ``full`` lives on the qubit ordering [*qubits, *rest]; permute the
    # row and column axes back to standard 0..n-1 ordering.
    order = list(qubits) + rest
    perm = np.argsort(order)
    axes = list(perm) + [n + p for p in perm]
    return full.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def random_unitary(dim, rng):
    """Haar-distributed unitary from the QR factorization of a complex
    Gaussian matrix (R's diagonal phases divided out)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim, rng):
    """Normalized state with complex Gaussian amplitudes."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)

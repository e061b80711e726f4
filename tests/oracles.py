"""Independent reference routes used to freeze expected values.

Everything here deliberately avoids the library's own construction paths:
propagation applies scipy's dense matrix exponential (expm_multiply, its
action on a vector) to whatever Hamiltonian callable it is handed,
integrals go through adaptive quadrature, and eigenvector references come
from plain dense diagonalization.  Tests compare library output against
these routes (or against constants frozen from them) so that a bug in a
shared helper cannot cancel out of both sides.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.sparse.linalg import expm_multiply


def reference_propagate(matrix_fn, psi0, tau, steps):
    """Midpoint-rule propagation: scipy's expm_multiply, the action of
    exp(-i H dt) on the state, for every step.

    ``matrix_fn(s)`` must return the full Hamiltonian at normalized time
    ``s``; no sector factorization, no eigendecomposition reuse.
    """
    psi = np.array(psi0, dtype=complex)
    dt = tau / steps
    for k in range(steps):
        s = (k + 0.5) / steps
        psi = expm_multiply(-1j * matrix_fn(s) * dt, psi)
    return psi


def kron_sum(sector, n, rotation=None):
    """G (sum_k 1 (x) h_k (x) 1) G^dag for one sector term h on each of n
    sectors, padded by explicit Kronecker products."""
    dim = 8**n
    full = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        full += np.kron(np.kron(np.eye(8**k), sector), np.eye(8 ** (n - 1 - k)))
    if rotation is not None:
        full = rotation @ full @ rotation.conj().T
    return full


def reference_quad(fn, a=0.0, b=1.0):
    """Adaptive quadrature of a scalar function, tight tolerances."""
    value, _ = quad(fn, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def dense_levels(matrix):
    """Ascending eigenvalues of a Hermitian matrix via plain eigh."""
    return np.linalg.eigvalsh(matrix)


def dense_frame(matrix):
    """Ascending-ordered eigenpairs of a Hermitian matrix via plain eigh."""
    vals, vecs = np.linalg.eigh(matrix)
    return vals, vecs


def subspace_projector(vectors):
    """Orthogonal projector onto the span of the given column vectors."""
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[:, None]
    q, _ = np.linalg.qr(v)
    return q @ q.conj().T


def interleave_permutation(n):
    """Register permutation mapping sector-contiguous layout to the layout
    where qubit roles are grouped (all inputs, then all Bell halves).

    Returns the permutation matrix ``P`` with ``P @ e_contiguous`` giving the
    amplitude vector in the role-grouped ordering.  Built directly from
    bit shuffling so it shares nothing with the library's axis helpers.
    """
    width = 3 * n
    dim = 2 ** width
    # contiguous qubit index (sector k, role r) -> 3*k + r
    # role-grouped index  (sector k, role r) -> r*n + k
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (width - 1 - q)) & 1 for q in range(width)]
        out_bits = [0] * width
        for k in range(n):
            for r in range(3):
                out_bits[r * n + k] = bits[3 * k + r]
        out = 0
        for b in out_bits:
            out = (out << 1) | b
        perm[out, idx] = 1.0
    return perm

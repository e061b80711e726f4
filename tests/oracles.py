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

from sagt.schedules import sample


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


def rabi_fidelity(tau_omega, n):
    """f(T)^(2n), T = tau omega: the closed-form fidelity of an adiabatic run
    on the trigonometric schedule.  A sector is two spins 1/2 in one
    in-plane field of constant size omega that turns from x to y at the
    rate pi / (2 tau); in the frame turning with it each spin, starting on
    the field's ground state, sees a fixed field (omega, 0, pi / (4 tau))
    and stays on that ground state with Rabi's probability
    f(T) = 1 - q / (T^2 + q) sin^2 sqrt(T^2 + q), q = (pi / 4)^2."""
    q = (np.pi / 4.0) ** 2
    f = 1.0 - q / (tau_omega**2 + q) * np.sin(np.sqrt(tau_omega**2 + q)) ** 2
    return f ** (2 * n)


def ground_pair_projector(schedule, s):
    """8x8 projectors onto the ground pair of the bare drive
    -(eta_i (1XX + 1ZZ) + eta_f (XX1 + ZZ1)) at each s given, (..., 8, 8):
    the two lowest eigenvectors of the dense register matrix, by plain
    dense diagonalization, no parity blocks."""
    x, z, one = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
    drive_a = np.kron(one, np.kron(x, x)) + np.kron(one, np.kron(z, z))
    drive_b = np.kron(np.kron(x, x), one) + np.kron(np.kron(z, z), one)
    eta_i, eta_f = sample(schedule, np.asarray(s, dtype=float))[:2]
    h = -(np.multiply.outer(eta_i, drive_a) + np.multiply.outer(eta_f, drive_b))
    ground = np.linalg.eigh(h)[1][..., :2]
    return ground @ np.swapaxes(ground, -1, -2)


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

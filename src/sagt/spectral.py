"""Analytic eigensystem of the two 4x4 parity blocks of the drive.

The three-qubit drive commutes with the parity operators ZZZ and XXX, so
it never mixes the even-parity subspace with the odd one.  We order the
even (ZZZ = +1) basis as

    {|000>, |011>, |101>, |110>}            (computational indices 0, 3, 5, 6)

and take the odd basis to be the XXX image of each even state, in the same
order:

    {|111>, |100>, |010>, |001>}            (indices 7, 4, 2, 1)

With this pairing the two diagonal 4x4 blocks of the drive are *equal*
matrices, so a single block analysis covers the whole register.  In the
even basis the block reads

    H(s) / (-hbar omega) = [[ei+ef, ei,    0,     ef   ],
                            [ei,    ei-ef, ef,    0    ],
                            [0,     ef,    -ei-ef, ei  ],
                            [ef,    0,     ei,    ef-ei]]

with eigenvalues -2 omega chi, 0, 0, +2 omega chi, chi = sqrt(ei^2+ef^2).

Frame.  With C the parity block of [A, B] (A = 1XX+1ZZ, B = XX1+ZZ1),
[A, C] = 4B and [B, C] = -4A, so R(theta) = exp(-theta C/4) turns A into
cos theta A + sin theta B; as (C/4)^3 = -C/4,

    R(theta) = 1 - sin theta C/4 + (1 - cos theta) (C/4)^2.

The block at (ei, ef) = chi (cos theta, sin theta) is thus chi R H_0 R^T,
H_0 the block at (1, 0), whose frame FRAME_0 has the columns (1,1,0,0),
(1,-1,0,0), (0,0,1,1) and (0,0,1,-1) over sqrt 2, energy ascending.  The
zero-mode pair v1, v2 is turned in a fixed gauge by exp(phi T0), with
T0 = v2 v1^T - v1 v2^T (T0^3 = -T0 too), phi = atan(t) + pi/4 with
t = sin theta - cos theta, so cos phi = (1 - t) / sqrt(2 (1 + t^2)) and
sin phi = (1 + t) / sqrt(2 (1 + t^2)):

    V(theta) = R(theta) exp(phi T0) FRAME_0,

real orthogonal, so <v_m | d/ds v_m> = 0.  Nothing divides by chi + ei or
chi + ef: V is exact to roundoff at every theta, around the circle too.
chart(path) reads cos theta = ei / chi and sin theta = ef / chi off a
sample, with chi^2, theta' = (ei ef' - ef ei') / chi^2 and a below; no
theta or phi is ever taken.  Both turns are 1 + sin M + (1 - cos) M^2, so
frame_grid weighs nine constant matrices r z FRAME_0, r in (1, -C/4,
C^2/16) and z in (1, T0, T0^2), by the products of (1, sin theta,
1 - cos theta) and (1, sin phi, 1 - cos phi), like K below.

Velocity.  d phi / d theta = a(theta) = (cos theta + sin theta) /
(2 - sin 2 theta), whose denominator is at least 1, so the real
antisymmetric frame velocity is K = V' V^T = theta' R (a T0 - C/4) R^T.
R leaves C and the singlet v1 - v2 fixed and turns the spin-1 zero mode
v1 + v2 in a plane, so R T0 R^T = cos theta T0 + sin theta T1 with
T1 = [T0, C/4], and

    K(s) = theta'(s) [a (cos theta T0 + sin theta T1) - C/4].

-C/4 is the gauge-minimal term of Berry (J. Phys. A 42, 365303, 2009) and
Demirplak & Rice (J. Phys. Chem. A 107, 9937, 2003); the a term turns the
fixed gauge inside the zero-mode pair.  T0, T1 and C/4 are orthogonal,
each of squared Frobenius norm 2, so ||K||_F^2 = 2 theta'^2 (1 + a^2):
K is bounded by |theta'| times a constant and vanishes for a frozen
schedule.

Dressed spectrum.  With X = A/2, Y = B/2 and Z = C/(4i) the even block
carries su(2) as spin 1 (+) spin 0: the drive is -E n.J with E = 2 omega
chi and n = (cos theta, sin theta, 0), so the frame levels v0 and v3 are
the spin-1 states n.J = +1 and -1, and the zero-mode pair holds the spin-1
state |0> and the singlet.  In the frame the dressed block
H = drive + (i/tau) K is a star with |0> at its hub, coupled to v0 and v3
with strength g/sqrt 2, g = theta'/tau, and to the singlet with strength
h = a(theta) theta'/tau, the fixed-gauge turn.  Hence
det(H - x) = x^4 - (E^2 + g^2 + h^2) x^2 + E^2 h^2: the spectrum is
+-lambda_1, +-lambda_2 in both modes, and the bare drive has +-E, 0, 0.

Two spins.  Spin 1 (+) spin 0 is two spins 1/2: S = SPIN_FRAME = FRAME_0
[[1, 1, 1, 1], [i, 1, -1, -i], [i, -1, 1, -i], [1, -1, -1, 1]] / 2 takes
|up up>, |up dn>, |dn up>, |dn dn> to the block (v0 = |++>, v3 = |--> at
theta = 0), and S^dag X S reads, with s the Pauli matrices of one spin,

    A = sx (x) 1 + 1 (x) sx,        iT0 = (1 (x) sx - sx (x) 1) / 2,
    B = sy (x) 1 + 1 (x) sy,        iT1 = (1 (x) sy - sy (x) 1) / 2,
    iC/4 = -(sz (x) 1 + 1 (x) sz) / 2.

The drive is one in-plane field on both spins, Berry's term (theta'/2 tau)
sz on both, and the fixed-gauge turn an in-plane field of opposite sign on
each, so every block is h = S (a.s (x) 1 + 1 (x) b.s) S^dag, (a, b) in
su(2) (+) su(2).  The coordinates come off the chart: h weighs A, B, iT0,
iT1, iC/4 by (-omega eta_i, -omega eta_f, r a cos theta, r a sin theta,
-r), r = theta'/tau, so coordinate_grid is linear in those and the block
is their image, coordinate_block.  The spins commute, so steps e^{-i dt h}
multiply to S (U_a (x) U_b) S^dag, U_a = e^{-i dt a_{N-1}.s} ...
e^{-i dt a_0.s} and U_b alike.  Each e^{-i v.s} = cos|v| - i w.s, w = v
sin|v| / |v|, is [[alpha, -conj beta], [beta, conj alpha]], (alpha, beta)
= (cos|v| - i w_z, w_y - i w_x), and spin_products multiplies both spins'
steps in one pairwise tree, (a1, b1)(a0, b0) = (a1 a0 - conj b1 b0, b1 a0
+ conj a1 b0), later step on the left, laid out tree axis first in
bit-reversed order (tree_index), so each level multiplies two contiguous
halves in place.  The bare drive has a = b, so one spin serves both there;
a rung chains its segments per spin and forms S (U_a (x) U_b) S^dag,
spin_blocks, at its checkpoints alone.

Sampling.  A block depends on the path only through chi, theta and
theta', so every *_grid function takes one schedules.sample, never a
schedule and a grid, and reads those off it through chart; the scalar
entry points sample their one point through schedules.sample_at.  Only
omega and 1/tau weigh a sample's coordinate_terms (weigh_terms), so a
caller may keep those terms for every omega and tau.
"""

import numpy as np

from .operators import pauli_string, require_duration
from .schedules import chi as _chi
from .schedules import in_domain, sample, sample_at

# Computational-basis indices of the even block and, pairwise complemented,
# of the odd block.  Order matters: it is what makes the two blocks equal.
PLUS_BASIS = (0, 3, 5, 6)
MINUS_BASIS = tuple(7 - i for i in PLUS_BASIS)  # XXX flips all three bits
_BLOCK_INDEX = tuple((Ellipsis,) + np.ix_(basis, basis) for basis in (PLUS_BASIS, MINUS_BASIS))

# The two coupling patterns of the drive, weighed by eta_i and eta_f, their
# common parity block, and the commutator of the blocks.
DRIVE_A = pauli_string("1XX") + pauli_string("1ZZ")
DRIVE_B = pauli_string("XX1") + pauli_string("ZZ1")
BLOCK_A = DRIVE_A[np.ix_(PLUS_BASIS, PLUS_BASIS)].real
BLOCK_B = DRIVE_B[np.ix_(PLUS_BASIS, PLUS_BASIS)].real
BLOCK_C = BLOCK_A @ BLOCK_B - BLOCK_B @ BLOCK_A

# The theta = 0 frame, energy ascending, its zero-mode turn T0, and the
# basis (T0, T1, C/4) on which K / theta' is (a cos, a sin, -1), flattened.
FRAME_0 = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]).T / 2**0.5
TURN_0 = np.outer(FRAME_0[:, 2], FRAME_0[:, 1])
TURN_0 = TURN_0 - TURN_0.T
TURN_1 = 0.25 * (TURN_0 @ BLOCK_C - BLOCK_C @ TURN_0)
_VELOCITY_BASIS = np.stack([TURN_0, TURN_1, 0.25 * BLOCK_C]).reshape(3, 16)
# The nine r z FRAME_0, r and z the powers 0, 1, 2 of -C/4 and T0, that V
# weighs by (1, sin theta, 1 - cos theta) (x) (1, sin phi, 1 - cos phi).
_POWERS = [np.stack([np.eye(4), m, m @ m]) for m in (-0.25 * BLOCK_C, TURN_0)]
_FRAME_BASIS = (_POWERS[0][:, None] @ _POWERS[1] @ FRAME_0).reshape(9, 4, 4)

# S = SPIN_FRAME, and S (s (x) 1, 1 (x) s) S^dag in its float view: a block h,
# viewed as 32 floats, has (a, b) = h @ _SPLIT and its part in the span (a, b) @ _UNSPLIT.
SPIN_FRAME = FRAME_0 @ np.array(
    [[1, 1, 1, 1], [1j, 1, -1, -1j], [1j, -1, 1, -1j], [1, -1, -1, 1]]
) / 2
_SPINS = np.stack([pauli_string(p) for p in ("X1", "Y1", "Z1", "1X", "1Y", "1Z")])
_UNSPLIT = (SPIN_FRAME @ _SPINS @ SPIN_FRAME.T.conj()).view(float).reshape(6, 32)
_SPLIT = 0.25 * _UNSPLIT.T
# The (a, b) of A, B, iT0, iT1 and iC/4, the generators a sample weighs.
_SAMPLE_SPLIT = np.stack([BLOCK_A, BLOCK_B, 1j * TURN_0, 1j * TURN_1, 0.25j * BLOCK_C])
_SAMPLE_SPLIT = _SAMPLE_SPLIT.astype(complex).reshape(5, 16).view(float) @ _SPLIT


def drive_grid(path, omega):
    """The block -omega (eta_i A + eta_f B) at each point of a
    schedules.sample, shape (..., 4, 4) complex."""
    ei, ef = (w[..., None, None] for w in path[:2])
    return (-omega * (ei * BLOCK_A + ef * BLOCK_B)).astype(complex)


def block_hamiltonian(schedule, s, omega=1.0):
    """The common 4x4 block -omega (eta_i A + eta_f B) of the drive in the
    even-parity basis.

    s may be a scalar, giving one (4, 4) complex matrix, or an array,
    giving shape (..., 4, 4).  HamiltonianFamily.coordinate_grid forms
    it, with the velocity block, as so(4) coordinates.
    """
    return drive_grid(sample(schedule, in_domain(s)), omega)


def block_energies(schedule, s, omega=1.0):
    """Block spectrum (-2 omega chi, 0, 0, +2 omega chi), energy ascending."""
    c = _chi(schedule, s)
    return np.array([-2.0 * omega * c, 0.0, 0.0, 2.0 * omega * c])


def gap(schedule, s, omega=1.0):
    """Energy distance 2 omega chi between the ground level and the zero
    modes; positive whenever the schedule is valid."""
    return 2.0 * omega * _chi(schedule, s)


def chart(path):
    """(chi^2, cos theta, sin theta, theta', a(theta)) at each point of a
    schedules.sample: cos theta = ei / chi, sin theta = ef / chi,
    theta' = (ei ef' - ef ei') / chi^2 and the zero-mode turn rate
    a = (cos theta + sin theta) / (2 - 2 cos theta sin theta)."""
    ei, ef, dei, def_ = path
    chi2 = ei * ei + ef * ef
    chi = np.sqrt(chi2)
    cos, sin = ei / chi, ef / chi
    a = (cos + sin) / (2.0 - 2.0 * cos * sin)
    return chi2, cos, sin, (ei * def_ - ef * dei) / chi2, a


def frame_grid(path):
    """The eigenframe V = R(theta) exp(phi T0) FRAME_0 at each sample point,
    (..., 4, 4); column m is the eigenvector of block_energies[m]."""
    _, cos, sin, _, _ = chart(path)
    t = sin - cos
    norm = np.sqrt(2.0 * (1.0 + t * t))
    one = np.ones_like(t)
    turn = np.stack([one, sin, 1.0 - cos], axis=-1)
    zero_turn = np.stack([one, (1.0 + t) / norm, 1.0 - (1.0 - t) / norm], axis=-1)
    weights = (turn[..., :, None] * zero_turn[..., None, :]).reshape(t.shape + (9,))
    return np.einsum("...i,ijk->...jk", weights, _FRAME_BASIS)


def block_eigenvectors(schedule, s):
    """4x4 orthonormal frame at scalar s; columns ordered by energy."""
    return frame_grid(sample_at(schedule, s))[0]


def _velocity_weights(path):
    """theta' (a cos theta, a sin theta, -1), K on (T0, T1, C/4), (..., 3)."""
    _, cos, sin, rate, a = chart(path)
    weights = np.stack([a * cos, a * sin, -np.ones_like(a)], axis=-1)
    return rate[..., None] * weights


def velocity_grid(path):
    """K = V' V^T = theta' [a (cos theta T0 + sin theta T1) - C/4] at each
    sample point, (..., 4, 4), exact in the schedule's derivatives."""
    k = _velocity_weights(path) @ _VELOCITY_BASIS
    return k.reshape(np.shape(path[0]) + (4, 4))


def block_eigenvector_derivatives(schedule, s):
    """Columnwise d/ds of block_eigenvectors at scalar s: V' = K V."""
    path = sample_at(schedule, s)
    return (velocity_grid(path) @ frame_grid(path))[0]


def coordinate_terms(path, dressed):
    """The tau- and omega-free terms of the so(4) coordinates at each point
    of a schedules.sample: (eta_i, eta_f) stacked, (..., 2), and for the
    dressed drive _velocity_weights, (..., 3), else None."""
    return np.stack(path[:2], axis=-1), _velocity_weights(path) if dressed else None


def weigh_terms(terms, omega, tau=None):
    """The so(4) coordinates (a, b), (..., 6), of coordinate_terms: the
    drive weighed by omega, plus (i/tau) K for a tau."""
    etas, velocity = terms
    ab = etas @ (-omega * _SAMPLE_SPLIT[:2])
    if tau is not None:
        require_duration("tau", tau)
        ab += velocity @ (_SAMPLE_SPLIT[2:] / tau)
    return ab


def coordinate_grid(path, omega, tau=None):
    """The so(4) coordinates (a, b) of the sector block at each point of a
    schedules.sample, (..., 6): the drive, plus (i/tau) K for a tau."""
    return weigh_terms(coordinate_terms(path, tau is not None), omega, tau)


def coordinate_block(ab):
    """The sector blocks S (a.s (x) 1 + 1 (x) b.s) S^dag of coordinates (..., 6).
    A row gets the bits it has in any batch of two or more rows; a lone row
    takes numpy's one-row product, an ulp or so apart.  coordinate_grid, and
    spin_products per run, keep their bits in any batch, one row included."""
    return (ab @ _UNSPLIT).view(complex).reshape(np.shape(ab)[:-1] + (4, 4))


def tree_index(lengths):
    """The (P, runs) int32 gather index of runs of lengths[j] rows for
    spin_products: entry [p, j] is the row of step rev(p) of run j, rev the
    log2 P-bit reversal, P the power of two of the longest run, or past its
    end -1, an exact identity that leaves the run's bits unchanged.  Each
    tree level multiplies the upper half onto the lower, pairing steps
    (2j, 2j + 1) as a row-major tree would."""
    lengths = np.asarray(lengths)
    order = np.zeros((1, 1), np.int32)
    while len(order) < lengths.max():
        order = np.concatenate((2 * order, 2 * order + 1))
    return np.where(order < lengths, np.cumsum(lengths) - lengths + order, -1).astype(np.int32)


def spin_products(ab, dt, index, spins):
    """(alpha, beta), (runs, spins) each, of U_{k+n-1} ... U_k for each run
    of rows of the coordinates ab, (N, 6), that tree_index laid out in
    `index`, spin a first: one SU(2) tree for both spins, each (alpha, beta)
    rescaled to unit norm; spins=1 takes spin a alone, which serves both
    when a == b.  ab is scaled by dt in place and freed before the tree is
    taken.  Non-finite ab, or a step angle dt |a| that overflows, raise
    ValueError."""
    overflow = f"a step angle dt |a| overflows at dt = {dt:.3g}"
    try:
        with np.errstate(over="raise"):  # a finite |a| whose dt |a| overflows
            np.multiply(ab, dt, out=ab)  # all six columns: contiguous, so far faster than three
    except FloatingPointError:
        raise ValueError(overflow) from None
    v = ab[:, : 3 * spins].reshape(len(ab), spins, 3)  # dt a (and dt b)
    angle = np.sqrt(np.einsum("nsk,nsk->ns", v, v))
    if not np.all(np.isfinite(angle)):  # NaN fails too; ab is read on this path alone
        raise ValueError(overflow if np.all(np.isfinite(v)) else "so(4) coordinates are not finite")
    w = np.sin(angle)  # sin|v| / |v|, which weighs nothing at v = 0
    np.divide(w, angle, out=w, where=angle > 0)
    # the steps, the tree and its scratch in one block: glibc returns freed memory to the
    # system once it passes twice the largest block, and the next pass faults it in again
    size, cols, rows = len(index), index.shape[1] * spins, 2 * (len(v) + 1) * spins
    work = np.empty(rows + 2 * size * cols + 2 * (size // 2) * cols, complex)
    steps = work[:rows].reshape(2, len(v) + 1, spins)  # (alpha, beta), the identity last
    re, im = steps.real[:, :-1], steps.imag[:, :-1]
    np.cos(angle, out=re[0])
    np.multiply(w, v[..., 1], out=re[1])
    np.multiply(np.negative(w, out=w), v[..., 2], out=im[0])
    np.multiply(w, v[..., 0], out=im[1])
    steps[:, -1] = [[1.0], [0.0]]
    del ab, v, angle, w  # freed before the tree is taken
    # the tree axis first and both spins of every run along a row: each half is contiguous
    alpha, beta = tree = work[rows : rows + 2 * size * cols].reshape(2, size, cols)
    np.take(steps, index, axis=1, out=tree.reshape(2, size, -1, spins), mode="wrap")  # unbuffered
    half, scratch = size // 2, work[rows + 2 * size * cols :].reshape(2, size // 2, cols)
    while half:  # (a1, b1)(a0, b0) = (a1 a0 - b1* b0, b1 a0 + a1* b0), written onto (a0, b0)
        a0, a1, b0, b1 = alpha[:half], alpha[half : 2 * half], beta[:half], beta[half : 2 * half]
        b1_a0 = np.multiply(b1, a0, out=scratch[0, :half])  # no product is written onto its
        b1_b0 = np.multiply(np.conjugate(b1, out=b1), b0, out=scratch[1, :half])  # own operand,
        np.subtract(np.multiply(a1, a0, out=b1), b1_b0, out=a0)  # which numpy rounds apart for
        np.add(b1_a0, np.multiply(np.conjugate(a1, out=a1), b0, out=b1), out=b0)  # one entry
        half //= 2
    # a drive whose steps all round alike drifts off |alpha|^2 + |beta|^2 = 1
    alpha, beta = np.stack((alpha[0], beta[0])) / np.hypot(abs(alpha[0]), abs(beta[0]))
    return alpha.reshape(-1, spins), beta.reshape(-1, spins)


def spin_blocks(alpha, beta):
    """S (U_a (x) U_b) S^dag, U = [[alpha, -beta*], [beta, alpha*]], of
    per-spin (alpha, beta), (..., spins) each; a lone spin is both."""
    u = np.stack((alpha, -np.conj(beta), beta, np.conj(alpha)), -1).reshape(alpha.shape + (2, 2))
    u = u[..., 0, :, None, :, None] * u[..., -1, None, :, None, :]
    return SPIN_FRAME @ u.reshape(u.shape[:-4] + (4, 4)) @ SPIN_FRAME.conj().T


def embed_blocks(plus_block, minus_block):
    """Assemble 8x8 register operators from their two 4x4 parity blocks.

    Blocks may carry leading batch axes (..., 4, 4), equal for both.
    Entries outside the two blocks are exactly zero, which is what makes
    commutation with ZZZ structural rather than approximate.
    """
    plus_block = np.asarray(plus_block, dtype=complex)
    minus_block = np.asarray(minus_block, dtype=complex)
    if plus_block.shape[-2:] != (4, 4) or minus_block.shape != plus_block.shape:
        raise ValueError("blocks must be 4x4 with equal batch shapes")
    out = np.zeros(plus_block.shape[:-2] + (8, 8), dtype=complex)
    for index, block in zip(_BLOCK_INDEX, (plus_block, minus_block)):
        out[index] = block
    return out


def embed_block_vector(v, parity):
    """Lift a 4-component block vector to the 8-dimensional register.

    parity +1 places it on the even basis, -1 on the odd basis.
    """
    if parity not in (+1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    v = np.asarray(v)
    out = np.zeros(8, dtype=complex)
    out[list(PLUS_BASIS if parity == +1 else MINUS_BASIS)] = v
    return out

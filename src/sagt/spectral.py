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

Real frame.  Spin 1 is a real representation: in its Cartesian basis
-i J is real antisymmetric.  So with W = FRAME_0 Q, where Q has the columns
i(e0 - e3)/sqrt 2, (e0 + e3)/sqrt 2, e1 and e2, the five constant
generators -iA, -iB, C, T0 and T1 are real antisymmetric in W, and so is
G = W^dag (-i h) W for every sector block h, in both gauges.  Read R^4 as
the quaternions x0 + x1 i + x2 j + x3 k, whose Hamilton table is
e_a e_b = sum_c H[a, b, c] e_c on (1, i, j, k): 1 is neutral, e_l e_l = -1,
e_l e_m = eps_lmn e_n, eps_lmn = (l - m)(m - n)(n - l) / 2.  Its transposes
L_m[c, b] = H[m, b, c]: x -> e_m x and R_m[c, a] = H[a, m, c]: x -> x e_m,
e = (i, j, k), span so(4) = su(2) (+) su(2); all six are orthogonal with
squared Frobenius norm 4, and every L_m commutes with every R_n.  Hence

    G = a.L + b.R,    a_m = <G, L_m> / 4,    b_m = <G, R_m> / 4,
    exp(G t) = L(e^{t a}) R(e^{t b}),    e^v = cos|v| + sinc|v| v,

with e^v a unit quaternion, so a step is the real orthogonal
O = L(p) R(q), bilinear in p and q.  As L commutes with R, a time-ordered
product of steps is W L(p_{N-1} ... p_0) R(q_0 ... q_{N-1}) W^dag.  The
coordinates come off the chart: h weighs A, B, iT0, iT1, iC/4 by
(-omega eta_i, -omega eta_f, r a cos theta, r a sin theta, -r),
r = theta'/tau, so coordinate_grid is linear in those and the block is
their image, coordinate_block.  step_products holds w + x i + y j + z k as
the pair (w + x i, y + z i), multiplied as (a1, b1)(a2, b2) = (a1 a2 -
b1 conj b2, a1 b2 + b1 conj a2), runs the p and, as conj(q_0 ... q_{N-1}) =
conj q_{N-1} ... conj q_0, the conj q of a run through one pairwise tree
each, later step on the left, and forms L(P) R(Q) once per run.

Sampling.  A block depends on the path only through chi, theta and
theta', so every *_grid function takes one schedules.sample, never a
schedule and a grid, and reads those off it through chart; the scalar
entry points sample their one point through schedules.sample_at.
"""

import numpy as np

from .operators import pauli_string, require_positive
from .schedules import chi as _chi
from .schedules import in_domain, sample, sample_at

# Computational-basis indices of the even block and, pairwise complemented,
# of the odd block.  Order matters: it is what makes the two blocks equal.
PLUS_BASIS = (0, 3, 5, 6)
MINUS_BASIS = tuple(7 - i for i in PLUS_BASIS)  # XXX flips all three bits

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

# Q = CARTESIAN takes the spin-1 levels v0, v3 to their real combinations,
# and W = REAL_FRAME = FRAME_0 Q.
CARTESIAN = np.array(
    [[1j, 1, 0, 0], [0, 0, 2**0.5, 0], [0, 0, 0, 2**0.5], [-1j, 1, 0, 0]]
) / 2**0.5
REAL_FRAME = FRAME_0 @ CARTESIAN
# H (eps_lmn holds for i, j, k counted from 0 too) and its transposes, the
# multiplications by (1, i, j, k); QUAT_LEFT and QUAT_RIGHT drop the 1.
_HAMILTON = np.zeros((4, 4, 4))
_HAMILTON[0, range(4), range(4)] = _HAMILTON[range(4), 0, range(4)] = 1.0
_HAMILTON[range(1, 4), range(1, 4), 0] = -1.0
_L, _M, _N = np.indices((3, 3, 3))
_HAMILTON[1:, 1:, 1:] = (_L - _M) * (_M - _N) * (_N - _L) / 2
_LEFT_1, _RIGHT_1 = _HAMILTON.transpose(0, 2, 1), _HAMILTON.transpose(1, 2, 0)
QUAT_LEFT, QUAT_RIGHT = _LEFT_1[1:], _RIGHT_1[1:]
# i W L_m W^dag and i W R_m W^dag in their float view: a block h, viewed as
# 32 floats, has (a, b) = h @ _SPLIT and its part in the span (a, b) @ _UNSPLIT.
_UNSPLIT = 1j * REAL_FRAME @ np.vstack((QUAT_LEFT, QUAT_RIGHT)) @ REAL_FRAME.T.conj()
_UNSPLIT = _UNSPLIT.view(float).reshape(6, 32)
_SPLIT = 0.25 * _UNSPLIT.T
# The (a, b) of A, B, iT0, iT1 and iC/4, the generators a sample weighs.
_SAMPLE_SPLIT = np.stack([BLOCK_A, BLOCK_B, 1j * TURN_0, 1j * TURN_1, 0.25j * BLOCK_C])
_SAMPLE_SPLIT = _SAMPLE_SPLIT.astype(complex).reshape(5, 16).view(float) @ _SPLIT
# L(p) R(q), flattened, is (p (x) q) @ _QUAT_PRODUCT, with e_0 = 1.
_QUAT_PRODUCT = np.einsum("jab,kbc->jkac", _LEFT_1, _RIGHT_1).reshape(16, 16)


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


def frame_derivative_grid(path):
    """d/ds of the eigenframe at each sample point: V' = K V, (..., 4, 4)."""
    return velocity_grid(path) @ frame_grid(path)


def block_eigenvector_derivatives(schedule, s):
    """Columnwise d/ds of block_eigenvectors at scalar s."""
    return frame_derivative_grid(sample_at(schedule, s))[0]


def coordinate_grid(path, omega, tau=None):
    """The so(4) coordinates (a, b) of the sector block at each point of a
    schedules.sample, (..., 6): the drive, plus (i/tau) K for a tau."""
    ab = np.stack(path[:2], axis=-1) @ (-omega * _SAMPLE_SPLIT[:2])
    if tau is not None:
        require_positive("tau", tau)
        ab += _velocity_weights(path) @ (_SAMPLE_SPLIT[2:] / tau)
    return ab


def coordinate_block(ab):
    """The sector blocks i W (a.L + b.R) W^dag of coordinates (..., 6)."""
    return (ab @ _UNSPLIT).view(complex).reshape(np.shape(ab)[:-1] + (4, 4))


def step_products(ab, dt, lengths):
    """W O_{k+n-1} ... O_k W^dag for consecutive runs of lengths[j] rows of
    the coordinates ab, (N, 6), as (len(lengths), 4, 4): a quaternion-pair
    tree per factor, each run padded to a power of two by exact identities,
    which leave its tree bitwise unchanged.  Non-finite ab raise ValueError."""
    if not np.all(np.isfinite(ab)):
        raise ValueError("so(4) coordinates are not finite")
    ab, lengths = np.reshape(ab, (-1, 6)), np.asarray(lengths)
    if lengths.sum() != len(ab):
        raise ValueError(f"runs of {lengths.sum()} steps for {len(ab)} coordinates")
    steps = np.arange(1 << int(lengths.max() - 1).bit_length()) < lengths[:, None]
    pq = []
    for v in (dt * ab[:, :3], -dt * ab[:, 3:]):  # p = e^{t a}, conj q = e^{-t b}
        angle = np.sqrt(np.einsum("ij,ij->i", v, v))
        v *= np.sinc(angle / np.pi)[:, None]
        alpha, beta = np.ones(steps.shape, complex), np.zeros(steps.shape, complex)
        alpha[steps], beta[steps] = np.cos(angle) + 1j * v[:, 0], v[:, 1] + 1j * v[:, 2]
        while alpha.shape[1] > 1:  # (a1, b1)(a0, b0), the later step a1 + b1 j
            a1, a0, b1, b0 = alpha[:, 1::2], alpha[:, ::2], beta[:, 1::2], beta[:, ::2]
            alpha, beta = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
        pq.append(np.stack((alpha[:, 0], beta[:, 0]), axis=-1).view(float))
    p, q = pq[0], pq[1] * [1, -1, -1, -1]  # q is the conjugate of its tree
    o = (p[:, :, None] * q[:, None, :]).reshape(-1, 16) @ _QUAT_PRODUCT
    return REAL_FRAME @ o.reshape(-1, 4, 4) @ REAL_FRAME.conj().T


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
    for basis, block in ((PLUS_BASIS, plus_block), (MINUS_BASIS, minus_block)):
        idx = np.asarray(basis)
        out[..., idx[:, None], idx[None, :]] = block
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

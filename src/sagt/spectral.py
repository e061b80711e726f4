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
T0 = v2 v1^T - v1 v2^T (T0^3 = -T0 too), phi = atan(sin theta - cos theta)
+ pi/4:

    V(theta) = R(theta) exp(phi T0) FRAME_0,

real orthogonal, so <v_m | d/ds v_m> = 0.  Nothing divides by chi + ei or
chi + ef: V is exact to roundoff at every theta, around the circle too.
chart(path) is the one place theta = atan2(ef, ei) is read off a sample,
with chi^2, theta' = (ei ef' - ef ei') / chi^2 and a below.

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
state |0> (n.J |0> = 0) and the singlet.  In the frame the dressed block
H = drive + (i/tau) K is a star with |0> at its hub: the velocity term
couples |0> to v0 and v3 with strength g/sqrt 2, g = theta'/tau, and to the
singlet with strength h = a(theta) theta'/tau, the fixed-gauge turn;
nothing else couples.  Hence

    det(H - x) = x^4 - (E^2 + g^2 + h^2) x^2 + E^2 h^2,

so the spectrum is +-lambda_1, +-lambda_2 in both modes, and the bare
drive (g = h = 0) has +-E, 0, 0.  With S = E^2 + g^2 + h^2,
lambda_1^2 - lambda_2^2 = sqrt(S^2 - 4 E^2 h^2), a quadratic in g^2 with
negative discriminant; since |a| <= sqrt 2 it is at least (2 sqrt 2 / 3)
E^2, so the two levels never meet.

Step exponential.  A Hermitian block with spectrum +-lambda_1, +-lambda_2
satisfies H^4 = S H^2 - lambda_1^2 lambda_2^2, so

    exp(-i H t) = alpha + beta H^2 - i H (gamma + delta H^2),

where alpha + beta l^2 = cos(l t) and gamma + delta l^2 = sin(l t) / l at
l = lambda_1 and lambda_2.  With x = lambda_1 t, y = lambda_2 t,
p = (x + y)/2, q = (x - y)/2 and sinc z = sin z / z these divided
differences read

    beta  = -(t^2/2) sinc p sinc q,        alpha = cos y - beta lambda_2^2,
    delta = t^3 (cos p sinc q - sinc y) / (2 p x),
    gamma = t sinc y - delta lambda_2^2,

finite for every nonzero block, a degenerate one (q = 0) included.  The
levels come from the block's own moments: S = ||H||_F^2 / 2 and
lambda_1^4 + lambda_2^4 = ||H^2||_F^2 / 2.  lambda_2^2 then carries a
roundoff error of about eps lambda_1^2, but it enters only through even
functions of y, which costs about eps (lambda_1 t)^2.
block_exponential_grid needs no eigensolver; it checks the precondition
through the odd moments tr H and tr H^3.

Sampling.  A block depends on the path only through chi, theta and
theta', so every *_grid function takes one schedules.sample, never a
schedule and a grid, and reads those off it through chart; the scalar
entry points sample their one point through schedules.sample_at.
"""

import numpy as np

from .operators import pauli_string
from .schedules import chi as _chi
from .schedules import in_domain, sample, sample_at

# Computational-basis indices of the even block and, pairwise complemented,
# of the odd block.  Order matters: it is what makes the two blocks equal.
PLUS_BASIS = (0, 3, 5, 6)
MINUS_BASIS = (7, 4, 2, 1)

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

# Odd moments |tr H| / S^(1/2) and |tr H^3| / S^(3/2) of a sector block are
# a few eps; anything above this is a spectrum that is not symmetric.
ODD_MOMENT_RTOL = 1e-12


def drive_grid(path, omega):
    """The block -omega (eta_i A + eta_f B) at each point of a
    schedules.sample, shape (..., 4, 4) complex."""
    ei, ef = (w[..., None, None] for w in path[:2])
    return (-omega * (ei * BLOCK_A + ef * BLOCK_B)).astype(complex)


def block_hamiltonian(schedule, s, omega=1.0):
    """The common 4x4 block -omega (eta_i A + eta_f B) of the drive in the
    even-parity basis.

    s may be a scalar, giving one (4, 4) complex matrix, or an array,
    giving shape (..., 4, 4).  HamiltonianFamily.block_matrix_grid adds
    the velocity block to it, and every 8x8 sector operator of the package
    is embed_blocks(b, b) of that sum.
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
    """(chi^2, theta, theta', a(theta)) at each point of a schedules.sample:
    theta = atan2(ef, ei), theta' = (ei ef' - ef ei') / chi^2 and the
    zero-mode turn rate a = (cos theta + sin theta) / (2 - sin 2 theta)."""
    ei, ef, dei, def_ = path
    chi2 = ei * ei + ef * ef
    theta = np.arctan2(ef, ei)
    a = (np.cos(theta) + np.sin(theta)) / (2.0 - np.sin(2.0 * theta))
    return chi2, theta, (ei * def_ - ef * dei) / chi2, a


def _exp_turn(m, angle):
    """exp(angle m) = 1 + sin(angle) m + (1 - cos(angle)) m^2 at each angle,
    for a constant real m with m^3 = -m; shape (..., 4, 4)."""
    angle = angle[..., None, None]
    return np.eye(4) + np.sin(angle) * m + (1.0 - np.cos(angle)) * (m @ m)


def frame_grid(path):
    """The eigenframe V = R(theta) exp(phi T0) FRAME_0 at each sample point,
    (..., 4, 4); column m is the eigenvector of block_energies[m]."""
    _, theta, _, _ = chart(path)
    phi = np.arctan(np.sin(theta) - np.cos(theta)) + 0.25 * np.pi
    return _exp_turn(-0.25 * BLOCK_C, theta) @ _exp_turn(TURN_0, phi) @ FRAME_0


def block_eigenvectors(schedule, s):
    """4x4 orthonormal frame at scalar s; columns ordered by energy."""
    return frame_grid(sample_at(schedule, s))[0]


def velocity_grid(path):
    """K = V' V^T = theta' [a (cos theta T0 + sin theta T1) - C/4] at each
    sample point, (..., 4, 4), exact in the schedule's derivatives."""
    _, theta, rate, a = chart(path)
    weights = np.stack([a * np.cos(theta), a * np.sin(theta), -np.ones_like(a)], axis=-1)
    k = (rate[..., None] * weights) @ _VELOCITY_BASIS
    return k.reshape(np.shape(theta) + (4, 4))


def frame_derivative_grid(path):
    """d/ds of the eigenframe at each sample point: V' = K V, (..., 4, 4)."""
    return velocity_grid(path) @ frame_grid(path)


def block_eigenvector_derivatives(schedule, s):
    """Columnwise d/ds of block_eigenvectors at scalar s."""
    return frame_derivative_grid(sample_at(schedule, s))[0]


def _sinc(z):
    return np.sinc(z / np.pi)


def _half_square_norm(a):
    """||a||_F^2 / 2 of each 4x4 slice of a complex (..., 4, 4) array."""
    flat = a.view(float).reshape(a.shape[:-2] + (32,))
    return 0.5 * np.einsum("...i,...i->...", flat, flat)


def block_exponential_grid(h, dt):
    """exp(-i h dt) of each Hermitian 4x4 block of h, shape (..., 4, 4).

    Closed form for a spectrum +-lambda_1, +-lambda_2, which every sector
    block has in both modes (see "Step exponential" in the module
    docstring).  A block whose odd moments tr h or tr h^3 exceed roundoff
    has no such spectrum and raises ValueError.
    """
    lead = np.shape(h)[:-2]
    h = np.ascontiguousarray(h, dtype=complex).reshape(-1, 4, 4)
    h2 = h @ h
    h3 = h @ h2
    s = _half_square_norm(h)  # lambda_1^2 + lambda_2^2
    odd1 = np.abs(np.einsum("...ii->...", h))
    odd3 = np.abs(np.einsum("...ii->...", h3).real)
    if np.any(odd1 > ODD_MOMENT_RTOL * np.sqrt(s)) or np.any(
        odd3 > ODD_MOMENT_RTOL * s**1.5
    ):
        raise ValueError("block spectrum is not symmetric about zero")
    # lambda_1^2 - lambda_2^2 from lambda_1^4 + lambda_2^4 = ||h^2||_F^2 / 2
    d = np.sqrt(np.maximum(2.0 * _half_square_norm(h2) - s * s, 0.0))
    x = dt * np.sqrt(0.5 * (s + d))
    y = dt * np.sqrt(np.maximum(0.5 * (s - d), 0.0))
    p, q = 0.5 * (x + y), 0.5 * (x - y)
    # the docstring's alpha, beta, gamma, delta in units of dt^0, dt^2, dt, dt^3
    beta = -0.5 * _sinc(p) * _sinc(q)
    delta = (np.cos(p) * _sinc(q) - _sinc(y)) / (2.0 * p * x)
    alpha = np.cos(y) - beta * y * y
    gamma = _sinc(y) - delta * y * y
    u = (dt * dt * beta)[..., None, None] * h2
    u += (-1j * dt * gamma)[..., None, None] * h
    u += (-1j * dt**3 * delta)[..., None, None] * h3
    diag = np.arange(4)
    u[..., diag, diag] += alpha[..., None]
    return u.reshape(lead + (4, 4))


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

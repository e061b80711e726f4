"""Velocity compensation: the term that turns the drive into an exact
transporter of its own eigenframe.

Per parity block the correction is (i hbar / tau) sum_m |d/ds v_m><v_m| =
(i/tau) K, with K = theta' R (a T0 - C/4) R^T the closed-form frame
velocity of spectral.velocity_grid: exact in the schedule's derivatives,
and bounded, ||K||_F^2 = 2 theta'^2 (1 + a^2) with |a| <= sqrt 2.  K is real
antisymmetric, so the correction is Hermitian, traceless, and zero
whenever the schedule freezes (theta' = 0).  block_cd_grid builds the
term as a matrix from a schedules.sample, and sector_cd embeds it on both
parity blocks; the families form it as so(4) coordinates
(spectral.coordinate_grid), which tests check against block_cd_grid.
assembled_register_cd rebuilds the register term by finite differences of
the full product frame, as an independent cross-check.  The families that
carry the term, superadiabatic_family included, live in model.
"""

import numpy as np

from . import spectral
from .operators import require_duration
from .schedules import sample_at

_CHECK_STEP = 2e-6  # finite-difference step of assembled_register_cd


def block_cd_grid(path, tau):
    """(..., 4, 4) complex: the block correction at each sample point."""
    require_duration("tau", tau)
    return 1j / tau * spectral.velocity_grid(path)


def block_cd(schedule, s, tau):
    """4x4 correction at scalar s."""
    return block_cd_grid(sample_at(schedule, s), tau)[0]


def sector_cd(schedule, s, tau):
    """8x8 correction for one sector: the same block on both parities."""
    block = block_cd(schedule, s, tau)
    return spectral.embed_blocks(block, block)


def embedded_frame(schedule, s):
    """8x8 orthogonal matrix whose columns are the sector eigenvectors
    lifted to the register: even-block levels first, then odd."""
    v = spectral.frame_grid(sample_at(schedule, s))[0]
    return spectral.embed_blocks(v, v)[:, list(spectral.PLUS_BASIS + spectral.MINUS_BASIS)]


def assembled_register_cd(schedule, s, tau, n=1, rotation=None):
    """The long way around: (i/tau) sum_m |d/ds w_m><w_m| over the full
    register eigenframe, with w_m the n-fold sector products conjugated by
    the optional rotation, differentiated by second-order finite
    differences.

    Independent of sector_cd's closed-form velocity and per-block
    embedding -- kept as the cross-check that the compact construction is
    right, transforms covariantly and sums correctly over sectors.
    """
    require_duration("tau", tau)

    def register_frame(x):
        f = embedded_frame(schedule, x)
        out = f
        for _ in range(n - 1):
            out = np.kron(out, f)
        if rotation is not None:
            out = rotation @ out
        return out

    s = float(s)
    h = _CHECK_STEP
    if s < h:
        df = (-3 * register_frame(s) + 4 * register_frame(s + h)
              - register_frame(s + 2 * h)) / (2 * h)
    elif s > 1.0 - h:
        df = (3 * register_frame(s) - 4 * register_frame(s - h)
              + register_frame(s - 2 * h)) / (2 * h)
    else:
        df = (register_frame(s + h) - register_frame(s - h)) / (2 * h)
    return 1j / tau * (df @ register_frame(s).conj().T)


"""Interpolation schedules steering the drive between its endpoint couplings.

A schedule is a pair of weights (eta_i, eta_f) on [0, 1] with
eta_i(0) = eta_f(1) = 1 and eta_i(1) = eta_f(0) = 0, together with their
analytic derivatives.  The radial coordinate chi = sqrt(eta_i^2 + eta_f^2)
sets the instantaneous spectral gap and must stay strictly positive along
the whole path.

`sample` is the one evaluation of a schedule on a grid, each function
called once.  The drive, the frame, the velocity term and the cost weights
are functions of that sample: a consumer samples its grid once.  Scalar
entry points check s with in_domain (0 <= s <= 1) and sample it with sample_at.

Schedule is a plain record; the factories (`builtin_schedule`,
`make_schedule`) are the validated entry points.  Tests may build raw
Schedule instances directly to probe degenerate configurations.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

BOUNDARY_ATOL = 1e-12
DERIVATIVE_ATOL = 1e-6
_FD_STEP = 1e-5

BUILTIN_KINDS = ("linear", "trigonometric", "exponential")


@dataclass(frozen=True, eq=False)
class Schedule:
    """Drive weights and their derivatives; functions accept scalars or arrays."""

    name: str
    eta_i: Callable
    eta_f: Callable
    deta_i: Callable
    deta_f: Callable


def grid_eval(fn, s):
    """Evaluate a schedule component on an array, tolerating scalar-only
    callables from user-supplied schedules."""
    s = np.asarray(s, dtype=float)
    try:
        out = np.asarray(fn(s), dtype=float)
        if out.shape == s.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(x)) for x in s.ravel()]).reshape(s.shape)


def sample(schedule, s):
    """The schedule at every s of an array: (eta_i, eta_f, eta_i', eta_f'),
    four arrays of the shape of s, each function evaluated once."""
    fns = (schedule.eta_i, schedule.eta_f, schedule.deta_i, schedule.deta_f)
    return tuple(grid_eval(fn, s) for fn in fns)


def in_domain(s):
    """s as a float (an array for array input); ValueError unless every
    entry has 0 <= s <= 1, which a NaN has not."""
    arr = np.asarray(s, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"schedule parameter outside [0, 1]: {s}")
    return float(arr) if arr.ndim == 0 else arr


def sample_at(schedule, s):
    """sample at the one point s, checked by in_domain; shape (1,) each."""
    return sample(schedule, np.atleast_1d(in_domain(float(s))))


def chi(schedule, s):
    """Radial coordinate sqrt(eta_i^2 + eta_f^2); accepts scalars or arrays."""
    s = in_domain(s)
    out = np.hypot(*sample(schedule, s)[:2])
    return float(out) if np.ndim(s) == 0 else out


def _check_boundaries(sched):
    for fn, where, want in (
        (sched.eta_i, 0.0, 1.0),
        (sched.eta_i, 1.0, 0.0),
        (sched.eta_f, 0.0, 0.0),
        (sched.eta_f, 1.0, 1.0),
    ):
        got = float(fn(where))
        if abs(got - want) > BOUNDARY_ATOL:
            raise ValueError(
                f"schedule {sched.name!r}: boundary value {got} at s={where}, "
                f"expected {want}"
            )


def _check_gap(sched):
    s = np.linspace(0.0, 1.0, 1001)
    c = np.hypot(grid_eval(sched.eta_i, s), grid_eval(sched.eta_f, s))
    if c.min() <= 0.0:
        raise ValueError(
            f"schedule {sched.name!r}: chi vanishes at s={s[c.argmin()]:.4f} "
            "(gap closes)"
        )


def _check_derivatives(sched):
    # central differences at interior points, one-sided second order at the
    # edges so custom schedules are never evaluated outside their domain
    s = np.linspace(0.0, 1.0, 101)
    h = _FD_STEP
    for fn, dfn, label in (
        (sched.eta_i, sched.deta_i, "deta_i"),
        (sched.eta_f, sched.deta_f, "deta_f"),
    ):
        f = lambda x: grid_eval(fn, x)
        fd = np.empty_like(s)
        mid = (s >= h) & (s <= 1.0 - h)
        fd[mid] = (f(s[mid] + h) - f(s[mid] - h)) / (2 * h)
        lo, hi = s < h, s > 1.0 - h
        fd[lo] = (-3 * f(s[lo]) + 4 * f(s[lo] + h) - f(s[lo] + 2 * h)) / (2 * h)
        fd[hi] = (3 * f(s[hi]) - 4 * f(s[hi] - h) + f(s[hi] - 2 * h)) / (2 * h)
        err = np.abs(grid_eval(dfn, s) - fd).max()
        if err > DERIVATIVE_ATOL:
            raise ValueError(
                f"schedule {sched.name!r}: {label} disagrees with finite "
                f"differences by {err:.2e}"
            )


def make_schedule(name, eta_i, eta_f, deta_i, deta_f):
    """Validated constructor for custom schedules."""
    sched = Schedule(name=name, eta_i=eta_i, eta_f=eta_f, deta_i=deta_i, deta_f=deta_f)
    _check_boundaries(sched)
    _check_gap(sched)
    _check_derivatives(sched)
    return sched


@lru_cache(maxsize=None)
def builtin_schedule(kind):
    """One of the three canonical drives: linear, trigonometric, exponential.

    Instances are cached, so repeated calls return the same object.
    """
    if kind == "linear":
        return make_schedule(
            "linear",
            eta_i=lambda s: 1.0 - np.asarray(s, dtype=float),
            eta_f=lambda s: np.asarray(s, dtype=float) + 0.0,
            deta_i=lambda s: -1.0 + 0.0 * np.asarray(s, dtype=float),
            deta_f=lambda s: 1.0 + 0.0 * np.asarray(s, dtype=float),
        )
    if kind == "trigonometric":
        half_pi = math.pi / 2.0
        return make_schedule(
            "trigonometric",
            eta_i=lambda s: np.cos(half_pi * np.asarray(s, dtype=float)),
            eta_f=lambda s: np.sin(half_pi * np.asarray(s, dtype=float)),
            deta_i=lambda s: -half_pi * np.sin(half_pi * np.asarray(s, dtype=float)),
            deta_f=lambda s: half_pi * np.cos(half_pi * np.asarray(s, dtype=float)),
        )
    if kind == "exponential":
        den = math.e - 1.0
        return make_schedule(
            "exponential",
            eta_i=lambda s: (np.exp(1.0 - np.asarray(s, dtype=float)) - 1.0) / den,
            eta_f=lambda s: (np.exp(np.asarray(s, dtype=float)) - 1.0) / den,
            deta_i=lambda s: -np.exp(1.0 - np.asarray(s, dtype=float)) / den,
            deta_f=lambda s: np.exp(np.asarray(s, dtype=float)) / den,
        )
    raise ValueError(f"unknown schedule kind {kind!r}; choose from {BUILTIN_KINDS}")

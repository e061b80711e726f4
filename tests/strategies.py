"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

import sagt


def random_path(c, k, r1, r2):
    """A valid schedule with theta = (pi/2) g(s), g monotone (g' = 1 +
    c cos 2 pi k s > 0), and chi = 1 + r1 sin(pi s) + r2 sin(2 pi s) >= 0.2."""
    q = 2.0 * np.pi * k

    def theta(s):
        return 0.5 * np.pi * (s + c * np.sin(q * s) / q)

    def dtheta(s):
        return 0.5 * np.pi * (1.0 + c * np.cos(q * s))

    def chi(s):
        return 1.0 + r1 * np.sin(np.pi * s) + r2 * np.sin(2.0 * np.pi * s)

    def dchi(s):
        return np.pi * (r1 * np.cos(np.pi * s) + 2.0 * r2 * np.cos(2.0 * np.pi * s))

    return sagt.make_schedule(
        "random-path",
        eta_i=lambda s: chi(s) * np.cos(theta(s)),
        eta_f=lambda s: chi(s) * np.sin(theta(s)),
        deta_i=lambda s: dchi(s) * np.cos(theta(s))
        - chi(s) * dtheta(s) * np.sin(theta(s)),
        deta_f=lambda s: dchi(s) * np.sin(theta(s))
        + chi(s) * dtheta(s) * np.cos(theta(s)),
    )


paths = st.builds(
    random_path,
    c=st.floats(-0.9, 0.9),
    k=st.integers(1, 2),
    r1=st.floats(-0.5, 1.5),
    r2=st.floats(-0.3, 0.3),
)

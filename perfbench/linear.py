"""Linear-Gaussian reference problem for the ``linear_sigma`` workload.

The system is a fixed 3-state, 2-measurement canonical system seen
through random rotations of the state and measurement spaces drawn from
the workload seed. Rotations keep every covariance non-diagonal, so the
filter takes its multi-dimensional ``eigh`` paths, while the estimation
problem stays equivalent for every seed: the RMSE distribution does not
depend on the rotation. Trajectories are simulated and filtered exactly
here, with plain numpy and the textbook Kalman recursions, sharing no
code with the program under test.
"""

from __future__ import annotations

import numpy as np

# Bound at import, so a traced run's wrappers on numpy.linalg only ever
# time the program's calls, never these reference computations.
from numpy.linalg import cholesky, qr, solve

STATE_DIM = 3
MEAS_DIM = 2

_A0 = np.diag([0.9, 0.7, 0.5])
_B0 = np.array([0.3, -0.2, 0.1])
_Q0 = np.diag([0.05, 0.1, 0.2])
_C0 = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5]])
_D0 = np.array([0.2, -0.1])
_R0 = np.diag([0.3, 0.5])
_M0 = np.array([1.0, -1.0, 0.5])


def _rotation(rng, n):
    q, r = qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_system(seed: int) -> dict:
    """Rotated canonical system; keys a, b, q, c, d, r, m0, p0."""
    rng = np.random.default_rng((seed, 0xC0FFEE))
    u = _rotation(rng, STATE_DIM)
    v = _rotation(rng, MEAS_DIM)
    return {
        "a": u @ _A0 @ u.T,
        "b": u @ _B0,
        "q": u @ _Q0 @ u.T,
        "c": v @ _C0 @ u.T,
        "d": v @ _D0,
        "r": v @ _R0 @ v.T,
        "m0": u @ _M0,
        "p0": np.eye(STATE_DIM),
    }


def simulate(system: dict, steps: int, seed: int, index: int):
    """True states and measurements of trajectory ``index``; x0 ~ prior."""
    rng = np.random.default_rng((seed, index))
    lq = cholesky(system["q"])
    lr = cholesky(system["r"])
    x = system["m0"] + cholesky(system["p0"]) @ rng.standard_normal(STATE_DIM)
    states = np.empty((steps, STATE_DIM))
    meas = np.empty((steps, MEAS_DIM))
    for t in range(steps):
        x = system["a"] @ x + system["b"] + lq @ rng.standard_normal(STATE_DIM)
        states[t] = x
        meas[t] = system["c"] @ x + system["d"] + lr @ rng.standard_normal(MEAS_DIM)
    return states, meas


def kalman(system: dict, measurements):
    """Exact filtered means (steps, 3) and covariances (steps, 3, 3)."""
    a, b, q = system["a"], system["b"], system["q"]
    c, d, r = system["c"], system["d"], system["r"]
    m, p = system["m0"].copy(), system["p0"].copy()
    means = np.empty((len(measurements), STATE_DIM))
    covs = np.empty((len(measurements), STATE_DIM, STATE_DIM))
    for t, y in enumerate(measurements):
        m = a @ m + b
        p = a @ p @ a.T + q
        s = c @ p @ c.T + r
        k = solve(s, c @ p).T
        m = m + k @ (y - c @ m - d)
        p = p - k @ s @ k.T
        p = 0.5 * (p + p.T)
        means[t], covs[t] = m, p
    return means, covs


def open_loop(system: dict, steps: int):
    """Prior mean propagated without measurements, shape (steps, 3)."""
    out = np.empty((steps, STATE_DIM))
    m = system["m0"]
    for t in range(steps):
        m = system["a"] @ m + system["b"]
        out[t] = m
    return out

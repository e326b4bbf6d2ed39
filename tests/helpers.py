"""Shared test utilities: linear-Gaussian models, a closed-form Kalman
filter and a per-step audit against the grid oracle.

The Kalman recursions here are written straight from the textbook
equations and share no code with the package's moment-based update, so
agreement between the two is evidence, not tautology. The audit fits
each step with the moment-based Cholesky solve on grid moments, which
shares no kernel with the filter pass's QR of its weighted points.
"""

import dataclasses

import numpy as np

from fgfilter import (
    AffineProcess,
    FeatureFunction,
    GaussianBelief,
    JointMoments,
    StateSpaceModel,
    default_grids,
    fgf_solve,
    fgf_update,
    grid_joint_moments,
    joint_density_grid,
)
from fgfilter._linalg import gaussian_pdf


def gaussian_log_pdf(x, mean=0.0, var=1.0):
    """Log of the univariate normal density, safe where the density underflows."""
    x = np.asarray(x, dtype=float)
    d = x - mean
    return -0.5 * (d * d / var + np.log(2.0 * np.pi * var))


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix, eigenvalues in [0.1, 0.1 + scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = 0.1 + scale * rng.uniform(size=n)
    return (q * eigs) @ q.T


def random_affine_moments(rng, dx, dy):
    """Joint moments of a random Gaussian (x, y) under the affine feature (1, y)."""
    joint = random_spd(rng, dx + dy)
    mu = rng.standard_normal(dx + dy)
    s_ff = np.zeros((dy + 1, dy + 1))
    s_ff[1:, 1:] = joint[dx:, dx:]
    s_xf = np.zeros((dx, dy + 1))
    s_xf[:, 1:] = joint[:dx, dx:]
    return JointMoments(
        mu_x=mu[:dx],
        mu_f=np.concatenate([[1.0], mu[dx:]]),
        s_xx=joint[:dx, :dx],
        s_ff=s_ff,
        s_xf=s_xf,
    )


def random_linear_system(rng, dx, dy):
    """Random stable linear-Gaussian system as a dict of matrices."""
    a = rng.standard_normal((dx, dx))
    a *= 0.7 / max(abs(np.linalg.eigvals(a)))
    c = rng.standard_normal((dy, dx))
    return {
        "a": a,
        "b": rng.standard_normal(dx),
        "q": random_spd(rng, dx, scale=0.3),
        "c": c,
        "d": rng.standard_normal(dy),
        "r": random_spd(rng, dy, scale=0.5),
    }


def linear_ssm(sys, name="linear"):
    """Wrap a matrix dict from random_linear_system as a StateSpaceModel.

    Noise enters through Cholesky factors, so process noise dimension
    equals the state dimension and observation noise dimension the
    measurement dimension. The process is declared affine, so the filter
    predicts it in closed form; :func:`undeclared` gives the twin that
    is predicted through the engine's points. Scalar systems also get
    the closed-form likelihood the grid oracle needs.
    """
    a, b, c, d = sys["a"], sys["b"], sys["c"], sys["d"]
    chol_r = np.linalg.cholesky(sys["r"])
    dx, dy = a.shape[0], c.shape[0]
    process = AffineProcess(a, b, np.linalg.cholesky(sys["q"]))

    def observe(x, w):
        return x @ c.T + d + w @ chol_r.T

    likelihood = None
    if dx == 1 and dy == 1:
        c00, d0 = float(c[0, 0]), float(d[0])
        r00 = float(sys["r"][0, 0])

        def likelihood(y, x):
            return gaussian_pdf(np.asarray(y, float) - c00 * np.asarray(x, float) - d0,
                                0.0, r00)

    return StateSpaceModel(
        state_dim=dx,
        meas_dim=dy,
        process_noise_dim=dx,
        obs_noise_dim=dy,
        process=process,
        observe=observe,
        likelihood=likelihood,
        name=name,
        affine_process=process,
    )


def undeclared(model):
    """The same model with the same maps, but no affine process declared."""
    return dataclasses.replace(model, affine_process=None)


def kalman_filter(sys, mean, cov, measurements):
    """Exact linear Kalman filter; returns [(mean, cov)] per measurement."""
    a, b, q = sys["a"], sys["b"], sys["q"]
    c, d, r = sys["c"], sys["d"], sys["r"]
    mean = np.asarray(mean, float).copy()
    cov = np.asarray(cov, float).copy()
    out = []
    for y in np.atleast_2d(np.asarray(measurements, float)):
        mean = a @ mean + b
        cov = a @ cov @ a.T + q
        s = c @ cov @ c.T + r
        gain = np.linalg.solve(s, c @ cov).T
        mean = mean + gain @ (y - c @ mean - d)
        cov = cov - gain @ s @ gain.T
        cov = 0.5 * (cov + cov.T)
        out.append((mean.copy(), cov.copy()))
    return out


def rescaled(feature, shift, spread):
    """The same feature of the fixed affine input change (y - shift) / spread."""
    return FeatureFunction(
        f"{feature.name}_rescaled", feature.out_dim, lambda y: feature.map((y - shift) / spread)
    )


def oracle_gaps(model, prior, feature, means, covs, measurements, n=801, span=8.0):
    """Per-step gaps between one lane's posteriors and the grid oracle's fit.

    For a scalar model with a declared affine process and a likelihood.
    Step t's predicted belief is rebuilt from the lane's posterior at
    t - 1 (the prior at step 0) through the declared process, F m + b and
    F P F^T + Q; the oracle tabulates the joint there on
    ``default_grids(n, span)`` and fits ``feature`` by ``fgf_solve`` of its
    grid moments. Returns two arrays over the steps: the mean gap in
    oracle posterior standard deviations, and the variance gap relative
    to the oracle variance.
    """
    affine = model.affine_process
    mean, cov = prior.mean, prior.cov
    mean_gaps, var_gaps = [], []
    for m, c, y in zip(means, covs, measurements):
        pred = GaussianBelief(
            affine.transition @ mean + affine.offset,
            affine.transition @ cov @ affine.transition.T + affine.noise_cov,
        )
        joint = joint_density_grid(model, pred, *default_grids(model, pred, n=n, span=span))
        post = fgf_update(fgf_solve(grid_joint_moments(joint, feature)), feature, y)
        sd = np.sqrt(post.cov[0, 0])
        mean_gaps.append(abs(m[0] - post.mean[0]) / sd)
        var_gaps.append(abs(c[0, 0] - post.cov[0, 0]) / post.cov[0, 0])
        mean, cov = m, c
    return np.array(mean_gaps), np.array(var_gaps)

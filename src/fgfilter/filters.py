"""Gaussian filtering with feature-based measurement updates.

The update step fits the conditional state distribution as

    q(x | y) = N(x | Gamma phi(y), Sigma)

where phi is a feature map of the measurement whose first output entry
is the constant 1. Gamma and Sigma come from the joint second moments
of state and features under the predicted belief:

    Gamma = E[x phi(y)^T] E[phi(y) phi(y)^T]^{-1}
    Sigma = E[(x - Gamma phi(y)) (x - Gamma phi(y))^T]

This is the Gaussian filter (GF) update on the virtual measurement
phi(y)[1:]: conditioning the joint Gaussian of x and phi(y)[1:] gives
the same posterior (:func:`gf_update`). The affine feature (1, y) makes
it the plain GF on y. Richer features let the posterior mean respond
nonlinearly to y, which is what extracts information from measurements
whose correlation with the state is purely higher-order.

Filtering runs as one fused pass over lanes. :func:`run_filter_lanes`
filters one measurement sequence with one lane per feature, all lanes
sharing the model and the engine's point set; the experiments filter a
block of seeds through the same pass, one lane per (seed, feature), each
seed with its own measurements and point set. :func:`run_filter` is the
one-lane case, and the stage functions (:func:`predict`,
:func:`joint_moments`, :func:`fgf_solve`) call the same kernels with a
batch of one.

The pass fixes its lane layout once and screens each posterior once;
:func:`run_filter` hands the posteriors out as they are. A lane that
fails records its step and is parked at the prior, so it never feeds a
non-finite value to the lanes it shares kernels with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._linalg import (
    NumericsError,
    _TINY,
    _cho_solve_jittered,
    _clip_psd,
    _finite,
    _psd_roots,
    _require_psd,
    symmetrize,
)
from .models import GaussianBelief, StateSpaceModel, _integer, _owned
from .quadrature import ExpectationEngine, PointSet, _place, _unit_points

__all__ = [
    "FeatureFunction",
    "JointMoments",
    "FgfPosteriorParams",
    "make_affine_feature",
    "make_monomial_feature",
    "predict",
    "joint_moments",
    "gf_update",
    "fgf_solve",
    "fgf_update",
    "FilterLanes",
    "run_filter",
    "run_filter_lanes",
]


@dataclass(frozen=True)
class FeatureFunction:
    """Measurement feature map phi with a constant leading entry.

    ``map`` takes arrays of shape (..., meas_dim) to (..., out_dim) and
    must put the constant 1 in the first output entry. The stage
    functions check that on every evaluation, the filter pass on its
    first step. ``out_dim`` includes the constant, so it is at least 2.
    """

    name: str
    out_dim: int
    map: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.name:
            raise ValueError("feature needs a nonempty name")
        _integer("out_dim", self.out_dim, 2)
        if not callable(self.map):
            raise ValueError("map must be callable")


def make_affine_feature(meas_dim: int) -> FeatureFunction:
    """phi(y) = (1, y); the feature under which the FGF is the plain GF."""
    return make_monomial_feature(meas_dim, 1)


def make_monomial_feature(meas_dim: int, order: int) -> FeatureFunction:
    """Componentwise monomials up to ``order``: (1, y, y^2, ..., y^order).

    Output layout is the constant, then all components of y, then all
    components of y^2, and so on; out_dim = 1 + meas_dim * order. The
    values are built component-major, one contiguous block per output,
    and returned as the transposed view of shape (..., out_dim).
    """
    _integer("meas_dim", meas_dim, 1)
    _integer("order", order, 1)
    out_dim = 1 + meas_dim * order

    def mapper(y):
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != meas_dim:
            raise ValueError(
                f"feature expects measurement dimension {meas_dim}, got {y.shape[-1]}"
            )
        # All axes reversed, so the output index leads and every output
        # is written in one pass over a contiguous block.
        yt = y.T
        out = np.empty((out_dim,) + yt.shape[1:])
        out[0] = 1.0
        out[1 : 1 + meas_dim] = yt
        for k in range(1, order):
            lo = 1 + k * meas_dim
            np.multiply(out[lo - meas_dim : lo], yt, out=out[lo : lo + meas_dim])
        return out.T

    name = "affine" if order == 1 else f"monomial{order}"
    return FeatureFunction(name=name, out_dim=out_dim, map=mapper)


@dataclass(frozen=True)
class JointMoments:
    """First and second moments of (state, feature) under one belief.

    ``mu_x``/``mu_f`` are the means, ``s_xx``/``s_ff`` the central
    covariances, ``s_xf`` the cross covariance; all central, raw moments
    are reconstructed where needed. The first feature entry must be the
    constant 1: mean 1 and no variance. Arrays are stored read-only.
    """

    mu_x: np.ndarray
    mu_f: np.ndarray
    s_xx: np.ndarray
    s_ff: np.ndarray
    s_xf: np.ndarray

    def __post_init__(self):
        mu_x = np.atleast_1d(np.asarray(self.mu_x, dtype=float))
        mu_f = np.atleast_1d(np.asarray(self.mu_f, dtype=float))
        s_xx = np.atleast_2d(np.asarray(self.s_xx, dtype=float))
        s_ff = np.atleast_2d(np.asarray(self.s_ff, dtype=float))
        s_xf = np.atleast_2d(np.asarray(self.s_xf, dtype=float))
        dx, k = mu_x.shape[0], mu_f.shape[0]
        if s_xx.shape != (dx, dx) or s_ff.shape != (k, k) or s_xf.shape != (dx, k):
            raise ValueError(
                "inconsistent moment shapes: "
                f"mu_x {mu_x.shape}, mu_f {mu_f.shape}, s_xx {s_xx.shape}, "
                f"s_ff {s_ff.shape}, s_xf {s_xf.shape}"
            )
        if not all(_finite(a) for a in (mu_x, mu_f, s_xx, s_ff, s_xf)):
            raise NumericsError("joint moments contain non-finite values")
        _require_psd(s_xx, "s_xx")
        _require_psd(s_ff, "s_ff")
        tol = 1e-8 * (1.0 + float(np.max(np.abs(s_ff))))
        if abs(mu_f[0] - 1.0) > 1e-6 or np.max(np.abs(s_ff[0])) > tol:
            raise ValueError("first feature entry is not the constant 1 (mean 1, no variance)")
        for name, arr in (
            ("mu_x", mu_x),
            ("mu_f", mu_f),
            ("s_xx", s_xx),
            ("s_ff", s_ff),
            ("s_xf", s_xf),
        ):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def state_dim(self) -> int:
        return self.mu_x.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.mu_f.shape[0]


@dataclass(frozen=True)
class FgfPosteriorParams:
    """Fitted conditional q(x|y) = N(x | gamma phi(y), sigma)."""

    gamma: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if not _finite(gamma):
            raise NumericsError("gamma contains non-finite values")
        if sigma.shape != (gamma.shape[0], gamma.shape[0]):
            raise ValueError(
                f"sigma shape {sigma.shape} does not match gamma rows {gamma.shape[0]}"
            )
        # Reuse the belief validation for sigma (finite, symmetric, PSD).
        checked = GaussianBelief(np.zeros(gamma.shape[0]), sigma)
        sigma = checked.cov
        gamma = gamma.copy()
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "sigma", sigma)

    @property
    def state_dim(self) -> int:
        return self.gamma.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.gamma.shape[1]


def _feature_values(feature: FeatureFunction, ys: np.ndarray) -> np.ndarray:
    # Evaluate a feature and check its output contract: shape, and the
    # constant first entry (NaN passes here and meets a finite screen).
    phis = np.asarray(feature.map(ys), dtype=float)
    expected = ys.shape[:-1] + (feature.out_dim,)
    if phis.shape != expected:
        raise ValueError(
            f"feature {feature.name!r} returned shape {phis.shape}, expected {expected}"
        )
    const = phis[..., 0]
    if const.min() < 1.0 - 1e-9 or const.max() > 1.0 + 1e-9:
        raise ValueError(
            f"feature {feature.name!r} must keep its first output entry "
            "at the constant 1"
        )
    return phis


def _evaluate_feature(feature: FeatureFunction, ys: np.ndarray) -> np.ndarray:
    # Row-major, so that products of the values do not depend on the map's layout.
    phis = _feature_values(feature, ys)
    if not _finite(phis):
        raise NumericsError(f"feature {feature.name!r} produced non-finite values")
    return np.ascontiguousarray(phis)


# The kernels below work on stacks of lanes: one lane per belief, all
# lanes sharing the model and the engine's point set. Placed points are
# component-major, shape (lanes, dim, n_points), so every moment is one
# weighted row reduction or one small matrix product.


def _map_points(fn, states, noises, out_dim, what):
    # One model evaluation over every lane's points, states (lanes, d, n)
    # flattened to the model's (samples, d) layout.
    flat = states.swapaxes(1, 2).reshape(-1, states.shape[1])
    out = np.asarray(fn(flat, noises), dtype=float)
    expected = (flat.shape[0], out_dim)
    if out.shape != expected:
        raise ValueError(f"{what} returned shape {out.shape}, expected {expected}")
    return out.reshape(states.shape[0], -1, out_dim).swapaxes(1, 2)


def _moments(z, weights):
    # Weighted mean and symmetrized central covariance over the last axis.
    mu = z @ weights
    zc = z - mu[..., None]
    cov = (zc * weights) @ zc.swapaxes(-1, -2)
    return mu, 0.5 * (cov + cov.swapaxes(-1, -2))


def _process_points(model, engine):
    # The engine's point set for the prediction, or None for a declared
    # affine process, which is predicted without points.
    if model.affine_process is not None:
        return None
    return _unit_points(engine, model.state_dim, model.process_noise_dim)


def _predicted(model, points: PointSet | None, means, covs, roots=None):
    # Moment-matched prediction of a stack of beliefs. A declared affine
    # process is matched exactly: F m + b and F P F^T + Q, symmetric up
    # to roundoff, which every consumer symmetrizes away. Otherwise the
    # process noises of ``points`` are stacked once per lane, placed with
    # ``roots``, the covariances' _psd_roots, computed here if not given.
    # The covariances are PSD already (validated prior, clipped posteriors).
    affine = model.affine_process
    if affine is not None:
        f = affine.transition
        return means @ f.T + affine.offset, f @ covs @ f.T + affine.noise_cov
    if roots is None:
        roots = _psd_roots(covs)[0]
    states = _place(points, means, roots)
    prop = _map_points(model.process, states, points.noises, model.state_dim, "process map")
    return _moments(prop, points.weights)


def _raw_moments(states, phis, weights, z, zw):
    # Weighted raw second moments E[z z^T] of one lane's z = (x, phi(y)),
    # from its states (dx, n) and feature values (n, k), over the points.
    # The fit needs exactly these, so they are accumulated directly, not
    # rebuilt from central moments. z and zw are the pass's (dx + k, n)
    # workspaces for z and its weighted copy; with a component-major
    # feature map, phis.T is contiguous and its copy a row copy. The
    # constant feature entry rides along: its moments come out as mean 1
    # and covariance row 0, up to the roundoff of the weights' sum.
    dx = states.shape[0]
    z[:dx] = states
    z[dx:] = phis.T
    np.multiply(z, weights, out=zw)
    return zw @ z.T


def _gain(raw, dx):
    # Gamma of one lane from its raw second moments (dx + k, dx + k):
    # solves E[phi phi^T] gamma^T = E[phi x^T]; see fgf_solve.
    e_ff = raw[dx:, dx:]
    try:
        return _cho_solve_jittered(e_ff, raw[:dx, dx:].T).T
    except NumericsError as err:
        if not _finite(e_ff):
            raise NumericsError("joint moments contain non-finite values") from err
        raise NumericsError(
            "feature Gram matrix is rank deficient beyond the jitter "
            "budget; reduce the feature order or standardize the "
            f"feature inputs ({err})"
        ) from err


def _residual(raw, gamma):
    # Residual covariance of the fit over a stack of lanes of one feature,
    # raw (L, dx + k, dx + k) and gamma (L, dx, k). The full quadratic
    # form stays PSD even when the solve took jitter.
    dx = gamma.shape[1]
    e_xx, e_xf, e_ff = raw[:, :dx, :dx], raw[:, :dx, dx:], raw[:, dx:, dx:]
    cross = gamma @ e_xf.swapaxes(1, 2)
    return e_xx - cross - cross.swapaxes(1, 2) + gamma @ e_ff @ gamma.swapaxes(1, 2)


def _fit_scale(raw, dx):
    # Reference magnitude of the fit's residual for the PSD clip, the mean
    # diagonal of E[x x^T], over a stack of lanes.
    return raw[:, :dx, :dx].trace(axis1=1, axis2=2) / dx


def _input_spread(ys, weights):
    # Predicted measurement mean and spread per lane, ys (lanes, dy, n),
    # used to standardize feature inputs.
    mu, cov = _moments(ys, weights)
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    floor = 1e-12 * (1.0 + np.abs(mu))
    return mu, np.sqrt(np.maximum(var, floor**2))


def predict(
    belief: GaussianBelief,
    model: StateSpaceModel,
    engine: ExpectationEngine,
) -> GaussianBelief:
    """Moment-matched one-step prediction through the process map.

    For a model that declares an affine process (``model.affine_process``)
    the match is exact and in closed form, F m + b and F P F^T + G G^T,
    and ``engine`` is not used. Otherwise pushes the engine's point set
    through ``model.process`` and returns the Gaussian with the matched
    mean and covariance.
    """
    points = _process_points(model, engine)
    mean, cov = _predicted(model, points, belief.mean[None], belief.cov[None])
    return GaussianBelief(mean[0], cov[0])


def joint_moments(
    belief: GaussianBelief,
    model: StateSpaceModel,
    feature: FeatureFunction,
    engine: ExpectationEngine,
) -> JointMoments:
    """Joint moments of state and measurement features under ``belief``.

    One engine pass: sample (x, w), push through ``model.observe``,
    evaluate the feature on the measurements, and accumulate means and
    central (co)variances.
    """
    points = _unit_points(engine, belief.state_dim, model.obs_noise_dim)
    states = _place(points, belief.mean[None], _psd_roots(belief.cov[None])[0])
    ys = _map_points(model.observe, states, points.noises, model.meas_dim, "observation map")
    phis = _evaluate_feature(feature, ys[0].T)
    mu, cov = _moments(np.vstack((states[0], phis.T)), points.weights)
    dx = belief.state_dim
    return JointMoments(
        mu_x=mu[:dx],
        mu_f=mu[dx:],
        s_xx=cov[:dx, :dx],
        s_ff=cov[dx:, dx:],
        s_xf=cov[:dx, dx:],
    )


def gf_update(moments: JointMoments, y) -> GaussianBelief:
    """GF update: condition the joint Gaussian on the virtual measurement.

    ``y`` is phi(y)[1:] for the feature that ``moments`` come from, the
    actual measurement for the affine feature (1, y). For any feature the
    posterior equals :func:`fgf_update` of :func:`fgf_solve`, reached
    independently: a Schur complement in central moments, not a
    regression in raw ones.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dy = moments.feature_dim - 1
    if y.shape != (dy,):
        raise ValueError(f"measurement shape {y.shape} does not match ({dy},)")
    if not _finite(y):
        raise ValueError("measurement must be finite")
    mu_y = moments.mu_f[1:]
    s_yy = moments.s_ff[1:, 1:]
    s_xy = moments.s_xf[:, 1:]
    try:
        gain = _cho_solve_jittered(symmetrize(s_yy), s_xy.T).T
    except NumericsError as err:
        raise NumericsError(
            f"measurement conditioning failed, predicted measurement "
            f"covariance is singular: {err}"
        ) from err
    mean = moments.mu_x + gain @ (y - mu_y)
    dx = moments.state_dim
    scale = max(float(np.trace(moments.s_xx)) / dx, _TINY)
    cov, problems, _ = _clip_psd((moments.s_xx - gain @ s_xy.T)[None], np.array([scale]))
    if problems:
        raise NumericsError(problems[0])
    if not _finite(mean):
        raise NumericsError("belief has non-finite mean or covariance")
    return _owned(GaussianBelief, mean=mean, cov=cov[0])


def fgf_solve(moments: JointMoments) -> FgfPosteriorParams:
    """Fit gamma and sigma of the feature-conditional posterior.

    Solves E[phi phi^T] gamma^T = E[phi x^T] in the raw (non-central)
    moments reconstructed from ``moments``, then evaluates the residual
    covariance through its full quadratic form, which stays PSD even
    when the Gram solve needed jitter. Raw moments that overflow float64,
    as from means near 1e200, raise NumericsError.
    """
    m = moments
    with np.errstate(over="ignore"):
        e_xf = m.s_xf + np.outer(m.mu_x, m.mu_f)
        e_xx = m.s_xx + np.outer(m.mu_x, m.mu_x)
        raw = np.block([[e_xx, e_xf], [e_xf.T, m.s_ff + np.outer(m.mu_f, m.mu_f)]])
    if not _finite(raw):
        raise NumericsError("raw second moments overflow when rebuilt from the central moments")
    gamma = _gain(raw, m.state_dim)
    sigma, problems, _ = _clip_psd(
        _residual(raw[None], gamma[None]), _fit_scale(raw[None], m.state_dim)
    )
    if problems:
        raise NumericsError(problems[0])
    if not _finite(gamma):
        raise NumericsError("gamma contains non-finite values")
    return _owned(FgfPosteriorParams, gamma=gamma, sigma=sigma[0])


def fgf_update(
    params: FgfPosteriorParams,
    feature: FeatureFunction,
    y,
) -> GaussianBelief:
    """Evaluate the fitted conditional at an observed measurement.

    ``params.sigma`` was screened when the parameters were made, so only
    the new mean is screened here, for finiteness.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not _finite(y):
        raise ValueError("measurement must be finite")
    phi = _evaluate_feature(feature, y[None, :])[0]
    if phi.shape[0] != params.feature_dim:
        raise ValueError(
            f"feature dimension {phi.shape[0]} does not match fitted "
            f"parameters ({params.feature_dim})"
        )
    mean = params.gamma @ phi
    if not _finite(mean):
        raise NumericsError("belief has non-finite mean or covariance")
    return _owned(GaussianBelief, mean=mean, cov=params.sigma)


@dataclass(frozen=True)
class FilterLanes:
    """Posterior tracks of one fused filter pass, one lane per feature.

    ``means`` has shape (lanes, steps, state_dim) and ``covs`` shape
    (lanes, steps, state_dim, state_dim); both are read-only. ``errors``
    holds, per lane, the :class:`NumericsError` that stopped it or None;
    a stopped lane keeps NaN from its failing step on.
    """

    means: np.ndarray
    covs: np.ndarray
    errors: tuple[NumericsError | None, ...]

    @property
    def diverged_at(self) -> tuple[int | None, ...]:
        """Zero-based failing step of each lane, None for a lane that ran through."""
        return tuple(None if err is None else err.step for err in self.errors)


def run_filter_lanes(
    model: StateSpaceModel,
    prior: GaussianBelief,
    features: Sequence[FeatureFunction],
    engine: ExpectationEngine,
    measurements: Sequence | np.ndarray,
    standardize: bool = False,
) -> FilterLanes:
    """Filter one measurement sequence once per feature, in one fused pass.

    Every lane starts from ``prior`` and runs the predict/update
    recursion of :func:`run_filter` with its own feature. Per step, the
    lanes share one ``model.process`` and one ``model.observe``
    evaluation over their stacked point sets, and the standardization
    shift and scale come from the same observed points. A model that
    declares an affine process is predicted in closed form, with no
    ``model.process`` call at all. A lane that breaks down numerically
    records its error and stops; the other lanes go on unchanged.

    Parameters are those of :func:`run_filter`, with ``features`` a
    sequence of feature maps, one per lane.
    """
    features = tuple(features)
    if not features:
        raise ValueError("need at least one feature")
    if prior.state_dim != model.state_dim:
        raise ValueError(
            f"prior has state dimension {prior.state_dim}, model {model.state_dim}"
        )
    ys = np.asarray(measurements, dtype=float)
    if ys.size == 0:
        ys = ys.reshape(0, model.meas_dim)
    elif ys.ndim == 1 and model.meas_dim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != model.meas_dim:
        raise ValueError(
            f"measurements shape {ys.shape} does not match "
            f"(steps, {model.meas_dim})"
        )
    if not _finite(ys):
        raise ValueError("measurements must be finite")
    return _filter_pass(model, prior, features, [engine], ys[None], standardize)[0]


# Non-finite values are screened once per step and reported as
# NumericsError, so numpy's warnings on the way there are noise.
@np.errstate(invalid="ignore", over="ignore")
def _filter_pass(model, prior, features, engines, ys, standardize):
    # Filter the measurement sequences ys (seeds, steps, meas_dim), seed s
    # under engines[s], with one lane per (seed, feature), and return one
    # FilterLanes per seed. For the whole pass, seed s owns lanes
    # s*n_feat:(s+1)*n_feat and feature f owns lanes f::n_feat. The point
    # kernels (placing, the observation map, the feature maps, the moment
    # sums) run per seed, on its own cache-sized point set; the small
    # algebra runs over every lane at once; only the Gram solve runs per
    # lane. Each failure goes through fail, which records the lane's first
    # error and stops it at once: its raw moments and gain stay zero, and
    # after each step it is parked at the prior, so its prediction and
    # observation repeat step 0's, which succeeded for its seed: it never
    # feeds a non-finite value to the model or the kernels. The PSD clip
    # and the finite screen below are the one screen of each posterior.
    n_seeds, steps, dy = ys.shape
    n_feat, dx = len(features), model.state_dim
    n_lanes = n_seeds * n_feat
    means = np.full((n_lanes, steps, dx), np.nan)
    covs = np.full((n_lanes, steps, dx, dx), np.nan)
    errors: list[NumericsError | None] = [None] * n_lanes
    dead = [False] * n_lanes
    rescale = [standardize and f.out_dim > dy + 1 for f in features]
    # The input spread is taken from the first standardized lane of a seed
    # on: the lanes before it never read it.
    scaled = rescale.index(True) if any(rescale) else n_feat
    # One point set per distinct engine, its noises tiled once per lane of
    # a seed: seeds under one engine share its draws.
    sets, spaces = {}, {}
    widest = max(f.out_dim for f in features)
    for engine in dict.fromkeys(engines):
        points = _unit_points(engine, dx, model.obs_noise_dim)
        # A fit with no fewer outputs than support points interpolates
        # them and leaves no residual variance.
        support = np.count_nonzero(points.weights > 0)
        if widest >= support:
            raise ValueError(
                f"{engine.kind} engine has {support} positively weighted points, "
                f"too few for a feature with {widest} outputs"
            )
        proc = _process_points(model, engine)
        if proc is not None:
            proc = replace(proc, noises=np.tile(proc.noises, (n_feat, 1)))
        # Per feature, the z and weighted-z workspaces of _raw_moments,
        # allocated once per shape: every lane of that feature width and
        # point count writes its moments' operands there in turn.
        work = []
        for feat in features:
            shape = (2, dx + feat.out_dim, points.weights.size)
            if shape not in spaces:
                spaces[shape] = np.empty(shape)
            work.append(spaces[shape])
        sets[engine] = (points, np.tile(points.noises, (n_feat, 1)), proc, work)
    seeds = [(slice(s * n_feat, (s + 1) * n_feat), *sets[e]) for s, e in enumerate(engines)]
    mean = np.repeat(prior.mean[None], n_lanes, axis=0)
    cov = np.repeat(prior.cov[None], n_lanes, axis=0)
    # The posteriors' square roots, where the clip's screen yields them,
    # so the point-based prediction skips one eigendecomposition.
    post_roots = None
    # Per feature, the raw moments and gains of its lanes, one row per seed.
    raws = [np.zeros((n_seeds, dx + f.out_dim, dx + f.out_dim)) for f in features]
    gammas = [np.zeros((n_seeds, dx, f.out_dim)) for f in features]
    resid, fitted = np.empty_like(cov), np.empty_like(mean)
    # Per lane, the standardization of its feature inputs.
    shift, spread = np.zeros((n_lanes, dy)), np.ones((n_lanes, dy))
    # The features' output contract is checked on the first step.
    checked = [partial(_feature_values, f) for f in features]
    plain = [f.map for f in features]

    def feature(f, y, lanes):
        # Feature f of measurements y, the points' or the observed ones.
        return maps[f]((y - shift[lanes]) / spread[lanes] if rescale[f] else y)

    def fail(lanes, err):
        for j in lanes:
            if not dead[j]:
                dead[j] = True
                errors[j] = NumericsError(f"filter failed at step {t}: {err}", step=t)
                if isinstance(err, BaseException):
                    errors[j].__cause__ = err
                s, f = divmod(j, n_feat)
                raws[f][s] = gammas[f][s] = 0.0

    for t in range(steps):
        maps = plain if t else checked
        if model.affine_process is not None:
            pmean, pcov = _predicted(model, None, mean, cov)
        else:
            # A seed with no lane left keeps its parked beliefs.
            pmean, pcov = mean.copy(), cov.copy()
            for lanes, *_, proc, _ in seeds:
                if all(dead[lanes]):
                    continue
                given = None if post_roots is None else post_roots[lanes]
                try:
                    pmean[lanes], pcov[lanes] = _predicted(
                        model, proc, mean[lanes], cov[lanes], given
                    )
                except NumericsError as err:
                    fail(range(lanes.start, lanes.stop), err)
        roots, psd = _psd_roots(pcov)
        psd = psd.tolist()
        for s, (lanes, points, noises, _, work) in enumerate(seeds):
            if all(dead[lanes]):
                continue
            states = _place(points, pmean[lanes], roots[lanes])
            try:
                obs = _map_points(model.observe, states, noises, dy, "observation map")
            except NumericsError as err:
                fail(range(lanes.start, lanes.stop), err)
                continue
            if scaled < n_feat:
                tail = slice(lanes.start + scaled, lanes.stop)
                shift[tail], spread[tail] = _input_spread(obs[scaled:], points.weights)
            for f in range(n_feat):
                j = lanes.start + f
                if dead[j]:
                    continue
                if not psd[j]:
                    fail([j], "predicted covariance is non-finite or indefinite")
                    continue
                try:
                    phis = feature(f, obs[f].T, j)
                    raw = _raw_moments(states[f], phis, points.weights, *work[f])
                    raws[f][s] = raw
                    gammas[f][s] = _gain(raw, dx)
                except NumericsError as err:
                    fail([j], err)
        mean = fitted
        for f in range(n_feat):
            group = slice(f, None, n_feat)
            resid[group] = _residual(raws[f], gammas[f])
            # C-contiguous, so the product's bits do not depend on the
            # feature's output layout.
            phi = np.ascontiguousarray(feature(f, ys[:, t], group))
            mean[group] = (gammas[f] @ phi[:, :, None])[:, :, 0]
        cov, problems, post_roots = _clip_psd(
            resid,
            lambda: np.stack([_fit_scale(raw, dx) for raw in raws], axis=1).ravel(),
            model.affine_process is None,
        )
        for j, problem in problems.items():
            fail([j], problem)
        # The step's one non-finite screen, over every lane's posterior.
        finite = np.isfinite(mean.sum(axis=1) + cov.sum(axis=(1, 2)))
        fail(np.flatnonzero(~finite).tolist(), "posterior moments are non-finite")
        means[:, t], covs[:, t] = mean, cov
        if any(dead):
            # A dead lane holds NaN from its failing step on.
            means[dead, t], covs[dead, t] = np.nan, np.nan
            if all(dead):
                break
            mean[dead], cov[dead] = prior.mean, prior.cov
            post_roots = None
    means.setflags(write=False)
    covs.setflags(write=False)
    return [FilterLanes(means[lanes], covs[lanes], tuple(errors[lanes])) for lanes, *_ in seeds]


def run_filter(
    model: StateSpaceModel,
    prior: GaussianBelief,
    feature: FeatureFunction,
    engine: ExpectationEngine,
    measurements: Sequence | np.ndarray,
    standardize: bool = False,
) -> list[GaussianBelief]:
    """Run predict/update over a measurement sequence.

    Parameters
    ----------
    measurements : array_like, shape (steps, meas_dim) or (steps,)
        The 1-D form is accepted for scalar-measurement models. An
        empty sequence yields an empty posterior list.
    standardize : bool
        Rescale feature inputs per step by the predicted measurement
        mean and spread. Posterior-neutral for monomial features but
        much better conditioned at high orders; affine features are
        exactly invariant to it, so it is skipped for them.

    Returns
    -------
    list of GaussianBelief, one posterior per measurement, read-only
    views of the posteriors as the pass screened them (exactly symmetric).

    Raises
    ------
    NumericsError
        On numerical breakdown; the message and ``step`` attribute
        report the zero-based step that failed.
    """
    lanes = run_filter_lanes(model, prior, [feature], engine, measurements, standardize)
    if lanes.errors[0] is not None:
        raise lanes.errors[0]
    return [_owned(GaussianBelief, mean=m, cov=c) for m, c in zip(lanes.means[0], lanes.covs[0])]

"""Nonlinear state-space models, Gaussian beliefs, and trajectory simulation.

A model is a pair of stationary maps

    x_t = g(x_{t-1}, v_t)        process, v_t ~ N(0, I)
    y_t = h(x_t, w_t)            observation, w_t ~ N(0, I)

with all noise standard normal by convention; any scaling or coloring
belongs inside ``g`` and ``h``. Both maps must accept arrays whose
leading axes broadcast: filtering evaluates them on whole batches of
sampled states at once, simulation on single vectors.

A model whose process is affine, g(x, v) = F x + b + G v, can declare
so with an :class:`AffineProcess`. The filter then predicts in closed
form, F m + b and F P F^T + G G^T, and never evaluates ``g``; both
built-in models declare theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import (
    NumericsError,
    PSD_REL_TOL,
    _TINY,
    _finite,
    _require_psd,
    gaussian_pdf,
    symmetrize,
)

__all__ = [
    "AffineProcess",
    "StateSpaceModel",
    "GaussianBelief",
    "make_noise_magnitude_model",
    "make_heaviside_model",
    "simulate",
]


@dataclass(frozen=True, eq=False)
class AffineProcess:
    """Affine process map with additive noise, g(x, v) = F x + offset + G v.

    ``transition`` F has shape (state_dim, state_dim), ``offset`` shape
    (state_dim,) and ``noise_gain`` G shape (state_dim, noise_dim); all
    must be finite. ``noise_cov`` holds Q = G G^T, computed once. The
    value is itself the process map: calling it broadcasts over leading
    sample axes like any ``process``. Arrays are copied and read-only.
    """

    transition: np.ndarray
    offset: np.ndarray
    noise_gain: np.ndarray
    noise_cov: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = np.atleast_2d(np.array(self.transition, dtype=float))
        b = np.atleast_1d(np.array(self.offset, dtype=float))
        g = np.atleast_2d(np.array(self.noise_gain, dtype=float))
        d = f.shape[0]
        if f.shape != (d, d) or b.shape != (d,) or g.ndim != 2 or g.shape[0] != d:
            raise ValueError(
                f"affine process shapes do not fit: transition {f.shape}, "
                f"offset {b.shape}, noise_gain {g.shape}"
            )
        if not (_finite(f) and _finite(b) and _finite(g)):
            raise ValueError("affine process matrices must be finite")
        for name, arr in zip(("transition", "offset", "noise_gain", "noise_cov"),
                             (f, b, g, g @ g.T)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, x, v):
        return x @ self.transition.T + self.offset + v @ self.noise_gain.T


@dataclass(frozen=True)
class StateSpaceModel:
    """Stationary nonlinear state-space model with standard-normal noise.

    Parameters
    ----------
    state_dim, meas_dim : int
        Dimensions of the state and measurement vectors.
    process_noise_dim, obs_noise_dim : int
        Dimensions of the process and observation noise vectors,
        independent of the state and measurement dimensions.
    process, observe : callable
        ``process(x, v)`` and ``observe(x, w)``; must broadcast over a
        leading sample axis. An :class:`AffineProcess` is a process map.
    likelihood : callable, optional
        ``likelihood(y, x)`` returning the observation density
        pointwise, broadcasting over both arguments. Only needed by the
        grid oracle, which calls it on row blocks of the grid (a block
        of x values against every y), so each value may depend on its
        own (y, x) pair only; filtering never evaluates it.
    name : str
        Identifier used in reports and output file names.
    affine_process : AffineProcess, optional
        Declares ``process`` affine with these matrices. The filter then
        predicts in closed form and never calls ``process``, which keeps
        serving simulation; the declaration is trusted, not checked
        against ``process``. Undeclared maps are predicted by pushing
        the engine's point set through ``process``.
    """

    state_dim: int
    meas_dim: int
    process_noise_dim: int
    obs_noise_dim: int
    process: Callable[[np.ndarray, np.ndarray], np.ndarray]
    observe: Callable[[np.ndarray, np.ndarray], np.ndarray]
    likelihood: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    name: str = ""
    affine_process: AffineProcess | None = None

    def __post_init__(self):
        for label in ("state_dim", "meas_dim", "process_noise_dim", "obs_noise_dim"):
            _integer(label, getattr(self, label), 1)
        if not callable(self.process) or not callable(self.observe):
            raise ValueError("process and observe must be callable")
        if self.likelihood is not None and not callable(self.likelihood):
            raise ValueError("likelihood must be callable when given")
        affine, shape = self.affine_process, (self.state_dim, self.process_noise_dim)
        if affine is not None and (
            not isinstance(affine, AffineProcess) or affine.noise_gain.shape != shape
        ):
            raise ValueError(
                "affine_process must be an AffineProcess whose noise_gain has "
                f"shape (state_dim, process_noise_dim) = {shape}"
            )


@dataclass(frozen=True)
class GaussianBelief:
    """Multivariate normal belief over the state.

    The covariance is stored symmetrized and both arrays are made
    read-only, so beliefs can be shared across threads freely. The
    covariance must be finite, symmetric within roundoff, and PSD up to
    a small negative eigenvalue floor.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(
                f"covariance shape {cov.shape} does not match state dimension {d}"
            )
        if not (_finite(mean) and _finite(cov)):
            raise NumericsError("belief has non-finite mean or covariance")
        if d == 1:
            if cov[0, 0] < 0.0:
                raise NumericsError(f"negative variance {float(cov[0, 0])!r}")
            cov = cov.copy()
        else:
            gap = float(np.max(np.abs(cov - cov.T)))
            if gap > PSD_REL_TOL * (float(np.max(np.abs(cov))) + _TINY):
                raise ValueError(f"covariance is asymmetric (max gap {gap!r})")
            cov = symmetrize(cov)
            _require_psd(cov, "covariance")
        mean = mean.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def state_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def std(self) -> np.ndarray:
        """Marginal standard deviations, sqrt of the covariance diagonal."""
        return np.sqrt(np.clip(np.diagonal(self.cov), 0.0, None))


def _owned(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` as they are.

    It skips ``__post_init__``, so there is no second screen and no copy:
    only for screened values that no caller writes to. Arrays are made
    read-only here; values from outside go through the constructor.
    """
    instance = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(instance, name, value)
    return instance


def _model_param(name: str, value) -> float:
    # A built-in model factory's parameter; config screens model.* keys here.
    return _real(name, value, 0 if name == "prior_var" else -math.inf)


def _integer(name: str, value, least: int):
    # Screen of an integer argument from outside the package: an int or a
    # numpy integer, not a bool, and at least ``least``; returned as given.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _real(name: str, value, least: float = -math.inf) -> float:
    # Screen of a real argument from outside the package: an int, a float
    # or a numpy real, not a bool, finite and at least ``least``; as a float.
    try:
        real = isinstance(value, (int, float, np.integer, np.floating)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        real = False
    if not real or isinstance(value, bool):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return float(value)


def _scalar_prior(prior_mean, prior_var) -> GaussianBelief:
    mean, var = _model_param("prior_mean", prior_mean), _model_param("prior_var", prior_var)
    return GaussianBelief(np.array([mean]), np.array([[var]]))


def make_noise_magnitude_model(
    prior_mean: float = 5.0,
    prior_var: float = 1.0,
    noise_scale: float = 0.1,
) -> tuple[StateSpaceModel, GaussianBelief]:
    """Scalar model of a slowly drifting sensor noise magnitude.

    The state M is the magnitude itself and performs a random walk,
    while the measurement is pure noise scaled by it:

        M_t = M_{t-1} + noise_scale * v_t
        y_t = M_t * w_t

    so y carries information about M only through its spread, never its
    sign. A filter that correlates the state with y alone sees nothing;
    correlating with y^2 does. The process is declared affine.

    Raises ValueError for a parameter that is not a finite real number
    (a bool or a string is not one) or a negative prior variance.
    """
    prior = _scalar_prior(prior_mean, prior_var)
    noise_scale = _model_param("noise_scale", noise_scale)
    process = AffineProcess(np.eye(1), np.zeros(1), np.array([[noise_scale]]))

    def observe(m, w):
        return m * w

    def likelihood(y, m):
        y = np.asarray(y, dtype=float)
        m = np.asarray(m, dtype=float)
        var = m * m
        # At m == 0 the observation is a point mass at y == 0; as a
        # density on the grid that contributes nothing.
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = gaussian_pdf(y, 0.0, var)
        return np.where(var > 0.0, dens, 0.0)

    model = StateSpaceModel(
        state_dim=1,
        meas_dim=1,
        process_noise_dim=1,
        obs_noise_dim=1,
        process=process,
        observe=observe,
        likelihood=likelihood,
        name="noise_magnitude",
        affine_process=process,
    )
    return model, prior


def make_heaviside_model(
    prior_mean: float = 0.0,
    prior_var: float = 5.0,
    step_height: float = 50.0,
) -> tuple[StateSpaceModel, GaussianBelief]:
    """Scalar random walk observed through a hard step discontinuity.

        x_t = x_{t-1} + v_t
        y_t = x_t + w_t + step_height * H(x_t),   H(x) = 1 for x >= 0

    Far from the step the measurement is linear in the state; near it a
    single measurement can pin the state's sign. The process is declared
    affine.

    Raises ValueError for a parameter that is not a finite real number
    (a bool or a string is not one) or a negative prior variance.
    """
    prior = _scalar_prior(prior_mean, prior_var)
    step_height = _model_param("step_height", step_height)
    process = AffineProcess(np.eye(1), np.zeros(1), np.eye(1))

    def _step(x):
        # The mask of H(x), H(0) = 1 by convention. step_height * mask is
        # step_height * H(x), signed zeros included, without a select.
        return np.asarray(x, dtype=float) >= 0.0

    def observe(x, w):
        return x + w + step_height * _step(x)

    def likelihood(y, x):
        x = np.asarray(x, dtype=float)
        return gaussian_pdf(np.asarray(y, dtype=float) - x - step_height * _step(x))

    model = StateSpaceModel(
        state_dim=1,
        meas_dim=1,
        process_noise_dim=1,
        obs_noise_dim=1,
        process=process,
        observe=observe,
        likelihood=likelihood,
        name="heaviside",
        affine_process=process,
    )
    return model, prior


def simulate(
    model: StateSpaceModel,
    init_state,
    steps: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll the model forward and return sampled states and measurements.

    Parameters
    ----------
    init_state : array_like
        State x_0. It seeds the recursion and is not part of the output.
    steps : int
        Number of transitions; must be at least 1.
    seed : int
        Nonnegative; seeds a fresh ``numpy.random.default_rng`` (PCG64),
        so identical seeds reproduce the trajectory bit for bit.

    Returns
    -------
    states : ndarray, shape (steps, state_dim)
    measurements : ndarray, shape (steps, meas_dim)

    Raises
    ------
    ValueError
        If ``steps`` or ``seed`` is a bool, not an integer, or below 1
        or 0 respectively.
    NumericsError
        If the model produces a non-finite state or measurement; the
        message and ``step`` attribute identify the failing step.
    """
    _integer("steps", steps, 1)
    _integer("seed", seed, 0)
    x = np.asarray(init_state, dtype=float).reshape(model.state_dim)
    rng = np.random.default_rng(seed)
    process_noise = rng.standard_normal((steps, model.process_noise_dim))
    obs_noise = rng.standard_normal((steps, model.obs_noise_dim))
    states = np.empty((steps, model.state_dim))
    # Non-finite values are screened and reported below, so numpy's
    # overflow warnings on the way there are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            x = np.asarray(model.process(x, process_noise[t]), dtype=float).reshape(
                model.state_dim
            )
            states[t] = x
        # One observe call over the whole trajectory, then one screen. The
        # first failing step is reported; at that step a bad state takes
        # precedence over the bad measurement it produced.
        measurements = np.asarray(model.observe(states, obs_noise), dtype=float).reshape(
            steps, model.meas_dim
        )
    bad_state = ~np.isfinite(states).all(axis=1)
    bad = bad_state | ~np.isfinite(measurements).all(axis=1)
    if bad.any():
        t = int(np.argmax(bad))
        kind = "state" if bad_state[t] else "measurement"
        raise NumericsError(f"non-finite {kind} at step {t}", step=t)
    return states, measurements

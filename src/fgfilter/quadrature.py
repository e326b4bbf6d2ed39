"""Numerical expectation engines.

Everything the filters need reduces to expectations of the form

    E[ f(x, u) ],   x ~ N(mean, cov),  u ~ N(0, I_noise_dim)

with x and u independent. An :class:`ExpectationEngine` realizes such
an expectation as a weighted point set over the augmented (x, u) space;
three families are provided, plain Monte Carlo, augmented-state sigma
points and a Gauss-Hermite product rule. Whatever the family, the point
set is one value, a :class:`PointSet` of unit offsets, noises and
explicit weights, built by one small builder per engine kind; a belief
places the offsets with :func:`_place`, and every expectation is a
weighted sum over the points.
Engines are pure values: the same engine applied to the same belief
always produces the same point set, so every estimate is reproducible
from the engine configuration alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import NumericsError, _psd_roots
from .models import GaussianBelief, _integer, _real

__all__ = [
    "ExpectationEngine",
    "monte_carlo",
    "sigma_point",
    "gauss_hermite",
    "sample_points",
    "expect",
    "expected_likelihood_weight",
]

# The one default Monte Carlo draw count, for engines built in code, from
# a config file, or by the heaviside experiment; the noise experiment
# integrates with a Gauss-Hermite rule instead. At 4000 draws one
# heaviside seed in a hundred blew up through the cubic fit; 5000 draws
# are no guarantee either, as heaviside seed 1801025's cubic lane
# diverges at step 850.
DEFAULT_SAMPLE_COUNT = 5000


@dataclass(frozen=True)
class ExpectationEngine:
    """Configuration of a numerical expectation scheme.

    Parameters
    ----------
    kind : str
        ``"monte_carlo"``, ``"sigma_point"`` or ``"gauss_hermite"``.
    sample_count : int
        Number of Monte Carlo samples; ignored by the other kinds.
    kappa : float
        Sigma-point spread. The point set covers the augmented
        dimension d = state_dim + noise_dim with 2d + 1 points scaled
        by sqrt(d + kappa); kappa must be a finite real number, and
        exceed -d when the points are built. Ignored by the other kinds.
    seed : int
        Seed of the Monte Carlo draw stream, nonnegative; ignored by the
        other kinds.
    nodes : int
        Gauss-Hermite nodes per augmented axis, at least 2; the rule has
        nodes**d points and is exact for polynomials of degree up to
        2 * nodes - 1 in each variable. Ignored by the other kinds.
    """

    kind: str
    sample_count: int = DEFAULT_SAMPLE_COUNT
    kappa: float = 0.0
    seed: int = 0
    nodes: int = 3

    def __post_init__(self):
        if self.kind not in _POINT_BUILDERS:
            raise ValueError(
                f"engine kind must be one of {tuple(_POINT_BUILDERS)}, got {self.kind!r}"
            )
        # A kind that ignores a count takes any integer there.
        _integer("sample_count", self.sample_count, 2 if self.kind == "monte_carlo" else -np.inf)
        _integer("nodes", self.nodes, 2 if self.kind == "gauss_hermite" else -np.inf)
        _integer("seed", self.seed, 0)
        object.__setattr__(self, "kappa", _real("kappa", self.kappa))


def monte_carlo(
    sample_count: int = DEFAULT_SAMPLE_COUNT, seed: int = 0
) -> ExpectationEngine:
    """Monte Carlo engine; estimator error decays like 1/sqrt(sample_count)."""
    return ExpectationEngine("monte_carlo", sample_count=sample_count, seed=seed)


def sigma_point(kappa: float = 0.0) -> ExpectationEngine:
    """Deterministic sigma-point engine, exact for polynomials of total degree <= 2."""
    return ExpectationEngine("sigma_point", kappa=kappa)


def gauss_hermite(nodes: int = 3) -> ExpectationEngine:
    """Deterministic Gauss-Hermite product rule with ``nodes`` points per axis.

    Exact for every polynomial of degree <= 2 * nodes - 1 in each of the
    augmented state and noise variables (Ito & Xiong, IEEE TAC 2000).
    """
    return ExpectationEngine("gauss_hermite", nodes=nodes)


@dataclass(frozen=True)
class PointSet:
    """An engine's weighted point set for a standard-normal state.

    ``offsets`` has shape (state_dim, n_points), component-major; a
    belief places them at ``mean + root @ offsets`` (:func:`_place`),
    with ``root`` the symmetric square root of its covariance.
    ``noises`` has shape (n_points, noise_dim) and ``weights`` shape
    (n_points,), summing to 1. All three are read-only.
    """

    offsets: np.ndarray
    noises: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.offsets, self.noises, self.weights):
            arr.setflags(write=False)


def _monte_carlo_points(engine: ExpectationEngine, dx: int, noise_dim: int) -> PointSet:
    # The (n, dim) draw stream seen component-major, one contiguous row
    # per coordinate; every weight is 1/n.
    n = engine.sample_count
    draws = np.random.default_rng(engine.seed).standard_normal((n, dx + noise_dim))
    table = np.ascontiguousarray(draws.T)
    return PointSet(table[:dx], table[dx:].T, np.full(n, 1.0 / n))


def _sigma_points(engine: ExpectationEngine, dx: int, noise_dim: int) -> PointSet:
    # Center first, then the +/- state columns, then the +/- noise axes.
    d = dx + noise_dim
    if d + engine.kappa <= 0.0:
        raise ValueError(
            f"sigma-point spread kappa={engine.kappa} must exceed -{d} here"
        )
    scale = np.sqrt(d + engine.kappa)
    n = 2 * d + 1
    offsets = np.zeros((dx, n))
    noises = np.zeros((n, noise_dim))
    np.fill_diagonal(offsets[:, 1 : 1 + dx], scale)
    np.fill_diagonal(offsets[:, 1 + dx : 1 + 2 * dx], -scale)
    if noise_dim:
        np.fill_diagonal(noises[1 + 2 * dx : 1 + 2 * dx + noise_dim], scale)
        np.fill_diagonal(noises[1 + 2 * dx + noise_dim :], -scale)
    weights = np.full(n, 0.5 / (d + engine.kappa))
    weights[0] = engine.kappa / (d + engine.kappa)
    return PointSet(offsets, noises, weights)


def _gauss_hermite_points(engine: ExpectationEngine, dx: int, noise_dim: int) -> PointSet:
    # Tensor product of the probabilists' rule over the dx + noise_dim
    # augmented axes, the last axis varying fastest; weights sum to 1.
    x, w = np.polynomial.hermite_e.hermegauss(engine.nodes)
    index = np.indices((engine.nodes,) * (dx + noise_dim)).reshape(dx + noise_dim, -1)
    table = x[index]
    weights = np.prod(w[index], axis=0)
    return PointSet(table[:dx], table[dx:].T, weights / weights.sum())


# The point-set builder of each engine kind.
_POINT_BUILDERS = {
    "monte_carlo": _monte_carlo_points,
    "sigma_point": _sigma_points,
    "gauss_hermite": _gauss_hermite_points,
}


def _unit_points(engine: ExpectationEngine, state_dim: int, noise_dim: int) -> PointSet:
    """The engine's point set for a standard-normal state and noise."""
    return _POINT_BUILDERS[engine.kind](engine, state_dim, noise_dim)


def _place(points: PointSet, means: np.ndarray, roots: np.ndarray) -> np.ndarray:
    # States mean + root @ offsets of each lane, shape (lanes, d, n), for
    # means (lanes, d) and roots (lanes, d, d). For scalar states a
    # broadcast product is cheaper than matmul.
    if roots.shape[-1] == 1:
        states = roots * points.offsets
    else:
        states = roots @ points.offsets
    states += means[:, :, None]
    return states


def sample_points(
    engine: ExpectationEngine,
    belief: GaussianBelief,
    noise_dim: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realize the engine's weighted point set for (belief x noise).

    Returns
    -------
    states : ndarray, shape (n_points, state_dim)
    noises : ndarray, shape (n_points, noise_dim)
    weights : ndarray, shape (n_points,)
        Weights summing to 1; ``noises`` and ``weights`` are read-only.
        Monte Carlo weights all equal 1/n_points. Sigma points come ordered
        center first, then the +/- state columns, then the +/- noise
        axes; with kappa = 0 the center weight is 0. Gauss-Hermite points
        come as the product grid, the last noise axis varying fastest.
    """
    _integer("noise_dim", noise_dim, 0)
    points = _unit_points(engine, belief.state_dim, noise_dim)
    states = _place(points, belief.mean[None], _psd_roots(belief.cov[None])[0])[0].T
    return states, points.noises, points.weights


def expect(engine, belief, noise_dim, f) -> np.ndarray:
    """Approximate E[f(x, u)] for x ~ belief and u ~ N(0, I_noise_dim).

    ``f`` is evaluated once on the whole point set: it receives arrays
    of shape (n_points, state_dim) and (n_points, noise_dim) and must
    return an array of shape (n_points,) or (n_points, k), broadcasting
    over the leading sample axis.

    Returns the weighted average as a 1-D array of length k.

    Raises
    ------
    NumericsError
        If ``f`` produces a non-finite value; the message pins down the
        offending sample.
    """
    states, noises, weights = sample_points(engine, belief, noise_dim)
    values = np.asarray(f(states, noises), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2 or values.shape[0] != states.shape[0]:
        raise ValueError(
            f"integrand returned shape {values.shape}, expected "
            f"({states.shape[0]}, k)"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.argwhere(~np.isfinite(values))[0, 0])
        raise NumericsError(
            f"integrand returned a non-finite value at sample {bad}: "
            f"state={states[bad]}, noise={noises[bad]}"
        )
    return weights @ values


def expected_likelihood_weight(dim: int, engine: ExpectationEngine) -> float:
    """Estimate the mean importance weight E[p(y|x)] in dimension ``dim``.

    The prior is N(0, I), the likelihood N(y | x, I), and (x, y) are
    drawn jointly from the model, so the integrand reduces to the
    density of the observation noise at its own draw. The exact value
    is (2 sqrt(pi))**(-dim), which shrinks geometrically with dim; the
    estimator stays unbiased but its relative error grows, which is the
    usual particle-weight degeneracy in miniature.
    """
    _integer("dim", dim, 1)
    belief = GaussianBelief(np.zeros(dim), np.eye(dim))
    norm = (2.0 * np.pi) ** (-dim / 2.0)

    def weight(states, noises):
        return norm * np.exp(-0.5 * np.einsum("ij,ij->i", noises, noises))

    return float(expect(engine, belief, dim, weight)[0])

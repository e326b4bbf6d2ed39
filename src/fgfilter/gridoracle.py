"""Grid evaluation of scalar filtering problems.

For scalar state and measurement, the joint density p(x, y) =
p(y | x) p(x) can be tabulated on a rectangular grid and every quantity
of interest (conditionals, moments, KL divergences) reduced to cell
sums. The tabulation is brute force and assumption-free, which makes it
the reference the sampled filters are validated against. It fills one
n_x * n_y float64 buffer in row blocks of x, so its peak memory is that
buffer (32 MB at n = 2001) plus one block of likelihood temporaries.
The reductions read a few per-density statistics (the two marginals,
the x-weighted column sums and the negentropy), computed once per
density, so scoring a feature costs O(n) rather than another pass over
the n^2 cells.

All grids are cell-centered: a :class:`Grid1D` with n cells over
[lo, hi] places values at lo + (i + 1/2) * spacing, and integrals are
midpoint sums, sum(f(values)) * spacing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import NumericsError, gaussian_pdf, symmetrize
from .filters import FeatureFunction, FgfPosteriorParams, JointMoments, _evaluate_feature
from .models import GaussianBelief, StateSpaceModel, _integer, _owned, _real

__all__ = [
    "Grid1D",
    "GridDensity2D",
    "GridCoverageWarning",
    "default_grids",
    "joint_density_grid",
    "conditional_slice",
    "conditional_mean_curve",
    "grid_joint_moments",
    "kl_conditional",
    "gaussian_moment_oracle",
]

# Warn when the unnormalized grid integral of likelihood * prior falls
# this far from 1: mass is escaping the grid or cells are too coarse.
COVERAGE_TOL = 1e-3

# Cells per row block when tabulating or reducing over the n_x * n_y
# cells: each block-sized float64 temporary takes 256 KB, whatever the
# grid size.
_BLOCK_CELLS = 1 << 15

# Monte Carlo draws from which default_grids takes the measurement's mean
# and spread to place the y grid.
_Y_SAMPLES = 100_000


class GridCoverageWarning(UserWarning):
    """The grid fails to capture the joint density to the advertised tolerance."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid over [lo, hi] with n cells; compares by (lo, hi, n)."""

    lo: float
    hi: float
    n: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", _real("lo", self.lo))
        object.__setattr__(self, "hi", _real("hi", self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        _integer("n", self.n, 2)
        values = self.lo + (np.arange(self.n) + 0.5) * self.spacing
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n


@dataclass(frozen=True, eq=False)
class GridDensity2D:
    """Joint density over an (x, y) grid, normalized to unit mass.

    ``mass[i, j]`` is the density at (x_grid.values[i],
    y_grid.values[j]); sum(mass) * cell_area == 1 within 1e-6.

    The reductions the oracle needs are read from a few statistics
    (``wx``, ``wy``, ``x_mean``, ``xw``, ``negentropy``), each computed
    from the cells on first use and then cached on the instance.
    """

    x_grid: Grid1D
    y_grid: Grid1D
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.x_grid.n, self.y_grid.n):
            raise ValueError(
                f"mass shape {mass.shape} does not match grid "
                f"({self.x_grid.n}, {self.y_grid.n})"
            )
        if not np.all(np.isfinite(mass)):
            raise NumericsError("grid density contains non-finite values")
        if np.any(mass < 0.0):
            raise ValueError("grid density contains negative values")
        total = float(mass.sum()) * self.cell_area
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"grid density integrates to {total!r}, expected 1")
        mass = mass.copy()
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def cell_area(self) -> float:
        return self.x_grid.spacing * self.y_grid.spacing

    @cached_property
    def wx(self) -> np.ndarray:
        """Marginal weights over x: ``mass.sum(axis=1) * cell_area``."""
        return _read_only(self.mass.sum(axis=1) * self.cell_area)

    @cached_property
    def wy(self) -> np.ndarray:
        """Marginal weights over y: ``mass.sum(axis=0) * cell_area``."""
        return _read_only(self.mass.sum(axis=0) * self.cell_area)

    @cached_property
    def x_mean(self) -> float:
        """E[x] under the grid weights."""
        return float(self.x_grid.values @ self.wx)

    @cached_property
    def xw(self) -> np.ndarray:
        """x-weighted column sums ``(x - x_mean) @ mass * cell_area``.

        Centred at ``x_mean`` so they keep their digits on grids far
        from the origin.
        """
        centred = self.x_grid.values - self.x_mean
        return _read_only((centred @ self.mass) * self.cell_area)

    @cached_property
    def negentropy(self) -> float:
        """``sum(mass * log(mass)) * cell_area``, with 0 log 0 = 0.

        Summed over row blocks, so no temporary spans all the cells.
        """
        total = 0.0
        for rows in _row_blocks(*self.mass.shape):
            block = self.mass[rows]
            terms = np.log(block, out=np.zeros_like(block), where=block > 0.0)
            terms *= block
            total += float(terms.sum())
        return total * self.cell_area


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _row_blocks(n_rows: int, n_cols: int):
    """Slices of consecutive rows holding about ``_BLOCK_CELLS`` cells each."""
    step = max(1, _BLOCK_CELLS // n_cols)
    starts = range(0, n_rows, step)
    return [slice(start, min(start + step, n_rows)) for start in starts]


def default_grids(
    model: StateSpaceModel,
    belief: GaussianBelief,
    n: int = 2001,
    span: float = 6.0,
    seed: int = 0,
) -> tuple[Grid1D, Grid1D]:
    """Pick grids covering ``span`` standard deviations on both axes.

    The x grid comes straight from the belief; the y grid from seeded
    Monte Carlo moments of the measurement under it. ``span`` must be a
    positive real and ``seed`` a nonnegative integer (not a bool).
    """
    _integer("seed", seed, 0)
    span = _real("span", span)
    _require_scalar(model)
    x_grid = _state_grid(belief, n, span)
    rng = np.random.default_rng(seed)
    xs = belief.mean[0] + np.sqrt(belief.cov[0, 0]) * rng.standard_normal((_Y_SAMPLES, 1))
    ws = rng.standard_normal((_Y_SAMPLES, model.obs_noise_dim))
    ys = np.asarray(model.observe(xs, ws), dtype=float)[:, 0]
    spread = float(ys.std())
    if spread <= 0.0:
        raise ValueError("measurement spread is zero, no sensible y grid")
    center = float(ys.mean())
    y_grid = Grid1D(center - span * spread, center + span * spread, n)
    return x_grid, y_grid


def _state_grid(belief: GaussianBelief, n: int, span: float) -> Grid1D:
    # The x grid of default_grids, straight from a scalar belief.
    span = _real("span", span)
    if span <= 0.0:
        raise ValueError(f"span must be positive, got {span}")
    mu = float(belief.mean[0])
    sd = float(np.sqrt(belief.cov[0, 0]))
    if sd <= 0.0:
        raise ValueError("belief must have positive variance")
    return Grid1D(mu - span * sd, mu + span * sd, n)


def _require_scalar(model: StateSpaceModel) -> None:
    if model.state_dim != 1 or model.meas_dim != 1:
        raise ValueError(
            "grid evaluation supports scalar state and measurement only, "
            f"got state_dim={model.state_dim}, meas_dim={model.meas_dim}"
        )


def joint_density_grid(
    model: StateSpaceModel,
    prior: GaussianBelief,
    x_grid: Grid1D,
    y_grid: Grid1D,
) -> GridDensity2D:
    """Tabulate p(x, y) = p(y | x) p(x) on the grid and normalize.

    The cells are filled in row blocks of x, one ``model.likelihood``
    call per block, into a single n_x * n_y buffer that is normalized in
    place and owned by the returned density. Every block is screened:
    a wrong shape or a negative value raises ``ValueError``, a
    non-finite value :class:`NumericsError`.

    Warns with :class:`GridCoverageWarning` when the unnormalized mass
    deviates from 1 by more than 1e-3, which signals truncated prior or
    likelihood mass (or cells too coarse to resolve the density).
    """
    _require_scalar(model)
    if model.likelihood is None:
        raise ValueError("model has no likelihood; the grid oracle needs one")
    if prior.state_dim != 1:
        raise ValueError("prior must be scalar")
    prior_var = float(prior.cov[0, 0])
    if prior_var <= 0.0:
        raise ValueError("prior must have positive variance")
    x = x_grid.values
    y = y_grid.values
    prior_pdf = gaussian_pdf(x, float(prior.mean[0]), prior_var)
    mass = np.empty((x_grid.n, y_grid.n))
    for rows in _row_blocks(x_grid.n, y_grid.n):
        like = np.asarray(model.likelihood(y[None, :], x[rows, None]), dtype=float)
        expected = (rows.stop - rows.start, y_grid.n)
        if like.shape != expected:
            raise ValueError(
                f"likelihood returned shape {like.shape} for x rows "
                f"{rows.start}:{rows.stop}, expected {expected}"
            )
        # min and max carry any NaN or infinity, and cannot overflow
        # the way a sum of large finite values can.
        lo, hi = like.min(), like.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericsError("likelihood produced non-finite values on the grid")
        if lo < 0.0:
            raise ValueError("likelihood produced negative values on the grid")
        np.multiply(like, prior_pdf[rows, None], out=mass[rows])
    total = float(mass.sum()) * x_grid.spacing * y_grid.spacing
    if not np.isfinite(total):
        raise NumericsError("joint density mass overflows on the grid")
    if total <= 0.0:
        raise NumericsError("joint density is identically zero on the grid")
    if abs(total - 1.0) > COVERAGE_TOL:
        warnings.warn(
            f"grid captures mass {total:.6f} instead of 1; widen the grids "
            "or refine the cells",
            GridCoverageWarning,
            stacklevel=2,
        )
    mass /= total
    return _owned(GridDensity2D, x_grid=x_grid, y_grid=y_grid, mass=mass)


def conditional_slice(density: GridDensity2D, y: float) -> np.ndarray:
    """Exact conditional p(x | y) at the grid column nearest to ``y``.

    Returns a density over ``density.x_grid`` (sums to 1 after
    multiplying by the x spacing).
    """
    y = _real("y", y)
    if y < density.y_grid.lo or y > density.y_grid.hi:
        raise ValueError(
            f"y={y} lies outside the grid [{density.y_grid.lo}, {density.y_grid.hi}]"
        )
    j = int(np.argmin(np.abs(density.y_grid.values - y)))
    column = density.mass[:, j]
    norm = float(column.sum()) * density.x_grid.spacing
    if norm <= 0.0:
        raise NumericsError(
            f"conditional at y={y} has zero mass at this grid resolution"
        )
    return column / norm


def conditional_mean_curve(density: GridDensity2D) -> np.ndarray:
    """E[x | y] for every y column; NaN where a column carries no mass."""
    weights = density.wy
    with np.errstate(invalid="ignore", divide="ignore"):
        means = density.x_mean + density.xw / weights
    return np.where(weights > 0.0, means, np.nan)


def grid_joint_moments(density: GridDensity2D, feature: FeatureFunction) -> JointMoments:
    """Exact (up to the grid) joint moments of state and features.

    Feature values depend only on y, so all sums collapse onto the
    density's marginals and x-weighted column sums: O(n k) work for a
    feature of k outputs, with no pass over the cells.
    """
    xc = density.x_grid.values - density.x_mean
    wy = density.wy
    phis = _evaluate_feature(feature, density.y_grid.values[:, None])
    mu_f = wy @ phis
    fc = phis - mu_f
    s_xx = np.array([[float((xc * xc) @ density.wx)]])
    s_ff = symmetrize((fc * wy[:, None]).T @ fc)
    s_xf = (density.xw @ fc)[None, :]
    return JointMoments(
        mu_x=np.array([density.x_mean]), mu_f=mu_f, s_xx=s_xx, s_ff=s_ff, s_xf=s_xf
    )


def kl_conditional(
    density: GridDensity2D,
    params: FgfPosteriorParams,
    feature: FeatureFunction,
) -> float:
    """Average KL divergence from the fitted conditional to the exact one.

    Evaluates the cell sum

        sum_ij mass_ij * (log mass_ij - log q(x_i | y_j)) * cell_area

    which equals E_y[ KL(p(.|y) || q(.|y)) ] plus a constant that does
    not depend on the fitted parameters, so only differences between
    feature choices are meaningful. Cells with zero mass contribute
    nothing.

    The sum is evaluated exactly from the density's statistics in O(n)
    work. The log-mass part is ``density.negentropy``. With weights
    w_ij = mass_ij * cell_area, column means m_j = phi(y_j) gamma, and
    u_i = x_i - E[x], v_j = m_j - E[x],

        sum_ij w_ij (x_i - m_j)^2
            = sum_i wx_i u_i^2 - 2 sum_j v_j xw_j + sum_j wy_j v_j^2,

    centred at E[x] so that grids far from the origin do not cancel.
    """
    if params.state_dim != 1:
        raise ValueError("KL objective supports scalar state only")
    phis = _evaluate_feature(feature, density.y_grid.values[:, None])
    if phis.shape[1] != params.feature_dim:
        raise ValueError(
            f"feature dimension {phis.shape[1]} does not match fitted "
            f"parameters ({params.feature_dim})"
        )
    var = float(params.sigma[0, 0])
    if var <= 0.0:
        raise NumericsError("fitted conditional has nonpositive variance")
    u = density.x_grid.values - density.x_mean
    v = phis @ params.gamma[0] - density.x_mean
    wy = density.wy
    squares = (u * u) @ density.wx - 2.0 * (v @ density.xw) + (wy * v) @ v
    log_norm = wy.sum() * np.log(2.0 * np.pi * var)
    return density.negentropy + 0.5 * float(squares / var + log_norm)


def gaussian_moment_oracle(mean: float, var: float, k: int) -> float:
    """Raw moment E[z^k] of z ~ N(mean, var) by the Stein recursion.

    m_k = mean * m_{k-1} + (k - 1) * var * m_{k-2}, supported for
    k <= 8; anything higher is outside this oracle's tested range.
    """
    _integer("k", k, 0)
    if k > 8:
        raise ValueError(f"moment order {k} exceeds the supported maximum 8")
    mean, var = _real("mean", mean), _real("var", var, 0)
    prev, cur = 1.0, mean
    if k == 0:
        return prev
    for j in range(2, k + 1):
        prev, cur = cur, mean * cur + (j - 1) * var * prev
    return cur

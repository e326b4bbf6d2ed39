"""Tests for the grid oracle.

The oracle is itself validated here against closed forms: Gaussian
moments against scipy, grid conditionals against the exact conjugate
posterior of a linear model, and the KL objective against its known
minimizer. Its reductions from per-density statistics are checked
against the plain cell sums kept below as the reference, and its
row-blocked tabulation against a one-shot table, bit for bit.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from fgfilter import (
    FeatureFunction,
    FgfPosteriorParams,
    GaussianBelief,
    Grid1D,
    GridCoverageWarning,
    GridDensity2D,
    NumericsError,
    StateSpaceModel,
    conditional_mean_curve,
    conditional_slice,
    default_grids,
    fgf_solve,
    gaussian_moment_oracle,
    grid_joint_moments,
    joint_density_grid,
    kl_conditional,
    make_affine_feature,
    make_heaviside_model,
    make_monomial_feature,
    make_noise_magnitude_model,
)
from fgfilter import gridoracle
from fgfilter._linalg import gaussian_pdf, symmetrize
from fgfilter.filters import JointMoments
from helpers import gaussian_log_pdf, linear_ssm


def _scalar_linear():
    sys = {
        "a": np.array([[1.0]]),
        "b": np.zeros(1),
        "q": np.array([[1.0]]),
        "c": np.array([[1.0]]),
        "d": np.zeros(1),
        "r": np.array([[0.36]]),
    }
    return sys, linear_ssm(sys)


def _reference_moments(density, feature):
    """Joint moments as plain sums over every cell."""
    x = density.x_grid.values
    cell_w = density.mass * density.cell_area
    wx = cell_w.sum(axis=1)
    wy = cell_w.sum(axis=0)
    phis = feature.map(density.y_grid.values[:, None])
    mu_x = float(x @ wx)
    mu_f = wy @ phis
    xc = x - mu_x
    fc = phis - mu_f
    return JointMoments(
        mu_x=np.array([mu_x]),
        mu_f=mu_f,
        s_xx=np.array([[float((xc * xc) @ wx)]]),
        s_ff=symmetrize((fc * wy[:, None]).T @ fc),
        s_xf=((xc @ cell_w) @ fc)[None, :],
    )


def _reference_kl(density, params, feature):
    """Cell sum of mass * (log mass - log q) * cell_area over live cells."""
    phis = feature.map(density.y_grid.values[:, None])
    means = phis @ params.gamma[0]
    log_q = gaussian_log_pdf(
        density.x_grid.values[:, None], means[None, :], float(params.sigma[0, 0])
    )
    mass = density.mass
    live = mass > 0.0
    contrib = mass[live] * (np.log(mass[live]) - log_q[live])
    return float(contrib.sum()) * density.cell_area


def _random_density(rng, x_grid, y_grid, zero_frac=0.3):
    """Random positive masses with a share of exactly-zero cells and one dead column."""
    mass = rng.uniform(0.1, 1.0, (x_grid.n, y_grid.n))
    mass[rng.uniform(size=mass.shape) < zero_frac] = 0.0
    mass[:, 3] = 0.0
    cell = x_grid.spacing * y_grid.spacing
    return GridDensity2D(x_grid, y_grid, mass / (mass.sum() * cell))


def _offset_density(offset, n=301):
    """Correlated Gaussian-shaped joint on an x grid centred at ``offset``."""
    xg = Grid1D(offset - 4.0, offset + 4.0, n)
    yg = Grid1D(-5.0, 5.0, n)
    dx = xg.values[:, None] - offset
    y = yg.values[None, :]
    mass = np.exp(-0.5 * (dx - 0.8 * y) ** 2 / 0.3 - 0.5 * y * y)
    return GridDensity2D(xg, yg, mass / (mass.sum() * xg.spacing * yg.spacing))


def _assert_moments_close(got, ref, x_grid, rtol=1e-10):
    # Entries that vanish by symmetry are compared on the scale of their
    # block; E[x] on the scale of the grid, since it may sit at 0.
    x_scale = max(abs(x_grid.lo), abs(x_grid.hi))
    assert_allclose(got.mu_x, ref.mu_x, rtol=rtol, atol=rtol * x_scale, err_msg="mu_x")
    for name in ("mu_f", "s_xx", "s_ff", "s_xf"):
        a, b = getattr(got, name), getattr(ref, name)
        assert_allclose(a, b, rtol=rtol, atol=rtol * np.max(np.abs(b)), err_msg=name)


def test_grid1d_cell_centers():
    grid = Grid1D(0.0, 1.0, 4)
    assert_allclose(grid.spacing, 0.25)
    assert_allclose(grid.values, [0.125, 0.375, 0.625, 0.875])
    assert not grid.values.flags.writeable
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)


def test_grids_compare_and_hash_by_lo_hi_n():
    grid = Grid1D(0, 1, 3)
    same = Grid1D(np.float32(0.0), 1.0, np.int64(3))
    assert grid == same and hash(grid) == hash(same)
    assert (grid.lo, grid.hi) == (0.0, 1.0) and type(grid.lo) is float
    assert grid != Grid1D(0.0, 1.0, 4) and grid != Grid1D(0.0, 2.0, 3)


def test_grid_density_validation():
    x = Grid1D(0.0, 1.0, 3)
    y = Grid1D(0.0, 1.0, 2)
    mass = np.ones((3, 2))  # uniform density over the unit square
    d = GridDensity2D(x, y, mass)
    assert_allclose(d.cell_area, 1.0 / 6.0)
    assert not np.shares_memory(d.mass, mass)
    with pytest.raises(ValueError):
        GridDensity2D(x, y, np.ones((2, 3)))
    with pytest.raises(ValueError):
        GridDensity2D(x, y, np.full((3, 2), 2.0))
    with pytest.raises(ValueError):
        GridDensity2D(x, y, -mass)
    with pytest.raises(NumericsError):
        GridDensity2D(x, y, np.full((3, 2), np.nan))


def test_default_grids_cover_the_belief():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=101, span=4.0)
    assert xg.n == 101 and yg.n == 101
    assert_allclose([xg.lo, xg.hi], [1.0, 9.0])
    assert abs(yg.lo + yg.hi) < 0.5  # y grid roughly centered on zero


def test_default_grids_reject_zero_measurement_spread():
    flat = StateSpaceModel(1, 1, 1, 1, lambda x, v: x + v, lambda x, w: 0.0 * x, name="flat")
    with pytest.raises(ValueError, match="measurement spread is zero"):
        default_grids(flat, GaussianBelief(0.0, 1.0), n=11)


def test_default_grids_reject_a_point_mass_prior():
    model, prior = make_noise_magnitude_model(prior_var=0.0)
    with pytest.raises(ValueError, match="belief must have positive variance"):
        default_grids(model, prior, n=11)


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be at least 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ],
)
def test_default_grids_reject_bad_seeds(seed, message):
    model, prior = make_noise_magnitude_model()
    with pytest.raises(ValueError, match=message):
        default_grids(model, prior, n=11, seed=seed)


def test_joint_density_marginal_matches_prior():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=501)
    joint = joint_density_grid(model, prior, xg, yg)
    marginal = joint.mass.sum(axis=1) * yg.spacing
    ref = stats.norm.pdf(xg.values, loc=5.0, scale=1.0)
    assert np.max(np.abs(marginal - ref)) < 1e-3


def test_joint_density_warns_on_poor_coverage():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=201, span=1.5)
    with pytest.warns(GridCoverageWarning):
        joint_density_grid(model, prior, xg, yg)


def test_joint_density_requires_likelihood_and_scalar():
    xg = Grid1D(-1.0, 1.0, 11)
    no_like = StateSpaceModel(
        1, 1, 1, 1, lambda x, v: x, lambda x, w: x + w, name="nolik"
    )
    with pytest.raises(ValueError):
        joint_density_grid(no_like, GaussianBelief(0.0, 1.0), xg, xg)
    with_like = make_noise_magnitude_model()[0]
    with pytest.raises(ValueError):
        joint_density_grid(with_like, GaussianBelief(5.0, 0.0), xg, xg)
    sys = {
        "a": np.eye(2), "b": np.zeros(2), "q": np.eye(2),
        "c": np.eye(2), "d": np.zeros(2), "r": np.eye(2),
    }
    with pytest.raises(ValueError):
        joint_density_grid(linear_ssm(sys), GaussianBelief(np.zeros(2), np.eye(2)), xg, xg)


def test_joint_density_rejects_a_non_scalar_prior():
    xg = Grid1D(-1.0, 1.0, 11)
    model = make_noise_magnitude_model()[0]
    with pytest.raises(ValueError, match="prior must be scalar"):
        joint_density_grid(model, GaussianBelief(np.zeros(2), np.eye(2)), xg, xg)


def test_conditional_slice_matches_conjugate_posterior():
    sys, model = _scalar_linear()
    prior = GaussianBelief(np.array([1.0]), np.array([[0.8]]))
    xg, yg = default_grids(model, prior, n=1501)
    joint = joint_density_grid(model, prior, xg, yg)
    post_var = 1.0 / (1.0 / 0.8 + 1.0 / 0.36)
    for y in (0.2, 1.0, 2.2):
        dens = conditional_slice(joint, y)
        assert abs(float(dens.sum()) * xg.spacing - 1.0) < 1e-9
        mean = float((xg.values * dens).sum()) * xg.spacing
        var = float(((xg.values - mean) ** 2 * dens).sum()) * xg.spacing
        # the slice snaps to the nearest grid column, so compare against
        # the posterior at that column's y, not the requested y
        y_used = yg.values[np.argmin(np.abs(yg.values - y))]
        ref_mean = post_var * (1.0 / 0.8 + y_used / 0.36)
        assert abs(mean - ref_mean) < 5e-3
        assert abs(var - post_var) / post_var < 5e-3


def test_conditional_slice_range_check():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=201)
    joint = joint_density_grid(model, prior, xg, yg)
    with pytest.raises(ValueError):
        conditional_slice(joint, yg.hi + 1.0)


def test_conditional_slice_rejects_a_zero_mass_column():
    mass = np.zeros((3, 2))
    mass[:, 0] = 2.0
    density = GridDensity2D(Grid1D(0.0, 1.0, 3), Grid1D(0.0, 1.0, 2), mass)
    with pytest.raises(NumericsError, match="zero mass"):
        conditional_slice(density, 0.75)


def test_conditional_mean_curve_is_linear_for_linear_model():
    sys, model = _scalar_linear()
    prior = GaussianBelief(np.array([1.0]), np.array([[0.8]]))
    xg, yg = default_grids(model, prior, n=801)
    joint = joint_density_grid(model, prior, xg, yg)
    curve = conditional_mean_curve(joint)
    post_var = 1.0 / (1.0 / 0.8 + 1.0 / 0.36)
    ref = post_var * (1.0 / 0.8 + yg.values / 0.36)
    keep = np.abs(yg.values - 1.0) < 2.0  # stay where the grid has mass
    assert np.max(np.abs(curve[keep] - ref[keep])) < 2e-2


def test_grid_joint_moments_match_gaussian_oracle():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=1201)
    joint = joint_density_grid(model, prior, xg, yg)
    m = grid_joint_moments(joint, make_monomial_feature(1, 2))
    # E[M] = 5, var[M] = 1 straight from the prior
    assert_allclose(m.mu_x[0], 5.0, rtol=1e-6)
    assert_allclose(m.s_xx[0, 0], 1.0, rtol=1e-3)
    # E[y] = 0, E[y^2] = E[M^2], cov(M, y^2) = E[M^3] - E[M] E[M^2]; the
    # zero entries pick up a little grid asymmetry, nothing more
    e2 = gaussian_moment_oracle(5.0, 1.0, 2)
    e3 = gaussian_moment_oracle(5.0, 1.0, 3)
    assert abs(m.mu_f[1]) < 1e-5
    assert_allclose(m.mu_f[2], e2, rtol=5e-3)
    assert abs(m.s_xf[0, 1]) < 1e-5
    assert_allclose(m.s_xf[0, 2], e3 - 5.0 * e2, rtol=2e-2)


def test_grid_joint_moments_screen_the_feature_values():
    def holey(y):
        out = make_affine_feature(1).map(y)
        out[y[:, 0] > 0.0, 1] = np.nan
        return out

    density = GridDensity2D(Grid1D(0.0, 1.0, 3), Grid1D(-1.0, 1.0, 4), np.full((3, 4), 0.5))
    with pytest.raises(NumericsError, match="'holey' produced non-finite values"):
        grid_joint_moments(density, FeatureFunction("holey", 2, holey))


def test_gaussian_moment_oracle_matches_scipy():
    for mean, var in ((0.0, 1.0), (5.0, 1.0), (-1.5, 2.5)):
        dist = stats.norm(loc=mean, scale=np.sqrt(var))
        for k in range(9):
            assert_allclose(gaussian_moment_oracle(mean, var, k), dist.moment(k),
                            rtol=1e-10, atol=1e-12)
    assert gaussian_moment_oracle(2.0, 0.0, 3) == 8.0


def test_gaussian_moment_oracle_validation():
    with pytest.raises(ValueError):
        gaussian_moment_oracle(0.0, 1.0, 9)
    with pytest.raises(ValueError):
        gaussian_moment_oracle(0.0, -1.0, 2)
    with pytest.raises(ValueError):
        gaussian_moment_oracle(0.0, 1.0, -1)


def test_kl_prefers_the_fitted_parameters():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=801)
    joint = joint_density_grid(model, prior, xg, yg)
    feat = make_monomial_feature(1, 2)
    params = fgf_solve(grid_joint_moments(joint, feat))
    kl0 = kl_conditional(joint, params, feat)
    rng = np.random.default_rng(30)
    for _ in range(3):
        factor = 1.0 + 0.1 * rng.choice([-1.0, 1.0], size=params.gamma.shape)
        pert = FgfPosteriorParams(gamma=params.gamma * factor, sigma=params.sigma)
        assert kl_conditional(joint, pert, feat) > kl0


def test_kl_decreases_with_informative_features():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=801)
    joint = joint_density_grid(model, prior, xg, yg)
    values = {}
    for order in (1, 2):
        feat = make_monomial_feature(1, order)
        params = fgf_solve(grid_joint_moments(joint, feat))
        values[order] = kl_conditional(joint, params, feat)
    assert values[2] < values[1] - 1e-2


def test_kl_validates_inputs():
    model, prior = make_noise_magnitude_model()
    xg, yg = default_grids(model, prior, n=201)
    joint = joint_density_grid(model, prior, xg, yg)
    affine = make_affine_feature(1)
    params = fgf_solve(grid_joint_moments(joint, affine))
    with pytest.raises(ValueError):
        kl_conditional(joint, params, make_monomial_feature(1, 2))


def test_kl_rejects_a_vector_state_and_a_zero_variance():
    density = GridDensity2D(Grid1D(0.0, 1.0, 3), Grid1D(0.0, 1.0, 2), np.ones((3, 2)))
    affine = make_affine_feature(1)
    vector = FgfPosteriorParams(gamma=np.ones((2, 2)), sigma=np.eye(2))
    with pytest.raises(ValueError, match="scalar state only"):
        kl_conditional(density, vector, affine)
    needle = FgfPosteriorParams(gamma=np.ones((1, 2)), sigma=np.zeros((1, 1)))
    with pytest.raises(NumericsError, match="nonpositive variance"):
        kl_conditional(density, needle, affine)


def test_statistics_are_cached_and_read_only():
    rng = np.random.default_rng(1)
    joint = _random_density(rng, Grid1D(-2.0, 3.0, 7), Grid1D(0.0, 1.0, 5))
    assert joint.wx is joint.wx and joint.xw is joint.xw
    for stat in (joint.wx, joint.wy, joint.xw):
        assert not stat.flags.writeable
    cell_w = joint.mass * joint.cell_area
    assert_allclose(joint.wx, cell_w.sum(axis=1), rtol=1e-13)
    assert_allclose(joint.wy, cell_w.sum(axis=0), rtol=1e-13)
    assert joint.wy[3] == 0.0
    live = joint.mass > 0.0
    ref = float((joint.mass[live] * np.log(joint.mass[live])).sum()) * joint.cell_area
    assert_allclose(joint.negentropy, ref, rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reductions_match_cell_sums_with_zero_mass_cells(seed):
    rng = np.random.default_rng(seed)
    joint = _random_density(rng, Grid1D(-2.0, 3.0, 40), Grid1D(-1.5, 2.5, 33))
    for order in (1, 2, 3):
        feat = make_monomial_feature(1, order)
        ref = _reference_moments(joint, feat)
        _assert_moments_close(grid_joint_moments(joint, feat), ref, joint.x_grid)
        params = fgf_solve(ref)
        scaled = FgfPosteriorParams(
            gamma=params.gamma * rng.uniform(0.5, 1.5, params.gamma.shape),
            sigma=params.sigma * 1.7,
        )
        for p in (params, scaled):
            assert_allclose(
                kl_conditional(joint, p, feat),
                _reference_kl(joint, p, feat),
                rtol=1e-10,
            )


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
def test_reductions_keep_their_digits_far_from_the_origin(offset):
    joint = _offset_density(offset)
    for order in (1, 2, 3):
        feat = make_monomial_feature(1, order)
        ref = _reference_moments(joint, feat)
        _assert_moments_close(grid_joint_moments(joint, feat), ref, joint.x_grid)
        params = fgf_solve(ref)
        assert_allclose(
            kl_conditional(joint, params, feat),
            _reference_kl(joint, params, feat),
            rtol=1e-10,
        )
    # the fitted conditional mean tracks the slope 0.8 of the joint
    assert_allclose(fgf_solve(ref).gamma[0, :2], [offset, 0.8], rtol=1e-3, atol=1e-3)


def test_conditional_mean_curve_matches_cell_sums():
    rng = np.random.default_rng(4)
    joint = _random_density(rng, Grid1D(1e4, 1e4 + 2.0, 25), Grid1D(-1.0, 1.0, 9))
    curve = conditional_mean_curve(joint)
    weights = joint.mass.sum(axis=0)
    live = weights > 0.0
    ref = (joint.x_grid.values @ joint.mass)[live] / weights[live]
    assert np.isnan(curve[3]) and np.array_equal(np.isnan(curve), ~live)
    assert_allclose(curve[live], ref, rtol=1e-13)


def _screen_grids():
    # Several full row blocks of 64 y cells and a shorter last one.
    xg, yg = Grid1D(-4.0, 4.0, 1100), Grid1D(-6.0, 6.0, 64)
    rows = gridoracle._BLOCK_CELLS // yg.n
    assert xg.n > 2 * rows and xg.n % rows != 0
    return xg, yg


def _model_with(likelihood):
    return StateSpaceModel(
        1, 1, 1, 1, lambda x, v: x + v, lambda x, w: x + w,
        likelihood=likelihood, name="screened",
    )


@pytest.mark.parametrize(
    "corrupt, error, match",
    [
        (lambda d, bad: np.where(bad, np.nan, d), NumericsError, "produced non-finite"),
        (lambda d, bad: np.where(bad, np.inf, d), NumericsError, "produced non-finite"),
        (lambda d, bad: np.where(bad, -1e-300, d), ValueError, "produced negative"),
        (lambda d, bad: d[:, :-1] if bad.any() else d, ValueError, "returned shape"),
        (lambda d, bad: np.zeros_like(d), NumericsError, "identically zero"),
    ],
    ids=["nan", "inf", "negative", "shape", "zeros"],
)
def test_joint_density_screens_the_last_block(corrupt, error, match):
    xg, yg = _screen_grids()
    calls = []

    def likelihood(y, x):
        calls.append(x[-1, 0])
        bad = (x == xg.values[-1]) & (y == yg.values[-1])
        return corrupt(gaussian_pdf(y - x), bad)

    with pytest.raises(error, match=match):
        joint_density_grid(_model_with(likelihood), GaussianBelief(0.0, 1.0), xg, yg)
    # every block was tabulated, and the failing call held the last row
    assert len(calls) == -(-xg.n // (gridoracle._BLOCK_CELLS // yg.n))
    assert calls[-1] == xg.values[-1]


@pytest.mark.parametrize("value, prior_var", [(1e300, 1e-300), (1e305, 1.0)])
def test_joint_density_reports_overflow_of_finite_values(value, prior_var):
    # a needle prior overflows the product; a large table overflows the sum
    xg = Grid1D(-5.0, 5.0, 301)
    model = _model_with(lambda y, x: np.full(np.broadcast(y, x).shape, value))
    with np.errstate(over="ignore"), pytest.raises(NumericsError, match="overflows"):
        joint_density_grid(model, GaussianBelief(0.0, prior_var), xg, xg)


def test_joint_density_leaves_a_cached_likelihood_table_alone():
    xg, yg = _screen_grids()
    table = gaussian_pdf(yg.values[None, :] - xg.values[:, None])
    table.setflags(write=False)
    before = table.copy()

    def likelihood(y, x):
        start = int(np.searchsorted(xg.values, x[0, 0]))
        return table[start : start + x.shape[0]]

    prior = GaussianBelief(0.0, 1.0)
    joint = joint_density_grid(_model_with(likelihood), prior, xg, yg)
    assert not table.flags.writeable and np.array_equal(table, before)
    assert not np.shares_memory(joint.mass, table)
    assert not joint.mass.flags.writeable


@pytest.mark.parametrize("make", [make_noise_magnitude_model, make_heaviside_model])
def test_blocked_tabulation_equals_the_one_shot_table(make):
    model, prior = make()
    xg, yg = default_grids(model, prior, n=301)
    assert xg.n % (gridoracle._BLOCK_CELLS // yg.n) != 0
    x, y = xg.values, yg.values
    like = model.likelihood(y[None, :], x[:, None])
    prior_pdf = gaussian_pdf(x, float(prior.mean[0]), float(prior.cov[0, 0]))
    total = float((like * prior_pdf[:, None]).sum()) * xg.spacing * yg.spacing
    ref = like * prior_pdf[:, None] / total
    joint = joint_density_grid(model, prior, xg, yg)
    assert np.array_equal(joint.mass, ref)
    live = ref > 0.0
    negentropy = float((ref[live] * np.log(ref[live])).sum()) * joint.cell_area
    assert_allclose(joint.negentropy, negentropy, rtol=1e-12)


@pytest.mark.parametrize("make", [make_noise_magnitude_model, make_heaviside_model])
def test_tabulation_peak_memory_is_one_buffer_and_a_block(make):
    model, prior = make()
    xg, yg = default_grids(model, prior, n=801)
    tracemalloc.start()
    try:
        joint = joint_density_grid(model, prior, xg, yg)
        joint.negentropy
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / joint.mass.nbytes
    assert ratio <= 1.5, f"peak is {ratio:.2f} times the density's bytes"

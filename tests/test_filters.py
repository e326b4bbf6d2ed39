"""Tests for features, moment computation, and the two update rules.

The load-bearing facts checked here: the affine feature makes the
feature update identical to the classical conditioning update, the
whole filter reproduces the exact Kalman filter on linear models,
feature standardization changes conditioning but not the answer, and
a fused multi-lane pass equals one solo run per lane.
"""

import dataclasses
import warnings

import fgfilter.filters
import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgfilter import (
    FeatureFunction,
    FgfPosteriorParams,
    GaussianBelief,
    JointMoments,
    NumericsError,
    StateSpaceModel,
    default_grids,
    fgf_solve,
    fgf_update,
    gf_update,
    grid_joint_moments,
    joint_density_grid,
    joint_moments,
    kl_conditional,
    make_affine_feature,
    make_heaviside_model,
    make_monomial_feature,
    make_noise_magnitude_model,
    monte_carlo,
    predict,
    run_filter,
    run_filter_lanes,
    sigma_point,
    simulate,
)
from helpers import (
    kalman_filter,
    linear_ssm,
    random_affine_moments,
    random_linear_system,
    random_spd,
    undeclared,
)


def test_monomial_feature_layout():
    feat = make_monomial_feature(1, 3)
    assert feat.out_dim == 4
    assert feat.name == "monomial3"
    assert_allclose(feat.map(np.array([[2.0]])), [[1.0, 2.0, 4.0, 8.0]])
    two = make_monomial_feature(2, 2)
    assert two.out_dim == 5
    assert_allclose(two.map(np.array([[2.0, 3.0]])), [[1.0, 2.0, 3.0, 4.0, 9.0]])
    affine = make_affine_feature(1)
    assert affine.name == "affine"
    assert affine.out_dim == 2


def test_monomial_feature_batch_shapes():
    feat = make_monomial_feature(2, 3)
    ys = np.random.default_rng(0).standard_normal((17, 2))
    phis = feat.map(ys)
    assert phis.shape == (17, 7)
    assert_allclose(phis[:, 0], 1.0)
    assert_allclose(phis[:, 5:7], ys**3)
    # The map builds its output component-major and returns the
    # transposed view; the values must not depend on the input's batch
    # shape or strides.
    ys = np.random.default_rng(1).standard_normal((3, 5, 2))
    batch = feat.map(ys)
    assert batch.shape == (3, 5, 7)
    ref = np.concatenate([np.ones((3, 5, 1)), ys, ys**2, ys * ys * ys], axis=-1)
    assert np.array_equal(batch, ref)
    for s in range(3):
        assert np.array_equal(feat.map(ys[s]), ref[s])
        for i in range(5):
            assert np.array_equal(feat.map(ys[s, i]), ref[s, i])
    # A component-major block seen as (n, d), as the filter's observed
    # points are, and a strided row view.
    obs = np.ascontiguousarray(ys[0].T)
    assert not obs.T.flags.c_contiguous
    assert np.array_equal(feat.map(obs.T), ref[0])
    assert np.array_equal(feat.map(ys[:, 2]), ref[:, 2])


def test_row_major_user_feature_gives_the_same_posteriors():
    # A user map returning a row-major copy of the built-in's values is
    # copied into the moment workspace with other strides; the posteriors
    # must be the same bits. So must the grid oracle's moments, its KL
    # score and the fitted curve that `density` writes, which take their
    # products of feature values in the layout that _evaluate_feature
    # hands out.
    for (model, prior), order, standardize in (
        (make_noise_magnitude_model(), 2, False),
        (make_heaviside_model(), 3, True),
    ):
        base = make_monomial_feature(1, order)
        rows = FeatureFunction(
            "rows", base.out_dim, lambda y, base=base: np.ascontiguousarray(base.map(y))
        )
        meas = simulate(model, prior.mean, 40, seed=order)[1]
        engine = monte_carlo(sample_count=500, seed=order)
        got = run_filter_lanes(model, prior, [base, rows], engine, meas, standardize)
        assert got.diverged_at == (None, None)
        assert np.array_equal(got.means[0], got.means[1])
        assert np.array_equal(got.covs[0], got.covs[1])
        joint = joint_density_grid(model, prior, *default_grids(model, prior, n=201))
        ys = joint.y_grid.values[:, None]
        moments, kls, curves = [], [], []
        for feat in (base, rows):
            moments.append(grid_joint_moments(joint, feat))
            params = fgf_solve(moments[-1])
            kls.append(kl_conditional(joint, params, feat))
            curves.append(fgfilter.filters._evaluate_feature(feat, ys) @ params.gamma[0])
        for field in dataclasses.fields(JointMoments):
            assert np.array_equal(*(getattr(m, field.name) for m in moments))
        assert kls[0] == kls[1]
        assert np.array_equal(*curves)


def test_feature_validation():
    with pytest.raises(ValueError):
        make_monomial_feature(0, 2)
    with pytest.raises(ValueError):
        make_monomial_feature(1, 0)
    with pytest.raises(ValueError):
        FeatureFunction(name="", out_dim=2, map=lambda y: y)
    with pytest.raises(ValueError):
        FeatureFunction(name="f", out_dim=1, map=lambda y: y)


def test_feature_map_must_be_callable():
    with pytest.raises(ValueError, match="map must be callable"):
        FeatureFunction(name="f", out_dim=2, map=None)


def test_monomial_map_checks_the_measurement_dimension():
    with pytest.raises(ValueError, match="expects measurement dimension 1, got 2"):
        make_monomial_feature(1, 2).map(np.zeros((3, 2)))


def test_joint_moments_validation():
    good = dict(
        mu_x=np.zeros(1),
        mu_f=np.array([1.0, 0.0]),
        s_xx=np.eye(1),
        s_ff=np.diag([0.0, 1.0]),
        s_xf=np.zeros((1, 2)),
    )
    m = JointMoments(**good)
    assert m.state_dim == 1 and m.feature_dim == 2
    assert not m.s_ff.flags.writeable
    with pytest.raises(ValueError):
        JointMoments(**{**good, "s_xf": np.zeros((2, 2))})
    with pytest.raises(NumericsError):
        JointMoments(**{**good, "mu_x": np.array([np.nan])})
    with pytest.raises(NumericsError):
        JointMoments(**{**good, "s_ff": np.diag([1.0, -1.0])})


def test_joint_moments_finite_screen_does_not_overflow():
    # The entries of s_ff sum past the largest float, yet all are finite.
    huge = dict(
        mu_x=np.zeros(1),
        mu_f=np.array([1.0, 0.0, 0.0, 0.0]),
        s_xx=np.eye(1),
        s_ff=np.diag([0.0] + [8e307] * 3),
        s_xf=np.zeros((1, 4)),
    )
    assert JointMoments(**huge).s_ff[1, 1] == 8e307
    for bad in (np.nan, np.inf, -np.inf):
        s_ff = np.diag([0.0, 1.0, 1.0, 1.0])
        s_ff[3, 3] = bad
        with pytest.raises(NumericsError):
            JointMoments(**{**huge, "s_ff": s_ff})


def test_joint_moments_copies_inputs():
    s_xx = np.eye(1)
    m = JointMoments(
        mu_x=np.zeros(1),
        mu_f=np.array([1.0, 0.0]),
        s_xx=s_xx,
        s_ff=np.diag([0.0, 1.0]),
        s_xf=np.zeros((1, 2)),
    )
    s_xx[0, 0] = 7.0
    assert m.s_xx[0, 0] == 1.0


def test_posterior_params_validation():
    params = FgfPosteriorParams(gamma=np.ones((1, 2)), sigma=np.array([[2.0]]))
    assert params.state_dim == 1 and params.feature_dim == 2
    with pytest.raises(ValueError):
        FgfPosteriorParams(gamma=np.ones((1, 2)), sigma=np.eye(2))
    with pytest.raises(NumericsError):
        FgfPosteriorParams(gamma=np.array([[np.inf, 0.0]]), sigma=np.eye(1))
    with pytest.raises(NumericsError):
        FgfPosteriorParams(gamma=np.ones((1, 2)), sigma=np.array([[-1.0]]))


def test_predict_matches_kalman_prediction():
    rng = np.random.default_rng(20)
    for dx, dy in ((1, 1), (2, 1), (3, 2)):
        sys = random_linear_system(rng, dx, dy)
        model = linear_ssm(sys)
        belief = GaussianBelief(rng.standard_normal(dx), random_spd(rng, dx))
        out = predict(belief, model, sigma_point())
        ref_mean = sys["a"] @ belief.mean + sys["b"]
        ref_cov = sys["a"] @ belief.cov @ sys["a"].T + sys["q"]
        assert_allclose(out.mean, ref_mean, atol=1e-10)
        assert_allclose(out.cov, ref_cov, atol=1e-10)


def test_joint_moments_sigma_exact_on_linear_model():
    rng = np.random.default_rng(21)
    sys = random_linear_system(rng, 2, 2)
    model = linear_ssm(sys)
    belief = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
    m = joint_moments(belief, model, make_affine_feature(2), sigma_point())
    assert_allclose(m.mu_x, belief.mean, atol=1e-12)
    assert_allclose(m.mu_f[0], 1.0, atol=1e-14)
    assert_allclose(m.mu_f[1:], sys["c"] @ belief.mean + sys["d"], atol=1e-10)
    assert_allclose(m.s_ff[0], 0.0, atol=1e-12)
    assert_allclose(
        m.s_ff[1:, 1:], sys["c"] @ belief.cov @ sys["c"].T + sys["r"], atol=1e-10
    )
    assert_allclose(m.s_xf[:, 0], 0.0, atol=1e-12)
    assert_allclose(m.s_xf[:, 1:], belief.cov @ sys["c"].T, atol=1e-10)


def test_gf_update_matches_kalman_update():
    rng = np.random.default_rng(22)
    for _ in range(20):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 3))
        sys = random_linear_system(rng, dx, dy)
        model = linear_ssm(sys)
        belief = GaussianBelief(rng.standard_normal(dx), random_spd(rng, dx))
        y = rng.standard_normal(dy)
        m = joint_moments(belief, model, make_affine_feature(dy), sigma_point())
        post = gf_update(m, y)
        # reference: condition the exact joint Gaussian directly
        s_yy = sys["c"] @ belief.cov @ sys["c"].T + sys["r"]
        gain = np.linalg.solve(s_yy, sys["c"] @ belief.cov).T
        ref_mean = belief.mean + gain @ (y - sys["c"] @ belief.mean - sys["d"])
        ref_cov = belief.cov - gain @ s_yy @ gain.T
        assert_allclose(post.mean, ref_mean, atol=1e-8)
        assert_allclose(post.cov, ref_cov, atol=1e-8)


@pytest.mark.parametrize("make", [make_noise_magnitude_model, make_heaviside_model])
@pytest.mark.parametrize("order", [2, 3])
def test_gf_update_on_the_virtual_measurement_is_the_fgf_update(make, order):
    # The FGF is the GF on the virtual measurement phi(y)[1:]. The two
    # sides are independent computations from the same moments: a Schur
    # complement in central moments against a raw-moment regression.
    # Monte Carlo, since a sigma-point set can leave the cubic Gram
    # nearly interpolating its points.
    model, prior = make()
    feat = make_monomial_feature(1, order)
    m = joint_moments(prior, model, feat, monte_carlo(5000, seed=1))
    params = fgf_solve(m)
    for y in np.linspace(-20.0, 60.0, 41):
        via_gf = gf_update(m, feat.map(np.array([y]))[1:])
        via_fgf = fgf_update(params, feat, [y])
        assert_allclose(via_gf.mean, via_fgf.mean, rtol=1e-10, atol=0.0)
        assert_allclose(via_gf.cov, via_fgf.cov, rtol=1e-10, atol=0.0)


def test_joint_moments_reject_moments_without_a_constant_entry():
    # Monomial moments of any order keep the constant entry, mean 1 and
    # no variance; these do not, so neither gf_update nor fgf_solve
    # ever reads them.
    for mu_f, s_ff in ((np.zeros(2), np.diag([0.0, 1.0])), (np.array([1.0, 0.0]), np.eye(2))):
        with pytest.raises(ValueError, match="not the constant 1"):
            JointMoments(
                mu_x=np.zeros(1), mu_f=mu_f, s_xx=np.eye(1), s_ff=s_ff, s_xf=np.zeros((1, 2))
            )


def test_gf_update_validates_measurement():
    model, prior = make_noise_magnitude_model()
    m = joint_moments(prior, model, make_affine_feature(1), sigma_point())
    with pytest.raises(ValueError):
        gf_update(m, np.zeros(2))
    with pytest.raises(ValueError):
        gf_update(m, np.array([np.nan]))


def test_fgf_equals_gf_for_affine_feature():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 3))
        m = random_affine_moments(rng, dx, dy)
        y = m.mu_f[1:] + rng.standard_normal(dy)
        params = fgf_solve(m)
        via_fgf = fgf_update(params, make_affine_feature(dy), y)
        via_gf = gf_update(m, y)
        assert_allclose(via_fgf.mean, via_gf.mean, atol=1e-9)
        assert_allclose(via_fgf.cov, via_gf.cov, atol=1e-9)


def test_fgf_solve_matches_direct_least_squares():
    # Moments of an explicit discrete (x, y) distribution: the fitted
    # gamma must solve the raw-moment normal equations and sigma must be
    # the mean squared residual, both computable directly.
    rng = np.random.default_rng(24)
    xs = rng.standard_normal(400)
    ys = 0.5 * xs**2 + 0.1 * rng.standard_normal(400)
    feat = make_monomial_feature(1, 2)
    phis = feat.map(ys[:, None])
    m = JointMoments(
        mu_x=np.array([xs.mean()]),
        mu_f=phis.mean(axis=0),
        s_xx=np.atleast_2d(np.cov(xs, bias=True)),
        s_ff=np.cov(phis.T, bias=True),
        s_xf=((xs - xs.mean())[:, None] * (phis - phis.mean(axis=0))).mean(axis=0)[None, :],
    )
    params = fgf_solve(m)
    gamma_ref = np.linalg.solve(phis.T @ phis / 400.0, phis.T @ xs / 400.0)
    assert_allclose(params.gamma[0], gamma_ref, atol=1e-8)
    resid = xs - phis @ gamma_ref
    assert_allclose(params.sigma[0, 0], np.mean(resid**2), atol=1e-8)


@pytest.mark.parametrize("dx", [1, 2])
def test_fgf_solve_hands_over_its_screened_fit(monkeypatch, dx):
    # The clip and the finite screen of gamma are the fit's one screen:
    # fgf_solve builds no GaussianBelief, and hands out read-only arrays.
    m = random_affine_moments(np.random.default_rng(dx), dx, 1)
    calls = []
    screen = GaussianBelief.__post_init__
    monkeypatch.setattr(
        GaussianBelief, "__post_init__", lambda self: calls.append(self) or screen(self)
    )
    params = fgf_solve(m)
    assert not calls
    assert not params.gamma.flags.writeable and not params.sigma.flags.writeable
    assert np.array_equal(params.sigma, params.sigma.T)
    GaussianBelief(np.zeros(1), np.eye(1))
    assert len(calls) == 1


def test_fgf_solve_reports_a_fit_it_cannot_screen():
    base = dict(
        mu_x=np.zeros(1), mu_f=np.array([1.0, 0.0]), s_xx=np.eye(1), s_ff=np.diag([0.0, 1.0])
    )
    # Both fits: the regression and the conditioning of the joint Gaussian.
    for fit in (fgf_solve, lambda m: gf_update(m, np.zeros(1))):
        # Cross moments that no joint distribution has leave a negative residual.
        with pytest.raises(NumericsError, match="variance -99.0 is negative beyond tolerance"):
            fit(JointMoments(**base, s_xf=np.array([[0.0, 10.0]])))
        # A cross moment near the largest float overflows the fit.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match="non-finite"):
                fit(JointMoments(**base, s_xf=np.array([[0.0, 1e308]])))


def test_fgf_solve_names_a_raw_moment_overflow():
    # Finite, screened central moments whose raw Gram s_ff + mu_f mu_f^T
    # overflows: the fit says so, and numpy's overflow warning stays inside.
    m = JointMoments(
        mu_x=[0.0], mu_f=[1.0, 1e200], s_xx=[[1.0]], s_ff=np.diag([0.0, 1.0]), s_xf=[[0.0, 0.0]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="raw second moments overflow"):
            fgf_solve(m)
    # Conditioning the central moments needs no raw ones.
    post = gf_update(m, [1e200])
    assert post.mean[0] == 0.0 and post.cov[0, 0] == 1.0


def test_fgf_update_checks_feature_dimension():
    params = FgfPosteriorParams(gamma=np.ones((1, 3)), sigma=np.eye(1))
    with pytest.raises(ValueError):
        fgf_update(params, make_affine_feature(1), np.zeros(1))
    with pytest.raises(ValueError):
        fgf_update(params, make_monomial_feature(1, 2), np.array([np.inf]))
    huge = FgfPosteriorParams(gamma=np.array([[1e308, 1e308]]), sigma=np.eye(1))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError, match="non-finite mean"):
            fgf_update(huge, make_affine_feature(1), [10.0])


def test_feature_must_keep_constant_entry():
    bad = FeatureFunction(name="bad", out_dim=2, map=lambda y: np.concatenate(
        [y, y], axis=-1))
    model, prior = make_noise_magnitude_model()
    with pytest.raises(ValueError):
        joint_moments(prior, model, bad, sigma_point())


def test_run_filter_matches_kalman():
    rng = np.random.default_rng(25)
    for dx, dy in ((1, 1), (2, 2)):
        sys = random_linear_system(rng, dx, dy)
        model = linear_ssm(sys)
        prior = GaussianBelief(np.zeros(dx), np.eye(dx))
        _, meas = simulate(model, np.zeros(dx), 50, seed=int(rng.integers(1 << 16)))
        posts = run_filter(model, prior, make_affine_feature(dy), sigma_point(), meas)
        ref = kalman_filter(sys, prior.mean, prior.cov, meas)
        for got, (ref_mean, ref_cov) in zip(posts, ref):
            assert_allclose(got.mean, ref_mean, atol=1e-8)
            assert_allclose(got.cov, ref_cov, atol=1e-8)


def test_feature_output_shape_is_checked():
    short = FeatureFunction(name="short", out_dim=3, map=make_affine_feature(1).map)
    model, prior = make_noise_magnitude_model()
    with pytest.raises(ValueError, match="'short' returned shape"):
        joint_moments(prior, model, short, sigma_point())


def test_observation_map_shape_is_checked():
    model = StateSpaceModel(
        1, 1, 1, 1, lambda x, v: x + v, lambda x, w: np.hstack([x, w]), name="wide"
    )
    feat = make_affine_feature(1)
    with pytest.raises(ValueError, match="observation map returned shape"):
        run_filter(model, GaussianBelief(0.0, 1.0), feat, sigma_point(), np.zeros(3))


def test_run_filter_accepts_flat_measurements():
    model, prior = make_noise_magnitude_model()
    engine = monte_carlo(sample_count=500, seed=0)
    feat = make_monomial_feature(1, 2)
    ys = np.array([0.5, -1.0, 3.0])
    flat = run_filter(model, prior, feat, engine, ys)
    shaped = run_filter(model, prior, feat, engine, ys[:, None])
    for a, b in zip(flat, shaped):
        assert_allclose(a.mean, b.mean)
        assert_allclose(a.cov, b.cov)


def test_run_filter_edge_cases():
    model, prior = make_noise_magnitude_model()
    feat = make_affine_feature(1)
    assert run_filter(model, prior, feat, sigma_point(), []) == []
    with pytest.raises(ValueError):
        run_filter(model, prior, feat, sigma_point(), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        run_filter(model, prior, feat, sigma_point(), np.array([1.0, np.nan]))


def test_standardization_does_not_change_the_answer():
    # Monomial features span the same space after an affine input change,
    # so the fitted posterior agrees up to conditioning-level roundoff.
    model, prior = make_noise_magnitude_model()
    engine = monte_carlo(sample_count=2_000, seed=8)
    feat = make_monomial_feature(1, 2)
    _, meas = simulate(model, np.array([5.0]), 25, seed=8)
    raw = run_filter(model, prior, feat, engine, meas, standardize=False)
    std = run_filter(model, prior, feat, engine, meas, standardize=True)
    for a, b in zip(raw, std):
        assert_allclose(a.mean, b.mean, rtol=1e-6, atol=1e-8)
        assert_allclose(a.cov, b.cov, rtol=1e-5, atol=1e-8)


def test_zero_innovation_keeps_predicted_mean():
    rng = np.random.default_rng(26)
    sys = random_linear_system(rng, 2, 1)
    model = linear_ssm(sys)
    prior = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
    predicted = predict(prior, model, sigma_point())
    mu_y = sys["c"] @ predicted.mean + sys["d"]
    m = joint_moments(predicted, model, make_affine_feature(1), sigma_point())
    post = gf_update(m, mu_y)
    assert_allclose(post.mean, predicted.mean, atol=1e-9)
    # conditioning never inflates the covariance
    assert np.trace(post.cov) < np.trace(predicted.cov) + 1e-12


def test_run_filter_reports_failing_step():
    model = StateSpaceModel(
        state_dim=1,
        meas_dim=1,
        process_noise_dim=1,
        obs_noise_dim=1,
        process=lambda x, v: x + 1.0,
        observe=lambda x, w: np.where(x > 2.5, np.inf, x + w),
        name="toy",
    )
    prior = GaussianBelief(np.zeros(1), np.array([[0.01]]))
    ys = np.zeros(10)
    with pytest.raises(NumericsError) as exc:
        run_filter(model, prior, make_affine_feature(1), sigma_point(), ys)
    assert exc.value.step == 2
    assert "step 2" in str(exc.value)


@pytest.mark.parametrize("declared", [True, False])
def test_run_filter_hands_out_the_pass_posteriors_unscreened(monkeypatch, declared):
    # The pass screens every posterior once; run_filter wraps them as they
    # are, read-only and exactly symmetric, without a GaussianBelief screen.
    model = linear_ssm(random_linear_system(np.random.default_rng(11), 3, 2))
    model = model if declared else undeclared(model)
    _, meas = simulate(model, np.zeros(3), steps=30, seed=11)
    prior = GaussianBelief(np.zeros(3), np.eye(3))
    feature = make_affine_feature(2)
    lanes = run_filter_lanes(model, prior, [feature], sigma_point(), meas)
    calls = []
    screen = GaussianBelief.__post_init__
    monkeypatch.setattr(
        GaussianBelief, "__post_init__", lambda self: calls.append(self) or screen(self)
    )
    posts = run_filter(model, prior, feature, sigma_point(), meas)
    assert not calls
    assert np.array_equal([b.mean for b in posts], lanes.means[0])
    assert np.array_equal([b.cov for b in posts], lanes.covs[0])
    for belief in posts:
        assert not belief.mean.flags.writeable and not belief.cov.flags.writeable
        assert np.array_equal(belief.cov, belief.cov.T)
    GaussianBelief(np.zeros(1), np.eye(1))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "maker, orders, standardize",
    [(make_heaviside_model, (1, 3), True), (make_noise_magnitude_model, (1, 2), False)],
)
def test_lanes_match_solo_runs(maker, orders, standardize):
    model, prior = maker()
    engine = monte_carlo(sample_count=800, seed=4)
    _, meas = simulate(model, prior.mean, 40, seed=4)
    features = [make_monomial_feature(1, order) for order in orders]
    lanes = run_filter_lanes(model, prior, features, engine, meas, standardize=standardize)
    assert lanes.means.shape == (2, 40, 1) and lanes.covs.shape == (2, 40, 1, 1)
    assert lanes.diverged_at == (None, None)
    for lane, feature in enumerate(features):
        solo = run_filter(model, prior, feature, engine, meas, standardize=standardize)
        assert_allclose(lanes.means[lane], [b.mean for b in solo], rtol=1e-12, atol=0)
        assert_allclose(lanes.covs[lane], [b.cov for b in solo], rtol=1e-12, atol=0)


def test_failing_lane_is_contained():
    # The second lane's feature is the quadratic one, except that it
    # turns non-finite at one observed measurement; sampled measurements
    # never hit that value, so the lane breaks at exactly that step.
    model, prior = make_noise_magnitude_model()
    engine = monte_carlo(sample_count=800, seed=5)
    _, meas = simulate(model, prior.mean, 30, seed=5)
    base = make_monomial_feature(1, 2)
    bad_step = 17
    poisoned = FeatureFunction(
        name="poisoned",
        out_dim=base.out_dim,
        map=lambda y: np.where(y == meas[bad_step], np.nan, base.map(y)),
    )
    affine = make_affine_feature(1)
    lanes = run_filter_lanes(model, prior, [affine, poisoned], engine, meas)
    assert lanes.diverged_at == (None, bad_step)
    assert lanes.errors[0] is None
    assert isinstance(lanes.errors[1], NumericsError)
    assert f"step {bad_step}" in str(lanes.errors[1])
    assert np.all(np.isnan(lanes.means[1, bad_step:]))

    solo_affine = run_filter(model, prior, affine, engine, meas)
    assert np.all(np.isfinite(lanes.means[0])) and np.all(np.isfinite(lanes.covs[0]))
    assert_allclose(lanes.means[0], [b.mean for b in solo_affine], rtol=1e-12, atol=0)
    assert_allclose(lanes.covs[0], [b.cov for b in solo_affine], rtol=1e-12, atol=0)
    solo_base = run_filter(model, prior, base, engine, meas[:bad_step])
    assert_allclose(lanes.means[1, :bad_step], [b.mean for b in solo_base], rtol=1e-12, atol=0)
    with pytest.raises(NumericsError) as exc:
        run_filter(model, prior, poisoned, engine, meas)
    assert exc.value.step == bad_step


def test_failing_lane_in_a_seed_block_is_contained():
    # A block of three seeds, each with its own measurements and point
    # set, filtered as six lanes of one pass. The cubic feature turns
    # non-finite at one measurement that only seed 1 observes, so only
    # that lane breaks, at that step; every other lane matches its solo
    # run bit for bit.
    model, prior = make_noise_magnitude_model()
    engines = [monte_carlo(sample_count=600, seed=s) for s in range(3)]
    meas = np.stack([simulate(model, prior.mean, 25, seed=s)[1] for s in range(3)])
    base = make_monomial_feature(1, 3)
    bad_seed, bad_step = 1, 13
    poisoned = FeatureFunction(
        name="poisoned",
        out_dim=base.out_dim,
        map=lambda y: np.where(y == meas[bad_seed, bad_step], np.nan, base.map(y)),
    )
    affine = make_affine_feature(1)
    block = fgfilter.filters._filter_pass(
        model, prior, (affine, poisoned), engines, meas, False
    )
    assert [lanes.diverged_at for lanes in block] == [(None, None), (None, bad_step), (None, None)]
    err = block[bad_seed].errors[1]
    assert isinstance(err, NumericsError) and err.step == bad_step
    assert f"step {bad_step}" in str(err)
    assert np.all(np.isnan(block[bad_seed].means[1, bad_step:]))
    for s, lanes in enumerate(block):
        for lane, feature in enumerate((affine, base)):
            n = bad_step if (s, lane) == (bad_seed, 1) else 25
            solo = run_filter(model, prior, feature, engines[s], meas[s, :n])
            assert np.array_equal(lanes.means[lane, :n], [b.mean for b in solo])
            assert np.array_equal(lanes.covs[lane, :n], [b.cov for b in solo])


def test_block_mixing_point_counts_equals_each_solo_run():
    # Seeds drawing 300 and 700 points alternate in one block; each
    # (feature width, point count) has its own workspace, shared by the
    # seeds with that count, so every seed matches its solo pass bit for
    # bit, standardized inputs included.
    model, prior = make_heaviside_model()
    features = (make_affine_feature(1), make_monomial_feature(1, 2), make_monomial_feature(1, 3))
    engines = [monte_carlo(sample_count=(300, 700)[s % 2], seed=s) for s in range(4)]
    meas = np.stack([simulate(model, prior.mean, 30, seed=s)[1] for s in range(4)])
    block = fgfilter.filters._filter_pass(model, prior, features, engines, meas, True)
    for s, lanes in enumerate(block):
        solo = run_filter_lanes(model, prior, features, engines[s], meas[s], standardize=True)
        assert lanes.diverged_at == solo.diverged_at == (None, None, None)
        assert np.array_equal(lanes.means, solo.means)
        assert np.array_equal(lanes.covs, solo.covs)


def test_failed_lane_is_parked_at_the_prior():
    # A three-seed block on a 2-state model predicted through its points,
    # so the dead lane rides along in the stacked eigh, the placement and
    # the observation map after it fails. Its belief is parked at the
    # prior, so the model never sees a non-finite state, and every other
    # lane matches its solo run bit for bit.
    model = undeclared(linear_ssm(random_linear_system(np.random.default_rng(3), 2, 1)))
    prior = GaussianBelief(np.zeros(2), np.eye(2))

    def observe(x, w):
        if not np.isfinite(x).all():
            raise ValueError("observe got a non-finite state")
        return model.observe(x, w)

    guarded = dataclasses.replace(model, observe=observe)
    engines = [monte_carlo(sample_count=400, seed=s) for s in range(3)]
    meas = np.stack([simulate(model, prior.mean, 25, seed=s)[1] for s in range(3)])
    base = make_monomial_feature(1, 2)
    bad_seed, bad_step = 1, 9
    poisoned = FeatureFunction(
        name="poisoned",
        out_dim=base.out_dim,
        map=lambda y: np.where(y == meas[bad_seed, bad_step], np.nan, base.map(y)),
    )
    affine = make_affine_feature(1)
    block = fgfilter.filters._filter_pass(
        guarded, prior, (affine, poisoned), engines, meas, False
    )
    assert [lanes.diverged_at for lanes in block] == [(None, None), (None, bad_step), (None, None)]
    assert np.all(np.isnan(block[bad_seed].means[1, bad_step:]))
    assert np.all(np.isnan(block[bad_seed].covs[1, bad_step:]))
    for s, lanes in enumerate(block):
        for lane, feature in enumerate((affine, base)):
            n = bad_step if (s, lane) == (bad_seed, 1) else 25
            solo = run_filter(guarded, prior, feature, engines[s], meas[s, :n])
            assert np.array_equal(lanes.means[lane, :n], [b.mean for b in solo])
            assert np.array_equal(lanes.covs[lane, :n], [b.cov for b in solo])


@pytest.mark.parametrize("dx", [1, 2])
def test_non_finite_fit_is_reported_as_non_finite(dx):
    # Near 1e160 the raw second moment E[x^2] overflows while the
    # standardized feature moments stay finite, so the fit's residual
    # covariance turns NaN at the first step.
    model = linear_ssm(random_linear_system(np.random.default_rng(dx), dx, 1))
    prior = GaussianBelief(np.full(dx, 1e160), np.eye(dx))
    lanes = run_filter_lanes(
        model, prior, [make_monomial_feature(1, 2)], sigma_point(), np.zeros((3, 1)),
        standardize=True,
    )
    assert lanes.diverged_at == (0,)
    message = str(lanes.errors[0])
    assert "non-finite" in message and "cannot be made PSD" in message


def _raise_beyond(fn, limit):
    # fn, except that it raises NumericsError once any state lies beyond limit.
    def guarded(x, u):
        if np.abs(x).max() > limit:
            raise NumericsError(f"a state lies beyond {limit}")
        return fn(x, u)

    return guarded


def _inf_beyond(fn, limit):
    # fn, except that it returns inf for every state beyond limit.
    def guarded(x, u):
        return np.where(np.abs(x) > limit, np.inf, fn(x, u))

    return guarded


def _assert_block_matches_solo(model, prior, features, engines, meas, failing, message):
    # Filter a block of seeds in one pass. The lanes named in failing,
    # {(seed, lane): step}, record that step and message and hold NaN
    # from it on; every lane equals its solo run bit for bit before it.
    block = fgfilter.filters._filter_pass(model, prior, features, engines, meas, False)
    for s, lanes in enumerate(block):
        for lane, feature in enumerate(features):
            n = failing.get((s, lane), meas.shape[1])
            err = lanes.errors[lane]
            if (s, lane) in failing:
                assert isinstance(err, NumericsError) and err.step == n
                assert f"step {n}" in str(err) and message in str(err)
                assert np.all(np.isnan(lanes.means[lane, n:]))
                assert np.all(np.isnan(lanes.covs[lane, n:]))
            else:
                assert err is None
            if n:
                solo = run_filter(model, prior, feature, engines[s], meas[s, :n])
                assert np.array_equal(lanes.means[lane, :n], [b.mean for b in solo])
                assert np.array_equal(lanes.covs[lane, :n], [b.cov for b in solo])
    return block


@pytest.mark.parametrize("site", ["prediction", "observation", "covariance"])
def test_each_failure_site_stays_in_its_lanes(site):
    # Heaviside seed 0 wanders furthest from the origin, so only its
    # beliefs reach |x| > 10: a process or observation map that raises
    # there stops both of its lanes, at the step its points first get
    # that far, and a process map that returns inf there stops only the
    # lane whose predicted covariance turns non-finite. After a raising
    # prediction, seed 0 has no lane left and keeps its parked beliefs.
    heaviside, prior = make_heaviside_model()
    twin = undeclared(heaviside)
    model, failing, message = {
        "prediction": (
            dataclasses.replace(twin, process=_raise_beyond(twin.process, 10.0)),
            {(0, 0): 21, (0, 1): 21},
            "a state lies beyond 10.0",
        ),
        "observation": (
            dataclasses.replace(heaviside, observe=_raise_beyond(heaviside.observe, 10.0)),
            {(0, 0): 17, (0, 1): 17},
            "a state lies beyond 10.0",
        ),
        "covariance": (
            dataclasses.replace(twin, process=_inf_beyond(twin.process, 10.0)),
            {(0, 0): 21},
            "predicted covariance is non-finite or indefinite",
        ),
    }[site]
    engines = [monte_carlo(sample_count=300, seed=s) for s in range(3)]
    meas = np.stack([simulate(heaviside, prior.mean, 30, seed=s)[1] for s in range(3)])
    features = (make_affine_feature(1), make_monomial_feature(1, 2))
    block = _assert_block_matches_solo(model, prior, features, engines, meas, failing, message)
    if site != "covariance":
        assert isinstance(block[0].errors[0].__cause__, NumericsError)


def test_rank_deficient_gram_fails_only_its_lane():
    # At kappa = -1.5 the sigma-point centre weight is -3, so the quadratic
    # feature's Gram matrix is indefinite beyond the jitter budget at the
    # first step; the affine lanes run on.
    model, prior = make_noise_magnitude_model()
    engines = [sigma_point(kappa=-1.5)] * 2
    meas = np.stack([simulate(model, prior.mean, 20, seed=s)[1] for s in range(2)])
    features = (make_affine_feature(1), make_monomial_feature(1, 2))
    block = _assert_block_matches_solo(
        model, prior, features, engines, meas, {(0, 1): 0, (1, 1): 0},
        "feature Gram matrix is rank deficient",
    )
    for lanes in block:
        assert isinstance(lanes.errors[1].__cause__, NumericsError)


@pytest.mark.parametrize(
    "engine, order, accepted",
    [
        # kappa = 0 gives the centre point weight 0: four points carry weight.
        (sigma_point(), 3, False),
        (sigma_point(), 2, True),
        (sigma_point(1.0), 3, True),
        (monte_carlo(3, seed=0), 2, False),
        (monte_carlo(4, seed=0), 2, True),
    ],
)
def test_feature_needs_more_support_points_than_outputs(engine, order, accepted):
    model, prior = make_heaviside_model()
    features = [make_affine_feature(1), make_monomial_feature(1, order)]
    args = (model, prior, features, engine, np.zeros((2, 1)))
    if accepted:
        assert run_filter_lanes(*args).means.shape == (2, 2, 1)
        return
    with pytest.raises(ValueError, match=f"{engine.kind} engine has .* {order + 1} outputs"):
        run_filter_lanes(*args)


def test_lanes_share_one_model_pass_per_step(monkeypatch):
    # With standardization on, one step calls the observation map once
    # for all lanes together: the feature scale and the joint moments
    # share that call. The declared affine process is predicted in closed
    # form, with no process call and no process point set; its undeclared
    # twin calls the process map once per step for all lanes.
    model, prior = make_heaviside_model()
    calls = {"process": 0, "observe": 0, "point_sets": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        "fgfilter.filters._unit_points",
        counting("point_sets", fgfilter.filters._unit_points),
    )
    counted = dataclasses.replace(
        model,
        process=counting("process", model.process),
        observe=counting("observe", model.observe),
    )
    _, meas = simulate(model, prior.mean, 12, seed=6)
    features = [make_monomial_feature(1, order) for order in (1, 2, 3)]
    engine = monte_carlo(sample_count=500, seed=6)
    for declared, expected in (
        (counted, {"process": 0, "observe": 12, "point_sets": 1}),
        (undeclared(counted), {"process": 12, "observe": 12, "point_sets": 2}),
    ):
        calls.update(process=0, observe=0, point_sets=0)
        lanes = run_filter_lanes(declared, prior, features, engine, meas, standardize=True)
        assert lanes.diverged_at == (None, None, None)
        assert calls == expected
        calls.update(process=0, observe=0, point_sets=0)
        run_filter(declared, prior, features[2], engine, meas, standardize=True)
        assert calls == expected


def _affine_cases():
    # (model, prior, feature orders) with a declared affine process: the two
    # built-in models and linear systems of state dimension 1 to 3.
    rng = np.random.default_rng(27)
    noise, noise_prior = make_noise_magnitude_model()
    heavi, heavi_prior = make_heaviside_model()
    cases = [
        (noise, noise_prior, (1, 2)),
        (heavi, heavi_prior, (1,)),
    ]
    for dx, dy in ((1, 1), (2, 1), (3, 2)):
        model = linear_ssm(random_linear_system(rng, dx, dy))
        prior = GaussianBelief(rng.standard_normal(dx), random_spd(rng, dx))
        cases.append((model, prior, (1,)))
    return cases


@pytest.mark.parametrize("case", range(5))
def test_declared_and_point_predictions_agree(case):
    # Sigma points are exact for affine maps, so the point path and the
    # closed form agree up to roundoff, step after step.
    model, prior, orders = _affine_cases()[case]
    twin = undeclared(model)
    assert model.affine_process is not None and twin.affine_process is None
    for belief in (prior, predict(prior, model, sigma_point())):
        exact = predict(belief, model, sigma_point())
        points = predict(belief, twin, sigma_point())
        assert_allclose(exact.mean, points.mean, rtol=1e-12, atol=0)
        assert_allclose(exact.cov, points.cov, rtol=1e-12, atol=0)
    _, meas = simulate(model, prior.mean, 40, seed=case)
    for order in orders:
        feature = make_monomial_feature(model.meas_dim, order)
        exact = run_filter(model, prior, feature, sigma_point(), meas)
        points = run_filter(twin, prior, feature, sigma_point(), meas)
        assert_allclose([b.mean for b in exact], [b.mean for b in points], rtol=1e-12, atol=0)
        assert_allclose([b.cov for b in exact], [b.cov for b in points], rtol=1e-12, atol=0)


def test_point_path_matches_kalman():
    # Criterion 1's system and tolerances, on the undeclared twin, so the
    # point-based prediction stays checked against the Kalman filter.
    rng = np.random.default_rng(11)
    sys = random_linear_system(rng, 3, 2)
    model = undeclared(linear_ssm(sys))
    _, meas = simulate(model, np.zeros(3), steps=100, seed=11)
    prior = GaussianBelief(np.zeros(3), np.eye(3))
    posts = run_filter(model, prior, make_affine_feature(2), sigma_point(), meas)
    for got, (kf_mean, kf_cov) in zip(posts, kalman_filter(sys, np.zeros(3), np.eye(3), meas)):
        assert np.max(np.abs(got.mean - kf_mean)) < 1e-6
        assert np.max(np.abs(got.cov - kf_cov)) < 1e-5 * np.max(np.abs(kf_cov))


def test_run_filter_lanes_validation():
    model, prior = make_noise_magnitude_model()
    engine = sigma_point()
    with pytest.raises(ValueError):
        run_filter_lanes(model, prior, [], engine, np.zeros(3))
    with pytest.raises(ValueError):
        run_filter_lanes(model, GaussianBelief(np.zeros(2), np.eye(2)),
                         [make_affine_feature(1)], engine, np.zeros(3))
    empty = run_filter_lanes(model, prior, [make_affine_feature(1)], engine, [])
    assert empty.means.shape == (1, 0, 1) and empty.diverged_at == (None,)

"""Tests for the expectation engines.

Sigma points must be exact on polynomials of total degree two and
deterministic; the Gauss-Hermite rule must be exact on the noise model's
moments; Monte Carlo must be reproducible from the seed with the
familiar 1/sqrt(n) error decay. Every engine's point set carries
explicit weights, and the filter's weighted moment kernels reproduce the
plain Monte Carlo averages. The expected-likelihood-weight helper is
checked against its closed form.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgfilter import (
    ExpectationEngine,
    GaussianBelief,
    NumericsError,
    expect,
    expected_likelihood_weight,
    fgf_solve,
    gauss_hermite,
    gaussian_moment_oracle,
    joint_moments,
    make_affine_feature,
    make_noise_magnitude_model,
    monte_carlo,
    sample_points,
    sigma_point,
)
from fgfilter._linalg import _psd_roots, _weighted_qr
from fgfilter.filters import _moments
from fgfilter.quadrature import _place, _unit_points
from helpers import random_spd


def test_engine_validation():
    with pytest.raises(ValueError):
        ExpectationEngine("cubature")
    with pytest.raises(ValueError):
        ExpectationEngine("monte_carlo", sample_count=1)
    with pytest.raises(ValueError):
        ExpectationEngine("sigma_point", kappa=np.nan)
    with pytest.raises(ValueError, match="nodes must be at least 2, got 1"):
        gauss_hermite(1)
    assert monte_carlo().kind == "monte_carlo"
    assert sigma_point().kappa == 0.0
    assert gauss_hermite() == ExpectationEngine("gauss_hermite", nodes=3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"sample_count": 1000.0}, "sample_count must be an integer, got 1000.0"),
        ({"sample_count": 2.5}, "sample_count must be an integer, got 2.5"),
        ({"sample_count": True}, "sample_count must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
        ({"nodes": 2.5}, "nodes must be an integer, got 2.5"),
        ({"nodes": True}, "nodes must be an integer, got True"),
    ],
)
@pytest.mark.parametrize("kind", ["monte_carlo", "sigma_point", "gauss_hermite"])
def test_engine_rejects_non_integer_counts_and_seeds(kind, kwargs, message):
    # Caught at construction, not later inside a filter pass.
    with pytest.raises(ValueError, match=message):
        ExpectationEngine(kind, **kwargs)


def test_engine_takes_numpy_integers():
    engine = ExpectationEngine("monte_carlo", sample_count=np.int64(64), seed=np.int32(3))
    assert np.array_equal(_unit_points(engine, 1, 1).weights, np.full(64, 1.0 / 64))


def test_sigma_point_layout_and_weights():
    belief = GaussianBelief(np.array([1.0, -2.0]), np.diag([4.0, 1.0]))
    states, noises, weights = sample_points(sigma_point(kappa=2.0), belief, 1)
    d = 3
    assert states.shape == (2 * d + 1, 2)
    assert noises.shape == (2 * d + 1, 1)
    assert_allclose(weights.sum(), 1.0)
    assert_allclose(weights[0], 2.0 / (d + 2.0))
    # center point sits at the mean with zero noise
    assert_allclose(states[0], belief.mean)
    assert_allclose(noises[0], 0.0)
    # state displacements come first and mirror about the mean, then the
    # noise axes, which leave the state at the mean
    assert_allclose(states[1:3] + states[3:5], np.tile(2.0 * belief.mean, (2, 1)))
    assert_allclose(noises[1:5], 0.0)
    assert_allclose(states[5:7], np.tile(belief.mean, (2, 1)))
    assert_allclose(noises[5] + noises[6], 0.0)


def test_gauss_hermite_layout_and_weights():
    # The product grid over (x, u), the last axis varying fastest, with
    # the normalized probabilists' weights of each axis multiplied.
    points = _unit_points(gauss_hermite(3), 1, 1)
    root3 = np.sqrt(3.0)
    assert_allclose(points.offsets, [np.repeat([-root3, 0.0, root3], 3)], rtol=1e-15)
    assert_allclose(points.noises[:, 0], np.tile([-root3, 0.0, root3], 3), rtol=1e-15)
    axis = np.array([1.0, 4.0, 1.0]) / 6.0
    assert_allclose(points.weights, np.outer(axis, axis).ravel(), rtol=1e-14)
    assert points.offsets.flags.c_contiguous
    assert _unit_points(gauss_hermite(4), 2, 1).weights.shape == (64,)


@pytest.mark.parametrize("mean, var", [(5.0, 1.0), (3.2, 0.4)])
def test_gauss_hermite_is_exact_on_the_noise_model(mean, var):
    # y = M w. Every entry of E[z z^T], z = (M, 1, y, y^2), is E[M^a] E[w^b]
    # with a, b <= 4, which three nodes per axis integrate exactly.
    model, _ = make_noise_magnitude_model()
    belief = GaussianBelief(np.array([mean]), np.array([[var]]))
    powers = [(1, 0), (0, 0), (1, 1), (2, 2)]  # z_i = M^a w^b

    def outer(x, u):
        m, y = x[:, 0], x[:, 0] * u[:, 0]
        z = np.stack([m, np.ones_like(m), y, y * y], axis=1)
        return (z[:, :, None] * z[:, None, :]).reshape(len(m), -1)

    got = expect(gauss_hermite(3), belief, 1, outer).reshape(4, 4)
    exact = np.array(
        [
            [
                gaussian_moment_oracle(mean, var, a + c) * gaussian_moment_oracle(0.0, 1.0, b + d)
                for c, d in powers
            ]
            for a, b in powers
        ]
    )
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
    # So cov(M, y) is exactly zero: the GF's gain on y vanishes and the
    # affine lane holds its prior mean.
    params = fgf_solve(joint_moments(belief, model, make_affine_feature(1), gauss_hermite(3)))
    assert abs(params.gamma[0, 1]) <= 1e-12


def test_sigma_point_zero_kappa_drops_center():
    belief = GaussianBelief(np.zeros(1), np.eye(1))
    _, _, weights = sample_points(sigma_point(), belief, 1)
    assert weights[0] == 0.0
    assert_allclose(weights.sum(), 1.0)


def test_sigma_point_exact_first_two_moments():
    rng = np.random.default_rng(6)
    mean = rng.standard_normal(3)
    cov = random_spd(rng, 3)
    belief = GaussianBelief(mean, cov)
    engine = sigma_point()
    assert_allclose(expect(engine, belief, 2, lambda x, u: x), mean, atol=1e-12)

    def second(x, u):
        xc = x - mean
        return np.stack([xc[:, i] * xc[:, j] for i in range(3) for j in range(3)], axis=1)

    assert_allclose(
        expect(engine, belief, 2, second).reshape(3, 3), cov, atol=1e-12
    )
    # noise axes: zero mean, unit variance, uncorrelated with the state
    assert_allclose(expect(engine, belief, 2, lambda x, u: u), 0.0, atol=1e-14)
    assert_allclose(expect(engine, belief, 2, lambda x, u: u * u), 1.0, atol=1e-12)
    assert_allclose(
        expect(engine, belief, 2, lambda x, u: (x - mean) * u[:, :1]), 0.0, atol=1e-12
    )


def test_sigma_point_exact_degree_two_polynomial():
    belief = GaussianBelief(np.array([0.7]), np.array([[2.0]]))
    engine = sigma_point(kappa=1.0)
    # E[(x + u)^2] = var(x) + mean(x)^2 + 1 for independent unit noise u
    got = expect(engine, belief, 1, lambda x, u: (x[:, 0] + u[:, 0]) ** 2)[0]
    assert_allclose(got, 2.0 + 0.49 + 1.0, atol=1e-12)


def test_sigma_point_kappa_bound():
    belief = GaussianBelief(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        sample_points(sigma_point(kappa=-2.0), belief, 1)


def test_monte_carlo_reproducible():
    belief = GaussianBelief(np.array([1.0, 0.0]), np.diag([2.0, 0.5]))
    engine = monte_carlo(sample_count=64, seed=9)
    s1, n1, w1 = sample_points(engine, belief, 2)
    s2, n2, w2 = sample_points(engine, belief, 2)
    assert np.array_equal(s1, s2)
    assert np.array_equal(n1, n2)
    assert_allclose(w1, 1.0 / 64)
    s3, _, _ = sample_points(monte_carlo(sample_count=64, seed=10), belief, 2)
    assert not np.array_equal(s1, s3)


def test_point_sets_have_explicit_read_only_weights():
    engines = (monte_carlo(sample_count=128, seed=0), sigma_point(), sigma_point(2.0), gauss_hermite())
    for engine in engines:
        for dx, noise_dim in ((1, 0), (1, 1), (2, 1), (3, 2)):
            points = _unit_points(engine, dx, noise_dim)
            n = points.weights.shape[0]
            assert points.offsets.shape == (dx, n)
            assert points.noises.shape == (n, noise_dim)
            assert_allclose(points.weights.sum(), 1.0, rtol=1e-14)
            for arr in (points.offsets, points.noises, points.weights):
                assert not arr.flags.writeable
            if engine.kind == "monte_carlo":
                assert np.array_equal(points.weights, np.full(128, 1.0 / 128))
    belief = GaussianBelief(np.zeros(1), np.eye(1))
    _, noises, weights = sample_points(monte_carlo(sample_count=128, seed=0), belief, 1)
    assert not noises.flags.writeable
    assert not weights.flags.writeable


@pytest.mark.parametrize(
    "engine", [monte_carlo(sample_count=256, seed=3), sigma_point(1.0), gauss_hermite(4)]
)
def test_sample_points_place_states_like_the_filter(engine):
    # sample_points and the filter map offsets onto a belief with the
    # same kernel and the same root, so the states agree bit for bit.
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        belief = GaussianBelief(rng.standard_normal(d), random_spd(rng, d))
        states, _, _ = sample_points(engine, belief, 1)
        roots = _psd_roots(belief.cov[None])[0]
        placed = _place(_unit_points(engine, d, 1), belief.mean[None], roots)
        assert np.array_equal(states, placed[0].T)


def test_sample_points_reject_a_negative_noise_dim():
    with pytest.raises(ValueError, match="noise_dim must be at least 0, got -1"):
        sample_points(sigma_point(), GaussianBelief(0.0, 1.0), -1)


def test_weighted_moments_match_plain_monte_carlo_averages():
    # The reference formulas are the unweighted Monte Carlo averages
    # (sum / n and einsum / n) that the weighted kernels replace.
    rng = np.random.default_rng(4)
    points = _unit_points(monte_carlo(sample_count=5000, seed=4), 3, 2)
    n = points.weights.shape[0]
    means = rng.standard_normal((2, 3))
    roots = _psd_roots(np.stack([random_spd(rng, 3) for _ in range(2)]))[0]
    states = _place(points, means, roots)
    z = np.concatenate([states, np.broadcast_to(points.noises.T, (2, 2, n)) ** 2], axis=1)

    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    # The filter's fit factors the sqrt(w)-weighted points, features
    # first: R^T R are the raw moments of (feature, state).
    work = np.empty((5, n))
    for x, lane in zip(states, z):
        top, _ = _weighted_qr(lane[3:].T, x, np.sqrt(points.weights), work)
        r = np.triu(top)
        lane = np.concatenate([lane[3:], lane[:3]])
        close(r.T @ r, np.einsum("in,jn->ij", lane, lane) / n)
    mu, cov = _moments(z, points.weights)
    ref_mu = z.sum(axis=-1) / n
    zc = z - ref_mu[..., None]
    ref_cov = np.einsum("...in,...jn->...ij", zc, zc) / n
    close(mu, ref_mu)
    close(cov, 0.5 * (ref_cov + ref_cov.swapaxes(-1, -2)))


def test_monte_carlo_error_decay():
    # One fixed seed, so this is a deterministic regression check that
    # the estimator error sits inside the 4-sigma band at both sizes.
    belief = GaussianBelief(np.array([3.0]), np.array([[4.0]]))
    for n in (1_000, 100_000):
        engine = monte_carlo(sample_count=n, seed=5)
        got = expect(engine, belief, 1, lambda x, u: x)[0]
        assert abs(got - 3.0) < 4.0 * 2.0 / np.sqrt(n)


def test_expect_output_contract():
    belief = GaussianBelief(np.zeros(1), np.eye(1))
    engine = sigma_point()
    out = expect(engine, belief, 1, lambda x, u: np.ones(x.shape[0]))
    assert out.shape == (1,)
    assert_allclose(out[0], 1.0)
    with pytest.raises(ValueError):
        expect(engine, belief, 1, lambda x, u: np.ones(3))
    with pytest.raises(NumericsError) as exc:
        expect(engine, belief, 1, lambda x, u: np.full(x.shape[0], np.nan))
    assert "sample 0" in str(exc.value)


def test_expected_likelihood_weight_matches_closed_form():
    exact = (2.0 * np.sqrt(np.pi)) ** -1
    n = 200_000
    got = expected_likelihood_weight(1, monte_carlo(sample_count=n, seed=1))
    var = (2.0 * np.pi) ** -1 * 3.0 ** -0.5 - (4.0 * np.pi) ** -1
    assert abs(got - exact) < 4.0 * np.sqrt(var / n)


def test_expected_likelihood_weight_validation():
    with pytest.raises(ValueError):
        expected_likelihood_weight(0, monte_carlo())
    # the sigma-point value is deterministic and at least positive
    assert expected_likelihood_weight(1, sigma_point()) > 0.0

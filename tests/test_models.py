"""Tests for the model definitions, beliefs, and the trajectory simulator.

Covers belief validation, the two built-in models' maps and likelihoods
(including normalization), and simulate's determinism, distribution,
and failure reporting.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from fgfilter import (
    AffineProcess,
    GaussianBelief,
    NumericsError,
    StateSpaceModel,
    make_heaviside_model,
    make_noise_magnitude_model,
    simulate,
)


def test_belief_scalar_construction():
    b = GaussianBelief(np.array([2.0]), np.array([[4.0]]))
    assert b.state_dim == 1
    assert b.std[0] == 2.0
    assert not b.mean.flags.writeable
    assert not b.cov.flags.writeable


def test_belief_accepts_plain_scalars():
    b = GaussianBelief(5.0, 4.0)
    assert b.mean.shape == (1,)
    assert b.cov.shape == (1, 1)


def test_belief_symmetrizes_and_freezes():
    cov = np.array([[2.0, 0.3], [0.3 + 1e-14, 1.0]])
    b = GaussianBelief(np.zeros(2), cov)
    assert_allclose(b.cov, b.cov.T)
    with pytest.raises(ValueError):
        b.cov[0, 0] = 99.0
    # the input array is untouched
    assert cov[0, 1] == 0.3


def test_belief_rejects_bad_input():
    # Numbers in the messages print as plain floats, never np.float64(...).
    with pytest.raises(NumericsError) as exc:
        GaussianBelief(np.array([1.0]), np.array([[-0.5]]))
    assert "negative variance -0.5" in str(exc.value)
    assert "np.float64" not in str(exc.value)
    with pytest.raises(NumericsError):
        GaussianBelief(np.array([np.nan]), np.array([[1.0]]))
    with pytest.raises(NumericsError) as exc:
        GaussianBelief(np.zeros(2), np.diag([1.0, -1.0]))
    assert "eigenvalue -1.0" in str(exc.value)
    assert "np.float64" not in str(exc.value)
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ValueError):
        GaussianBelief(np.zeros(2), np.eye(3))


def test_belief_rejects_a_matrix_mean():
    with pytest.raises(ValueError, match="mean must be a vector"):
        GaussianBelief(np.zeros((2, 2)), np.eye(2))


def test_model_validates_dimensions():
    with pytest.raises(ValueError):
        StateSpaceModel(0, 1, 1, 1, lambda x, v: x, lambda x, w: x)
    with pytest.raises(ValueError):
        StateSpaceModel(1, 1, 1, 1, None, lambda x, w: x)


def test_model_rejects_a_non_callable_likelihood():
    with pytest.raises(ValueError, match="likelihood must be callable"):
        StateSpaceModel(1, 1, 1, 1, lambda x, v: x, lambda x, w: x, likelihood=1.0)


def test_affine_process_validation():
    f = np.array([[1.0, 0.5], [0.0, 1.0]])
    g = np.array([[1.0], [2.0]])
    affine = AffineProcess(f, [0.0, 1.0], g)
    assert_allclose(affine.noise_cov, g @ g.T)
    assert not affine.transition.flags.writeable and not affine.noise_cov.flags.writeable
    f[0, 0] = 7.0
    assert affine.transition[0, 0] == 1.0
    with pytest.raises(ValueError):
        AffineProcess(np.eye(2), np.zeros(3), g)
    with pytest.raises(ValueError):
        AffineProcess(np.ones((2, 3)), np.zeros(2), g)
    with pytest.raises(ValueError):
        AffineProcess(np.eye(2), np.zeros(2), np.ones((3, 1)))
    with pytest.raises(ValueError):
        AffineProcess(np.eye(2), np.zeros(2), np.array([[np.nan], [1.0]]))
    # The declaration must fit the model's state and process noise.
    observe = lambda x, w: x[..., :1] + w  # noqa: E731
    StateSpaceModel(2, 1, 1, 1, affine, observe, affine_process=affine)
    with pytest.raises(ValueError):
        StateSpaceModel(2, 1, 2, 1, affine, observe, affine_process=affine)
    with pytest.raises(ValueError):
        StateSpaceModel(2, 1, 1, 1, affine, observe, affine_process=affine.__call__)


@pytest.mark.parametrize("scale", [0.1, 1.0, 0.37, -2.5])
def test_builtin_process_is_its_declared_map(scale):
    # Bit for bit, on sample batches and on the single vectors simulate
    # passes, the process equals both the declared matrices and the
    # documented x + scale * v.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1000, 1)) * 100.0
    v = rng.standard_normal((1000, 1))
    noise, _ = make_noise_magnitude_model(noise_scale=scale)
    heaviside, _ = make_heaviside_model()
    for model, s in ((noise, scale), (heaviside, 1.0)):
        affine = model.affine_process
        declared = x @ affine.transition.T + affine.offset + v @ affine.noise_gain.T
        assert np.array_equal(model.process(x, v), declared)
        assert np.array_equal(model.process(x, v), x + s * v)
        assert np.array_equal(model.process(x[0], v[0]), x[0] + s * v[0])


@pytest.mark.parametrize(
    "maker, kwargs",
    [
        (make_noise_magnitude_model, {"prior_var": -1.0}),
        (make_noise_magnitude_model, {"prior_var": np.nan}),
        (make_noise_magnitude_model, {"prior_var": np.inf}),
        (make_noise_magnitude_model, {"prior_mean": np.inf}),
        (make_noise_magnitude_model, {"noise_scale": np.nan}),
        (make_heaviside_model, {"prior_mean": -np.inf}),
        (make_heaviside_model, {"prior_var": -1e-300}),
        (make_heaviside_model, {"step_height": np.nan}),
    ],
)
def test_factories_reject_bad_parameters(maker, kwargs):
    # A bad parameter is a configuration error (ValueError), not a
    # numerical failure (NumericsError, a RuntimeError).
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        maker(**kwargs)


def test_factories_accept_a_point_mass_prior():
    for maker in (make_noise_magnitude_model, make_heaviside_model):
        _, prior = maker(prior_var=0.0)
        assert prior.cov[0, 0] == 0.0


def test_noise_magnitude_maps():
    model, prior = make_noise_magnitude_model()
    assert model.name == "noise_magnitude"
    assert prior.mean[0] == 5.0 and prior.cov[0, 0] == 1.0
    m = np.array([[2.0], [3.0]])
    v = np.array([[1.0], [-2.0]])
    assert_allclose(model.process(m, v), [[2.1], [2.8]])
    assert_allclose(model.observe(m, v), [[2.0], [-6.0]])


def test_noise_magnitude_likelihood():
    model, _ = make_noise_magnitude_model()
    y = np.linspace(-8.0, 8.0, 11)
    assert_allclose(model.likelihood(y, 2.0), stats.norm.pdf(y, scale=2.0), rtol=1e-12)
    # magnitude zero carries no density on the grid
    assert_allclose(model.likelihood(y, 0.0), np.zeros_like(y))
    # sign of the magnitude is irrelevant
    assert_allclose(model.likelihood(y, -2.0), model.likelihood(y, 2.0))


def test_noise_magnitude_likelihood_normalized():
    model, _ = make_noise_magnitude_model()
    y = np.linspace(-40.0, 40.0, 20001)
    h = y[1] - y[0]
    total = float(model.likelihood(y, 3.0).sum()) * h
    assert abs(total - 1.0) < 1e-6


def test_heaviside_maps():
    model, prior = make_heaviside_model()
    assert model.name == "heaviside"
    assert prior.mean[0] == 0.0 and prior.cov[0, 0] == 5.0
    x = np.array([[-1.0], [0.0], [1.0]])
    w = np.zeros((3, 1))
    # the step pays out from x = 0 inclusive
    assert_allclose(model.observe(x, w), [[-1.0], [50.0], [51.0]])
    assert_allclose(model.process(x, w), x)


def test_heaviside_likelihood_normalized():
    model, _ = make_heaviside_model()
    for x in (-2.0, 0.0, 1.5):
        y = np.linspace(x - 30.0, x + 80.0, 20001)
        h = y[1] - y[0]
        total = float(model.likelihood(y, x).sum()) * h
        assert abs(total - 1.0) < 1e-6
    # density peaks at the shifted location
    assert model.likelihood(51.0, 1.0) > model.likelihood(1.0, 1.0)


def test_simulate_shapes_and_determinism():
    model, _ = make_noise_magnitude_model()
    states, meas = simulate(model, np.array([5.0]), 40, seed=11)
    assert states.shape == (40, 1)
    assert meas.shape == (40, 1)
    again_states, again_meas = simulate(model, np.array([5.0]), 40, seed=11)
    assert np.array_equal(states, again_states)
    assert np.array_equal(meas, again_meas)
    other, _ = simulate(model, np.array([5.0]), 40, seed=12)
    assert not np.array_equal(states, other)


def test_simulate_heaviside_distribution():
    # x is a standard random walk and the measurement residual is unit
    # normal; check both against their known moments.
    model, _ = make_heaviside_model()
    steps = 20_000
    states, meas = simulate(model, np.zeros(1), steps, seed=3)
    x = states[:, 0]
    inc = np.diff(x)
    assert abs(inc.mean()) < 4.0 / np.sqrt(steps)
    assert abs(inc.std() - 1.0) < 4.0 / np.sqrt(steps)
    resid = meas[:, 0] - x - 50.0 * (x >= 0.0)
    assert abs(resid.mean()) < 4.0 / np.sqrt(steps)
    assert abs(resid.std() - 1.0) < 4.0 / np.sqrt(steps)


def test_simulate_noise_magnitude_distribution():
    model, _ = make_noise_magnitude_model()
    steps = 20_000
    states, meas = simulate(model, np.array([5.0]), steps, seed=4)
    m = states[:, 0]
    inc = np.diff(m)
    assert abs(inc.std() - 0.1) < 0.4 / np.sqrt(steps)
    # measurements rescaled by the true magnitude are standard normal
    z = meas[:, 0] / m
    assert abs(z.mean()) < 4.0 / np.sqrt(steps)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(steps)


def test_simulate_validates_steps():
    model, _ = make_noise_magnitude_model()
    with pytest.raises(ValueError):
        simulate(model, np.array([5.0]), 0, seed=0)


def test_simulate_reports_failing_step():
    model = StateSpaceModel(
        state_dim=1,
        meas_dim=1,
        process_noise_dim=1,
        obs_noise_dim=1,
        process=lambda x, v: x + 1.0,
        observe=lambda x, w: np.where(x > 2.5, np.inf, x),
        name="toy",
    )
    with pytest.raises(NumericsError) as exc:
        simulate(model, np.zeros(1), 10, seed=0)
    assert exc.value.step == 2
    assert "step 2" in str(exc.value)


def test_simulate_reports_failing_process_step():
    # The state turns infinite at step 3, and the measurement it yields
    # does too; the state is reported.
    model = StateSpaceModel(
        state_dim=1,
        meas_dim=1,
        process_noise_dim=1,
        obs_noise_dim=1,
        process=lambda x, v: np.where(x > 2.5, np.inf, x + 1.0),
        observe=lambda x, w: np.where(x > 3.5, np.inf, x),
        name="toy",
    )
    with pytest.raises(NumericsError) as exc:
        simulate(model, np.zeros(1), 10, seed=0)
    assert exc.value.step == 3
    assert "non-finite state at step 3" in str(exc.value)

"""Acceptance gate: the shipped guarantees, one PASS/FAIL line each.

Every test prints "criterion N (name): PASS" or "FAIL"; run with
`pytest -s tests/test_acceptance.py` to watch the lines go by. The two
100-seed tracking batches dominate the runtime. On a shared 2-vCPU
Intel Xeon VM (Python 3.11) criterion 5 takes about 18 s (its reports
are built one seed at a time), criterion 6 about 25 s (one batch call,
filtered in blocks of ten seeds), and the whole Tier-1 suite of 663
tests about 60 s.
"""

import functools
import math
import time

import numpy as np
import pytest

from fgfilter import (
    FgfPosteriorParams,
    GaussianBelief,
    conditional_slice,
    default_grids,
    expected_likelihood_weight,
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
    run_experiment_batch,
    run_filter,
    run_noise_experiment,
    sigma_point,
    simulate,
)
from fgfilter.cli import cli_main

from helpers import (
    kalman_filter,
    linear_ssm,
    random_affine_moments,
    random_linear_system,
)


def criterion(num, name):
    """Tag a test with its criterion number and print one verdict line."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")
            return result

        return wrapper

    return deco


@pytest.fixture(scope="module")
def grid_joints():
    """Dense joint-density grids for both built-in models, built once."""
    out = {}
    for maker, informative_order in (
        (make_noise_magnitude_model, 2),
        (make_heaviside_model, 3),
    ):
        model, prior = maker()
        x_grid, y_grid = default_grids(model, prior, n=1201, seed=0)
        joint = joint_density_grid(model, prior, x_grid, y_grid)
        out[model.name] = (joint, informative_order)
    return out


@criterion(1, "sigma-point filter reproduces the Kalman filter")
def test_kalman_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    sys = random_linear_system(rng, 3, 2)
    model = linear_ssm(sys)
    init = np.zeros(3)
    _, measurements = simulate(model, init, steps=100, seed=11)

    prior = GaussianBelief(init, np.eye(3))
    posteriors = run_filter(
        model, prior, make_affine_feature(2), sigma_point(), measurements
    )
    exact = kalman_filter(sys, init, np.eye(3), measurements)

    for got, (kf_mean, kf_cov) in zip(posteriors, exact):
        assert np.max(np.abs(got.mean - kf_mean)) < 1e-6
        scale = np.max(np.abs(kf_cov))
        assert np.max(np.abs(got.cov - kf_cov)) < 1e-5 * scale
    assert time.perf_counter() - start < 1.0


@criterion(2, "affine feature update equals classical conditioning")
def test_affine_feature_equals_gf():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 3))
        moments = random_affine_moments(rng, dx, dy)
        y = moments.mu_f[1:] + rng.standard_normal(dy)

        direct = gf_update(moments, y)
        fitted = fgf_update(fgf_solve(moments), make_affine_feature(dy), y)

        assert np.max(np.abs(fitted.mean - direct.mean)) < 1e-8
        assert np.max(np.abs(fitted.cov - direct.cov)) < 1e-8


@criterion(3, "expected likelihood weight matches the closed form")
def test_expected_likelihood_weight_law():
    start = time.perf_counter()
    n = 10**6
    for dim in (1, 2, 3, 5):
        est = expected_likelihood_weight(dim, monte_carlo(n, seed=dim))
        exact = (2.0 * math.sqrt(math.pi)) ** -dim
        # Var f = E[f^2] - (E f)^2 with E[f^2] = (2 pi)^-D 3^(-D/2)
        var = (2.0 * math.pi) ** -dim * 3.0 ** (-dim / 2.0) - (4.0 * math.pi) ** -dim
        assert abs(est - exact) <= 3.0 * math.sqrt(var / n)
    assert time.perf_counter() - start < 10.0


@criterion(4, "affine filter is blind to the noise magnitude")
def test_affine_blindness():
    model, prior = make_noise_magnitude_model()
    moments = joint_moments(prior, model, make_affine_feature(1), sigma_point())
    assert abs(moments.s_xf[0, 1]) <= 1e-10

    rep = run_noise_experiment(steps=1000, seed=0, engine=sigma_point(), orders=(1,))
    assert np.max(np.abs(rep.means[1] - 5.0)) <= 1e-9


@criterion(5, "quadratic feature tracks the noise magnitude")
def test_noise_magnitude_informativeness():
    # The win margin is insensitive to the draw count (99-100 of 100
    # anywhere from 3000 to 5000 draws), so the batch runs at 3000 to
    # hold the runtime bound on one core. Each seed keeps its own
    # engine stream, as the default engine would.
    start = time.perf_counter()
    reports = [
        run_noise_experiment(
            seed=seed, steps=1000, engine=monte_carlo(3000, seed=seed)
        )
        for seed in range(100)
    ]
    elapsed = time.perf_counter() - start
    wins = sum(1 for r in reports if r.rmse[2] < r.rmse[1])
    assert wins >= 95
    assert elapsed < 60.0, f"100 seeds took {elapsed:.1f} s"


@criterion(6, "cubic feature tracks the heaviside model near the step")
def test_heaviside_tracking():
    reports = run_experiment_batch("heaviside", n_seeds=100, steps=1000)

    near_wins = 0
    far_diffs = []
    for rep in reports:
        true = np.asarray(rep.true_states).reshape(-1)
        e_gf = np.asarray(rep.means[1]).reshape(-1) - true
        e_fgf = np.asarray(rep.means[3]).reshape(-1) - true

        near = np.abs(true) < 5.0
        if near.any() and np.sqrt(np.mean(e_fgf[near] ** 2)) < np.sqrt(
            np.mean(e_gf[near] ** 2)
        ):
            near_wins += 1

        # Far from the step both filters see the same linear problem, so
        # their absolute errors should be statistically indistinguishable.
        far = np.abs(true) > 10.0
        if far.any():
            far_diffs.append(float(np.mean(np.abs(e_gf[far]) - np.abs(e_fgf[far]))))

    assert near_wins >= 90

    far_diffs = np.asarray(far_diffs)
    se = far_diffs.std(ddof=1) / math.sqrt(far_diffs.size)
    assert abs(far_diffs.mean()) <= 2.0 * se


@criterion(7, "grid objective is nonincreasing in feature order")
def test_kl_monotone_in_order(grid_joints):
    for joint, _ in grid_joints.values():
        kls = []
        for order in (1, 2, 3):
            feature = make_monomial_feature(1, order)
            params = fgf_solve(grid_joint_moments(joint, feature))
            kls.append(kl_conditional(joint, params, feature))
        assert kls[0] >= kls[1] - 1e-6
        assert kls[1] >= kls[2] - 1e-6


@criterion(8, "grid oracle is sound and the fit is stationary")
def test_oracle_soundness(grid_joints):
    # Conjugate check: y = x + 0.6 w with prior N(1, 0.8) has a
    # closed-form Gaussian posterior to compare grid slices against.
    sys = {
        "a": np.eye(1),
        "b": np.zeros(1),
        "q": np.eye(1),
        "c": np.eye(1),
        "d": np.zeros(1),
        "r": np.array([[0.36]]),
    }
    model = linear_ssm(sys, name="scalar_linear")
    prior = GaussianBelief([1.0], [[0.8]])
    x_grid, y_grid = default_grids(model, prior, n=1201, seed=0)
    joint = joint_density_grid(model, prior, x_grid, y_grid)

    post_var = 1.0 / (1.0 / 0.8 + 1.0 / 0.36)
    for y_probe in (0.2, 1.0, 2.2):
        # The slice lives on the nearest grid column; compare against
        # the exact posterior at that column's y value.
        y_used = float(y_grid.values[np.argmin(np.abs(y_grid.values - y_probe))])
        slice_pdf = conditional_slice(joint, y_probe)
        weights = slice_pdf * x_grid.spacing
        grid_mean = float(x_grid.values @ weights)
        grid_var = float(((x_grid.values - grid_mean) ** 2) @ weights)

        post_mean = post_var * (1.0 / 0.8 + y_used / 0.36)
        assert abs(grid_mean - post_mean) <= 0.02 * abs(post_mean)
        assert abs(grid_var - post_var) <= 0.02 * post_var

    # Stationarity: the fitted coefficients minimize the objective, so
    # multiplicative +-10% perturbations can only raise it.
    rng = np.random.default_rng(88)
    for joint, order in grid_joints.values():
        feature = make_monomial_feature(1, order)
        params = fgf_solve(grid_joint_moments(joint, feature))
        kl0 = kl_conditional(joint, params, feature)
        for _ in range(20):
            factors = rng.choice((0.9, 1.1), size=params.gamma.shape)
            perturbed = FgfPosteriorParams(
                gamma=params.gamma * factors, sigma=params.sigma
            )
            assert kl_conditional(joint, perturbed, feature) >= kl0 - 1e-9


@criterion(9, "reruns with the same seed produce byte-identical CSVs")
def test_rerun_determinism(tmp_path):
    commands = [
        ["simulate", "--model", "noise_magnitude", "--steps", "100",
         "--seeds", "2", "--seed", "3"],
        ["density", "--model", "heaviside", "--grid-n", "161", "--seed", "3"],
        ["kl", "--model", "noise_magnitude", "--grid-n", "401", "--seed", "3"],
    ]
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        for argv in commands:
            assert cli_main([*argv, "--out", str(out)]) == 0
        outs.append(out)

    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

"""Property tests: invariants that must hold for arbitrary inputs.

Randomized structures (matrices, moment sets) are built from a seeded
generator so every failing example shrinks to a reproducible seed.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fgfilter import (
    GaussianBelief,
    expect,
    gaussian_moment_oracle,
    gf_update,
    fgf_solve,
    fgf_update,
    make_affine_feature,
    sigma_point,
)
from fgfilter._linalg import _clip_psd, _psd_roots

from helpers import random_affine_moments, random_spd

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _raw_moment_reference(mean, var, k):
    # Binomial expansion about the mean; even central moments are
    # var^(j/2) * (j - 1)!!. Independent of the package's recursion and
    # stable at any scale, unlike scipy's moment() for tiny loc.
    total = 0.0
    for j in range(0, k + 1, 2):
        double_fact = math.prod(range(j - 1, 0, -2)) if j else 1
        total += math.comb(k, j) * var ** (j // 2) * double_fact * mean ** (k - j)
    return total


@settings(deadline=None)
@given(
    mean=st.floats(-5.0, 5.0),
    var=st.floats(0.0, 10.0),
    k=st.integers(0, 8),
)
def test_gaussian_moment_oracle_matches_direct_expansion(mean, var, k):
    got = gaussian_moment_oracle(mean, var, k)
    assert np.isclose(got, _raw_moment_reference(mean, var, k), rtol=1e-9, atol=1e-12)


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5))
def test_sqrt_psd_squares_back(seed, n):
    mat = random_spd(np.random.default_rng(seed), n)
    root = _psd_roots(mat[None])[0][0]
    np.testing.assert_allclose(root @ root.T, mat, atol=1e-10)


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5))
def test_ensure_psd_is_idempotent(seed, n):
    mat = random_spd(np.random.default_rng(seed), n)
    once = _clip_psd(mat[None], np.ones(1))[0]
    np.testing.assert_allclose(_clip_psd(once, np.ones(1))[0], once, atol=1e-12)


@settings(deadline=None)
@given(seed=SEEDS, dx=st.integers(1, 4), dy=st.integers(1, 3))
def test_affine_feature_fit_equals_conditioning(seed, dx, dy):
    rng = np.random.default_rng(seed)
    moments = random_affine_moments(rng, dx, dy)
    y = moments.mu_f[1:] + rng.standard_normal(dy)
    direct = gf_update(moments, y)
    fitted = fgf_update(fgf_solve(moments), make_affine_feature(dy), y)
    np.testing.assert_allclose(fitted.mean, direct.mean, atol=1e-8)
    np.testing.assert_allclose(fitted.cov, direct.cov, atol=1e-8)


@settings(deadline=None)
@given(seed=SEEDS, dx=st.integers(1, 4), dy=st.integers(1, 3))
def test_conditioning_never_inflates_covariance(seed, dx, dy):
    rng = np.random.default_rng(seed)
    moments = random_affine_moments(rng, dx, dy)
    y = moments.mu_f[1:] + rng.standard_normal(dy)
    posterior = gf_update(moments, y)
    shrink = moments.s_xx - posterior.cov
    assert np.min(np.linalg.eigvalsh((shrink + shrink.T) / 2.0)) > -1e-10


@settings(deadline=None)
@given(seed=SEEDS, dim=st.integers(1, 4), noise_dim=st.integers(1, 3))
def test_sigma_points_are_exact_on_linear_functions(seed, dim, noise_dim):
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(dim)
    belief = GaussianBelief(mean, random_spd(rng, dim))
    a = rng.standard_normal(dim)
    b = rng.standard_normal(noise_dim)

    def f(states, noises):
        return states @ a + noises @ b

    got = expect(sigma_point(), belief, noise_dim, f)
    np.testing.assert_allclose(got, a @ mean, atol=1e-10)
